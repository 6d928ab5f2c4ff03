"""Reduced 1-D flexible-tube coupled problem.

Flow
----
Finite-volume discretization of the area-averaged tube equations

    da/dt + d(a v)/dx = 0
    d(a v)/dt + d(a v^2)/dx + (a/rho_f) dp/dx = 0

on ``cells`` equal cells with a staggered arrangement: velocities live on the
``cells + 1`` faces, pressures in the cells, ``u = [v_0..v_n, p_0..p_{n-1}]``.
Backward Euler in time, first-order upwind for the momentum convection, and
Dirichlet pressure at both end faces (a pressure pulse at the inlet, zero at
the outlet) entering through the half-cell momentum balances of the two
boundary faces. The cross-section profile ``a`` is frozen from the interface
displacement for the whole solver call, so its rate of change acts as a fixed
mass source. Every pressure stencil is a two-point difference, so no
checkerboard mode exists, and the discrete global mass balance closes exactly
with the physical boundary fluxes ``a_face * v`` at the two ends. The system
matrix and its Newton tangent are kept as bands (:class:`FlowOperator`) and
solved in O(n) operations.

Solid
-----
Independent elastic rings at the ``cells + 1`` cell faces (the interface
nodes), clamped at both ends:

    rho_s h d'' + k1 d + kappa3 d^3 = p,   k1 = E h / (r0^2 (1 - nu^2))

with backward Euler in time. The cubic coefficient ``kappa3`` makes the solid
genuinely nonlinear; its default is calibrated so the first loaded solver call
needs about three Newton iterations from rest.

Interface
---------
Node j sits on face j. The flow hands back nodal pressures (boundary nodes
carry the imposed face pressures, interior nodes the two-cell average); the
solid hands back nodal radial displacements; cell areas derive from the nodal
average ``a_i = pi (r0 + (d_i + d_{i+1})/2)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, GeometryError
from ..interface import FieldRole, InterfaceField
from ..subproblem import DiagonalOperator, DriverKind, NonlinearSystemSpec


@dataclass(frozen=True)
class Tube1DParams:
    """Geometry, material, and run parameters of the 1-D flexible tube."""

    length: float = 0.05  # m
    radius: float = 0.005  # m
    thickness: float = 0.001  # m
    rho_f: float = 1000.0  # kg/m^3
    mu_f: float = 0.003  # Pa s (recorded with the material set; the reduced
    #                      momentum equation is inviscid and does not use it)
    rho_s: float = 1200.0  # kg/m^3
    youngs_modulus: float = 3.0e5  # N/m^2
    poisson: float = 0.3
    cells: int = 100
    dt: float = 1e-4  # s
    steps: int = 100
    inlet_pulse: float = 1333.2  # Pa
    pulse_duration: float = 0.003  # s
    outlet_pressure: float = 0.0  # Pa
    kappa3: float = 2.0e13  # Pa/m^3, cubic wall stiffening (calibrated default)

    def __post_init__(self):
        for name in ("length", "radius", "thickness", "rho_f", "mu_f", "rho_s",
                     "youngs_modulus", "dt"):
            if getattr(self, name) <= 0:
                raise ContractError(f"{name} must be positive")
        if not (0.0 <= self.poisson < 0.5):
            raise ContractError("poisson must lie in [0, 0.5)")
        if self.kappa3 < 0:
            raise ContractError("kappa3 must be >= 0")
        if self.cells < 2 or self.steps < 1:
            raise ContractError("cells must be >= 2 and steps >= 1")

    @property
    def dx(self) -> float:
        return self.length / self.cells

    @property
    def n_nodes(self) -> int:
        return self.cells + 1

    @property
    def ring_stiffness(self) -> float:
        return self.youngs_modulus * self.thickness / (
            self.radius**2 * (1.0 - self.poisson**2)
        )

    @property
    def wall_mass(self) -> float:
        return self.rho_s * self.thickness

    def inlet_pressure(self, step: int) -> float:
        """Inlet face pressure for time step `step` (1-based, evaluated at t_new)."""
        return self.inlet_pulse if step * self.dt <= self.pulse_duration + 1e-12 else 0.0


@dataclass
class TubeState:
    """Accepted solution state at the start of a time step."""

    area: np.ndarray  # per cell, m^2
    velocity: np.ndarray  # axial velocity per face (staggered), m/s
    pressure: np.ndarray  # per cell, Pa
    wall_disp: np.ndarray  # per node, m
    wall_vel: np.ndarray  # per node, m/s
    wall_acc: np.ndarray  # per node, m/s^2
    step: int = 0  # completed steps


def initial_tube_state(params: Tube1DParams) -> TubeState:
    n, m = params.cells, params.n_nodes
    return TubeState(
        area=np.full(n, math.pi * params.radius**2),
        velocity=np.zeros(n + 1),
        pressure=np.zeros(n),
        wall_disp=np.zeros(m),
        wall_vel=np.zeros(m),
        wall_acc=np.zeros(m),
        step=0,
    )


def areas_from_displacement(params: Tube1DParams, wall_disp: np.ndarray) -> np.ndarray:
    """Cell areas from nodal radial displacements; rejects collapsed sections."""
    d_cell = 0.5 * (wall_disp[:-1] + wall_disp[1:])
    radii = params.radius + d_cell
    if (radii <= 0.0).any():
        raise GeometryError("non-positive tube radius from interface displacement")
    return math.pi * radii**2


def _face_average(cell_values: np.ndarray) -> np.ndarray:
    n = cell_values.size
    face = np.empty(n + 1)
    face[0] = cell_values[0]
    face[1:n] = 0.5 * (cell_values[:-1] + cell_values[1:])
    face[n] = cell_values[-1]
    return face


def mass_balance_error(params: Tube1DParams, state_old: TubeState,
                       state_new: TubeState) -> float:
    """Global mass defect of one accepted step: d(volume) + dt*(outflux - influx).

    Uses the scheme's own boundary fluxes ``a_face * v``; interior fluxes
    telescope exactly, so this is bounded by the flow solver tolerance.
    """
    a_face = _face_average(state_new.area)
    influx = a_face[0] * state_new.velocity[0]
    outflux = a_face[-1] * state_new.velocity[-1]
    dvol = (state_new.area.sum() - state_old.area.sum()) * params.dx
    return float(dvol + params.dt * (outflux - influx))


class FlowOperator:
    """The staggered flow system ``[[T, G], [D, 0]]`` kept as bands; O(n) apply and solve.

    ``T`` (faces x faces) is tridiagonal with bands ``lo``, ``diag``, ``up``.
    ``G`` (faces x cells) is the lower-bidiagonal pressure gradient: face j
    reads ``g_j * (p_j - p_{j-1})``, with the missing neighbour dropped at the
    two end faces. ``D`` (cells x faces) is the upper-bidiagonal mass block:
    cell i reads ``d_{i+1} v_{i+1} - d_i v_i``.
    """

    def __init__(self, lo: np.ndarray, diag: np.ndarray, up: np.ndarray,
                 g: np.ndarray, d: np.ndarray, ell: np.ndarray | None = None,
                 z: np.ndarray | None = None):
        self.lo, self.diag, self.up = lo, diag, up
        self.g, self.d = g, d
        # 1/g and 1/d; a spec passes the arrays it shares between operators
        self.ell = 1.0 / g if ell is None else ell
        self.z = 1.0 / d if z is None else z

    def _t(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``T x``, written into ``out`` when given."""
        y = np.multiply(self.diag, x, out)
        # in-place on views: ``y[1:] += ...`` would also copy the view back
        below, above = y[1:], y[:-1]
        below += self.lo * x[:-1]
        above += self.up * x[1:]
        return y

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        nf = self.diag.size
        v, p = u[:nf], u[nf:]
        out = np.empty(u.size)
        mom = self._t(v, out[:nf])
        above, below = mom[:-1], mom[1:]
        above += self.g[:-1] * p
        below -= self.g[1:] * p
        np.subtract(self.d[1:] * v[1:], self.d[:-1] * v[:-1], out[nf:])
        return out

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve ``[[T, G], [D, 0]] [v; p] = [f; h]`` in three sweeps.

        ``D v = h`` fixes the fluxes ``d * v`` up to one constant ``c`` (a
        cumulative sum): ``v = v_h + c z`` with ``z = 1/d``. ``ell = 1/g`` is a
        left null vector of ``G``, so ``ell^T T v = ell^T f`` fixes ``c``. Then
        ``G p = f - T v`` is a cumulative sum down the faces.
        """
        nf = self.diag.size
        f, h = r[:nf], r[nf:]
        ell, z = self.ell, self.z
        ell_t_z = ell.dot(self._t(z))
        if ell_t_z == 0.0 or not math.isfinite(ell_t_z):
            raise np.linalg.LinAlgError("singular flow operator")
        out = np.empty(r.size)
        v, p = out[:nf], out[nf:]
        v_h = np.empty(nf)  # [0, cumsum(h)] * z
        v_h[0] = 0.0
        np.add.accumulate(h, out=v_h[1:])
        v_h *= z
        t = self._t(v_h)  # v = v_h + (ell^T (f - T v_h) / ell^T T z) z
        np.add(v_h, (ell.dot(np.subtract(f, t, t)) / ell_t_z) * z, v)
        t = self._t(v)  # p = cumsum((f - T v)[:-1] * ell[:-1])
        np.add.accumulate(np.multiply(np.subtract(f, t, t)[:-1], ell[:-1], p), out=p)
        return out


def tube_flow_system(
    params: Tube1DParams,
    state: TubeState,
    displacement: InterfaceField,
    driver: DriverKind = DriverKind.NEWTON,
) -> NonlinearSystemSpec:
    """Flow subproblem for the upcoming time step, areas frozen from `displacement`.

    Staggered unknowns ``u = [v_0..v_n, p_0..p_{n-1}]`` (face velocities, cell
    pressures, dim 2n+1). Momentum is balanced per face, mass per cell; the
    imposed face pressures drive the two half-cell boundary momentum rows.
    """
    return _flow_system(params, state, displacement, driver, *_step_terms(params, state)[:2])


def _step_terms(params: Tube1DParams, state: TubeState, static: bool = False) -> tuple:
    """A step's fixed terms: the flow's old momentum ``a_face_old * v_old / dt`` and inlet
    pressure, the linear part of both solid diagonals, the solid inertia (None if static)."""
    ms_dt2 = 0.0 if static else params.wall_mass / params.dt**2
    d_old, w_old = state.wall_disp[1:-1], state.wall_vel[1:-1]
    return (_face_average(state.area) * state.velocity / params.dt,
            params.inlet_pressure(state.step + 1),
            np.full(params.n_nodes, ms_dt2 + params.ring_stiffness),
            None if static else ms_dt2 * (d_old + params.dt * w_old))


def _flow_system(params, state, displacement, driver, momentum_old, p_in) -> NonlinearSystemSpec:
    if displacement.role is not FieldRole.DISPLACEMENT:
        raise ContractError("flow system expects a displacement field")
    if displacement.size != params.n_nodes:
        raise ContractError(
            f"displacement field length {displacement.size} != nodes {params.n_nodes}"
        )
    n = params.cells
    dx, dt, rho = params.dx, params.dt, params.rho_f
    a = areas_from_displacement(params, displacement.values)
    a_face = _face_average(a)
    a_old = state.area
    p_out = params.outlet_pressure
    frozen = displacement.values

    dim = 2 * n + 1

    g = a_face / (rho * dx)  # pressure-gradient weights; the half-cell end rows double
    g[0] *= 2.0
    g[n] *= 2.0
    d = a_face / dx  # mass-flux weights
    ell, z = 1.0 / g, 1.0 / d  # shared by every operator of this spec
    time_diag = a_face / dt  # the time band every momentum diagonal starts from
    half_a = 0.5 * a
    # velocities of the last assemble_matrix call and their bands: the Newton
    # driver asks for the tangent at the same u right after assembling A(u)
    last_v: np.ndarray | None = None
    last_bands: tuple = ()

    def _momentum_bands(v: np.ndarray):
        """Time, upwind convection and boundary-flux bands of the momentum block."""
        # face j balances (F_j - F_{j-1})/dx with cell-center fluxes, so the
        # flux through cell i, a_i*vc_i*v_up(i), is the right flux of face i
        # (+) and the left flux of face i+1 (-)
        vc = 0.5 * (v[:-1] + v[1:])
        coeff = a * vc / dx
        forward = vc >= 0.0  # upwind face is i, else i+1
        cf = np.where(forward, coeff, 0.0)
        cb = np.where(forward, 0.0, coeff)
        diag = time_diag.copy()
        diag[:-1] += cf
        diag[1:] -= cb
        # boundary extension fluxes: F_{-1} = a_face0*v0*v0, F_n = a_facen*vn*vn
        diag[0] -= a_face[0] * v[0] / dx
        diag[n] += a_face[n] * v[n] / dx
        return -cf, diag, cb, forward

    def assemble_matrix(u: np.ndarray) -> FlowOperator:
        nonlocal last_v, last_bands
        last_v = u[: n + 1].copy()
        last_bands = _momentum_bands(last_v)
        lo, diag, up, _ = last_bands
        return FlowOperator(lo, diag, up, g, d, ell, z)

    def tangent(u: np.ndarray) -> FlowOperator:
        v = u[: n + 1]
        # compare values, not identity: u may have been edited in place since
        if last_v is not None and (v == last_v).all():
            lo, diag, up, forward = last_bands
        else:
            lo, diag, up, forward = _momentum_bands(v)
        # d(A(u) u)/du: cell-flux coefficient a_i*vc_i differentiates into
        # 0.5*a_i*v_up against both faces of cell i; new arrays throughout, so
        # the bands an A(u) operator holds stay untouched
        w = half_a * np.where(forward, v[:-1], v[1:]) / dx
        diag = diag.copy()
        diag[:-1] += w
        diag[1:] -= w
        # boundary extension fluxes a_face*v*v
        diag[0] -= a_face[0] * v[0] / dx
        diag[n] += a_face[n] * v[n] / dx
        return FlowOperator(lo - w, diag, up + w, g, d, ell, z)

    def assemble_rhs(coupling: InterfaceField) -> np.ndarray:
        if coupling.size != params.n_nodes:
            raise ContractError("coupling data length mismatch")
        if coupling.values is not frozen and not np.array_equal(coupling.values, frozen):
            raise ContractError("coupling data differs from the field this system was built for")
        b = np.zeros(dim)
        b[: n + 1] = momentum_old
        b[0] += 2.0 * a_face[0] * p_in / (rho * dx)
        b[n] -= 2.0 * a_face[n] * p_out / (rho * dx)
        b[n + 1 :] = -(a - a_old) / dt
        return b

    def extract_output(u: np.ndarray) -> InterfaceField:
        p = u[n + 1 :]
        traction = np.empty(params.n_nodes)
        traction[0] = p_in
        traction[1:n] = 0.5 * (p[:-1] + p[1:])
        traction[n] = p_out
        return InterfaceField._adopt(traction, FieldRole.TRACTION)

    return NonlinearSystemSpec(
        dim=dim,
        assemble_matrix=assemble_matrix,
        assemble_rhs=assemble_rhs,
        tangent=tangent,
        driver=driver,
        extract_output=extract_output,
        label="tube flow",
    )


def tube_solid_system(
    params: Tube1DParams,
    state: TubeState,
    traction: InterfaceField,
    static: bool = False,
) -> NonlinearSystemSpec:
    """Solid subproblem (independent clamped rings) for the upcoming time step.

    ``static=True`` drops the inertia terms; used by the closed-form ring
    oracle tests. The output field takes over the solver's final state array.
    """
    return _solid_system(params, traction, *_step_terms(params, state, static)[2:])


def _solid_system(params, traction, base, inertia) -> NonlinearSystemSpec:
    if traction.role is not FieldRole.TRACTION:
        raise ContractError("solid system expects a traction field")
    if traction.size != params.n_nodes:
        raise ContractError(
            f"traction field length {traction.size} != nodes {params.n_nodes}"
        )
    m = params.n_nodes
    kappa3 = params.kappa3

    def assemble_matrix(u: np.ndarray) -> DiagonalOperator:
        diag = base.copy()
        diag[1:-1] += kappa3 * u[1:-1] ** 2
        return DiagonalOperator(diag)

    def assemble_rhs(coupling: InterfaceField) -> np.ndarray:
        if coupling.size != m:
            raise ContractError("coupling data length mismatch")
        b = np.zeros(m)
        b[1:-1] = coupling.values[1:-1]
        if inertia is not None:
            b[1:-1] += inertia
        return b

    def tangent(u: np.ndarray) -> DiagonalOperator:
        diag = base.copy()
        diag[1:-1] += 3.0 * kappa3 * u[1:-1] ** 2
        return DiagonalOperator(diag)

    return NonlinearSystemSpec(
        dim=m,
        assemble_matrix=assemble_matrix,
        assemble_rhs=assemble_rhs,
        tangent=tangent,
        driver=DriverKind.NEWTON,
        extract_output=lambda u: InterfaceField._adopt(u, FieldRole.DISPLACEMENT),
        label="tube solid",
    )


class Tube1DModel:
    """Engine adapter bundling the tube flow and solid subproblems."""

    def __init__(
        self,
        params: Tube1DParams | None = None,
        flow_driver: DriverKind = DriverKind.NEWTON,
    ):
        self.params = params or Tube1DParams()
        self.flow_driver = flow_driver
        self.n_interface = self.params.n_nodes
        self.n_steps = self.params.steps
        self._last = (None, None)  # (key, step terms) of the last state seen

    def initial_state(self) -> TubeState:
        return initial_tube_state(self.params)

    def initial_displacement(self) -> InterfaceField:
        return InterfaceField(np.zeros(self.params.n_nodes), FieldRole.DISPLACEMENT)

    def initial_flow_u(self) -> np.ndarray:
        return np.zeros(2 * self.params.cells + 1)

    def initial_solid_u(self) -> np.ndarray:
        return np.zeros(self.params.n_nodes)

    def flow_system(self, state: TubeState, displacement: InterfaceField) -> NonlinearSystemSpec:
        terms = self._step_terms(state)[:2]
        return _flow_system(self.params, state, displacement, self.flow_driver, *terms)

    def solid_system(self, state: TubeState, traction: InterfaceField) -> NonlinearSystemSpec:
        return _solid_system(self.params, traction, *self._step_terms(state)[2:])

    def _step_terms(self, state: TubeState) -> tuple:
        """:func:`_step_terms`, reused while params, step and array bytes stay the same."""
        key = (self.params, state.step, state.area.tobytes(), state.velocity.tobytes(),
               state.wall_disp.tobytes(), state.wall_vel.tobytes())
        if key != self._last[0]:
            self._last = key, _step_terms(self.params, state)
        return self._last[1]

    def advance_state(self, state: TubeState, accepted_displacement: InterfaceField,
                      flow_u: np.ndarray, solid_u: np.ndarray) -> TubeState:
        n = self.params.cells
        dt = self.params.dt
        d_new = accepted_displacement.values.copy()
        w_new = (d_new - state.wall_disp) / dt
        return TubeState(
            area=areas_from_displacement(self.params, d_new),
            velocity=flow_u[: n + 1].copy(),
            pressure=flow_u[n + 1 :].copy(),
            wall_disp=d_new,
            wall_vel=w_new,
            wall_acc=(w_new - state.wall_vel) / dt,
            step=state.step + 1,
        )
