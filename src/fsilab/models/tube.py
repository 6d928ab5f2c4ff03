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
from ..interface import FieldRole, InterfaceField, require_count
from ..subproblem import DriverKind


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
        require_count(self.cells, "cells", 2)
        require_count(self.steps, "steps", 1)

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
        # 1/g and 1/d; a solver call passes the arrays it shares between operators
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


class TubeFlowSolver:
    """The flow subproblem of one time step; each call freezes the areas from its displacement.

    Staggered unknowns ``u = [v_0..v_n, p_0..p_{n-1}]`` (face velocities, cell
    pressures, dim 2n+1). Momentum is balanced per face, mass per cell; the
    imposed face pressures drive the two half-cell boundary momentum rows.
    """

    label = "tube flow"

    def __init__(self, params: Tube1DParams, state: TubeState,
                 driver: DriverKind = DriverKind.NEWTON):
        self.params, self.driver = params, driver
        self.dim = 2 * params.cells + 1
        # the old momentum a_face_old * v_old / dt and the inlet pressure of the step
        self._momentum_old = _face_average(state.area) * state.velocity / params.dt
        self._p_in = params.inlet_pressure(state.step + 1)
        self._a_old = state.area.copy()

    def load(self, displacement: InterfaceField) -> tuple:
        params = self.params
        if displacement.role is not FieldRole.DISPLACEMENT:
            raise ContractError("flow solver expects a displacement field")
        if displacement.size != params.n_nodes:
            raise ContractError(
                f"displacement field length {displacement.size} != nodes {params.n_nodes}"
            )
        n = params.cells
        dx, dt, rho = params.dx, params.dt, params.rho_f
        a = areas_from_displacement(params, displacement.values)
        a_face = _face_average(a)
        g = a_face / (rho * dx)  # pressure-gradient weights; the half-cell end rows double
        g[0] *= 2.0
        g[n] *= 2.0
        d = a_face / dx  # mass-flux weights
        ell, z = 1.0 / g, 1.0 / d  # shared by every operator of this call
        time_diag = a_face / dt  # the time band every momentum diagonal starts from
        half_a = 0.5 * a
        b = np.zeros(self.dim)
        b[: n + 1] = self._momentum_old
        b[0] += 2.0 * a_face[0] * self._p_in / (rho * dx)
        b[n] -= 2.0 * a_face[n] * params.outlet_pressure / (rho * dx)
        b[n + 1 :] = -(a - self._a_old) / dt
        last = None  # A(u) of the last residual and its upwind mask

        def residual(u: np.ndarray) -> np.ndarray:
            """``b - A(u) u``; keeps ``A(u)``'s momentum bands for the solve at ``u``."""
            nonlocal last
            # face j balances (F_j - F_{j-1})/dx with cell-center fluxes, so the
            # flux through cell i, a_i*vc_i*v_up(i), is the right flux of face i
            # (+) and the left flux of face i+1 (-)
            v = u[: n + 1]
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
            last = FlowOperator(-cf, diag, cb, g, d, ell, z), forward
            return b - last[0] @ u

        def picard(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            return last[0].solve(r)

        def newton(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            # d(A(u) u)/du: cell-flux coefficient a_i*vc_i differentiates into
            # 0.5*a_i*v_up against both faces of cell i; new arrays throughout,
            # so a second solve at the same iterate reads the same bands
            op, forward = last
            v = u[: n + 1]
            w = half_a * np.where(forward, v[:-1], v[1:]) / dx
            diag = op.diag.copy()
            diag[:-1] += w
            diag[1:] -= w
            # boundary extension fluxes a_face*v*v
            diag[0] -= a_face[0] * v[0] / dx
            diag[n] += a_face[n] * v[n] / dx
            return FlowOperator(op.lo - w, diag, op.up + w, g, d, ell, z).solve(r)

        return b, residual, newton if self.driver is DriverKind.NEWTON else picard

    def output(self, u: np.ndarray) -> InterfaceField:
        n = self.params.cells
        p = u[n + 1 :]
        traction = np.empty(self.params.n_nodes)
        traction[0] = self._p_in
        traction[1:n] = 0.5 * (p[:-1] + p[1:])
        traction[n] = self.params.outlet_pressure
        return InterfaceField._adopt(traction, FieldRole.TRACTION)


class TubeSolidSolver:
    """The solid subproblem (independent clamped rings) of one time step.

    ``static=True`` drops the inertia terms; used by the closed-form ring
    oracle tests. The output field takes over the solver's final state array.
    """

    label = "tube solid"
    driver = DriverKind.NEWTON

    def __init__(self, params: Tube1DParams, state: TubeState, static: bool = False):
        self.params = params
        self.dim = params.n_nodes
        ms_dt2 = 0.0 if static else params.wall_mass / params.dt**2
        self._base = np.full(params.n_nodes, ms_dt2 + params.ring_stiffness)  # linear diagonal
        self._inertia = None if static else ms_dt2 * (
            state.wall_disp[1:-1] + params.dt * state.wall_vel[1:-1])

    def load(self, traction: InterfaceField) -> tuple:
        m = self.dim
        if traction.role is not FieldRole.TRACTION:
            raise ContractError("solid solver expects a traction field")
        if traction.size != m:
            raise ContractError(f"traction field length {traction.size} != nodes {m}")
        b = np.zeros(m)
        b[1:-1] = traction.values[1:-1]
        if self._inertia is not None:
            b[1:-1] += self._inertia
        base, kappa3 = self._base, self.params.kappa3
        u_sq = None  # the squared interior displacements of the last residual

        def residual(u: np.ndarray) -> np.ndarray:
            nonlocal u_sq
            u_sq = u[1:-1] ** 2
            diag = base.copy()
            diag[1:-1] += kappa3 * u_sq
            return b - diag * u

        def solve(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            diag = base.copy()
            diag[1:-1] += 3.0 * kappa3 * u_sq
            if not diag.all():
                raise np.linalg.LinAlgError("zero diagonal entry")
            return r / diag

        return b, residual, solve

    def output(self, u: np.ndarray) -> InterfaceField:
        return InterfaceField._adopt(u, FieldRole.DISPLACEMENT)


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

    def initial_state(self) -> TubeState:
        return initial_tube_state(self.params)

    def initial_displacement(self) -> InterfaceField:
        return InterfaceField(np.zeros(self.params.n_nodes), FieldRole.DISPLACEMENT)

    def initial_flow_u(self) -> np.ndarray:
        return np.zeros(2 * self.params.cells + 1)

    def initial_solid_u(self) -> np.ndarray:
        return np.zeros(self.params.n_nodes)

    def flow_solver(self, state: TubeState) -> TubeFlowSolver:
        return TubeFlowSolver(self.params, state, self.flow_driver)

    def solid_solver(self, state: TubeState) -> TubeSolidSolver:
        return TubeSolidSolver(self.params, state)

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
