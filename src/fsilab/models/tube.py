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
matrix and its Newton tangent are kept as bands: the residual applies ``A(u)``
inline, and :func:`_flow_solve` solves with either in O(n) operations.

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
from dataclasses import dataclass, fields

import numpy as np

from ..errors import ContractError, GeometryError
from ..interface import require_count, require_finite, require_member, require_positive
from ..subproblem import DriverKind


@dataclass(frozen=True)
class Tube1DParams:
    """Geometry, material, and run parameters of the 1-D flexible tube."""

    length: float = 0.05  # m
    radius: float = 0.005  # m
    thickness: float = 0.001  # m
    rho_f: float = 1000.0  # kg/m^3 (the reduced momentum equation is inviscid)
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
        require_finite("tube parameter", {f.name: getattr(self, f.name)
                                          for f in fields(self) if f.type == "float"})
        for name in ("length", "radius", "thickness", "rho_f", "rho_s",
                     "youngs_modulus", "dt"):
            require_positive(getattr(self, name), name)
        for name in ("dt", "radius"):  # the solid divides by their squares
            value = getattr(self, name)
            if value * value == 0.0:
                raise ContractError(f"tube parameter {name!r} = {value!r} is so small "
                                    "that its square underflows to 0")
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
        return self.inlet_pulse if step * self.dt <= self.pulse_duration * (1 + 1e-12) else 0.0


@dataclass
class TubeState:
    """Accepted solution state at the start of a time step."""

    area: np.ndarray  # per cell, m^2
    velocity: np.ndarray  # axial velocity per face (staggered), m/s
    pressure: np.ndarray  # per cell, Pa
    wall_disp: np.ndarray  # per node, m
    wall_vel: np.ndarray  # per node, m/s
    step: int = 0  # completed steps


def initial_tube_state(params: Tube1DParams) -> TubeState:
    n, m = params.cells, params.n_nodes
    return TubeState(
        area=np.full(n, math.pi * params.radius**2),
        velocity=np.zeros(n + 1),
        pressure=np.zeros(n),
        wall_disp=np.zeros(m),
        wall_vel=np.zeros(m),
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


def _tri_apply(lo: np.ndarray, diag: np.ndarray, up: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T x`` for the tridiagonal ``T`` with bands ``lo``, ``diag``, ``up``."""
    y = np.multiply(diag, x)
    # in-place on views: ``y[1:] += ...`` would also copy the view back
    below, above = y[1:], y[:-1]
    below += lo * x[:-1]
    above += up * x[1:]
    return y


def _flow_solve(lo: np.ndarray, diag: np.ndarray, up: np.ndarray, ell: np.ndarray,
                z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve the staggered flow system ``[[T, G], [D, 0]] [v; p] = [f; h]`` in three sweeps.

    ``T`` (faces x faces) is tridiagonal with bands ``lo``, ``diag``, ``up``.
    ``G`` (faces x cells) is the lower-bidiagonal pressure gradient: face j
    reads ``g_j * (p_j - p_{j-1})``, with the missing neighbour dropped at the
    two end faces. ``D`` (cells x faces) is the upper-bidiagonal mass block:
    cell i reads ``d_{i+1} v_{i+1} - d_i v_i``. Only ``ell = 1/g`` and
    ``z = 1/d`` enter the solve.

    ``D v = h`` fixes the fluxes ``d * v`` up to one constant ``c`` (a
    cumulative sum): ``v = v_h + c z``. ``ell`` is a left null vector of
    ``G``, so ``ell^T T v = ell^T f`` fixes ``c``. Then ``G p = f - T v`` is a
    cumulative sum down the faces. Raises :class:`numpy.linalg.LinAlgError`
    when ``ell^T T z`` is zero or not finite.
    """
    nf = diag.size
    f, h = r[:nf], r[nf:]
    ell_t_z = ell.dot(_tri_apply(lo, diag, up, z))
    if ell_t_z == 0.0 or not math.isfinite(ell_t_z):
        raise np.linalg.LinAlgError("singular flow operator")
    out = np.empty(r.size)
    v, p = out[:nf], out[nf:]
    v_h = np.empty(nf)  # [0, cumsum(h)] * z
    v_h[0] = 0.0
    np.add.accumulate(h, out=v_h[1:])
    v_h *= z
    t = _tri_apply(lo, diag, up, v_h)  # v = v_h + (ell^T (f - T v_h) / ell^T T z) z
    np.add(v_h, (ell.dot(np.subtract(f, t, t)) / ell_t_z) * z, v)
    t = _tri_apply(lo, diag, up, v)  # p = cumsum((f - T v)[:-1] * ell[:-1])
    np.add.accumulate(np.multiply(np.subtract(f, t, t)[:-1], ell[:-1], p), out=p)
    return out


class TubeFlowSolver:
    """The flow subproblem of one time step; each call freezes the areas from its displacement.

    Staggered unknowns ``u = [v_0..v_n, p_0..p_{n-1}]`` (face velocities, cell
    pressures, dim 2n+1). Momentum is balanced per face, mass per cell; the
    imposed face pressures drive the two half-cell boundary momentum rows.
    """

    def __init__(self, params: Tube1DParams, state: TubeState,
                 flow_scheme: DriverKind = DriverKind.NEWTON):
        require_member(flow_scheme, DriverKind, "flow_scheme")
        self.params, self._flow_scheme = params, flow_scheme
        self.dim = 2 * params.cells + 1
        # the old momentum a_face_old * v_old / dt and the inlet pressure of the step
        self._momentum_old = _face_average(state.area) * state.velocity / params.dt
        self._p_in = params.inlet_pressure(state.step + 1)
        self._a_old = state.area.copy()

    def load(self, displacement: np.ndarray) -> tuple:
        params = self.params
        if displacement.shape != (params.n_nodes,):
            raise ContractError(
                f"displacement has shape {displacement.shape}, expected ({params.n_nodes},)")
        n = params.cells
        dx, dt, rho = params.dx, params.dt, params.rho_f
        a = areas_from_displacement(params, displacement)
        a_face = _face_average(a)
        g = a_face / (rho * dx)  # pressure-gradient weights; the half-cell end rows double
        g[0] *= 2.0
        g[n] *= 2.0
        d = a_face / dx  # mass-flux weights
        ell, z = 1.0 / g, 1.0 / d  # shared by every solve of this call
        time_diag = a_face / dt  # the time band every momentum diagonal starts from
        half_a = 0.5 * a
        a_in, a_out = float(a_face[0]), float(a_face[n])  # the end faces' areas
        b = np.zeros(self.dim)
        b[: n + 1] = self._momentum_old
        b[0] += 2.0 * a_in * self._p_in / (rho * dx)
        b[n] -= 2.0 * a_out * params.outlet_pressure / (rho * dx)
        b[n + 1 :] = -(a - self._a_old) / dt
        # the slices of G and D that A(u) u reads, bound once
        g_above, g_below, d_right, d_left = g[:-1], g[1:], d[1:], d[:-1]
        last = None  # what the last residual built at its iterate, for the solve there

        def residual(u: np.ndarray) -> np.ndarray:
            """``b - A(u) u``, the one place that applies ``A(u)``; keeps
            ``A(u)``'s momentum bands for the solve at ``u``."""
            nonlocal last
            # face j balances (F_j - F_{j-1})/dx with cell-center fluxes, so the
            # flux through cell i, a_i*vc_i*v_up(i), is the right flux of face i
            # (+) and the left flux of face i+1 (-)
            v, p = u[: n + 1], u[n + 1 :]
            v_left, v_right = v[:-1], v[1:]  # the velocities on the two faces of each cell
            vc = 0.5 * (v_left + v_right)
            coeff = a * vc / dx
            forward = vc >= 0.0  # upwind face is i, else i+1
            cf = np.where(forward, coeff, 0.0)
            up = np.where(forward, 0.0, coeff)
            diag = time_diag.copy()
            diag[:-1] += cf
            diag[1:] -= up
            # boundary extension fluxes F_{-1} = a_face0*v0*v0 and F_n = a_facen*vn*vn;
            # the Newton tangent adds these terms once more
            ends = a_in * float(v[0]) / dx, a_out * float(v[n]) / dx
            diag[0] -= ends[0]
            diag[n] += ends[1]
            lo = -cf
            last = lo, diag, up, forward, v_left, v_right, ends
            au = np.empty(u.size)  # A(u) u
            mom = np.multiply(diag, v, au[: n + 1])
            above, below = mom[:-1], mom[1:]
            below += lo * v_left
            above += up * v_right
            above += g_above * p
            below -= g_below * p
            np.subtract(d_right * v_right, d_left * v_left, au[n + 1 :])
            return np.subtract(b, au, au)

        def picard(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            return _flow_solve(*last[:3], ell, z, r)

        def newton(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            # d(A(u) u)/du: cell-flux coefficient a_i*vc_i differentiates into
            # 0.5*a_i*v_up against both faces of cell i; new arrays throughout,
            # so a second solve at the same iterate reads the same bands
            lo, diag, up, forward, v_left, v_right, ends = last
            w = half_a * np.where(forward, v_left, v_right) / dx
            diag = diag.copy()
            diag[:-1] += w
            diag[1:] -= w
            diag[0] -= ends[0]  # the boundary extension fluxes a_face*v*v
            diag[n] += ends[1]
            return _flow_solve(lo - w, diag, up + w, ell, z, r)

        return b, residual, newton if self._flow_scheme is DriverKind.NEWTON else picard

    def output(self, u: np.ndarray) -> np.ndarray:
        n = self.params.cells
        p = u[n + 1 :]
        traction = np.empty(self.params.n_nodes)
        traction[0] = self._p_in
        traction[1:n] = 0.5 * (p[:-1] + p[1:])
        traction[n] = self.params.outlet_pressure
        return traction


class TubeSolidSolver:
    """The solid subproblem (independent clamped rings) of one time step.

    The output is the solver's final state array itself.
    """

    def __init__(self, params: Tube1DParams, state: TubeState):
        self.params = params
        self.dim = params.n_nodes
        ms_dt2 = params.wall_mass / params.dt**2
        self._base = np.full(params.n_nodes, ms_dt2 + params.ring_stiffness)  # linear diagonal
        self._inertia = ms_dt2 * (state.wall_disp[1:-1] + params.dt * state.wall_vel[1:-1])

    def load(self, traction: np.ndarray) -> tuple:
        m = self.dim
        if traction.shape != (m,):
            raise ContractError(f"traction has shape {traction.shape}, expected ({m},)")
        b = np.zeros(m)
        b[1:-1] = traction[1:-1] + self._inertia
        base, kappa3 = self._base, self.params.kappa3
        tangent3 = 3.0 * kappa3  # the cubic term's slope factor, 3 kappa3 u^2
        u_sq = None  # the squared interior displacements of the last residual

        def residual(u: np.ndarray) -> np.ndarray:
            nonlocal u_sq
            u_sq = u[1:-1] ** 2
            diag = base.copy()
            diag[1:-1] += kappa3 * u_sq
            return b - diag * u

        def solve(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            # base > 0 and kappa3 >= 0, so the tangent's diagonal has no zero
            diag = base.copy()
            diag[1:-1] += tangent3 * u_sq
            return r / diag

        return b, residual, solve

    def output(self, u: np.ndarray) -> np.ndarray:
        return u


class Tube1DModel:
    """Engine adapter bundling the tube flow and solid subproblems."""

    def __init__(
        self,
        params: Tube1DParams | None = None,
        flow_scheme: DriverKind = DriverKind.NEWTON,
    ):
        require_member(flow_scheme, DriverKind, "flow_scheme")
        self.params = params or Tube1DParams()
        self.flow_scheme = flow_scheme
        self.n_interface = self.params.n_nodes
        self.n_steps = self.params.steps

    def initial_state(self) -> TubeState:
        return initial_tube_state(self.params)

    def flow_solver(self, state: TubeState) -> TubeFlowSolver:
        return TubeFlowSolver(self.params, state, self.flow_scheme)

    def solid_solver(self, state: TubeState) -> TubeSolidSolver:
        return TubeSolidSolver(self.params, state)

    def advance_state(self, state: TubeState, accepted_displacement: np.ndarray,
                      flow_u: np.ndarray) -> TubeState:
        n = self.params.cells
        d_new = accepted_displacement.copy()
        return TubeState(
            area=areas_from_displacement(self.params, d_new),
            velocity=flow_u[: n + 1].copy(),
            pressure=flow_u[n + 1 :].copy(),
            wall_disp=d_new,
            wall_vel=(d_new - state.wall_disp) / self.params.dt,
            step=state.step + 1,
        )
