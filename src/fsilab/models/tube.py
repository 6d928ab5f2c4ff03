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
with the physical boundary fluxes ``a_face * v`` at the two ends. No matrix
or band is formed: the residual computes each upwind cell flux
``F_i = a_i (v_i + v_{i+1}) v_up(i) / (2 dx)`` once, and a Newton (tangent) or
Picard (``A(u)``) correction enters only through the per-cell flux derivatives
``dF_i/dv_i`` and ``dF_i/dv_{i+1}``. Each correction solves the staggered
system in O(n) with one projection on the left null vector of the pressure
gradient.

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
from enum import Enum

import numpy as np

from ..errors import ContractError, GeometryError
from ..interface import require_count, require_finite, require_member, require_positive


class DriverKind(Enum):
    """How the flow corrects its iterate: with the tangent ``K(u)`` or with ``A(u)``."""

    NEWTON = "newton"
    PICARD = "picard"


@dataclass(frozen=True)
class Tube1DParams:
    """Geometry, material, and run parameters of the 1-D flexible tube, and how
    its flow corrects its iterate (``flow_scheme``)."""

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
    flow_scheme: DriverKind = DriverKind.NEWTON

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
            raise ContractError(f"poisson must lie in [0, 0.5), got {self.poisson!r}")
        if self.kappa3 < 0:
            raise ContractError(f"kappa3 must be >= 0, got {self.kappa3!r}")
        require_count(self.cells, "cells", 2)
        require_count(self.steps, "steps", 1)
        require_member(self.flow_scheme, DriverKind, "flow_scheme")

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
    """Accepted solution state at the start of a time step. A flow solver keeps
    its state's ``area``: no state array is written once solvers are built."""

    area: np.ndarray  # per cell, m^2
    velocity: np.ndarray  # axial velocity per face (staggered), m/s
    wall_disp: np.ndarray  # per node, m
    wall_vel: np.ndarray  # per node, m/s
    step: int = 0  # completed steps


def initial_tube_state(params: Tube1DParams) -> TubeState:
    n, m = params.cells, params.n_nodes
    return TubeState(
        area=np.full(n, math.pi * params.radius**2),
        velocity=np.zeros(n + 1),
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


class TubeFlowSolver:
    """The flow subproblem of one time step; each call freezes the areas from its displacement.

    Staggered unknowns ``u = [v_0..v_n, p_0..p_{n-1}]`` (face velocities, cell
    pressures, dim 2n+1). Momentum is balanced per face, mass per cell; the
    imposed face pressures drive the two half-cell boundary momentum rows.
    ``params.flow_scheme`` picks each call's correction, Newton's or Picard's.
    """

    def __init__(self, params: Tube1DParams, state: TubeState):
        self.params = params
        # the old momentum a_face_old * v_old / dt and the inlet pressure of the step
        self._momentum_old = _face_average(state.area) * state.velocity / params.dt
        self._p_in = params.inlet_pressure(state.step + 1)
        self._a_old = state.area

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
        ell, z = 1.0 / g, 1.0 / d  # ell^T G = 0, and D v = h fixes d * v up to a constant
        time_diag = a_face / dt  # the time term of every momentum row
        # the time and flux parts of s = K^T ell, and the flux coefficient a_i / (2 dx)
        ell_time, ell_step = ell * time_diag, ell[:-1] - ell[1:]
        half_a = 0.5 * a / dx
        ext_in, ext_out = float(d[0]), float(d[n])  # the end faces' mass-flux weights
        ell_in, ell_out = float(ell[0]), float(ell[n])
        b = np.zeros(2 * n + 1)
        b[: n + 1] = self._momentum_old
        b[0] += 2.0 * float(a_face[0]) * self._p_in / (rho * dx)
        b[n] -= 2.0 * float(a_face[n]) * params.outlet_pressure / (rho * dx)
        b[n + 1 :] = -(a - self._a_old) / dt
        # the slices of G that A(u) u reads, bound once
        g_above, g_below = g[:-1], g[1:]
        last = None  # what the last residual built at its iterate, for the correction there

        def residual(u: np.ndarray) -> np.ndarray:
            """``b - A(u) u``; keeps the upwind data for the correction at ``u``."""
            nonlocal last
            # the flux through cell i, F_i = a_i (v_i + v_{i+1}) v_up(i) / (2 dx),
            # is the right flux of face i (+) and the left flux of face i+1 (-)
            v, p = u[: n + 1], u[n + 1 :]
            v_left, v_right = v[:-1], v[1:]  # the velocities on the two faces of each cell
            v_sum = v_left + v_right
            forward = v_sum >= 0.0  # upwind face is i, else i+1
            v_up = np.where(forward, v_left, v_right)
            coeff = half_a * v_sum  # F_i / v_up(i)
            v_in, v_out = float(v[0]), float(v[n])
            last = forward, v_up, coeff, v_in, v_out
            au = np.empty(u.size)  # A(u) u
            mom = np.multiply(time_diag, v, au[: n + 1])
            flux = coeff * v_up
            above, below = mom[:-1], mom[1:]
            above += flux
            below -= flux
            # the boundary extension fluxes F_{-1} = a_face0 v0^2/dx, F_n = a_facen vn^2/dx
            mom[0] -= ext_in * v_in * v_in
            mom[n] += ext_out * v_out * v_out
            above += g_above * p
            below -= g_below * p
            dv = d * v
            np.subtract(dv[1:], dv[:-1], au[n + 1 :])
            return np.subtract(b, au, au)

        def correct(p_coef, q_coef, e_in, e_out, r):
            """Solve ``[[K, G], [D, 0]] [v; p] = r`` for the momentum block ``K``
            whose flux through cell i moves by ``p_coef_i dv_i + q_coef_i dv_{i+1}``
            and whose end rows carry ``-e_in dv_0`` and ``+e_out dv_n``.

            ``D v = h`` gives ``v = v_h + c z`` with ``v_h = [0, cumsum(h)] z``;
            ``ell^T G = 0`` fixes ``c = (ell.f - s.v_h) / s.z`` with ``s = K^T ell``;
            then ``G p = f - K v`` is a cumulative sum down the faces. Raises
            :class:`numpy.linalg.LinAlgError` when ``s.z`` is zero or not finite.
            """
            f, h = r[: n + 1], r[n + 1 :]
            s = ell_time.copy()
            left, right = s[:-1], s[1:]  # in place on views, not ``s[1:] += ...``
            left += ell_step * p_coef
            right += ell_step * q_coef
            s[0] -= ell_in * e_in
            s[n] += ell_out * e_out
            s_z = s.dot(z)
            if s_z == 0.0 or not math.isfinite(s_z):
                raise np.linalg.LinAlgError("singular flow operator")
            out = np.empty(r.size)
            v, p = out[: n + 1], out[n + 1 :]
            v[0] = 0.0
            np.add.accumulate(h, out=v[1:])
            v *= z
            v += ((ell.dot(f) - s.dot(v)) / s_z) * z
            kv = np.multiply(time_diag, v)
            dflux = p_coef * v[:-1]
            dflux += q_coef * v[1:]
            left, right = kv[:-1], kv[1:]
            left += dflux
            right -= dflux
            kv[0] -= e_in * v[0]
            kv[n] += e_out * v[n]
            np.add.accumulate(np.multiply(np.subtract(f, kv, kv)[:-1], ell[:-1], p), out=p)
            return out

        def picard(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            # A(u) holds each flux's coefficient fixed: F_i = coeff_i v_up(i)
            forward, _, coeff, v_in, v_out = last
            return correct(np.where(forward, coeff, 0.0), np.where(forward, 0.0, coeff),
                           ext_in * v_in, ext_out * v_out, r)

        def newton(u: np.ndarray, r: np.ndarray) -> np.ndarray:
            # the tangent adds v_up(i) dcoeff_i/dv = a_i v_up(i) / (2 dx) against
            # both faces of cell i and doubles the extension terms
            forward, v_up, coeff, v_in, v_out = last
            w = half_a * v_up
            cw = coeff + w
            return correct(np.where(forward, cw, w), np.where(forward, w, cw),
                           2.0 * ext_in * v_in, 2.0 * ext_out * v_out, r)

        return b, residual, newton if params.flow_scheme is DriverKind.NEWTON else picard

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
        ms_dt2 = params.wall_mass / params.dt**2
        self._base = np.full(params.n_nodes, ms_dt2 + params.ring_stiffness)  # linear diagonal
        self._inertia = ms_dt2 * (state.wall_disp[1:-1] + params.dt * state.wall_vel[1:-1])

    def load(self, traction: np.ndarray) -> tuple:
        m = self.params.n_nodes
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

    def __init__(self, params: Tube1DParams | None = None):
        self.params = params or Tube1DParams()
        self.n_interface = self.params.n_nodes
        self.n_steps = self.params.steps

    def initial_state(self) -> TubeState:
        return initial_tube_state(self.params)

    def flow_solver(self, state: TubeState) -> TubeFlowSolver:
        return TubeFlowSolver(self.params, state)

    def solid_solver(self, state: TubeState) -> TubeSolidSolver:
        return TubeSolidSolver(self.params, state)

    def advance_state(self, state: TubeState, accepted_displacement: np.ndarray,
                      flow_u: np.ndarray) -> TubeState:
        d_new = accepted_displacement
        return TubeState(
            area=areas_from_displacement(self.params, d_new),
            velocity=flow_u[: self.params.n_nodes],
            wall_disp=d_new,
            wall_vel=(d_new - state.wall_disp) / self.params.dt,
            step=state.step + 1,
        )
