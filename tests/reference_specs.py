"""The spec path that the per-step solvers replaced, kept as their bitwise oracle.

A subproblem used to be a ``NonlinearSystemSpec`` rebuilt every coupling
iteration: ``assemble_matrix(u)`` and ``tangent(u)`` returned linear operators
(dense ndarrays wrapped in a dense operator), and the driver's loop asked for
``A(u)`` and then ``K(u)``. ``reference_solid_system``,
``reference_step_terms`` and ``reference_iterate`` are that code with only
names, annotations and docstring cross-references changed.
``reference_flow_system`` is that spec with its operators from
:func:`reference_flow_operators`, a plain, unoptimised statement of the flow
in flux form (:class:`ReferenceFlowOperator`), with the same association of
every sum and product as the tube flow solver. ``tests/test_models_tube.py``
checks the tube solvers against them bit for bit.

:class:`SpecSolver` drives a spec through the solver protocol, the generic
test solver for hand-written systems, and :func:`run` is :func:`call_solver`
on a solver's ``load`` with an identity ``output``: the call's final state and
its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from fsilab import DriverKind, SolverId, call_solver
from fsilab.errors import (
    ContractError,
    LinearSolveError,
)
from fsilab.interface import ROUNDOFF, is_unbounded
from fsilab.models.tube import _face_average, areas_from_displacement
from fsilab.subproblem import _guards


class ReferenceDenseOperator:
    """A dense matrix with ``@`` and ``solve``."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def solve(self, r: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, r)


class ReferenceDiagonalOperator:
    """``diag(d)``; its solve is an element-wise divide."""

    def __init__(self, d: np.ndarray):
        self.d = d

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.d * u

    def solve(self, r: np.ndarray) -> np.ndarray:
        if not self.d.all():
            raise np.linalg.LinAlgError("zero diagonal entry")
        return r / self.d


class ReferenceFlowOperator:
    """The staggered flow operator ``[[T, G], [D, 0]]`` in flux form, stated
    plainly as the bitwise oracle of the tube flow solver's residual and solve.

    ``T x`` is ``time * x``, plus for each cell i the flux term
    ``p_coef_i x_i + q_coef_i x_{i+1}`` added to face i's row and subtracted
    from face i+1's, minus ``ends[0] x_0`` on face 0 and plus ``ends[1] x_n``
    on face n. Face j of ``G`` reads ``g_j * (p_j - p_{j-1})`` and cell i of
    ``D`` reads ``d_{i+1} v_{i+1} - d_i v_i``; ``ell = 1/g`` and ``z = 1/d``.
    """

    def __init__(self, time: np.ndarray, p_coef: np.ndarray, q_coef: np.ndarray,
                 ends: tuple, g: np.ndarray, d: np.ndarray, ell: np.ndarray, z: np.ndarray):
        self.time, self.p_coef, self.q_coef, self.ends = time, p_coef, q_coef, ends
        self.g, self.d = g, d
        self.ell, self.z = ell, z

    def _t(self, x: np.ndarray) -> np.ndarray:
        y = self.time * x
        flux = self.p_coef * x[:-1] + self.q_coef * x[1:]
        y[:-1] += flux
        y[1:] -= flux
        y[0] -= self.ends[0] * x[0]
        y[-1] += self.ends[1] * x[-1]
        return y

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        nf = self.time.size
        v, p = u[:nf], u[nf:]
        mom = self._t(v)
        mom[:-1] += self.g[:-1] * p
        mom[1:] -= self.g[1:] * p
        dv = self.d * v
        return np.concatenate([mom, dv[1:] - dv[:-1]])

    def solve(self, r: np.ndarray) -> np.ndarray:
        """``D v = h`` gives ``v = v_h + c z``; ``ell`` is a left null vector of
        ``G``, so ``s = T^T ell`` fixes ``c``; then ``G p = f - T v``."""
        nf = self.time.size
        f, h = r[:nf], r[nf:]
        ell, z = self.ell, self.z
        ell_step = ell[:-1] - ell[1:]
        s = ell * self.time
        s[:-1] += ell_step * self.p_coef
        s[1:] += ell_step * self.q_coef
        s[0] -= ell[0] * self.ends[0]
        s[-1] += ell[-1] * self.ends[1]
        s_z = s @ z
        if s_z == 0.0 or not np.isfinite(s_z):
            raise np.linalg.LinAlgError("singular flow operator")
        v_h = np.concatenate([[0.0], np.cumsum(h)]) * z
        v = v_h + ((ell @ f - s @ v_h) / s_z) * z
        p = np.cumsum((f - self._t(v))[:-1] * ell[:-1])
        return np.concatenate([v, p])


def reference_flow_operators(params, displacement):
    """``(assemble_matrix, tangent)`` of the flow system at a frozen displacement.

    The flux through cell i is ``F_i = a_i (v_i + v_{i+1}) v_up(i) / (2 dx)``,
    upwind face i when ``v_i + v_{i+1} >= 0``, else i+1; the boundary extension
    fluxes are ``a_face_0 v_0^2 / dx`` (subtracted on face 0) and ``a_face_n
    v_n^2 / dx`` (added on face n). ``A(u)`` holds each flux's coefficient
    ``a_i (v_i + v_{i+1}) / (2 dx)`` fixed; the tangent ``K(u)`` adds
    ``a_i v_up(i) / (2 dx)`` against both faces of cell i and doubles the
    extension terms.
    """
    n = params.cells
    dx, dt, rho = params.dx, params.dt, params.rho_f
    a = areas_from_displacement(params, displacement)
    a_face = _face_average(a)
    g = a_face / (rho * dx)
    g[[0, n]] *= 2.0
    d = a_face / dx
    ell, z = 1.0 / g, 1.0 / d

    def _operator(u: np.ndarray, newton: bool) -> ReferenceFlowOperator:
        v = u[: n + 1]
        v_sum = v[:-1] + v[1:]
        forward = v_sum >= 0.0
        coeff = a / (2 * dx) * v_sum
        p_coef = np.where(forward, coeff, 0.0)
        q_coef = np.where(forward, 0.0, coeff)
        ends = (a_face[0] / dx * v[0], a_face[n] / dx * v[n])
        if newton:
            w = a / (2 * dx) * np.where(forward, v[:-1], v[1:])
            p_coef, q_coef = p_coef + w, q_coef + w
            ends = (2 * ends[0], 2 * ends[1])
        return ReferenceFlowOperator(a_face / dt, p_coef, q_coef, ends, g, d, ell, z)

    return (lambda u: _operator(u, False)), (lambda u: _operator(u, True))


def reference_as_operator(m):
    """The driver's view of what a spec callable returned: ndarrays become dense."""
    return ReferenceDenseOperator(m) if isinstance(m, np.ndarray) else m


@dataclass
class ReferenceSpec:
    """One subproblem in ``A(u) u = b`` form.

    ``assemble_matrix(u)`` returns ``A(u)`` and ``tangent(u)`` returns
    ``K(u) = A(u) + (dA/du) u``; ``driver`` picks the operator each inner
    update solves with: ``K`` under Newton, which therefore requires the
    tangent, and ``A`` under Picard. Both callables return a
    linear operator (``M @ u`` and ``M.solve(r)``, the latter raising
    ``numpy.linalg.LinAlgError`` when ``M`` is singular) or a dense ndarray,
    which the driver wraps in a :class:`ReferenceDenseOperator`. ``assemble_rhs`` maps
    the coupling input (a float64 vector) to the right-hand side; it
    is evaluated exactly once per solver call. ``extract_output`` maps the
    converged interior state to the vector this solver feeds back to
    its partner.
    """

    dim: int
    assemble_matrix: Callable
    assemble_rhs: Callable
    tangent: Callable | None = None
    driver: DriverKind = DriverKind.NEWTON
    extract_output: Callable | None = None
    label: str = ""


def reference_prepare(spec, inp):
    u = np.array(inp.u0, dtype=float)
    if u.shape != (spec.dim,):
        raise ContractError(f"u0 has shape {u.shape}, expected ({spec.dim},)")
    if not np.isfinite(u).all():
        raise ContractError("u0 contains non-finite entries")
    b = np.array(spec.assemble_rhs(inp.coupling_data), dtype=float)
    if b.shape != (spec.dim,):
        raise ContractError(f"rhs has shape {b.shape}, expected ({spec.dim},)")
    b.setflags(write=False)  # b is frozen for the whole call
    floor = ROUNDOFF * math.sqrt(b.dot(b)) / math.sqrt(spec.dim)
    return u, b, floor


def reference_iterate(spec, inp):
    """The loop of the spec driver; returns ``(u, residual_history)``."""
    newton = spec.driver is DriverKind.NEWTON
    if newton and spec.tangent is None:
        raise ContractError("the Newton driver requires a tangent map")
    u, b, floor = reference_prepare(spec, inp)
    label = spec.label or spec.driver.value
    bounded = not is_unbounded(inp.n_max)
    sqrt_n = math.sqrt(spec.dim)
    history: list = []
    i = 0
    while True:
        i += 1
        A = reference_as_operator(spec.assemble_matrix(u))
        r = b - A @ u
        # ||r||_2/sqrt(n); the entries are looked at only to tell a non-finite
        # one from a finite residual whose norm overflows
        norm = math.sqrt(r.dot(r)) / sqrt_n
        if not math.isfinite(norm) and not np.isfinite(r).all():
            raise ContractError("residual vector contains non-finite entries")
        history.append(norm)
        M = reference_as_operator(spec.tangent(u)) if newton else A
        try:
            du = M.solve(r)
        except np.linalg.LinAlgError as exc:
            what = "tangent" if newton else "preconditioner"
            raise LinearSolveError(f"{label}: singular {what} at inner iteration {i}",
                                   iteration=i) from exc
        u = u + du
        _guards(history, i, u, bounded, floor)
        if history[-1] < inp.eps:
            break
        if bounded and i >= inp.n_max:
            break
    return u, history


def reference_step_terms(params: Tube1DParams, state: TubeState) -> tuple:
    """A step's fixed terms: the flow's old momentum ``a_face_old * v_old / dt`` and inlet
    pressure, the linear part of both solid diagonals, the solid inertia."""
    ms_dt2 = params.wall_mass / params.dt**2
    d_old, w_old = state.wall_disp[1:-1], state.wall_vel[1:-1]
    return (_face_average(state.area) * state.velocity / params.dt,
            params.inlet_pressure(state.step + 1),
            np.full(params.n_nodes, ms_dt2 + params.ring_stiffness),
            ms_dt2 * (d_old + params.dt * w_old))


def reference_flow_system(params, state, displacement, driver, momentum_old, p_in) -> ReferenceSpec:
    if displacement.size != params.n_nodes:
        raise ContractError(
            f"displacement field length {displacement.size} != nodes {params.n_nodes}"
        )
    n = params.cells
    dx, dt, rho = params.dx, params.dt, params.rho_f
    a = areas_from_displacement(params, displacement)
    a_face = _face_average(a)
    a_old = state.area
    p_out = params.outlet_pressure
    frozen = displacement

    dim = 2 * n + 1
    assemble_matrix, tangent = reference_flow_operators(params, displacement)

    def assemble_rhs(coupling: np.ndarray) -> np.ndarray:
        if coupling.size != params.n_nodes:
            raise ContractError("coupling data length mismatch")
        if coupling is not frozen and not np.array_equal(coupling, frozen):
            raise ContractError("coupling data differs from the field this system was built for")
        b = np.zeros(dim)
        b[: n + 1] = momentum_old
        b[0] += 2.0 * a_face[0] * p_in / (rho * dx)
        b[n] -= 2.0 * a_face[n] * p_out / (rho * dx)
        b[n + 1 :] = -(a - a_old) / dt
        return b

    def extract_output(u: np.ndarray) -> np.ndarray:
        p = u[n + 1 :]
        traction = np.empty(params.n_nodes)
        traction[0] = p_in
        traction[1:n] = 0.5 * (p[:-1] + p[1:])
        traction[n] = p_out
        return traction

    return ReferenceSpec(
        dim=dim,
        assemble_matrix=assemble_matrix,
        assemble_rhs=assemble_rhs,
        tangent=tangent,
        driver=driver,
        extract_output=extract_output,
        label="tube flow",
    )


def reference_solid_system(params, traction, base, inertia) -> ReferenceSpec:
    if traction.size != params.n_nodes:
        raise ContractError(
            f"traction field length {traction.size} != nodes {params.n_nodes}"
        )
    m = params.n_nodes
    kappa3 = params.kappa3

    def assemble_matrix(u: np.ndarray) -> ReferenceDiagonalOperator:
        diag = base.copy()
        diag[1:-1] += kappa3 * u[1:-1] ** 2
        return ReferenceDiagonalOperator(diag)

    def assemble_rhs(coupling: np.ndarray) -> np.ndarray:
        if coupling.size != m:
            raise ContractError("coupling data length mismatch")
        b = np.zeros(m)
        b[1:-1] = coupling[1:-1]
        b[1:-1] += inertia
        return b

    def tangent(u: np.ndarray) -> ReferenceDiagonalOperator:
        diag = base.copy()
        diag[1:-1] += 3.0 * kappa3 * u[1:-1] ** 2
        return ReferenceDiagonalOperator(diag)

    return ReferenceSpec(
        dim=m,
        assemble_matrix=assemble_matrix,
        assemble_rhs=assemble_rhs,
        tangent=tangent,
        driver=DriverKind.NEWTON,
        extract_output=lambda u: u,
        label="tube solid",
    )


class SpecSolver(ReferenceSpec):
    """A spec behind the solver protocol: ``residual`` assembles ``A(u)``, and
    ``solve`` takes ``K(u)`` under Newton or that same ``A(u)`` under Picard."""

    def load(self, coupling: np.ndarray) -> tuple:
        b = np.asarray(self.assemble_rhs(coupling), dtype=float)
        newton = self.driver is DriverKind.NEWTON
        a = None

        def residual(u):
            nonlocal a
            a = reference_as_operator(self.assemble_matrix(u))
            return b - a @ u

        def solve(u, r):
            return (reference_as_operator(self.tangent(u)) if newton else a).solve(r)

        return b, residual, solve

    def output(self, u: np.ndarray) -> np.ndarray:
        return self.extract_output(u)


def run(solver, inp):
    """:func:`call_solver` on ``solver.load`` and the identity ``output``;
    returns ``(u, report)``, the call's final state, read-only, and its report."""
    bare = SimpleNamespace(load=solver.load, output=lambda u: u)
    _, report, u = call_solver(SolverId.FLOW, bare, inp)
    return u, report
