"""The spec path that the per-step solvers replaced, kept verbatim as their bitwise oracle.

A subproblem used to be a ``NonlinearSystemSpec`` rebuilt every coupling
iteration: ``assemble_matrix(u)`` and ``tangent(u)`` returned linear operators
(dense ndarrays wrapped in a dense operator), and the driver's loop asked for
``A(u)`` and then ``K(u)``. ``reference_flow_system``,
``reference_solid_system``, ``reference_step_terms`` and ``reference_iterate``
are that code with only names, annotations and docstring cross-references
changed; ``tests/test_models_tube.py`` checks the tube solvers against them
bit for bit. :class:`ReferenceFlowOperator` is the banded flow operator the
flow spec returned, with its apply and solve as they were.

:class:`SpecSolver` drives a spec through the solver protocol, the generic
test solver for hand-written systems, and :func:`run` is :func:`drive` with
the call report that :func:`call_solver` builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fsilab import DriverKind, drive
from fsilab.errors import (
    ContractError,
    LinearSolveError,
)
from fsilab.interface import SolverCallReport, is_unbounded
from fsilab.models.tube import _face_average, areas_from_displacement
from fsilab.subproblem import _ROUNDOFF_FLOOR, _guards


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
    """The flow operator's earlier apply and solve, kept verbatim as the
    bitwise oracle of the tube flow solver's residual and solve.

    The staggered system ``[[T, G], [D, 0]]`` kept as bands: ``T`` is
    tridiagonal (``lo``, ``diag``, ``up``), face j of ``G`` reads
    ``g_j * (p_j - p_{j-1})`` and cell i of ``D`` reads
    ``d_{i+1} v_{i+1} - d_i v_i``; ``ell = 1/g`` and ``z = 1/d``.
    """

    def __init__(self, lo: np.ndarray, diag: np.ndarray, up: np.ndarray,
                 g: np.ndarray, d: np.ndarray, ell: np.ndarray, z: np.ndarray):
        self.lo, self.diag, self.up = lo, diag, up
        self.g, self.d = g, d
        self.ell, self.z = ell, z

    def _t(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[1:] += self.lo * x[:-1]
        y[:-1] += self.up * x[1:]
        return y

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        nf = self.diag.size
        v, p = u[:nf], u[nf:]
        mom = self._t(v)
        mom[:-1] += self.g[:-1] * p
        mom[1:] -= self.g[1:] * p
        return np.concatenate([mom, self.d[1:] * v[1:] - self.d[:-1] * v[:-1]])

    def solve(self, r: np.ndarray) -> np.ndarray:
        nf = self.diag.size
        f, h = r[:nf], r[nf:]
        ell, z = self.ell, self.z
        ell_t_z = ell @ self._t(z)
        if ell_t_z == 0.0 or not np.isfinite(ell_t_z):
            raise np.linalg.LinAlgError("singular flow operator")
        v_h = np.concatenate([[0.0], np.cumsum(h)]) * z
        v = v_h + ((ell @ (f - self._t(v_h))) / ell_t_z) * z
        p = np.cumsum((f - self._t(v))[:-1] * ell[:-1])
        return np.concatenate([v, p])


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
    floor = _ROUNDOFF_FLOOR * math.sqrt(b.dot(b)) / math.sqrt(spec.dim)
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

    def assemble_matrix(u: np.ndarray) -> ReferenceFlowOperator:
        nonlocal last_v, last_bands
        last_v = u[: n + 1].copy()
        last_bands = _momentum_bands(last_v)
        lo, diag, up, _ = last_bands
        return ReferenceFlowOperator(lo, diag, up, g, d, ell, z)

    def tangent(u: np.ndarray) -> ReferenceFlowOperator:
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
        return ReferenceFlowOperator(lo - w, diag, up + w, g, d, ell, z)

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
    """:func:`drive`, returning ``(u, report)`` as a solver call reports it."""
    u, history = drive(solver, inp)
    return u, SolverCallReport(tuple(history), inp.eps)
