"""Black-box subproblem abstraction and the generic inner-iteration driver.

Every subproblem is posed as ``A(u) u = b`` with the right-hand side assembled
once per solver call and held fixed across inner iterations. Newton and Picard
run the same loop and differ only in the operator ``M`` each update solves
with (``K(u)`` or ``A(u)``):

    for i = 1, 2, ...:   evaluate r = b - A(u) u, record ||r||/sqrt(n),
                         u += M^-1 r, then stop if the recorded norm beat eps.

The update runs even on the converged iteration (black-box solvers cannot exit
before updating), which is what makes ``converged_on_first`` well defined.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol

import numpy as np

from .errors import (
    ContractError,
    DivergenceError,
    InnerIterationError,
    LinearSolveError,
    PreconditionerError,
)
from .interface import (
    Cap,
    FieldRole,
    InterfaceField,
    SolverCallReport,
    UNBOUNDED,
    is_unbounded,
    residual_norm,
    validate_cap,
)

# Safety limits for nominally unbounded inner loops.
_ITER_CEILING = 100_000
_GROWTH_GUARD = 1e8
# Below this multiple of ||b||/sqrt(n) a residual is round-off: an eps beneath
# it is only met by chance, so a stall there is reported, not iterated on.
_ROUNDOFF_FLOOR = 1e3 * np.finfo(float).eps
_FLOOR_STALL_ITERS = 5


class DriverKind(Enum):
    NEWTON = "newton"
    PICARD = "picard"


class SolverId(Enum):
    FLOW = "flow"
    SOLID = "solid"


class LinearOperator(Protocol):
    """What the driver needs of ``A(u)`` and ``K(u)``: apply and solve.

    ``solve`` raises :class:`numpy.linalg.LinAlgError` when the operator is
    singular.
    """

    def __matmul__(self, u: np.ndarray) -> np.ndarray: ...

    def solve(self, r: np.ndarray) -> np.ndarray: ...


class DenseOperator:
    """A dense matrix behind the :class:`LinearOperator` protocol."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def solve(self, r: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, r)


class DiagonalOperator:
    """``diag(d)``; its solve is an element-wise divide."""

    def __init__(self, d: np.ndarray):
        self.d = d

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        return self.d * u

    def solve(self, r: np.ndarray) -> np.ndarray:
        if not self.d.all():
            raise np.linalg.LinAlgError("zero diagonal entry")
        return r / self.d


def as_operator(m) -> LinearOperator:
    """The driver's view of what a spec callable returned: ndarrays become dense."""
    return DenseOperator(m) if isinstance(m, np.ndarray) else m


@dataclass
class NonlinearSystemSpec:
    """One subproblem in ``A(u) u = b`` form.

    ``assemble_matrix(u)`` returns ``A(u)`` and ``tangent(u)`` returns
    ``K(u) = A(u) + (dA/du) u``; ``driver`` picks the operator each inner
    update solves with: ``K`` under Newton, which therefore requires the
    tangent, and ``A`` under Picard. Both callables return a
    :class:`LinearOperator` (``M @ u`` and ``M.solve(r)``, the latter raising
    ``numpy.linalg.LinAlgError`` when ``M`` is singular) or a dense ndarray,
    which the driver wraps in a :class:`DenseOperator`. ``assemble_rhs`` maps
    the coupling input (an :class:`InterfaceField`) to the right-hand side; it
    is evaluated exactly once per solver call. ``extract_output`` maps the
    converged interior state to the interface field this solver feeds back to
    its partner.
    """

    dim: int
    assemble_matrix: Callable[[np.ndarray], LinearOperator | np.ndarray]
    assemble_rhs: Callable[[InterfaceField], np.ndarray]
    tangent: Callable[[np.ndarray], LinearOperator | np.ndarray] | None = None
    driver: DriverKind = DriverKind.NEWTON
    extract_output: Callable[[np.ndarray], InterfaceField] | None = None
    label: str = ""


@dataclass
class SolverCallInput:
    """Arguments of one black-box solver call.

    ``u0`` is the interior state carried over from this solver's previous call;
    the driver leaves it untouched and returns the new state.
    """

    u0: np.ndarray
    coupling_data: InterfaceField
    eps: float
    n_max: Cap = UNBOUNDED
    batch_size: int = 1

    def __post_init__(self):
        validate_cap(self.n_max, "n_max")
        if not 0.0 < self.eps < math.inf:
            raise ContractError(f"eps must be positive and finite, got {self.eps!r}")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")


def _prepare(spec: NonlinearSystemSpec, inp: SolverCallInput):
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


def _guards(history: list, i: int, u: np.ndarray, bounded: bool, label: str,
            floor: float, eps: float) -> None:
    if not np.isfinite(u).all():
        raise DivergenceError(f"{label}: non-finite iterate at inner iteration {i}",
                              iteration=i)
    if not bounded:
        if i >= _ITER_CEILING:
            raise DivergenceError(f"{label}: no convergence within {_ITER_CEILING} iterations",
                                  iteration=i)
        if history[-1] > _GROWTH_GUARD * max(history[0], 1.0):
            raise DivergenceError(f"{label}: residual grew beyond guard at iteration {i}",
                                  iteration=i)
        # only an eps beneath the floor can livelock; a residual below eps has
        # converged and is left to the caller's batch check
        w = _FLOOR_STALL_ITERS
        if (eps <= history[-1] <= floor and i > w
                and min(history[-w:]) >= min(history[:-w])):
            raise DivergenceError(
                f"{label}: residual stalled at the round-off floor at iteration {i}",
                iteration=i)


def _report(history: list, eps: float, wall_time: float = 0.0) -> SolverCallReport:
    return SolverCallReport(
        inner_iters=len(history),
        residual_history=tuple(history),
        converged_on_first=history[0] < eps,
        final_residual=history[-1],
        wall_time=wall_time,
    )


def drive(spec: NonlinearSystemSpec, inp: SolverCallInput):
    """Inner iterations ``M(u)(u' - u) = b - A(u) u``; returns ``(u, report)``.

    ``M`` is the tangent ``K(u)`` under ``DriverKind.NEWTON`` and ``A(u)``
    itself under ``DriverKind.PICARD``. With ``batch_size`` B > 1, under
    either driver, convergence is only checked after each block of B
    iterations, so the iteration count is a multiple of B unless the cap
    truncates the final batch.
    """
    u, history = _iterate(spec, inp)
    return u, _report(history, inp.eps)


def _iterate(spec: NonlinearSystemSpec, inp: SolverCallInput):
    """The loop of :func:`drive`; returns ``(u, residual_history)``."""
    newton = spec.driver is DriverKind.NEWTON
    if newton and spec.tangent is None:
        raise ContractError("the Newton driver requires a tangent map")
    u, b, floor = _prepare(spec, inp)
    label = spec.label or spec.driver.value
    bounded = not is_unbounded(inp.n_max)
    B = inp.batch_size
    sqrt_n = math.sqrt(spec.dim)
    history: list = []
    i = 0
    while True:
        i += 1
        A = as_operator(spec.assemble_matrix(u))
        r = b - A @ u
        # ||r||/sqrt(n) as residual_norm computes it; residual_norm itself
        # runs only to tell a non-finite entry from an overflowing norm
        norm = math.sqrt(r.dot(r)) / sqrt_n
        history.append(norm if math.isfinite(norm) else residual_norm(r, spec.dim))
        M = as_operator(spec.tangent(u)) if newton else A
        try:
            du = M.solve(r)
        except np.linalg.LinAlgError as exc:
            error, what = ((LinearSolveError, "tangent") if newton
                           else (PreconditionerError, "preconditioner"))
            raise error(f"{label}: singular {what} at inner iteration {i}",
                        iteration=i) from exc
        u = u + du
        _guards(history, i, u, bounded, label, floor, inp.eps)
        if i % B == 0 and history[-1] < inp.eps:
            break
        if bounded and i >= inp.n_max:
            break
    return u, history


_EXPECTED_ROLE = {SolverId.FLOW: FieldRole.TRACTION, SolverId.SOLID: FieldRole.DISPLACEMENT}


def call_solver(solver_id: SolverId, spec: NonlinearSystemSpec, inp: SolverCallInput):
    """Run one black-box solver call.

    Applies the coupling data to the right-hand side, runs :func:`drive` with
    the system's configured driver, extracts the interface output (traction
    for the flow solver, displacement for the solid solver), and attaches the
    measured wall time. Returns ``(output_field, report, final_u)``;
    ``final_u`` seeds the next call. An :class:`InnerIterationError` is
    re-raised with the call's spent inner iterations and seconds attached as
    ``inner_iters`` and ``wall_time``.
    """
    if spec.extract_output is None:
        raise ContractError("call_solver requires an extract_output map")
    start = time.perf_counter()
    try:
        u, history = _iterate(spec, inp)
    except InnerIterationError as exc:
        exc.args = (f"{solver_id.value} solver: {exc.args[0]}",) + exc.args[1:]
        exc.inner_iters = exc.iteration or 0
        exc.wall_time = time.perf_counter() - start
        raise
    output = spec.extract_output(u)
    if output.role is not _EXPECTED_ROLE[solver_id]:
        raise ContractError(
            f"{solver_id.value} solver must output a {_EXPECTED_ROLE[solver_id].value} field"
        )
    return output, _report(history, inp.eps, time.perf_counter() - start), u
