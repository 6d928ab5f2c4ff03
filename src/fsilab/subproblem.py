"""Black-box subproblem protocol and the generic inner-iteration driver.

Every subproblem is posed as ``A(u) u = b``. A model builds one
:class:`Solver` per subproblem and time step, holding what the step fixes.
Each solver call loads the coupling data, which fixes ``b`` for the whole
call, and hands the driver ``residual(u) = b - A(u) u`` and ``solve(u, r)``,
one Newton (``K(u)^-1 r``) or Picard (``A(u)^-1 r``) correction. The driver
runs one loop for both:

    for i = 1, 2, ...:   r = residual(u), record ||r||/sqrt(n),
                         u += solve(u, r), then stop if the recorded norm beat eps.

The update runs even on the converged iteration (black-box solvers cannot exit
before updating), which is what makes ``converged_on_first`` well defined.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

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


class Solver(Protocol):
    """One subproblem of one time step, ``A(u) u = b``; the driver kind is its own.

    ``load(coupling)`` poses one solver call on the coupling data (an
    :class:`InterfaceField`) and returns ``(b, residual, solve)``: the call's
    right-hand side, ``residual(u) = b - A(u) u``, and ``solve(u, r)``, the
    correction ``M(u)^-1 r``. ``M`` is the tangent ``K(u) = A(u) + (dA/du) u``
    under ``DriverKind.NEWTON`` and ``A(u)`` under ``DriverKind.PICARD``.
    The driver calls ``solve`` with the iterate whose residual it has just
    evaluated, so ``solve`` may reuse what ``residual`` built there; it raises
    :class:`numpy.linalg.LinAlgError` when ``M`` is singular. ``output(u)``
    maps the final state to the interface field this solver feeds its partner.
    """

    dim: int
    driver: DriverKind
    label: str

    def load(self, coupling: InterfaceField) -> tuple: ...

    def output(self, u: np.ndarray) -> InterfaceField: ...


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


def drive(solver: Solver, inp: SolverCallInput):
    """Inner iterations ``u' = u + solve(u, residual(u))``; returns ``(u, residual_history)``.

    With ``batch_size`` B > 1, under either driver, convergence is only
    checked after each block of B iterations, so the iteration count is a
    multiple of B unless the cap truncates the final batch. ``inp.u0`` is
    never written.
    """
    dim = solver.dim
    u = np.asarray(inp.u0, dtype=float)
    if u.shape != (dim,):
        raise ContractError(f"u0 has shape {u.shape}, expected ({dim},)")
    if not np.isfinite(u).all():
        raise ContractError("u0 contains non-finite entries")
    b, residual, solve = solver.load(inp.coupling_data)
    if b.shape != (dim,):
        raise ContractError(f"rhs has shape {b.shape}, expected ({dim},)")
    newton = solver.driver is DriverKind.NEWTON
    label = solver.label or solver.driver.value
    bounded = not is_unbounded(inp.n_max)
    B, eps, n_max = inp.batch_size, inp.eps, inp.n_max
    sqrt_n = math.sqrt(dim)
    floor = _ROUNDOFF_FLOOR * math.sqrt(b.dot(b)) / sqrt_n
    history: list = []
    i = 0
    while True:
        i += 1
        r = residual(u)
        # ||r||/sqrt(n) as residual_norm computes it; residual_norm itself
        # runs only to tell a non-finite entry from an overflowing norm
        norm = math.sqrt(r.dot(r)) / sqrt_n
        history.append(norm if math.isfinite(norm) else residual_norm(r, dim))
        try:
            du = solve(u, r)
        except np.linalg.LinAlgError as exc:
            error, what = ((LinearSolveError, "tangent") if newton
                           else (PreconditionerError, "preconditioner"))
            raise error(f"{label}: singular {what} at inner iteration {i}",
                        iteration=i) from exc
        u = u + du
        _guards(history, i, u, bounded, label, floor, eps)
        if i % B == 0 and history[-1] < eps:
            break
        if bounded and i >= n_max:
            break
    return u, history


_EXPECTED_ROLE = {SolverId.FLOW: FieldRole.TRACTION, SolverId.SOLID: FieldRole.DISPLACEMENT}


def call_solver(solver_id: SolverId, solver: Solver, inp: SolverCallInput):
    """Run one black-box solver call.

    Loads the coupling data, runs :func:`drive` with the solver's own driver
    kind, maps the final state to the interface output (traction for the flow
    solver, displacement for the solid solver), and attaches the measured wall
    time. Returns ``(output_field, report, final_u)``; ``final_u`` seeds the
    next call. An :class:`InnerIterationError` is re-raised with the call's
    spent inner iterations and seconds attached as ``inner_iters`` and
    ``wall_time``.
    """
    start = time.perf_counter()
    try:
        u, history = drive(solver, inp)
    except InnerIterationError as exc:
        exc.args = (f"{solver_id.value} solver: {exc.args[0]}",) + exc.args[1:]
        exc.inner_iters = exc.iteration or 0
        exc.wall_time = time.perf_counter() - start
        raise
    output = solver.output(u)
    if output.role is not _EXPECTED_ROLE[solver_id]:
        raise ContractError(
            f"{solver_id.value} solver must output a {_EXPECTED_ROLE[solver_id].value} field"
        )
    return output, _report(history, inp.eps, time.perf_counter() - start), u
