"""Black-box subproblem protocol and the solver call that drives it.

Every subproblem is posed as ``A(u) u = b``. A model builds one
:class:`Solver` per subproblem and time step, holding what the step fixes.
Each solver call loads the coupling data, which fixes ``b`` for the whole
call, and hands the driver ``residual(u) = b - A(u) u`` and ``solve(u, r)``,
one Newton (``K(u)^-1 r``) or Picard (``A(u)^-1 r``) correction.
:func:`call_solver`, the one driver, runs one loop for both and then maps
the final state to the call's output:

    for i = 1, 2, ...:   r = residual(u), record ||r||/sqrt(n), u += solve(u, r),
                         then stop if the recorded norm beat eps or i reached n_max.

The update runs even on the converged iteration (black-box solvers cannot exit
before updating), so the first recorded norm is the residual of the call's
input, the one the coupling loop's first-residual criterion tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .errors import ContractError, DivergenceError, LinearSolveError
from .interface import ROUNDOFF, Cap, SolverCallReport, UNBOUNDED, all_finite

# Safety limits for nominally unbounded inner loops.
_ITER_CEILING = 100_000
_GROWTH_GUARD = 1e8
# Below ROUNDOFF * ||b||/sqrt(n) a residual is round-off: an eps beneath it is
# only met by chance, so a stall there is reported, not iterated on.
_FLOOR_STALL_ITERS = 5


class SolverId(Enum):
    FLOW = "flow"
    SOLID = "solid"


class Solver(Protocol):
    """One subproblem of one time step, ``A(u) u = b``, seen as a black box.

    ``load(coupling)`` poses one solver call on the coupling data, a read-only
    float64 vector whose shape it checks, and returns ``(b, residual, solve)``:
    the call's right-hand side, a 1-D vector whose length is the call's size,
    ``residual(u) = b - A(u) u``, and ``solve(u, r)``, the correction ``M(u)^-1 r``. ``M`` is the solver's own choice, e.g.
    the tangent ``K(u) = A(u) + (dA/du) u`` (Newton) or ``A(u)`` (Picard).
    The driver calls ``solve`` with the iterate whose residual it has just
    evaluated, so ``solve`` may reuse what ``residual`` built there; it raises
    :class:`numpy.linalg.LinAlgError` when ``M`` is singular. ``output(u)``
    maps the final state to the vector this solver feeds its partner; it may
    be ``u`` itself, which the driver never writes.

    The :class:`SolverId` it is called under fixes the wiring: a flow solver
    loads a displacement and outputs a traction, a solid solver loads a
    traction and outputs a displacement. :func:`call_solver` holds ``output``
    to a finite 1-D float64 array and makes it read-only. Only the solid's
    output is held to the interface length, by the coupling map; the flow's
    has the length its partner loads.
    """

    def load(self, coupling: np.ndarray) -> tuple: ...

    def output(self, u: np.ndarray) -> np.ndarray: ...


@dataclass
class SolverCallInput:
    """Arguments of one black-box solver call.

    ``u0`` is the interior state carried over from this solver's previous call,
    or None for a call that has none, which starts from zeros; the driver
    leaves it untouched and returns the new state. ``coupling_data``
    is the partner's read-only float64 vector, which the solver's ``load`` checks.
    ``eps`` and ``n_max`` are the solver's tolerance and cap, which
    :class:`~fsilab.interface.CouplingConfig` checks once per run, not per call.
    """

    u0: np.ndarray | None
    coupling_data: np.ndarray
    eps: float
    n_max: Cap = UNBOUNDED


def _guards(history: list, i: int, u: np.ndarray, bounded: bool, floor: float | None) -> None:
    if not all_finite(u):
        raise DivergenceError(f"non-finite iterate at inner iteration {i}", iteration=i)
    if not bounded:
        if i >= _ITER_CEILING:
            raise DivergenceError(f"no convergence within {_ITER_CEILING} iterations",
                                  iteration=i)
        if history[-1] > _GROWTH_GUARD * max(history[0], 1.0):
            raise DivergenceError(f"residual grew beyond guard at iteration {i}", iteration=i)
        # only an eps beneath the floor can livelock; a residual below eps
        # ends the call in the caller, and as every earlier one was at or
        # above eps, it fails the window test here
        w = _FLOOR_STALL_ITERS
        if history[-1] <= floor and i > w and min(history[-w:]) >= min(history[:-w]):
            raise DivergenceError(
                f"residual stalled at the round-off floor at iteration {i}", iteration=i)


def call_solver(solver_id: SolverId, solver: Solver, inp: SolverCallInput):
    """Run one black-box solver call: the inner iterations
    ``u' = u + solve(u, residual(u))``, then the output of the final state.

    The call's size is its right-hand side's, a non-empty 1-D ``b``: ``u0``
    must have its shape, and a None ``u0`` starts from its zeros. ``inp.u0`` is
    never written. ``u0`` and every iterate are tested with
    :func:`~fsilab.interface.all_finite`, one reduction per vector, and the
    entries of a residual are looked at only when its norm is not finite. The
    loop stops once a norm is below ``eps`` or ``i >= n_max``, which an inf cap
    and an unchecked nan cap never meet: such a call is unbounded and runs
    under the unbounded guards, not forever. Only it computes the round-off
    floor its stall guard reads.

    The final state maps to the interface output (traction for the flow
    solver, displacement for the solid solver), the one place a black box's
    output enters: it must be a finite 1-D float64 array, which is made
    read-only here (an output that is the final state itself has passed the
    iterates' finiteness guard already). Returns ``(output, report,
    final_u)``; ``final_u`` seeds the next call. The loop's errors, and a
    :class:`GeometryError` from loading the coupling data, pass through
    unchanged: the coupling loop times and counts every call, and names the
    solver of a failed one.
    """
    b, residual, solve = solver.load(inp.coupling_data)
    if not isinstance(b, np.ndarray) or b.ndim != 1 or not b.size:
        raise ContractError(f"rhs has shape {np.shape(b)}, expected a non-empty 1-D vector, "
                            f"a numpy array (got {type(b).__name__})")
    u = np.zeros(b.size) if inp.u0 is None else np.asarray(inp.u0, dtype=float)
    if u.shape != b.shape:
        raise ContractError(f"u0 has shape {u.shape}, expected {b.shape}")
    if not all_finite(u):
        raise ContractError("u0 contains non-finite entries")
    bounded = inp.n_max < math.inf
    eps, n_max = inp.eps, inp.n_max
    sqrt_n = math.sqrt(b.size)
    # only the guards of an unbounded call read the round-off floor
    floor = None if bounded else ROUNDOFF * math.sqrt(b.dot(b)) / sqrt_n
    history: list = []
    i = 0
    while True:
        i += 1
        r = residual(u)
        # ||r||_2/sqrt(n), the subproblem norm, recorded here and nowhere
        # else; a finite residual whose norm overflows records inf
        norm = math.sqrt(r.dot(r)) / sqrt_n
        if not math.isfinite(norm) and not all_finite(r):
            raise DivergenceError(f"non-finite residual at inner iteration {i}", iteration=i)
        history.append(norm)
        try:
            du = solve(u, r)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"singular linear solve at inner iteration {i}",
                                   iteration=i) from exc
        u = u + du
        _guards(history, i, u, bounded, floor)
        if norm < eps or i >= n_max:
            break
    output = solver.output(u)
    if (not isinstance(output, np.ndarray) or output.ndim != 1 or output.dtype != np.float64
            or (output is not u and not all_finite(output))):
        raise ContractError(f"{solver_id.value} solver must output a finite 1-D float64 array")
    output.setflags(write=False)
    return output, SolverCallReport(tuple(history)), u
