"""Gauss-Seidel Dirichlet-Neumann coupling loop with acceleration.

One coupling iteration is: flow solve with the current interface displacement
(Dirichlet data), traction transfer, solid solve (Neumann data), fixed-point
residual, acceleration update. Two convergence criteria are available:

* ``FIRST_RESIDUAL`` - the time step is converged when, for both solvers, the
  residual of the first inner iteration of the latest call already met that
  solver's own tolerance. No coupling tolerance exists in this mode.
* ``FIXED_POINT_NORM`` - the legacy test ``||r||_2 < eps_c`` on the interface
  fixed-point residual (optionally relative to the current displacement norm).

Acceleration modes: constant relaxation, Aitken dynamic relaxation, and
quasi-Newton least-squares updates built from input-output pairs of previous
solver calls, with reuse of the last ``q`` time steps and QR filtering of
nearly dependent columns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    AllColumnsFilteredError,
    ContractError,
    DivergedStepError,
    GeometryError,
    InnerIterationError,
)
from .interface import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    FieldRole,
    InterfaceField,
    IterationCounters,
    RunRecord,
    SolverCallReport,
    fixed_point_residual,
)
from .subproblem import SolverCallInput, SolverId, call_solver

_AITKEN_MIN = 0.01
_AITKEN_MAX = 2.0
_RESIDUAL_GROWTH_ABORT = 1e6
# quasi-Newton stagnation guard: flush the history when the residual has not
# halved for this many coupling iterations (stale secant data from capped
# solver calls can stall the update otherwise); relaxation has no history to
# flush and aborts the step once the residual has repeated this often, to
# within _REPEAT_RTOL of its norm (round-off)
_STALL_WINDOW = 6
_REPEAT_RTOL = 1e3 * np.finfo(float).eps
_STALL_FACTOR = 0.5
# secant columns kept at most (calibrated on the tube testbed: larger piles
# of capped-call pairs stall the update, smaller piles slow convergence)
_MAX_SECANT_COLUMNS = 24
_UPPER = np.triu(np.ones((_MAX_SECANT_COLUMNS,) * 2, dtype=bool))  # R's mask, up to this order


class IqnHistory:
    """Input-output difference pairs feeding the quasi-Newton update.

    Column i of ``V`` is a fixed-point-residual difference, column i of ``W``
    the matching solid-output difference; columns are ordered newest first and
    tagged with the time step that produced them. At the start of time step t,
    columns older than ``t - q`` are evicted, and at most ``max_columns`` are
    kept.

    ``V`` and ``W`` are windows of two ``(n, 2 * max_columns)`` buffers,
    allocated at the first append (or on a new column length). An append
    writes its column left of the window and drops the oldest from a full one;
    at the left edge the window first moves to the right half, in one copy.
    """

    def __init__(self, q: int, max_columns: int = _MAX_SECANT_COLUMNS):
        if q < 0:
            raise ContractError("reuse depth q must be >= 0")
        if not isinstance(max_columns, (int, np.integer)) or max_columns < 1:
            raise ContractError(f"max_columns must be an integer >= 1, got {max_columns!r}")
        self.q = q
        self.max_columns = int(max_columns)
        self._ages: list = []  # age of each stored column, newest first
        self._v = self._w = np.empty((0, 0))
        self._start = 0  # buffer column of the newest stored column

    def append(self, residual_diff: np.ndarray, output_diff: np.ndarray, age: int) -> None:
        dr = np.asarray(residual_diff, dtype=float)
        dw = np.asarray(output_diff, dtype=float)
        if dr.shape != dw.shape or dr.ndim != 1:
            raise ContractError("column pair must be two equal-length vectors")
        if self._ages and self._v.shape[0] != dr.size:
            raise ContractError("column length mismatch with stored history")
        if not dr.any():
            return  # a stagnant pair carries no secant information
        m = self.max_columns
        if self._v.shape != (dr.size, 2 * m):
            self._v, self._w = np.empty((dr.size, 2 * m)), np.empty((dr.size, 2 * m))
            self._start = 2 * m
        k = min(len(self._ages), m - 1)  # columns that stay
        if self._start == 0:  # no room on the left: the staying columns move right
            for buf in (self._v, self._w):
                buf[:, m : m + k] = buf[:, :k]
            self._start = m
        self._start -= 1
        self._v[:, self._start], self._w[:, self._start] = dr, dw
        self._ages = [age] + self._ages[:k]

    def start_step(self, step: int) -> None:
        keep = [j for j, age in enumerate(self._ages) if age >= step - self.q]
        if keep != list(range(len(keep))):  # a dropped column sits before a kept one
            for window in self.matrices():
                window[:, : len(keep)] = window[:, keep]
        self._ages = [self._ages[j] for j in keep]

    def clear(self) -> None:
        self._ages = []

    @property
    def n_columns(self) -> int:
        return len(self._ages)

    @property
    def is_empty(self) -> bool:
        return not self._ages

    @property
    def column_ages(self) -> list:
        return list(self._ages)

    def matrices(self):
        """``(V, W)`` as views of the buffers, valid until the next append."""
        cols = slice(self._start, self._start + len(self._ages))
        return self._v[:, cols], self._w[:, cols]


def _qr1(v_matrix: np.ndarray, eps_fil: float, rhs: np.ndarray | None = None):
    """The filter of :func:`qr_filter`; with ``rhs``, also the least-squares fit.

    Returns ``(keep, alpha)``: ``keep`` is an index array, and ``alpha``
    minimizes ``||V[:, keep] alpha - rhs||_2`` (None without ``rhs``). Each
    pass factors ``[V_cand | rhs]`` once. Householder QR treats the columns in
    order, so the first diagonal entries of R are those of ``V_cand`` alone,
    and the last column holds ``Q^T rhs``: ``alpha`` is one triangular solve
    away, with no Q formed. Dropping the rows that are zero in every column of
    V leaves ``alpha`` exact: there ``rhs`` only adds a constant to the
    squared residual. The caller checks ``eps_fil``.
    """
    rows = v_matrix.any(axis=1)
    v_matrix = v_matrix[rows]
    norms = np.sqrt(np.add.reduce(v_matrix * v_matrix, axis=0))  # as np.linalg.norm(axis=0)
    cand = np.flatnonzero(norms)
    n_rows, n_cols = v_matrix.shape
    while cand.size:
        a = np.empty((n_rows, cand.size + (rhs is not None)))
        a[:, : cand.size] = v_matrix if cand.size == n_cols else v_matrix[:, cand]
        if rhs is not None:
            a[:, -1] = rhs[rows]
        # mode="raw" returns the geqrf output transposed: R is the upper
        # triangle of h.T
        h = np.linalg.qr(a, mode="raw")[0]
        n_keep = min(cand.size, n_rows)
        r_diag = np.abs(h.diagonal()[:n_keep])
        failed = r_diag < eps_fil * norms[cand[:n_keep]]
        if failed.any():
            cand = np.delete(cand, failed.argmax())  # the first that failed
            continue
        if rhs is None:
            return cand[:n_keep], None
        upper = (_UPPER[:n_keep, :n_keep] if n_keep <= _MAX_SECANT_COLUMNS
                 else np.triu(np.ones((n_keep, n_keep), dtype=bool)))
        r_tri = np.where(upper, h[:n_keep, :n_keep].T, 0.0)  # np.triu, its mask built once
        try:
            alpha = np.linalg.solve(r_tri, h[-1, :n_keep])
        except np.linalg.LinAlgError as exc:
            raise AllColumnsFilteredError("retained columns are numerically singular") from exc
        return cand[:n_keep], alpha
    return cand, None


def _require_eps_fil(eps_fil: float) -> None:
    if not 0.0 < eps_fil < math.inf:
        raise ContractError(f"eps_fil must be positive and finite, got {eps_fil!r}")


def qr_filter(v_matrix: np.ndarray, eps_fil: float) -> list:
    """Indices of columns to retain, processed in the given (newest-first) order.

    The QR1 filter of Haelterman et al., "Improving the performance of the
    partitioned QN-ILS procedure for FSI problems: Filtering", Comput. Struct.
    171 (2016): a column is dropped when its component orthogonal to the
    columns retained before it falls below ``eps_fil`` times its own norm;
    zero columns are always dropped. In a Householder QR of the candidate
    columns, ``|R_jj|`` is that orthogonal component of column j, so one
    LAPACK factorisation tests every candidate. The first candidate that fails
    is dropped and the remaining candidates are refactored, until none fails.
    Rows that are zero in every column (clamped interface nodes) are left out
    of the factorisation: they add nothing to a norm or an inner product, and
    reflections would fill them with round-off. With more candidates than the
    ``n`` remaining rows, ``R`` has only ``n`` diagonal entries: the first
    ``n`` candidates then span the whole space, and every candidate past them
    is dropped as dependent. :func:`iqn_ils_update` runs the same filter on
    the same factorisation as its least-squares solve.
    """
    _require_eps_fil(eps_fil)
    return _qr1(np.asarray(v_matrix, dtype=float), eps_fil)[0].tolist()


def iqn_ils_update(hist: IqnHistory, r_k, d_tilde_k, eps_fil: float):
    """Quasi-Newton interface update ``d_next = d_tilde + W alpha``.

    ``alpha`` minimizes ``||V alpha + r||_2`` over the columns
    :func:`qr_filter` keeps, read off the filter's own last factorisation of
    ``[V | r]``; the returned increment norm is ``||W alpha||_2``. A residual
    whose squared norm is (or underflows to) zero returns ``d_tilde`` exactly.
    """
    r = np.asarray(r_k, dtype=float)
    d_tilde = np.asarray(d_tilde_k, dtype=float)
    _require_eps_fil(eps_fil)
    if r.dot(r) == 0.0:  # np.linalg.norm(r) == 0.0
        return d_tilde.copy(), 0.0
    if hist.is_empty:
        raise ContractError("empty quasi-Newton history; caller must fall back to relaxation")
    v, w = hist.matrices()
    if v.shape[0] != r.size:
        raise ContractError("history column length does not match residual length")
    keep, alpha = _qr1(v, eps_fil, -r)
    if not keep.size:
        raise AllColumnsFilteredError("filtering removed all quasi-Newton columns")
    if keep.size < w.shape[1]:  # else no column was dropped: W stays a view
        w = w[:, keep]
    delta = w @ alpha
    return d_tilde + delta, math.sqrt(delta.dot(delta))


def aitken_omega(r_k, r_km1, omega_km1: float) -> tuple:
    """Secant update of the dynamic relaxation factor, clamped to [0.01, 2.0].

    Returns ``(omega, stagnated)``. A stagnating residual (zero denominator)
    keeps the previous factor and sets ``stagnated``.
    """
    r_k = np.asarray(r_k, dtype=float)
    r_km1 = np.asarray(r_km1, dtype=float)
    delta = r_k - r_km1
    denom = float(delta @ delta)
    if denom == 0.0:
        return omega_km1, True
    omega = -omega_km1 * float(r_km1 @ delta) / denom
    return float(min(max(omega, _AITKEN_MIN), _AITKEN_MAX)), False


def check_convergence(
    report_f: SolverCallReport,
    report_s: SolverCallReport,
    config: CouplingConfig,
    r_k: np.ndarray,
    d_k: np.ndarray | None = None,
) -> bool:
    """Convergence test of the current coupling iteration."""
    if config.criterion is CriterionKind.FIRST_RESIDUAL:
        return report_f.converged_on_first and report_s.converged_on_first
    norm = float(np.linalg.norm(r_k))
    if not config.criterion_relative:
        return norm < config.eps_c
    if norm == 0.0:
        return True
    if d_k is None or float(np.linalg.norm(d_k)) == 0.0:
        return False
    return norm / float(np.linalg.norm(d_k)) < config.eps_c


class Event(NamedTuple):
    """Something the coupling loop did besides its plain update, at (step, k).

    ``tag`` is one of ``aitken_stagnation``, ``iqn_stagnation_restart`` and
    ``iqn_all_columns_filtered``.
    """

    step: int
    k: int
    tag: str


@dataclass
class TimeStepRecord:
    """Per-time-step outcome: iteration counts, seconds, events, diagnostics.

    ``events`` lists the step's :class:`Event` s in the order they happened.
    ``accepted_norms`` is ``(||r||, ||r||/||d||, would-be update increment)``
    at acceptance; the relative norm is +inf when the displacement is zero.
    The increment is the one :func:`_update` reports. Under IQN-ILS it costs
    one more quasi-Newton update per step, so it is computed only when the run
    asks for it (``increments=True``) and is None otherwise.
    An aborted step's record has ``converged=False`` and ``accepted_norms=None``
    and counts every iteration and second spent up to the abort.
    """

    step: int
    coupling_iters: int
    flow_iters: int
    solid_iters: int
    accepted_norms: tuple | None
    converged: bool
    flow_time: float = 0.0
    solid_time: float = 0.0
    events: list = field(default_factory=list)


def _update(config, hist, omega, r_k, r_norm, d_k, d_tilde):
    """The next interface displacement under the configured accelerator.

    Returns ``(d_next, increment_norm, fallback_tag)`` for the flow input
    ``d_k``, the solid output ``d_tilde`` and ``r_k = d_tilde - d_k``. Under
    IQN-ILS the increment is ``||W alpha||``, the correction on top of
    ``d_tilde``; an empty or fully filtered history (the latter tagged) falls
    back to relaxation with ``omega0``. Under relaxation the increment is
    ``omega * ||r_k||``, the step from ``d_k``.
    """
    tag = None
    if config.accel is AccelKind.IQN_ILS and not hist.is_empty:
        try:
            return (*iqn_ils_update(hist, r_k, d_tilde, config.eps_fil), None)
        except AllColumnsFilteredError:
            tag = "iqn_all_columns_filtered"
    step = omega if config.accel is AccelKind.AITKEN else config.omega0
    return d_k + step * r_k, step * r_norm, tag


def run_time_step(model, config, state, hist, step, d_start, u_f, u_s,
                  increments: bool = False):
    """One coupled time step; returns ``(record, d_accepted, u_f, u_s)``.

    ``increments`` fills the third entry of ``record.accepted_norms``.

    Raises :class:`DivergedStepError`, with the step's unconverged
    :class:`TimeStepRecord` as ``partial``, when the coupling-iteration budget
    is exhausted, the residual grows unboundedly, the accelerated displacement
    is not finite, or, under constant or Aitken relaxation, the residual
    repeats to round-off for ``_STALL_WINDOW`` consecutive coupling iterations.
    """
    d_k = d_start
    r_prev = None
    d_tilde_prev = None
    omega = config.omega0
    flow_iters = solid_iters = 0
    flow_time = solid_time = 0.0
    events: list = []
    r1_norm = None
    best_norm = None
    best_at = 0
    repeats = 0  # consecutive coupling iterations that repeated the residual

    def _record(accepted_norms=None) -> TimeStepRecord:
        return TimeStepRecord(
            step=step, coupling_iters=k, flow_iters=flow_iters, solid_iters=solid_iters,
            accepted_norms=accepted_norms, converged=accepted_norms is not None,
            flow_time=flow_time, solid_time=solid_time, events=events,
        )

    def _abort(reason: str):
        exc = DivergedStepError(f"time step {step}: {reason}", step=step)
        exc.partial = _record()
        return exc

    flow, solid = model.flow_solver(state), model.solid_solver(state)
    for k in range(1, config.max_coupling_iters_per_step + 1):
        solver = SolverId.FLOW
        try:
            traction, rep_f, u_f = call_solver(
                SolverId.FLOW,
                flow,
                SolverCallInput(u_f, d_k, eps=config.eps_f, n_max=config.n_max_f,
                                batch_size=config.batch_size_f),
            )
            flow_iters += rep_f.inner_iters
            flow_time += rep_f.wall_time

            solver = SolverId.SOLID
            d_tilde, rep_s, u_s = call_solver(
                SolverId.SOLID,
                solid,
                SolverCallInput(u_s, traction, eps=config.eps_s, n_max=config.n_max_s),
            )
            solid_iters += rep_s.inner_iters
            solid_time += rep_s.wall_time
        except (GeometryError, InnerIterationError) as exc:
            # a failed solver call still spent its inner iterations and seconds
            iters, secs = getattr(exc, "inner_iters", 0), getattr(exc, "wall_time", 0.0)
            if solver is SolverId.FLOW:
                flow_iters += iters
                flow_time += secs
            else:
                solid_iters += iters
                solid_time += secs
            raise _abort(f"coupling update broke a subproblem ({exc})") from exc

        r_k = fixed_point_residual(d_tilde, d_k)
        r_norm = math.sqrt(r_k.dot(r_k))
        if k == 1:
            r1_norm = r_norm
        elif r1_norm > 0.0 and r_norm > _RESIDUAL_GROWTH_ABORT * r1_norm:
            raise _abort(f"coupling residual grew by more than {_RESIDUAL_GROWTH_ABORT:g}x")

        r_km1 = r_prev  # residual of the previous coupling iteration (None at k=1)
        if k >= 2 and config.accel is AccelKind.IQN_ILS:  # relaxation never reads it
            hist.append(r_k - r_km1, d_tilde.values - d_tilde_prev, age=step)
        r_prev = r_k
        d_tilde_prev = d_tilde.values

        if check_convergence(rep_f, rep_s, config, r_k, d_k.values):
            d_norm = float(np.linalg.norm(d_k.values))
            rel = r_norm / d_norm if d_norm > 0.0 else float("inf")
            inc = None
            if increments:
                inc = _update(config, hist, omega, r_k, r_norm, d_k.values, d_tilde.values)[1]
            return _record((r_norm, rel, inc)), d_k, u_f, u_s

        # the update's side effects: the IQN stall restart, and under
        # relaxation the repeat-abort and the Aitken factor
        if config.accel is AccelKind.IQN_ILS:
            if best_norm is None or r_norm < _STALL_FACTOR * best_norm:
                best_norm = r_norm
                best_at = k
            elif k - best_at >= _STALL_WINDOW:
                # stale secant data (typical under tight inner-iteration caps)
                hist.clear()
                events.append(Event(step, k, "iqn_stagnation_restart"))
                best_norm = r_norm
                best_at = k
        elif k > 1:
            dr = r_k - r_km1
            repeated = math.sqrt(dr.dot(dr)) <= _REPEAT_RTOL * r_norm
            repeats = repeats + 1 if repeated else 0
            if repeats >= _STALL_WINDOW:
                raise _abort(f"fixed-point residual repeated for {repeats} coupling "
                             "iterations")
            if config.accel is AccelKind.AITKEN:
                omega, stagnated = aitken_omega(r_k, r_km1, omega)
                if stagnated:
                    events.append(Event(step, k, "aitken_stagnation"))

        # acceleration update toward the next coupling iteration
        d_next, _, tag = _update(config, hist, omega, r_k, r_norm, d_k.values, d_tilde.values)
        if tag is not None:
            events.append(Event(step, k, tag))
        if not np.isfinite(d_next).all():
            raise _abort("the accelerated interface displacement is not finite")
        d_k = InterfaceField._adopt(d_next, FieldRole.DISPLACEMENT, finite=True)

    raise _abort(
        f"no convergence within max_coupling_iters_per_step={config.max_coupling_iters_per_step}"
    )


def run_simulation(model, config: CouplingConfig, on_step=None,
                   increments: bool = False) -> RunRecord:
    """Run all time steps of a coupled model; fully deterministic given config.

    ``on_step(step, hist, state)`` is a diagnostics hook. ``increments=True``
    records each accepted step's would-be update increment in
    ``accepted_norms[2]``; it adds one quasi-Newton update per accepted step
    under IQN-ILS and leaves the iteration counts and snapshots unchanged. On
    a diverged step the partial run record, which includes the aborted step,
    is attached to the raised :class:`DivergedStepError` as ``record``.
    """
    t_start = time.perf_counter()
    state = model.initial_state()
    u_f = model.initial_flow_u()
    u_s = model.initial_solid_u()
    d_acc = model.initial_displacement()
    # bound the secant history: the added-mass error lives in a few dominant
    # interface modes, and old columns sampled under capped inner iterations
    # degrade the update long before the interface dimension is reached
    hist = IqnHistory(q=config.reuse_q,
                      max_columns=min(model.n_interface, _MAX_SECANT_COLUMNS))

    counters = IterationCounters()
    step_records: list = []
    snapshots: list = []
    events: list = []
    flow_seconds = solid_seconds = 0.0

    def _account(record: TimeStepRecord) -> None:
        nonlocal flow_seconds, solid_seconds
        counters.add_step(record.step, record.coupling_iters, record.flow_iters,
                          record.solid_iters)
        flow_seconds += record.flow_time
        solid_seconds += record.solid_time
        events.extend(record.events)

    def _finish(converged: bool, failing_step=None) -> RunRecord:
        total = time.perf_counter() - t_start
        counters.check_additivity()
        return RunRecord(
            counters=counters,
            converged=converged,
            flow_seconds=flow_seconds,
            solid_seconds=solid_seconds,
            coupling_seconds=max(total - flow_seconds - solid_seconds, 0.0),
            snapshots=snapshots,
            step_records=step_records,
            events=events,
            failing_step=failing_step,
        )

    for step in range(1, model.n_steps + 1):
        hist.start_step(step)
        try:
            record, d_acc, u_f, u_s = run_time_step(
                model, config, state, hist, step, d_acc, u_f, u_s, increments=increments,
            )
        except DivergedStepError as exc:
            _account(exc.partial)
            exc.record = _finish(converged=False, failing_step=step)
            raise
        _account(record)
        snapshots.append(d_acc.values.copy())
        step_records.append(record)
        state = model.advance_state(state, d_acc, u_f, u_s)
        if on_step is not None:
            on_step(step, hist, state)

    return _finish(converged=True)
