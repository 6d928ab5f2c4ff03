"""Gauss-Seidel Dirichlet-Neumann coupling loop with acceleration.

One coupling iteration is: flow solve with the current interface displacement
(Dirichlet data), traction transfer, solid solve (Neumann data), fixed-point
residual, acceleration update. Two convergence criteria are available:

* ``FIRST_RESIDUAL`` - the time step is converged when, for both solvers, the
  residual of the first inner iteration of the latest call already met that
  solver's own tolerance. No coupling tolerance exists in this mode.
* ``FIXED_POINT_NORM`` - the legacy test ``||r||_2 < eps_c`` on the interface
  fixed-point residual.

Acceleration modes: constant relaxation, Aitken dynamic relaxation, and
quasi-Newton least-squares updates built from input-output pairs of previous
solver calls, with reuse of the last ``q`` time steps and QR filtering of
nearly dependent columns.
"""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, solve1

from .errors import ContractError, DivergedStepError, GeometryError, InnerIterationError
from .interface import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    ROUNDOFF,
    RunRecord,
    SolverCallReport,
    all_finite,
    require_count,
    require_positive,
)
from .subproblem import SolverCallInput, SolverId, call_solver

_AITKEN_MIN = 0.01
_AITKEN_MAX = 2.0
_RESIDUAL_GROWTH_ABORT = 1e6
# the one stall rule: under relaxation a step aborts once the residual has
# repeated this often, to within round-off of its norm (interface.ROUNDOFF,
# the solver call's floor); IQN-ILS has none, since its QR1 filter removes
# the stale secant columns that capped solver calls feed it
_STALL_WINDOW = 6
# secant columns kept at most: the QR1 filter, not this cap, removes stale
# columns, and the cap bounds what an update costs (a geqrf over the window);
# on the tube's cap grid a window of n columns saved no coupling iteration
# and took the run's wall time and 90th-percentile step time up by 9%
_MAX_SECANT_COLUMNS = 24
# R's upper-triangle mask, built once for each number of columns _qr1 keeps
_upper_mask = functools.cache(lambda order: np.triu(np.ones((order, order), dtype=bool)))
# highest degree of the interface predictor, by the accelerator's memory
# (calibrated on the tube testbed): IQN-ILS with reuse brings the secant pairs
# of its last reuse_q steps into each step, and at the shipped reuse_q = 5
# degree 5 costs it 5% more coupling iterations than degree 3; relaxation and
# IQN-ILS without reuse start each step from the guess alone, and degree 5 cut
# their N_c to 0.69-0.70 of degree 3's, where degree 6 ties it at twice the
# error amplification (degree 2 costs both lanes more)
_PREDICTOR_DEGREE_REUSE = 3
_PREDICTOR_DEGREE_MEMORYLESS = 5


def _column_norms(v: np.ndarray):
    """The 2-norm of each column of ``v``, or of the vector ``v``, its squares summed
    down the column in order: the norms the QR1 filter compares against."""
    return np.sqrt(np.add.accumulate(v * v)[-1]) if v.shape[0] else np.zeros(v.shape[1:])


class IqnHistory:
    """Input-output difference pairs feeding the quasi-Newton update.

    Column i of ``V`` is a fixed-point-residual difference, column i of ``W``
    the matching solid-output difference; columns are ordered newest first and
    tagged with the time step that produced them. At the start of time step t,
    columns older than ``t - q`` are evicted. An append refuses a column older
    than the newest stored one, so ages never increase along the window and
    eviction only truncates it. A column leaves the window in three ways
    only: eviction by age, a full window dropping its oldest at an append,
    and :meth:`retain`, with which :func:`iqn_ils_update` removes for good
    the columns the QR1 filter dropped. At most ``m = min(n,
    _MAX_SECANT_COLUMNS)`` columns of length ``n`` are kept, which bounds the
    cost of an update. This class is the only reader of that cap.

    The window is one column range of a single ``(2n + 1, 2m)`` buffer,
    allocated at the first append (or on a new column length): rows ``0..n-1``
    hold ``V``, rows ``n..2n-1`` hold ``W``, and the last row holds the norm
    ``||v_j||`` that the QR1 filter compares each column of ``V`` against,
    computed once at its append. An append skips a pair whose norm is 0.0, all
    zeros or squares that underflow, so the filter keeps at least the newest
    column of a nonempty history. An append writes its column left of the
    window and drops the oldest from a full one; at the left edge the window
    first moves to the right half, in one copy. ``V``, ``W`` and the norms
    thus move, truncate and shrink together.
    """

    def __init__(self, q: int):
        require_count(q, "reuse depth q", 0)
        self.q = q
        self._ages: list = []  # age of each stored column, newest first
        self._buf = np.empty((1, 0))  # [V; W; norms] of no column, with n = 0
        self._start = 0  # buffer column of the newest stored column

    def append(self, residual_diff: np.ndarray, output_diff: np.ndarray, age: int) -> None:
        dr = np.asarray(residual_diff, dtype=float)
        dw = np.asarray(output_diff, dtype=float)
        if dr.shape != dw.shape or dr.ndim != 1:
            raise ContractError("column pair must be two equal-length vectors")
        n = dr.size
        if self._ages and self._buf.shape[0] != 2 * n + 1:
            raise ContractError("column length mismatch with stored history")
        if self._ages and age < self._ages[0]:
            raise ContractError(f"column of step {age} is older than the newest stored "
                                f"column, of step {self._ages[0]}")
        norm = _column_norms(dr)
        if norm == 0.0:  # a stagnant pair, or one whose squares underflow
            return
        m = min(n, _MAX_SECANT_COLUMNS)
        if self._buf.shape != (2 * n + 1, 2 * m):
            self._buf = np.empty((2 * n + 1, 2 * m))
            self._start = 2 * m
        k = min(len(self._ages), m - 1)  # columns that stay; a full window drops its oldest
        if self._start == 0:  # no room on the left: the staying columns move right
            self._buf[:, m : m + k] = self._buf[:, :k]
            self._start = m
        self._start -= 1
        col = self._buf[:, self._start]
        col[:n], col[n:-1], col[-1] = dr, dw, norm
        self._ages = [age] + self._ages[:k]

    def start_step(self, step: int) -> None:
        while self._ages and self._ages[-1] < step - self.q:
            self._ages.pop()

    def retain(self, keep) -> None:
        """Keep only the columns at the increasing window positions ``keep``.

        Their V, W, norm and age move together, in one copy into the right end
        of the window, so the room left of it for appends grows.
        """
        end = self._start + len(self._ages)
        self._buf[:, end - len(keep) : end] = self._buf[:, self._start : end][:, keep]
        self._start = end - len(keep)
        self._ages = [self._ages[i] for i in keep]

    @property
    def is_empty(self) -> bool:
        return not self._ages

    def matrices(self):
        """``(V, W)`` as views of the buffer, valid until the next append or retain."""
        n = self._buf.shape[0] // 2
        window = self._buf[:, self._start : self._start + len(self._ages)]
        return window[:n], window[n:-1]

    def norms(self) -> np.ndarray:
        """The norms of ``V``'s columns as a view of the buffer, valid until the next
        append or retain."""
        return self._buf[-1, self._start : self._start + len(self._ages)]


def _qr1(v_matrix: np.ndarray, eps_fil: float, rhs: np.ndarray, norms: np.ndarray):
    """The filter of :func:`qr_filter` and the least-squares fit on the columns it keeps.

    Returns ``(keep, alpha)``: ``keep`` is an index array, and ``alpha``
    minimizes ``||V[:, keep] alpha - rhs||_2`` (None when V has no nonzero
    column). The first candidate is kept untested, so ``keep`` is empty only
    then. Each pass factors ``[V_cand | rhs]`` once. Householder QR treats the
    columns in order, so the first diagonal entries of R are those of
    ``V_cand`` alone, whatever ``rhs`` is, and the last column holds ``Q^T
    rhs``: ``alpha`` is one triangular solve away, with no Q formed. R is
    read off LAPACK's raw layout here alone, for any number of kept columns.
    Each dropped column costs one more pass; :func:`iqn_ils_update` removes
    the dropped columns from its history, so a column fails at most once.
    Only the rows of V where some entry is nonzero enter (``-0.0`` reads as
    zero, ``nan`` as nonzero), gathered as one slice when they form one block
    (on the tube, all but the clamped ends): elsewhere ``rhs`` only adds a
    constant to the squared residual, so ``alpha`` stays exact. The caller checks
    ``eps_fil`` and passes the column norms of V, by :func:`_column_norms`.

    The factorisation and the solve call the gufuncs that numpy.linalg's
    ``qr`` (raw mode) and ``solve`` wrap, geqrf and gesv, on the same
    float64 inputs and so with the same bits: inside a coupling iteration
    the wrappers' dispatch, copy and ``errstate`` cost more than the
    factorisation. Both run under the caller's numpy errstate, and neither
    can fail here: geqrf fails only on an invalid argument, and gesv only
    on an exactly zero pivot, while R is triangular, ``|R_00| > 0`` is the
    first kept column's norm, and every other kept column has ``|R_jj| >=
    eps_fil * ||v_j|| > 0``. A non-finite ``alpha`` ends the step through
    the coupling map's check of the next displacement.
    """
    rows = v_matrix.any(axis=1).nonzero()[0]
    if rows.size and rows[-1] - rows[0] == rows.size - 1:  # one block: a view, not a copy
        rows = slice(rows[0], rows[-1] + 1)
    v_matrix = v_matrix[rows]
    cand = norms.nonzero()[0]
    n_rows, n_cols = v_matrix.shape
    while cand.size:
        a = np.empty((n_rows, cand.size + 1))
        a[:, : cand.size] = v_matrix if cand.size == n_cols else v_matrix[:, cand]
        a[:, -1] = rhs[rows]
        qr_r_raw(a, signature="d->d")  # geqrf in place: R is the upper triangle of a
        n_keep = min(cand.size, n_rows)
        r_diag = np.abs(a.diagonal()[:n_keep])
        kept_norms = norms[:n_keep] if cand.size == n_cols else norms[cand[:n_keep]]
        failed = r_diag < eps_fil * kept_norms
        failed[0] = False  # the first candidate's orthogonal part is its whole norm
        first = failed.argmax()  # the first that failed, if any
        if failed[first]:
            cand = np.delete(cand, first)
            continue
        r_tri = np.where(_upper_mask(n_keep), a[:n_keep, :n_keep], 0.0)  # np.triu
        return cand[:n_keep], solve1(r_tri, a[:n_keep, -1], signature="dd->d")
    return cand, None


def qr_filter(v_matrix: np.ndarray, eps_fil: float) -> list:
    """Indices of columns to retain, processed in the given (newest-first) order.

    The QR1 filter of Haelterman et al., "Improving the performance of the
    partitioned QN-ILS procedure for FSI problems: Filtering", Comput. Struct.
    171 (2016): a column is dropped when its component orthogonal to the
    columns retained before it falls below ``eps_fil`` times its own norm;
    zero columns are always dropped, and the first nonzero one always kept:
    its orthogonal component is its whole norm, so it passes at any
    ``eps_fil < 1``, and it is not tested at all. In a Householder QR of the
    candidate columns, ``|R_jj|`` is that orthogonal component of column j,
    so one LAPACK factorisation tests every later candidate. The first that
    fails is dropped and the remaining candidates are refactored, until none
    fails.
    Rows that are zero in every column (clamped interface nodes) are left out
    of the factorisation: they add nothing to a norm or an inner product, and
    reflections would fill them with round-off. With more candidates than the
    ``n`` remaining rows, ``R`` has only ``n`` diagonal entries: the first
    ``n`` candidates then span the whole space, and every candidate past them
    is dropped as dependent. V may have any width: only :class:`IqnHistory`
    caps its window. :func:`iqn_ils_update` runs the same filter, on the
    norms that history stores; here the right-hand side is zero.
    """
    require_positive(eps_fil, "eps_fil")
    v = np.asarray(v_matrix, dtype=float)
    if v.ndim != 2:
        raise ContractError(f"V must be a matrix, got shape {v.shape}")
    return _qr1(v, eps_fil, np.zeros(v.shape[0]), _column_norms(v))[0].tolist()


def iqn_ils_update(hist: IqnHistory, r_k, d_tilde_k, eps_fil: float):
    """Quasi-Newton interface update ``d_next = d_tilde + W alpha``.

    ``alpha`` minimizes ``||V alpha + r||_2`` over the columns
    :func:`qr_filter` keeps, read off the filter's own last factorisation of
    ``[V | r]``; the filter compares against the column norms ``hist`` stored
    at each append. The columns the filter drops leave ``hist``
    (:meth:`IqnHistory.retain`), so no later update factors them again, and W
    is always a view of the history. The returned increment norm is ``||W
    alpha||_2``. A residual whose squared norm is (or underflows to) zero
    returns ``d_tilde`` exactly and leaves ``hist`` as it was.
    """
    r = np.asarray(r_k, dtype=float)
    d_tilde = np.asarray(d_tilde_k, dtype=float)
    if r.ndim != 1 or d_tilde.shape != r.shape:
        raise ContractError(f"residual {r.shape} and d_tilde {d_tilde.shape} must be "
                            "vectors of one shape")
    require_positive(eps_fil, "eps_fil")
    if r.dot(r) == 0.0:  # np.linalg.norm(r) == 0.0
        return d_tilde.copy(), 0.0
    if hist.is_empty:
        raise ContractError("empty quasi-Newton history; caller must fall back to relaxation")
    v, w = hist.matrices()
    if v.shape[0] != r.size:
        raise ContractError("history column length does not match residual length")
    keep, alpha = _qr1(v, eps_fil, -r, hist.norms())
    if keep.size < v.shape[1]:  # a dropped column leaves the history for good
        hist.retain(keep)
        w = hist.matrices()[1]
    delta = w @ alpha
    return d_tilde + delta, math.sqrt(delta.dot(delta))


def aitken_omega(r_k, r_km1, omega_km1: float) -> float:
    """Secant update of the dynamic relaxation factor, clamped to [0.01, 2.0].

    A residual that repeated bit for bit (zero denominator) keeps the previous
    factor; the coupling loop's stall rule counts that repeat.
    """
    r_k = np.asarray(r_k, dtype=float)
    r_km1 = np.asarray(r_km1, dtype=float)
    if r_k.ndim != 1 or r_km1.shape != r_k.shape:
        raise ContractError(f"residuals {r_k.shape}, {r_km1.shape} are not vectors of one shape")
    delta = r_k - r_km1
    denom = float(delta @ delta)
    if denom == 0.0:
        return omega_km1
    omega = -omega_km1 * float(r_km1 @ delta) / denom
    return float(min(max(omega, _AITKEN_MIN), _AITKEN_MAX))


def check_convergence(report_f: SolverCallReport, report_s: SolverCallReport,
                      config: CouplingConfig, r_norm: float) -> bool:
    """Convergence test of the current coupling iteration, whose fixed-point
    residual has the 2-norm ``r_norm``: under ``FIRST_RESIDUAL``, each solver
    call's first recorded residual against that solver's tolerance."""
    if config.criterion is CriterionKind.FIRST_RESIDUAL:
        return (report_f.residual_history[0] < config.eps_f
                and report_s.residual_history[0] < config.eps_s)
    return r_norm < config.eps_c


@dataclass
class TimeStepRecord:
    """Per-time-step outcome: iteration counts, seconds, diagnostics.

    The coupling loop builds the record when the step starts and adds every
    coupling iteration and solver call to it as it happens, so an aborted
    step's record counts every iteration and second spent up to the abort.
    ``accepted_norms`` is ``(||r||, ||r||/||d||, would-be update
    increment)`` at acceptance and None until then, so a step is converged
    exactly when it has them; the relative norm is +inf when the displacement
    is zero. The increment is the one :func:`_update` reports. Under IQN-ILS
    it costs one more quasi-Newton update per step, so it is computed only
    when the run asks for it (``increments=True``) and is None otherwise; that
    update runs on a copy of the history and never changes the run.
    """

    step: int
    coupling_iters: int = 0
    flow_iters: int = 0
    solid_iters: int = 0
    flow_time: float = 0.0
    solid_time: float = 0.0
    accepted_norms: tuple | None = None

    @property
    def converged(self) -> bool:
        return self.accepted_norms is not None


def _update(config, hist, omega, r, r_norm, x, x_tilde):
    """The next interface vector under the configured accelerator.

    Returns ``(x_next, increment_norm)`` for the map's input ``x``, its output
    ``x_tilde`` and ``r = x_tilde - x``. Under IQN-ILS the increment is
    ``||W alpha||``, the correction on top of ``x_tilde``; an empty history
    falls back to relaxation with ``omega0``. Under relaxation the increment is
    ``omega * ||r||``, the step from ``x``.
    """
    if config.accel is AccelKind.IQN_ILS and not hist.is_empty:
        return iqn_ils_update(hist, r, x_tilde, config.eps_fil)
    step = omega if config.accel is AccelKind.AITKEN else config.omega0
    return x + step * r, step * r_norm


def run_time_step(model, config, state, hist, step, x, u_f, u_s,
                  increments: bool = False):
    """One coupled time step; returns ``(record, x, u_f, u_s)``.

    The loop iterates on one float64 vector ``x``, the flow's input
    displacement, from the ``x`` passed in, which it takes over read-only. The
    coupling map ``H(x) -> (x_tilde, rep_f, rep_s)``, the only code that knows
    the flow feeds the solid, runs both solvers and returns the solid's output
    ``x_tilde``, held to ``x``'s length, with the two calls' reports. The
    residual ``r = x_tilde - x``, the convergence test, the stall rule and the
    update read only those. A coupling iteration is one evaluation of ``H``;
    the returned ``x`` is the accepted displacement.

    ``u_f`` and ``u_s`` are the interior states the flow and solid solvers
    ended the previous step with; None on the run's first step, whose first
    calls :func:`~fsilab.subproblem.call_solver` starts from zeros. ``increments``
    fills the third entry of ``record.accepted_norms``.

    Raises :class:`DivergedStepError`, with the step's unconverged
    :class:`TimeStepRecord` as ``partial``, when the coupling-iteration budget
    is exhausted, the residual grows unboundedly, a solver call fails, ``H``
    gets an ``x`` that is not finite, or, under constant or Aitken relaxation,
    the residual repeats to round-off for ``_STALL_WINDOW`` consecutive
    coupling iterations. IQN-ILS has no stall rule.
    """
    r_km1 = x_tilde_km1 = None  # the previous coupling iteration's residual and output
    omega = config.omega0
    rec = TimeStepRecord(step)
    r1_norm = None
    repeats = 0  # consecutive coupling iterations that repeated the residual

    def _abort(reason: str):
        return DivergedStepError(f"time step {step}: {reason}", rec)

    def _call(solver_id, solver, inp):
        """``call_solver``, timed and counted into ``rec``; a failed call spent
        its inner iterations and seconds too, and aborts the step."""
        failed = None
        start = time.perf_counter()
        try:
            out = call_solver(solver_id, solver, inp)
            iters = out[1].inner_iters
        except (GeometryError, InnerIterationError) as exc:
            # a load that fails has run no inner iteration
            failed, iters = exc, getattr(exc, "iteration", None) or 0
        seconds = time.perf_counter() - start
        if solver_id is SolverId.FLOW:
            rec.flow_iters += iters
            rec.flow_time += seconds
        else:
            rec.solid_iters += iters
            rec.solid_time += seconds
        if failed is not None:
            raise _abort(f"coupling update broke a subproblem ({solver_id.value} solver: "
                         f"{failed})") from failed
        return out

    flow, solid = model.flow_solver(state), model.solid_solver(state)

    def coupling_map(x):
        """``H(x)``: the flow on the displacement ``x``, then the solid on its traction."""
        nonlocal u_f, u_s
        if not all_finite(x):
            raise _abort("the accelerated interface displacement is not finite")
        x.setflags(write=False)
        rec.coupling_iters += 1
        traction, rep_f, u_f = _call(SolverId.FLOW, flow, SolverCallInput(
            u_f, x, eps=config.eps_f, n_max=config.n_max_f))
        d_tilde, rep_s, u_s = _call(SolverId.SOLID, solid, SolverCallInput(
            u_s, traction, eps=config.eps_s, n_max=config.n_max_s))
        if d_tilde.size != x.size:
            raise ContractError(f"solid output has {d_tilde.size} entries, the interface {x.size}")
        return d_tilde, rep_f, rep_s

    for k in range(1, config.max_coupling_iters + 1):
        x_tilde, rep_f, rep_s = coupling_map(x)
        r = x_tilde - x
        r_norm = math.sqrt(r.dot(r))
        if k == 1:
            r1_norm = r_norm
        elif r1_norm > 0.0 and r_norm > _RESIDUAL_GROWTH_ABORT * r1_norm:
            raise _abort(f"coupling residual grew by more than {_RESIDUAL_GROWTH_ABORT:g}x")

        if k >= 2 and config.accel is AccelKind.IQN_ILS:  # relaxation never reads it
            hist.append(r - r_km1, x_tilde - x_tilde_km1, age=step)

        if check_convergence(rep_f, rep_s, config, r_norm):
            x_norm = math.sqrt(x.dot(x))
            rel = r_norm / x_norm if x_norm > 0.0 else float("inf")
            inc = None
            if increments:  # on a copy: the columns its filter drops stay in hist
                inc = _update(config, copy.deepcopy(hist), omega, r, r_norm, x, x_tilde)[1]
            rec.accepted_norms = (r_norm, rel, inc)
            return rec, x, u_f, u_s

        # under relaxation, the update's side effects: the repeat-abort and
        # the Aitken factor
        if config.accel is not AccelKind.IQN_ILS and k > 1:
            dr = r - r_km1
            repeated = math.sqrt(dr.dot(dr)) <= ROUNDOFF * r_norm
            repeats = repeats + 1 if repeated else 0
            if repeats >= _STALL_WINDOW:
                raise _abort(f"fixed-point residual repeated for {repeats} coupling "
                             "iterations")
            if config.accel is AccelKind.AITKEN:
                omega = aitken_omega(r, r_km1, omega)

        # acceleration update toward the next coupling iteration
        r_km1, x_tilde_km1 = r, x_tilde
        x = _update(config, hist, omega, r, r_norm, x, x_tilde)[0]

    raise _abort(f"no convergence within max_coupling_iters={config.max_coupling_iters}")


def _predict(accepted: list, degree: int) -> np.ndarray:
    """A time step's first interface displacement, extrapolated from ``accepted``,
    the accepted displacements of the steps before it (oldest first, at least one).

    The guess is the value at the next step of the polynomial of degree
    ``p = min(len(accepted) - 1, degree)`` through the newest ``p + 1``
    displacements, ``sum_{j=0..p} (-1)^j C(p+1, j+1) d_{n-j}`` with ``d_n`` the
    newest: ``d_n``, ``2 d_n - d_{n-1}``, ``3 d_n - 3 d_{n-1} + d_{n-2}``, and so
    on. It is exact on motion of degree ``p``; with ``h`` the time step, its
    error is ``h^{p+1} d^{(p+1)}`` to leading order. The weights' magnitudes sum
    to ``2^{p+1} - 1``, the factor by which it can amplify an error in the
    accepted displacements: 15 at degree 3, 63 at degree 5.
    """
    p = min(len(accepted) - 1, degree)
    return sum((-1) ** j * math.comb(p + 1, j + 1) * accepted[-1 - j] for j in range(p + 1))


def run_simulation(model, config: CouplingConfig, on_step=None,
                   increments: bool = False) -> RunRecord:
    """Run all time steps of a coupled model; fully deterministic given config.

    The model declares ``n_interface``, ``n_steps``, ``initial_state()``,
    ``flow_solver(state)``, ``solid_solver(state)`` and ``advance_state(state,
    d, flow_u)``, ``d`` the accepted displacement as a read-only array. The run
    starts from ``initial_state()``. The first coupling iteration of the first
    step guesses a zero interface displacement; every
    later step starts from an extrapolation of the accepted displacements
    (:func:`_predict`): step 2 from ``d_1``, step 3 linear, step 4 quadratic,
    step 5 cubic. The degree then follows the accelerator's memory: it stays
    cubic under IQN-ILS with ``reuse_q >= 1``, whose update carries secant
    pairs across steps, and rises to quartic at step 6 and quintic from step 7
    under constant and Aitken relaxation and IQN-ILS with ``reuse_q = 0``,
    which start each step from the guess alone. Each solver's first call
    starts from a zero interior state.

    ``on_step(step, hist, state)`` is a diagnostics hook. ``increments=True``
    records each accepted step's would-be update increment in
    ``accepted_norms[2]``; it adds one quasi-Newton update per accepted step
    under IQN-ILS, on a copy of the history, so the iteration counts and
    snapshots are those of the same run without it. On
    a diverged step the partial run record, which includes the aborted step,
    is attached to the raised :class:`DivergedStepError` as ``record``.
    """
    t_start = time.perf_counter()
    state = model.initial_state()
    d = np.zeros(model.n_interface)
    u_f = u_s = None
    hist = IqnHistory(q=config.reuse_q)
    reuses = config.accel is AccelKind.IQN_ILS and config.reuse_q >= 1
    degree = _PREDICTOR_DEGREE_REUSE if reuses else _PREDICTOR_DEGREE_MEMORYLESS

    steps: list = []
    snapshots: list = []
    for step in range(1, model.n_steps + 1):
        hist.start_step(step)
        if snapshots:
            d = _predict(snapshots, degree)
        try:
            record, d, u_f, u_s = run_time_step(
                model, config, state, hist, step, d, u_f, u_s, increments=increments,
            )
        except DivergedStepError as exc:
            steps.append(exc.partial)
            exc.record = RunRecord(steps, snapshots, time.perf_counter() - t_start)
            raise
        steps.append(record)
        snapshots.append(d)
        state = model.advance_state(state, d, u_f)
        if on_step is not None:
            on_step(step, hist, state)

    return RunRecord(steps, snapshots, time.perf_counter() - t_start)
