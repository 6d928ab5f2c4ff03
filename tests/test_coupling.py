import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    Event,
    FieldRole,
    InterfaceField,
    IqnHistory,
    SolverCallInput,
    SolverCallReport,
    SolverId,
    TimeStepRecord,
    aitken_omega,
    check_convergence,
    drive,
    iqn_ils_update,
    qr_filter,
    run_simulation,
    run_time_step,
)
from fsilab.coupling import _MAX_SECANT_COLUMNS, _STALL_WINDOW, _require_eps_fil
from fsilab.errors import AllColumnsFilteredError, ContractError, DivergedStepError
from fsilab.models import LinearToyModel, Tube1DModel
from fsilab.models.tube import Tube1DParams
from reference_specs import SpecSolver


def report(first_residual, eps=1e-9, iters=1):
    history = tuple([first_residual] + [first_residual / 10**i for i in range(1, iters)])
    return SolverCallReport(inner_iters=iters, residual_history=history,
                            converged_on_first=first_residual < eps,
                            final_residual=history[-1])


def gram_schmidt_filter(v_matrix: np.ndarray, eps_fil: float) -> list:
    """The filter's previous implementation, kept as the oracle: incremental
    classical Gram-Schmidt with one re-orthogonalization, column by column."""
    if eps_fil <= 0:
        raise ContractError("eps_fil must be positive")
    v_matrix = np.asarray(v_matrix, dtype=float)
    if v_matrix.size == 0:
        return []
    retained: list = []
    basis: list = []
    for idx in range(v_matrix.shape[1]):
        col = v_matrix[:, idx]
        norm_col = float(np.linalg.norm(col))
        if norm_col == 0.0:
            continue
        w = col.astype(float, copy=True)
        for _ in range(2):
            for q in basis:
                w -= (q @ w) * q
        norm_w = float(np.linalg.norm(w))
        if norm_w < eps_fil * norm_col:
            continue
        retained.append(idx)
        basis.append(w / norm_w)
    return retained


def orthogonal_ratios(v_matrix: np.ndarray, keep: list) -> list:
    """For each nonzero column j, the norm of its component orthogonal to the
    kept columns before it, relative to its own norm."""
    ratios = []
    for j in range(v_matrix.shape[1]):
        col = v_matrix[:, j]
        norm_col = np.linalg.norm(col)
        if norm_col == 0.0:
            continue
        before = [i for i in keep if i < j]
        w = col.copy()
        if before:
            q = np.linalg.qr(v_matrix[:, before])[0]
            for _ in range(2):
                w -= q @ (q.T @ w)
        ratios.append(np.linalg.norm(w) / norm_col)
    return ratios


@st.composite
def filter_inputs(draw):
    """A column set of random, duplicated, scaled, zero and near-dependent
    columns, some rows zero in every column; a near-dependent column is an
    earlier one plus a perturbation at least two decades above or below
    ``eps_fil``."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 30))
    eps_fil = 10.0 ** draw(st.integers(-12, -4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "duplicate", "scaled", "zero", "near"]),
                          min_size=m, max_size=m))
    cols: list = []
    for kind in kinds:
        if kind == "zero":
            cols.append(np.zeros(n))
        elif kind == "random" or not cols:
            cols.append(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
        else:
            base = cols[rng.integers(len(cols))]
            if kind == "duplicate":
                cols.append(base.copy())
            elif kind == "scaled":
                cols.append(base * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
            else:
                decades = draw(st.sampled_from([-4, -3, -2, 2, 3]))
                u = rng.standard_normal(n)
                delta = min(eps_fil * 10.0**decades, 0.1)
                cols.append(base + delta * np.linalg.norm(base) * u / np.linalg.norm(u))
    v = np.column_stack(cols) if cols else np.zeros((n, 0))
    v[sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 2)))] = 0.0
    return v, eps_fil


class TestQrFilter:
    def test_duplicate_columns(self):
        v = np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert qr_filter(v, 1e-12) == [0]

    def test_orthogonal_columns(self):
        v = np.eye(4)[:, :3]
        assert qr_filter(v, 1e-12) == [0, 1, 2]

    def test_near_dependence_below_tolerance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        w = rng.standard_normal(6)
        v = np.column_stack([a, a + 1e-15 * w])
        assert qr_filter(v, 1e-12) == [0]

    def test_zero_column_dropped_empty_input_ok(self):
        v = np.column_stack([[0.0, 0.0], [1.0, 0.0]])
        assert qr_filter(v, 1e-12) == [1]
        assert qr_filter(np.zeros((3, 0)), 1e-12) == []

    def test_newest_first_retention(self):
        # when two columns are dependent, the first processed (newest) wins
        a = np.array([2.0, 0.0, 0.0])
        v = np.column_stack([a, 3 * a, np.array([0.0, 1.0, 0.0])])
        assert qr_filter(v, 1e-10) == [0, 2]

    def test_retained_set_has_full_rank(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((8, 4))
        # add two nearly dependent copies
        v = np.column_stack([base, base[:, 0] + 1e-14 * base[:, 1], base[:, 2]])
        keep = qr_filter(v, 1e-10)
        assert np.linalg.matrix_rank(v[:, keep], tol=1e-12) == len(keep)

    def test_refactor_after_drop(self):
        # column 1 is dropped; column 2 differs from column 0 along the same
        # direction, far enough to be kept once column 1 is out of the basis
        a = np.array([1.0, 2.0, -1.0])
        u = np.array([0.0, 1.0, 2.0])
        v = np.column_stack([a, a + 1e-9 * u, a + 1e-3 * u])
        assert gram_schmidt_filter(v, 1e-6) == [0, 2]
        assert qr_filter(v, 1e-6) == [0, 2]

    def test_rows_zero_in_every_column_bound_the_rank(self):
        # four nearly dependent columns fill the space of rows 1-4; a fifth
        # column there is dependent, however ill-conditioned the first four
        rng = np.random.default_rng(1)
        cols = [rng.standard_normal(4)]
        for _ in range(3):
            cols.append(cols[-1] + 1e-4 * rng.standard_normal(4))
        cols.append(rng.standard_normal(4))
        v = np.zeros((6, 5))
        v[1:5] = np.column_stack(cols)
        assert gram_schmidt_filter(v, 1e-12) == [0, 1, 2, 3]
        assert qr_filter(v, 1e-12) == [0, 1, 2, 3]

    def test_more_columns_than_rows(self):
        # three pairwise independent columns in R^2: the third is dependent
        v = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert qr_filter(v, 1e-12) == [0, 1]

    def test_nonpositive_eps_rejected(self):
        for eps_fil in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(ContractError, match="positive and finite"):
                qr_filter(np.eye(2), eps_fil)
        # a NaN threshold compared false everywhere and kept both duplicates
        with pytest.raises(ContractError, match="got nan"):
            qr_filter(np.ones((3, 2)), math.nan)
        hist = IqnHistory(q=1)
        hist.append(np.array([1.0, 0.0]), np.array([0.5, 0.5]), age=1)
        for eps_fil in (0.0, math.nan, math.inf):
            for r in (np.ones(2), np.zeros(2)):
                with pytest.raises(ContractError, match="positive and finite"):
                    iqn_ils_update(hist, r, np.zeros(2), eps_fil)

    @settings(max_examples=300, deadline=None)
    @given(filter_inputs())
    def test_matches_gram_schmidt_oracle(self, inputs):
        v, eps_fil = inputs
        reference = gram_schmidt_filter(v, eps_fil)
        # no decision may sit within a decade of the threshold, where round-off
        # of either factorisation could flip it
        assume(all(r < 0.1 * eps_fil or r > 10.0 * eps_fil
                   for r in orthogonal_ratios(v, reference)))
        keep = qr_filter(v, eps_fil)
        assert keep == reference
        assert all(type(i) is int for i in keep)


def _history(v: np.ndarray, w: np.ndarray) -> IqnHistory:
    """A history holding exactly the columns of ``v`` and ``w``, zero ones too."""
    hist = IqnHistory(q=0)
    hist._v, hist._w, hist._ages = v.copy(), w.copy(), [1] * v.shape[1]
    return hist


class TestIqnUpdate:
    def test_zero_residual_zero_increment_any_history(self):
        hist = IqnHistory(q=2)
        hist.append(np.array([1.0, 0.0]), np.array([0.5, 0.5]), age=1)
        d = np.array([3.0, -1.0])
        d_next, inc = iqn_ils_update(hist, np.zeros(2), d, 1e-12)
        assert inc == 0.0
        assert np.array_equal(d_next, d)
        # and with an empty history too
        d_next, inc = iqn_ils_update(IqnHistory(q=0), np.zeros(2), d, 1e-12)
        assert inc == 0.0

    def test_scalar_linear_secant_is_exact(self):
        # residual map R(x) = 0.5 x - 1 has its zero at x = 2
        def res(x):
            return 0.5 * x - 1.0

        x1, x2 = 0.0, 1.0
        hist = IqnHistory(q=1)
        hist.append(np.array([res(x2) - res(x1)]), np.array([x2 - x1]), age=1)
        d_next, inc = iqn_ils_update(hist, np.array([res(x2)]), np.array([x2]), 1e-12)
        assert d_next[0] == pytest.approx(2.0, abs=1e-12)
        assert inc == pytest.approx(1.0, abs=1e-12)

    def test_two_columns_reproduce_linear_map_exactly(self):
        # affine residual R(x) = G x - g in 2-D: after two independent
        # columns the update lands on the root (dense-solve oracle)
        g_mat = np.array([[0.6, 0.2], [-0.1, 0.4]])
        g_vec = np.array([1.0, 0.5])
        root = np.linalg.solve(g_mat, g_vec)

        def res(x):
            return g_mat @ x - g_vec

        xs = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        hist = IqnHistory(q=1)
        for a, b in zip(xs, xs[1:]):
            hist.append(res(b) - res(a), b - a, age=1)
        d_next, _ = iqn_ils_update(hist, res(xs[-1]), xs[-1], 1e-12)
        assert np.allclose(d_next, root, atol=1e-10)

    def test_empty_history_is_callers_problem(self):
        with pytest.raises(ContractError):
            iqn_ils_update(IqnHistory(q=0), np.ones(2), np.zeros(2), 1e-12)

    def test_all_filtered_raises(self):
        hist = IqnHistory(q=1)
        hist.append(np.zeros(2), np.ones(2), age=1)  # silently skipped (no info)
        hist._v, hist._w, hist._ages = np.zeros((2, 1)), np.ones((2, 1)), [1]  # force a zero column in
        with pytest.raises(AllColumnsFilteredError):
            iqn_ils_update(hist, np.ones(2), np.zeros(2), 1e-12)


    def test_more_columns_than_interface_length(self):
        rng = np.random.default_rng(7)
        hist = IqnHistory(q=1)
        for _ in range(5):
            hist.append(rng.standard_normal(2), rng.standard_normal(2), age=1)
        assert hist.n_columns == 5
        d_next, inc = iqn_ils_update(hist, np.array([1.0, -2.0]), np.zeros(2), 1e-12)
        assert np.all(np.isfinite(d_next)) and math.isfinite(inc)

    @settings(max_examples=300, deadline=None)
    @given(filter_inputs(), st.integers(0, 2**32 - 1))
    def test_matches_filtered_lstsq_reference(self, inputs, seed):
        # the residual has entries on rows that are zero in every column of V,
        # and V may have more columns than rows
        v, eps_fil = inputs
        assume(v.shape[1] > 0)  # an empty history is the caller's problem
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(v.shape)
        r = rng.standard_normal(v.shape[0]) * 10.0 ** rng.uniform(-3, 3)
        d_tilde = rng.standard_normal(v.shape[0])
        keep = gram_schmidt_filter(v, eps_fil)
        assume(all(q < 0.1 * eps_fil or q > 10.0 * eps_fil
                   for q in orthogonal_ratios(v, keep)))
        if not keep:
            with pytest.raises(AllColumnsFilteredError):
                iqn_ils_update(_history(v, w), r, d_tilde, eps_fil)
            return
        # past a condition number of 1e6, any backward-stable solve fixes the
        # coefficients only to about eps * cond^2: no computation is a
        # reference there (the kept sets are pinned by the filter's oracle)
        assume(np.linalg.cond(v[:, keep]) < 1e6)
        delta = w[:, keep] @ np.linalg.lstsq(v[:, keep], -r, rcond=None)[0]
        expected = d_tilde + delta
        d_next, _ = iqn_ils_update(_history(v, w), r, d_tilde, eps_fil)
        assert np.linalg.norm(d_next - expected) <= 1e-8 * np.linalg.norm(expected)
        # the increment alone, which d_tilde could swamp above
        delta_next, inc = iqn_ils_update(_history(v, w), r, np.zeros_like(r), eps_fil)
        assert np.linalg.norm(delta_next - delta) <= 1e-8 * np.linalg.norm(delta)
        assert inc == pytest.approx(np.linalg.norm(delta), rel=1e-8)


def reference_qr1(v_matrix: np.ndarray, eps_fil: float, rhs: np.ndarray | None = None):
    """The fused filter and fit's previous implementation, kept verbatim as the
    bitwise oracle of the update."""
    _require_eps_fil(eps_fil)
    v_matrix = np.asarray(v_matrix, dtype=float)
    rows = v_matrix.any(axis=1)
    v_matrix = v_matrix[rows]
    norms = np.linalg.norm(v_matrix, axis=0)
    cand = np.flatnonzero(norms)
    n_rows = v_matrix.shape[0]
    while cand.size:
        a = np.empty((n_rows, cand.size + (rhs is not None)))
        a[:, : cand.size] = v_matrix[:, cand]
        if rhs is not None:
            a[:, -1] = rhs[rows]
        # mode="raw" returns the geqrf output transposed: R is the upper
        # triangle of h.T
        h = np.linalg.qr(a, mode="raw")[0]
        n_keep = min(cand.size, n_rows)
        r_diag = np.abs(h.diagonal()[:n_keep])
        failed = np.flatnonzero(r_diag < eps_fil * norms[cand[:n_keep]])
        if failed.size:
            cand = np.delete(cand, failed[0])
            continue
        if rhs is None:
            return cand[:n_keep], None
        r_tri = np.triu(h[:n_keep, :n_keep].T)
        try:
            alpha = np.linalg.solve(r_tri, h[-1, :n_keep])
        except np.linalg.LinAlgError as exc:
            raise AllColumnsFilteredError("retained columns are numerically singular") from exc
        return cand[:n_keep], alpha
    return cand, None


def reference_iqn_ils_update(hist: IqnHistory, r_k, d_tilde_k, eps_fil: float):
    """The update's previous implementation, kept verbatim as its bitwise oracle."""
    r = np.asarray(r_k, dtype=float)
    d_tilde = np.asarray(d_tilde_k, dtype=float)
    _require_eps_fil(eps_fil)
    if np.linalg.norm(r) == 0.0:
        return d_tilde.copy(), 0.0
    if hist.is_empty:
        raise ContractError("empty quasi-Newton history; caller must fall back to relaxation")
    v, w = hist.matrices()
    if v.shape[0] != r.size:
        raise ContractError("history column length does not match residual length")
    keep, alpha = reference_qr1(v, eps_fil, -r)
    if not keep.size:
        raise AllColumnsFilteredError("filtering removed all quasi-Newton columns")
    if keep.size < w.shape[1]:  # else no column was dropped: W stays a view
        w = w[:, keep]
    delta = w @ alpha
    return d_tilde + delta, float(np.linalg.norm(delta))


def _both_updates(hist: IqnHistory, r, d_tilde, eps_fil: float):
    """``(update, reference)`` outcomes: a result pair or the exception type."""
    outcomes = []
    for update in (iqn_ils_update, reference_iqn_ils_update):
        try:
            outcomes.append(update(hist, r, d_tilde, eps_fil))
        except (AllColumnsFilteredError, ContractError) as exc:
            outcomes.append(type(exc))
    return outcomes


def _assert_bitwise_same(got, ref) -> None:
    if isinstance(ref, type):
        assert got is ref
    else:
        assert np.array_equal(got[0], ref[0]) and got[0].dtype == ref[0].dtype
        assert got[1] == ref[1] and type(got[1]) is float


class TestIqnUpdateIsBitwiseTheReference:
    @settings(max_examples=300, deadline=None)
    @given(filter_inputs(), st.sampled_from([1, 3, 5, 24]), st.integers(0, 2**32 - 1))
    def test_histories_built_by_appends(self, inputs, max_columns, seed):
        # the columns enter through IqnHistory, so V and W are windows of its
        # buffers, at every offset the appends and evictions leave them at;
        # duplicated and near-dependent columns make the filter drop some, and
        # V has rows that are zero in every column
        v, eps_fil = inputs
        n, m = v.shape
        rng = np.random.default_rng(seed)
        hist = IqnHistory(q=2, max_columns=max_columns)
        ages = rng.integers(1, 6, size=m)
        for j in range(m - 1, -1, -1):  # oldest first, so column 0 ends up newest
            if j % 7 == 3:
                hist.start_step(int(ages[j]))
            hist.append(v[:, j], rng.standard_normal(n), age=int(ages[j]))
        r = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        d_tilde = rng.standard_normal(n)
        for residual in (r, np.where(v.any(axis=1), 0.0, r), np.zeros(n)):
            _assert_bitwise_same(*_both_updates(hist, residual, d_tilde, eps_fil))

    def test_dropped_column_takes_the_gathered_w(self):
        # a duplicate column is dropped, so W is gathered with w[:, keep]
        rng = np.random.default_rng(3)
        hist = IqnHistory(q=1)
        cols = rng.standard_normal((9, 4))
        for j in (3, 2, 1, 0):
            hist.append(cols[:, j], rng.standard_normal(9), age=1)
        hist.append(cols[:, 1], rng.standard_normal(9), age=1)
        v, _ = hist.matrices()
        assert qr_filter(v, 1e-12) == [0, 1, 3, 4]
        got, ref = _both_updates(hist, rng.standard_normal(9), rng.standard_normal(9), 1e-12)
        _assert_bitwise_same(got, ref)

    def test_more_kept_columns_than_the_precomputed_mask(self):
        rng = np.random.default_rng(4)
        hist = IqnHistory(q=1, max_columns=40)
        for _ in range(32):
            hist.append(rng.standard_normal(50), rng.standard_normal(50), age=1)
        assert len(qr_filter(hist.matrices()[0], 1e-12)) == 32 > _MAX_SECANT_COLUMNS
        got, ref = _both_updates(hist, rng.standard_normal(50), rng.standard_normal(50), 1e-12)
        _assert_bitwise_same(got, ref)

    def test_rows_zero_in_every_column(self):
        rng = np.random.default_rng(5)
        hist = IqnHistory(q=1)
        for _ in range(6):
            col = rng.standard_normal(12)
            col[[0, 5, 11]] = 0.0
            hist.append(col, rng.standard_normal(12), age=1)
        got, ref = _both_updates(hist, rng.standard_normal(12), rng.standard_normal(12), 1e-12)
        _assert_bitwise_same(got, ref)

    @pytest.mark.parametrize("scale", [0.0, 1e-170, 1e-160])
    def test_zero_and_underflowing_residuals(self, scale):
        # ||r||^2 underflows to zero at 1e-170: the residual counts as zero and
        # d_tilde comes back exactly; at 1e-160 it does not
        rng = np.random.default_rng(9)
        hist = IqnHistory(q=1)
        for _ in range(3):
            hist.append(rng.standard_normal(7), rng.standard_normal(7), age=1)
        r = np.full(7, scale)
        # a zero d_tilde shows any increment, however small
        for d_tilde in (rng.standard_normal(7), np.zeros(7)):
            got, ref = _both_updates(hist, r, d_tilde, 1e-12)
            _assert_bitwise_same(got, ref)
            assert (got[1] == 0.0) is (scale < 1e-165)
            if scale < 1e-165:
                assert np.array_equal(got[0], d_tilde) and got[0] is not d_tilde


class ListIqnHistory:
    """The history's previous implementation, kept as the oracle: a Python
    list of ``(age, residual_diff, output_diff)`` tuples, newest first."""

    def __init__(self, q: int, max_columns: int | None = None):
        if q < 0:
            raise ContractError("reuse depth q must be >= 0")
        if max_columns is not None and max_columns < 1:
            raise ContractError("max_columns must be >= 1")
        self.q = q
        self.max_columns = max_columns
        self._cols: list = []  # (age, residual_diff, output_diff), newest first

    def append(self, residual_diff: np.ndarray, output_diff: np.ndarray, age: int) -> None:
        dr = np.asarray(residual_diff, dtype=float)
        dw = np.asarray(output_diff, dtype=float)
        if dr.shape != dw.shape or dr.ndim != 1:
            raise ContractError("column pair must be two equal-length vectors")
        if self._cols and self._cols[0][1].size != dr.size:
            raise ContractError("column length mismatch with stored history")
        if not np.any(dr):
            return  # a stagnant pair carries no secant information
        self._cols.insert(0, (age, dr, dw))
        if self.max_columns is not None and len(self._cols) > self.max_columns:
            del self._cols[self.max_columns :]  # oldest columns beyond the cap

    def start_step(self, step: int) -> None:
        self._cols = [c for c in self._cols if c[0] >= step - self.q]

    def clear(self) -> None:
        self._cols = []

    @property
    def n_columns(self) -> int:
        return len(self._cols)

    @property
    def is_empty(self) -> bool:
        return not self._cols

    @property
    def column_ages(self) -> list:
        return [c[0] for c in self._cols]

    def matrices(self):
        v = np.column_stack([c[1] for c in self._cols])
        w = np.column_stack([c[2] for c in self._cols])
        return v, w


@st.composite
def history_ops(draw):
    """A row count, a column cap, and a random sequence of history operations;
    appends carry random, zero or wrong-length pairs and arbitrary ages."""
    n = draw(st.integers(1, 6))
    max_columns = draw(st.sampled_from([1, 3, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for kind in draw(st.lists(st.sampled_from(["append"] * 6 + ["zero", "resize",
                                                                  "start", "clear"]),
                              max_size=60)):
        if kind == "start":
            ops.append(("start", draw(st.integers(0, 12))))
        elif kind == "clear":
            ops.append(("clear",))
        else:
            size = n + 1 if kind == "resize" else n
            dr = np.zeros(size) if kind == "zero" else rng.standard_normal(size)
            ops.append(("append", dr, rng.standard_normal(size), draw(st.integers(0, 12))))
    return n, max_columns, draw(st.integers(0, 3)), ops


class TestIqnHistory:
    @settings(max_examples=200, deadline=None)
    @given(inputs=history_ops())
    def test_buffers_match_list_oracle(self, inputs):
        n, max_columns, q, ops = inputs
        hist, oracle = IqnHistory(q, max_columns), ListIqnHistory(q, max_columns)
        for op in ops:
            outcomes = []
            for h in (hist, oracle):
                try:
                    if op[0] == "append":
                        h.append(op[1], op[2], age=op[3])
                    elif op[0] == "start":
                        h.start_step(op[1])
                    else:
                        h.clear()
                    outcomes.append(None)
                except ContractError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert hist.column_ages == oracle.column_ages
            assert (hist.n_columns, hist.is_empty) == (oracle.n_columns, oracle.is_empty)
            if not oracle.is_empty:
                for got, ref in zip(hist.matrices(), oracle.matrices()):
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("max_columns", [1, 2, 3, 24])
    def test_window_wraps_like_the_list_oracle(self, max_columns):
        # enough appends to move the window back to the right half of the
        # buffers several times, with evictions in between
        rng = np.random.default_rng(max_columns)
        hist, oracle = IqnHistory(2, max_columns), ListIqnHistory(2, max_columns)
        for i in range(5 * max_columns + 3):
            dr, dw = rng.standard_normal(4), rng.standard_normal(4)
            for h in (hist, oracle):
                if i % 5 == 4:
                    h.start_step(i // 3)
                h.append(dr, dw, age=i // 3)
            assert hist.column_ages == oracle.column_ages
            for got, ref in zip(hist.matrices(), oracle.matrices()):
                assert got.tobytes() == ref.tobytes()

    def test_eviction_by_age(self):
        hist = IqnHistory(q=2)
        for age in (1, 2, 3, 4):
            hist.append(np.array([float(age)]), np.array([1.0]), age=age)
        hist.start_step(5)
        assert all(age >= 3 for age in hist.column_ages)

    def test_q_zero_keeps_only_current_step(self):
        hist = IqnHistory(q=0)
        hist.append(np.array([1.0]), np.array([1.0]), age=1)
        hist.start_step(2)
        assert hist.is_empty

    @pytest.mark.parametrize("max_columns", [None, 0, 2.5])
    def test_column_cap_is_a_positive_integer(self, max_columns):
        with pytest.raises(ContractError, match="max_columns"):
            IqnHistory(q=1, max_columns=max_columns)

    def test_column_cap_drops_oldest(self):
        hist = IqnHistory(q=10, max_columns=3)
        for i in range(5):
            hist.append(np.array([1.0 + i]), np.array([1.0]), age=1)
        assert hist.n_columns == 3
        v, _ = hist.matrices()
        assert v[0].tolist() == [5.0, 4.0, 3.0]  # newest first


class TestAitken:
    def test_hand_secant_value(self):
        omega, stagnated = aitken_omega(np.array([0.5]), np.array([1.0]), 0.5)
        assert omega == pytest.approx(1.0)
        assert not stagnated

    def test_stagnation_keeps_omega_and_flags(self):
        assert aitken_omega(np.array([1.0]), np.array([1.0]), 0.37) == (0.37, True)

    def test_oscillating_residual_halves_omega(self):
        omega, _ = aitken_omega(np.array([-1.0]), np.array([1.0]), 1.0)
        assert omega == pytest.approx(0.5)

    def test_clamped(self):
        assert aitken_omega(np.array([0.999]), np.array([1.0]), 1.0) == (2.0, False)
        assert aitken_omega(np.array([-1000.0]), np.array([1.0]), 1.0) == (0.01, False)


class TestCheckConvergence:
    def test_first_residual_both_needed(self):
        cfg = CouplingConfig()
        ok = report(1e-12)
        slow = report(1.0, iters=3)
        assert check_convergence(ok, ok, cfg, np.ones(3))
        assert not check_convergence(slow, ok, cfg, np.ones(3))
        assert not check_convergence(ok, slow, cfg, np.ones(3))

    def test_legacy_norm(self):
        cfg = CouplingConfig(criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-10)
        bad = report(1.0, iters=2)
        assert check_convergence(bad, bad, cfg, np.zeros(3))
        assert not check_convergence(bad, bad, cfg, np.full(3, 1e-3))

    def test_legacy_relative(self):
        cfg = CouplingConfig(criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-3,
                             criterion_relative=True)
        rep = report(1.0, iters=2)
        assert check_convergence(rep, rep, cfg, np.array([1e-4]), d_k=np.array([1.0]))
        assert not check_convergence(rep, rep, cfg, np.array([1e-4]), d_k=np.array([0.0]))
        assert check_convergence(rep, rep, cfg, np.zeros(1), d_k=np.array([0.0]))


@pytest.fixture(scope="module")
def short_run():
    params = Tube1DParams(cells=60, steps=21)
    config = CouplingConfig()
    record = run_simulation(Tube1DModel(params), config, increments=True)
    return params, config, record


class TestEngineOnTube:
    def test_determinism_bit_identical(self, short_run):
        params, config, record = short_run
        again = run_simulation(Tube1DModel(params), config)
        assert record.counters.per_step == again.counters.per_step
        assert all(np.array_equal(a, b)
                   for a, b in zip(record.snapshots, again.snapshots))

    def test_resolve_audit_passes(self, short_run):
        # stepping the run by hand, one more call of each solver with every
        # accepted step's data meets that solver's tolerance on its first
        # inner iteration, as the first-residual criterion promised
        params, config, record = short_run
        model = Tube1DModel(params)
        state, u_f, u_s = model.initial_state(), model.initial_flow_u(), model.initial_solid_u()
        d_acc = model.initial_displacement()
        hist = IqnHistory(q=config.reuse_q, max_columns=min(model.n_interface, _MAX_SECANT_COLUMNS))
        per_step = []
        for step in range(1, params.steps + 1):
            hist.start_step(step)
            rec, d_acc, u_f, u_s = run_time_step(model, config, state, hist, step,
                                                 d_acc, u_f, u_s)
            per_step.append((step, rec.coupling_iters, rec.flow_iters, rec.solid_iters))
            flow = model.flow_solver(state)
            _, hist_f = drive(flow, SolverCallInput(u_f, d_acc, eps=config.eps_f, n_max=1))
            traction = flow.output(u_f)
            _, hist_s = drive(model.solid_solver(state),
                              SolverCallInput(u_s, traction, eps=config.eps_s, n_max=1))
            assert hist_f[0] <= config.eps_f
            assert hist_s[0] <= config.eps_s
            state = model.advance_state(state, d_acc, u_f, u_s)
        assert per_step == record.counters.per_step

    def test_counters_additivity_and_diagnostics(self, short_run):
        _, _, record = short_run
        record.counters.check_additivity()
        assert len(record.step_records) == 21
        for rec in record.step_records:
            r_norm, rel, inc = rec.accepted_norms
            assert r_norm >= 0 and inc >= 0
            assert rel >= 0 or math.isinf(rel)
            assert rec.converged

    def test_increment_vanishes_with_residual(self, short_run):
        # accepted-state update increment is proportional to the residual
        _, _, record = short_run
        for rec in record.step_records:
            r_norm, _, inc = rec.accepted_norms
            assert inc <= 10.0 * r_norm + 1e-300

    def test_increment_only_on_request(self, monkeypatch):
        # a run that does not ask makes no acceptance-time update and leaves
        # the third accepted norm empty; asking changes nothing else
        import fsilab.coupling as coupling_mod

        params = Tube1DParams(cells=40, steps=6)
        real_update = coupling_mod.iqn_ils_update
        calls = {"n": 0}

        def counted(*args):
            calls["n"] += 1
            return real_update(*args)

        monkeypatch.setattr(coupling_mod, "iqn_ils_update", counted)
        plain = run_simulation(Tube1DModel(params), CouplingConfig())
        plain_calls, calls["n"] = calls["n"], 0
        asked = run_simulation(Tube1DModel(params), CouplingConfig(), increments=True)
        assert all(rec.accepted_norms[2] is None for rec in plain.step_records)
        assert all(rec.accepted_norms[2] >= 0.0 for rec in asked.step_records)
        # every accepted step holds secant columns, so asking costs one update each
        assert calls["n"] - plain_calls == len(asked.step_records) == params.steps
        # a plain run updates once per non-final coupling iteration, except the
        # first of the run, whose history is empty
        assert plain_calls == asked.counters.coupling_total - params.steps - 1
        assert plain.counters.per_step == asked.counters.per_step
        assert all(np.array_equal(a, b) for a, b in zip(plain.snapshots, asked.snapshots))

    def test_reuse_eviction_invariant(self):
        params = Tube1DParams(cells=40, steps=8)
        config = CouplingConfig(reuse_q=2)
        ages_seen = []
        run_simulation(Tube1DModel(params), config,
                       on_step=lambda step, hist, state: ages_seen.append(
                           (step, list(hist.column_ages))))
        for step, ages in ages_seen:
            assert all(age >= step - config.reuse_q for age in ages)

    def test_timings_split(self, short_run):
        _, _, record = short_run
        assert record.flow_seconds > 0
        assert record.solid_seconds > 0
        assert record.coupling_seconds >= 0


class TestEngineFallbacks:
    def test_all_columns_filtered_falls_back_to_relaxation(self, monkeypatch):
        # when filtering removes every column, the engine must flag the event
        # and take a plain relaxation step instead of crashing
        import fsilab.coupling as coupling_mod

        toy = LinearToyModel.stable()
        calls = {"n": 0}
        real_update = coupling_mod.iqn_ils_update

        def flaky_update(hist, r_k, d_tilde_k, eps_fil):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise AllColumnsFilteredError("forced")
            return real_update(hist, r_k, d_tilde_k, eps_fil)

        monkeypatch.setattr(coupling_mod, "iqn_ils_update", flaky_update)
        record = run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12,
                                                    omega0=0.5, accel=AccelKind.IQN_ILS))
        assert record.converged
        assert any(tag == "iqn_all_columns_filtered" for _, _, tag in record.events)


class _ShiftModel:
    """One interface DOF: the flow passes ``d`` through as traction and the
    solid returns ``traction + 1``, so the fixed-point residual is always 1."""

    n_interface = 1
    n_steps = 1

    def initial_state(self):
        return 0

    def initial_displacement(self):
        return InterfaceField(np.zeros(1), FieldRole.DISPLACEMENT)

    def initial_flow_u(self):
        return np.zeros(1)

    def initial_solid_u(self):
        return np.zeros(1)

    def _solver(self, shift, role):
        return SpecSolver(dim=1, assemble_matrix=lambda u: np.eye(1),
                          assemble_rhs=lambda c: c.values + shift,
                          tangent=lambda u: np.eye(1),
                          extract_output=lambda u: InterfaceField(u, role))

    def flow_solver(self, state):
        return self._solver(0.0, FieldRole.TRACTION)

    def solid_solver(self, state):
        return self._solver(1.0, FieldRole.DISPLACEMENT)

    def advance_state(self, state, accepted_displacement, flow_u, solid_u):
        return state + 1


class TestEngineAccelerationModes:
    def test_aitken_on_tube(self):
        params = Tube1DParams(cells=40, steps=5)
        config = CouplingConfig(accel=AccelKind.AITKEN, omega0=0.05)
        record = run_simulation(Tube1DModel(params), config)
        assert record.converged

    def test_constant_increment_is_omega0_times_residual(self):
        config = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5,
                                accel=AccelKind.CONSTANT)
        record = run_simulation(LinearToyModel.stable(n_steps=3), config, increments=True)
        for rec in record.step_records:
            r_norm, _, inc = rec.accepted_norms
            assert inc == config.omega0 * r_norm

    def test_aitken_increment_is_a_clamped_factor_times_residual(self):
        params = Tube1DParams(cells=40, steps=5)
        config = CouplingConfig(accel=AccelKind.AITKEN, omega0=0.05)
        record = run_simulation(Tube1DModel(params), config, increments=True)
        for rec in record.step_records:
            r_norm, _, inc = rec.accepted_norms
            assert r_norm > 0.0
            assert 0.01 <= inc / r_norm <= 2.0
            # the step's own Aitken factor, not omega0
            assert inc != config.omega0 * r_norm

    @pytest.mark.parametrize("accel", list(AccelKind), ids=lambda a: a.value)
    def test_only_iqn_fills_the_history(self, accel):
        # relaxation never reads the secant history, so the loop never fills it
        columns = []
        record = run_simulation(
            LinearToyModel.stable(n_steps=4),
            CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5, accel=accel),
            on_step=lambda step, hist, state: columns.append(hist.n_columns))
        assert record.converged and record.step_records[0].coupling_iters > 2
        if accel is AccelKind.IQN_ILS:
            assert columns[0] > 0
        else:
            assert columns == [0, 0, 0, 0]

    def test_aitken_stagnation_is_a_typed_event(self):
        # a constant residual zeroes the secant denominator from k = 2 on
        with pytest.raises(DivergedStepError) as err:
            run_simulation(_ShiftModel(), CouplingConfig(accel=AccelKind.AITKEN,
                                                         max_coupling_iters_per_step=3))
        events = err.value.partial.events
        assert Event(1, 2, "aitken_stagnation") in events
        assert all(isinstance(e, Event) for e in events)
        assert [(step, k) for step, k, tag in err.value.record.events] == [(1, 2), (1, 3)]

    @pytest.mark.parametrize("accel", [AccelKind.CONSTANT, AccelKind.AITKEN])
    def test_relaxation_aborts_on_an_exact_stall(self, accel):
        # the residual is 1, up to one ulp, at every coupling iteration; the
        # default budget of 200 iterations is not spent
        model = _ShiftModel()
        calls = {"flow": 0, "solid": 0}

        def counted(build, name):
            def counted_build(state):
                solver = build(state)
                load = solver.load

                def counted_load(coupling):
                    b, residual, solve = load(coupling)

                    def counted_residual(u):  # once per inner iteration
                        calls[name] += 1
                        return residual(u)

                    return b, counted_residual, solve

                solver.load = counted_load
                return solver
            return counted_build

        model.flow_solver = counted(model.flow_solver, "flow")
        model.solid_solver = counted(model.solid_solver, "solid")
        with pytest.raises(DivergedStepError, match="residual repeated") as err:
            run_simulation(model, CouplingConfig(accel=accel))
        partial = err.value.partial
        assert 2 <= partial.coupling_iters <= _STALL_WINDOW + 2
        assert (partial.flow_iters, partial.solid_iters) == (calls["flow"], calls["solid"])
        assert partial.flow_iters >= partial.coupling_iters
        assert partial.solid_iters >= partial.coupling_iters
        assert err.value.record.counters.per_step == [
            (1, partial.coupling_iters, partial.flow_iters, partial.solid_iters)]

    def test_iqn_stabilizes_where_constant_diverges(self):
        # boolean property on the unstable linear preset
        from fsilab.errors import DivergedStepError

        toy = LinearToyModel.unstable()
        with pytest.raises(DivergedStepError):
            run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0,
                                               accel=AccelKind.CONSTANT))
        rec = run_simulation(LinearToyModel.unstable(),
                             CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.1,
                                            accel=AccelKind.IQN_ILS))
        assert rec.converged

    def test_diverged_step_carries_partial_record(self, monkeypatch):
        import fsilab.coupling as coupling_mod
        from fsilab.errors import DivergedStepError

        def no_columns(hist, r_k, d_tilde_k, eps_fil):
            raise AllColumnsFilteredError("forced")

        # every IQN update falls back to relaxation with omega0 = 1, which
        # diverges on the unstable preset and flags an event per iteration
        monkeypatch.setattr(coupling_mod, "iqn_ils_update", no_columns)
        toy = LinearToyModel.unstable(n_steps=3)
        with pytest.raises(DivergedStepError) as err:
            run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0,
                                               accel=AccelKind.IQN_ILS))
        record = err.value.record
        assert record is not None
        assert not record.converged
        assert record.failing_step == err.value.step == 1
        assert record.counters.coupling_total > 0

        partial = err.value.partial
        assert not partial.converged and partial.accepted_norms is None
        assert record.counters.per_step[-1] == (partial.step, partial.coupling_iters,
                                                partial.flow_iters, partial.solid_iters)
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)
        # the aborted step's events, an IQN restart among them, reach the run record
        tags = {tag for step, _, tag in partial.events if step == 1}
        assert tags == {"iqn_all_columns_filtered", "iqn_stagnation_restart"}
        assert record.events == partial.events


class TestNonFiniteUpdate:
    def test_non_finite_displacement_aborts_the_step(self, monkeypatch):
        # one inf in the accelerated displacement aborts the step with the
        # typed partial records, not with a bare error from InterfaceField
        import fsilab.coupling as coupling_mod

        real_update, real_call = coupling_mod.iqn_ils_update, coupling_mod.call_solver
        spent = []  # (inner iterations, seconds) of every solver call

        def poisoned(hist, r_k, d_tilde_k, eps_fil):
            d_next, inc = real_update(hist, r_k, d_tilde_k, eps_fil)
            d_next[d_next.size // 2] = np.inf
            return d_next, inc

        def counted(solver_id, spec, inp):
            out = real_call(solver_id, spec, inp)
            spent.append((solver_id.value, out[1].inner_iters, out[1].wall_time))
            return out

        monkeypatch.setattr(coupling_mod, "iqn_ils_update", poisoned)
        monkeypatch.setattr(coupling_mod, "call_solver", counted)
        with pytest.raises(DivergedStepError, match="not finite") as err:
            run_simulation(Tube1DModel(Tube1DParams(cells=20, steps=3)), CouplingConfig())
        partial, record = err.value.partial, err.value.record
        assert isinstance(partial, TimeStepRecord) and not partial.converged
        assert partial.accepted_norms is None
        # step 1 updates by relaxation first: the first IQN update is at k = 2
        assert (err.value.step, partial.step, partial.coupling_iters) == (1, 1, 2)
        assert record.failing_step == 1 and not record.converged and not record.snapshots
        flow = [c for c in spent if c[0] == "flow"]
        solid = [c for c in spent if c[0] == "solid"]
        assert len(flow) == len(solid) == 2
        assert partial.flow_iters == sum(c[1] for c in flow)
        assert partial.solid_iters == sum(c[1] for c in solid)
        assert partial.flow_time == sum(c[2] for c in flow)
        assert partial.solid_time == sum(c[2] for c in solid)
        assert record.counters.per_step == [(1, 2, partial.flow_iters, partial.solid_iters)]
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)


class TestProbeSeam:
    """The engine routes every solver call through ``fsilab.coupling.call_solver``,
    the name the benchmark probe wraps, with three positional arguments."""

    @pytest.mark.parametrize("model, config", [
        (lambda: Tube1DModel(Tube1DParams(cells=30, steps=4)), CouplingConfig()),
        (lambda: LinearToyModel.stable(n_steps=3),
         CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5)),
    ], ids=["tube", "linear_toy"])
    def test_every_call_goes_through_the_module_global(self, monkeypatch, model, config):
        import fsilab.coupling as coupling_mod

        real_call = coupling_mod.call_solver
        seen = {SolverId.FLOW: [], SolverId.SOLID: []}
        roles = {SolverId.FLOW: FieldRole.TRACTION, SolverId.SOLID: FieldRole.DISPLACEMENT}

        def counted(*args):
            assert len(args) == 3 and isinstance(args[2], SolverCallInput)
            out = real_call(*args)
            field, rep, u = out
            assert isinstance(field, InterfaceField) and field.role is roles[args[0]]
            assert isinstance(rep, SolverCallReport) and isinstance(u, np.ndarray)
            seen[args[0]].append(rep.inner_iters)
            return out

        monkeypatch.setattr(coupling_mod, "call_solver", counted)
        record = run_simulation(model(), config)
        c = record.counters
        assert record.converged and c.coupling_total > 0
        assert len(seen[SolverId.FLOW]) == len(seen[SolverId.SOLID]) == c.coupling_total
        assert (sum(seen[SolverId.FLOW]), sum(seen[SolverId.SOLID])) == (c.flow_total,
                                                                        c.solid_total)


class _FailingSolver:
    """Delegates to a linear toy; the named solver's first call fails at
    inner iteration 3 (half Newton steps, then a singular tangent)."""

    def __init__(self, model, solver: str):
        self._model = model
        self._solver = solver

    def __getattr__(self, name):
        return getattr(self._model, name)

    def _failing(self, solver):
        load = solver.load

        def failing_load(coupling):
            b, residual, solve = load(coupling)
            calls = []

            def failing_solve(u, r):
                calls.append(u)
                if len(calls) == 3:
                    raise np.linalg.LinAlgError("singular matrix")
                return 0.5 * solve(u, r)

            return b, residual, failing_solve

        solver.load = failing_load
        return solver

    def flow_solver(self, state):
        solver = self._model.flow_solver(state)
        return self._failing(solver) if self._solver == "flow" else solver

    def solid_solver(self, state):
        solver = self._model.solid_solver(state)
        return self._failing(solver) if self._solver == "solid" else solver


class TestFailedCallAccounting:
    @pytest.mark.parametrize("solver", ["flow", "solid"])
    def test_failed_call_counts_its_iterations_and_seconds(self, solver):
        model = _FailingSolver(LinearToyModel.stable(), solver)
        with pytest.raises(DivergedStepError) as err:
            run_simulation(model, CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5,
                                                 accel=AccelKind.IQN_ILS))
        partial, record = err.value.partial, err.value.record
        assert "singular tangent at inner iteration 3" in str(err.value)
        assert partial.step == 1 and partial.coupling_iters == 1
        if solver == "flow":
            assert (partial.flow_iters, partial.solid_iters) == (3, 0)
            assert partial.flow_time > 0.0 and partial.solid_time == 0.0
        else:
            assert partial.flow_iters > 0 and partial.solid_iters == 3
            assert partial.solid_time > 0.0
        record.counters.check_additivity()
        assert record.counters.per_step == [(1, 1, partial.flow_iters, partial.solid_iters)]
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)
