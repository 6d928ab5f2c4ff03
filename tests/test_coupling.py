import copy
import itertools
import math
import re
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    IqnHistory,
    RunRecord,
    SolverCallInput,
    SolverCallReport,
    SolverId,
    TimeStepRecord,
    aitken_omega,
    call_solver,
    check_convergence,
    deviation_from_reference,
    iqn_ils_update,
    qr_filter,
    run_simulation,
    run_time_step,
)
from fsilab.coupling import _MAX_SECANT_COLUMNS, _STALL_WINDOW, _predict
from fsilab.errors import ContractError, DivergedStepError, DivergenceError, GeometryError
from fsilab.interface import require_positive
from fsilab.models import LinearToyModel, Tube1DModel
from fsilab.models.tube import Tube1DParams
from reference_specs import SpecSolver


def step_counts(record: RunRecord) -> list:
    """``(step, coupling, flow, solid)`` iteration counts of each step record of a run."""
    return [(s.step, s.coupling_iters, s.flow_iters, s.solid_iters) for s in record.steps]


def report(first_residual, iters=1):
    history = tuple([first_residual] + [first_residual / 10**i for i in range(1, iters)])
    return SolverCallReport(residual_history=history)


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


def exact_increment(v: np.ndarray, w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``W alpha`` for the ``alpha`` that minimizes ``||V alpha + r||_2``, V of full
    column rank, exact in rational arithmetic and rounded once per entry.

    The normal equations ``V^T V alpha = -V^T r`` are scaled to integers (every
    float is an integer over a power of two) and reduced by fraction-free
    (Bareiss) elimination, whose divisions are exact."""
    a = np.column_stack([v, -r])
    scale = max(Fraction(x).denominator for x in a.flat)
    cols = [[int(Fraction(x) * scale) for x in col] for col in a.T.tolist()]
    k = v.shape[1]
    gram = [[sum(p * q for p, q in zip(cols[i], cols[j])) for j in range(k + 1)]
            for i in range(k)]
    prev = 1
    for c in range(k):  # V^T V is positive definite, so no pivot is zero
        for i in range(c + 1, k):
            gram[i] = [(gram[c][c] * gram[i][j] - gram[i][c] * gram[c][j]) // prev
                       for j in range(k + 1)]
        prev = gram[c][c]
    alpha = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        alpha[i] = Fraction(gram[i][k] - sum(gram[i][j] * alpha[j] for j in range(i + 1, k)),
                            gram[i][i])
    return np.array([float(sum(Fraction(x) * a_j for x, a_j in zip(row, alpha)))
                     for row in w.tolist()])


def filter_columns(n: int, eps_fil: float, seed: int, kinds: list, decades: list,
                   zero_rows) -> tuple:
    """``(V, eps_fil)``: one column of length ``n`` for each of ``kinds``, random,
    duplicated, scaled, zero or near-dependent, drawn from
    ``np.random.default_rng(seed)``, with the rows ``zero_rows`` zero in every
    column. A near-dependent column is an earlier one plus a perturbation the
    next of ``decades`` decades above or below ``eps_fil``."""
    rng = np.random.default_rng(seed)
    decades = iter(decades)
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
                u = rng.standard_normal(n)
                delta = min(eps_fil * 10.0 ** next(decades), 0.1)
                cols.append(base + delta * np.linalg.norm(base) * u / np.linalg.norm(u))
    v = np.column_stack(cols) if cols else np.zeros((n, 0))
    v[sorted(zero_rows)] = 0.0
    return v, eps_fil


@st.composite
def filter_inputs(draw):
    """:func:`filter_columns` of drawn arguments: up to 30 columns of up to 40
    rows, at most half the rows zero, and each near-dependent column's
    perturbation at least two decades above or below ``eps_fil``."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 30))
    eps_fil = 10.0 ** draw(st.integers(-12, -4))
    seed = draw(st.integers(0, 2**32 - 1))
    kinds = draw(st.lists(st.sampled_from(["random", "duplicate", "scaled", "zero", "near"]),
                          min_size=m, max_size=m))
    decades = draw(st.lists(st.sampled_from([-4, -3, -2, 2, 3]), min_size=m, max_size=m))
    return filter_columns(n, eps_fil, seed, kinds, decades,
                          draw(st.sets(st.integers(0, n - 1), max_size=n // 2)))


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

    @pytest.mark.parametrize("eps_fil", [1.0, 10.0])
    def test_newest_nonzero_column_always_kept(self, eps_fil):
        # its orthogonal component is its whole norm, so it is kept untested;
        # at a threshold of 1 round-off used to drop it, and above 1 always
        a = np.array([1.35, 0.78, 0.26])
        v = np.column_stack([np.zeros(3), a, a[::-1]])
        assert qr_filter(v, eps_fil) == [1]

    def test_more_columns_than_rows(self):
        # three pairwise independent columns in R^2: the third is dependent
        v = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert qr_filter(v, 1e-12) == [0, 1]

    def test_more_columns_than_the_history_keeps(self):
        # the filter has no column cap of its own: 30 independent columns stay
        v = np.random.default_rng(0).standard_normal((40, 30))
        assert qr_filter(v, 1e-12) == list(range(30))

    def test_wide_with_scaled_copies_matches_gram_schmidt(self):
        # every fifth column is a scaled copy of an earlier one; 32 of 40 stay
        v = np.random.default_rng(1).standard_normal((40, 40))
        v[:, 4::5] = -3.0 * v[:, 2::5]
        keep = qr_filter(v, 1e-12)
        assert keep == gram_schmidt_filter(v, 1e-12)
        assert len(keep) == 32

    def test_nonpositive_eps_rejected(self):
        # True used to act as eps_fil = 1.0, and a str escaped as a TypeError
        for eps_fil in (0.0, -1e-12, math.nan, math.inf, True, "1e-12"):
            with pytest.raises(ContractError, match=f"^eps_fil must be positive and finite, "
                                                    f"got {eps_fil!r}$"):
                qr_filter(np.eye(2), eps_fil)
        # a NaN threshold compared false everywhere and kept both duplicates
        with pytest.raises(ContractError, match="got nan"):
            qr_filter(np.ones((3, 2)), math.nan)
        hist = IqnHistory(q=1)
        hist.append(np.array([1.0, 0.0]), np.array([0.5, 0.5]), age=1)
        for eps_fil in (0.0, math.nan, math.inf, True, "1e-12"):
            for r in (np.ones(2), np.zeros(2)):
                with pytest.raises(ContractError, match="positive and finite"):
                    iqn_ils_update(hist, r, np.zeros(2), eps_fil)

    @pytest.mark.parametrize("v", [np.ones(3), np.float64(1.0), np.ones((2, 2, 2))],
                             ids=["vector", "scalar", "3-d"])
    def test_v_must_be_a_matrix(self, v):
        # the filter reads V's columns, so anything but a matrix is refused by name
        with pytest.raises(ContractError, match=re.escape(
                f"V must be a matrix, got shape {np.shape(v)}")):
            qr_filter(v, 1e-12)

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


class TestUpdateKeepsWhatTheFilterKeeps:
    """The update's filter on ``[V | rhs]`` with the norms the history stored
    keeps exactly the columns :func:`qr_filter` keeps of V: the decision
    ignores the last column, and both paths sum the norms alike. No decision
    may sit within a decade of ``eps_fil``, where round-off could flip it."""

    @staticmethod
    def same_keep(hist: IqnHistory, eps_fil: float, rng) -> bool | None:
        """Whether the update's filter keeps what :func:`qr_filter` keeps, for
        random right-hand sides and a zero one; None when a decision is
        within a decade of ``eps_fil``."""
        import fsilab.coupling as coupling_mod

        v = hist.matrices()[0]
        keep = qr_filter(v, eps_fil)
        if not all(r < 0.1 * eps_fil or r > 10.0 * eps_fil for r in orthogonal_ratios(v, keep)):
            return None
        n = v.shape[0]
        rhs = [rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) for _ in range(3)]
        return all(coupling_mod._qr1(v, eps_fil, b, hist.norms())[0].tolist() == keep
                   for b in rhs + [np.zeros(n)])

    @settings(max_examples=300, deadline=None)
    @given(filter_inputs(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_histories_built_by_appends(self, inputs, clamped, seed):
        v, eps_fil = inputs
        n, m = v.shape
        if clamped and n > 2:  # zero first and last rows, as the tube's clamped ends
            v[[0, -1]] = 0.0
        rng = np.random.default_rng(seed)
        hist = IqnHistory(q=0)
        for j in range(m - 1, -1, -1):  # oldest first, so column 0 ends up newest
            hist.append(v[:, j], rng.standard_normal(n), age=1)
        assume(not hist.is_empty)
        same = self.same_keep(hist, eps_fil, rng)
        assume(same is not None)
        assert same

    @pytest.mark.parametrize("n, m", [(6, 1), (30, 40)], ids=["one-column", "many-columns"])
    def test_clamped_ends(self, n, m):
        # every fifth column repeats a scaled earlier one, so the filter drops
        # it; 40 appends to a 24-column history move its window
        rng = np.random.default_rng(m)
        hist = IqnHistory(q=0)
        cols = []
        for j in range(m):
            col = np.zeros(n)
            col[1:-1] = rng.standard_normal(n - 2) if j % 5 != 4 else -3.0 * cols[j - 2][1:-1]
            cols.append(col)
            hist.append(col, rng.standard_normal(n), age=1)
        assert hist.matrices()[0].shape[1] == min(m, _MAX_SECANT_COLUMNS)
        assert self.same_keep(hist, 1e-12, rng) is True
        if m > 1:
            assert len(qr_filter(hist.matrices()[0], 1e-12)) < _MAX_SECANT_COLUMNS


def _history(v: np.ndarray, w: np.ndarray) -> IqnHistory:
    """A history holding exactly the columns of ``v`` and ``w``, zero ones too,
    with the column norms an append stores."""
    hist = IqnHistory(q=0)
    hist._buf = np.vstack([v, w, np.linalg.norm(v, axis=0)])
    hist._ages, hist._start = [1] * v.shape[1], 0
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

    def test_residual_length_must_match_the_history(self):
        hist = IqnHistory(q=1)
        hist.append(np.ones(2), np.ones(2), age=1)
        with pytest.raises(ContractError, match="^history column length does not match "
                                                "residual length$"):
            iqn_ils_update(hist, np.ones(3), np.zeros(3), 1e-12)

    @pytest.mark.parametrize("r, d_tilde", [
        (np.ones(2), np.zeros(1)), (np.ones(2), 5.0), (np.ones((2, 1)), np.zeros(2)),
        (np.ones((2, 1)), np.zeros((2, 1))), (np.zeros(2), np.zeros(3)),
    ], ids=["short-d-tilde", "scalar-d-tilde", "column-residual", "column-pair",
            "zero-residual-short-d-tilde"])
    def test_residual_and_d_tilde_must_be_vectors_of_one_shape(self, r, d_tilde):
        # numpy would broadcast a short or scalar d_tilde into a wrong update;
        # the shapes are checked before a zero residual returns d_tilde
        hist = IqnHistory(q=1)
        hist.append(np.array([1.0, 0.0]), np.array([1.0, 2.0]), age=1)
        hist.append(np.array([0.0, 1.0]), np.array([3.0, 1.0]), age=1)
        with pytest.raises(ContractError, match=re.escape(
                f"residual {np.shape(r)} and d_tilde {np.shape(d_tilde)} must be vectors "
                "of one shape")):
            iqn_ils_update(hist, r, d_tilde, 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(filter_inputs(), st.integers(0, 2**32 - 1))
    @example(inputs=filter_columns(
        10, 1e-8, 6654190, ["duplicate", "scaled", "near", "scaled", "duplicate", "random",
                            "near", "duplicate", "duplicate", "duplicate", "duplicate"],
        [3, -3], [0, 1, 8]), seed=1731529695)
    @example(inputs=filter_columns(
        34, 1e-8, 4236101176, ["scaled", "near", "duplicate", "random", "near", "near", "zero",
                               "random"],
        [-2, 3, -4], [3, 4, 5, 10, 13, 15, 16, 19, 23, 25, 29, 32]), seed=3376076026)
    def test_matches_filtered_lstsq_reference(self, inputs, seed):
        # the residual has entries on rows that are zero in every column of V,
        # and V may have more columns than rows. The examples' kept columns
        # have condition numbers 7.3e5 and 2.1e5, and the update is 1.1e-9 and
        # 4.0e-8 off the exact increment, relative
        v, eps_fil = inputs
        assume(v.shape[1] > 0)  # an empty history is the caller's problem
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(v.shape)
        r = rng.standard_normal(v.shape[0]) * 10.0 ** rng.uniform(-3, 3)
        d_tilde = rng.standard_normal(v.shape[0])
        keep = gram_schmidt_filter(v, eps_fil)
        assume(all(q < 0.1 * eps_fil or q > 10.0 * eps_fil
                   for q in orthogonal_ratios(v, keep)))
        assume(keep)  # a history of zero columns only, which no append builds
        # a backward-stable least-squares solve, as the update's Householder QR
        # is, errs in alpha by up to a small multiple of eps * cond^2 * ||r|| /
        # ||V|| (Wedin's bound, 2-norms and cond of the kept columns), and so
        # in W alpha by that times ||W||. Over 36000 random draws the error
        # reached 2.7 times that, and the examples 0.12 and 0.004; an alpha
        # perturbed by 1e-6 relative fails almost every draw. The bound needs
        # eps * cond << 1
        v_keep, w_keep = v[:, keep], w[:, keep]
        cond = np.linalg.cond(v_keep)
        assume(cond < 1e6)
        eps = np.finfo(float).eps
        tol = (30.0 * eps * cond**2 * np.linalg.norm(w_keep, 2) * np.linalg.norm(r)
               / np.linalg.norm(v_keep, 2))
        delta = exact_increment(v_keep, w_keep, r)
        expected = d_tilde + delta
        d_next, _ = iqn_ils_update(_history(v, w), r, d_tilde, eps_fil)
        # adding d_tilde rounds once more
        assert np.linalg.norm(d_next - expected) <= tol + 2.0 * eps * np.linalg.norm(expected)
        # the increment alone, which d_tilde could swamp above
        delta_next, inc = iqn_ils_update(_history(v, w), r, np.zeros_like(r), eps_fil)
        assert np.linalg.norm(delta_next - delta) <= tol
        assert abs(inc - np.linalg.norm(delta)) <= tol + 4.0 * eps * np.linalg.norm(delta)


def reference_qr1(v_matrix: np.ndarray, eps_fil: float, rhs: np.ndarray | None = None):
    """The fused filter and fit's previous implementation, kept as the bitwise
    oracle of the update; a singular solve, which no kept set reaches, raises
    numpy's own error."""
    require_positive(eps_fil, "eps_fil")
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
        return cand[:n_keep], np.linalg.solve(r_tri, h[-1, :n_keep])
    return cand, None


def reference_iqn_ils_update(hist: IqnHistory, r_k, d_tilde_k, eps_fil: float):
    """The update's previous implementation, kept as its bitwise oracle, which
    reads ``hist`` and leaves it as it was; it asserts the kept column that a
    history built by appends always has. Returns ``(d_next, increment_norm,
    keep)``, ``keep`` the window positions its filter kept, or None when it
    fitted nothing."""
    r = np.asarray(r_k, dtype=float)
    d_tilde = np.asarray(d_tilde_k, dtype=float)
    require_positive(eps_fil, "eps_fil")
    if np.linalg.norm(r) == 0.0:
        return d_tilde.copy(), 0.0, None
    if hist.is_empty:
        raise ContractError("empty quasi-Newton history; caller must fall back to relaxation")
    v, w = hist.matrices()
    if v.shape[0] != r.size:
        raise ContractError("history column length does not match residual length")
    keep, alpha = reference_qr1(v, eps_fil, -r)
    assert keep.size, "filtering removed all quasi-Newton columns"
    if keep.size < w.shape[1]:  # else no column was dropped: W stays a view
        # gathered row-major, as the history's window is laid out: numpy
        # gathers w[:, keep] column-major, and BLAS sums that product in
        # another order, one ulp off on some entries
        w = np.ascontiguousarray(w[:, keep])
    delta = w @ alpha
    return d_tilde + delta, float(np.linalg.norm(delta)), keep


def _same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _both_updates(hist: IqnHistory, r, d_tilde, eps_fil: float):
    """``(update, reference)`` outcomes: a result pair or the exception type.

    The reference runs first, on the history the update then finds. The
    update must leave in ``hist`` exactly the columns of that history which
    the reference's filter kept, all of them when it fitted nothing or
    raised: V, W and the stored norms bit for bit, and the ages with them."""
    v, w = (m.copy() for m in hist.matrices())
    norms, ages = hist.norms().copy(), list(hist._ages)
    outcomes = []
    for update in (reference_iqn_ils_update, iqn_ils_update):
        try:
            outcomes.append(update(hist, r, d_tilde, eps_fil))
        except ContractError as exc:
            outcomes.append(type(exc))
    ref, got = outcomes
    keep = np.arange(len(ages)) if isinstance(ref, type) or ref[2] is None else ref[2]
    v_after, w_after = hist.matrices()
    assert _same_bits(v_after, v[:, keep]) and _same_bits(w_after, w[:, keep])
    assert _same_bits(hist.norms(), norms[keep]) and hist._ages == [ages[i] for i in keep]
    return got, ref if isinstance(ref, type) else ref[:2]


def _assert_bitwise_same(got, ref) -> None:
    if isinstance(ref, type):
        assert got is ref
    else:
        assert np.array_equal(got[0], ref[0]) and got[0].dtype == ref[0].dtype
        assert got[1] == ref[1] and type(got[1]) is float


class TestIqnUpdateIsBitwiseTheReference:
    @settings(max_examples=300, deadline=None)
    @given(filter_inputs(), st.integers(0, 2**32 - 1))
    def test_histories_built_by_appends(self, inputs, seed):
        # the columns enter through IqnHistory, so V and W are windows of its
        # buffers (of as many columns as V has rows), at every offset the
        # appends and evictions leave them at; duplicated and near-dependent
        # columns make the filter drop some, and V has rows that are zero in
        # every column
        v, eps_fil = inputs
        n, m = v.shape
        rng = np.random.default_rng(seed)
        hist = IqnHistory(q=2)
        ages = np.sort(rng.integers(1, 6, size=m))[::-1]  # column 0 is of the newest step
        for j in range(m - 1, -1, -1):  # oldest first, so column 0 ends up newest
            if j % 7 == 3:
                hist.start_step(int(ages[j]))
            hist.append(v[:, j], rng.standard_normal(n), age=int(ages[j]))
        r = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        d_tilde = rng.standard_normal(n)
        # each residual meets the history as the appends left it, so the
        # update's drops are checked against the reference's every time
        for residual in (r, np.where(v.any(axis=1), 0.0, r), np.zeros(n)):
            _assert_bitwise_same(*_both_updates(copy.deepcopy(hist), residual, d_tilde, eps_fil))

    def test_tube_shaped_history(self):
        # the shape of every benchmark update: 101 rows, of which the first
        # and the last (the clamped ends) are zero in every column, and 40
        # appends over three steps that fill the 24-column window, drop its
        # oldest column and evict a step's columns by age; every sixth column
        # repeats a scaled earlier one, so the update after its append drops
        # it from the history, which then holds no dependent column
        n = 101
        rng = np.random.default_rng(11)
        hist = IqnHistory(q=1)
        ages = [1] * 30 + [2] * 5 + [3] * 5
        widths, narrowed, cols = [], [], []
        for i, age in enumerate(ages):
            if i == 0 or age != ages[i - 1]:
                hist.start_step(age)  # step 3 evicts the columns of step 1
            col = np.zeros(n)
            if i % 6 == 5:
                col[1:-1] = -3.0 * cols[-2][1:-1]
            else:
                col[1:-1] = rng.standard_normal(n - 2) * 10.0 ** rng.uniform(-3, 3)
            cols.append(col)
            hist.append(col, rng.standard_normal(n), age=age)
            widths.append(hist.matrices()[0].shape[1])
            assert hist.matrices()[0].any(axis=1).nonzero()[0].tolist() == list(range(1, n - 1))
            r = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            _assert_bitwise_same(*_both_updates(hist, r, rng.standard_normal(n), 1e-12))
            v = hist.matrices()[0]
            narrowed.append(widths[-1] - v.shape[1])
            assert len(qr_filter(v, 1e-12)) == v.shape[1]
        assert narrowed == [int(i % 6 == 5) for i in range(len(ages))]
        assert max(widths) == _MAX_SECANT_COLUMNS and widths[35:] == [6, 6, 7, 8, 9]

    def test_eviction_leaves_rows_with_a_gap(self):
        # the only column that touches an interior row is evicted by
        # start_step: the rows the update factors shrink from one block to an
        # index array with a gap, which the filter finds afresh in V
        n = 8
        rng = np.random.default_rng(4)
        hist = IqnHistory(q=1)
        old = np.zeros(n)
        old[1:-1] = rng.standard_normal(n - 2)  # the only column on row 4
        hist.append(old, rng.standard_normal(n), age=1)
        for _ in range(3):
            new = np.zeros(n)
            new[[1, 2, 3, 5, 6]] = rng.standard_normal(5)
            hist.append(new, rng.standard_normal(n), age=2)
        r, d_tilde = rng.standard_normal(n), rng.standard_normal(n)
        _assert_bitwise_same(*_both_updates(hist, r, d_tilde, 1e-12))
        hist.start_step(3)
        assert hist.matrices()[0].any(axis=1).nonzero()[0].tolist() == [1, 2, 3, 5, 6]
        _assert_bitwise_same(*_both_updates(hist, r, d_tilde, 1e-12))

    def test_dropped_column_leaves_the_history(self, monkeypatch):
        # an update that equals the reference bit for bit drops a duplicate
        # column, which with its W column, norm and age is then gone from the
        # history: the next update factors the reduced V once and equals the
        # reference again
        import fsilab.coupling as coupling_mod

        rng = np.random.default_rng(3)
        hist = IqnHistory(q=1)
        cols = rng.standard_normal((9, 4))
        for j, age in ((3, 1), (2, 1), (1, 2), (0, 2)):
            hist.append(cols[:, j], rng.standard_normal(9), age=age)
        hist.append(cols[:, 1], rng.standard_normal(9), age=2)  # repeats window column 2
        v = hist.matrices()[0].copy()
        assert qr_filter(v, 1e-12) == [0, 1, 3, 4]
        r, d_tilde = rng.standard_normal(9), rng.standard_normal(9)
        _assert_bitwise_same(*_both_updates(hist, r, d_tilde, 1e-12))
        assert _same_bits(hist.matrices()[0], v[:, [0, 1, 3, 4]])

        factorisations = []  # the columns of V each geqrf pass factors
        qr_r_raw = coupling_mod.qr_r_raw

        def counted(a, **kwargs):
            factorisations.append(a.shape[1] - 1)
            return qr_r_raw(a, **kwargs)

        monkeypatch.setattr(coupling_mod, "qr_r_raw", counted)
        r, d_tilde = rng.standard_normal(9), rng.standard_normal(9)
        _assert_bitwise_same(*_both_updates(hist, r, d_tilde, 1e-12))
        assert factorisations == [4]  # one pass, over the 4 kept columns
        hist.start_step(3)  # the ages moved with their columns: step 1's two go
        assert hist.matrices()[0].tobytes() == v[:, [0, 1]].tobytes()

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


def gmres_residuals(a: np.ndarray, b: np.ndarray, steps: int) -> list:
    """Residual vectors ``b - a x_j`` of GMRES from ``x_0 = 0``, for j = 1, 2, ...,
    up to ``steps`` or an exact solve: Arnoldi with modified Gram-Schmidt, each
    new vector orthogonalised twice, and ``x_j`` from the small least-squares
    problem on the Hessenberg matrix."""
    beta = math.sqrt(b @ b)
    q = np.zeros((b.size, steps + 1))
    h = np.zeros((steps + 1, steps))
    q[:, 0] = b / beta
    residuals = []
    for j in range(steps):
        w = a @ q[:, j]
        for _ in range(2):
            for i in range(j + 1):
                c = q[:, i] @ w
                h[i, j] += c
                w -= c * q[:, i]
        h[j + 1, j] = math.sqrt(w @ w)
        e1 = np.zeros(j + 2)
        e1[0] = beta
        y = np.linalg.lstsq(h[: j + 2, : j + 1], e1, rcond=None)[0]
        residuals.append(b - a @ (q[:, : j + 1] @ y))
        if h[j + 1, j] <= 1e-14 * beta:  # the Krylov space holds the solution
            break
        q[:, j + 1] = w / h[j + 1, j]
    return residuals


class TestIqnIlsIsGmresOnTheLinearToy:
    """IQN-ILS without reuse on an affine interface map ``H(d) = G d + c`` is
    GMRES on ``(I - G) d = c`` from ``d = 0`` (Haelterman et al., SIAM J.
    Numer. Anal. 47(3), 2009): the update's ``x_k`` minimises ``||H(x) - x||``
    over the span of the iterates so far, and the next iterate is ``H(x_k)``,
    so ``r_{k+1} = G rho_{k-1}`` for k >= 2, with ``rho_j`` the GMRES residual
    after j iterations. Errors are taken relative to ``||r_k||``, the residual
    the update starts from: the engine's own round-off, about 1e-14
    ``||r_1||`` at every iteration, is up to 1e-5 of ``||r_{k+1}||`` by the
    time ``||r_{k+1}||`` falls to 1e-9 ``||r_1||``."""

    @staticmethod
    def errors(monkeypatch, n, strength, eps_fil=1e-12):
        """``{k + 1: ||r_{k+1} - G rho_{k-1}|| / ||r_k||}`` for k >= 2, the
        norms ``||r_k|| / ||r_1||`` and the columns each update dropped, from
        one step of ``run_time_step`` read through wrappers."""
        import fsilab.coupling as coupling_mod

        model = LinearToyModel(n, n, coupling_strength=strength)
        config = CouplingConfig(reuse_q=0, criterion=CriterionKind.FIXED_POINT_NORM,
                                eps_c=1e-13, eps_fil=eps_fil)
        residuals, dropped = [], []  # r_1, r_2, ...; per update from k = 2 on
        flow_inputs = []
        real_call, real_qr1 = coupling_mod.call_solver, coupling_mod._qr1

        def recording_call(solver_id, solver, inp):
            # each residual is the solid's output minus the flow's input
            out = real_call(solver_id, solver, inp)
            if solver_id is SolverId.FLOW:
                flow_inputs.append(inp.coupling_data)
            else:
                residuals.append(out[0] - flow_inputs[-1])
            return out

        def recording_qr1(v, *args):
            keep, alpha = real_qr1(v, *args)
            dropped.append(v.shape[1] - keep.size)
            return keep, alpha

        monkeypatch.setattr(coupling_mod, "call_solver", recording_call)
        monkeypatch.setattr(coupling_mod, "_qr1", recording_qr1)
        rec = run_time_step(model, config, model.initial_state(), IqnHistory(q=0), 1,
                            np.zeros(n), None, None)[0]
        assert rec.converged
        g = np.linalg.solve(model.A_s, model.B_s) @ np.linalg.solve(model.A_f, model.B_f)
        rho = gmres_residuals(np.eye(n) - g, residuals[0], len(residuals))
        norms = [np.linalg.norm(r) / np.linalg.norm(residuals[0]) for r in residuals]
        errors = {k + 1: np.linalg.norm(residuals[k] - g @ rho[k - 2])
                  / np.linalg.norm(residuals[k - 1])
                  for k in range(2, min(len(residuals), len(rho) + 2))}
        return errors, norms, dropped

    @pytest.mark.parametrize("strength", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("n", [8, 20, 24, 40])
    def test_residuals_are_gmres_residuals_mapped_by_g(self, monkeypatch, n, strength):
        # until ||r_{k+1}|| < 1e-9 ||r_1||; every case converges before the
        # 24-column cap acts, and no column is filtered
        errors, norms, dropped = self.errors(monkeypatch, n, strength)
        checked = [k for k in errors if norms[k - 1] >= 1e-9]
        assert len(checked) >= 5 and not any(dropped)
        for k in checked:
            assert errors[k] <= 2e-6, (k, errors[k])

    def test_the_column_cap_breaks_the_identity(self, monkeypatch):
        # a toy that needs 39 coupling iterations: the update at k = 26 has 25
        # secant pairs and keeps 24, so r_27 is the first residual off the
        # identity, by more than r_26 itself; before it the identity holds to
        # round-off, with ||r_26|| at 6e-10 ||r_1||
        errors, norms, dropped = self.errors(monkeypatch, 40, 50.0)
        assert len(norms) == 39 and not any(dropped)
        assert max(errors[k] for k in range(3, 27)) < 1e-3
        assert errors[27] > 1.0

    @pytest.mark.parametrize("strength", [0.5, 2.0, 20.0])
    @pytest.mark.parametrize("n", [8, 20, 40])
    def test_a_large_eps_fil_breaks_the_identity_where_it_drops(self, monkeypatch, n,
                                                                strength):
        # eps_fil = 1e-3 drops a column in the update at some k between 7 and
        # 11; the residuals up to r_k keep the identity, and r_{k+1} misses it
        # by 9% to 5x of ||r_k||
        errors, norms, dropped = self.errors(monkeypatch, n, strength, eps_fil=1e-3)
        first = next(i for i, d in enumerate(dropped) if d) + 2  # updates start at k = 2
        assert all(errors[k] <= 2e-6 for k in range(3, first + 1))
        assert errors[first + 1] > 1e-2


def assert_norms_of(hist: IqnHistory, v: np.ndarray) -> None:
    """The history's stored column norms are those of ``v`` to a few ulp."""
    np.testing.assert_allclose(hist.norms(), np.linalg.norm(v, axis=0),
                               rtol=4 * np.finfo(float).eps, atol=0.0)


class ListIqnHistory:
    """The history's previous implementation, kept as the oracle: a Python
    list of ``(age, residual_diff, output_diff)`` tuples, newest first, and at
    most as many as a column has entries, up to ``_MAX_SECANT_COLUMNS``."""

    def __init__(self, q: int):
        if q < 0:
            raise ContractError(f"reuse depth q must be an integer >= 0, got {q!r}")
        self.q = q
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
        del self._cols[min(dr.size, _MAX_SECANT_COLUMNS) :]  # oldest columns beyond the cap

    def start_step(self, step: int) -> None:
        self._cols = [c for c in self._cols if c[0] >= step - self.q]

    def retain(self, keep) -> None:
        self._cols = [self._cols[i] for i in keep]

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
    """A row count, which sets the column cap, and a random sequence of history
    operations; appends carry random, sparse, zero or wrong-length pairs and
    non-decreasing ages, a step starts at or up to four steps past the
    latest age, and a retain keeps the window positions its mask marks. A
    sparse residual difference is zero in about half its rows."""
    n = draw(st.sampled_from([1, 2, 3, 5, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    age = draw(st.integers(0, 3))
    for kind in draw(st.lists(st.sampled_from(["append"] * 4 + ["sparse"] * 2
                                              + ["zero", "resize", "start", "retain"]),
                              max_size=60)):
        if kind == "start":
            ops.append(("start", age + draw(st.integers(0, 4))))
        elif kind == "retain":
            ops.append(("retain", rng.random(n + 1) < 0.7))  # a resized history has n + 1 rows
        else:
            size = n + 1 if kind == "resize" else n
            dr = np.zeros(size) if kind == "zero" else rng.standard_normal(size)
            if kind == "sparse":
                dr[rng.random(size) < 0.5] = 0.0
            age += draw(st.integers(0, 2))
            ops.append(("append", dr, rng.standard_normal(size), age))
    return draw(st.integers(0, 3)), ops


class TestIqnHistory:
    @settings(max_examples=200, deadline=None)
    @given(inputs=history_ops())
    def test_buffers_match_list_oracle(self, inputs):
        q, ops = inputs
        hist, oracle = IqnHistory(q), ListIqnHistory(q)
        for op in ops:
            outcomes = []
            for h in (hist, oracle):
                try:
                    if op[0] == "append":
                        h.append(op[1], op[2], age=op[3])
                    elif op[0] == "start":
                        h.start_step(op[1])
                    else:
                        h.retain([i for i in range(len(oracle.column_ages)) if op[1][i]])
                    outcomes.append(None)
                except ContractError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert hist.is_empty == oracle.is_empty
            if not oracle.is_empty:
                for got, ref in zip(hist.matrices(), oracle.matrices()):
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                assert_norms_of(hist, oracle.matrices()[0])

    @pytest.mark.parametrize("cap", [1, 2, 3, 24])
    def test_window_wraps_like_the_list_oracle(self, cap):
        # enough appends to move the window back to the right half of the
        # buffers several times, with evictions in between; columns of
        # length cap keep at most cap of them
        rng = np.random.default_rng(cap)
        hist, oracle = IqnHistory(2), ListIqnHistory(2)
        for i in range(5 * cap + 3):
            dr, dw = rng.standard_normal(cap), rng.standard_normal(cap)
            for h in (hist, oracle):
                if i % 5 == 4:
                    h.start_step(i // 3)
                h.append(dr, dw, age=i // 3)
            for got, ref in zip(hist.matrices(), oracle.matrices()):
                assert got.tobytes() == ref.tobytes()

    def test_stored_norms_follow_their_columns(self):
        # each column's norm is computed at its append and moves, truncates
        # and shrinks with its column: after appends, window moves, drops from
        # a full window, start_step eviction and retain, the stored norms are
        # V's column norms; columns of length 5 keep 5 of them
        rng = np.random.default_rng(8)
        hist = IqnHistory(q=1)
        shapes = []
        for step in range(1, 9):
            hist.start_step(step)
            if step == 6:
                hist.retain([1])
            for _ in range(step % 4 + 1):
                scale = 10.0 ** rng.uniform(-150, 150, size=5)
                hist.append(rng.standard_normal(5) * scale, rng.standard_normal(5), age=step)
                assert_norms_of(hist, hist.matrices()[0])
            if not hist.is_empty:
                assert_norms_of(hist, hist.matrices()[0])
            shapes.append(hist.norms().size)
        assert shapes == [2, 5, 5, 5, 3, 4, 5, 5]  # 20 appends: the window moved twice
        hist.start_step(10)
        assert hist.norms().size == 0

    def test_negative_reuse_depth_rejected(self):
        with pytest.raises(ContractError, match="^reuse depth q must be an integer >= 0, "
                                                "got -1$"):
            IqnHistory(q=-1)

    @pytest.mark.parametrize("q", [1.5, 2.0, True, "2"])
    def test_non_integer_reuse_depth_rejected(self, q):
        # CouplingConfig rejects these for reuse_q; the exported class must too
        message = f"reuse depth q must be an integer >= 0, got {q!r}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            IqnHistory(q=q)

    def test_pair_of_unequal_lengths_rejected(self):
        with pytest.raises(ContractError, match="^column pair must be two equal-length "
                                                "vectors$"):
            IqnHistory(q=1).append(np.ones(2), np.ones(3), age=1)

    @pytest.mark.parametrize("scale", [0.0, 1e-200])
    def test_pair_of_zero_norm_skipped(self, scale):
        # an all-zero residual difference, or one whose squares underflow to
        # a zero norm, carries no secant information the filter could keep
        hist = IqnHistory(q=1)
        hist.append(scale * np.ones(4), np.ones(4), age=1)
        assert hist.is_empty

    def test_eviction_by_age(self):
        hist = IqnHistory(q=2)
        for age in (1, 2, 3, 4):
            hist.append(np.full(4, float(age)), np.ones(4), age=age)
        hist.start_step(5)
        v, _ = hist.matrices()
        assert v[0].tolist() == [4.0, 3.0]  # the columns of steps 1 and 2 are gone

    def test_q_zero_keeps_only_current_step(self):
        hist = IqnHistory(q=0)
        hist.append(np.array([1.0]), np.array([1.0]), age=1)
        hist.start_step(2)
        assert hist.is_empty

    def test_column_cap_drops_oldest(self):
        # columns of length 3 keep at most 3 of them
        hist = IqnHistory(q=10)
        for i in range(5):
            hist.append(np.full(3, 1.0 + i), np.ones(3), age=1)
        v, _ = hist.matrices()
        assert v[0].tolist() == [5.0, 4.0, 3.0]  # newest first

    def test_cap_is_the_column_length_up_to_the_constant(self):
        rng = np.random.default_rng(2)
        for n, cap in ((7, 7), (_MAX_SECANT_COLUMNS, _MAX_SECANT_COLUMNS),
                       (40, _MAX_SECANT_COLUMNS)):
            hist = IqnHistory(q=1)
            for _ in range(cap + 5):
                hist.append(rng.standard_normal(n), rng.standard_normal(n), age=1)
            assert hist.matrices()[0].shape == (n, cap)

    def test_older_column_rejected(self):
        # ages never increase along the window, so eviction only truncates it
        hist = IqnHistory(q=2)
        hist.append(np.array([1.0, 0.0]), np.array([1.0, 1.0]), age=3)
        hist.append(np.array([0.0, 1.0]), np.array([2.0, 2.0]), age=4)
        before = [m.tobytes() for m in hist.matrices()]
        with pytest.raises(ContractError, match="^column of step 3 is older than the newest "
                                                "stored column, of step 4$"):
            hist.append(np.ones(2), np.ones(2), age=3)
        assert [m.tobytes() for m in hist.matrices()] == before
        hist.append(np.ones(2), np.ones(2), age=4)  # the newest step's own columns pass
        hist.start_step(7)
        hist.append(np.ones(2), np.ones(2), age=1)  # and an emptied history takes any
        assert hist.matrices()[0].tolist() == [[1.0], [1.0]]


class TestAitken:
    def test_hand_secant_value(self):
        omega = aitken_omega(np.array([0.5]), np.array([1.0]), 0.5)
        assert type(omega) is float and omega == pytest.approx(1.0)

    def test_repeated_residual_keeps_omega(self):
        # a zero secant denominator; the loop's stall rule counts the repeat
        assert aitken_omega(np.array([1.0]), np.array([1.0]), 0.37) == 0.37

    def test_oscillating_residual_halves_omega(self):
        assert aitken_omega(np.array([-1.0]), np.array([1.0]), 1.0) == pytest.approx(0.5)

    def test_clamped(self):
        assert aitken_omega(np.array([0.999]), np.array([1.0]), 1.0) == 2.0
        assert aitken_omega(np.array([-1000.0]), np.array([1.0]), 1.0) == 0.01

    @pytest.mark.parametrize("r_k, r_km1", [
        (np.ones(1), np.arange(3.0)), (np.arange(3.0), np.ones(1)),
        (np.ones((3, 1)), np.arange(3.0)), (1.0, 2.0),
    ], ids=["short-r-k", "short-r-km1", "column-r-k", "scalars"])
    def test_residuals_must_be_vectors_of_one_shape(self, r_k, r_km1):
        # numpy would broadcast a short residual silently against the other
        with pytest.raises(ContractError, match=re.escape(
                f"residuals {np.shape(r_k)}, {np.shape(r_km1)} are not vectors of one "
                "shape")):
            aitken_omega(r_k, r_km1, 0.5)


class TestCheckConvergence:
    def test_first_residual_both_needed(self):
        cfg = CouplingConfig()
        ok = report(1e-12)
        slow = report(1.0, iters=3)
        assert check_convergence(ok, ok, cfg, 1.0)
        assert not check_convergence(slow, ok, cfg, 1.0)
        assert not check_convergence(ok, slow, cfg, 1.0)

    def test_the_config_holds_each_tolerance(self):
        # one pair of reports, two verdicts: each first residual is judged
        # against the run's eps_f and eps_s
        rep_f, rep_s = report(1e-6, iters=3), report(1e-4)
        assert check_convergence(rep_f, rep_s, CouplingConfig(eps_f=1e-5), 1.0)
        assert not check_convergence(rep_f, rep_s, CouplingConfig(eps_f=1e-7), 1.0)
        assert not check_convergence(rep_f, rep_s, CouplingConfig(eps_f=1e-5, eps_s=1e-5), 1.0)

    def test_legacy_norm(self):
        cfg = CouplingConfig(criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-10)
        bad = report(1.0, iters=2)
        assert check_convergence(bad, bad, cfg, 0.0)
        assert not check_convergence(bad, bad, cfg, 1e-10)
        assert not check_convergence(bad, bad, cfg, math.sqrt(3) * 1e-3)


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
        assert step_counts(record) == step_counts(again)
        assert all(np.array_equal(a, b)
                   for a, b in zip(record.snapshots, again.snapshots))

    def test_resolve_audit_passes(self, short_run):
        # stepping the run by hand, from the first guesses run_simulation
        # takes, one more call of each solver with every accepted step's data
        # meets that solver's tolerance on its first inner iteration, as the
        # first-residual criterion promised
        params, config, record = short_run
        model = Tube1DModel(params)
        state, u_f, u_s = model.initial_state(), None, None
        d_start = np.zeros(model.n_interface)
        hist = IqnHistory(q=config.reuse_q)
        per_step, accepted = [], []
        for step in range(1, params.steps + 1):
            hist.start_step(step)
            if accepted:
                d_start = _predict(accepted, 3)
            rec, d_acc, u_f, u_s = run_time_step(model, config, state, hist, step,
                                                 d_start, u_f, u_s)
            per_step.append((step, rec.coupling_iters, rec.flow_iters, rec.solid_iters))
            accepted.append(d_acc)
            flow = model.flow_solver(state)
            _, rep_f, _ = call_solver(SolverId.FLOW, flow,
                                      SolverCallInput(u_f, d_acc, eps=config.eps_f, n_max=1))
            traction = flow.output(u_f)
            _, rep_s, _ = call_solver(SolverId.SOLID, model.solid_solver(state),
                                      SolverCallInput(u_s, traction, eps=config.eps_s, n_max=1))
            assert rep_f.residual_history[0] <= config.eps_f
            assert rep_s.residual_history[0] <= config.eps_s
            state = model.advance_state(state, d_acc, u_f)
        assert per_step == step_counts(record)
        assert all(np.array_equal(a, b) for a, b in zip(accepted, record.snapshots))

    def test_counters_additivity_and_diagnostics(self, short_run):
        _, _, record = short_run
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
        assert step_counts(plain) == step_counts(asked)
        assert all(np.array_equal(a, b) for a, b in zip(plain.snapshots, asked.snapshots))

    @pytest.mark.parametrize("tube, overrides", [
        ({"steps": 20}, {}), ({"steps": 20}, {"n_max_f": 1, "n_max_s": 1}),
        ({"steps": 20}, {"criterion": CriterionKind.FIXED_POINT_NORM, "eps_c": 2e-6,
                         "eps_fil": 1e-3}),
        ({"cells": 10, "steps": 9}, {}),
        ({"cells": 10, "steps": 4}, {"n_max_f": 1, "n_max_s": 1}),
        ({"cells": 20, "steps": 18}, {}),
        ({"cells": 20, "steps": 7}, {"n_max_f": 1, "n_max_s": 1})],
        ids=["uncapped", "capped-1-1", "converged-at-k1", "10-cells-uncapped",
             "10-cells-capped-1-1", "20-cells-uncapped", "20-cells-capped-1-1"])
    def test_increments_leave_a_filtering_run_bit_for_bit(self, monkeypatch, tube, overrides):
        # the acceptance-time update drops columns from a copy of the history,
        # so the run keeps its counts and snapshots bit for bit. Under the
        # loose fixed-point tolerance, step 7 converges at k = 1 right after an
        # acceptance that dropped columns. On 10 and 20 cells the window holds
        # more columns than V has nonzero rows, and each case runs the fewest
        # steps on which an acceptance-time update that dropped columns from
        # the run's own history moved the counts
        import fsilab.coupling as coupling_mod

        real_check, real_update = coupling_mod.check_convergence, coupling_mod.iqn_ils_update
        accepted, dropped = [False], []  # columns each acceptance-time update dropped

        def check(*args):
            accepted[0] = real_check(*args)
            return accepted[0]

        def update(hist, *args):
            width = hist.matrices()[0].shape[1]
            out = real_update(hist, *args)
            if accepted[0]:
                dropped.append(width - hist.matrices()[0].shape[1])
            return out

        monkeypatch.setattr(coupling_mod, "check_convergence", check)
        monkeypatch.setattr(coupling_mod, "iqn_ils_update", update)
        params, config = Tube1DParams(**tube), CouplingConfig(**overrides)
        plain = run_simulation(Tube1DModel(params), config)
        assert not dropped
        asked = run_simulation(Tube1DModel(params), config, increments=True)
        assert len(dropped) == params.steps and sum(dropped) > 0
        if "eps_c" in overrides:
            iters = [s.coupling_iters for s in plain.steps]
            assert iters[6] == 1 < iters[7] and dropped[5] > 0
        assert step_counts(plain) == step_counts(asked)
        assert all(np.array_equal(a, b) for a, b in zip(plain.snapshots, asked.snapshots))

    def test_history_cap_follows_the_interface_length(self):
        # 11 interface nodes, of which the clamped ends are zero in every
        # column: R has 9 diagonal entries, so each update drops the columns
        # past the 9th from the history, and an accepted step ends on one more
        # column appended; the history never reaches the 11 columns its
        # buffer holds, though _MAX_SECANT_COLUMNS allows 24
        columns = []
        record = run_simulation(
            Tube1DModel(Tube1DParams(cells=10, steps=10)), CouplingConfig(),
            on_step=lambda step, hist, state: columns.append(hist.matrices()[0].shape[1]))
        assert max(columns) == 10 < 11 < _MAX_SECANT_COLUMNS
        assert step_counts(record) == [
            (1, 12, 30, 28), (2, 4, 9, 9), (3, 5, 11, 11), (4, 5, 11, 10), (5, 5, 9, 10),
            (6, 5, 10, 10), (7, 4, 7, 8), (8, 4, 8, 8), (9, 4, 8, 8), (10, 4, 7, 8)]

    @pytest.mark.parametrize("rho_s", [200.0, 100.0])
    def test_stiff_tube_converges_without_a_restart(self, rho_s):
        # a light wall couples strongly; a restart that flushed the secant
        # history after 6 iterations without halving ||r|| aborted step 1 of
        # each of these runs, where the kept history converges; the capped
        # run stays on the uncapped run's solution
        params = Tube1DParams(rho_s=rho_s, steps=3)
        uncapped = run_simulation(Tube1DModel(params), CouplingConfig())
        capped = run_simulation(Tube1DModel(params), CouplingConfig(n_max_s=1))
        assert uncapped.converged and capped.converged
        assert len(capped.snapshots) == len(uncapped.snapshots) == params.steps
        assert max(deviation_from_reference(a, b)
                   for a, b in zip(capped.snapshots, uncapped.snapshots)) < 1e-8

    def test_reuse_eviction_invariant(self, monkeypatch):
        # after every step the engine's history holds the columns of the list
        # oracle fed the same calls, which keeps those of the last q steps
        # and loses those the filter drops
        import fsilab.coupling as coupling_mod

        retained = []

        class Mirrored(IqnHistory):
            def __init__(self, q):
                super().__init__(q)
                self.oracle = ListIqnHistory(q)

            def append(self, residual_diff, output_diff, age):
                super().append(residual_diff, output_diff, age)
                self.oracle.append(residual_diff, output_diff, age)

            def start_step(self, step):
                super().start_step(step)
                self.oracle.start_step(step)

            def retain(self, keep):
                super().retain(keep)
                self.oracle.retain(keep)
                retained.append(len(keep))

        params = Tube1DParams(cells=40, steps=8)
        config = CouplingConfig(reuse_q=2)
        oldest = []  # steps back to each step's oldest column

        def check(step, hist, state):
            ages = hist.oracle.column_ages
            assert ages and all(age >= step - config.reuse_q for age in ages)
            for got, ref in zip(hist.matrices(), hist.oracle.matrices()):
                assert got.tobytes() == ref.tobytes()
            oldest.append(step - ages[-1])

        monkeypatch.setattr(coupling_mod, "IqnHistory", Mirrored)
        run_simulation(Tube1DModel(params), config, on_step=check)
        assert len(oldest) == params.steps and max(oldest) == config.reuse_q
        assert retained

    def test_shipped_reuse_depth_beats_five_steps(self):
        # the QR1 filter removes the stale columns that age eviction guarded
        # against, so the full window, not age, retires most columns at the
        # shipped depth: 472 coupling iterations against 503 at reuse_q = 5
        shipped = run_simulation(Tube1DModel(Tube1DParams()), CouplingConfig())
        shallow = run_simulation(Tube1DModel(Tube1DParams()), CouplingConfig(reuse_q=5))
        assert shipped.converged and shallow.converged
        assert shipped.counters.coupling_total < shallow.counters.coupling_total

    def test_timings_split(self, short_run):
        _, _, record = short_run
        assert record.flow_seconds > 0
        assert record.solid_seconds > 0
        assert record.coupling_seconds >= 0


class TestZeroFirstGuesses:
    def test_first_calls_start_from_zeros(self, monkeypatch):
        # the engine owns the first guesses: the first flow call gets a zero
        # interface displacement, and each solver's first call no interior
        # state, which the driver starts from zeros of its rhs's length; every
        # later call starts from the state the solver's last call ended with
        import fsilab.coupling as coupling_mod

        seen = []
        real_call = coupling_mod.call_solver

        def recording(solver_id, solver, inp):
            out = real_call(solver_id, solver, inp)
            seen.append((solver_id, inp.u0, inp.coupling_data, out[2]))
            return out

        monkeypatch.setattr(coupling_mod, "call_solver", recording)
        run_simulation(LinearToyModel(dim_f=3, dim_s=5, steps=2), CouplingConfig())
        (flow_id, u0_f, d0, u_f), (solid_id, u0_s, _, u_s) = seen[:2]
        assert (flow_id, solid_id) == (SolverId.FLOW, SolverId.SOLID)
        assert u0_f is None and u0_s is None and (u_f.shape, u_s.shape) == ((3,), (5,))
        assert type(d0) is np.ndarray and np.array_equal(d0, np.zeros(5)) and not d0.flags.writeable
        assert len(seen) > 2 and all(seen[j][1] is seen[j - 2][3] for j in range(2, len(seen)))


# row j: the t**j coefficients of the motion of three interface nodes
_COEFFS = np.array([[2, -3, 1], [-1, 4, 2], [5, 0, -2], [1, -2, 3], [-1, 1, 2],
                    [2, -1, 1], [1, 1, -1]])


def _motion(degree: int, steps: int) -> list:
    """Snapshots d(t) at t = 1..steps of the nodes' polynomials of ``degree``; small
    integers, so _predict evaluates them exactly."""
    powers = np.arange(degree + 1)
    return [(t ** powers @ _COEFFS[: degree + 1]).astype(float) for t in range(1, steps + 1)]


class TestPredictor:
    @pytest.mark.parametrize("degree, n, exact_degree", [
        (3, 1, 0), (3, 2, 1), (3, 3, 2), (3, 4, 3), (3, 5, 3), (3, 7, 3),
        (5, 1, 0), (5, 4, 3), (5, 5, 4), (5, 6, 5), (5, 7, 5), (5, 9, 5),
    ])
    def test_each_case_is_exact_up_to_its_degree(self, degree, n, exact_degree):
        # n snapshots give the degree min(n - 1, degree)
        for motion_degree in range(exact_degree + 1):
            *accepted, truth = _motion(motion_degree, steps=n + 1)
            guess = _predict(accepted, degree)
            assert isinstance(guess, np.ndarray)
            assert np.array_equal(guess, truth)

    @pytest.mark.parametrize("degree, n, motion_degree, error", [
        # the leading error h^{p+1} d^{(p+1)} with h = 1 is the whole error on a
        # motion one degree up, (p + 1)! c_{p+1}
        (3, 1, 1, _COEFFS[1]),
        (3, 2, 2, 2 * _COEFFS[2]),
        (3, 3, 3, 6 * _COEFFS[3]),
        (3, 4, 4, 24 * _COEFFS[4]),
        (3, 5, 4, 24 * _COEFFS[4]),
        (5, 4, 4, 24 * _COEFFS[4]),
        (5, 5, 5, 120 * _COEFFS[5]),
        (5, 6, 6, 720 * _COEFFS[6]),
        (5, 8, 6, 720 * _COEFFS[6]),
    ])
    def test_leading_error_one_degree_up(self, degree, n, motion_degree, error):
        *accepted, truth = _motion(motion_degree, steps=n + 1)
        assert np.array_equal(truth - _predict(accepted, degree), error)

    def test_only_the_newest_four_snapshots_count(self):
        d1, d2, d3, d4, d5 = _motion(4, steps=5)
        cubic = 4.0 * d4 - 6.0 * d3 + 4.0 * d2 - d1
        assert np.array_equal(_predict([d1, d2, d3, d4], 3), cubic)
        assert np.array_equal(_predict([d5, d1, d2, d3, d4], 3), cubic)
        assert not np.array_equal(cubic, 3.0 * d4 - 3.0 * d3 + d2)

    def test_only_the_newest_six_snapshots_count_at_degree_5(self):
        d1, d2, d3, d4, d5, d6, d7 = _motion(6, steps=7)
        quintic = 6.0 * d6 - 15.0 * d5 + 20.0 * d4 - 15.0 * d3 + 6.0 * d2 - d1
        assert np.array_equal(_predict([d1, d2, d3, d4, d5, d6], 5), quintic)
        assert np.array_equal(_predict([d7, d1, d2, d3, d4, d5, d6], 5), quintic)
        assert not np.array_equal(quintic, _predict([d1, d2, d3, d4, d5, d6], 4))

    @pytest.mark.parametrize("config, degree", [
        (CouplingConfig(), 3),
        (CouplingConfig(accel=AccelKind.AITKEN), 5),
        (CouplingConfig(accel=AccelKind.CONSTANT, omega0=0.02, max_coupling_iters=2000), 5),
        (CouplingConfig(reuse_q=0), 5),
    ], ids=["iqn-ils-shipped", "aitken", "constant", "iqn-ils-q0"])
    def test_run_starts_each_step_from_the_prediction(self, monkeypatch, config, degree):
        # step 1 starts from zeros, and the zeros are no snapshot: step 2
        # starts from d_1; the degree follows the accelerator's memory, which
        # first shows at step 6, the first with five snapshots
        import fsilab.coupling as coupling_mod

        starts = []
        real_step = coupling_mod.run_time_step

        def recording(model, config, state, hist, step, d_start, *args, **kwargs):
            starts.append(d_start)
            return real_step(model, config, state, hist, step, d_start, *args, **kwargs)

        monkeypatch.setattr(coupling_mod, "run_time_step", recording)
        record = run_simulation(Tube1DModel(Tube1DParams(cells=20, steps=8)), config)
        snaps = record.snapshots
        assert len(snaps) == 8
        assert np.array_equal(starts[0], np.zeros(21))
        assert np.array_equal(starts[1], snaps[0])
        for step in range(3, 9):
            assert np.array_equal(starts[step - 1], _predict(snaps[: step - 1], degree))
        other = {3: 5, 5: 3}[degree]
        for step in (6, 7, 8):
            assert not np.array_equal(starts[step - 1], _predict(snaps[: step - 1], other))


class _ScriptedSolid:
    """Delegates to a tube model; the solid of time step t outputs ``script[t - 1]``,
    whatever the traction, so the accepted displacements are the script."""

    def __init__(self, model, script):
        self._model = model
        self._script = script

    def __getattr__(self, name):
        return getattr(self._model, name)

    def solid_solver(self, state):
        target = self._script[state.step]

        class Solid:
            dim = target.size

            def load(self, traction):
                return target, lambda u: target - u, lambda u, r: r

            def output(self, u):
                return u

        return Solid()


class TestPredictedCollapse:
    def test_collapsing_prediction_aborts_the_step_with_its_record(self):
        # uniform inward wall displacements of 0.1, 0.3 and 0.8 radii: every
        # accepted section stays open, but step 4's quadratic prediction, -1.6
        # radii, collapses every section
        params = Tube1DParams(cells=10, steps=5)
        script = [np.full(params.n_nodes, -f * params.radius) for f in (0.1, 0.3, 0.8, 0.8)]
        model = _ScriptedSolid(Tube1DModel(params), script)
        with pytest.raises(DivergedStepError, match="time step 4: .*flow solver: "
                                                    "non-positive tube radius") as err:
            run_simulation(model, CouplingConfig())
        assert isinstance(err.value.__cause__, GeometryError)
        partial, record = err.value.partial, err.value.record
        assert record.steps[-1] is partial and record.failing_step == 4
        assert [s.converged for s in record.steps] == [True, True, True, False]
        assert all(np.array_equal(a, b) for a, b in zip(record.snapshots, script))
        # the failed load ran no inner iteration, but its seconds count in T_f
        assert (partial.coupling_iters, partial.flow_iters, partial.solid_iters) == (1, 0, 0)
        assert partial.flow_time > 0.0 and partial.solid_time == 0.0
        assert step_counts(record)[-1] == (4, 1, 0, 0)
        assert record.flow_seconds == sum(s.flow_time for s in record.steps)


class _ShiftModel:
    """One interface DOF: the flow passes ``d`` through as traction and the
    solid returns ``traction + 1``, so the fixed-point residual is always 1."""

    n_interface = 1
    n_steps = 1

    def initial_state(self):
        return 0

    def _solver(self, shift):
        return SpecSolver(dim=1, assemble_matrix=lambda u: np.eye(1),
                          assemble_rhs=lambda c: c + shift,
                          tangent=lambda u: np.eye(1),
                          extract_output=lambda u: u)

    def flow_solver(self, state):
        return self._solver(0.0)

    def solid_solver(self, state):
        return self._solver(1.0)

    def advance_state(self, state, accepted_displacement, flow_u):
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
        record = run_simulation(LinearToyModel.stable(steps=3), config, increments=True)
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
            LinearToyModel.stable(steps=4),
            CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5, accel=accel),
            on_step=lambda step, hist, state: columns.append(hist.matrices()[0].shape[1]))
        assert record.converged and record.step_records[0].coupling_iters > 2
        if accel is AccelKind.IQN_ILS:
            assert columns[0] > 0
        else:
            assert columns == [0, 0, 0, 0]

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
        assert step_counts(err.value.record) == [
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

    def test_residual_growth_aborts_the_step(self):
        # undamped relaxation on the unstable preset: the residual grows by
        # the spectral radius 2.5 per coupling iteration, past the 1e6 bound
        # at k = 17, with two inner iterations per linear solver call
        with pytest.raises(DivergedStepError) as err:
            run_simulation(LinearToyModel.unstable(),
                           CouplingConfig(eps_f=1e-9, eps_s=1e-9, omega0=1.0,
                                          accel=AccelKind.CONSTANT))
        assert str(err.value) == "time step 1: coupling residual grew by more than 1e+06x"
        partial, record = err.value.partial, err.value.record
        assert (partial.step, partial.coupling_iters, partial.flow_iters,
                partial.solid_iters) == (1, 17, 34, 34)
        assert not partial.converged
        assert step_counts(record) == [(1, 17, 34, 34)]
        assert record.failing_step == partial.step == 1
        assert not record.converged and not record.snapshots

    def test_diverged_step_carries_partial_record(self, monkeypatch):
        import fsilab.coupling as coupling_mod
        from fsilab.errors import DivergedStepError

        def fixed_point(hist, r_k, d_tilde_k, eps_fil):
            return np.array(d_tilde_k), 0.0

        # every IQN update takes the plain fixed-point step, which diverges on
        # the unstable preset
        monkeypatch.setattr(coupling_mod, "iqn_ils_update", fixed_point)
        toy = LinearToyModel.unstable(steps=3)
        with pytest.raises(DivergedStepError) as err:
            run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0,
                                               accel=AccelKind.IQN_ILS))
        record = err.value.record
        assert record is not None
        assert not record.converged
        assert record.failing_step == err.value.partial.step == 1
        assert record.counters.coupling_total > 0

        partial = err.value.partial
        assert not partial.converged and partial.accepted_norms is None
        assert step_counts(record)[-1] == (partial.step, partial.coupling_iters,
                                           partial.flow_iters, partial.solid_iters)
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)


class TestNonFiniteUpdate:
    def test_non_finite_displacement_aborts_the_step(self, monkeypatch):
        # one inf in the accelerated displacement aborts the step with the
        # typed partial records, not with a bare ContractError
        import fsilab.coupling as coupling_mod

        real_update, real_call = coupling_mod.iqn_ils_update, coupling_mod.call_solver
        spent = []  # (solver, inner iterations) of every solver call

        def poisoned(hist, r_k, d_tilde_k, eps_fil):
            d_next, inc = real_update(hist, r_k, d_tilde_k, eps_fil)
            d_next[d_next.size // 2] = np.inf
            return d_next, inc

        def counted(solver_id, spec, inp):
            out = real_call(solver_id, spec, inp)
            spent.append((solver_id.value, out[1].inner_iters))
            return out

        monkeypatch.setattr(coupling_mod, "iqn_ils_update", poisoned)
        monkeypatch.setattr(coupling_mod, "call_solver", counted)
        with pytest.raises(DivergedStepError, match="not finite") as err:
            run_simulation(Tube1DModel(Tube1DParams(cells=20, steps=3)), CouplingConfig())
        partial, record = err.value.partial, err.value.record
        assert isinstance(partial, TimeStepRecord) and not partial.converged
        assert partial.accepted_norms is None
        # step 1 updates by relaxation first: the first IQN update is at k = 2
        assert (partial.step, partial.coupling_iters) == (1, 2)
        assert record.failing_step == 1 and not record.converged and not record.snapshots
        flow = [c for c in spent if c[0] == "flow"]
        solid = [c for c in spent if c[0] == "solid"]
        assert len(flow) == len(solid) == 2
        assert partial.flow_iters == sum(c[1] for c in flow)
        assert partial.solid_iters == sum(c[1] for c in solid)
        assert step_counts(record) == [(1, 2, partial.flow_iters, partial.solid_iters)]
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)


class TestProbeSeam:
    """The engine routes every solver call through ``fsilab.coupling.call_solver``,
    the name the benchmark probe wraps, with three positional arguments."""

    @pytest.mark.parametrize("model, config", [
        (lambda: Tube1DModel(Tube1DParams(cells=30, steps=4)), CouplingConfig()),
        (lambda: LinearToyModel.stable(steps=3),
         CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5)),
    ], ids=["tube", "linear_toy"])
    def test_every_call_goes_through_the_module_global(self, monkeypatch, model, config):
        import fsilab.coupling as coupling_mod

        real_call = coupling_mod.call_solver
        seen = {SolverId.FLOW: [], SolverId.SOLID: []}
        coupled = model()

        def counted(*args):
            assert len(args) == 3 and isinstance(args[2], SolverCallInput)
            out = real_call(*args)
            output, rep, u = out
            assert type(output) is np.ndarray and not output.flags.writeable
            assert output.shape == (coupled.n_interface,)
            assert isinstance(rep, SolverCallReport) and isinstance(u, np.ndarray)
            seen[args[0]].append(rep.inner_iters)
            return out

        monkeypatch.setattr(coupling_mod, "call_solver", counted)
        record = run_simulation(coupled, config)
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
        assert f"{solver} solver: singular linear solve at inner iteration 3" in str(err.value)
        assert partial.step == 1 and partial.coupling_iters == 1
        if solver == "flow":
            assert (partial.flow_iters, partial.solid_iters) == (3, 0)
            assert partial.flow_time > 0.0 and partial.solid_time == 0.0
        else:
            assert partial.flow_iters > 0 and partial.solid_iters == 3
            assert partial.solid_time > 0.0
        assert step_counts(record) == [(1, 1, partial.flow_iters, partial.solid_iters)]
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)

    def test_failed_load_counts_its_seconds_in_t_f(self):
        # a collapsed section raises GeometryError from the flow's load; the
        # 10 ms it took belong to T_f, not T_c
        with pytest.raises(DivergedStepError, match="flow solver: non-positive") as err:
            run_simulation(_CollapsingFlow(LinearToyModel.stable()),
                           CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5))
        partial, record = err.value.partial, err.value.record
        assert (partial.coupling_iters, partial.flow_iters, partial.solid_iters) == (1, 0, 0)
        assert partial.flow_time >= 0.01 and partial.solid_time == 0.0
        assert record.flow_seconds == partial.flow_time


    def test_non_finite_residual_aborts_the_step_with_its_record(self):
        # a NaN in the flow residual at a finite iterate is a divergence of
        # that call, not a contract error that escapes the step's accounting
        with pytest.raises(DivergedStepError, match="flow solver: non-finite residual at "
                                                    "inner iteration 1") as err:
            run_simulation(_NanFlowResidual(), CouplingConfig())
        assert isinstance(err.value.__cause__, DivergenceError)
        partial, record = err.value.partial, err.value.record
        assert (partial.coupling_iters, partial.flow_iters, partial.solid_iters) == (1, 1, 0)
        assert step_counts(record) == [(1, 1, 1, 0)]


class _NanFlowResidual:
    """Two interface DOFs; the flow's right-hand side, and so its residual at
    every iterate, holds a NaN."""

    n_interface = 2
    n_steps = 1

    def initial_state(self):
        return 0

    def _solver(self, rhs):
        return SpecSolver(dim=2, assemble_matrix=lambda u: np.eye(2),
                          assemble_rhs=lambda c: np.array(rhs), tangent=lambda u: np.eye(2),
                          extract_output=lambda u: u)

    def flow_solver(self, state):
        return self._solver([math.nan, 1.0])

    def solid_solver(self, state):
        return self._solver([1.0, 1.0])

    def advance_state(self, state, accepted_displacement, flow_u):
        return state + 1


class _CollapsingFlow:
    """Delegates to a model; in its time step ``at``, the flow's first load
    takes 10 ms and then finds a collapsed section."""

    def __init__(self, model, at: int = 1):
        self._model = model
        self._at = at
        self._built = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def flow_solver(self, state):
        solver = self._model.flow_solver(state)
        self._built += 1  # one flow solver per time step
        if self._built == self._at:
            def collapsing_load(coupling):
                time.sleep(0.01)
                raise GeometryError("non-positive tube radius from interface displacement")

            solver.load = collapsing_load
        return solver


_TOY = dict(eps_f=1e-12, eps_s=1e-12, omega0=0.5)
_RUNS = {
    "tube-converged": lambda: run_simulation(Tube1DModel(Tube1DParams(cells=30, steps=6)),
                                             CouplingConfig()),
    "aitken-stagnation": lambda: run_simulation(
        _ShiftModel(), CouplingConfig(accel=AccelKind.AITKEN, max_coupling_iters=3)),
    "constant-unstable": lambda: run_simulation(
        LinearToyModel.unstable(), CouplingConfig(**dict(_TOY, omega0=1.0),
                                                  accel=AccelKind.CONSTANT)),
    "failed-flow-call": lambda: run_simulation(
        _FailingSolver(LinearToyModel.stable(), "flow"), CouplingConfig(**_TOY)),
    "failed-solid-call": lambda: run_simulation(
        _FailingSolver(LinearToyModel.stable(), "solid"), CouplingConfig(**_TOY)),
    "collapse-at-step-3": lambda: run_simulation(
        _CollapsingFlow(LinearToyModel.stable(steps=4), at=3), CouplingConfig(**_TOY)),
}


class TestRunRecordDerivesItsTotals:
    @pytest.mark.parametrize("name", list(_RUNS))
    def test_totals_are_sums_over_the_step_records(self, name):
        try:
            record = _RUNS[name]()
        except DivergedStepError as exc:
            record = exc.record
        steps = record.steps
        accepted = [s for s in steps if s.converged]
        c = record.counters
        assert (c.coupling_total, c.flow_total, c.solid_total) == (
            sum(s.coupling_iters for s in steps), sum(s.flow_iters for s in steps),
            sum(s.solid_iters for s in steps))
        assert record.flow_seconds == sum(s.flow_time for s in steps)
        assert record.solid_seconds == sum(s.solid_time for s in steps)
        assert record.coupling_seconds == max(
            record.wall_seconds - record.flow_seconds - record.solid_seconds, 0.0)
        assert record.step_records == accepted
        assert len(record.snapshots) == len(accepted)
        if name == "tube-converged":
            assert record.converged and record.failing_step is None
            assert len(accepted) == len(steps) == 6
        else:
            # every step before the last was accepted; the last is the aborted one
            assert not record.converged and accepted == steps[:-1]
            assert record.failing_step == steps[-1].step
        if name == "collapse-at-step-3":
            assert record.failing_step == 3 and steps[-1].flow_time >= 0.01

    def test_a_run_of_no_steps_is_converged(self):
        record = RunRecord(steps=[], snapshots=[], wall_seconds=0.0)
        assert record.converged and record.failing_step is None
        c = record.counters
        assert (c.coupling_total, c.flow_total, c.solid_total) == (0, 0, 0)
        assert (record.flow_seconds, record.solid_seconds, record.coupling_seconds) == (
            0.0, 0.0, 0.0)


class TestEveryCallIsTimedOnce:
    """Under a clock that advances by 1 on each read, each solver call, finished
    or failed, adds exactly 1 s to its solver's time: a step's ``flow_time`` and
    ``solid_time`` are its numbers of flow and solid calls."""

    @pytest.mark.parametrize("make, config, failed, failed_iters", [
        (lambda: Tube1DModel(Tube1DParams(cells=20, steps=3)), CouplingConfig(), None, None),
        (lambda: Tube1DModel(Tube1DParams(cells=20, steps=3, inlet_pulse=1e9)),
         CouplingConfig(), SolverId.FLOW, 0),
        (lambda: _FailingSolver(LinearToyModel.stable(), "flow"), CouplingConfig(**_TOY),
         SolverId.FLOW, 3),
        (lambda: _FailingSolver(LinearToyModel.stable(), "solid"), CouplingConfig(**_TOY),
         SolverId.SOLID, 3),
    ], ids=["converged", "geometry-error-at-load", "singular-flow-solve",
            "singular-solid-solve"])
    def test_step_seconds_count_the_calls(self, monkeypatch, make, config, failed,
                                          failed_iters):
        import fsilab.coupling as coupling_mod

        reads = itertools.count()
        monkeypatch.setattr(coupling_mod, "time",
                            SimpleNamespace(perf_counter=lambda: float(next(reads))))
        real_call = coupling_mod.call_solver
        finished = []  # (solver, inner iterations) of every call that returned
        tried = []  # the solver of every call

        def counted(solver_id, solver, inp):
            tried.append(solver_id)
            out = real_call(solver_id, solver, inp)
            finished.append((solver_id, out[1].inner_iters))
            return out

        monkeypatch.setattr(coupling_mod, "call_solver", counted)
        if failed is None:
            record = run_simulation(make(), config)
            assert record.converged
        else:
            with pytest.raises(DivergedStepError,
                               match=f"broke a subproblem \\({failed.value} solver: ") as err:
                run_simulation(make(), config)
            record = err.value.record
            assert tried[-1] is failed and len(tried) == len(finished) + 1
            # the failed call's own inner iterations, and none for a failed load
            finished.append((failed, failed_iters))
        for rec in record.steps:
            # one flow and one solid call per coupling iteration, but the
            # solid call of an iteration whose flow call failed
            solid_calls = rec.coupling_iters
            if rec is record.steps[-1] and failed is SolverId.FLOW:
                solid_calls -= 1
            assert (rec.flow_time, rec.solid_time) == (rec.coupling_iters, solid_calls)
        for solver_id, time_s, total in (
                (SolverId.FLOW, record.flow_seconds, record.counters.flow_total),
                (SolverId.SOLID, record.solid_seconds, record.counters.solid_total)):
            assert time_s == tried.count(solver_id)
            assert total == sum(n for sid, n in finished if sid is solver_id)
