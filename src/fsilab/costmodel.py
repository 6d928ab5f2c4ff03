"""Equivalent-time cost measure, zero-intercept regressions, and fit metrics.

The run-time model is a weighted sum of iteration counts,

    cost = N_c * gamma + N_f * c_iter_f + N_s * c_iter_s,

where gamma aggregates everything paid once per coupling iteration (data
transfer plus the fixed part of each solver call) and the two iteration rates
price one inner iteration of each solver. The factors come from zero-intercept
least squares on measured timings: a plane through the origin per solver time,
a line through the origin for the coupling time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RankDeficiencyError
from .interface import require_finite


@dataclass(frozen=True)
class CostFactors:
    """Per-iteration cost coefficients in seconds."""

    c_couple: float = 0.0  # per coupling iteration (transfer + update)
    c_fix_f: float = 0.0  # per flow solver call
    c_iter_f: float = 0.0  # per flow inner iteration
    c_fix_s: float = 0.0  # per solid solver call
    c_iter_s: float = 0.0  # per solid inner iteration

    def __post_init__(self):
        require_finite("cost factor", vars(self))
        for name, value in vars(self).items():
            if value < 0:
                raise ContractError(f"cost factor {name!r} must be >= 0, got {value!r}")

    def gamma(self) -> float:
        """Aggregate cost per coupling iteration."""
        return self.c_couple + self.c_fix_f + self.c_fix_s

    def timings(self, n_c, n_f, n_s) -> tuple:
        """Modeled ``(T_f, T_s, T_c)`` of a run with the given iteration counts."""
        return (n_c * self.c_fix_f + n_f * self.c_iter_f,
                n_c * self.c_fix_s + n_s * self.c_iter_s,
                n_c * self.c_couple)


def equivalent_time(counters, factors: CostFactors) -> float:
    """Weighted iteration-count sum ``N_c*gamma + N_f*c_iter_f + N_s*c_iter_s``."""
    n_c, n_f, n_s = counters
    if min(n_c, n_f, n_s) < 0:
        raise ContractError("counters must be non-negative")
    return n_c * factors.gamma() + n_f * factors.c_iter_f + n_s * factors.c_iter_s


def fit_solver_cost(samples) -> tuple:
    """Zero-intercept plane fit ``T ~ N_c*c_fix + N_p*c_iter`` via QR.

    ``samples`` is a sequence of ``(n_c, n_p, t)`` triples. Raises
    :class:`RankDeficiencyError` when the two design columns are collinear.
    """
    data = np.asarray(list(samples), dtype=float)
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 2:
        raise ContractError("need at least two (n_c, n_p, t) samples")
    x = data[:, :2]
    t = data[:, 2]
    q, r = np.linalg.qr(x)
    if abs(r[1, 1]) <= 1e-12 * max(abs(r[0, 0]), 1e-300) or r[0, 0] == 0.0:
        raise RankDeficiencyError("design columns N_c and N_p are collinear")
    rhs = q.T @ t
    c_iter = rhs[1] / r[1, 1]
    c_fix = (rhs[0] - r[0, 1] * c_iter) / r[0, 0]
    return float(c_fix), float(c_iter)


def fit_coupling_cost(samples) -> float:
    """Zero-intercept line fit ``T ~ N_c * c``: ``c = sum(N_c*T) / sum(N_c^2)``."""
    data = np.asarray(list(samples), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 1:
        raise ContractError("need at least one (n_c, t) sample")
    n_c = data[:, 0]
    t = data[:, 1]
    denom = float(n_c @ n_c)
    if denom == 0.0:
        raise RankDeficiencyError("all coupling-iteration counts are zero")
    return float(n_c @ t) / denom


def fit_cost_factors(samples) -> CostFactors:
    """Fit all five factors from ``(n_c, n_f, n_s, t_f, t_s, t_c)`` run samples.

    Slightly negative coefficients (possible when noisy measured timings meet
    a barely conditioned grid) are clamped to zero. Raises
    :class:`RankDeficiencyError` (with guidance) for fewer than 3 samples or
    counters too collinear to separate.
    """
    data = list(samples)
    if len(data) < 3:
        raise RankDeficiencyError(
            "need at least 3 converged runs with timings; widen the sweep grid")
    try:
        c_fix_f, c_iter_f = fit_solver_cost([(d[0], d[1], d[3]) for d in data])
        c_fix_s, c_iter_s = fit_solver_cost([(d[0], d[2], d[4]) for d in data])
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            f"{exc}; vary the caps so N_c and the inner-iteration counts decouple"
        ) from exc
    c_couple = fit_coupling_cost([(d[0], d[5]) for d in data])
    c_couple, c_fix_f, c_iter_f, c_fix_s, c_iter_s = (
        max(x, 0.0) for x in (c_couple, c_fix_f, c_iter_f, c_fix_s, c_iter_s))
    return CostFactors(c_couple=c_couple, c_fix_f=c_fix_f, c_iter_f=c_iter_f,
                       c_fix_s=c_fix_s, c_iter_s=c_iter_s)


def _check_pair(actual, fitted):
    a = np.asarray(actual, dtype=float)
    f = np.asarray(fitted, dtype=float)
    if a.shape != f.shape or a.ndim != 1 or a.size == 0:
        raise ContractError("actual and fitted must be equal-length non-empty vectors")
    return a, f


def rmse(actual, fitted) -> float:
    a, f = _check_pair(actual, fitted)
    return float(np.sqrt(np.sum(np.abs(a - f) ** 2) / a.size))


def rrmse(actual, fitted) -> float:
    a, f = _check_pair(actual, fitted)
    denom = float(np.sum(np.abs(a) ** 2))
    if denom == 0.0:
        raise ContractError("rrmse undefined for an all-zero actual vector")
    return float(np.sqrt(np.sum(np.abs(a - f) ** 2) / denom))


def mape_maxape(actual, predicted) -> tuple:
    """Mean and maximum absolute percentage error (as fractions)."""
    a, p = _check_pair(actual, predicted)
    if np.any(a == 0.0):
        raise ContractError("percentage errors undefined for zero actual entries")
    rel = np.abs((a - p) / a)
    return float(rel.mean()), float(rel.max())
