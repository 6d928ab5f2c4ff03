"""Parameter sweeps, published-table replay, cost-factor fitting, contours.

``run_sweep`` executes one simulation per (n_max_f, n_max_s) grid cell and
always writes ``sweep.csv`` into the spec's ``out_dir``, with the schema

    nmax_f,nmax_s,converged,N_c,N_f,N_s,T_f,T_s,T_c,teq,teq_norm,max_dev_vs_reference

Rows are ordered by (flow-grid index, solid-grid index); the reference cell is
(inf, inf) and must be part of the grid. Diverged cells keep their iteration
counts up to the abort and leave the derived columns empty. A sweep is one
checked config: :meth:`SweepSpec.from_config` makes its only
:func:`fsilab.configio.load`, and :class:`SweepSpec` raises every spec error
before any cell runs. Each cell runs the loaded model under the base coupling
config with the cell's caps; on a process pool each worker receives the built
model and its cell's config. The process pool is imported only when a sweep
runs on more than one worker, so ``fsilab run`` and single-worker sweeps never
load :mod:`multiprocessing`. Cells run independently; one process writes the
rows in order, so the file content does not depend on the worker count.
A :class:`SweepResult` is the rows and the file's path. The rows are priced by
``spec.loaded.factors``, or else by the self-fit :func:`fit_from_runs` repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .configio import Config, _read_published_table, load, parse_field, read_table, write_csv
from .costmodel import (
    CostFactors,
    equivalent_time,
    fit_cost_factors,
    mape_maxape,
    rmse,
    rrmse,
)
from .coupling import run_simulation
from .errors import (
    ContractError,
    DivergedStepError,
    RankDeficiencyError,
    SweepSpecError,
    TableParseError,
)
from .interface import (
    as_caps_str,
    deviation_from_reference,
    is_unbounded,
    parse_cap,
    require_count,
)

SWEEP_COLUMNS = ("nmax_f", "nmax_s", "converged", "N_c", "N_f", "N_s",
                 "T_f", "T_s", "T_c", "teq", "teq_norm", "max_dev_vs_reference")

CONTOUR_QUANTITIES = ("N_c", "N_f", "N_s", "teq_norm")

# a replayed cell passes when it is within this of the published two-decimal value
_REPLAY_TOLERANCE = 0.01


@dataclass(frozen=True)
class SweepSpec:
    """One parameter study: a loaded config swept over the cap grids it sets.

    Every spec error is raised here, before any cell runs.
    """

    loaded: Config
    out_dir: Path
    workers: int = 1

    def __post_init__(self):
        sweep = self.loaded.sweep
        if "grid_f" not in sweep or "grid_s" not in sweep:
            raise SweepSpecError("sweep config requires grid_f and grid_s")
        grid_f, grid_s = sweep["grid_f"], sweep["grid_s"]
        if len(set(grid_f)) != len(grid_f) or len(set(grid_s)) != len(grid_s):
            raise SweepSpecError("cap grid entries must be unique")
        if not any(map(is_unbounded, grid_f)) or not any(map(is_unbounded, grid_s)):
            raise SweepSpecError("the (inf, inf) reference cell must be part of the grid")
        try:
            require_count(self.workers, "workers", 1)
        except ContractError as exc:
            raise SweepSpecError(str(exc)) from exc
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if sweep.get("timing") != "modeled" and self.workers > 1:
            # parallel cells contend for the cores and bias the timings the
            # self-fit prices them by
            raise SweepSpecError("timing = measured requires workers = 1")
        if sweep.get("timing") == "modeled" and self.loaded.factors is None:
            raise SweepSpecError("timing = modeled requires cost_* factor keys")

    @classmethod
    def from_config(cls, cfg: dict, out_dir, workers=None) -> "SweepSpec":
        """The sweep ``cfg`` sets up, into ``out_dir``; its only :func:`~fsilab.configio.load`."""
        loaded = load(cfg)
        return cls(loaded, out_dir, loaded.sweep.get("workers", 1) if workers is None else workers)


@dataclass
class SweepRow:
    nmax_f: object
    nmax_s: object
    converged: bool
    n_c: int
    n_f: int
    n_s: int
    t_f: float | None = None
    t_s: float | None = None
    t_c: float | None = None
    teq: float | None = None
    teq_norm: float | None = None
    max_dev: float | None = None

    def csv_fields(self) -> tuple:
        return (as_caps_str(self.nmax_f), as_caps_str(self.nmax_s), self.converged,
                self.n_c, self.n_f, self.n_s, self.t_f, self.t_s, self.t_c,
                self.teq, self.teq_norm, self.max_dev)


@dataclass
class SweepResult:
    rows: list
    csv_path: Path


def _run_cell(model, config) -> tuple:
    """Worker entry: one simulation of ``model`` under ``config``, whose caps name
    the cell, as ``(SweepRow, snapshots)``.

    Must stay picklable.
    """
    try:
        record = run_simulation(model, config)
    except DivergedStepError as exc:
        record = exc.record
    c = record.counters
    row = SweepRow(nmax_f=config.n_max_f, nmax_s=config.n_max_s, converged=record.converged,
                   n_c=c.coupling_total, n_f=c.flow_total, n_s=c.solid_total,
                   t_f=record.flow_seconds, t_s=record.solid_seconds, t_c=record.coupling_seconds)
    return row, record.snapshots


def _modeled_timings(rows: list, factors: CostFactors) -> None:
    """Replace the rows' timings by the cost-model evaluation."""
    for row in rows:
        row.t_f, row.t_s, row.t_c = factors.timings(row.n_c, row.n_f, row.n_s)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the grid, derive teq/teq_norm/deviation columns, write sweep.csv."""
    loaded = spec.loaded
    spec.out_dir.mkdir(parents=True, exist_ok=True)  # an unusable out_dir fails before any cell
    configs = [replace(loaded.coupling, n_max_f=f, n_max_s=s)
               for f in loaded.sweep["grid_f"] for s in loaded.sweep["grid_s"]]
    if spec.workers > 1:
        # here, not at the top: the pool pulls in multiprocessing, ~1.4 MB and ~15 ms per process
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            outcomes = list(pool.map(_run_cell, [loaded.model] * len(configs), configs))
    else:
        outcomes = [_run_cell(loaded.model, config) for config in configs]

    rows = [row for row, _ in outcomes]
    snapshots = {(row.nmax_f, row.nmax_s): snaps for row, snaps in outcomes}

    factors = loaded.factors
    if loaded.sweep.get("timing") == "modeled":
        _modeled_timings(rows, factors)
    if factors is None:
        factors = _self_fit(rows)

    ref = next(r for r in rows if is_unbounded(r.nmax_f) and is_unbounded(r.nmax_s))
    ref_teq = None
    if ref.converged:
        ref_teq = equivalent_time((ref.n_c, ref.n_f, ref.n_s), factors)
    for row in rows:
        if not row.converged:  # partial timings stay; the derived columns stay undefined
            continue
        row.teq = equivalent_time((row.n_c, row.n_f, row.n_s), factors)
        row.teq_norm = row.teq / ref_teq if ref_teq else None
        if ref.converged:
            pairs = zip(snapshots[(row.nmax_f, row.nmax_s)], snapshots[(ref.nmax_f, ref.nmax_s)])
            devs = [deviation_from_reference(snap, ref_snap) for snap, ref_snap in pairs]
            row.max_dev = max(devs) if devs else None

    return SweepResult(rows, write_sweep_csv(spec.out_dir / "sweep.csv", rows))


def _self_fit(rows: list) -> CostFactors:
    """Fit factors from the sweep's own converged rows; unit factors if too few."""
    try:
        return fit_cost_factors([(r.n_c, r.n_f, r.n_s, r.t_f, r.t_s, r.t_c)
                                 for r in rows if r.converged])
    except RankDeficiencyError:
        # below three converged cells, or with collinear counts: teq is then
        # N_c + N_f + N_s, and teq_norm a ratio of counts, not of times
        return CostFactors(c_couple=1.0, c_iter_f=1.0, c_iter_s=1.0)


# ---------------------------------------------------------------------------
# sweep results on disk


def write_sweep_csv(path, rows: list) -> Path:
    """Write ``rows`` under the sweep.csv header; returns the path."""
    return write_csv(path, SWEEP_COLUMNS, [r.csv_fields() for r in rows])


def read_sweep_csv(path) -> list:
    """The rows of a sweep.csv, which holds at least one below its header. A count
    or time must be non-negative and finite, as every sweep writes it."""
    out = []
    for lineno, fields in read_table(path, SWEEP_COLUMNS):
        converged = fields[2].strip().lower()
        if converged not in ("true", "false"):
            raise TableParseError(f"{path}:{lineno}: converged must be true or false, "
                                  f"got {fields[2]!r}")
        blank = {not f for f in fields[6:9]}
        if len(blank) > 1:
            raise TableParseError(f"{path}:{lineno}: T_f, T_s and T_c must be all set "
                                  "or all blank")
        if converged == "true" and True in blank:
            raise TableParseError(f"{path}:{lineno}: a converged row must set T_f, T_s and T_c")
        nmax_f, nmax_s, _, *counts = [
            parse_field(path, lineno, column, parse, text) for column, parse, text
            in zip(SWEEP_COLUMNS, (parse_cap, parse_cap, str, int, int, int), fields)]
        values = counts + [parse_field(path, lineno, column, float, text) if text else None
                           for column, text in zip(SWEEP_COLUMNS[6:], fields[6:])]
        for column, value in zip(SWEEP_COLUMNS[3:], values):
            if value is not None and not 0 <= value < np.inf:
                raise TableParseError(f"{path}:{lineno}: {column} must be non-negative "
                                      f"and finite, got {value!r}")
        out.append(SweepRow(nmax_f, nmax_s, converged == "true", *values))
    return out


def emit_contour(results_path, quantity: str, out_dir) -> Path:
    """Pivot one sweep column into a plottable grid CSV.

    Header row holds the solid caps, first column the flow caps; diverged
    cells stay empty. Requires a full rectangular grid.
    """
    if quantity not in CONTOUR_QUANTITIES:
        raise SweepSpecError(f"quantity must be one of {CONTOUR_QUANTITIES}")
    rows = read_sweep_csv(results_path)
    # each grid's caps in the order they first appear
    grid_f = list(dict.fromkeys(r.nmax_f for r in rows))
    grid_s = list(dict.fromkeys(r.nmax_s for r in rows))
    cells = {(r.nmax_f, r.nmax_s): r for r in rows}
    if len(cells) != len(rows) or len(rows) != len(grid_f) * len(grid_s):
        raise SweepSpecError(f"{results_path}: sweep results do not cover a full "
                             "rectangular grid")

    attr = {"N_c": "n_c", "N_f": "n_f", "N_s": "n_s", "teq_norm": "teq_norm"}[quantity]
    lines = [[as_caps_str(f)] + [getattr(cells[(f, s)], attr) if cells[(f, s)].converged
                                 else None for s in grid_s] for f in grid_f]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_csv(out_dir / f"contour_{quantity}.csv",
                     ["", *map(as_caps_str, grid_s)], lines)


# ---------------------------------------------------------------------------
# published-table replay


@dataclass
class ReplayRow:
    nmax_f: object
    nmax_s: object
    published: float
    recomputed: float

    @property
    def abs_err(self) -> float:
        return abs(self.recomputed - self.published)


@dataclass
class ReplayReport:
    rows: list

    @property
    def max_abs_err(self) -> float:
        """The largest error; nan when any error is nan."""
        return float(np.max([r.abs_err for r in self.rows])) if self.rows else 0.0

    @property
    def failures(self) -> list:
        """Rows whose error is not within tolerance; a nan error fails."""
        return [r for r in self.rows if not r.abs_err <= _REPLAY_TOLERANCE]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"{'nmax_f':>8} {'nmax_s':>8} {'published':>10} {'recomputed':>11} {'abs err':>9}"]
        for r in self.rows:
            lines.append(
                f"{as_caps_str(r.nmax_f):>8} {as_caps_str(r.nmax_s):>8} "
                f"{r.published:>10.2f} {r.recomputed:>11.4f} {r.abs_err:>9.4f}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"max abs error {self.max_abs_err:.4f} "
                     f"(tolerance {_REPLAY_TOLERANCE}) -> {verdict}")
        for r in self.failures:
            lines.append(
                f"  offending cell ({as_caps_str(r.nmax_f)}, {as_caps_str(r.nmax_s)}): "
                f"recomputed {r.recomputed:.4f} vs published {r.published:.2f}"
            )
        return "\n".join(lines)


def replay_published(table_path, factors: CostFactors) -> ReplayReport:
    """Recompute normalized equivalent times for a published table and compare.

    Each non-missing row's counters are priced with ``factors``, normalized by
    the (inf, inf) row, and compared to the published two-decimal cell. PASS
    iff every absolute error is within 0.01.
    """
    entries = _read_published_table(table_path)
    ref = [e for e in entries if is_unbounded(e[0]) and is_unbounded(e[1])]
    if not ref:
        raise TableParseError(f"{table_path}: reference row (inf, inf) is missing")
    ref_teq = equivalent_time(ref[0][3], factors)
    if ref_teq == 0.0:
        raise ContractError(f"{table_path}: the cost factors price the reference row "
                            "(inf, inf) at 0, so teq_norm is undefined")
    rows = [
        ReplayRow(nmax_f=f, nmax_s=s, published=pub,
                  recomputed=equivalent_time(counters, factors) / ref_teq)
        for f, s, pub, counters in entries
    ]
    return ReplayReport(rows=rows)


# ---------------------------------------------------------------------------
# cost-factor fitting from sweep results


@dataclass
class FitReport:
    n_samples: int
    rmse_flow: float
    rrmse_flow: float
    rmse_solid: float
    rrmse_solid: float
    rmse_coupling: float
    rrmse_coupling: float
    mape: float
    maxape: float

    def summary(self, factors: CostFactors) -> str:
        f = factors
        return "\n".join([
            f"{'':14s}{'c_fix_f':>9} {'c_iter_f':>9} {'c_fix_s':>9} {'c_iter_s':>9} "
            f"{'c_couple':>9} {'gamma':>9} {'MAPE':>7} {'maxAPE':>7}",
            f"{'fitted':14s}{f.c_fix_f:>9.4f} {f.c_iter_f:>9.4f} {f.c_fix_s:>9.4f} "
            f"{f.c_iter_s:>9.4f} {f.c_couple:>9.4f} {f.gamma():>9.4f} "
            f"{100 * self.mape:>6.2f}% {100 * self.maxape:>6.2f}%",
            f"fit quality over {self.n_samples} runs "
            f"(RMSE s / RRMSE): flow {self.rmse_flow:.3g}/{self.rrmse_flow:.2%}  "
            f"solid {self.rmse_solid:.3g}/{self.rrmse_solid:.2%}  "
            f"coupling {self.rmse_coupling:.3g}/{self.rrmse_coupling:.2%}",
        ])


def fit_from_runs(results_path) -> tuple:
    """Fit all five cost factors from a sweep's converged rows.

    Returns ``(CostFactors, FitReport)``; the reported errors describe the
    returned factors. See :func:`fsilab.costmodel.fit_cost_factors` for the
    clamping and the :class:`RankDeficiencyError` raised on too few or too
    collinear runs.
    """
    rows = [r for r in read_sweep_csv(results_path) if r.converged]
    factors = fit_cost_factors([(r.n_c, r.n_f, r.n_s, r.t_f, r.t_s, r.t_c) for r in rows])

    t_f, t_s, t_c = np.array([(r.t_f, r.t_s, r.t_c) for r in rows]).T
    fit_f, fit_s, fit_c = np.array([factors.timings(r.n_c, r.n_f, r.n_s) for r in rows]).T
    total = t_f + t_s + t_c
    teq = np.array([equivalent_time((r.n_c, r.n_f, r.n_s), factors) for r in rows])
    mape, maxape = mape_maxape(total, teq)
    report = FitReport(
        n_samples=len(rows),
        rmse_flow=rmse(t_f, fit_f), rrmse_flow=rrmse(t_f, fit_f),
        rmse_solid=rmse(t_s, fit_s), rrmse_solid=rrmse(t_s, fit_s),
        rmse_coupling=rmse(t_c, fit_c), rrmse_coupling=rrmse(t_c, fit_c),
        mape=mape, maxape=maxape,
    )
    return factors, report


def write_factors_csv(path, factors: CostFactors, report: FitReport) -> None:
    header = "case,c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple,gamma,mape_pct,maxape_pct"
    f = factors
    write_csv(path, header.split(","), [("fitted", f.c_fix_f, f.c_iter_f, f.c_fix_s,
                                         f.c_iter_s, f.c_couple, f.gamma(),
                                         100 * report.mape, 100 * report.maxape)])


def synthesize_sweep_csv(path, factors: CostFactors, counters: list,
                         noise_rel: float = 0.0, seed: int | None = None) -> Path:
    """Write a sweep.csv whose timings follow ``factors`` exactly (plus noise).

    ``counters`` holds (cap_f, cap_s, N_c, N_f, N_s) tuples, e.g. from
    :func:`fsilab.configio.load_published_counters`. Used to validate the
    regression pipeline against known ground truth. A seed requires noise.
    """
    # the noise factor 1 +- noise_rel must stay positive
    if not 0.0 <= noise_rel < 1.0:
        raise SweepSpecError(f"noise_rel must be a finite number in [0, 1), got {noise_rel!r}")
    # numpy's generators take only non-negative seeds, and only noise draws from one
    if seed is not None and seed < 0:
        raise SweepSpecError(f"seed must be a non-negative integer, got {seed!r}")
    if seed is not None and noise_rel == 0.0:
        raise SweepSpecError(f"seed {seed} applies only to noisy timings (noise_rel > 0)")
    rows = [SweepRow(nmax_f=cap_f, nmax_s=cap_s, converged=True, n_c=n_c, n_f=n_f, n_s=n_s)
            for cap_f, cap_s, n_c, n_f, n_s in counters]
    _modeled_timings(rows, factors)
    if noise_rel > 0:  # the draws run per row, in the order T_f, T_s, T_c
        rng = np.random.default_rng(seed)
        for row in rows:
            row.t_f, row.t_s, row.t_c = (t * rng.uniform(1.0 - noise_rel, 1.0 + noise_rel)
                                         for t in (row.t_f, row.t_s, row.t_c))
    return write_sweep_csv(path, rows)
