"""Parameter sweeps, published-table replay, cost-factor fitting, contours.

``run_sweep`` executes one simulation per (n_max_f, n_max_s) grid cell and
emits ``sweep.csv`` with the schema

    nmax_f,nmax_s,converged,N_c,N_f,N_s,T_f,T_s,T_c,teq,teq_norm,max_dev_vs_reference

Rows are ordered by (flow-grid index, solid-grid index); the reference cell is
(inf, inf) and must be part of the grid. Diverged cells keep their iteration
counts up to the abort and leave the derived columns empty. Cells run
independently on a process pool; emission is single-threaded and ordered, so
the file content does not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configio import (
    build_coupling_config,
    build_model,
    factors_from_config,
    fmt,
    grids_from_config,
    read_csv_rows,
)
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
    FieldRole,
    InterfaceField,
    as_caps_str,
    deviation_from_reference,
    is_unbounded,
    parse_cap,
)

SWEEP_COLUMNS = ("nmax_f", "nmax_s", "converged", "N_c", "N_f", "N_s",
                 "T_f", "T_s", "T_c", "teq", "teq_norm", "max_dev_vs_reference")

CONTOUR_QUANTITIES = ("N_c", "N_f", "N_s", "teq_norm")


@dataclass
class SweepSpec:
    """One parameter study: a model/config dict swept over two cap grids."""

    config: dict
    grid_f: list
    grid_s: list
    workers: int = 1
    out_dir: Path | None = None
    seed: int | None = None

    def __post_init__(self):
        if not self.grid_f or not self.grid_s:
            raise SweepSpecError("cap grids must be non-empty")
        if len(set(self.grid_f)) != len(self.grid_f) or len(set(self.grid_s)) != len(self.grid_s):
            raise SweepSpecError("cap grid entries must be unique")
        if not any(is_unbounded(f) for f in self.grid_f) or not any(
            is_unbounded(s) for s in self.grid_s
        ):
            raise SweepSpecError("the (inf, inf) reference cell must be part of the grid")
        if self.workers < 1:
            raise SweepSpecError("workers must be >= 1")

    @classmethod
    def from_config(cls, cfg: dict, out_dir=None, workers=None, seed=None) -> "SweepSpec":
        grid_f, grid_s = grids_from_config(cfg)
        return cls(
            config=cfg,
            grid_f=grid_f,
            grid_s=grid_s,
            workers=workers if workers is not None else int(cfg.get("workers", "1")),
            out_dir=Path(out_dir) if out_dir is not None else None,
            seed=seed,
        )


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

    def csv_fields(self) -> list:
        return [
            as_caps_str(self.nmax_f), as_caps_str(self.nmax_s), fmt(self.converged),
            fmt(self.n_c), fmt(self.n_f), fmt(self.n_s),
            fmt(self.t_f), fmt(self.t_s), fmt(self.t_c),
            fmt(self.teq), fmt(self.teq_norm), fmt(self.max_dev),
        ]


@dataclass
class SweepResult:
    rows: list
    snapshots: dict  # (nmax_f, nmax_s) -> list of per-step displacement arrays
    factors: CostFactors | None = None
    csv_path: Path | None = None

    def row(self, nmax_f, nmax_s) -> SweepRow:
        for r in self.rows:
            if r.nmax_f == nmax_f and r.nmax_s == nmax_s:
                return r
        raise KeyError((nmax_f, nmax_s))


def _run_cell(cfg: dict, nmax_f, nmax_s) -> dict:
    """Worker entry: one simulation at the given caps. Must stay picklable."""
    model = build_model(cfg)
    base = build_coupling_config(cfg)
    from dataclasses import replace

    config = replace(base, n_max_f=nmax_f, n_max_s=nmax_s)
    try:
        record = run_simulation(model, config)
        converged = True
    except DivergedStepError as exc:
        record = exc.record
        converged = False
    c = record.counters
    return {
        "converged": converged,
        "n_c": c.coupling_total,
        "n_f": c.flow_total,
        "n_s": c.solid_total,
        "t_f": record.flow_seconds,
        "t_s": record.solid_seconds,
        "t_c": record.coupling_seconds,
        "snapshots": record.snapshots,
    }


def _modeled_timings(rows: list, factors: CostFactors, noise_rel: float, seed) -> None:
    """Replace the rows' timings by the cost-model evaluation, times seeded noise.

    The noise draws run per row in the order T_f, T_s, T_c.
    """
    rng = np.random.default_rng(seed) if noise_rel > 0 else None
    for row in rows:
        t = factors.timings(row.n_c, row.n_f, row.n_s)
        if rng is not None:
            t = [x * rng.uniform(1.0 - noise_rel, 1.0 + noise_rel) for x in t]
        row.t_f, row.t_s, row.t_c = t


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the grid, derive teq/teq_norm/deviation columns, write sweep.csv."""
    timing_mode = spec.config.get("timing", "measured").lower()
    if timing_mode == "measured" and spec.workers > 1:
        # parallel cells contend for the cores and bias the timings the
        # self-fit prices them by
        raise SweepSpecError("timing = measured requires workers = 1")
    cells = [(f, s) for f in spec.grid_f for s in spec.grid_s]
    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            outcomes = list(pool.map(_run_cell, [spec.config] * len(cells),
                                     [c[0] for c in cells], [c[1] for c in cells]))
    else:
        outcomes = [_run_cell(spec.config, f, s) for f, s in cells]

    rows = []
    snapshots = {}
    for (f, s), out in zip(cells, outcomes):
        rows.append(SweepRow(
            nmax_f=f, nmax_s=s, converged=out["converged"],
            n_c=out["n_c"], n_f=out["n_f"], n_s=out["n_s"],
            t_f=out["t_f"], t_s=out["t_s"], t_c=out["t_c"],
        ))
        snapshots[(f, s)] = out["snapshots"]

    factors = factors_from_config(spec.config)
    if timing_mode == "modeled":
        if factors is None:
            raise SweepSpecError("timing = modeled requires cost_* factor keys")
        noise = float(spec.config.get("noise_rel", "0"))
        if noise > 0 and spec.seed is None:
            raise SweepSpecError("noisy modeled timings require a seed")
        _modeled_timings(rows, factors, noise, spec.seed)
    elif timing_mode != "measured":
        raise SweepSpecError(f"unknown timing mode {timing_mode!r}")

    if factors is None:
        factors = _self_fit(rows)

    ref = next(r for r in rows if is_unbounded(r.nmax_f) and is_unbounded(r.nmax_s))
    ref_teq = None
    if ref.converged:
        ref_teq = equivalent_time((ref.n_c, ref.n_f, ref.n_s), factors)
    for row in rows:
        if not row.converged:
            # partial timings stay; the derived columns are undefined
            row.teq = row.teq_norm = row.max_dev = None
            continue
        row.teq = equivalent_time((row.n_c, row.n_f, row.n_s), factors)
        row.teq_norm = row.teq / ref_teq if ref_teq else None
        if ref.converged:
            devs = [
                deviation_from_reference(
                    InterfaceField(snap, FieldRole.DISPLACEMENT),
                    InterfaceField(ref_snap, FieldRole.DISPLACEMENT),
                )
                for snap, ref_snap in zip(snapshots[(row.nmax_f, row.nmax_s)],
                                          snapshots[(ref.nmax_f, ref.nmax_s)])
            ]
            row.max_dev = max(devs) if devs else None

    result = SweepResult(rows=rows, snapshots=snapshots, factors=factors)
    if spec.out_dir is not None:
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        result.csv_path = write_sweep_csv(spec.out_dir / "sweep.csv", rows)
    return result


def _self_fit(rows: list) -> CostFactors:
    """Fit factors from the sweep's own converged rows; unit factors if too few."""
    try:
        return fit_cost_factors([(r.n_c, r.n_f, r.n_s, r.t_f, r.t_s, r.t_c)
                                 for r in rows if r.converged])
    except RankDeficiencyError:
        # teq_norm is invariant under the factor scale, so unit factors keep
        # the normalized column meaningful on grids too small to fit
        return CostFactors(c_couple=1.0, c_iter_f=1.0, c_iter_s=1.0)


# ---------------------------------------------------------------------------
# sweep results on disk


def write_sweep_csv(path, rows: list) -> Path:
    """Write ``rows`` under the sweep.csv header; returns the path."""
    path = Path(path)
    lines = [",".join(SWEEP_COLUMNS)] + [",".join(r.csv_fields()) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_sweep_csv(path) -> list:
    rows = read_csv_rows(path)
    header_line, header = rows[0]
    if tuple(h.strip() for h in header) != SWEEP_COLUMNS:
        raise TableParseError(f"{path}:{header_line}: unexpected sweep.csv header",
                              line=header_line)
    out = []
    for lineno, fields in rows[1:]:
        if len(fields) != len(SWEEP_COLUMNS):
            raise TableParseError(f"{path}:{lineno}: expected {len(SWEEP_COLUMNS)} fields",
                                  line=lineno)
        try:
            out.append(SweepRow(
                nmax_f=parse_cap(fields[0]),
                nmax_s=parse_cap(fields[1]),
                converged=fields[2].strip().lower() == "true",
                n_c=int(fields[3]), n_f=int(fields[4]), n_s=int(fields[5]),
                t_f=float(fields[6]) if fields[6] else None,
                t_s=float(fields[7]) if fields[7] else None,
                t_c=float(fields[8]) if fields[8] else None,
                teq=float(fields[9]) if fields[9] else None,
                teq_norm=float(fields[10]) if fields[10] else None,
                max_dev=float(fields[11]) if fields[11] else None,
            ))
        except ValueError as exc:
            raise TableParseError(f"{path}:{lineno}: {exc}", line=lineno) from exc
    return out


def emit_contour(results_path, quantity: str, out_dir) -> Path:
    """Pivot one sweep column into a plottable grid CSV.

    Header row holds the solid caps, first column the flow caps; diverged
    cells stay empty. Requires a full rectangular grid.
    """
    if quantity not in CONTOUR_QUANTITIES:
        raise SweepSpecError(f"quantity must be one of {CONTOUR_QUANTITIES}")
    rows = read_sweep_csv(results_path)
    grid_f: list = []
    grid_s: list = []
    for r in rows:
        if r.nmax_f not in grid_f:
            grid_f.append(r.nmax_f)
        if r.nmax_s not in grid_s:
            grid_s.append(r.nmax_s)
    cells = {(r.nmax_f, r.nmax_s): r for r in rows}
    if len(cells) != len(rows) or len(rows) != len(grid_f) * len(grid_s):
        raise SweepSpecError("sweep results do not cover a full rectangular grid")

    attr = {"N_c": "n_c", "N_f": "n_f", "N_s": "n_s", "teq_norm": "teq_norm"}[quantity]
    lines = ["," + ",".join(as_caps_str(s) for s in grid_s)]
    for f in grid_f:
        fields = [as_caps_str(f)]
        for s in grid_s:
            cell = cells[(f, s)]
            fields.append(fmt(getattr(cell, attr)) if cell.converged else "")
        lines.append(",".join(fields))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"contour_{quantity}.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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
    tolerance: float = 0.01

    @property
    def max_abs_err(self) -> float:
        return max((r.abs_err for r in self.rows), default=0.0)

    @property
    def failures(self) -> list:
        return [r for r in self.rows if r.abs_err > self.tolerance]

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
        lines.append(f"max abs error {self.max_abs_err:.4f} (tolerance {self.tolerance}) -> {verdict}")
        for r in self.failures:
            lines.append(
                f"  offending cell ({as_caps_str(r.nmax_f)}, {as_caps_str(r.nmax_s)}): "
                f"recomputed {r.recomputed:.4f} vs published {r.published:.2f}"
            )
        return "\n".join(lines)


def replay_published(table_path, factors: CostFactors, tolerance: float = 0.01) -> ReplayReport:
    """Recompute normalized equivalent times for a published table and compare.

    Each non-missing row's counters are priced with ``factors``, normalized by
    the (inf, inf) row, and compared to the published two-decimal cell. PASS
    iff every absolute error is within ``tolerance``.
    """
    raw = read_csv_rows(table_path)
    header_line, header = raw[0]
    expected = ("nmax_f", "nmax_s", "teq_norm", "N_c", "N_f", "N_s")
    if tuple(h.strip() for h in header) != expected:
        raise TableParseError(f"{table_path}:{header_line}: expected header {expected}",
                              line=header_line)
    entries = []
    for lineno, fields in raw[1:]:
        if len(fields) != 6:
            raise TableParseError(f"{table_path}:{lineno}: expected 6 fields", line=lineno)
        blank = [f.strip() == "" for f in fields[2:]]
        if any(blank):
            if not all(blank):
                raise TableParseError(
                    f"{table_path}:{lineno}: missing values must blank the whole row",
                    line=lineno)
            continue
        try:
            entries.append((
                parse_cap(fields[0]), parse_cap(fields[1]), float(fields[2]),
                (int(fields[3]), int(fields[4]), int(fields[5])),
            ))
        except ValueError as exc:
            raise TableParseError(f"{table_path}:{lineno}: {exc}", line=lineno) from exc

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
    return ReplayReport(rows=rows, tolerance=tolerance)


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
    rows = [r for r in read_sweep_csv(results_path)
            if r.converged and r.t_f is not None]
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


def write_factors_csv(path, factors: CostFactors, report: FitReport | None = None) -> None:
    header = "case,c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple,gamma"
    row = (f"fitted,{fmt(factors.c_fix_f)},{fmt(factors.c_iter_f)},{fmt(factors.c_fix_s)},"
           f"{fmt(factors.c_iter_s)},{fmt(factors.c_couple)},{fmt(factors.gamma())}")
    if report is not None:
        header += ",mape_pct,maxape_pct"
        row += f",{fmt(100 * report.mape)},{fmt(100 * report.maxape)}"
    Path(path).write_text(header + "\n" + row + "\n", encoding="utf-8")


def synthesize_sweep_csv(path, factors: CostFactors, counters: list,
                         noise_rel: float = 0.0, seed: int | None = None) -> Path:
    """Write a sweep.csv whose timings follow ``factors`` exactly (plus noise).

    ``counters`` holds (cap_f, cap_s, N_c, N_f, N_s) tuples, e.g. from
    :func:`fsilab.configio.load_published_counters`. Used to validate the
    regression pipeline against known ground truth.
    """
    rows = [SweepRow(nmax_f=cap_f, nmax_s=cap_s, converged=True, n_c=n_c, n_f=n_f, n_s=n_s)
            for cap_f, cap_s, n_c, n_f, n_s in counters]
    _modeled_timings(rows, factors, noise_rel, seed)
    return write_sweep_csv(path, rows)
