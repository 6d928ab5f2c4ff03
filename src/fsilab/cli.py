"""Command-line entry point.

Subcommands: ``run`` (single simulation), ``sweep`` (cap-grid parameter
study), ``replay`` (published-table verification), ``fit`` (cost factors from
sweep results), ``contour`` (plottable grid CSV). Exit codes: 0 success/PASS,
1 FAIL or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .configio import load, load_factors_csv, parse_config, write_csv
from .coupling import run_simulation
from .errors import DivergedStepError, FsiLabError
from .harness import (
    CONTOUR_QUANTITIES,
    SweepSpec,
    emit_contour,
    fit_from_runs,
    replay_published,
    run_sweep,
    write_factors_csv,
)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsilab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a config file")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", type=Path, default=None)

    p_sweep = sub.add_parser("sweep", help="run a (n_max_f, n_max_s) parameter study")
    p_sweep.add_argument("--config", required=True, type=Path)
    p_sweep.add_argument("--out", required=True, type=Path)
    p_sweep.add_argument("--workers", type=int, default=None)

    p_replay = sub.add_parser("replay", help="verify a published table against cost factors")
    p_replay.add_argument("--table", required=True, type=Path)
    p_replay.add_argument("--factors", required=True, type=Path)
    p_replay.add_argument("--case", default=None,
                          help="row selector when the factors CSV holds several cases")

    p_fit = sub.add_parser("fit", help="fit cost factors from sweep results")
    p_fit.add_argument("--results", required=True, type=Path)
    p_fit.add_argument("--out", type=Path, default=None)

    p_contour = sub.add_parser("contour", help="emit a grid CSV for one sweep quantity")
    p_contour.add_argument("--results", required=True, type=Path)
    p_contour.add_argument("--quantity", required=True, choices=CONTOUR_QUANTITIES)
    p_contour.add_argument("--out", required=True, type=Path)

    return parser


def _cmd_run(args) -> int:
    loaded = load(parse_config(args.config))
    if args.out is not None:  # an unusable --out fails before the run
        args.out.mkdir(parents=True, exist_ok=True)
    try:
        record = run_simulation(loaded.model, loaded.coupling, increments=True)
    except DivergedStepError as exc:
        record = exc.record
        print(f"FAIL: {exc}")
    c = record.counters
    print(
        f"converged={str(record.converged).lower()} steps={len(record.step_records)} "
        f"N_c={c.coupling_total} N_f={c.flow_total} N_s={c.solid_total} "
        f"T_f={record.flow_seconds:.3f}s T_s={record.solid_seconds:.3f}s "
        f"T_c={record.coupling_seconds:.3f}s"
    )
    if args.out is not None:
        summary = write_csv(
            args.out / "run_summary.csv", ("converged", "N_c", "N_f", "N_s", "T_f", "T_s", "T_c"),
            [(record.converged, c.coupling_total, c.flow_total, c.solid_total,
              record.flow_seconds, record.solid_seconds, record.coupling_seconds)])
        # an aborted step's row leaves the norms blank
        steps = write_csv(
            args.out / "per_step.csv", ("step", "coupling_iters", "flow_iters", "solid_iters",
                                        "residual_norm", "relative_residual", "update_increment"),
            [(rec.step, rec.coupling_iters, rec.flow_iters, rec.solid_iters,
              *(rec.accepted_norms or (None, None, None))) for rec in record.steps])
        print(f"wrote {summary} and {steps}")
    return 0 if record.converged else 1


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    spec = SweepSpec.from_config(cfg, out_dir=args.out, workers=args.workers)
    result = run_sweep(spec)
    n_ok = sum(r.converged for r in result.rows)
    print(f"wrote {result.csv_path} ({n_ok}/{len(result.rows)} cells converged)")
    return 0


def _cmd_replay(args) -> int:
    factors, _ = load_factors_csv(args.factors, case=args.case)
    report = replay_published(args.table, factors)
    print(report.summary())
    return 0 if report.passed else 1


def _cmd_fit(args) -> int:
    if args.out is not None:  # an unusable --out fails before the fit
        args.out.mkdir(parents=True, exist_ok=True)
    factors, report = fit_from_runs(args.results)
    print(report.summary(factors))
    if args.out is not None:
        path = args.out / "factors.csv"
        write_factors_csv(path, factors, report)
        print(f"wrote {path}")
    return 0


def _cmd_contour(args) -> int:
    path = emit_contour(args.results, args.quantity, args.out)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "replay": _cmd_replay,
    "fit": _cmd_fit,
    "contour": _cmd_contour,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FsiLabError, OSError) as exc:  # OSError: a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
