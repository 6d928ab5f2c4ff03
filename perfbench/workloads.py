"""Workload inputs, one pass of each workload, and the correctness gates.

Every workload is the shipped ``tube1d.cfg`` run in closed loop by one caller
in one process (``workers = 1``). Seed 0 is the shipped file unchanged; any
other seed scales ``inlet_pulse`` by a factor drawn from [0.9, 1.1].
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import fsilab.configio as configio
import fsilab.coupling as coupling
import fsilab.harness as harness
from fsilab.errors import DivergedStepError
from fsilab.models.tube import mass_balance_error

#: Largest per-step interface deviation of a capped cell from the (inf, inf)
#: cell, in metres (the bound of acceptance criterion 5).
MAX_DEV_BOUND = 1e-8
#: Mass-balance bound per accepted step, as a multiple of eps_f * length * dt.
MASS_BOUND_FACTOR = 10.0

# Per-workload changes to the shipped config. capgrid and picard-aitken keep a
# prefix of the shipped 100 steps so one pass takes a few seconds; the prefix
# iterates exactly like the first steps of the full run.
_OVERRIDES = {
    "tube-ref": {},
    "capgrid": {"steps": "5", "grid_f": "1,2,3,inf", "grid_s": "1,2,3,inf",
                "timing": "measured"},
    "picard-aitken": {"steps": "20", "flow_scheme": "picard", "accel": "aitken"},
}
SMOKE = {"cells": "20", "steps": "5", "grid_f": "1,inf", "grid_s": "1,inf"}
WARMUP = {"steps": "2", "grid_f": "1,inf", "grid_s": "1,inf"}

WORKLOADS = tuple(_OVERRIDES)


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """The workload's config dict, generated from ``seed``."""
    cfg = configio.parse_config(configio.data_path("tube1d.cfg"))
    if seed != 0:
        factor = random.Random(seed).uniform(0.9, 1.1)
        cfg["inlet_pulse"] = repr(float(cfg["inlet_pulse"]) * factor)
    cfg.update(_OVERRIDES[name], workers="1")
    if smoke:
        cfg.update(SMOKE)
    return cfg


def load(cfg: dict):
    """Build the model and coupling config a pass runs on."""
    return configio.build_model(cfg), configio.build_coupling_config(cfg)


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    failures: list  # what failed, one line each
    counts: tuple  # (N_c, N_f, N_s) over every simulation of the pass
    fit: tuple | None = None  # (CostFactors, FitReport), capgrid only


def check_mass(params, eps_f: float, states: list) -> list:
    """One failure line per accepted step whose global mass defect is too large."""
    bound = MASS_BOUND_FACTOR * eps_f * params.length * params.dt
    failures = []
    for old, new in zip(states, states[1:]):
        err = abs(mass_balance_error(params, old, new))
        if not err <= bound:
            failures.append(f"step {new.step}: mass defect {err:.3g} > {bound:.3g}")
    return failures


def check_cells(rows: list) -> list:
    """One failure line per cap-grid cell that diverged or left the reference."""
    failures = []
    for r in rows:
        cell = f"cell ({r.nmax_f}, {r.nmax_s})"
        if not r.converged:
            failures.append(f"{cell}: diverged")
        elif r.max_dev is None or not r.max_dev <= MAX_DEV_BOUND:
            failures.append(f"{cell}: max_dev_vs_reference {r.max_dev} > {MAX_DEV_BOUND}")
    return failures


def check_replays(reports: dict) -> list:
    return [f"replay {case}: FAIL, max abs error {rep.max_abs_err:.4f}"
            for case, rep in reports.items() if not rep.passed]


def simulation_pass(cfg: dict, probe, workdir) -> PassResult:
    """One uncapped simulation, gated on convergence and per-step mass balance."""
    model, config_ = load(cfg)
    states = [model.initial_state()]
    start = time.perf_counter()
    try:
        record = probe.simulate(coupling.run_simulation, model, config_,
                                on_step=lambda step, hist, state: states.append(state))
        failures = []
    except DivergedStepError as exc:
        record = exc.record
        failures = [f"diverged at step {record.failing_step}"]
    wall = time.perf_counter() - start
    if record.converged:
        failures += check_mass(model.params, config_.eps_f, states)
    c = record.counters
    return PassResult(wall, 1, int(bool(failures)), failures,
                      (c.coupling_total, c.flow_total, c.solid_total))


def capgrid_pass(cfg: dict, probe, workdir) -> PassResult:
    """The cap study: sweep, self-fit, teq_norm contour, and the four table replays."""
    start = time.perf_counter()
    sweep = probe.call("harness.sweep", harness.run_sweep,
                       harness.SweepSpec.from_config(cfg, out_dir=workdir, workers=1))
    fit = probe.call("harness.fit", harness.fit_from_runs, sweep.csv_path)
    probe.call("harness.contour", harness.emit_contour, sweep.csv_path, "teq_norm", workdir)
    reports = probe.call("harness.replay", _replay_all)
    wall = time.perf_counter() - start
    failures = check_cells(sweep.rows) + check_replays(reports)
    counts = tuple(sum(getattr(r, k) for r in sweep.rows) for k in ("n_c", "n_f", "n_s"))
    return PassResult(wall, len(sweep.rows) + len(reports), len(failures), failures, counts, fit)


def _replay_all() -> dict:
    summary = configio.regression_summary_path()
    return {
        case: harness.replay_published(configio.published_table_path(case),
                                       configio.load_factors_csv(summary, case=case)[0])
        for case in configio.PUBLISHED_TABLES
    }


PASSES = {"tube-ref": simulation_pass, "capgrid": capgrid_pass,
          "picard-aitken": simulation_pass}
