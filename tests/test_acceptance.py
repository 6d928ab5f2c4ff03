"""Acceptance suite: one test per exit criterion, each printing a PASS line.

The tube fixtures (reference run, legacy-criterion run, {1,2,3,inf}^2 cap
sweep) are session-scoped and shared; their wall time counts toward the
runtime budgets asserted here.
"""

import math
import time

import numpy as np
import pytest

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    deviation_from_reference,
    run_simulation,
)
from fsilab.configio import (
    PUBLISHED_TABLES,
    load_factors_csv,
    load_published_counters,
    published_table_path,
    regression_summary_path,
)
from fsilab.costmodel import CostFactors
from fsilab.harness import (
    SweepSpec,
    fit_from_runs,
    replay_published,
    run_sweep,
    synthesize_sweep_csv,
)
from fsilab.models import LinearToyModel

CAPS = (1, 2, 3, math.inf)  # must match the conftest sweep grid


def report_line(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {criterion}: {verdict} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def max_step_deviation(run_a, run_b):
    return max(
        deviation_from_reference(a, b)
        for a, b in zip(run_a.snapshots, run_b.snapshots)
    )


def test_criterion_1_published_table_replay():
    start = time.perf_counter()
    worst = 0.0
    spot = {}
    for case in PUBLISHED_TABLES:
        factors, _ = load_factors_csv(regression_summary_path(), case=case)
        rep = replay_published(published_table_path(case), factors)
        assert rep.passed, rep.summary()
        worst = max(worst, rep.max_abs_err)
        for row in rep.rows:
            spot[(case, row.nmax_f, row.nmax_s)] = row
    runtime = time.perf_counter() - start
    # spot-check three published cells
    assert spot[("fe_fe_tube", 1, 1)].recomputed == pytest.approx(0.794, abs=5e-4)
    assert spot[("fe_fe_tube", 1, 1)].published == 0.79
    assert spot[("fv_fe_tube", 12, 2)].recomputed == pytest.approx(0.789, abs=5e-4)
    assert spot[("fv_fe_tube", 12, 2)].published == 0.79
    assert spot[("fe_fe_cavity", 2, 2)].recomputed == pytest.approx(0.777, abs=5e-4)
    assert spot[("fe_fe_cavity", 2, 2)].published == 0.78
    report_line(1, worst <= 0.01 and runtime < 1.0,
                f"(max cell error {worst:.4f}, runtime {runtime:.2f}s)")


def test_criterion_2_gamma_consistency():
    published_gamma = {"fe_fe_cavity": 0.0214, "fv_fe_cavity": 0.9446,
                       "fe_fe_tube": 0.8460, "fv_fe_tube": 1.3924}
    worst = 0.0
    for case, expect in published_gamma.items():
        factors, gamma_col = load_factors_csv(regression_summary_path(), case=case)
        assert gamma_col == expect
        worst = max(worst, abs(factors.gamma() - expect))
    report_line(2, worst < 5e-5, f"(max |gamma mismatch| {worst:.2e}, 4-decimal agreement)")


def test_criterion_3_regression_recovery(tmp_path):
    start = time.perf_counter()
    true = CostFactors(c_couple=0.0795, c_fix_f=1.1542, c_iter_f=0.1068,
                       c_fix_s=0.1587, c_iter_s=0.2510)
    counters = load_published_counters("fv_fe_tube")
    names = ("c_couple", "c_fix_f", "c_iter_f", "c_fix_s", "c_iter_s")

    exact, _ = fit_from_runs(synthesize_sweep_csv(tmp_path / "exact.csv", true, counters))
    exact_err = max(abs(getattr(exact, n) - getattr(true, n)) /
                    max(abs(getattr(true, n)), 1e-300) for n in names)

    noisy, rep = fit_from_runs(synthesize_sweep_csv(
        tmp_path / "noisy.csv", true, counters, noise_rel=0.01, seed=20240817))
    noisy_err = max(abs(getattr(noisy, n) / getattr(true, n) - 1.0) for n in names)
    runtime = time.perf_counter() - start
    report_line(3, exact_err <= 1e-10 and noisy_err <= 0.05 and rep.mape <= 0.02
                and runtime < 1.0,
                f"(exact rel err {exact_err:.1e}, noisy rel err {noisy_err:.2%}, "
                f"MAPE {rep.mape:.2%}, runtime {runtime:.2f}s)")


def test_criterion_4_linear_toy_oracle_equivalence():
    start = time.perf_counter()
    worst_dev = 0.0
    for accel in AccelKind:
        toy = LinearToyModel.stable()
        omega0 = 1.0 if accel is AccelKind.CONSTANT else 0.5
        config = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=omega0, accel=accel)
        record = run_simulation(toy, config)
        dev = deviation_from_reference(
            record.snapshots[-1],
            toy.interface_solution())
        worst_dev = max(worst_dev, dev)

    # quasi-Newton iteration count on the d-dimensional toy
    counts_ok = True
    details = []
    for dim in (2, 4, 6):
        toy = LinearToyModel(dim_f=dim, dim_s=dim, coupling_strength=0.5)
        config = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=0.5,
                                accel=AccelKind.IQN_ILS,
                                criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-9)
        record = run_simulation(toy, config)
        counts_ok &= record.counters.coupling_total <= dim + 2
        details.append(f"d={dim}:{record.counters.coupling_total}<= {dim + 2}")
    runtime = time.perf_counter() - start
    report_line(4, worst_dev <= 1e-9 and counts_ok and runtime < 1.0,
                f"(max deviation {worst_dev:.1e}, counts {'; '.join(details)}, "
                f"runtime {runtime:.2f}s)")


def test_criterion_5_criterion_equivalence(tube_reference_run, tube_fixed_point_run,
                                           tube_cap_sweep, elapsed):
    dev_criteria = max_step_deviation(tube_reference_run, tube_fixed_point_run)

    dev_caps = 0.0
    converged = 0
    for caps, record in tube_cap_sweep.items():
        if record is None:
            continue
        converged += 1
        dev_caps = max(dev_caps, max_step_deviation(record, tube_reference_run))
    runtime = elapsed["tube_reference"] + elapsed["tube_fixed_point"] + \
        elapsed["tube_cap_sweep"]
    report_line(5, dev_criteria <= 1e-8 and dev_caps <= 1e-8 and runtime < 120.0,
                f"(criterion dev {dev_criteria:.1e} m, cap-grid dev {dev_caps:.1e} m "
                f"over {converged}/16 converged cells, tube runs {runtime:.0f}s)")


def test_criterion_6_trend_reproduction(tube_cap_sweep):
    def totals(caps):
        record = tube_cap_sweep[caps]
        assert record is not None, f"cell {caps} diverged"
        c = record.counters
        return c.coupling_total, c.flow_total, c.solid_total

    n_c_full = totals((math.inf, math.inf))[0]
    n_c_min = totals((1, 1))[0]
    trend_a = n_c_full <= n_c_min

    n_f = [totals((cap, math.inf))[1] for cap in CAPS]
    trend_b = all(n_f[i] <= 1.02 * n_f[i + 1] for i in range(len(CAPS) - 1))

    n_s = [totals((math.inf, cap))[2] for cap in CAPS]
    trend_c = all(n_s[i] <= 1.02 * n_s[i + 1] for i in range(len(CAPS) - 1))

    report_line(6, trend_a and trend_b and trend_c,
                f"(N_c {n_c_full}<={n_c_min}; N_f along caps {n_f}; N_s along caps {n_s})")


def test_criterion_7_invariant_suite(tmp_path, tube_cap_sweep, tube_reference_run):
    from fsilab import IqnHistory, iqn_ils_update, qr_filter
    from fsilab.models.tube import (Tube1DParams, areas_from_displacement,
                                    initial_tube_state, mass_balance_error)
    from fsilab.models import Tube1DModel

    # IQN zero residual -> zero increment, exactly
    hist = IqnHistory(q=1)
    hist.append(np.array([1.0, -2.0]), np.array([0.3, 0.4]), age=1)
    _, inc = iqn_ils_update(hist, np.zeros(2), np.array([1.0, 1.0]), 1e-12)
    zero_increment = inc == 0.0

    # qr_filter drops exact duplicates
    v = np.column_stack([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    duplicates_dropped = qr_filter(v, 1e-12) == [0]

    # b immutability: the rhs is assembled exactly once per solver call
    from fsilab import DriverKind, SolverCallInput
    from reference_specs import SpecSolver, run
    calls = []
    spec = SpecSolver(
        dim=1,
        assemble_matrix=lambda u: np.array([[1.0 + u[0]]]),
        assemble_rhs=lambda c: (calls.append(1), np.array([6.0]))[1],
        driver=DriverKind.PICARD,
    )
    _, rep = run(spec, SolverCallInput(
        np.zeros(1), np.zeros(1), eps=1e-9))
    b_frozen = len(calls) == 1 and rep.inner_iters > 1

    # mass conservation on converged tube steps (fresh short run to keep states)
    params = Tube1DParams(cells=60, steps=15)
    config = CouplingConfig()
    states = []
    record = run_simulation(Tube1DModel(params), config,
                            on_step=lambda s, h, st: states.append(st))
    bound = 10.0 * config.eps_f * params.length * params.dt
    prev = initial_tube_state(params)
    worst_mass = 0.0
    geometry_ok = True
    for snapshot, state in zip(record.snapshots, states):
        worst_mass = max(worst_mass, abs(mass_balance_error(params, prev, state)))
        geometry_ok &= bool(np.array_equal(
            state.area, areas_from_displacement(params, snapshot)))
        prev = state
    mass_ok = worst_mass <= bound

    # sweep determinism: byte-identical CSV across executions and worker counts
    cfg = {
        "model": "linear_toy", "dim_f": "4", "dim_s": "4", "coupling_strength": "0.5",
        "steps": "2", "eps_f": "1e-12", "eps_s": "1e-12", "omega0": "0.5",
        "accel": "iqn-ils", "timing": "modeled",
        "cost_c_couple": "0.02", "cost_c_fix_f": "0.4", "cost_c_iter_f": "0.07",
        "cost_c_fix_s": "0.05", "cost_c_iter_s": "0.01",
    }
    blobs = []
    for workers, name in ((1, "w1a"), (1, "w1b"), (2, "w2")):
        out = tmp_path / name
        run_sweep(SweepSpec.from_config(dict(cfg, grid_f="1,inf", grid_s="2,inf"),
                                        out_dir=out, workers=workers))
        blobs.append((out / "sweep.csv").read_bytes())
    determinism = blobs[0] == blobs[1] == blobs[2]

    ok = all([zero_increment, duplicates_dropped, b_frozen, mass_ok, geometry_ok,
              determinism])
    report_line(7, ok,
                f"(zero-increment {zero_increment}, duplicate-filter {duplicates_dropped}, "
                f"b-frozen {b_frozen}, mass defect {worst_mass:.1e}<= {bound:.1e}, "
                f"geometry {geometry_ok}, sweep determinism {determinism})")
