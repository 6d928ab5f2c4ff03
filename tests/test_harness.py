import math

import numpy as np
import pytest

from fsilab.configio import (
    PUBLISHED_TABLES,
    data_path,
    load_factors_csv,
    load_published_counters,
    parse_config,
    parse_config_text,
    published_table_path,
    regression_summary_path,
)
from fsilab.costmodel import CostFactors
from fsilab.errors import ContractError, RankDeficiencyError, SweepSpecError, TableParseError
from fsilab.harness import (
    SweepSpec,
    emit_contour,
    fit_from_runs,
    read_sweep_csv,
    replay_published,
    run_sweep,
    synthesize_sweep_csv,
)

LINEAR_TOY_STABLE = {
    "model": "linear_toy", "dim_f": "4", "dim_s": "4", "coupling_strength": "0.5",
    "steps": "2", "eps_f": "1e-12", "eps_s": "1e-12", "omega0": "0.5",
    "accel": "iqn-ils",
}

LINEAR_TOY_UNSTABLE_CONSTANT = {
    "model": "linear_toy", "dim_f": "4", "dim_s": "4", "coupling_strength": "2.5",
    "steps": "1", "eps_f": "1e-12", "eps_s": "1e-12", "omega0": "1.0",
    "accel": "constant",
}


class TestConfigParsing:
    def test_key_value_lines_and_comments(self):
        cfg = parse_config_text("a = 1  # trailing\n# full comment\n\nb=x y\n")
        assert cfg == {"a": "1", "b": "x y"}

    def test_coupling_keys_mapped(self):
        from fsilab import AccelKind, CriterionKind
        from fsilab.configio import build_coupling_config

        cfg = build_coupling_config(parse_config_text(
            "n_max_f = 3\nn_max_s = inf\neps_f = 1e-8\neps_s = 1e-2\n"
            "eps_fil = 1e-10\nreuse_q = 2\nomega0 = 0.3\naccel = aitken\n"
            "criterion = fixed_point\neps_c = 1e-7\ncriterion_relative = true\n"
            "max_coupling_iters = 50\nbatch_size_f = 5\n"))
        assert cfg.n_max_f == 3 and cfg.n_max_s == math.inf
        assert (cfg.eps_f, cfg.eps_s, cfg.eps_fil) == (1e-8, 1e-2, 1e-10)
        assert cfg.reuse_q == 2 and cfg.omega0 == 0.3
        assert cfg.accel is AccelKind.AITKEN
        assert cfg.criterion is CriterionKind.FIXED_POINT_NORM
        assert cfg.eps_c == 1e-7 and cfg.criterion_relative
        assert cfg.max_coupling_iters_per_step == 50 and cfg.batch_size_f == 5

    def test_model_keys_mapped(self):
        from fsilab.configio import build_model
        from fsilab.models import LinearToyModel, ScalarToyModel, Tube1DModel
        from fsilab import DriverKind

        tube = build_model(parse_config_text(
            "model = tube1d\ncells = 40\nsteps = 7\nkappa3 = 1e12\n"
            "flow_scheme = picard\n"))
        assert isinstance(tube, Tube1DModel)
        assert tube.params.cells == 40 and tube.params.steps == 7
        assert tube.params.kappa3 == 1e12
        assert tube.flow_driver is DriverKind.PICARD

        toy = build_model(parse_config_text(
            "model = linear_toy\ndim_f = 3\ndim_s = 5\ncoupling_strength = 0.2\n"))
        assert isinstance(toy, LinearToyModel)
        assert (toy.dim_f, toy.dim_s) == (3, 5)
        assert toy.gs_spectral_radius == pytest.approx(0.2, rel=1e-10)

        scalar = build_model(parse_config_text("model = scalar_toy\nkappa = 0.25\n"))
        assert isinstance(scalar, ScalarToyModel)
        assert scalar.params.kappa == 0.25

    @pytest.mark.parametrize("key", ["eps_f", "eps_s", "eps_fil", "eps_c"])
    def test_non_finite_tolerance_rejected(self, key):
        from fsilab.configio import build_coupling_config

        with pytest.raises(ContractError, match=f"{key} must be positive and finite"):
            build_coupling_config(parse_config_text(f"{key} = nan\n"))

    def test_malformed_line(self):
        with pytest.raises(TableParseError) as err:
            parse_config_text("just words\n", source="f")
        assert err.value.line == 1

    def test_shipped_tube_config_loads(self):
        cfg = parse_config(data_path("tube1d.cfg"))
        assert cfg["model"] == "tube1d"
        assert cfg["grid_f"] == "1,2,3,inf"


class TestSweepSpecValidation:
    def test_reference_cell_required(self):
        with pytest.raises(SweepSpecError):
            SweepSpec(config={}, grid_f=[1, 2], grid_s=[1, math.inf])

    def test_duplicate_grid_entries(self):
        with pytest.raises(SweepSpecError):
            SweepSpec(config={}, grid_f=[1, 1, math.inf], grid_s=[math.inf])

    def test_empty_grid(self):
        with pytest.raises(SweepSpecError):
            SweepSpec(config={}, grid_f=[], grid_s=[math.inf])


class TestRunSweep:
    def test_single_reference_cell_normalizes_to_one(self, tmp_path):
        spec = SweepSpec(config=dict(LINEAR_TOY_STABLE), grid_f=[math.inf],
                         grid_s=[math.inf], out_dir=tmp_path)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        assert result.rows[0].teq_norm == 1.0
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0].startswith("nmax_f,nmax_s,converged")

    def test_grid_rows_ordered_and_reference_deviation_zero(self, tmp_path):
        spec = SweepSpec(config=dict(LINEAR_TOY_STABLE), grid_f=[2, math.inf],
                         grid_s=[1, math.inf], out_dir=tmp_path)
        result = run_sweep(spec)
        keys = [(r.nmax_f, r.nmax_s) for r in result.rows]
        assert keys == [(2, 1), (2, math.inf), (math.inf, 1), (math.inf, math.inf)]
        ref = result.row(math.inf, math.inf)
        assert ref.max_dev == 0.0
        assert all(r.converged for r in result.rows)
        assert all(r.max_dev <= 1e-9 for r in result.rows)

    def test_diverged_cells_emit_counts_and_blank_derived_columns(self, tmp_path):
        spec = SweepSpec(config=dict(LINEAR_TOY_UNSTABLE_CONSTANT),
                         grid_f=[math.inf], grid_s=[1, math.inf], out_dir=tmp_path)
        result = run_sweep(spec)
        for row in result.rows:
            assert not row.converged
            assert row.n_c > 0
            assert row.teq is None and row.teq_norm is None and row.max_dev is None
        reread = read_sweep_csv(tmp_path / "sweep.csv")
        assert all(not r.converged and r.teq_norm is None for r in reread)

    def test_measured_timing_requires_one_worker(self, tmp_path):
        # parallel cells would contend for cores and bias the self-fit
        for cfg in (dict(LINEAR_TOY_STABLE), dict(LINEAR_TOY_STABLE, timing="measured")):
            spec = SweepSpec(config=cfg, grid_f=[math.inf], grid_s=[math.inf],
                             workers=2, out_dir=tmp_path)
            with pytest.raises(SweepSpecError, match="measured requires workers = 1"):
                run_sweep(spec)
        assert not (tmp_path / "sweep.csv").exists()

    def test_modeled_timing_requires_factors(self, tmp_path):
        cfg = dict(LINEAR_TOY_STABLE, timing="modeled")
        spec = SweepSpec(config=cfg, grid_f=[math.inf], grid_s=[math.inf],
                         out_dir=tmp_path)
        with pytest.raises(SweepSpecError):
            run_sweep(spec)

    def test_tube_grid_deviation_column(self, tmp_path):
        cfg = {"model": "tube1d", "cells": "60", "steps": "15"}
        spec = SweepSpec(config=cfg, grid_f=[2, math.inf], grid_s=[3, math.inf],
                         out_dir=tmp_path)
        result = run_sweep(spec)
        assert all(r.converged for r in result.rows)
        assert all(r.max_dev <= 1e-8 for r in result.rows)
        assert all(r.n_f >= r.n_c and r.n_s >= r.n_c for r in result.rows)
        ref = result.row(math.inf, math.inf)
        assert ref.teq_norm == 1.0

    def test_measured_self_fit_is_fit_from_runs(self, tmp_path):
        # fsilab prices itself: the factors the sweep fits to its own measured
        # timings are exactly what fit_from_runs recovers from its sweep.csv
        cfg = {"model": "tube1d", "cells": "40", "steps": "5"}
        spec = SweepSpec(config=cfg, grid_f=[1, 2, math.inf], grid_s=[1, math.inf],
                         out_dir=tmp_path)
        result = run_sweep(spec)
        assert sum(r.converged for r in result.rows) >= 3
        fitted, _ = fit_from_runs(result.csv_path)
        assert result.factors == fitted
        assert result.factors != CostFactors(c_couple=1.0, c_iter_f=1.0, c_iter_s=1.0)

    def test_self_fit_falls_back_to_unit_factors_below_three_cells(self, tmp_path):
        spec = SweepSpec(config=dict(LINEAR_TOY_STABLE), grid_f=[math.inf],
                         grid_s=[1, math.inf], out_dir=tmp_path)
        result = run_sweep(spec)
        assert all(r.converged for r in result.rows) and len(result.rows) == 2
        assert result.factors == CostFactors(c_couple=1.0, c_iter_f=1.0, c_iter_s=1.0)
        assert result.row(math.inf, math.inf).teq_norm == 1.0

    def test_modeled_timing_deterministic_across_runs_and_workers(self, tmp_path):
        cfg = dict(LINEAR_TOY_STABLE, timing="modeled",
                   cost_c_couple="0.01", cost_c_fix_f="0.2", cost_c_iter_f="0.05",
                   cost_c_fix_s="0.1", cost_c_iter_s="0.02")
        texts = []
        for workers, sub in ((1, "a"), (1, "b"), (2, "c")):
            out = tmp_path / sub
            spec = SweepSpec(config=cfg, grid_f=[1, math.inf], grid_s=[2, math.inf],
                             workers=workers, out_dir=out)
            run_sweep(spec)
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1] == texts[2]


class TestContour:
    def _sweep(self, tmp_path):
        spec = SweepSpec(config=dict(LINEAR_TOY_STABLE), grid_f=[2, math.inf],
                         grid_s=[1, math.inf], out_dir=tmp_path)
        run_sweep(spec)
        return tmp_path / "sweep.csv"

    def test_shape_includes_headers(self, tmp_path):
        path = self._sweep(tmp_path)
        out = emit_contour(path, "N_c", tmp_path)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == ",1,inf"
        assert lines[1].startswith("2,") and lines[2].startswith("inf,")

    def test_reference_cell_prints_one(self, tmp_path):
        path = self._sweep(tmp_path)
        out = emit_contour(path, "teq_norm", tmp_path)
        assert out.read_text().strip().splitlines()[-1].endswith(",1.0")

    def test_round_trip_matches_sweep_rows(self, tmp_path):
        path = self._sweep(tmp_path)
        rows = {(r.nmax_f, r.nmax_s): r for r in read_sweep_csv(path)}
        lines = emit_contour(path, "N_c", tmp_path).read_text().strip().splitlines()
        grid_s = [s for s in lines[0].split(",")[1:]]
        for line in lines[1:]:
            fields = line.split(",")
            for s_label, value in zip(grid_s, fields[1:]):
                from fsilab.interface import parse_cap

                row = rows[(parse_cap(fields[0]), parse_cap(s_label))]
                assert int(value) == row.n_c

    def test_diverged_cells_blank(self, tmp_path):
        spec = SweepSpec(config=dict(LINEAR_TOY_UNSTABLE_CONSTANT),
                         grid_f=[math.inf], grid_s=[1, math.inf], out_dir=tmp_path)
        run_sweep(spec)
        lines = emit_contour(tmp_path / "sweep.csv", "teq_norm",
                             tmp_path).read_text().strip().splitlines()
        assert lines[1] == "inf,,"

    def test_ragged_grid_rejected(self, tmp_path):
        path = self._sweep(tmp_path)
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(SweepSpecError):
            emit_contour(path, "N_c", tmp_path)


class TestReplayPublished:
    @pytest.mark.parametrize("case", PUBLISHED_TABLES)
    def test_all_shipped_tables_pass(self, case):
        factors, gamma = load_factors_csv(regression_summary_path(), case=case)
        report = replay_published(published_table_path(case), factors)
        assert report.passed, report.summary()
        assert report.max_abs_err <= 0.01

    def test_spot_cells(self):
        factors, _ = load_factors_csv(regression_summary_path(), case="fe_fe_tube")
        report = replay_published(published_table_path("fe_fe_tube"), factors)
        cell = next(r for r in report.rows if r.nmax_f == 1 and r.nmax_s == 1)
        assert cell.published == 0.79
        assert cell.recomputed == pytest.approx(0.794, abs=5e-4)

    def test_negative_control_names_offending_cell(self, tmp_path):
        src = published_table_path("fe_fe_tube").read_text()
        lines = src.splitlines()
        # perturb the (2, 1) cell's published value by 0.05
        for i, line in enumerate(lines):
            if line.startswith("2,1,"):
                fields = line.split(",")
                fields[2] = f"{float(fields[2]) + 0.05:.2f}"
                lines[i] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        factors, _ = load_factors_csv(regression_summary_path(), case="fe_fe_tube")
        report = replay_published(bad, factors)
        assert not report.passed
        assert [(r.nmax_f, r.nmax_s) for r in report.failures] == [(2, 1)]
        assert "(2, 1)" in report.summary()

    def test_malformed_csv_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\n1,1,0.5,10\n")
        with pytest.raises(TableParseError) as err:
            replay_published(bad, CostFactors(c_couple=1.0))
        assert err.value.line == 2

    def test_partial_missing_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\ninf,inf,1.0,1,1,1\n1,1,,3,,\n")
        with pytest.raises(TableParseError):
            replay_published(bad, CostFactors(c_couple=1.0))


class TestFitFromRuns:
    TRUE = CostFactors(c_couple=0.0795, c_fix_f=1.1542, c_iter_f=0.1068,
                       c_fix_s=0.1587, c_iter_s=0.2510)

    def test_exact_synthetic_recovery(self, tmp_path):
        counters = load_published_counters("fv_fe_tube")
        path = synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters)
        fitted, report = fit_from_runs(path)
        for name in ("c_couple", "c_fix_f", "c_iter_f", "c_fix_s", "c_iter_s"):
            assert getattr(fitted, name) == pytest.approx(getattr(self.TRUE, name),
                                                          rel=1e-10, abs=1e-12)
        assert report.rrmse_flow == pytest.approx(0.0, abs=1e-12)
        assert report.mape == pytest.approx(0.0, abs=1e-12)

    def test_seeded_noise_recovery_within_bounds(self, tmp_path):
        counters = load_published_counters("fv_fe_tube")
        path = synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters,
                                    noise_rel=0.01, seed=20240817)
        fitted, report = fit_from_runs(path)
        for name in ("c_couple", "c_fix_f", "c_iter_f", "c_fix_s", "c_iter_s"):
            rel = abs(getattr(fitted, name) / getattr(self.TRUE, name) - 1.0)
            assert rel <= 0.05
        assert report.mape <= 0.02

    def test_two_rows_rank_deficient(self, tmp_path):
        counters = load_published_counters("fv_fe_tube")[:2]
        path = synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters)
        with pytest.raises(RankDeficiencyError):
            fit_from_runs(path)

    def test_negative_coefficients_clamped(self, tmp_path):
        # flow time decreasing in N_c at fixed N_f: the raw least-squares
        # c_fix_f is negative, the shipped factors must not be
        header = ("nmax_f,nmax_s,converged,N_c,N_f,N_s,"
                  "T_f,T_s,T_c,teq,teq_norm,max_dev_vs_reference")
        rows = [
            "1,1,true,10,100,40,6.0,1.0,0.1,,,",
            "2,1,true,50,100,60,5.0,1.4,0.5,,,",
            "inf,inf,true,30,100,90,5.5,1.8,0.3,,,",
        ]
        path = tmp_path / "s.csv"
        path.write_text("\n".join([header] + rows) + "\n")
        raw = np.linalg.solve(*(lambda x, t: (x.T @ x, x.T @ t))(
            np.array([[10.0, 100.0], [50.0, 100.0], [30.0, 100.0]]),
            np.array([6.0, 5.0, 5.5])))
        assert raw[0] < 0  # the unconstrained fit really is negative
        factors, _ = fit_from_runs(path)
        assert factors.c_fix_f == 0.0
        assert factors.c_iter_f > 0.0


class TestShippedData:
    def test_gamma_consistency_all_rows(self):
        rows = regression_summary_path().read_text().strip().splitlines()
        data = [r for r in rows if r and not r.startswith("#") and not r.startswith("case")]
        assert len(data) == 4
        for line in data:
            f = line.split(",")
            total = float(f[5]) + float(f[1]) + float(f[3])  # c_couple + c_fix_f + c_fix_s
            assert total == pytest.approx(float(f[6]), abs=5e-5)

    @pytest.mark.parametrize("case,rows,missing", [
        ("fe_fe_cavity", 16, 0), ("fv_fe_cavity", 60, 4),
        ("fe_fe_tube", 16, 0), ("fv_fe_tube", 56, 4),
    ])
    def test_table_shapes(self, case, rows, missing):
        lines = [l for l in published_table_path(case).read_text().splitlines()
                 if l and not l.startswith("#")][1:]
        assert len(lines) == rows
        assert sum(1 for l in lines if l.split(",")[2] == "") == missing
