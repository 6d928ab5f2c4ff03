import math
import re
from dataclasses import replace

import numpy as np
import pytest

from fsilab.configio import (
    PUBLISHED_TABLES,
    _read_published_table,
    data_path,
    fmt,
    load,
    load_factors_csv,
    load_published_counters,
    parse_config,
    parse_config_text,
    published_table_path,
    read_csv_rows,
    regression_summary_path,
)
from fsilab.costmodel import CostFactors, equivalent_time
from fsilab.errors import ContractError, RankDeficiencyError, SweepSpecError, TableParseError
from fsilab.harness import (
    SWEEP_COLUMNS,
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
            "criterion = fixed_point\neps_c = 1e-7\nmax_coupling_iters = 50\n"))
        assert cfg.n_max_f == 3 and cfg.n_max_s == math.inf
        assert (cfg.eps_f, cfg.eps_s, cfg.eps_fil) == (1e-8, 1e-2, 1e-10)
        assert cfg.reuse_q == 2 and cfg.omega0 == 0.3
        assert cfg.accel is AccelKind.AITKEN
        assert cfg.criterion is CriterionKind.FIXED_POINT_NORM
        assert cfg.eps_c == 1e-7
        assert cfg.max_coupling_iters == 50

    def test_model_keys_mapped(self):
        from fsilab.configio import build_model
        from fsilab.models import LinearToyModel, Tube1DModel
        from fsilab import DriverKind

        tube = build_model(parse_config_text(
            "model = tube1d\ncells = 40\nsteps = 7\nkappa3 = 1e12\n"
            "flow_scheme = picard\n"))
        assert isinstance(tube, Tube1DModel)
        assert tube.params.cells == 40 and tube.params.steps == 7
        assert tube.params.kappa3 == 1e12
        assert tube.params.flow_scheme is DriverKind.PICARD

        toy = build_model(parse_config_text(
            "model = linear_toy\ndim_f = 3\ndim_s = 5\ncoupling_strength = 0.2\n"))
        assert isinstance(toy, LinearToyModel)
        assert (toy.dim_f, toy.dim_s) == (3, 5)
        g = np.linalg.solve(toy.A_s, toy.B_s) @ np.linalg.solve(toy.A_f, toy.B_f)
        assert max(abs(np.linalg.eigvals(g))) == pytest.approx(0.2, rel=1e-10)

    def test_missing_keys_take_the_receivers_defaults(self):
        from fsilab import CouplingConfig
        from fsilab.configio import load
        from fsilab.models import LinearToyModel, Tube1DModel
        from fsilab.models.tube import Tube1DParams

        loaded = load({})
        assert loaded.coupling == CouplingConfig()
        assert loaded.factors is None and loaded.sweep == {}
        tube = loaded.model
        assert isinstance(tube, Tube1DModel) and tube.params == Tube1DParams()
        toy, ref = load({"model": "linear_toy"}).model, LinearToyModel()
        assert (toy.dim_f, toy.dim_s, toy.n_steps) == (ref.dim_f, ref.dim_s, ref.n_steps)
        assert toy.B_f.tobytes() == ref.B_f.tobytes()  # scaled to the default strength
        assert load({"cost_c_iter_f": "2"}).factors == CostFactors(c_iter_f=2.0)
        assert load({"workers": "3", "grid_f": "1,inf"}).sweep == {"workers": 3,
                                                                   "grid_f": [1, math.inf]}

    def test_shipped_config_is_the_code_defaults(self):
        # the benchmark runs tube1d.cfg and the acceptance fixtures the
        # dataclasses' defaults: a default changed in one place only would
        # split what the two measure
        from fsilab import CouplingConfig
        from fsilab.models.tube import Tube1DParams

        shipped = load(parse_config(data_path("tube1d.cfg")))
        assert shipped.coupling == CouplingConfig()
        assert shipped.model.params == Tube1DParams()

    @pytest.mark.parametrize("key", ["eps_f", "eps_s", "eps_fil", "eps_c"])
    def test_non_finite_tolerance_rejected(self, key):
        from fsilab.configio import build_coupling_config

        with pytest.raises(ContractError, match=f"{key} must be positive and finite"):
            build_coupling_config(parse_config_text(f"{key} = nan\n"))

    @pytest.mark.parametrize("build", ["build_model", "build_coupling_config"])
    def test_unknown_key_rejected_with_the_nearest_known_key(self, build):
        import fsilab.configio as configio

        with pytest.raises(ContractError,
                           match=r"^unknown config key 'acel'; did you mean 'accel'\?$"):
            getattr(configio, build)({"accel": "constant", "acel": "constant"})
        with pytest.raises(ContractError, match=r"^unknown config key 'zzz'$"):
            getattr(configio, build)({"zzz": "1"})

    def test_key_tables_are_the_keywords_of_the_objects_they_feed(self):
        # a new constructor argument must not become a config key unnoticed
        import fsilab.configio as configio

        assert set(configio._COUPLING_KEYS) == {
            "n_max_f", "n_max_s", "eps_f", "eps_s", "eps_fil", "reuse_q", "omega0", "accel",
            "criterion", "eps_c", "max_coupling_iters"}
        assert set(configio._COST_KEYS) == {
            "cost_c_couple", "cost_c_fix_f", "cost_c_iter_f", "cost_c_fix_s", "cost_c_iter_s"}
        model_keys = {name: set(keys) for name, (_, keys) in configio._MODELS.items()}
        assert model_keys == {
            "tube1d": {"flow_scheme", "length", "radius", "thickness", "rho_f", "rho_s",
                       "youngs_modulus", "poisson", "cells", "dt", "steps", "inlet_pulse",
                       "pulse_duration", "outlet_pressure", "kappa3"},
            "linear_toy": {"dim_f", "dim_s", "coupling_strength", "steps"},
        }
        # the shipped tube config documents every tube key
        assert model_keys["tube1d"] <= set(parse_config(data_path("tube1d.cfg")))

    @pytest.mark.parametrize("build", ["build_model", "build_coupling_config"])
    @pytest.mark.parametrize("cfg, key", [
        ({"model": "linear_toy", "cells": "7", "kappa3": "nan"}, "cells"),
        # kappa was a key of the removed scalar toy
        ({"model": "tube1d", "kappa": "0.5"}, "kappa"),
    ], ids=["tube-key-on-linear-toy", "scalar-key-on-tube"])
    def test_key_of_another_model_rejected(self, build, cfg, key):
        import fsilab.configio as configio

        with pytest.raises(ContractError, match=f"^unknown config key '{key}'"):
            getattr(configio, build)(cfg)

    @pytest.mark.parametrize("build", ["build_model", "build_coupling_config"])
    def test_key_of_another_model_names_that_model(self, build):
        # no did-you-mean guess: difflib's nearest key to cells on the linear
        # toy is the unrelated coupling key accel
        import fsilab.configio as configio

        with pytest.raises(ContractError) as err:
            getattr(configio, build)({"model": "linear_toy", "cells": "7"})
        assert str(err.value) == ("unknown config key 'cells' for model 'linear_toy'; "
                                  "'cells' is a key of model 'tube1d'")
        with pytest.raises(ContractError) as err:
            getattr(configio, build)({"dim_f": "3"})
        assert str(err.value) == ("unknown config key 'dim_f' for model 'tube1d'; "
                                  "'dim_f' is a key of model 'linear_toy'")

    def test_hint_needs_a_close_key(self):
        # eps is no misspelt steps, though difflib's default cutoff says so
        from fsilab.configio import build_model

        for model in ("tube1d", "linear_toy"):
            with pytest.raises(ContractError) as err:
                build_model({"model": model, "eps": "1e-9"})
            assert str(err.value) == "unknown config key 'eps'"

    def test_hint_draws_only_from_the_configs_own_model(self):
        # the removed tube key mu_f used to be pointed at the linear toy's dim_f
        from fsilab.configio import build_model

        with pytest.raises(ContractError) as err:
            build_model({"mu_f": "0.003"})
        assert str(err.value) == "unknown config key 'mu_f'"

    @pytest.mark.parametrize("build", ["build_model", "build_coupling_config"])
    def test_removed_names_fail_loudly(self, build):
        # the flow batch size, the relative fixed-point test, the sweep's timing
        # noise and the scalar toy are gone: none may be ignored
        import fsilab.configio as configio

        shipped = parse_config(data_path("tube1d.cfg"))
        for key, value in (("batch_size_f", "1"), ("criterion_relative", "true"),
                           ("noise_rel", "0.01")):
            with pytest.raises(ContractError, match=rf"^unknown config key '{key}'$"):
                getattr(configio, build)({**shipped, key: value})
        with pytest.raises(ContractError, match=r"^unknown model 'scalar_toy' "
                                                r"\(expected tube1d, linear_toy\)$"):
            getattr(configio, build)({"model": "scalar_toy"})

    def test_malformed_line(self):
        with pytest.raises(TableParseError, match="^f:1: expected 'key = value'$"):
            parse_config_text("just words\n", source="f")

    def test_shipped_tube_config_loads(self):
        cfg = parse_config(data_path("tube1d.cfg"))
        assert cfg["model"] == "tube1d"
        assert cfg["grid_f"] == "1,2,3,inf"

    @pytest.mark.parametrize("key", ["grid_f", "grid_s"])
    def test_bad_grid_value_names_its_key(self, key, tmp_path):
        # it used to name only the value, unlike every other key
        cfg = {"grid_f": "1,inf", "grid_s": "2,inf", key: "1,x"}
        with pytest.raises(ContractError,
                           match=rf"^config key '{key}': cannot parse cap value 'x'$"):
            SweepSpec.from_config(cfg, tmp_path)


class TestSweepSpecValidation:
    def test_reference_cell_required(self, tmp_path):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_config({"grid_f": "1,2", "grid_s": "1,inf"}, tmp_path)

    def test_duplicate_grid_entries(self, tmp_path):
        with pytest.raises(SweepSpecError):
            SweepSpec.from_config({"grid_f": "1,1,inf", "grid_s": "inf"}, tmp_path)

    def test_empty_grid(self, tmp_path):
        # a config cannot spell an empty grid, and a hand-built one has no
        # reference cell
        with pytest.raises(SweepSpecError, match="config key 'grid_f': cannot parse"):
            SweepSpec.from_config({"grid_f": "", "grid_s": "inf"}, tmp_path)
        loaded = load({"grid_f": "inf", "grid_s": "inf"})
        for grid_f, grid_s in (([], [math.inf]), ([math.inf], [])):
            with pytest.raises(SweepSpecError, match=r"the \(inf, inf\) reference cell"):
                SweepSpec(replace(loaded, sweep={"grid_f": grid_f, "grid_s": grid_s}),
                          tmp_path)


class TestRunSweep:
    def test_single_reference_cell_normalizes_to_one(self, tmp_path):
        spec = SweepSpec.from_config(dict(LINEAR_TOY_STABLE, grid_f="inf", grid_s="inf"),
                                     out_dir=tmp_path)
        result = run_sweep(spec)
        assert len(result.rows) == 1
        assert result.rows[0].teq_norm == 1.0
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0].startswith("nmax_f,nmax_s,converged")

    def test_grid_rows_ordered_and_reference_deviation_zero(self, tmp_path):
        spec = SweepSpec.from_config(dict(LINEAR_TOY_STABLE, grid_f="2,inf", grid_s="1,inf"),
                                     out_dir=tmp_path)
        result = run_sweep(spec)
        keys = [(r.nmax_f, r.nmax_s) for r in result.rows]
        assert keys == [(2, 1), (2, math.inf), (math.inf, 1), (math.inf, math.inf)]
        ref = result.rows[-1]  # the (inf, inf) reference cell
        assert ref.max_dev == 0.0
        assert all(r.converged for r in result.rows)
        assert all(r.max_dev <= 1e-9 for r in result.rows)

    def test_diverged_cells_emit_counts_and_blank_derived_columns(self, tmp_path):
        spec = SweepSpec.from_config(
            dict(LINEAR_TOY_UNSTABLE_CONSTANT, grid_f="inf", grid_s="1,inf"), out_dir=tmp_path)
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
            with pytest.raises(SweepSpecError, match="measured requires workers = 1"):
                run_sweep(SweepSpec.from_config(dict(cfg, grid_f="inf", grid_s="inf"),
                                                out_dir=tmp_path, workers=2))
        assert not (tmp_path / "sweep.csv").exists()

    def test_modeled_timing_requires_factors(self, tmp_path):
        cfg = dict(LINEAR_TOY_STABLE, timing="modeled", grid_f="inf", grid_s="inf")
        with pytest.raises(SweepSpecError):
            run_sweep(SweepSpec.from_config(cfg, out_dir=tmp_path))

    @pytest.mark.parametrize("extra, spec_kw, match", [
        ({"timing": "modeld"}, {}, "unknown timing mode 'modeld'"),
        ({"timing": "modeled"}, {}, "requires cost_"),
        ({"timing": "measured"}, {"workers": 2}, "requires workers = 1"),
        ({"timing": "modeled", "cost_c_fix_f": "0.5"}, {"workers": 1.5},
         r"^workers must be an integer >= 1, got 1\.5$"),
        ({}, {"workers": "2"}, "^workers must be an integer >= 1, got '2'$"),
        ({}, {"workers": True}, "^workers must be an integer >= 1, got True$"),
    ],
        ids=["unknown-mode", "modeled-without-factors", "measured-parallel",
             "float-workers", "str-workers", "bool-workers"])
    def test_spec_errors_raise_before_any_cell_runs(self, tmp_path, monkeypatch,
                                                    extra, spec_kw, match):
        import fsilab.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "_run_cell",
                            lambda *args: calls.append(args) or {})
        cfg = dict(LINEAR_TOY_STABLE, grid_f="1,inf", grid_s="inf", **extra)
        with pytest.raises(SweepSpecError, match=match):
            run_sweep(SweepSpec.from_config(cfg, out_dir=tmp_path, **spec_kw))
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key, value", [("cost_c_iter_f", "nan"),
                                            ("cost_c_couple", "inf")])
    def test_non_finite_cost_factor_raises_before_any_cell_runs(self, tmp_path, monkeypatch,
                                                                key, value):
        # a modeled sweep used to write nan or inf into teq and teq_norm
        import fsilab.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "_run_cell",
                            lambda *args: calls.append(args) or {})
        cfg = dict(LINEAR_TOY_STABLE, timing="modeled", cost_c_fix_f="0.5", grid_f="1,inf",
                   grid_s="inf", **{key: value})
        with pytest.raises(ContractError, match=f"'{key[len('cost_'):]}' must be finite"):
            run_sweep(SweepSpec.from_config(cfg, out_dir=tmp_path))
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_out_dir_that_is_a_file_raises_before_any_cell_runs(self, tmp_path, monkeypatch):
        # a sweep into an existing file used to run every cell and then fail
        import fsilab.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "_run_cell",
                            lambda *args: calls.append(args) or {})
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = dict(LINEAR_TOY_STABLE, grid_f="1,inf", grid_s="inf")
        with pytest.raises(OSError):
            run_sweep(SweepSpec.from_config(cfg, out_dir=afile))
        assert calls == []

    def test_str_out_dir_is_a_path(self, tmp_path):
        # a str out_dir used to run every cell and then fail to mkdir
        out = tmp_path / "outdir"
        spec = SweepSpec(load(dict(LINEAR_TOY_STABLE, grid_f="inf", grid_s="inf")), str(out))
        assert spec.out_dir == out
        assert run_sweep(spec).csv_path == out / "sweep.csv"
        assert read_sweep_csv(out / "sweep.csv")[0].converged

    def test_unknown_key_raises_before_any_cell_runs(self, tmp_path, monkeypatch):
        import fsilab.harness as harness_mod

        calls = []
        monkeypatch.setattr(harness_mod, "_run_cell",
                            lambda *args: calls.append(args) or {})
        cfg = dict(LINEAR_TOY_STABLE, grid_f="1,inf", grid_s="inf", wokers="1")
        with pytest.raises(ContractError, match="'wokers'; did you mean 'workers'"):
            run_sweep(SweepSpec.from_config(cfg, out_dir=tmp_path))
        assert calls == []
        assert not (tmp_path / "sweep.csv").exists()

    def test_tube_grid_deviation_column(self, tmp_path):
        cfg = {"model": "tube1d", "cells": "60", "steps": "15", "grid_f": "2,inf",
               "grid_s": "3,inf"}
        spec = SweepSpec.from_config(cfg, out_dir=tmp_path)
        result = run_sweep(spec)
        assert all(r.converged for r in result.rows)
        assert all(r.max_dev <= 1e-8 for r in result.rows)
        assert all(r.n_f >= r.n_c and r.n_s >= r.n_c for r in result.rows)
        ref = result.rows[-1]  # the (inf, inf) reference cell
        assert ref.teq_norm == 1.0

    def test_measured_self_fit_is_fit_from_runs(self, tmp_path):
        # fsilab prices itself: the factors the sweep fits to its own measured
        # timings are exactly what fit_from_runs recovers from its sweep.csv
        cfg = {"model": "tube1d", "cells": "40", "steps": "5", "grid_f": "1,2,inf",
               "grid_s": "1,inf"}
        spec = SweepSpec.from_config(cfg, out_dir=tmp_path)
        result = run_sweep(spec)
        assert sum(r.converged for r in result.rows) >= 3
        fitted, _ = fit_from_runs(result.csv_path)
        assert fitted != CostFactors(c_couple=1.0, c_iter_f=1.0, c_iter_s=1.0)
        # the sweep priced its rows with those very factors
        assert [r.teq for r in result.rows] == [
            equivalent_time((r.n_c, r.n_f, r.n_s), fitted) for r in result.rows]

    def test_self_fit_falls_back_to_unit_factors_below_three_cells(self, tmp_path):
        spec = SweepSpec.from_config(dict(LINEAR_TOY_STABLE, grid_f="inf", grid_s="1,inf"),
                                     out_dir=tmp_path)
        result = run_sweep(spec)
        assert all(r.converged for r in result.rows) and len(result.rows) == 2
        unit = CostFactors(c_couple=1.0, c_iter_f=1.0, c_iter_s=1.0)
        assert [r.teq for r in result.rows] == [
            equivalent_time((r.n_c, r.n_f, r.n_s), unit) for r in result.rows]
        assert result.rows[-1].teq_norm == 1.0  # the (inf, inf) reference cell

    @pytest.mark.parametrize("grid", [[math.inf], [1, math.inf]], ids=["1-cell", "4-cell"])
    def test_keys_are_checked_and_the_model_built_once_per_sweep(self, tmp_path,
                                                                 monkeypatch, grid):
        import fsilab.configio as configio
        import fsilab.harness as harness_mod
        from fsilab.models import LinearToyModel

        calls = {"loads": 0, "builds": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness_mod, "load", counted("loads", configio.load))
        monkeypatch.setitem(configio._MODELS, "linear_toy",
                            (counted("builds", LinearToyModel), configio._MODELS["linear_toy"][1]))
        caps = ",".join(map(str, grid))
        result = run_sweep(SweepSpec.from_config(dict(LINEAR_TOY_STABLE, grid_f=caps,
                                                      grid_s=caps), out_dir=tmp_path))
        assert len(result.rows) == len(grid) ** 2
        # one load, SweepSpec.from_config's, checks the keys and builds the model,
        # the coupling config, the factors and the sweep settings; run_sweep loads none
        assert calls == {"loads": 1, "builds": 1}

    def test_sweep_keys_are_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        # run_sweep used to load the config again, parsing every sweep key twice
        import fsilab.configio as configio

        calls = dict.fromkeys(configio._SWEEP_KEYS, 0)
        for key, (name, parse) in configio._SWEEP_KEYS.items():
            def counted(text, key=key, parse=parse):
                calls[key] += 1
                return parse(text)
            monkeypatch.setitem(configio._SWEEP_KEYS, key, (name, counted))
        cfg = dict(LINEAR_TOY_STABLE, grid_f="1,inf", grid_s="inf", workers="1",
                   timing="measured")
        result = run_sweep(SweepSpec.from_config(cfg, out_dir=tmp_path))
        assert len(result.rows) == 2
        assert calls == {"grid_f": 1, "grid_s": 1, "workers": 1, "timing": 1}

    def test_modeled_tube_sweep_is_byte_identical_across_workers(self, tmp_path):
        # the built Tube1DModel crosses the process boundary to the workers
        cfg = {"model": "tube1d", "cells": "20", "steps": "2", "timing": "modeled",
               "cost_c_couple": "0.1873", "cost_c_fix_f": "0.6459", "cost_c_iter_f": "1.4756",
               "cost_c_fix_s": "0.0128", "cost_c_iter_s": "0.2076"}
        texts = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_sweep(SweepSpec.from_config(dict(cfg, grid_f="1,inf", grid_s="1,inf"),
                                            out_dir=out, workers=workers))
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].count(b"\n") == 5 and b",false," not in texts[0]

    def test_modeled_timing_deterministic_across_runs_and_workers(self, tmp_path):
        cfg = dict(LINEAR_TOY_STABLE, timing="modeled",
                   cost_c_couple="0.01", cost_c_fix_f="0.2", cost_c_iter_f="0.05",
                   cost_c_fix_s="0.1", cost_c_iter_s="0.02")
        texts = []
        for workers, sub in ((1, "a"), (1, "b"), (2, "c")):
            out = tmp_path / sub
            spec = SweepSpec.from_config(dict(cfg, grid_f="1,inf", grid_s="2,inf"),
                                         out_dir=out, workers=workers)
            run_sweep(spec)
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1] == texts[2]


class TestContour:
    def _sweep(self, tmp_path):
        spec = SweepSpec.from_config(dict(LINEAR_TOY_STABLE, grid_f="2,inf", grid_s="1,inf"),
                                     out_dir=tmp_path)
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
        spec = SweepSpec.from_config(
            dict(LINEAR_TOY_UNSTABLE_CONSTANT, grid_f="inf", grid_s="1,inf"), out_dir=tmp_path)
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

    def test_nan_published_value_fails(self, tmp_path):
        # an error of nan is not within tolerance; it used to PASS
        src = published_table_path("fe_fe_tube").read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(src.replace("\n2,1,0.91,", "\n2,1,nan,"))
        factors, _ = load_factors_csv(regression_summary_path(), case="fe_fe_tube")
        report = replay_published(bad, factors)
        assert not report.passed
        assert [(r.nmax_f, r.nmax_s) for r in report.failures] == [(2, 1)]
        assert math.isnan(report.max_abs_err)
        assert "max abs error nan" in report.summary()

    def test_malformed_csv_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\n1,1,0.5,10\n")
        with pytest.raises(TableParseError, match=f"^{re.escape(str(bad))}:2: expected 6 fields$"):
            replay_published(bad, CostFactors(c_couple=1.0))

    def test_partial_missing_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\ninf,inf,1.0,1,1,1\n1,1,,3,,\n")
        with pytest.raises(TableParseError):
            replay_published(bad, CostFactors(c_couple=1.0))

    @pytest.mark.parametrize("case", PUBLISHED_TABLES)
    def test_counters_are_the_replayed_rows(self, case):
        # the fit's counters and the replay come from the same parsed rows
        factors, _ = load_factors_csv(regression_summary_path(), case=case)
        report = replay_published(published_table_path(case), factors)
        counters = load_published_counters(case)
        assert [(f, s) for f, s, *_ in counters] == [(r.nmax_f, r.nmax_s)
                                                     for r in report.rows]

    def test_case_needs_a_case_column(self, tmp_path):
        # a file without a case column used to hand back its one row for any case
        factors = tmp_path / "factors.csv"
        factors.write_text("c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple\n1,1,1,1,1\n")
        assert load_factors_csv(factors)[0] == CostFactors(1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(TableParseError, match="no 'case' column to select "
                                                  "case='no_such_case'"):
            load_factors_csv(factors, case="no_such_case")

    @pytest.mark.parametrize("cases, count", [("b", 0), ("a,a", 2)], ids=["none", "two"])
    def test_case_must_select_one_row(self, tmp_path, cases, count):
        # two rows of the case used to get advice to use case=, which was used
        factors = tmp_path / "factors.csv"
        factors.write_text("case,c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple\n"
                           + "".join(f"{c},1,1,1,1,1\n" for c in cases.split(",")))
        with pytest.raises(TableParseError, match=f"expected one row with case='a', "
                                                  f"got {count}$"):
            load_factors_csv(factors, case="a")

    def test_wrong_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nmax_f,nmax_s,N_c,N_f,N_s,teq_norm\ninf,inf,1,1,1,1.0\n")
        with pytest.raises(TableParseError, match=f"^{re.escape(str(bad))}:1: expected header "):
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

    def test_numpy_scalar_factors_round_trip(self, tmp_path):
        # numpy scalars used to reach the CSV as their repr, np.float64(...)
        counters = load_published_counters("fv_fe_tube")
        as_numpy = CostFactors(**{name: np.float64(getattr(self.TRUE, name)) for name in
                                  ("c_couple", "c_fix_f", "c_iter_f", "c_fix_s", "c_iter_s")})
        path = synthesize_sweep_csv(tmp_path / "s.csv", as_numpy, counters)
        plain = synthesize_sweep_csv(tmp_path / "plain.csv", self.TRUE, counters)
        assert path.read_bytes() == plain.read_bytes()
        assert len(read_sweep_csv(path)) == len(counters)

    def test_seeded_noise_recovery_within_bounds(self, tmp_path):
        counters = load_published_counters("fv_fe_tube")
        path = synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters,
                                    noise_rel=0.01, seed=20240817)
        fitted, report = fit_from_runs(path)
        for name in ("c_couple", "c_fix_f", "c_iter_f", "c_fix_s", "c_iter_s"):
            rel = abs(getattr(fitted, name) / getattr(self.TRUE, name) - 1.0)
            assert rel <= 0.05
        assert report.mape <= 0.02

    @pytest.mark.parametrize("noise_rel", [math.nan, -0.5, 1.0])
    def test_noise_outside_unit_interval_rejected(self, tmp_path, noise_rel):
        counters = load_published_counters("fv_fe_tube")
        with pytest.raises(SweepSpecError, match="noise_rel"):
            synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters,
                                 noise_rel=noise_rel, seed=1)
        assert not (tmp_path / "s.csv").exists()

    def test_negative_seed_rejected(self, tmp_path):
        counters = load_published_counters("fv_fe_tube")
        with pytest.raises(SweepSpecError, match="seed must be a non-negative integer"):
            synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters,
                                 noise_rel=0.01, seed=-1)
        assert not (tmp_path / "s.csv").exists()

    def test_seed_without_noise_rejected(self, tmp_path):
        # nothing would draw from it
        counters = load_published_counters("fv_fe_tube")
        with pytest.raises(SweepSpecError, match="seed 1 applies only to noisy"):
            synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters, seed=1)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("converged, timings, match", [
        ("True1", "6.0,1.0,0.1", "converged must be true or false, got 'True1'"),
        ("true", "6.0,,0.1", "T_f, T_s and T_c must be all set or all blank"),
        ("false", ",1.0,", "T_f, T_s and T_c must be all set or all blank"),
        ("true", ",,", "a converged row must set T_f, T_s and T_c"),
    ], ids=["converged-not-a-boolean", "blank-solid-time", "only-solid-time",
            "converged-without-timings"])
    def test_malformed_row_is_an_error_with_its_line(self, tmp_path, converged, timings,
                                                     match):
        # such rows used to be dropped from the fit, or to reach it as nan
        counters = load_published_counters("fv_fe_tube")
        path = synthesize_sweep_csv(tmp_path / "s.csv", self.TRUE, counters)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2], fields[6:9] = converged, timings.split(",")
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        for read in (read_sweep_csv, fit_from_runs):
            with pytest.raises(TableParseError, match=f"^{re.escape(str(path))}:4: {match}$"):
                read(path)

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


_SWEEP_HEADER = ",".join(SWEEP_COLUMNS)
_FACTORS_HEADER = "c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple"


@pytest.mark.parametrize("value, text", [
    (None, ""), (True, "true"), (np.bool_(True), "true"), (np.bool_(False), "false"),
    (0.092, "0.092"), (np.float64(0.092), "0.092"), (np.float32(0.5), "0.5"),
    (math.inf, "inf"), (3, "3"), (np.int64(3), "3"), ("inf", "inf"),
])
def test_fmt_writes_numpy_scalars_as_python_ones(value, text):
    assert fmt(value) == text


@pytest.mark.parametrize("text, call, error, message", [
    (_SWEEP_HEADER + "\n1,1,true,3\n", read_sweep_csv,
     TableParseError, "{path}:2: expected 12 fields"),
    (_SWEEP_HEADER + "\n", lambda path: emit_contour(path, "N_x", path.parent),
     SweepSpecError, "quantity must be one of ('N_c', 'N_f', 'N_s', 'teq_norm')"),
    # the first five rows of a 4x4 grid
    (_SWEEP_HEADER + "\n" + "".join(f"{f},{s},true,9,9,9,1.0,1.0,1.0,,,\n" for f, s in
                                     [(1, 1), (1, 2), (1, 3), (1, "inf"), (2, 1)]),
     lambda path: emit_contour(path, "N_c", path.parent), SweepSpecError,
     "{path}: sweep results do not cover a full rectangular grid"),
    ("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\n1,1,1.0,10,20,30\n",
     lambda path: replay_published(path, CostFactors(c_couple=1.0)),
     TableParseError, "{path}: reference row (inf, inf) is missing"),
    ("nmax_f,nmax_s,teq,N_c,N_f,N_s\ninf,inf,1.0,1,1,1\n", _read_published_table,
     TableParseError, "{path}:1: expected header nmax_f,nmax_s,teq_norm,N_c,N_f,N_s"),
    ("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\n# diverged cells blank their row\n1,1,,,\n",
     _read_published_table, TableParseError, "{path}:3: expected 6 fields"),
    ("c_fix_f,c_iter_f,c_fix_s,c_iter_s\n1,1,1,1\n", load_factors_csv,
     TableParseError, "{path}:1: missing column 'c_couple'"),
    (_FACTORS_HEADER + "\n1,1,1,1,1\n2,2,2,2,2\n", load_factors_csv, TableParseError,
     "{path}: expected exactly one factors row (use case= to select), got 2"),
    ("", read_csv_rows, TableParseError, "{path}: no rows"),
    ("# a comment\n\n", read_csv_rows, TableParseError, "{path}: no rows"),
    ("a = 1\n = 2\n", lambda path: parse_config_text(path.read_text(), source=str(path)),
     TableParseError, "{path}:2: empty key"),
    ("grid_f = 1,inf\n", lambda path: SweepSpec.from_config(parse_config(path), path.parent),
     SweepSpecError, "sweep config requires grid_f and grid_s"),
    ("", lambda path: SweepSpec.from_config({"grid_f": "inf", "grid_s": "inf"},
                                         path.parent, workers=0),
     SweepSpecError, "workers must be an integer >= 1, got 0"),
    # values no sweep writes
    (_SWEEP_HEADER + "\n1,1,true,3,4,5,-1.0,1.0,1.0,,,\n", fit_from_runs,
     TableParseError, "{path}:2: T_f must be non-negative and finite, got -1.0"),
    (_SWEEP_HEADER + "\n1,1,true,3,4,5,nan,1.0,1.0,,,\n", fit_from_runs,
     TableParseError, "{path}:2: T_f must be non-negative and finite, got nan"),
    (_SWEEP_HEADER + "\n1,1,true,3,4,5,1.0,1.0,inf,,,\n", fit_from_runs,
     TableParseError, "{path}:2: T_c must be non-negative and finite, got inf"),
    (_SWEEP_HEADER + "\n1,1,true,-3,4,5,1.0,1.0,1.0,,,\n", fit_from_runs,
     TableParseError, "{path}:2: N_c must be non-negative and finite, got -3"),
    (_SWEEP_HEADER + "\ninf,inf,true,3,4,5,1.0,1.0,1.0,1.0,nan,0.0\n",
     lambda path: emit_contour(path, "teq_norm", path.parent), TableParseError,
     "{path}:2: teq_norm must be non-negative and finite, got nan"),
    (_SWEEP_HEADER + "\ninf,inf,false,3,4,5,,,,,,-1e-9\n", read_sweep_csv,
     TableParseError, "{path}:2: max_dev_vs_reference must be non-negative and finite, "
     "got -1e-09"),
    # fields that do not parse name their column
    (_SWEEP_HEADER + "\n1,1,true,3.5,4,5,1.0,1.0,1.0,,,\n", read_sweep_csv, TableParseError,
     "{path}:2: N_c: invalid literal for int() with base 10: '3.5'"),
    (_SWEEP_HEADER + "\n1,1,true,3,4,5,abc,1.0,1.0,,,\n", read_sweep_csv, TableParseError,
     "{path}:2: T_f: could not convert string to float: 'abc'"),
    (_SWEEP_HEADER + "\nx,1,true,3,4,5,1.0,1.0,1.0,,,\n", read_sweep_csv, TableParseError,
     "{path}:2: nmax_f: cannot parse cap value 'x'"),
    ("nmax_f,nmax_s,teq_norm,N_c,N_f,N_s\ninf,inf,1.0,1.5,1,1\n", _read_published_table,
     TableParseError, "{path}:2: N_c: invalid literal for int() with base 10: '1.5'"),
    (_FACTORS_HEADER + "\n1,x,1,1,1\n", load_factors_csv, TableParseError,
     "{path}:2: c_iter_f: could not convert string to float: 'x'"),
    (_FACTORS_HEADER + "\n1,1,1,1\n", load_factors_csv, TableParseError,
     "{path}:2: expected 5 fields"),
    ("", lambda path: published_table_path("nope"), ContractError,
     "unknown published table 'nope'; expected one of ('fe_fe_cavity', 'fv_fe_cavity', "
     "'fe_fe_tube', 'fv_fe_tube')"),
], ids=["sweep-field-count", "contour-quantity", "contour-partial-grid",
        "replay-without-reference", "published-header", "published-short-row",
        "factors-missing-column", "factors-two-rows-no-case", "csv-empty",
        "csv-comments-only", "config-empty-key", "config-without-grids", "spec-no-workers",
        "sweep-negative-time", "sweep-nan-time", "sweep-inf-time", "sweep-negative-count",
        "sweep-nan-teq-norm", "sweep-negative-deviation", "sweep-count-not-an-integer",
        "sweep-time-not-a-number", "sweep-cap-not-a-cap", "published-count-not-an-integer",
        "factors-not-a-number", "factors-short-row", "published-table-unknown"])
def test_reader_error_names_its_input(tmp_path, text, call, error, message):
    # the message is the whole report: a line at fault is named as path:line:
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        call(path)
    assert type(err.value) is error
    assert str(err.value) == message.format(path=path)
