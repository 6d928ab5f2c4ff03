import csv

import pytest

from fsilab.cli import main
from fsilab.configio import data_path, published_table_path, regression_summary_path
from fsilab.harness import SWEEP_COLUMNS

TOY_CFG = """
model = linear_toy
steps = 2
eps_f = 1e-12
eps_s = 1e-12
omega0 = 1.0
accel = constant
"""

SWEEP_CFG = """
model = linear_toy
dim_f = 4
dim_s = 4
coupling_strength = 0.5
steps = 2
eps_f = 1e-12
eps_s = 1e-12
omega0 = 0.5
accel = iqn-ils
grid_f = 1,2,inf
grid_s = 1,inf
"""


@pytest.fixture
def toy_cfg(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY_CFG)
    return path


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CFG)
    return path


def test_run_subcommand(toy_cfg, tmp_path, capsys):
    code = main(["run", "--config", str(toy_cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=true" in out
    assert (tmp_path / "out" / "run_summary.csv").exists()
    assert (tmp_path / "out" / "per_step.csv").exists()


def test_run_loads_its_config_once(toy_cfg, monkeypatch):
    import fsilab.cli as cli_mod
    import fsilab.configio as configio

    calls = []
    monkeypatch.setattr(cli_mod, "load", lambda cfg: calls.append(cfg) or configio.load(cfg))
    assert main(["run", "--config", str(toy_cfg)]) == 0
    assert len(calls) == 1


def test_run_failure_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = linear_toy\ncoupling_strength = 2.5\nomega0 = 1.0\n"
                   "accel = constant\neps_f = 1e-12\neps_s = 1e-12\n")
    assert main(["run", "--config", str(cfg)]) == 1
    # with --out, the aborted step's row makes per_step.csv add up to the summary
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    with open(out / "run_summary.csv") as f:
        (summary,) = csv.DictReader(f)
    with open(out / "per_step.csv") as f:
        rows = list(csv.DictReader(f))
    assert summary["converged"] == "false"
    assert rows and rows[-1]["residual_norm"] == rows[-1]["update_increment"] == ""
    for total, column in (("N_c", "coupling_iters"), ("N_f", "flow_iters"),
                          ("N_s", "solid_iters")):
        assert sum(int(r[column]) for r in rows) == int(summary[total]) > 0


def test_run_into_an_unusable_out_fails_before_the_run(toy_cfg, tmp_path, capsys):
    # --out below a file used to print the run's result line and only then fail
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["run", "--config", str(toy_cfg), "--out", str(afile / "x")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "converged=" not in captured.out and "Traceback" not in captured.err


def test_fit_into_an_unusable_out_fails_before_the_fit(tmp_path, monkeypatch, capsys):
    import fsilab.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "fit_from_runs", lambda path: calls.append(path))
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["fit", "--results", str(tmp_path / "sweep.csv"), "--out", str(afile)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


def test_sweep_fit_contour_chain(sweep_cfg, tmp_path, capsys):
    out = tmp_path / "study"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert main(["fit", "--results", str(out / "sweep.csv"), "--out", str(out)]) == 0
    assert (out / "factors.csv").exists()
    assert main(["contour", "--results", str(out / "sweep.csv"),
                 "--quantity", "teq_norm", "--out", str(out)]) == 0
    text = (out / "contour_teq_norm.csv").read_text().strip().splitlines()
    assert len(text) == 4  # header + three flow caps


def test_replay_pass_and_fail(tmp_path, capsys):
    code = main(["replay", "--table", str(published_table_path("fe_fe_tube")),
                 "--factors", str(regression_summary_path()), "--case", "fe_fe_tube"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out

    # negative control: perturb one published value
    src = published_table_path("fe_fe_tube").read_text().splitlines()
    src = [line.replace("2,1,0.91", "2,1,0.96") for line in src]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(src) + "\n")
    code = main(["replay", "--table", str(bad),
                 "--factors", str(regression_summary_path()), "--case", "fe_fe_tube"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_replay_zero_factors_is_an_error(tmp_path, capsys):
    zero = tmp_path / "zero.csv"
    zero.write_text("case,c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple,gamma\n"
                    "zero,0,0,0,0,0,0\n")
    code = main(["replay", "--table", str(published_table_path("fe_fe_tube")),
                 "--factors", str(zero)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_replay_non_finite_factor_is_an_error(tmp_path, capsys):
    # a nan factor used to price every cell at nan and PASS with exit 0
    bad = tmp_path / "nan.csv"
    bad.write_text("case,c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple,gamma\n"
                   "bad,0.6459,1.4756,0.1206,0.0327,nan,0.9538\n")
    code = main(["replay", "--table", str(published_table_path("fe_fe_tube")),
                 "--factors", str(bad)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "'c_couple'" in captured.err
    assert "PASS" not in captured.out and "Traceback" not in captured.err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["replay"])  # missing required arguments
    assert err.value.code == 2


def test_operational_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    missing.write_text("not,a,sweep\n1,2,3\n")
    assert main(["fit", "--results", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_measured_sweep_with_two_workers_is_an_error(tmp_path, capsys):
    out = tmp_path / "study"
    code = main(["sweep", "--config", str(data_path("tube1d.cfg")), "--out", str(out),
                 "--workers", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers = 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("run", "accel", "iqn"),
    ("run", "criterion", "abs"),
    ("run", "flow_scheme", "simple"),
    ("sweep", "workers", "two"),
    ("run", "acel", "constant"),
    ("sweep", "acel", "constant"),
    ("run", "mu_f", "0.003"),
    ("run", "batch_size_f", "1"),
    ("run", "criterion_relative", "true"),
    ("sweep", "noise_rel", "0.01"),
    ("sweep", "grid_f", "1,x"),
    ("sweep", "timing", "bogus"),
])
def test_bad_config_value_is_an_error_line(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(data_path("tube1d.cfg").read_text() + f"{key} = {value}\n")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, key", [
    ("model = linear_toy\ncoupling_strength = nan\n", "coupling_strength"),
    ("model = scalar_toy\n", "scalar_toy"),  # a removed model
    ("model = linear_toy\ncells = 7\nkappa3 = nan\n", "cells"),
    # a run parses the sweep keys too, though only a sweep reads them
    ("model = linear_toy\ngrid_f = 1,x\n", "grid_f"),
    ("model = linear_toy\ngrid_s = 0,inf\n", "grid_s"),
    ("model = linear_toy\ntiming = bogus\n", "timing"),
    ("model = linear_toy\nworkers = two\n", "workers"),
    ("model = linear_toy\nworkers = 0\n", "workers"),
    # and the cost keys, though only a modeled sweep reads them
    ("model = linear_toy\ncost_c_iter_f = nan\n", "c_iter_f"),
    ("model = linear_toy\ncost_c_iter_f = -1\n", "c_iter_f"),
], ids=["linear_toy", "scalar_toy", "tube-key-on-linear-toy", "grid_f", "grid_s", "timing",
        "workers", "no-workers", "cost-nan", "cost-negative"])
def test_bad_toy_config_is_an_error_line(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and repr(key) in captured.err
    assert "converged" not in captured.out and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [
    ("run", "--config"), ("sweep", "--config"), ("replay", "--table"),
    ("replay", "--factors"), ("fit", "--results"), ("contour", "--results"),
])
def test_missing_input_file_is_an_error_line(tmp_path, capsys, command, flag):
    # every input but the one under test exists
    args = {
        "run": ["--config", str(data_path("tube1d.cfg"))],
        "sweep": ["--config", str(data_path("tube1d.cfg")), "--out", str(tmp_path / "out")],
        "replay": ["--table", str(published_table_path("fe_fe_tube")),
                   "--factors", str(regression_summary_path()), "--case", "fe_fe_tube"],
        "fit": ["--results", ""],
        "contour": ["--results", "", "--quantity", "N_c", "--out", str(tmp_path / "out")],
    }[command]
    args[args.index(flag) + 1] = str(tmp_path / "nope.csv")
    assert main([command, *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "nope.csv" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_seed_is_a_usage_error(sweep_cfg, tmp_path, capsys):
    # a sweep draws no random numbers, so it takes no seed
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path / "out"),
              "--seed", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_contour_of_a_sweep_without_rows_is_an_error_line(tmp_path, capsys):
    # it used to exit 0 with a contour that held only a comma
    results = tmp_path / "sweep.csv"
    results.write_text(",".join(SWEEP_COLUMNS) + "\n")
    out = tmp_path / "out"
    assert main(["contour", "--results", str(results), "--quantity", "N_c",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {results}: no rows below the header\n"
    assert captured.out == "" and not out.exists()


def test_replay_case_without_case_column_is_an_error_line(tmp_path, capsys):
    # it used to replay the file's one row whatever the case
    factors = tmp_path / "factors.csv"
    factors.write_text("c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple\n"
                       "0.6459,1.4756,0.1206,0.0327,0.1873\n")
    assert main(["replay", "--table", str(published_table_path("fe_fe_tube")),
                 "--factors", str(factors), "--case", "no_such_case"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "case='no_such_case'" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_replay_case_on_two_rows_is_an_error_line(tmp_path, capsys):
    # it used to advise selecting with case=, which the caller had done
    factors = tmp_path / "factors.csv"
    factors.write_text("case,c_fix_f,c_iter_f,c_fix_s,c_iter_s,c_couple\n"
                       + "a,0.6459,1.4756,0.1206,0.0327,0.1873\n" * 2)
    assert main(["replay", "--table", str(published_table_path("fe_fe_tube")),
                 "--factors", str(factors), "--case", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {factors}: expected one row with case='a', got 2\n"
    assert captured.out == ""


def test_shipped_config_runs_reduced(tmp_path):
    # the shipped tube config, shrunk for test speed
    cfg = tmp_path / "tube.cfg"
    base = data_path("tube1d.cfg").read_text()
    cfg.write_text(base.replace("steps = 100", "steps = 5").replace(
        "cells = 100", "cells = 40"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
