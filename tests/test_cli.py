import pytest

from fsilab.cli import main
from fsilab.configio import data_path, published_table_path, regression_summary_path

SCALAR_CFG = """
model = scalar_toy
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
def scalar_cfg(tmp_path):
    path = tmp_path / "scalar.cfg"
    path.write_text(SCALAR_CFG)
    return path


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CFG)
    return path


def test_run_subcommand(scalar_cfg, tmp_path, capsys):
    code = main(["run", "--config", str(scalar_cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "converged=true" in out
    assert (tmp_path / "out" / "run_summary.csv").exists()
    assert (tmp_path / "out" / "per_step.csv").exists()


def test_run_failure_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = linear_toy\ncoupling_strength = 2.5\nomega0 = 1.0\n"
                   "accel = constant\neps_f = 1e-12\neps_s = 1e-12\n")
    assert main(["run", "--config", str(cfg)]) == 1


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


def test_shipped_config_runs_reduced(tmp_path):
    # the shipped tube config, shrunk for test speed
    cfg = tmp_path / "tube.cfg"
    base = data_path("tube1d.cfg").read_text()
    cfg.write_text(base.replace("steps = 100", "steps = 5").replace(
        "cells = 100", "cells = 40"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
