"""Benchmark runs: timed passes, calibration, metrics, and the smoke self-test.

Imported by ``run.py`` once the BLAS thread count is fixed and ``src`` is on
the path; see ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import fsilab.coupling as coupling
import fsilab.harness as harness
import numpy as np

import calib
import workloads
from probe import Probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
KERNEL_SAMPLES = 10  # kernel runs before and after each timed set-up
# accepted time steps a timed run collects at least, so that the 90th
# percentile of step latency has ten samples beyond it
MIN_STEPS = 100
STEP_WINDOW = 5  # kernel runs on each side that calibrate one step latency
MAX_FAILED_LINES = 20

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "configio.load_s": "s",
    "tube.flow_system_s": "s",
    "tube.flow_system_calls": "count",
    "tube.flow_assemble_s": "s",
    "tube.flow_assemble_calls": "count",
    "tube.flow_tangent_s": "s",
    "tube.flow_tangent_calls": "count",
    "tube.solid_system_s": "s",
    "tube.solid_system_calls": "count",
    "tube.solid_assemble_s": "s",
    "tube.solid_assemble_calls": "count",
    "tube.solid_tangent_s": "s",
    "tube.solid_tangent_calls": "count",
    "tube.advance_state_s": "s",
    "tube.advance_state_calls": "count",
    "subproblem.flow_call_s": "s",
    "subproblem.flow_self_s": "s",
    "subproblem.flow_calls": "count",
    "subproblem.flow_iters": "count",
    "subproblem.solid_call_s": "s",
    "subproblem.solid_self_s": "s",
    "subproblem.solid_calls": "count",
    "subproblem.solid_iters": "count",
    "coupling.iters": "count",
    "coupling.steps": "count",
    "coupling.step_s": "s",
    "coupling.step_self_s": "s",
    "coupling.iqn_update_s": "s",
    "coupling.iqn_update_self_s": "s",
    "coupling.iqn_update_calls": "count",
    "coupling.qr_filter_s": "s",
    "coupling.qr_filter_calls": "count",
    "coupling.qr_keep_ratio": "ratio",
    "coupling.restarts": "count",
    "coupling.aitken_s": "s",
    "coupling.aitken_calls": "count",
    "coupling.gamma_us": "us",
    "harness.postprocess_s": "s",
    "harness.fit_s": "s",
    "harness.contour_s": "s",
    "harness.replay_s": "s",
    "costmodel.fit_c_iter_f_us": "us",
    "costmodel.fit_c_iter_s_us": "us",
    "costmodel.fit_gamma_us": "us",
    "costmodel.fit_mape_pct": "%",
    "trace.flow_iter_us": "us",
    "trace.solid_iter_us": "us",
    "trace.overhead_s": "s",
    "calib.kernel_s": "s",
    "calib.raw_wall_s": "s",
}

# Runs in a fresh interpreter: the set-up a user pays before the first step.
_SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.load(workloads.config(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1"))
print(time.perf_counter() - start)
"""


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def setup_seconds(name: str, seed: int, smoke: bool, samples: int, kernel) -> list:
    """Reference seconds of ``samples`` set-ups, each in a fresh interpreter."""
    out = []
    before = kernel.sample(KERNEL_SAMPLES)
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE), name, str(seed),
             "1" if smoke else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = kernel.sample(KERNEL_SAMPLES)
        out.append(float(proc.stdout.strip().splitlines()[-1]) * calib.scale((before, after)))
        before = after
    return out


@dataclass
class Pass:
    res: object  # workloads.PassResult
    probe: object  # probe.Probe

    @property
    def scale(self) -> float:
        """Factor from measured to reference seconds over this pass."""
        return calib.scale(self.probe.kernel_s)

    @property
    def raw_wall_s(self) -> float:
        """Measured wall time of the pass without its kernel runs."""
        return self.res.wall_s - sum(self.probe.kernel_s)

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.scale

    def steps_s(self) -> list:
        """Accepted-step latencies, each calibrated by the kernel runs nearest to it."""
        k = self.probe.kernel_s
        return [s * calib.scale(k[max(0, i - STEP_WINDOW):i + STEP_WINDOW])
                for s, i in zip(self.probe.step_s, self.probe.step_at)]


def measure(name: str, cfg: dict, seconds: float, traced: bool, min_steps: int, workdir,
            kernel) -> list:
    """Passes of one workload until ``seconds`` have elapsed.

    Untraced runs also go on until ``min_steps`` accepted steps were timed,
    but never past twice ``seconds``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        probe = Probe(traced, kernel)
        with probe.installed():
            passes.append(Pass(workloads.PASSES[name](cfg, probe, workdir), probe))
        elapsed = time.perf_counter() - start
        steps = sum(len(p.probe.step_s) for p in passes)
        if elapsed >= seconds and (steps >= min_steps or elapsed >= 2 * seconds):
            return passes


def layer_metrics(p: Pass) -> dict:
    """Per-layer metrics of one traced pass, times in reference seconds."""
    busy = {k: v * p.scale for k, v in p.probe.busy.items()}
    self_s = {k: v * p.scale for k, v in p.probe.self_s.items()}
    calls, counts = p.probe.calls, p.probe.counts
    n_c, n_f, n_s = p.res.counts
    flow, solid = "subproblem.flow", "subproblem.solid"
    m = {}
    for span in ("tube.flow_system", "tube.flow_assemble", "tube.flow_tangent",
                 "tube.solid_system", "tube.solid_assemble", "tube.solid_tangent",
                 "tube.advance_state", "coupling.qr_filter", "coupling.aitken"):
        m[span + "_s"] = busy.get(span, 0.0)
        m[span + "_calls"] = calls[span]
    for span in (flow, solid):
        m.update({span + "_call_s": busy.get(span, 0.0), span + "_self_s": self_s.get(span, 0.0),
                  span + "_calls": calls[span], span + "_iters": counts[span + "_iters"]})
    offered = counts["coupling.qr_offered"]
    m.update({
        "coupling.iters": calls[flow],
        "coupling.steps": calls["coupling.step"],
        "coupling.step_s": busy["coupling.step"],
        "coupling.step_self_s": self_s["coupling.step"],
        "coupling.iqn_update_s": busy.get("coupling.iqn_update", 0.0),
        "coupling.iqn_update_self_s": self_s.get("coupling.iqn_update", 0.0),
        "coupling.iqn_update_calls": calls["coupling.iqn_update"],
        "coupling.qr_keep_ratio": counts["coupling.qr_kept"] / offered if offered else 0.0,
        "coupling.restarts": counts["coupling.restarts"],
        # everything a coupling iteration pays outside the two solver calls
        "coupling.gamma_us": 1e6 * (busy["simulation"] - busy.get("calib.step_kernel", 0.0)
                                    - busy[flow] - busy[solid]) / n_c,
        "harness.postprocess_s": self_s.get("harness.sweep", 0.0),
        "harness.fit_s": busy.get("harness.fit", 0.0),
        "harness.contour_s": busy.get("harness.contour", 0.0),
        "harness.replay_s": busy.get("harness.replay", 0.0),
        "trace.flow_iter_us": 1e6 * busy[flow] / n_f,
        "trace.solid_iter_us": 1e6 * busy[solid] / n_s,
    })
    return m


def fit_metrics(passes: list) -> dict:
    """The cost factors fsilab fits to its own measured sweep (capgrid only)."""
    fits = [(p.res.fit, p.scale) for p in passes if p.res.fit is not None]
    if not fits:
        return {k: 0.0 for k in ("costmodel.fit_c_iter_f_us", "costmodel.fit_c_iter_s_us",
                                 "costmodel.fit_gamma_us", "costmodel.fit_mape_pct")}
    med = statistics.median
    return {
        "costmodel.fit_c_iter_f_us": 1e6 * med(f.c_iter_f * k for (f, _), k in fits),
        "costmodel.fit_c_iter_s_us": 1e6 * med(f.c_iter_s * k for (f, _), k in fits),
        "costmodel.fit_gamma_us": 1e6 * med(f.gamma() * k for (f, _), k in fits),
        "costmodel.fit_mape_pct": 100 * med(r.mape for (_, r), _ in fits),
    }


def consistency_failures(passes: list) -> list:
    """Every pass must repeat the same counts; traced counts must match the records.

    A diverged run counts its aborted coupling iteration, which may not have
    reached a solver call, so traced counts are compared on clean passes only.
    """
    out = []
    counts = {p.res.counts for p in passes}
    if len(counts) > 1:
        out.append(f"iteration counts differ between passes: {sorted(counts)}")
    for p in passes:
        if not p.probe.traced or p.res.failed:
            continue
        calls, seen = p.probe.calls, p.probe.counts
        traced = (calls["subproblem.flow"], seen["subproblem.flow_iters"],
                  seen["subproblem.solid_iters"])
        if traced != p.res.counts or calls["subproblem.solid"] != p.res.counts[0]:
            out.append(f"traced counts {traced} differ from the run record {p.res.counts}")
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    med = statistics.median
    log(json.dumps({"env": environment(), "workload": name, "seed": seed, "trace": int(trace)}))
    kernel = calib.Kernel()
    cfg = workloads.config(name, seed, smoke)
    metrics = {}
    if not trace:
        samples = setup_seconds(name, seed, smoke, 1 if smoke else SETUP_SAMPLES, kernel)
        metrics["setup_s"] = med(samples)
    else:
        before = kernel.sample(KERNEL_SAMPLES)
        loads = []
        for _ in range(SETUP_SAMPLES):
            start = time.perf_counter()
            workloads.load(workloads.config(name, seed, smoke))
            loads.append(time.perf_counter() - start)
        after = kernel.sample(KERNEL_SAMPLES)
        metrics["configio.load_s"] = med(loads) * calib.scale((before, after))

    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as workdir:
        warm = Probe(trace, kernel)
        with warm.installed():
            workloads.PASSES[name](dict(cfg, **workloads.WARMUP), warm, Path(workdir))
        if trace:
            plain = measure(name, cfg, seconds / 2, False, 0, Path(workdir), kernel)
            traced = measure(name, cfg, seconds / 2, True, 0, Path(workdir), kernel)
        else:
            min_steps = 0 if smoke else MIN_STEPS
            plain = measure(name, cfg, seconds, False, min_steps, Path(workdir), kernel)
            traced = []

    walls = [p.wall_s for p in plain]
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        for k in per_pass[0]:
            # counts repeat exactly in every pass (checked below); times take the median
            values = [m[k] for m in per_pass]
            metrics[k] = values[0] if PER_LAYER[k] == "count" else med(values)
        metrics.update(fit_metrics(plain))
        metrics["trace.overhead_s"] = med(p.wall_s for p in traced) - med(walls)
        metrics["calib.kernel_s"] = med(s for p in plain + traced for s in p.probe.kernel_s)
        metrics["calib.raw_wall_s"] = med(p.raw_wall_s for p in plain)
        units = PER_LAYER
    else:
        steps_ms = [1e3 * s for p in plain for s in p.steps_s()]
        metrics.update({
            "wall_s": med(walls),
            "step_ms_p50": med(steps_ms),
            "step_ms_p90": statistics.quantiles(steps_ms, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
        units = END_TO_END

    passes = plain + traced
    failures = [line for p in passes for line in p.res.failures]
    inconsistent = consistency_failures(passes)
    n_c, n_f, n_s = passes[0].res.counts
    log(f"fingerprint N_c={n_c} N_f={n_f} N_s={n_s}")
    log(f"passes={len(plain)}+{len(traced)} "
        f"raw_wall_s={[round(p.raw_wall_s, 4) for p in passes]} "
        f"mean_kernel_ms={[round(1e3 / p.scale * calib.REF_KERNEL_S, 4) for p in passes]} "
        f"wall_s={[round(p.wall_s, 4) for p in passes]}")
    lines = failures + inconsistent
    for line in lines[:MAX_FAILED_LINES]:
        log(f"FAILED {line}")
    if len(lines) > MAX_FAILED_LINES:
        log(f"FAILED ... and {len(lines) - MAX_FAILED_LINES} more")
    failed = sum(p.res.failed for p in passes)
    return {
        "correct": failed == 0 and not inconsistent,
        "attempted": sum(p.res.attempted for p in passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }


@contextlib.contextmanager
def _patched(module, attr, wrap):
    orig = getattr(module, attr)
    setattr(module, attr, wrap(orig))
    try:
        yield
    finally:
        setattr(module, attr, orig)


def smoke() -> int:
    """Self-test on a 20-cell, 5-step tube with a {1, inf}^2 cap grid."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    clean = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            lines = []
            out = run(name, seed=1, seconds=0, trace=trace, smoke=True, log=lines.append)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json")
            if not (out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]):
                problems.append(f"{name} trace={int(trace)}: bad operation counts")
            for line in lines:
                if line.startswith("FAILED"):
                    print(f"smoke: {name} trace={int(trace)}: {line}")
            clean.setdefault(name, out["failed"])

    def tamper_states(run_simulation):
        def wrapped(model, config, on_step=None, **kwargs):
            def on_step_(step, hist, state):
                if step == 2:
                    state = replace(state, area=state.area * 1.001)
                on_step(step, hist, state)
            return run_simulation(model, config, on_step=on_step_, **kwargs)
        return wrapped

    def tamper_rows(run_sweep):
        def wrapped(spec):
            result = run_sweep(spec)
            result.rows[-1].max_dev = 1e-6  # the (inf, inf) reference cell
            return result
        return wrapped

    for name, module, attr, wrap in (
        ("tube-ref", coupling, "run_simulation", tamper_states),
        ("picard-aitken", coupling, "run_simulation", tamper_states),
        ("capgrid", harness, "run_sweep", tamper_rows),
    ):
        with _patched(module, attr, wrap):
            out = run(name, seed=1, seconds=0, trace=False, smoke=True, log=lambda line: None)
        if out["correct"] or out["failed"] != clean[name] + 1:
            problems.append(f"{name}: a perturbed output was not counted as failed")

    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
