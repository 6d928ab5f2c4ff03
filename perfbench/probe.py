"""Timers around calls into fsilab's layers, installed from outside the package.

A :class:`Probe` patches module attributes where the engine looks them up
(``fsilab.coupling.call_solver`` and friends, ``fsilab.harness.run_simulation``)
and reaches the model's spec callables through :class:`_ModelProxy`. Nothing
inside ``src/fsilab`` is changed; :meth:`Probe.installed` restores every
patched name on exit.

Untraced, the probe only wraps ``run_time_step`` and the sweep's
``run_simulation``: it times each accepted step (the step latency of the
end-to-end metrics) and runs the calibration kernel of ``calib.py`` after each
step, or after each cell inside a sweep, whose cells report their own timings
to the cost fit. Traced, every wrapped call is a span: its busy time and call
count accumulate under the span name, and its duration is subtracted from the
enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import replace

import fsilab.coupling as coupling
import fsilab.harness as harness
from fsilab.errors import DivergedStepError
from fsilab.subproblem import SolverId

RESTART_EVENT = "iqn_stagnation_restart"
# The kernel runs for about this share of the time it follows, so its
# samples spread evenly over a pass.
KERNEL_DUTY = 0.1


class Probe:
    """Span and counter accumulators for one pass of a workload."""

    def __init__(self, traced: bool, kernel):
        self.traced = traced
        self.kernel = kernel  # calibration kernel
        self.step_s: list = []  # latency of every accepted time step
        self.step_at: list = []  # len(kernel_s) when each accepted step ended
        self.kernel_s: list = []  # duration of every kernel run
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._child_s: list = []  # child time of each open span, innermost last
        self._in_cell = False  # inside a sweep cell

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as span ``name`` (a plain call when untraced)."""
        if not self.traced:
            return fn(*args, **kwargs)
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._child_s.pop()
            self.busy[name] += elapsed
            self.self_s[name] += elapsed - child
            self.calls[name] += 1
            if self._child_s:
                self._child_s[-1] += elapsed

    def count(self, name: str, n: int) -> None:
        if self.traced:
            self.counts[name] += n

    def simulate(self, run_simulation, model, config, **kwargs):
        """One ``run_simulation`` span on a proxied model; counts IQN restarts."""
        try:
            record = self.call("simulation", run_simulation, self.model(model), config, **kwargs)
        except DivergedStepError as exc:
            self._count_restarts(exc.record)
            raise
        self._count_restarts(record)
        return record

    def _count_restarts(self, record) -> None:
        self.count("coupling.restarts",
                   sum(1 for e in record.events if isinstance(e, tuple) and e[-1] == RESTART_EVENT))

    def _calibrate(self, name: str, elapsed: float) -> None:
        """Run the kernel for about ``KERNEL_DUTY * elapsed`` seconds, at least once."""
        spent = 0.0
        while True:
            self.kernel_s.append(self.call(name, self.kernel))
            spent += self.kernel_s[-1]
            if spent >= KERNEL_DUTY * elapsed:
                return

    def model(self, model):
        return _ModelProxy(self, model) if self.traced else model

    def timed(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    @contextlib.contextmanager
    def installed(self):
        """Patch the engine's lookup names for the duration of one pass."""
        orig = {
            (coupling, "run_time_step"): coupling.run_time_step,
            (coupling, "call_solver"): coupling.call_solver,
            (coupling, "iqn_ils_update"): coupling.iqn_ils_update,
            (coupling, "qr_filter"): coupling.qr_filter,
            (coupling, "aitken_omega"): coupling.aitken_omega,
            (harness, "run_simulation"): harness.run_simulation,
        }

        def run_time_step(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = self.call("coupling.step", orig[coupling, "run_time_step"], *args, **kwargs)
                self.step_s.append(time.perf_counter() - start)
                self.step_at.append(len(self.kernel_s))
                return out
            finally:
                if not self._in_cell:
                    self._calibrate("calib.step_kernel", time.perf_counter() - start)

        def call_solver(solver_id, spec, inp):
            name = "subproblem.flow" if solver_id is SolverId.FLOW else "subproblem.solid"
            out = self.call(name, orig[coupling, "call_solver"], solver_id, spec, inp)
            self.count(name + "_iters", out[1].inner_iters)
            return out

        def qr_filter(v_matrix, eps_fil):
            keep = self.call("coupling.qr_filter", orig[coupling, "qr_filter"], v_matrix, eps_fil)
            self.count("coupling.qr_offered", v_matrix.shape[1])
            self.count("coupling.qr_kept", len(keep))
            return keep

        def run_simulation(model, config, **kwargs):
            start = time.perf_counter()
            self._in_cell = True
            try:
                return self.simulate(orig[harness, "run_simulation"], model, config, **kwargs)
            finally:
                self._in_cell = False
                self._calibrate("calib.cell_kernel", time.perf_counter() - start)

        patches = {(coupling, "run_time_step"): run_time_step,
                   (harness, "run_simulation"): run_simulation}
        if self.traced:
            patches.update({
                (coupling, "call_solver"): call_solver,
                (coupling, "iqn_ils_update"): self.timed("coupling.iqn_update",
                                                        orig[coupling, "iqn_ils_update"]),
                (coupling, "qr_filter"): qr_filter,
                (coupling, "aitken_omega"): self.timed("coupling.aitken",
                                                      orig[coupling, "aitken_omega"]),
            })
        try:
            for (module, attr), fn in patches.items():
                setattr(module, attr, fn)
            yield self
        finally:
            for (module, attr), fn in orig.items():
                setattr(module, attr, fn)


class _ModelProxy:
    """Delegates to a tube model and times its spec builders and spec callables."""

    def __init__(self, probe: Probe, model):
        self._probe = probe
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def _spec(self, spec, prefix: str):
        tangent = spec.tangent
        return replace(
            spec,
            assemble_matrix=self._probe.timed(prefix + "_assemble", spec.assemble_matrix),
            tangent=None if tangent is None else self._probe.timed(prefix + "_tangent", tangent),
        )

    def flow_system(self, state, displacement):
        spec = self._probe.call("tube.flow_system", self._model.flow_system, state, displacement)
        return self._spec(spec, "tube.flow")

    def solid_system(self, state, traction):
        spec = self._probe.call("tube.solid_system", self._model.solid_system, state, traction)
        return self._spec(spec, "tube.solid")

    def advance_state(self, *args):
        return self._probe.call("tube.advance_state", self._model.advance_state, *args)
