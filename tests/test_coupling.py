import math

import numpy as np
import pytest

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    FieldRole,
    InterfaceField,
    IqnHistory,
    SolverCallReport,
    aitken_omega,
    check_convergence,
    iqn_ils_update,
    qr_filter,
    run_simulation,
)
from fsilab.errors import AllColumnsFilteredError, ContractError
from fsilab.models import LinearToyModel, Tube1DModel
from fsilab.models.tube import Tube1DParams


def report(first_residual, eps=1e-9, iters=1):
    history = tuple([first_residual] + [first_residual / 10**i for i in range(1, iters)])
    return SolverCallReport(inner_iters=iters, residual_history=history,
                            converged_on_first=first_residual < eps,
                            final_residual=history[-1])


class TestQrFilter:
    def test_duplicate_columns(self):
        v = np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert qr_filter(v, 1e-12) == [0]

    def test_orthogonal_columns(self):
        v = np.eye(4)[:, :3]
        assert qr_filter(v, 1e-12) == [0, 1, 2]

    def test_near_dependence_below_tolerance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(6)
        w = rng.standard_normal(6)
        v = np.column_stack([a, a + 1e-15 * w])
        assert qr_filter(v, 1e-12) == [0]

    def test_zero_column_dropped_empty_input_ok(self):
        v = np.column_stack([[0.0, 0.0], [1.0, 0.0]])
        assert qr_filter(v, 1e-12) == [1]
        assert qr_filter(np.zeros((3, 0)), 1e-12) == []

    def test_newest_first_retention(self):
        # when two columns are dependent, the first processed (newest) wins
        a = np.array([2.0, 0.0, 0.0])
        v = np.column_stack([a, 3 * a, np.array([0.0, 1.0, 0.0])])
        assert qr_filter(v, 1e-10) == [0, 2]

    def test_retained_set_has_full_rank(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((8, 4))
        # add two nearly dependent copies
        v = np.column_stack([base, base[:, 0] + 1e-14 * base[:, 1], base[:, 2]])
        keep = qr_filter(v, 1e-10)
        assert np.linalg.matrix_rank(v[:, keep], tol=1e-12) == len(keep)


class TestIqnUpdate:
    def test_zero_residual_zero_increment_any_history(self):
        hist = IqnHistory(q=2)
        hist.append(np.array([1.0, 0.0]), np.array([0.5, 0.5]), age=1)
        d = np.array([3.0, -1.0])
        d_next, inc = iqn_ils_update(hist, np.zeros(2), d, 1e-12)
        assert inc == 0.0
        assert np.array_equal(d_next, d)
        # and with an empty history too
        d_next, inc = iqn_ils_update(IqnHistory(q=0), np.zeros(2), d, 1e-12)
        assert inc == 0.0

    def test_scalar_linear_secant_is_exact(self):
        # residual map R(x) = 0.5 x - 1 has its zero at x = 2
        def res(x):
            return 0.5 * x - 1.0

        x1, x2 = 0.0, 1.0
        hist = IqnHistory(q=1)
        hist.append(np.array([res(x2) - res(x1)]), np.array([x2 - x1]), age=1)
        d_next, inc = iqn_ils_update(hist, np.array([res(x2)]), np.array([x2]), 1e-12)
        assert d_next[0] == pytest.approx(2.0, abs=1e-12)
        assert inc == pytest.approx(1.0, abs=1e-12)

    def test_two_columns_reproduce_linear_map_exactly(self):
        # affine residual R(x) = G x - g in 2-D: after two independent
        # columns the update lands on the root (dense-solve oracle)
        g_mat = np.array([[0.6, 0.2], [-0.1, 0.4]])
        g_vec = np.array([1.0, 0.5])
        root = np.linalg.solve(g_mat, g_vec)

        def res(x):
            return g_mat @ x - g_vec

        xs = [np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 1.0])]
        hist = IqnHistory(q=1)
        for a, b in zip(xs, xs[1:]):
            hist.append(res(b) - res(a), b - a, age=1)
        d_next, _ = iqn_ils_update(hist, res(xs[-1]), xs[-1], 1e-12)
        assert np.allclose(d_next, root, atol=1e-10)

    def test_empty_history_is_callers_problem(self):
        with pytest.raises(ContractError):
            iqn_ils_update(IqnHistory(q=0), np.ones(2), np.zeros(2), 1e-12)

    def test_all_filtered_raises(self):
        hist = IqnHistory(q=1)
        hist.append(np.zeros(2), np.ones(2), age=1)  # silently skipped (no info)
        hist._cols.append((1, np.zeros(2), np.ones(2)))  # force a zero column in
        with pytest.raises(AllColumnsFilteredError):
            iqn_ils_update(hist, np.ones(2), np.zeros(2), 1e-12)


class TestIqnHistory:
    def test_eviction_by_age(self):
        hist = IqnHistory(q=2)
        for age in (1, 2, 3, 4):
            hist.append(np.array([float(age)]), np.array([1.0]), age=age)
        hist.start_step(5)
        assert all(age >= 3 for age in hist.column_ages)

    def test_q_zero_keeps_only_current_step(self):
        hist = IqnHistory(q=0)
        hist.append(np.array([1.0]), np.array([1.0]), age=1)
        hist.start_step(2)
        assert hist.is_empty

    def test_column_cap_drops_oldest(self):
        hist = IqnHistory(q=10, max_columns=3)
        for i in range(5):
            hist.append(np.array([1.0 + i]), np.array([1.0]), age=1)
        assert hist.n_columns == 3
        v, _ = hist.matrices()
        assert v[0].tolist() == [5.0, 4.0, 3.0]  # newest first


class TestAitken:
    def test_hand_secant_value(self):
        assert aitken_omega(np.array([0.5]), np.array([1.0]), 0.5) == pytest.approx(1.0)

    def test_stagnation_keeps_omega_and_flags(self):
        events = []
        out = aitken_omega(np.array([1.0]), np.array([1.0]), 0.37, events)
        assert out == 0.37
        assert events == ["aitken_stagnation"]

    def test_oscillating_residual_halves_omega(self):
        assert aitken_omega(np.array([-1.0]), np.array([1.0]), 1.0) == pytest.approx(0.5)

    def test_clamped(self):
        assert aitken_omega(np.array([0.999]), np.array([1.0]), 1.0) == 2.0
        assert aitken_omega(np.array([-1000.0]), np.array([1.0]), 1.0) == 0.01


class TestCheckConvergence:
    def test_first_residual_both_needed(self):
        cfg = CouplingConfig()
        ok = report(1e-12)
        slow = report(1.0, iters=3)
        assert check_convergence(ok, ok, cfg, np.ones(3))
        assert not check_convergence(slow, ok, cfg, np.ones(3))
        assert not check_convergence(ok, slow, cfg, np.ones(3))

    def test_legacy_norm(self):
        cfg = CouplingConfig(criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-10)
        bad = report(1.0, iters=2)
        assert check_convergence(bad, bad, cfg, np.zeros(3))
        assert not check_convergence(bad, bad, cfg, np.full(3, 1e-3))

    def test_legacy_relative(self):
        cfg = CouplingConfig(criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-3,
                             criterion_relative=True)
        rep = report(1.0, iters=2)
        assert check_convergence(rep, rep, cfg, np.array([1e-4]), d_k=np.array([1.0]))
        assert not check_convergence(rep, rep, cfg, np.array([1e-4]), d_k=np.array([0.0]))
        assert check_convergence(rep, rep, cfg, np.zeros(1), d_k=np.array([0.0]))


@pytest.fixture(scope="module")
def short_run():
    params = Tube1DParams(cells=60, steps=21)
    config = CouplingConfig()
    record = run_simulation(Tube1DModel(params), config, resolve_audit_every=7)
    return params, config, record


class TestEngineOnTube:
    def test_determinism_bit_identical(self, short_run):
        params, config, record = short_run
        again = run_simulation(Tube1DModel(params), config)
        assert record.counters.per_step == again.counters.per_step
        assert all(np.array_equal(a, b)
                   for a, b in zip(record.snapshots, again.snapshots))

    def test_resolve_audit_passes(self, short_run):
        params, config, record = short_run
        assert [step for step, *_ in record.audit] == [7, 14, 21]
        for _, flow_first, solid_first in record.audit:
            assert flow_first <= config.eps_f
            assert solid_first <= config.eps_s

    def test_counters_additivity_and_diagnostics(self, short_run):
        _, _, record = short_run
        record.counters.check_additivity()
        assert len(record.step_records) == 21
        for rec in record.step_records:
            r_norm, rel, inc = rec.accepted_norms
            assert r_norm >= 0 and inc >= 0
            assert rel >= 0 or math.isinf(rel)
            assert rec.converged

    def test_increment_vanishes_with_residual(self, short_run):
        # accepted-state update increment is proportional to the residual
        _, _, record = short_run
        for rec in record.step_records:
            r_norm, _, inc = rec.accepted_norms
            assert inc <= 10.0 * r_norm + 1e-300

    def test_reuse_eviction_invariant(self):
        params = Tube1DParams(cells=40, steps=8)
        config = CouplingConfig(reuse_q=2)
        ages_seen = []
        run_simulation(Tube1DModel(params), config,
                       on_step=lambda step, hist, state: ages_seen.append(
                           (step, list(hist.column_ages))))
        for step, ages in ages_seen:
            assert all(age >= step - config.reuse_q for age in ages)

    def test_timings_split(self, short_run):
        _, _, record = short_run
        assert record.flow_seconds > 0
        assert record.solid_seconds > 0
        assert record.coupling_seconds >= 0


class TestEngineFallbacks:
    def test_all_columns_filtered_falls_back_to_relaxation(self, monkeypatch):
        # when filtering removes every column, the engine must flag the event
        # and take a plain relaxation step instead of crashing
        import fsilab.coupling as coupling_mod

        toy = LinearToyModel.stable()
        calls = {"n": 0}
        real_update = coupling_mod.iqn_ils_update

        def flaky_update(hist, r_k, d_tilde_k, eps_fil):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise AllColumnsFilteredError("forced")
            return real_update(hist, r_k, d_tilde_k, eps_fil)

        monkeypatch.setattr(coupling_mod, "iqn_ils_update", flaky_update)
        record = run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12,
                                                    omega0=0.5, accel=AccelKind.IQN_ILS))
        assert record.converged
        assert any(tag == "iqn_all_columns_filtered" for _, _, tag in record.events)


class TestEngineAccelerationModes:
    def test_aitken_on_tube(self):
        params = Tube1DParams(cells=40, steps=5)
        config = CouplingConfig(accel=AccelKind.AITKEN, omega0=0.05)
        record = run_simulation(Tube1DModel(params), config)
        assert record.converged

    def test_iqn_stabilizes_where_constant_diverges(self):
        # boolean property on the unstable linear preset
        from fsilab.errors import DivergedStepError

        toy = LinearToyModel.unstable()
        with pytest.raises(DivergedStepError):
            run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0,
                                               accel=AccelKind.CONSTANT))
        rec = run_simulation(LinearToyModel.unstable(),
                             CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.1,
                                            accel=AccelKind.IQN_ILS))
        assert rec.converged

    def test_diverged_step_carries_partial_record(self, monkeypatch):
        import fsilab.coupling as coupling_mod
        from fsilab.errors import DivergedStepError

        def no_columns(hist, r_k, d_tilde_k, eps_fil):
            raise AllColumnsFilteredError("forced")

        # every IQN update falls back to relaxation with omega0 = 1, which
        # diverges on the unstable preset and flags an event per iteration
        monkeypatch.setattr(coupling_mod, "iqn_ils_update", no_columns)
        toy = LinearToyModel.unstable(n_steps=3)
        with pytest.raises(DivergedStepError) as err:
            run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0,
                                               accel=AccelKind.IQN_ILS))
        record = err.value.record
        assert record is not None
        assert not record.converged
        assert record.failing_step == err.value.step == 1
        assert record.counters.coupling_total > 0

        partial = err.value.partial
        assert not partial.converged and partial.accepted_norms is None
        assert record.counters.per_step[-1] == (partial.step, partial.coupling_iters,
                                                partial.flow_iters, partial.solid_iters)
        assert (record.flow_seconds, record.solid_seconds) == (partial.flow_time,
                                                               partial.solid_time)
        # the aborted step's events, an IQN restart among them, reach the run record
        tags = {tag for step, _, tag in partial.events if step == 1}
        assert tags == {"iqn_all_columns_filtered", "iqn_stagnation_restart"}
        assert record.events == partial.events
