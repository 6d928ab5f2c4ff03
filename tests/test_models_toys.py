import math

import numpy as np
import pytest

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    FieldRole,
    InterfaceField,
    SolverCallInput,
    SolverId,
    call_solver,
    deviation_from_reference,
    run_simulation,
)
from fsilab.errors import ContractError, DivergedStepError
from fsilab.models import LinearToyModel, ScalarToyModel
from fsilab.models.toys import ScalarToyParams


def final_field(record):
    return InterfaceField(record.snapshots[-1], FieldRole.DISPLACEMENT)


class TestLinearToyConstruction:
    def test_presets_hit_their_spectral_radius(self):
        assert LinearToyModel.stable().gs_spectral_radius == pytest.approx(0.5, rel=1e-10)
        assert LinearToyModel.unstable().gs_spectral_radius == pytest.approx(2.5, rel=1e-10)
        assert LinearToyModel.decoupled().gs_spectral_radius == 0.0

    def test_monolithic_solution_satisfies_both_blocks(self):
        toy = LinearToyModel(5, 3, 0.7)
        u_f, u_s = toy.monolithic_solution()
        assert np.allclose(toy.A_f @ u_f - toy.B_f @ u_s, toy.b_f0, atol=1e-12)
        assert np.allclose(toy.A_s @ u_s - toy.B_s @ u_f, toy.b_s0, atol=1e-12)

    def test_invalid_dims(self):
        with pytest.raises(ContractError):
            LinearToyModel(0, 4, 0.5)


class TestLinearToyCoupling:
    def test_decoupled_solution_is_independent_solves(self):
        toy = LinearToyModel.decoupled(n_steps=2)
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0, accel=AccelKind.CONSTANT)
        rec = run_simulation(toy, cfg)
        expect = np.linalg.solve(toy.A_s, toy.b_s0 + toy.B_s @ np.linalg.solve(toy.A_f, toy.b_f0))
        assert np.allclose(rec.snapshots[-1], expect, atol=1e-12)
        # once warm, a single coupling iteration per step suffices
        assert rec.counters.per_step[1][1] == 1

    def test_stable_gauss_seidel_reaches_monolithic(self):
        toy = LinearToyModel.stable()
        cfg = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=1.0, accel=AccelKind.CONSTANT)
        rec = run_simulation(toy, cfg)
        assert deviation_from_reference(final_field(rec), toy.interface_solution()) < 1e-12

    def test_unstable_plain_relaxation_diverges(self):
        toy = LinearToyModel.unstable()
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0, accel=AccelKind.CONSTANT)
        with pytest.raises(DivergedStepError):
            run_simulation(toy, cfg)

    def test_unstable_residual_grows_before_abort(self):
        toy = LinearToyModel.unstable()
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0, accel=AccelKind.CONSTANT)
        from fsilab.coupling import IqnHistory
        from fsilab.interface import fixed_point_residual

        d_k = toy.initial_displacement()
        u_f, u_s = toy.initial_flow_u(), toy.initial_solid_u()
        flow, solid = toy.flow_solver(0), toy.solid_solver(0)  # one time step
        norms = []
        for _ in range(4):
            tr, _, u_f = call_solver(SolverId.FLOW, flow, SolverCallInput(u_f, d_k, eps=1e-12))
            dt, _, u_s = call_solver(SolverId.SOLID, solid, SolverCallInput(u_s, tr, eps=1e-12))
            r = fixed_point_residual(dt, d_k)
            norms.append(float(np.linalg.norm(r)))
            d_k = InterfaceField(d_k.values + r, FieldRole.DISPLACEMENT)
        assert norms[1] < norms[2] < norms[3]

    def test_unstable_iqn_converges(self):
        toy = LinearToyModel.unstable()
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.1, accel=AccelKind.IQN_ILS)
        rec = run_simulation(toy, cfg)
        assert deviation_from_reference(final_field(rec), toy.interface_solution()) < 1e-9


class TestScalarToy:
    def test_closed_form_against_bisection_oracle(self):
        toy = ScalarToyModel()
        p = toy.params

        def coupled_mismatch(d):
            tau = (p.b0 + p.beta * d) / p.alpha
            return p.kappa * d**3 + p.stiffness * d - tau

        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if coupled_mismatch(mid) > 0:
                hi = mid
            else:
                lo = mid
        assert toy.exact_interface_solution() == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_coupled_run_lands_on_closed_form(self):
        toy = ScalarToyModel()
        cfg = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=1.0, accel=AccelKind.CONSTANT)
        rec = run_simulation(toy, cfg)
        assert rec.snapshots[-1][0] == pytest.approx(toy.exact_interface_solution(), abs=1e-10)

    def test_kappa_zero_linear_case(self):
        toy = ScalarToyModel(ScalarToyParams(kappa=0.0))
        # alpha u = b0 + beta d, (k) d = u: d = b0/(alpha k - beta)
        assert toy.exact_interface_solution() == pytest.approx(4.0 / (2.0 - 1.0), rel=1e-14)

    def test_monotonicity_guard(self):
        with pytest.raises(ContractError):
            ScalarToyParams(stiffness=0.4, alpha=2.0, beta=1.0)


class TestLinearToyIqnCount:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_iqn_converges_within_dim_plus_two(self, dim):
        toy = LinearToyModel(dim, dim, 0.5)
        cfg = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=0.5, accel=AccelKind.IQN_ILS,
                             criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-9)
        rec = run_simulation(toy, cfg)
        assert rec.counters.coupling_total <= dim + 2
        assert deviation_from_reference(final_field(rec), toy.interface_solution()) < 1e-9
