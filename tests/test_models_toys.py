import math
import re

import numpy as np
import pytest

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    SolverCallInput,
    SolverId,
    call_solver,
    deviation_from_reference,
    run_simulation,
)
from fsilab.errors import ContractError, DivergedStepError
from fsilab.models import LinearToyModel


def gs_spectral_radius(toy: LinearToyModel) -> float:
    """Spectral radius of the toy's Gauss-Seidel interface map ``A_s^-1 B_s A_f^-1 B_f``."""
    g = np.linalg.solve(toy.A_s, toy.B_s) @ np.linalg.solve(toy.A_f, toy.B_f)
    return float(max(abs(np.linalg.eigvals(g))))


class TestLinearToyConstruction:
    def test_presets_hit_their_spectral_radius(self):
        assert gs_spectral_radius(LinearToyModel.stable()) == pytest.approx(0.5, rel=1e-10)
        assert gs_spectral_radius(LinearToyModel.unstable()) == pytest.approx(2.5, rel=1e-10)
        assert gs_spectral_radius(LinearToyModel.decoupled()) == 0.0

    def test_monolithic_solution_satisfies_both_blocks(self):
        toy = LinearToyModel(5, 3, 0.7)
        u_f, u_s = toy.monolithic_solution()
        assert np.allclose(toy.A_f @ u_f - toy.B_f @ u_s, toy.b_f0, atol=1e-12)
        assert np.allclose(toy.A_s @ u_s - toy.B_s @ u_f, toy.b_s0, atol=1e-12)

    @pytest.mark.parametrize("dim_s", range(1, 7))
    @pytest.mark.parametrize("dim_f", range(1, 7))
    def test_monolithic_matrix_is_never_singular(self, dim_f, dim_s):
        # A_s = 3I - T and B_s's mix M = -I + T/4 are polynomials in the same
        # symmetric T, so A_s^-1 M is symmetric negative definite; with B_f a
        # non-negative multiple of P = I(dim_f, dim_s), P^T A_f^-1 P is
        # symmetric semi-definite. Their product G has real eigenvalues <= 0,
        # and det(mono) = det A_f det A_s det(I - G) >= 1 for every strength.
        for strength in (0.0, 0.5, 1.0, 2.5, 1e3):
            toy = LinearToyModel(dim_f, dim_s, strength)
            g = np.linalg.solve(toy.A_s, toy.B_s) @ np.linalg.solve(toy.A_f, toy.B_f)
            eig = np.linalg.eigvals(g)
            scale = max(abs(eig))  # 0 when decoupled, where G is exactly zero
            # round-off moves the zero eigenvalues of a rank-deficient G off 0
            assert np.all(abs(eig.imag) <= 1e-12 * scale), (strength, eig)
            assert np.all(eig.real <= 1e-12 * scale), (strength, eig)
            mono = np.block([[toy.A_f, -toy.B_f], [-toy.B_s, toy.A_s]])
            assert np.linalg.det(mono) >= 1.0
            rhs = np.concatenate([toy.b_f0, toy.b_s0])
            u = np.concatenate(toy.monolithic_solution())
            assert np.linalg.norm(mono @ u - rhs) <= 1e-12 * np.linalg.norm(rhs)
            assert np.array_equal(toy.interface_solution(), u[dim_f:])

    def test_invalid_dims(self):
        with pytest.raises(ContractError):
            LinearToyModel(0, 4, 0.5)

    def test_negative_coupling_strength_rejected(self):
        with pytest.raises(ContractError, match=r"^coupling_strength must be >= 0, got -1\.0$"):
            LinearToyModel(coupling_strength=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.5"])
    def test_non_finite_coupling_strength_rejected(self, value):
        # a nan strength used to run to a "converged" one-step result, and
        # "0.5" to escape as a bare TypeError
        with pytest.raises(ContractError, match="'coupling_strength' must be finite"):
            LinearToyModel(coupling_strength=value)


class TestLinearToyCoupling:
    def test_decoupled_solution_is_independent_solves(self):
        toy = LinearToyModel.decoupled(steps=2)
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0, accel=AccelKind.CONSTANT)
        rec = run_simulation(toy, cfg)
        expect = np.linalg.solve(toy.A_s, toy.b_s0 + toy.B_s @ np.linalg.solve(toy.A_f, toy.b_f0))
        assert np.allclose(rec.snapshots[-1], expect, atol=1e-12)
        # once warm, a single coupling iteration per step suffices
        assert rec.steps[1].coupling_iters == 1

    def test_stable_gauss_seidel_reaches_monolithic(self):
        toy = LinearToyModel.stable()
        cfg = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=1.0, accel=AccelKind.CONSTANT)
        rec = run_simulation(toy, cfg)
        assert deviation_from_reference(rec.snapshots[-1], toy.interface_solution()) < 1e-12

    def test_unstable_plain_relaxation_diverges(self):
        toy = LinearToyModel.unstable()
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0, accel=AccelKind.CONSTANT)
        with pytest.raises(DivergedStepError):
            run_simulation(toy, cfg)

    def test_unstable_residual_grows_before_abort(self):
        toy = LinearToyModel.unstable()
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=1.0, accel=AccelKind.CONSTANT)
        from fsilab.coupling import IqnHistory

        d_k = np.zeros(toy.dim_s)
        u_f, u_s = np.zeros(toy.dim_f), np.zeros(toy.dim_s)
        flow, solid = toy.flow_solver(0), toy.solid_solver(0)  # one time step
        norms = []
        for _ in range(4):
            tr, _, u_f = call_solver(SolverId.FLOW, flow, SolverCallInput(u_f, d_k, eps=1e-12))
            dt, _, u_s = call_solver(SolverId.SOLID, solid, SolverCallInput(u_s, tr, eps=1e-12))
            r = dt - d_k
            norms.append(float(np.linalg.norm(r)))
            d_k = d_k + r
        assert norms[1] < norms[2] < norms[3]

    def test_load_rejects_coupling_data_of_another_shape(self):
        # an (n, 1) array has the right size but would broadcast into b
        toy = LinearToyModel(dim_f=3, dim_s=5)
        for solver, n in ((toy.flow_solver(0), 5), (toy.solid_solver(0), 3)):
            for shape in ((n - 1,), (n, 1)):
                with pytest.raises(ContractError, match=f"^coupling data has shape "
                                   f"{re.escape(str(shape))}, expected \\({n},\\)$"):
                    solver.load(np.zeros(shape))

    def test_unstable_iqn_converges(self):
        toy = LinearToyModel.unstable()
        cfg = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.1, accel=AccelKind.IQN_ILS)
        rec = run_simulation(toy, cfg)
        assert deviation_from_reference(rec.snapshots[-1], toy.interface_solution()) < 1e-9


@pytest.mark.parametrize("build", [LinearToyModel, LinearToyModel.stable],
                         ids=["linear", "preset"])
@pytest.mark.parametrize("steps", [0, -2, 1.0])
def test_toy_step_count_is_a_positive_integer(build, steps):
    # zero steps used to print a "converged" run of no steps
    with pytest.raises(ContractError, match="steps must be an integer >= 1"):
        build(steps=steps)


@pytest.mark.parametrize("key", ["dim_f", "dim_s"])
@pytest.mark.parametrize("value", [0, -2, 2.0])
def test_toy_dimension_is_a_positive_integer(key, value):
    # a float dimension used to fail inside numpy with a bare TypeError
    with pytest.raises(ContractError, match=f"^{key} must be an integer >= 1"):
        LinearToyModel(**{key: value})


class TestLinearToyIqnCount:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_iqn_converges_within_dim_plus_two(self, dim):
        toy = LinearToyModel(dim, dim, 0.5)
        cfg = CouplingConfig(eps_f=1e-13, eps_s=1e-13, omega0=0.5, accel=AccelKind.IQN_ILS,
                             criterion=CriterionKind.FIXED_POINT_NORM, eps_c=1e-9)
        rec = run_simulation(toy, cfg)
        assert rec.counters.coupling_total <= dim + 2
        assert deviation_from_reference(rec.snapshots[-1], toy.interface_solution()) < 1e-9
