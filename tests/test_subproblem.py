import math

import numpy as np
import pytest

from fsilab import (
    DriverKind,
    FieldRole,
    InterfaceField,
    SolverCallInput,
    SolverId,
    call_solver,
    drive,
    residual_norm,
)
from fsilab.errors import (
    ContractError,
    DivergenceError,
    InnerIterationError,
    LinearSolveError,
    PreconditionerError,
)
from fsilab.models import LinearToyModel, Tube1DModel
from fsilab.models.tube import FlowOperator, Tube1DParams
from fsilab.subproblem import _guards
from reference_specs import ReferenceDiagonalOperator, SpecSolver, run

DUMMY = InterfaceField(np.zeros(1), FieldRole.DISPLACEMENT)


def scalar_quadratic():
    """A(u) = u, b = 4: the nonlinear equation u^2 = 4."""
    return SpecSolver(
        dim=1,
        assemble_matrix=lambda u: np.array([[u[0]]]),
        assemble_rhs=lambda c: np.array([4.0]),
        tangent=lambda u: np.array([[2.0 * u[0]]]),
    )


def scalar_affine(driver=DriverKind.PICARD):
    """A(u) = 1 + u, b = 6: root u = 2, Picard map u' = 6/(1+u)."""
    return SpecSolver(
        dim=1,
        assemble_matrix=lambda u: np.array([[1.0 + u[0]]]),
        assemble_rhs=lambda c: np.array([6.0]),
        tangent=lambda u: np.array([[1.0 + 2.0 * u[0]]]),
        driver=driver,
    )


def driver_id(value):
    """Case id of a driver parameter: ``newton_drive`` or ``picard_drive``."""
    if isinstance(value, DriverKind):
        return f"{value.value}_drive"


each_driver = pytest.mark.parametrize("driver", list(DriverKind), ids=driver_id)


def call_input(u0, eps=1e-10, n_max=math.inf, batch_size=1):
    return SolverCallInput(np.asarray(u0, dtype=float), DUMMY, eps=eps, n_max=n_max,
                           batch_size=batch_size)


class TestNewtonDrive:
    def test_exact_initial_guess(self):
        u, rep = run(scalar_quadratic(), call_input([2.0], eps=1e-12))
        assert rep.inner_iters == 1
        assert rep.converged_on_first
        assert rep.residual_history[0] == 0.0
        assert u[0] == 2.0

    def test_full_convergence_and_hand_first_step(self):
        u, rep = run(scalar_quadratic(), call_input([3.0], eps=1e-10))
        assert abs(u[0] - 2.0) < 1e-10
        assert not rep.converged_on_first
        # first Newton step by hand: K = 2*3 = 6, r = 4 - 9 = -5, u1 = 3 - 5/6
        assert rep.residual_history[0] == 5.0
        assert rep.final_residual < 1e-10

    def test_single_capped_step(self):
        u, rep = run(scalar_quadratic(), call_input([3.0], eps=1e-10, n_max=1))
        assert rep.inner_iters == 1
        assert not rep.converged_on_first
        assert u[0] == pytest.approx(3.0 - 5.0 / 6.0, abs=1e-12)

    def test_linear_system_second_residual_zero(self):
        # constant A: the first update is exact regardless of u0
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
        b = rng.uniform(-1, 1, 5)
        spec = SpecSolver(
            dim=5,
            assemble_matrix=lambda u: a.copy(),
            assemble_rhs=lambda c: b.copy(),
            tangent=lambda u: a.copy(),
        )
        _, rep = run(spec, call_input(rng.uniform(-1, 1, 5), eps=1e-13))
        assert rep.inner_iters == 2
        assert rep.residual_history[1] <= 1e-12 * rep.residual_history[0]

    def test_singular_tangent(self):
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[1.0]]),
            assemble_rhs=lambda c: np.array([1.0]),
            tangent=lambda u: np.array([[0.0]]),
        )
        with pytest.raises(LinearSolveError) as err:
            run(spec, call_input([0.0]))
        assert err.value.iteration == 1

    def test_divergence_guard(self):
        # A(u) u = cbrt(u), b = 0: each Newton step maps u to -2u, so |r|
        # grows by 2^(1/3) per iteration and passes 1e8 x |r_1| at iteration 81
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[np.cbrt(u[0]) / u[0]]]),
            assemble_rhs=lambda c: np.array([0.0]),
            tangent=lambda u: np.array([[np.cbrt(u[0]) / (3.0 * u[0])]]),
        )
        with pytest.raises(DivergenceError, match="grew") as err:
            run(spec, call_input([1.0]))
        assert err.value.iteration == 81

    def test_nonfinite_iterate_is_divergence(self):
        # a nearly singular tangent overflows the update to +-inf
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[1.0]]),
            assemble_rhs=lambda c: np.array([1.0]),
            tangent=lambda u: np.array([[1e-320]]),
        )
        with pytest.raises(DivergenceError) as err:
            run(spec, call_input([0.0]))
        assert err.value.iteration == 1


class TestPicardDrive:
    def test_hand_iterates(self):
        # u' = 6/(1+u) from 0: 6, 6/7, 6/(1+6/7), ... contracting to 2
        seen = []
        spec = scalar_affine()
        inner = spec.assemble_matrix
        spec.assemble_matrix = lambda u: (seen.append(u[0]), inner(u))[1]
        u, rep = run(spec, call_input([0.0], eps=1e-8))
        assert abs(u[0] - 2.0) < 1e-8
        expect = [0.0]
        for _ in range(3):
            expect.append(6.0 / (1.0 + expect[-1]))
        assert seen[:4] == pytest.approx(expect, rel=1e-14)

    def test_exact_start(self):
        u, rep = run(scalar_affine(), call_input([2.0], eps=1e-10))
        assert rep.converged_on_first and rep.inner_iters == 1

    def test_linear_full_preconditioner_one_update(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        b = rng.uniform(-1, 1, 4)
        spec = SpecSolver(
            dim=4,
            assemble_matrix=lambda u: a.copy(),
            assemble_rhs=lambda c: b.copy(),
            driver=DriverKind.PICARD,
        )
        u, rep = run(spec, call_input(rng.uniform(-1, 1, 4), eps=1e-12))
        # one real update; the second recorded residual is zero to round-off
        assert rep.inner_iters == 2
        assert rep.residual_history[1] <= 1e-13 * max(rep.residual_history[0], 1.0)
        assert np.allclose(a @ u, b, atol=1e-12)

    def test_singular_preconditioner(self):
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[0.0]]),
            assemble_rhs=lambda c: np.array([1.0]),
            driver=DriverKind.PICARD,
        )
        with pytest.raises(PreconditionerError):
            run(spec, call_input([0.0]))

    def test_divergence_guard(self):
        # A(u) = u^-2, b = 1: the Picard map is u' = u^2, which collapses to 0
        # from 0.5 while |r| = 1/u - 1 squares, passing 1e8 x |r_1| at iteration 6
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[u[0] ** -2]]),
            assemble_rhs=lambda c: np.array([1.0]),
            driver=DriverKind.PICARD,
        )
        with pytest.raises(DivergenceError, match="grew") as err:
            run(spec, call_input([0.5]))
        assert err.value.iteration == 6


def _diagonal_pair():
    return ReferenceDiagonalOperator(np.ones(5)), ReferenceDiagonalOperator(np.array([1.0, 1.0, 0.0, 1.0, 1.0]))


def _flow_pair():
    # n = 2 cells: T = I is regular; T = 0 leaves the velocity constant unfixed
    ones = np.ones(3)
    regular = FlowOperator(np.zeros(2), ones, np.zeros(2), ones, ones)
    singular = FlowOperator(np.zeros(2), np.zeros(3), np.zeros(2), ones, ones)
    return regular, singular


class TestStructuredOperators:
    @pytest.mark.parametrize("pair, driver, error", [
        (_diagonal_pair, DriverKind.NEWTON, LinearSolveError),
        (_diagonal_pair, DriverKind.PICARD, PreconditionerError),
        (_flow_pair, DriverKind.NEWTON, LinearSolveError),
        (_flow_pair, DriverKind.PICARD, PreconditionerError),
    ], ids=driver_id)
    def test_singular_operator_reports_iteration(self, pair, driver, error):
        # regular at u0 = 0, singular at every later iterate
        regular, singular = pair()
        op = lambda u: singular if u.any() else regular
        spec = SpecSolver(dim=5, assemble_matrix=op, tangent=op,
                          assemble_rhs=lambda c: np.ones(5), driver=driver)
        with pytest.raises(error) as err:
            run(spec, call_input(np.zeros(5)))
        assert err.value.iteration == 2


def _roundoff_bound_spec(calls, driver=DriverKind.NEWTON):
    """20x20 linear system whose residual, after one solve, sits at round-off of
    ``||b|| ~ 1e8`` (~5e-9) and never reaches an eps of 1e-12."""
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (20, 20)) + 5 * np.eye(20)
    b = 1e8 * rng.uniform(-1, 1, 20)
    return SpecSolver(
        dim=20,
        assemble_matrix=lambda u: (calls.append(1), a.copy())[1],
        assemble_rhs=lambda c: b.copy(),
        tangent=lambda u: a.copy(),
        driver=driver,
    )


class TestRoundoffFloor:
    @each_driver
    def test_eps_below_roundoff_fails_fast(self, driver):
        # the uncapped call gives up instead of spinning to the iteration ceiling
        calls = []
        with pytest.raises(DivergenceError, match="round-off"):
            run(_roundoff_bound_spec(calls, driver), call_input(np.zeros(20), eps=1e-12))
        assert len(calls) <= 20

    @pytest.mark.parametrize("batch_size", [6, 8])
    def test_converged_call_still_runs_full_batch(self, batch_size):
        # residual 0 on every iteration: converged, not stalled, so the batch ends
        _, rep = run(scalar_affine(), call_input([2.0], eps=1e-10, batch_size=batch_size))
        assert rep.inner_iters == batch_size
        assert rep.final_residual == 0.0

    def test_capped_call_is_not_guarded(self):
        # a cap ends the loop itself, so a capped call returns its iterate
        _, rep = run(_roundoff_bound_spec([]), call_input(np.zeros(20), eps=1e-12, n_max=30))
        assert rep.inner_iters == 30


class TestBatching:
    def _spec(self):
        return scalar_affine()

    def test_converged_call_still_runs_full_batch(self):
        u, rep = run(self._spec(), call_input([2.0], eps=1e-10, batch_size=3))
        assert rep.inner_iters == 3
        assert rep.converged_on_first

    def test_newton_batches_too(self):
        # the batch rule belongs to the one loop, not to the Picard update
        u, rep = run(scalar_quadratic(), call_input([2.0], eps=1e-12, batch_size=3))
        assert rep.inner_iters == 3
        assert rep.converged_on_first
        assert u[0] == 2.0

    def test_cap_truncates_last_batch(self):
        u, rep = run(self._spec(), call_input([0.0], eps=1e-14, n_max=7, batch_size=3))
        assert rep.inner_iters == 7  # 3 + 3 + truncated 1

    def test_multiple_of_batch(self):
        u, rep = run(self._spec(), call_input([0.0], eps=1e-8, batch_size=4))
        assert rep.inner_iters % 4 == 0


class TestSolverCallInput:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_positive_and_finite(self, eps):
        # a NaN tolerance is never met: an exact solve would run to the ceiling
        with pytest.raises(ContractError, match="eps must be positive and finite"):
            call_input([2.0], eps=eps)


class TestRhsFrozen:
    @each_driver
    def test_rhs_assembled_exactly_once_per_call(self, driver):
        # a drifting right-hand side would require re-assembly; one call, one b
        calls = []
        spec = scalar_affine(driver)
        orig_rhs = spec.assemble_rhs
        spec.assemble_rhs = lambda c: (calls.append(1), orig_rhs(c))[1]
        _, rep = run(spec, call_input([0.0], eps=1e-9))
        assert rep.inner_iters > 1
        assert len(calls) == 1

    def test_first_residual_pins_the_assembled_b(self):
        # from u0 = 0 the first recorded residual is exactly ||b||/sqrt(n)
        _, rep = run(scalar_affine(), call_input([0.0], eps=1e-9))
        assert rep.residual_history[0] == 6.0


class TestReplayProperty:
    @each_driver
    def test_recorded_norms_reproducible(self, driver):
        iterates = []
        spec = scalar_affine(driver)
        inner_matrix = spec.assemble_matrix
        spec.assemble_matrix = lambda u: (iterates.append(u.copy()), inner_matrix(u))[1]
        _, rep = run(spec, call_input([0.3], eps=1e-9))
        b = spec.assemble_rhs(DUMMY)
        for u, recorded in zip(iterates, rep.residual_history):
            again = residual_norm(b - inner_matrix(u) @ u, 1)
            assert again == pytest.approx(recorded, rel=1e-14, abs=1e-300)


    @each_driver
    def test_tube_flow_norms_are_bitwise_residual_norm(self, driver):
        # drive records ||r||/sqrt(n) without residual_norm's checks; the
        # numbers must still be residual_norm's, bit for bit
        model = Tube1DModel(Tube1DParams(cells=30, steps=1), flow_driver=driver)
        flow = model.flow_solver(model.initial_state())
        d = InterfaceField(np.linspace(0.0, 2e-5, model.n_interface), FieldRole.DISPLACEMENT)
        residuals = []
        load = flow.load

        def recording_load(coupling):
            b, residual, solve = load(coupling)
            return b, lambda u: (residuals.append(residual(u)), residuals[-1])[1], solve

        flow.load = recording_load
        _, history = drive(flow, SolverCallInput(model.initial_flow_u(), d, eps=1e-9))
        assert len(history) >= 2
        assert [residual_norm(r, flow.dim) for r in residuals] == history


class TestGuards:
    """The finiteness test of every iterate, on vectors a sum-based shortcut misjudges."""

    def check(self, values):
        _guards([1.0], 1, np.array(values), False, "t", 0.0, 1e-9)

    @pytest.mark.parametrize("values", [[math.inf, -math.inf], [1.0, math.nan],
                                        [math.inf, 1.0], [-math.inf, 1.0]])
    def test_non_finite_iterate_raises(self, values):
        with pytest.raises(DivergenceError, match="non-finite iterate"):
            self.check(values)

    def test_finite_iterate_whose_sum_overflows_passes(self):
        self.check([1e308, 1e308])

    @pytest.mark.parametrize("values", [[math.inf, -math.inf], [1.0, math.nan]])
    def test_non_finite_start_rejected(self, values):
        def identity(u):
            return ReferenceDiagonalOperator(np.ones(2))

        spec = SpecSolver(dim=2, assemble_matrix=identity,
                          assemble_rhs=lambda c: np.ones(2), tangent=identity)
        with pytest.raises(ContractError, match="u0 contains non-finite"):
            run(spec, call_input(values))

    @each_driver
    def test_start_state_is_never_written(self, driver):
        # the driver takes u0 without a copy, so it must never write into it
        u0 = np.array([0.3])
        u0.setflags(write=False)
        u, rep = run(scalar_affine(driver), call_input(u0, eps=1e-9))
        assert u0[0] == 0.3 and rep.inner_iters > 1 and u is not u0

    def test_start_state_of_wrong_shape_rejected(self):
        with pytest.raises(ContractError, match="u0 has shape"):
            run(scalar_affine(), call_input([0.0, 0.0]))

    def test_rhs_of_wrong_shape_rejected(self):
        spec = scalar_affine()
        spec.assemble_rhs = lambda c: np.array([6.0, 6.0])
        with pytest.raises(ContractError, match="rhs has shape"):
            run(spec, call_input([0.0]))


class TestIterationBounds:
    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_cap_respected(self, n_max):
        _, rep = run(scalar_affine(), call_input([0.0], eps=1e-15, n_max=n_max))
        assert 1 <= rep.inner_iters <= n_max


class TestCallSolver:
    def test_flow_call_matches_direct_solve(self):
        toy = LinearToyModel.stable()
        d = toy.initial_displacement()
        flow = toy.flow_solver(0)
        out, rep, u = call_solver(SolverId.FLOW, flow,
                                  SolverCallInput(np.zeros(toy.dim_f), d, eps=1e-13))
        direct = np.linalg.solve(toy.A_f, toy.b_f0 + toy.B_f @ d.values)
        assert np.allclose(out.values, direct, atol=1e-12)
        assert out.role is FieldRole.TRACTION
        assert rep.wall_time >= 0.0
        assert np.array_equal(u, out.values)

    def test_capped_call_returns_capped_iterate(self):
        toy = LinearToyModel.stable(flow_driver=DriverKind.PICARD)
        d = toy.initial_displacement()
        flow = toy.flow_solver(0)
        out, rep, _ = call_solver(SolverId.FLOW, flow,
                                  SolverCallInput(np.zeros(toy.dim_f), d, eps=1e-13, n_max=1))
        assert rep.inner_iters == 1
        # the only recorded residual is the one before the single update
        assert rep.final_residual >= 1e-13
        direct = np.linalg.solve(toy.A_f, toy.b_f0 + toy.B_f @ d.values)
        assert np.allclose(out.values, direct, atol=1e-12)

    def test_role_validation(self):
        toy = LinearToyModel.stable()
        d = toy.initial_displacement()
        flow = toy.flow_solver(0)  # outputs traction
        with pytest.raises(ContractError):
            call_solver(SolverId.SOLID, flow,
                        SolverCallInput(np.zeros(toy.dim_f), d, eps=1e-13))

    def test_errors_annotated_with_solver(self):
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[1.0]]),
            assemble_rhs=lambda c: np.array([1.0]),
            tangent=lambda u: np.array([[0.0]]),
            extract_output=lambda u: InterfaceField(u, FieldRole.TRACTION),
        )
        with pytest.raises(LinearSolveError, match="flow solver") as err:
            call_solver(SolverId.FLOW, spec, call_input([0.0]))
        # the failed call's cost travels with the error
        assert err.value.inner_iters == 1
        assert err.value.wall_time > 0.0

    def test_inner_iteration_errors_share_one_base(self):
        for cls in (LinearSolveError, PreconditionerError, DivergenceError):
            err = cls("failed", iteration=4)
            assert isinstance(err, InnerIterationError)
            assert err.iteration == 4
