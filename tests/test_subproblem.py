import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fsilab import (
    CouplingConfig,
    DriverKind,
    SolverCallInput,
    SolverId,
    call_solver,
    run_simulation,
)
from fsilab.errors import (
    ContractError,
    DivergedStepError,
    DivergenceError,
    InnerIterationError,
    LinearSolveError,
)
from fsilab.models import LinearToyModel, Tube1DModel
from fsilab.models.tube import Tube1DParams
from fsilab.interface import all_finite
from fsilab.subproblem import _guards
from reference_specs import ReferenceDiagonalOperator, ReferenceFlowOperator, SpecSolver, run

DUMMY = np.zeros(1)


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


def call_input(u0, eps=1e-10, n_max=math.inf):
    return SolverCallInput(np.asarray(u0, dtype=float), DUMMY, eps=eps, n_max=n_max)


class TestNewtonDrive:
    def test_exact_initial_guess(self):
        u, rep = run(scalar_quadratic(), call_input([2.0], eps=1e-12))
        assert rep.inner_iters == 1
        assert rep.residual_history[0] == 0.0
        assert u[0] == 2.0

    def test_full_convergence_and_hand_first_step(self):
        u, rep = run(scalar_quadratic(), call_input([3.0], eps=1e-10))
        assert abs(u[0] - 2.0) < 1e-10
        # first Newton step by hand: K = 2*3 = 6, r = 4 - 9 = -5, u1 = 3 - 5/6
        assert rep.residual_history[0] == 5.0
        assert rep.residual_history[-1] < 1e-10

    def test_single_capped_step(self):
        u, rep = run(scalar_quadratic(), call_input([3.0], eps=1e-10, n_max=1))
        assert rep.residual_history == (5.0,)
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
        assert rep.residual_history == (0.0,)

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
        with pytest.raises(LinearSolveError):
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
    ones, zeros = np.ones(3), np.zeros(2)
    regular = ReferenceFlowOperator(ones, zeros, zeros, (0.0, 0.0), ones, ones, ones, ones)
    singular = ReferenceFlowOperator(np.zeros(3), zeros, zeros, (0.0, 0.0), ones, ones, ones,
                                     ones)
    return regular, singular


class TestStructuredOperators:
    @pytest.mark.parametrize("pair, driver", [
        (_diagonal_pair, DriverKind.NEWTON),
        (_diagonal_pair, DriverKind.PICARD),
        (_flow_pair, DriverKind.NEWTON),
        (_flow_pair, DriverKind.PICARD),
    ], ids=driver_id)
    def test_singular_operator_reports_iteration(self, pair, driver):
        # regular at u0 = 0, singular at every later iterate
        regular, singular = pair()
        op = lambda u: singular if u.any() else regular
        spec = SpecSolver(dim=5, assemble_matrix=op, tangent=op,
                          assemble_rhs=lambda c: np.ones(5), driver=driver)
        with pytest.raises(LinearSolveError) as err:
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

    def test_capped_call_is_not_guarded(self):
        # a cap ends the loop itself, so a capped call returns its iterate
        _, rep = run(_roundoff_bound_spec([]), call_input(np.zeros(20), eps=1e-12, n_max=30))
        assert rep.inner_iters == 30

    def test_nan_cap_runs_under_the_unbounded_guards(self):
        # CouplingConfig checks a cap once per run; a call bounds itself only
        # when n_max < inf, so an unchecked nan cap stalls out, not loops forever
        with pytest.raises(DivergenceError, match="round-off"):
            run(_roundoff_bound_spec([]), call_input(np.zeros(20), eps=1e-12, n_max=math.nan))


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
            r = b - inner_matrix(u) @ u
            again = np.linalg.norm(r) / math.sqrt(r.size)
            assert again == pytest.approx(recorded, rel=1e-14, abs=1e-300)


    @each_driver
    def test_tube_flow_norms_are_bitwise_residual_norm(self, driver):
        # call_solver records ||r||/sqrt(n) as sqrt(r . r)/sqrt(n); the numbers
        # must be np.linalg.norm's, bit for bit
        model = Tube1DModel(Tube1DParams(cells=30, steps=1, flow_scheme=driver))
        flow = model.flow_solver(model.initial_state())
        d = np.linspace(0.0, 2e-5, model.n_interface)
        residuals = []
        load = flow.load

        def recording_load(coupling):
            b, residual, solve = load(coupling)
            return b, lambda u: (residuals.append(residual(u)), residuals[-1])[1], solve

        flow.load = recording_load
        _, rep, _ = call_solver(SolverId.FLOW, flow, SolverCallInput(None, d, eps=1e-9))
        assert rep.inner_iters >= 2
        assert tuple(np.linalg.norm(r) / math.sqrt(r.size) for r in residuals) == \
            rep.residual_history


class TestGuards:
    """The finiteness test of every iterate, on vectors a sum-based shortcut misjudges."""

    def check(self, values):
        _guards([1.0], 1, np.array(values), False, 0.0)

    @pytest.mark.parametrize("values", [[math.inf, -math.inf], [1.0, math.nan],
                                        [math.inf, 1.0], [-math.inf, 1.0]])
    def test_non_finite_iterate_raises(self, values):
        with pytest.raises(DivergenceError, match="non-finite iterate"):
            self.check(values)

    def test_finite_iterate_whose_sum_overflows_passes(self):
        self.check([1e308, 1e308])

    @pytest.mark.parametrize("rhs, diverges", [([math.nan, 1.0], True), ([math.inf, 1.0], True),
                                               ([1e200, 1e200], False)],
                             ids=["nan-entry", "inf-entry", "norm-overflows"])
    def test_non_finite_residual_is_divergence(self, rhs, diverges):
        # a non-finite entry is a divergence at its inner iteration; a finite
        # residual whose norm overflows is recorded as inf
        def identity(u):
            return ReferenceDiagonalOperator(np.ones(2))

        spec = SpecSolver(dim=2, assemble_matrix=identity,
                          assemble_rhs=lambda c: np.array(rhs), tangent=identity)
        if not diverges:
            with np.errstate(over="ignore"):  # r . r overflows by design
                _, report = run(spec, call_input([0.0, 0.0], n_max=1))
            assert report.residual_history == (math.inf,)
            return
        with pytest.raises(DivergenceError, match="non-finite residual at inner iteration 1"
                           ) as err:
            run(spec, call_input([0.0, 0.0]))
        assert err.value.iteration == 1

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
        # the call's size is its right-hand side's: b must be a non-empty 1-D
        # vector, and u0 must have its length
        spec = scalar_affine()
        for rhs in (np.array([[6.0]]), np.zeros(0)):
            spec.assemble_rhs = lambda c: rhs
            with pytest.raises(ContractError, match=re.escape(
                    f"rhs has shape {rhs.shape}, expected a non-empty 1-D vector")):
                run(spec, call_input([0.0]))
        spec.assemble_rhs = lambda c: np.array([6.0, 6.0])
        with pytest.raises(ContractError, match=re.escape("u0 has shape (1,), expected (2,)")):
            run(spec, call_input([0.0]))

    @each_driver
    def test_no_start_state_is_zeros_of_the_rhs_length(self, driver):
        # u0 = None starts from zeros of b's length, bit for bit
        model = Tube1DModel(Tube1DParams(cells=30, steps=1, flow_scheme=driver))
        state = model.initial_state()
        for solver_id, solver, coupling, n in (
                (SolverId.FLOW, model.flow_solver(state),
                 np.linspace(0.0, 2e-5, model.n_interface), 61),
                (SolverId.SOLID, model.solid_solver(state),
                 np.linspace(1333.2, 0.0, model.n_interface), 31)):
            _, got, got_u = call_solver(solver_id, solver,
                                        SolverCallInput(None, coupling, eps=1e-12))
            _, ref, ref_u = call_solver(solver_id, solver,
                                        SolverCallInput(np.zeros(n), coupling, eps=1e-12))
            assert got.inner_iters >= 2 and got == ref
            assert got_u.tobytes() == ref_u.tobytes()


class TestIterationBounds:
    @pytest.mark.parametrize("n_max", [1, 2, 5])
    def test_cap_respected(self, n_max):
        _, rep = run(scalar_affine(), call_input([0.0], eps=1e-15, n_max=n_max))
        assert 1 <= rep.inner_iters <= n_max

    def test_unbounded_call_stops_at_the_ceiling(self, monkeypatch):
        # a solver that never moves keeps its residual, above the round-off
        # floor and below the growth guard: only the ceiling ends the call
        import fsilab.subproblem as subproblem_mod

        monkeypatch.setattr(subproblem_mod, "_ITER_CEILING", 4)
        b = np.array([6.0, -2.0])
        frozen = SimpleNamespace(load=lambda c: (b, lambda u: b - u, lambda u, r: np.zeros(2)),
                                 output=lambda u: u)
        with pytest.raises(DivergenceError, match="^no convergence within 4 iterations$") as err:
            call_solver(SolverId.SOLID, frozen, SolverCallInput(None, DUMMY, eps=1e-9))
        assert err.value.iteration == 4


class TestCallSolver:
    def test_flow_call_matches_direct_solve(self):
        toy = LinearToyModel.stable()
        d = np.zeros(toy.dim_s)
        flow = toy.flow_solver(0)
        out, rep, u = call_solver(SolverId.FLOW, flow,
                                  SolverCallInput(np.zeros(toy.dim_f), d, eps=1e-13))
        direct = np.linalg.solve(toy.A_f, toy.b_f0 + toy.B_f @ d)
        assert np.allclose(out, direct, atol=1e-12)
        # the toy's output is its final state, read-only from here on
        assert out is u and out.shape == (toy.dim_f,) and not out.flags.writeable

    def test_a_solver_is_load_and_output(self):
        # a black box has two members: the driver reads the call's size off
        # its right-hand side, and a call without interior state starts from zeros
        def black_box(solver):
            return SimpleNamespace(load=solver.load, output=solver.output)

        toy = LinearToyModel(dim_f=3, dim_s=5, steps=3)
        d = np.linspace(0.0, 1.0, toy.dim_s)
        out, rep, u = call_solver(SolverId.FLOW, black_box(toy.flow_solver(0)),
                                  SolverCallInput(None, d, eps=1e-13))
        assert out is u and u.shape == (toy.dim_f,) and rep.inner_iters == 2
        assert np.allclose(out, np.linalg.solve(toy.A_f, toy.b_f0 + toy.B_f @ d), atol=1e-12)

        boxed = SimpleNamespace(
            n_interface=toy.n_interface, n_steps=toy.n_steps, initial_state=toy.initial_state,
            flow_solver=lambda state: black_box(toy.flow_solver(state)),
            solid_solver=lambda state: black_box(toy.solid_solver(state)),
            advance_state=toy.advance_state)
        config = CouplingConfig(eps_f=1e-12, eps_s=1e-12, omega0=0.5)
        got, ref = run_simulation(boxed, config), run_simulation(toy, config)
        assert got.converged and got.counters == ref.counters
        assert [a.tobytes() for a in got.snapshots] == [a.tobytes() for a in ref.snapshots]

    def test_capped_call_returns_capped_iterate(self):
        toy = LinearToyModel.stable()
        d = np.zeros(toy.dim_s)
        flow = toy.flow_solver(0)
        out, rep, _ = call_solver(SolverId.FLOW, flow,
                                  SolverCallInput(np.zeros(toy.dim_f), d, eps=1e-13, n_max=1))
        assert rep.inner_iters == 1
        # the only recorded residual is the one before the single update
        assert rep.residual_history[-1] >= 1e-13
        direct = np.linalg.solve(toy.A_f, toy.b_f0 + toy.B_f @ d)
        assert np.allclose(out, direct, atol=1e-12)

    @pytest.mark.parametrize("solver_id", list(SolverId), ids=lambda s: s.value)
    def test_output_must_be_a_finite_float64_vector(self, solver_id):
        # call_solver is where a black box's output enters: anything but a
        # finite 1-D float64 array is refused, and what it accepts is read-only
        def unit_spec(extract_output):
            return SpecSolver(
                dim=1,
                assemble_matrix=lambda u: np.array([[1.0]]),
                assemble_rhs=lambda c: np.array([1.0]),
                tangent=lambda u: np.array([[1.0]]),
                extract_output=extract_output,
            )

        for bad in ([1.0], np.ones((1, 1)), np.ones(1, dtype=int), np.ones(1, dtype=np.float32),
                    np.array([1.0, np.nan]), np.array([np.inf, 1.0]), np.array([-np.inf])):
            with pytest.raises(ContractError, match=f"^{solver_id.value} solver must output "
                                                    "a finite 1-D float64 array$"):
                call_solver(solver_id, unit_spec(lambda u: bad), call_input([0.0]))
        out, _, u = call_solver(solver_id, unit_spec(lambda u: 2.0 * u), call_input([0.0]))
        assert out.tolist() == [2.0] and not out.flags.writeable and u.flags.writeable

    @pytest.mark.parametrize("output_is_state", [True, False])
    def test_output_tested_for_finiteness_once(self, monkeypatch, output_is_state):
        # the iterates' guard tests the final state, and the output is tested
        # only when it is another array, so each vector is tested once
        import fsilab.subproblem as subproblem_mod

        tested = []

        def counting_all_finite(x):
            tested.append(x)
            return all_finite(x)

        monkeypatch.setattr(subproblem_mod, "all_finite", counting_all_finite)
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[1.0]]),
            assemble_rhs=lambda c: np.array([1.0]),
            tangent=lambda u: np.array([[1.0]]),
            extract_output=(lambda u: u) if output_is_state else (lambda u: 2.0 * u),
        )
        out, rep, u = call_solver(SolverId.SOLID, spec, call_input([0.0]))
        assert (out is u) == output_is_state
        assert sum(x is u for x in tested) == 1 and sum(x is out for x in tested) == 1
        # u0, each iterate, and an output that is not the final state
        assert len(tested) == 1 + rep.inner_iters + (not output_is_state)

    def test_errors_annotated_with_solver(self):
        # call_solver passes the loop's error on as it is; the coupling loop,
        # which counts the failed call, names the solver in the step's abort
        spec = SpecSolver(
            dim=1,
            assemble_matrix=lambda u: np.array([[1.0]]),
            assemble_rhs=lambda c: np.array([1.0]),
            tangent=lambda u: np.array([[0.0]]),
            extract_output=lambda u: u,
        )
        with pytest.raises(LinearSolveError,
                           match="^singular linear solve at inner iteration 1$") as err:
            call_solver(SolverId.FLOW, spec, call_input([0.0]))
        assert err.value.iteration == 1

        class OneStep:
            n_interface = n_steps = 1

            def initial_state(self):
                return 0

            def flow_solver(self, state):
                return spec

            def solid_solver(self, state):
                return spec

        with pytest.raises(DivergedStepError, match=r"^time step 1: coupling update broke a "
                           r"subproblem \(flow solver: singular linear solve at inner "
                           r"iteration 1\)$") as err:
            run_simulation(OneStep(), CouplingConfig())
        assert err.value.partial.flow_iters == 1

    @pytest.mark.parametrize("rhs", [[6.0, 6.0], (6.0,), 6.0], ids=["list", "tuple", "float"])
    def test_rhs_must_be_a_numpy_vector(self, rhs):
        # the call's size is read off b, so anything but an ndarray is refused by name
        solver = SimpleNamespace(load=lambda c: (rhs, None, None), output=lambda u: u)
        with pytest.raises(ContractError, match=re.escape(
                f"rhs has shape {np.shape(rhs)}, expected a non-empty 1-D vector, a numpy "
                f"array (got {type(rhs).__name__})")):
            call_solver(SolverId.FLOW, solver, call_input([0.0]))

    def test_inner_iteration_errors_share_one_base(self):
        for cls in (LinearSolveError, DivergenceError):
            err = cls("failed", iteration=4)
            assert isinstance(err, InnerIterationError)
            assert err.iteration == 4
