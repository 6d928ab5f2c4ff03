import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsilab import (
    AccelKind,
    CouplingConfig,
    DriverKind,
    SolverCallInput,
    SolverId,
    call_solver,
    run_simulation,
)
from fsilab.errors import ContractError, GeometryError
from fsilab.models import Tube1DModel
from fsilab.models.tube import (
    Tube1DParams,
    TubeFlowSolver,
    TubeSolidSolver,
    _face_average,
    areas_from_displacement,
    initial_tube_state,
    mass_balance_error,
)
from reference_specs import (
    ReferenceFlowOperator,
    reference_flow_operators,
    reference_flow_system,
    reference_iterate,
    reference_solid_system,
    reference_step_terms,
    run,
)


@pytest.fixture
def params():
    return Tube1DParams(cells=50, steps=20)


def zero_disp(params):
    return np.zeros(params.n_nodes)


def flow_u0(params):
    return np.zeros(2 * params.cells + 1)


def dense_flow_reference(params, displacement):
    """Dense ``(assemble_matrix, tangent)`` of the flow system: the oracle for
    the flow solver's residual and its Newton and Picard solves."""
    n = params.cells
    dx, dt, rho = params.dx, params.dt, params.rho_f
    a = areas_from_displacement(params, displacement)
    a_face = _face_average(a)
    dim = 2 * n + 1
    faces = np.arange(n + 1)
    jf = np.arange(1, n)  # interior faces
    cells = np.arange(n)

    def _cell_flux_coeffs(v_lin: np.ndarray):
        """Momentum flux through cell i: a_i * vc_i * v_up(i), linearized at v_lin."""
        vc = 0.5 * (v_lin[:-1] + v_lin[1:])  # cell-center velocity
        up = np.where(vc >= 0.0, cells, cells + 1)  # upwind face index
        return a * vc, up, vc

    def assemble_matrix(u: np.ndarray) -> np.ndarray:
        v_lin = u[: n + 1]
        A = np.zeros((dim, dim))

        # momentum rows (faces): time term
        A[faces, faces] += a_face / dt
        # convection: face j balances (F_j - F_{j-1})/dx with cell-center
        # fluxes, so the flux through cell i is the right flux of face i (+)
        # and the left flux of face i+1 (-)
        coeff, up, _ = _cell_flux_coeffs(v_lin)
        A[cells, up] += coeff / dx
        A[cells + 1, up] -= coeff / dx
        # boundary extension fluxes: F_{-1} = a_face0*v0*v0, F_n = a_facen*vn*vn
        A[0, 0] -= a_face[0] * v_lin[0] / dx
        A[n, n] += a_face[n] * v_lin[n] / dx

        # pressure gradient: interior face j couples p_{j-1}, p_j
        pcol = n + 1 + np.arange(n)
        A[jf, pcol[jf]] += a_face[jf] / (rho * dx)
        A[jf, pcol[jf - 1]] -= a_face[jf] / (rho * dx)
        # half-cell rows at the two boundary faces
        A[0, pcol[0]] += 2.0 * a_face[0] / (rho * dx)
        A[n, pcol[n - 1]] -= 2.0 * a_face[n] / (rho * dx)

        # mass rows (cells): (a_face[i+1] v_{i+1} - a_face[i] v_i)/dx
        A[n + 1 + cells, cells + 1] += a_face[cells + 1] / dx
        A[n + 1 + cells, cells] -= a_face[cells] / dx
        return A

    def tangent(u: np.ndarray) -> np.ndarray:
        v_lin = u[: n + 1]
        K = assemble_matrix(u)
        # d(A(u) u)/du: cell-flux coefficient a_i*vc_i differentiates into
        # 0.5*a_i*v_up against both faces of cell i
        _, up, _ = _cell_flux_coeffs(v_lin)
        w = 0.5 * a * v_lin[up] / dx
        K[cells, cells] += w
        K[cells, cells + 1] += w
        K[cells + 1, cells] -= w
        K[cells + 1, cells + 1] -= w
        # boundary extension fluxes a_face*v*v
        K[0, 0] -= a_face[0] * v_lin[0] / dx
        K[n, n] += a_face[n] * v_lin[n] / dx
        return K

    return assemble_matrix, tangent


def draw_velocities(rng, signs, scale, size):
    """Face velocities whose cells are all forward, all backward or mixed, or
    exact ties (``v_i + v_{i+1} = 0``, upwind face i) at every other cell."""
    low, high = {"forward": (0.0, 1.0), "backward": (-1.0, 0.0)}.get(signs, (-1.0, 1.0))
    v = scale * rng.uniform(low, high, size)
    if signs == "tie":
        v[1::2] = -v[:-1:2]
    return v


VELOCITY_SIGNS = ["mixed", "forward", "backward", "tie"]


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestParams:
    def test_defaults_match_published_setup(self):
        p = Tube1DParams()
        assert (p.length, p.radius, p.thickness) == (0.05, 0.005, 0.001)
        assert (p.rho_f, p.rho_s) == (1000.0, 1200.0)
        assert (p.youngs_modulus, p.poisson) == (3.0e5, 0.3)
        assert (p.cells, p.dt, p.steps) == (100, 1e-4, 100)
        assert (p.inlet_pulse, p.pulse_duration, p.outlet_pressure) == (1333.2, 0.003, 0.0)

    def test_pulse_window(self):
        p = Tube1DParams()
        assert p.inlet_pressure(1) == 1333.2
        assert p.inlet_pressure(30) == 1333.2  # t = 0.003 is still loaded
        assert p.inlet_pressure(31) == 0.0

    def test_pulse_window_scales_with_its_duration(self):
        # a slack of 1e-12 s, not relative to the pulse, kept a 1e-13 s pulse
        # on for all 100 steps of 1e-14 s
        p = Tube1DParams(dt=1e-14, pulse_duration=1e-13)
        assert [s for s in range(1, 101) if p.inlet_pressure(s)] == list(range(1, 11))

    def test_validation(self):
        with pytest.raises(ContractError, match=r"^poisson must lie in \[0, 0\.5\), got 0\.6$"):
            Tube1DParams(poisson=0.6)
        with pytest.raises(ContractError, match=r"^kappa3 must be >= 0, got -1\.0$"):
            Tube1DParams(kappa3=-1.0)

    @pytest.mark.parametrize("name, value", [("dt", 0.0), ("length", -1.0)])
    def test_non_positive_size_rejected(self, name, value):
        with pytest.raises(ContractError, match=f"^{name} must be positive and finite, "
                                                f"got {value!r}$"):
            Tube1DParams(**{name: value})

    @pytest.mark.parametrize("name, value", [("dt", 1e-300), ("radius", 1e-170)])
    def test_size_whose_square_underflows_rejected(self, name, value):
        # the solid divides by dt**2 and radius**2: both used to escape as a
        # bare ZeroDivisionError when the solvers were built
        with pytest.raises(ContractError, match=f"^tube parameter '{name}' = {value!r} "):
            Tube1DParams(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1e-4"])
    @pytest.mark.parametrize("name", [
        "length", "radius", "thickness", "rho_f", "rho_s", "youngs_modulus",
        "poisson", "dt", "inlet_pulse", "pulse_duration", "outlet_pressure", "kappa3"])
    def test_non_finite_float_rejected(self, name, value):
        # a nan inlet_pulse used to fail later at a residual norm, and an
        # infinite dt to "diverge" at step 1; rho_s = True used to build as
        # 1.0, and dt = "1e-4" to escape as a bare TypeError
        with pytest.raises(ContractError, match=f"'{name}' must be finite"):
            Tube1DParams(**{name: value})

    @pytest.mark.parametrize("name", ["cells", "steps"])
    def test_non_integer_count_rejected(self, name):
        # a fractional cell count used to escape as a numpy TypeError, and
        # steps = True passed as one step
        for value in (20.5, 20.0, True):
            with pytest.raises(ContractError, match=f"{name} must be an integer"):
                Tube1DParams(**{name: value})


class TestGeometry:
    def test_rest_areas(self, params):
        a = areas_from_displacement(params, np.zeros(params.n_nodes))
        assert np.allclose(a, math.pi * params.radius**2)

    def test_nodal_average(self, params):
        d = np.zeros(params.n_nodes)
        d[3] = 1e-3
        a = areas_from_displacement(params, d)
        assert a[2] == pytest.approx(math.pi * (params.radius + 5e-4) ** 2, rel=1e-14)
        assert a[3] == pytest.approx(math.pi * (params.radius + 5e-4) ** 2, rel=1e-14)

    def test_collapse_rejected(self, params):
        d = np.full(params.n_nodes, -params.radius)
        with pytest.raises(GeometryError):
            areas_from_displacement(params, d)


class TestFlowSystem:
    def test_rest_state_stays_zero(self):
        p = Tube1DParams(cells=50, steps=20, inlet_pulse=0.0, flow_scheme=DriverKind.PICARD)
        state = initial_tube_state(p)
        flow = TubeFlowSolver(p, state)
        u, rep = run(flow, SolverCallInput(flow_u0(p), zero_disp(p), eps=1e-9))
        assert rep.residual_history == (0.0,)
        assert np.allclose(u, 0.0)

    def test_rigid_uniform_pressure_gives_constant_velocity(self, params):
        p = params
        state = initial_tube_state(p)
        v_bar = 0.37
        state.velocity[:] = v_bar
        pressure = 250.0
        flow = TubeFlowSolver(
            Tube1DParams(cells=p.cells, steps=p.steps, inlet_pulse=pressure,
                         pulse_duration=1.0, outlet_pressure=pressure),
            state)
        u0 = flow_u0(p)
        u0[: p.cells + 1] = v_bar
        u0[p.cells + 1 :] = pressure
        u, rep = run(flow, SolverCallInput(u0, zero_disp(p), eps=1e-10))
        v = u[: p.cells + 1]
        pr = u[p.cells + 1 :]
        assert np.ptp(v) < 1e-12
        assert np.allclose(v, v_bar, atol=1e-10)
        assert np.allclose(pr, pressure, atol=1e-8)

    def test_pulse_enters_rhs_and_traction_passthrough(self, params):
        p = params
        state = initial_tube_state(p)
        d = zero_disp(p)
        flow = TubeFlowSolver(p, state)
        b, _, _ = flow.load(d)
        a0 = state.area[0]
        # inlet BC term in the half-cell momentum row of face 0
        assert b[0] == pytest.approx(2.0 * a0 * 1333.2 / (p.rho_f * p.dx), rel=1e-14)
        u, _ = run(flow, SolverCallInput(flow_u0(p), d, eps=1e-9))
        traction = flow.output(u)
        assert traction.size == p.n_nodes
        assert traction[0] == 1333.2
        assert traction[-1] == 0.0

    def test_startup_from_rest_matches_analytic_solution(self, params):
        # frozen uniform area, v_old = 0: v is uniform dt*(dp/dx)/rho and the
        # face pressures interpolate linearly between the imposed BCs
        p = params
        state = initial_tube_state(p)
        d = zero_disp(p)
        u, _ = run(TubeFlowSolver(p, state), SolverCallInput(flow_u0(p), d, eps=1e-11))
        v = u[: p.cells + 1]
        v_exact = p.dt * (1333.2 / p.length) / p.rho_f
        assert np.allclose(v, v_exact, rtol=1e-6)
        pr = u[p.cells + 1 :]
        centers = (np.arange(p.cells) + 0.5) * p.dx
        assert np.allclose(pr, 1333.2 * (1 - centers / p.length), atol=0.02)

    def test_tangent_matches_finite_differences(self, params):
        # the Newton solve inverts the tangent: K(u), rebuilt from the solve's
        # responses to unit vectors, matches central differences of A(u) u
        p = params
        state = initial_tube_state(p)
        state.velocity[:] = 0.15
        b, residual, solve = TubeFlowSolver(p, state).load(zero_disp(p))
        rng = np.random.default_rng(5)
        n = p.cells
        u = np.concatenate([0.2 + 0.03 * rng.standard_normal(n + 1),
                            400.0 + 30.0 * rng.standard_normal(n)])
        residual(u)
        k = np.linalg.inv(np.column_stack([solve(u, e) for e in np.eye(u.size)]))
        h = 1e-6

        def f(x):
            return b - residual(x)

        k_fd = np.empty_like(k)
        for j in range(u.size):
            e = np.zeros_like(u)
            e[j] = h
            k_fd[:, j] = (f(u + e) - f(u - e)) / (2 * h)
        assert np.max(np.abs(k - k_fd)) <= 1e-6 * np.max(np.abs(k_fd))

    @settings(max_examples=60, deadline=None)
    @given(cells=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           v_scale=st.floats(1e-3, 1.0), disp_scale=st.floats(0.0, 1e-3),
           signs=st.sampled_from(VELOCITY_SIGNS))
    def test_banded_operators_match_dense_reference(self, cells, seed, v_scale, disp_scale,
                                                    signs):
        p = Tube1DParams(cells=cells, steps=1)
        rng = np.random.default_rng(seed)
        d = disp_scale * rng.uniform(-1.0, 1.0, p.n_nodes)
        # each upwind branch, both together, and the tie that picks face i
        u = np.concatenate([draw_velocities(rng, signs, v_scale, cells + 1),
                            1000.0 * rng.standard_normal(cells)])
        r = rng.standard_normal(u.size)
        assemble, tangent = dense_flow_reference(p, d)
        for driver, dense in ((DriverKind.NEWTON, tangent), (DriverKind.PICARD, assemble)):
            b, residual, solve = TubeFlowSolver(replace(p, flow_scheme=driver),
                                                initial_tube_state(p)).load(d)
            assert rel_err(residual(u), b - assemble(u) @ u) <= 1e-14
            assert rel_err(solve(u, r), np.linalg.solve(dense(u), r)) <= 1e-11

    @pytest.mark.parametrize("signs", VELOCITY_SIGNS)
    def test_interior_fluxes_cancel(self, signs):
        # at p = 0 the momentum rows of A(u) u are the time term plus
        # F_j - F_{j-1}: their sum telescopes to the two extension fluxes
        # a_face_n v_n^2/dx - a_face_0 v_0^2/dx, whatever the upwind faces
        p = Tube1DParams(cells=40, steps=1)
        rng = np.random.default_rng(VELOCITY_SIGNS.index(signs))
        d = 1e-4 * rng.uniform(-1.0, 1.0, p.n_nodes)
        v = draw_velocities(rng, signs, 0.3, p.n_nodes)
        b, residual, _ = TubeFlowSolver(p, initial_tube_state(p)).load(d)
        mom = (b - residual(np.concatenate([v, np.zeros(p.cells)])))[: p.n_nodes]
        a_face = _face_average(areas_from_displacement(p, d))
        time_term = a_face / p.dt * v
        convective = mom - time_term
        ends = (a_face[-1] * v[-1] ** 2 - a_face[0] * v[0] ** 2) / p.dx
        scale = np.abs(b).sum() + np.abs(mom).sum() + np.abs(time_term).sum()
        assert abs(convective.sum() - ends) <= 1e3 * np.finfo(float).eps * scale
        assert abs(ends) > 1e3 * abs(convective.sum() - ends)

    @settings(max_examples=80, deadline=None)
    @given(cells=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           v_scale=st.floats(1e-3, 1.0), disp_scale=st.floats(0.0, 1e-3),
           signs=st.sampled_from(VELOCITY_SIGNS))
    def test_flow_kernel_is_bitwise_the_reference(self, cells, seed, v_scale, disp_scale,
                                                  signs):
        p = Tube1DParams(cells=cells, steps=1)
        rng = np.random.default_rng(seed)
        d = disp_scale * rng.uniform(-1.0, 1.0, p.n_nodes)
        v = draw_velocities(rng, signs, v_scale, cells + 1)
        u = np.concatenate([v, 1000.0 * rng.standard_normal(cells)])
        r = rng.standard_normal(u.size)
        # the solve reads what the residual just before it kept, at u and
        # then at an edited u
        u_edit = u.copy()
        u_edit[0] += v_scale
        assemble_ref, tangent_ref = reference_flow_operators(p, d)
        for driver, ref_m in ((DriverKind.NEWTON, tangent_ref),
                              (DriverKind.PICARD, assemble_ref)):
            b, residual, solve = TubeFlowSolver(replace(p, flow_scheme=driver),
                                                initial_tube_state(p)).load(d)
            for x in (u, u_edit):
                assert np.array_equal(residual(x), b - assemble_ref(x) @ x)
                assert np.array_equal(solve(x, r), ref_m(x).solve(r))

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_flow_solve_singular_like_the_reference(self, bad):
        # s.z = ell^T T z is 0 when every time term underflows against ell (at
        # rest, with a vanishing density and a huge step) and not finite at an
        # inf or nan velocity; the reference's is so for a time term of `bad`
        if bad == 0.0:
            p = Tube1DParams(cells=3, steps=1, rho_f=1e-300, dt=1e300)
            u = np.zeros(2 * p.cells + 1)
        else:
            p = Tube1DParams(cells=3, steps=1)
            u = np.full(2 * p.cells + 1, bad)
        r = np.ones(u.size)
        for driver in DriverKind:
            _, residual, solve = TubeFlowSolver(replace(p, flow_scheme=driver),
                                                initial_tube_state(p)).load(zero_disp(p))
            with np.errstate(invalid="ignore", over="ignore"):
                residual(u)
                with pytest.raises(np.linalg.LinAlgError, match="singular flow operator"):
                    solve(u, r)
        ones, zeros = np.ones(p.cells + 1), np.zeros(p.cells)
        ref = ReferenceFlowOperator(np.full(p.cells + 1, bad), zeros, zeros, (0.0, 0.0),
                                    ones, ones, ones, ones)
        with pytest.raises(np.linalg.LinAlgError, match="singular flow operator"):
            ref.solve(r)

    @pytest.mark.parametrize("edit", ["none", "pressure", "velocity", "upwind"])
    def test_tangent_after_assemble_is_bitwise_a_fresh_tangent(self, params, edit):
        # the Newton solve reads the bands of the last residual, at the
        # iterate that residual saw, and never writes into them: after a
        # residual at u and one at an edited u, the solve equals a fresh
        # call's, twice over
        p, n = params, params.cells
        rng = np.random.default_rng(11)
        state = initial_tube_state(p)
        state.velocity[:] = 0.1 * rng.standard_normal(n + 1)
        d = 1e-4 * rng.uniform(-1.0, 1.0, p.n_nodes)
        _, residual, solve = TubeFlowSolver(p, state).load(d)
        _, fresh_residual, fresh_solve = TubeFlowSolver(p, state).load(d)
        u = np.concatenate([0.1 * rng.uniform(-1.0, 1.0, n + 1),
                            1000.0 * rng.standard_normal(n)])
        r = rng.standard_normal(u.size)
        r_before = residual(u).tobytes()
        if edit == "pressure":
            u[n + 1] += 5.0
        elif edit == "velocity":
            u[n // 2] *= 1.0 + 1e-15
        elif edit == "upwind":
            u[: n + 1] *= -1.0
        got_r, ref_r = residual(u), fresh_residual(u)
        assert got_r.tobytes() == ref_r.tobytes()
        assert (got_r.tobytes() == r_before) == (edit == "none")
        ref = fresh_solve(u, r).tobytes()
        assert solve(u, r).tobytes() == ref
        assert solve(u, r).tobytes() == ref

    def test_wrong_displacement_rejected(self, params):
        flow = TubeFlowSolver(params, initial_tube_state(params))
        # an (n, 1) array has the right size but would broadcast
        for shape in ((3,), (params.n_nodes, 1)):
            with pytest.raises(ContractError,
                               match=f"^displacement has shape {re.escape(str(shape))},"):
                flow.load(np.zeros(shape))


class TestSolidSystem:
    def uniform_traction(self, params, value):
        return np.full(params.n_nodes, value)

    def test_zero_load_zero_displacement(self, params):
        state = initial_tube_state(params)
        u, rep = run(TubeSolidSolver(params, state),
                     SolverCallInput(np.zeros(params.n_nodes),
                                     self.uniform_traction(params, 0.0), eps=1e-6))
        assert rep.residual_history == (0.0,)
        assert np.allclose(u, 0.0)

    def test_static_ring_formula(self, params):
        # closed form: d = p r0^2 (1 - nu^2) / (E h) at every interior node; at
        # rest with dt = 1e3 s the ring inertia rho_s h / dt^2 is 9.1e-14 of
        # the ring stiffness, so the step solves the static ring
        p_ = Tube1DParams(cells=params.cells, steps=params.steps, kappa3=0.0, dt=1e3)
        state = initial_tube_state(p_)
        tr = self.uniform_traction(p_, 1333.2)
        solid = TubeSolidSolver(p_, state)
        u, _ = run(solid, SolverCallInput(np.zeros(p_.n_nodes), tr, eps=1e-10))
        expect = 1333.2 * p_.radius**2 * (1 - p_.poisson**2) / (
            p_.youngs_modulus * p_.thickness)
        assert expect == pytest.approx(1.0110e-4, rel=1e-3)
        assert np.allclose(u[1:-1], expect, rtol=1e-12)
        assert u[0] == 0.0 and u[-1] == 0.0  # clamped ends

    def test_static_cubic_against_bisection_oracle(self, params):
        # dt = 1e3 s makes the ring inertia negligible, as in test_static_ring_formula
        p_ = Tube1DParams(cells=params.cells, steps=params.steps, dt=1e3)
        state = initial_tube_state(p_)
        load = 900.0
        tr = self.uniform_traction(p_, load)
        solid = TubeSolidSolver(p_, state)
        u, _ = run(solid, SolverCallInput(np.zeros(p_.n_nodes), tr, eps=1e-12))
        k1 = p_.ring_stiffness
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if k1 * mid + p_.kappa3 * mid**3 > load:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert np.allclose(u[1:-1], root, atol=1e-12)

    def test_first_loaded_call_needs_three_newton_iterations(self):
        p_ = Tube1DParams()  # shipped calibration
        state = initial_tube_state(p_)
        tr = np.linspace(1333.2, 0.0, p_.n_nodes)
        _, rep = run(TubeSolidSolver(p_, state),
                     SolverCallInput(np.zeros(p_.n_nodes), tr, eps=CouplingConfig().eps_s))
        assert 2 <= rep.inner_iters <= 4
        assert rep.inner_iters == 3

    def test_energy_decay_unloaded(self, params):
        # linear rings, zero load: backward Euler dissipates the discrete energy
        p_ = Tube1DParams(cells=params.cells, steps=params.steps, kappa3=0.0)
        state = initial_tube_state(p_)
        state.wall_disp[1:-1] = 5e-5
        state.wall_vel[1:-1] = -0.02
        tr = self.uniform_traction(p_, 0.0)
        m = p_.wall_mass
        k1 = p_.ring_stiffness

        def energy(st):
            return 0.5 * m * st.wall_vel[1:-1] @ st.wall_vel[1:-1] + \
                0.5 * k1 * st.wall_disp[1:-1] @ st.wall_disp[1:-1]

        energies = [energy(state)]
        for _ in range(40):
            solid = TubeSolidSolver(p_, state)
            u, _ = run(solid, SolverCallInput(state.wall_disp.copy(), tr, eps=1e-12))
            w_new = (u - state.wall_disp) / p_.dt
            state.wall_disp = u
            state.wall_vel = w_new
            state.step += 1
            energies.append(energy(state))
        assert all(b <= a + 1e-18 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < 0.5 * energies[0]

    def test_wrong_traction_rejected(self, params):
        solid = TubeSolidSolver(params, initial_tube_state(params))
        # an (n, 1) array has the right size but would broadcast
        for shape in ((3,), (params.n_nodes, 1)):
            with pytest.raises(ContractError,
                               match=f"^traction has shape {re.escape(str(shape))},"):
                solid.load(np.zeros(shape))


def _random_state(params, rng, step):
    n, m = params.cells, params.n_nodes
    state = initial_tube_state(params)
    state.area = state.area * (1.0 + 0.01 * rng.standard_normal(n))
    state.velocity = 0.1 * rng.standard_normal(n + 1)
    state.wall_disp = 1e-5 * rng.standard_normal(m)
    state.wall_vel = 1e-2 * rng.standard_normal(m)
    state.step = step
    return state


def _solver_bytes(flow, solid, d, tr, rng) -> list:
    """Right-hand sides, residuals, corrections and outputs of a flow and a solid solver."""
    u_f = np.concatenate([0.1 * rng.uniform(-1.0, 1.0, d.size),
                          1e3 * rng.standard_normal(d.size - 1)])
    u_s = 1e-5 * rng.standard_normal(tr.size)
    out = []
    for solver, coupling, u in ((flow, d, u_f), (solid, tr, u_s)):
        b, residual, solve = solver.load(coupling)
        r = residual(u)
        out += [b, r, solve(u, r), solver.output(u.copy())]
    return [a.tobytes() for a in out]


class TestModelStepTerms:
    def test_model_specs_follow_their_state(self, params):
        # a model's solvers take what they need of the state when they are
        # built: for states A, B and A again, and for a state edited before
        # each build, they equal fresh builds byte for byte, and an edit after
        # a build does not reach the solvers already built; nothing writes a
        # state's arrays, so an edit gives the state a new array
        rng = np.random.default_rng(21)
        model = Tube1DModel(params)
        a_state, b_state = _random_state(params, rng, 0), _random_state(params, rng, 7)
        edited = _random_state(params, rng, 3)
        d = 1e-5 * rng.uniform(-1.0, 1.0, params.n_nodes)
        tr = 1e3 * rng.standard_normal(params.n_nodes)

        def edit(name, index, delta):
            def apply(state):
                values = getattr(state, name).copy()
                values[index] += delta
                setattr(state, name, values)
            return apply

        def past_the_pulse(state):
            state.step = 40

        checks = [(a_state, None), (b_state, None), (a_state, None), (edited, None),
                  (edited, edit("area", 3, 1e-8)), (edited, edit("velocity", 5, 0.01)),
                  (edited, edit("wall_disp", 4, 1e-6)), (edited, edit("wall_vel", 6, -1e-3)),
                  (edited, past_the_pulse)]
        for state, change in checks:
            built = model.flow_solver(state), model.solid_solver(state)
            seed = int(rng.integers(2**32))
            before = _solver_bytes(*built, d, tr, np.random.default_rng(seed))
            if change is not None:
                change(state)  # the same state object, one new array
            # a solver built before the edit keeps the terms it took
            assert _solver_bytes(*built, d, tr, np.random.default_rng(seed)) == before
            for _ in range(2):  # a second call of the same solvers repeats the first
                seed = int(rng.integers(2**32))
                got = _solver_bytes(model.flow_solver(state), model.solid_solver(state),
                                    d, tr, np.random.default_rng(seed))
                ref = _solver_bytes(TubeFlowSolver(params, state), TubeSolidSolver(params, state),
                                    d, tr, np.random.default_rng(seed))
                assert got == ref


@pytest.fixture(scope="module")
def mid_run_cases():
    """(state, accepted displacement, flow u, solid u) at the start of steps of a short run."""
    import fsilab.coupling as coupling_mod

    params = Tube1DParams(cells=40, steps=12)
    model = Tube1DModel(params)
    states, flow_u, solid_u = [model.initial_state()], [], []
    last_flow_u = []  # the final state of the latest flow call
    real_call = coupling_mod.call_solver

    def recording(solver_id, solver, inp):
        out = real_call(solver_id, solver, inp)
        if solver_id is SolverId.FLOW:
            last_flow_u[:] = [out[2]]
        return out

    def keep(step, hist, state):
        states.append(state)
        flow_u.append(last_flow_u[0])
        solid_u.append(state.wall_disp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling_mod, "call_solver", recording)
        record = run_simulation(model, CouplingConfig(), on_step=keep)
    cases = [(states[0], record.snapshots[0], flow_u0(params), np.zeros(params.n_nodes))]
    cases += [(states[i], record.snapshots[i], flow_u[i - 1], solid_u[i - 1]) for i in (3, 7, 11)]
    return params, cases


class TestSolversAreBitwiseTheSpecPath:
    """The per-step solvers against the per-iteration spec path they replaced."""

    @pytest.mark.parametrize("calls", [1, 3])
    @pytest.mark.parametrize("cap", [1, 2, math.inf])
    @pytest.mark.parametrize("driver", list(DriverKind), ids=lambda k: k.value)
    def test_histories_and_final_states(self, mid_run_cases, driver, cap, calls):
        # one solver pair serves `calls` calls in a row, each started from the
        # last one's result, as the coupling iterations of a time step use it
        config = CouplingConfig()
        params, cases = mid_run_cases
        for state, snapshot, u_f, u_s in cases:
            d = snapshot
            terms = reference_step_terms(params, state)
            flow = TubeFlowSolver(replace(params, flow_scheme=driver), state)
            solid = TubeSolidSolver(params, state)
            for _ in range(calls):
                inp = SolverCallInput(u_f, d, eps=config.eps_f, n_max=cap)
                tr, got, got_u = call_solver(SolverId.FLOW, flow, inp)
                ref_u, ref_h = reference_iterate(
                    reference_flow_system(params, state, d, driver, *terms[:2]), inp)
                assert np.array_equal(got_u, ref_u)
                assert np.array_equal(got.residual_history, ref_h)
                assert got.inner_iters  # at least one inner iteration
                u_f = got_u

                inp = SolverCallInput(u_s, tr, eps=config.eps_s, n_max=cap)
                _, got, got_u = call_solver(SolverId.SOLID, solid, inp)
                ref_u, ref_h = reference_iterate(
                    reference_solid_system(params, tr, *terms[2:]), inp)
                assert np.array_equal(got_u, ref_u)
                assert np.array_equal(got.residual_history, ref_h)
                u_s = got_u


class TestCoupledInvariants:
    def test_mass_conservation_and_geometric_consistency(self, params):
        model = Tube1DModel(params)
        cfg = CouplingConfig()
        states = []
        record = run_simulation(model, cfg, on_step=lambda s, h, st: states.append(st))
        bound = 10.0 * cfg.eps_f * params.length * params.dt
        prev = initial_tube_state(params)
        for snapshot, state in zip(record.snapshots, states):
            assert np.array_equal(state.area, areas_from_displacement(params, snapshot))
            assert abs(mass_balance_error(params, prev, state)) <= bound
            prev = state

    def test_counters_dominate_coupling_total(self, params):
        record = run_simulation(Tube1DModel(params), CouplingConfig())
        c = record.counters
        assert c.flow_total >= c.coupling_total
        assert c.solid_total >= c.coupling_total

    @pytest.mark.parametrize("scheme", ["newton", "picard", None, AccelKind.AITKEN])
    def test_flow_scheme_of_another_type_rejected(self, scheme):
        # "newton" used to run Picard: the flow solver's dispatch tests for
        # DriverKind.NEWTON, and the tube's parameters are the one check
        with pytest.raises(ContractError, match=re.escape(
                f"flow_scheme must be a DriverKind, got {scheme!r}")):
            Tube1DParams(flow_scheme=scheme)

    @pytest.mark.parametrize("scheme", ["newton", "picard", None, 1])
    def test_flow_solver_rejects_a_flow_scheme_of_another_type(self, params, scheme):
        # the solver built directly ran Picard for "newton": the scheme now
        # reaches it only through its parameters, and replace() re-checks them
        with pytest.raises(ContractError, match=re.escape(
                f"flow_scheme must be a DriverKind, got {scheme!r}")):
            TubeFlowSolver(replace(params, flow_scheme=scheme), initial_tube_state(params))

    def test_picard_flow_lane_runs(self, params):
        model = Tube1DModel(replace(params, flow_scheme=DriverKind.PICARD))
        record = run_simulation(model, CouplingConfig())
        assert record.converged
        assert len(record.snapshots) == params.steps
