import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsilab import (
    CouplingConfig,
    DriverKind,
    FieldRole,
    InterfaceField,
    SolverCallInput,
    drive,
    run_simulation,
)
from fsilab.errors import ContractError, GeometryError
from fsilab.models import Tube1DModel
from fsilab.models.tube import (
    FlowOperator,
    Tube1DParams,
    TubeFlowSolver,
    TubeSolidSolver,
    _face_average,
    areas_from_displacement,
    initial_tube_state,
    mass_balance_error,
)
from reference_specs import (
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
    return InterfaceField(np.zeros(params.n_nodes), FieldRole.DISPLACEMENT)


def flow_u0(params):
    return np.zeros(2 * params.cells + 1)


def dense_flow_reference(params, displacement):
    """Dense ``(assemble_matrix, tangent)`` of the flow system: the oracle for
    the banded :class:`~fsilab.models.tube.FlowOperator`."""
    n = params.cells
    dx, dt, rho = params.dx, params.dt, params.rho_f
    a = areas_from_displacement(params, displacement.values)
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


class ReferenceFlowOperator(FlowOperator):
    """The flow operator's earlier apply and solve, kept verbatim as the
    bitwise oracle of :class:`~fsilab.models.tube.FlowOperator`."""

    def _t(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[1:] += self.lo * x[:-1]
        y[:-1] += self.up * x[1:]
        return y

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        nf = self.diag.size
        v, p = u[:nf], u[nf:]
        mom = self._t(v)
        mom[:-1] += self.g[:-1] * p
        mom[1:] -= self.g[1:] * p
        return np.concatenate([mom, self.d[1:] * v[1:] - self.d[:-1] * v[:-1]])

    def solve(self, r: np.ndarray) -> np.ndarray:
        nf = self.diag.size
        f, h = r[:nf], r[nf:]
        ell, z = self.ell, self.z
        ell_t_z = ell @ self._t(z)
        if ell_t_z == 0.0 or not np.isfinite(ell_t_z):
            raise np.linalg.LinAlgError("singular flow operator")
        v_h = np.concatenate([[0.0], np.cumsum(h)]) * z
        v = v_h + ((ell @ (f - self._t(v_h))) / ell_t_z) * z
        p = np.cumsum((f - self._t(v))[:-1] * ell[:-1])
        return np.concatenate([v, p])


def reference_flow_operators(params, displacement):
    """``(assemble_matrix, tangent)`` of the flow spec as it was built before
    the per-spec band precomputations, kept verbatim as the bitwise oracle."""
    n = params.cells
    dx, dt, rho = params.dx, params.dt, params.rho_f
    a = areas_from_displacement(params, displacement.values)
    a_face = _face_average(a)
    g = a_face / (rho * dx)
    g[[0, n]] *= 2.0
    d = a_face / dx
    ell, z = 1.0 / g, 1.0 / d

    def _momentum_bands(v: np.ndarray):
        vc = 0.5 * (v[:-1] + v[1:])
        coeff = a * vc / dx
        forward = vc >= 0.0
        cf = np.where(forward, coeff, 0.0)
        cb = np.where(forward, 0.0, coeff)
        diag = a_face / dt
        diag[:-1] += cf
        diag[1:] -= cb
        diag[0] -= a_face[0] * v[0] / dx
        diag[n] += a_face[n] * v[n] / dx
        return -cf, diag, cb, forward

    def assemble_matrix(u: np.ndarray) -> ReferenceFlowOperator:
        lo, diag, up, _ = _momentum_bands(u[: n + 1].copy())
        return ReferenceFlowOperator(lo, diag, up, g, d, ell, z)

    def tangent(u: np.ndarray) -> ReferenceFlowOperator:
        v = u[: n + 1]
        lo, diag, up, forward = _momentum_bands(v)
        w = 0.5 * a * np.where(forward, v[:-1], v[1:]) / dx
        diag = diag.copy()
        diag[:-1] += w
        diag[1:] -= w
        diag[0] -= a_face[0] * v[0] / dx
        diag[n] += a_face[n] * v[n] / dx
        return ReferenceFlowOperator(lo - w, diag, up + w, g, d, ell, z)

    return assemble_matrix, tangent


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestParams:
    def test_defaults_match_published_setup(self):
        p = Tube1DParams()
        assert (p.length, p.radius, p.thickness) == (0.05, 0.005, 0.001)
        assert (p.rho_f, p.mu_f, p.rho_s) == (1000.0, 0.003, 1200.0)
        assert (p.youngs_modulus, p.poisson) == (3.0e5, 0.3)
        assert (p.cells, p.dt, p.steps) == (100, 1e-4, 100)
        assert (p.inlet_pulse, p.pulse_duration, p.outlet_pressure) == (1333.2, 0.003, 0.0)

    def test_pulse_window(self):
        p = Tube1DParams()
        assert p.inlet_pressure(1) == 1333.2
        assert p.inlet_pressure(30) == 1333.2  # t = 0.003 is still loaded
        assert p.inlet_pressure(31) == 0.0

    def test_validation(self):
        with pytest.raises(ContractError):
            Tube1DParams(poisson=0.6)
        with pytest.raises(ContractError):
            Tube1DParams(kappa3=-1.0)

    @pytest.mark.parametrize("name", ["cells", "steps"])
    def test_non_integer_count_rejected(self, name):
        # a fractional cell count used to escape as a numpy TypeError
        for value in (20.5, 20.0):
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
        p = Tube1DParams(cells=50, steps=20, inlet_pulse=0.0)
        state = initial_tube_state(p)
        flow = TubeFlowSolver(p, state, driver=DriverKind.PICARD)
        u, rep = run(flow, SolverCallInput(flow_u0(p), zero_disp(p), eps=1e-9))
        assert rep.converged_on_first and rep.inner_iters == 1
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
        assert traction.role is FieldRole.TRACTION
        assert traction.values[0] == 1333.2
        assert traction.values[-1] == 0.0

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
           v_scale=st.floats(1e-3, 1.0), disp_scale=st.floats(0.0, 1e-3))
    def test_banded_operators_match_dense_reference(self, cells, seed, v_scale, disp_scale):
        p = Tube1DParams(cells=cells, steps=1)
        rng = np.random.default_rng(seed)
        d = InterfaceField(disp_scale * rng.uniform(-1.0, 1.0, p.n_nodes),
                           FieldRole.DISPLACEMENT)
        # velocities of both signs exercise both upwind branches
        u = np.concatenate([v_scale * rng.uniform(-1.0, 1.0, cells + 1),
                            1000.0 * rng.standard_normal(cells)])
        r = rng.standard_normal(u.size)
        assemble, tangent = dense_flow_reference(p, d)
        for driver, dense in ((DriverKind.NEWTON, tangent), (DriverKind.PICARD, assemble)):
            b, residual, solve = TubeFlowSolver(p, initial_tube_state(p), driver).load(d)
            assert rel_err(residual(u), b - assemble(u) @ u) <= 1e-14
            assert rel_err(solve(u, r), np.linalg.solve(dense(u), r)) <= 1e-11

    @settings(max_examples=80, deadline=None)
    @given(cells=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           v_scale=st.floats(1e-3, 1.0), disp_scale=st.floats(0.0, 1e-3),
           signs=st.sampled_from(["mixed", "forward", "backward"]))
    def test_flow_kernel_is_bitwise_the_reference(self, cells, seed, v_scale, disp_scale,
                                                  signs):
        p = Tube1DParams(cells=cells, steps=1)
        rng = np.random.default_rng(seed)
        d = InterfaceField(disp_scale * rng.uniform(-1.0, 1.0, p.n_nodes),
                           FieldRole.DISPLACEMENT)
        v = v_scale * rng.uniform({"mixed": -1.0, "forward": 0.0, "backward": -1.0}[signs],
                                  {"mixed": 1.0, "forward": 1.0, "backward": 0.0}[signs],
                                  cells + 1)
        u = np.concatenate([v, 1000.0 * rng.standard_normal(cells)])
        r = rng.standard_normal(u.size)
        # the solve reads the bands of the residual just before it, at u and
        # then at an edited u
        u_edit = u.copy()
        u_edit[0] += v_scale
        assemble_ref, tangent_ref = reference_flow_operators(p, d)
        for driver, ref_m in ((DriverKind.NEWTON, tangent_ref),
                              (DriverKind.PICARD, assemble_ref)):
            b, residual, solve = TubeFlowSolver(p, initial_tube_state(p), driver).load(d)
            for x in (u, u_edit):
                assert np.array_equal(residual(x), b - assemble_ref(x) @ x)
                assert np.array_equal(solve(x, r), ref_m(x).solve(r))

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_flow_solve_singular_like_the_reference(self, bad):
        # ell^T T z is 0 for zero bands and non-finite for an inf or nan band
        ones, n = np.ones(3), 3
        bands = (np.zeros(n - 1), np.full(n, bad), np.zeros(n - 1), ones, ones)
        for cls in (FlowOperator, ReferenceFlowOperator):
            with pytest.raises(np.linalg.LinAlgError, match="singular flow operator"):
                cls(*bands).solve(np.ones(2 * n - 1))

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
        d = InterfaceField(1e-4 * rng.uniform(-1.0, 1.0, p.n_nodes), FieldRole.DISPLACEMENT)
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
        with pytest.raises(ContractError):
            flow.load(InterfaceField(np.zeros(3), FieldRole.DISPLACEMENT))
        with pytest.raises(ContractError):
            flow.load(InterfaceField(np.zeros(params.n_nodes), FieldRole.TRACTION))


class TestSolidSystem:
    def uniform_traction(self, params, value):
        return InterfaceField(np.full(params.n_nodes, value), FieldRole.TRACTION)

    def test_zero_load_zero_displacement(self, params):
        state = initial_tube_state(params)
        u, rep = run(TubeSolidSolver(params, state),
                     SolverCallInput(np.zeros(params.n_nodes),
                                     self.uniform_traction(params, 0.0), eps=1e-6))
        assert rep.converged_on_first
        assert np.allclose(u, 0.0)

    def test_static_ring_formula(self, params):
        # closed form: d = p r0^2 (1 - nu^2) / (E h) at every interior node
        p_ = Tube1DParams(cells=params.cells, steps=params.steps, kappa3=0.0)
        state = initial_tube_state(p_)
        tr = self.uniform_traction(p_, 1333.2)
        solid = TubeSolidSolver(p_, state, static=True)
        u, _ = run(solid, SolverCallInput(np.zeros(p_.n_nodes), tr, eps=1e-10))
        expect = 1333.2 * p_.radius**2 * (1 - p_.poisson**2) / (
            p_.youngs_modulus * p_.thickness)
        assert expect == pytest.approx(1.0110e-4, rel=1e-3)
        assert np.allclose(u[1:-1], expect, rtol=1e-12)
        assert u[0] == 0.0 and u[-1] == 0.0  # clamped ends

    def test_static_cubic_against_bisection_oracle(self, params):
        p_ = params
        state = initial_tube_state(p_)
        load = 900.0
        tr = self.uniform_traction(p_, load)
        solid = TubeSolidSolver(p_, state, static=True)
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
        tr = InterfaceField(np.linspace(1333.2, 0.0, p_.n_nodes), FieldRole.TRACTION)
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
            state.wall_acc = (w_new - state.wall_vel) / p_.dt
            state.wall_disp = u
            state.wall_vel = w_new
            state.step += 1
            energies.append(energy(state))
        assert all(b <= a + 1e-18 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < 0.5 * energies[0]

    def test_wrong_traction_rejected(self, params):
        solid = TubeSolidSolver(params, initial_tube_state(params))
        with pytest.raises(ContractError):
            solid.load(InterfaceField(np.zeros(3), FieldRole.TRACTION))
        with pytest.raises(ContractError):
            solid.load(InterfaceField(np.zeros(params.n_nodes), FieldRole.DISPLACEMENT))


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
        out += [b, r, solve(u, r), solver.output(u.copy()).values]
    return [a.tobytes() for a in out]


class TestModelStepTerms:
    def test_model_specs_follow_their_state(self, params):
        # a model's solvers take what they need of the state when they are
        # built: for states A, B and A again, and for a state edited in place
        # before each build, they equal fresh builds byte for byte, and an
        # edit after a build does not reach the solvers already built
        rng = np.random.default_rng(21)
        model = Tube1DModel(params)
        a_state, b_state = _random_state(params, rng, 0), _random_state(params, rng, 7)
        edited = _random_state(params, rng, 3)
        d = InterfaceField(1e-5 * rng.uniform(-1.0, 1.0, params.n_nodes), FieldRole.DISPLACEMENT)
        tr = InterfaceField(1e3 * rng.standard_normal(params.n_nodes), FieldRole.TRACTION)

        def edit(name, index, delta):
            def apply(state):
                getattr(state, name)[index] += delta
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
                change(state)  # in place: the same state object and arrays
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
    params = Tube1DParams(cells=40, steps=12)
    model = Tube1DModel(params)
    states, flow_u, solid_u = [model.initial_state()], [], []

    def keep(step, hist, state):
        states.append(state)
        flow_u.append(np.concatenate([state.velocity, state.pressure]))
        solid_u.append(state.wall_disp)

    record = run_simulation(model, CouplingConfig(), on_step=keep)
    cases = [(states[0], record.snapshots[0], model.initial_flow_u(), model.initial_solid_u())]
    cases += [(states[i], record.snapshots[i], flow_u[i - 1], solid_u[i - 1]) for i in (3, 7, 11)]
    return params, cases


class TestSolversAreBitwiseTheSpecPath:
    """The per-step solvers against the per-iteration spec path they replaced."""

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("cap", [1, 2, math.inf])
    @pytest.mark.parametrize("driver", list(DriverKind), ids=lambda k: k.value)
    def test_histories_and_final_states(self, mid_run_cases, driver, cap, batch_size):
        config = CouplingConfig()
        params, cases = mid_run_cases
        for state, snapshot, u_f, u_s in cases:
            d = InterfaceField(snapshot, FieldRole.DISPLACEMENT)
            terms = reference_step_terms(params, state)
            inp = SolverCallInput(u_f, d, eps=config.eps_f, n_max=cap, batch_size=batch_size)
            flow = TubeFlowSolver(params, state, driver)
            got_u, got_h = drive(flow, inp)
            ref_u, ref_h = reference_iterate(
                reference_flow_system(params, state, d, driver, *terms[:2]), inp)
            assert np.array_equal(got_u, ref_u) and np.array_equal(got_h, ref_h)
            assert got_h  # at least one inner iteration

            tr = flow.output(got_u)
            inp = SolverCallInput(u_s, tr, eps=config.eps_s, n_max=cap, batch_size=batch_size)
            got_u, got_h = drive(TubeSolidSolver(params, state), inp)
            ref_u, ref_h = reference_iterate(reference_solid_system(params, tr, *terms[2:]), inp)
            assert np.array_equal(got_u, ref_u) and np.array_equal(got_h, ref_h)


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

    def test_picard_flow_lane_runs(self, params):
        model = Tube1DModel(params, flow_driver=DriverKind.PICARD)
        record = run_simulation(model, CouplingConfig())
        assert record.converged
        assert len(record.snapshots) == params.steps

    def test_flow_batching_multiples(self, params):
        from dataclasses import replace

        model = Tube1DModel(params, flow_driver=DriverKind.PICARD)
        record = run_simulation(model, replace(CouplingConfig(), batch_size_f=4))
        assert record.counters.flow_total % 4 == 0
        assert record.counters.flow_total >= 4 * record.counters.coupling_total
