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
    Tube1DParams,
    _face_average,
    areas_from_displacement,
    initial_tube_state,
    mass_balance_error,
    tube_flow_system,
    tube_solid_system,
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
        spec = tube_flow_system(p, state, zero_disp(p), driver=DriverKind.PICARD)
        u, rep = drive(spec, SolverCallInput(flow_u0(p), zero_disp(p), eps=1e-9))
        assert rep.converged_on_first and rep.inner_iters == 1
        assert np.allclose(u, 0.0)

    def test_rigid_uniform_pressure_gives_constant_velocity(self, params):
        p = params
        state = initial_tube_state(p)
        v_bar = 0.37
        state.velocity[:] = v_bar
        pressure = 250.0
        spec = tube_flow_system(
            Tube1DParams(cells=p.cells, steps=p.steps, inlet_pulse=pressure,
                         pulse_duration=1.0, outlet_pressure=pressure),
            state, zero_disp(p))
        u0 = flow_u0(p)
        u0[: p.cells + 1] = v_bar
        u0[p.cells + 1 :] = pressure
        u, rep = drive(spec, SolverCallInput(u0, zero_disp(p), eps=1e-10))
        v = u[: p.cells + 1]
        pr = u[p.cells + 1 :]
        assert np.ptp(v) < 1e-12
        assert np.allclose(v, v_bar, atol=1e-10)
        assert np.allclose(pr, pressure, atol=1e-8)

    def test_pulse_enters_rhs_and_traction_passthrough(self, params):
        p = params
        state = initial_tube_state(p)
        d = zero_disp(p)
        spec = tube_flow_system(p, state, d)
        b = spec.assemble_rhs(d)
        a0 = state.area[0]
        # inlet BC term in the half-cell momentum row of face 0
        assert b[0] == pytest.approx(2.0 * a0 * 1333.2 / (p.rho_f * p.dx), rel=1e-14)
        u, _ = drive(spec, SolverCallInput(flow_u0(p), d, eps=1e-9))
        traction = spec.extract_output(u)
        assert traction.role is FieldRole.TRACTION
        assert traction.values[0] == 1333.2
        assert traction.values[-1] == 0.0

    def test_startup_from_rest_matches_analytic_solution(self, params):
        # frozen uniform area, v_old = 0: v is uniform dt*(dp/dx)/rho and the
        # face pressures interpolate linearly between the imposed BCs
        p = params
        state = initial_tube_state(p)
        d = zero_disp(p)
        spec = tube_flow_system(p, state, d)
        u, _ = drive(spec, SolverCallInput(flow_u0(p), d, eps=1e-11))
        v = u[: p.cells + 1]
        v_exact = p.dt * (1333.2 / p.length) / p.rho_f
        assert np.allclose(v, v_exact, rtol=1e-6)
        pr = u[p.cells + 1 :]
        centers = (np.arange(p.cells) + 0.5) * p.dx
        assert np.allclose(pr, 1333.2 * (1 - centers / p.length), atol=0.02)

    def test_tangent_matches_finite_differences(self, params):
        p = params
        state = initial_tube_state(p)
        state.velocity[:] = 0.15
        d = zero_disp(p)
        spec = tube_flow_system(p, state, d)
        rng = np.random.default_rng(5)
        n = p.cells
        u = np.concatenate([0.2 + 0.03 * rng.standard_normal(n + 1),
                            400.0 + 30.0 * rng.standard_normal(n)])
        tangent = spec.tangent(u)
        k = np.column_stack([tangent @ e for e in np.eye(u.size)])
        h = 1e-6

        def f(x):
            return spec.assemble_matrix(x) @ x

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
        spec = tube_flow_system(p, initial_tube_state(p), d)
        # velocities of both signs exercise both upwind branches
        u = np.concatenate([v_scale * rng.uniform(-1.0, 1.0, cells + 1),
                            1000.0 * rng.standard_normal(cells)])
        r = rng.standard_normal(u.size)
        for op, dense in zip((spec.assemble_matrix, spec.tangent),
                             dense_flow_reference(p, d)):
            m, ref = op(u), dense(u)
            assert rel_err(m @ u, ref @ u) <= 1e-14
            assert rel_err(m.solve(r), np.linalg.solve(ref, r)) <= 1e-11

    @pytest.mark.parametrize("edit", ["none", "pressure", "velocity", "upwind"])
    def test_tangent_after_assemble_is_bitwise_a_fresh_tangent(self, params, edit):
        # the tangent reuses the bands of the last assemble_matrix call only
        # while the velocities are unchanged, and never writes into them
        p, n = params, params.cells
        rng = np.random.default_rng(11)
        state = initial_tube_state(p)
        state.velocity[:] = 0.1 * rng.standard_normal(n + 1)
        d = InterfaceField(1e-4 * rng.uniform(-1.0, 1.0, p.n_nodes), FieldRole.DISPLACEMENT)
        spec, fresh = tube_flow_system(p, state, d), tube_flow_system(p, state, d)
        u = np.concatenate([0.1 * rng.uniform(-1.0, 1.0, n + 1),
                            1000.0 * rng.standard_normal(n)])
        x, r = rng.standard_normal(u.size), rng.standard_normal(u.size)
        a = spec.assemble_matrix(u)
        bands = [b.copy() for b in (a.lo, a.diag, a.up)]
        ax = (a @ x).tobytes()
        if edit == "pressure":
            u[n + 1] += 5.0
        elif edit == "velocity":
            u[n // 2] *= 1.0 + 1e-15
        elif edit == "upwind":
            u[: n + 1] *= -1.0
        k, k_ref = spec.tangent(u), fresh.tangent(u)
        for got, ref in zip((k.lo, k.diag, k.up, k @ x, k.solve(r)),
                            (k_ref.lo, k_ref.diag, k_ref.up, k_ref @ x, k_ref.solve(r))):
            assert got.tobytes() == ref.tobytes()
        assert all(b.tobytes() == c.tobytes() for b, c in zip(bands, (a.lo, a.diag, a.up)))
        assert (a @ x).tobytes() == ax

    def test_wrong_displacement_rejected(self, params):
        state = initial_tube_state(params)
        with pytest.raises(ContractError):
            tube_flow_system(params, state,
                             InterfaceField(np.zeros(3), FieldRole.DISPLACEMENT))
        spec = tube_flow_system(params, state, zero_disp(params))
        other = InterfaceField(np.full(params.n_nodes, 1e-5), FieldRole.DISPLACEMENT)
        with pytest.raises(ContractError):
            spec.assemble_rhs(other)


class TestSolidSystem:
    def uniform_traction(self, params, value):
        return InterfaceField(np.full(params.n_nodes, value), FieldRole.TRACTION)

    def test_zero_load_zero_displacement(self, params):
        state = initial_tube_state(params)
        spec = tube_solid_system(params, state, self.uniform_traction(params, 0.0))
        u, rep = drive(spec, SolverCallInput(np.zeros(params.n_nodes),
                                             self.uniform_traction(params, 0.0),
                                             eps=1e-6))
        assert rep.converged_on_first
        assert np.allclose(u, 0.0)

    def test_static_ring_formula(self, params):
        # closed form: d = p r0^2 (1 - nu^2) / (E h) at every interior node
        p_ = Tube1DParams(cells=params.cells, steps=params.steps, kappa3=0.0)
        state = initial_tube_state(p_)
        tr = self.uniform_traction(p_, 1333.2)
        spec = tube_solid_system(p_, state, tr, static=True)
        u, _ = drive(spec, SolverCallInput(np.zeros(p_.n_nodes), tr, eps=1e-10))
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
        spec = tube_solid_system(p_, state, tr, static=True)
        u, _ = drive(spec, SolverCallInput(np.zeros(p_.n_nodes), tr, eps=1e-12))
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
        spec = tube_solid_system(p_, state, tr)
        _, rep = drive(spec, SolverCallInput(np.zeros(p_.n_nodes), tr,
                                             eps=CouplingConfig().eps_s))
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
            spec = tube_solid_system(p_, state, tr)
            u, _ = drive(spec, SolverCallInput(state.wall_disp.copy(), tr, eps=1e-12))
            w_new = (u - state.wall_disp) / p_.dt
            state.wall_acc = (w_new - state.wall_vel) / p_.dt
            state.wall_disp = u
            state.wall_vel = w_new
            state.step += 1
            energies.append(energy(state))
        assert all(b <= a + 1e-18 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < 0.5 * energies[0]


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
