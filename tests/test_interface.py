import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fsilab import (
    AccelKind,
    CouplingConfig,
    CriterionKind,
    deviation_from_reference,
    run_simulation,
)
from fsilab.configio import load
from fsilab.errors import ContractError, SweepSpecError
from fsilab.interface import all_finite, as_caps_str, caps_list, parse_cap, validate_cap
from fsilab.models import LinearToyModel


def disp(values):
    return np.asarray(values, dtype=float)


# magnitudes bounded away from the underflow zone so squaring stays exact-ish
_entry = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
finite_vecs = st.lists(_entry, min_size=1, max_size=20)


def _short_solid_toy(n_out: int):
    """A linear toy of 5 interface entries whose solid outputs ``n_out`` entries."""
    toy = LinearToyModel(dim_f=4, dim_s=5)

    def solid_solver(state):
        solver = toy.solid_solver(state)
        return SimpleNamespace(load=solver.load, output=lambda u: np.resize(u, n_out))

    return SimpleNamespace(n_interface=5, n_steps=1, initial_state=toy.initial_state,
                           flow_solver=toy.flow_solver, solid_solver=solid_solver,
                           advance_state=toy.advance_state)


class TestSolidOutputLength:
    """The coupling map holds the solid's output to the length of the flow's input."""

    # one entry would broadcast silently in x_tilde - x
    @pytest.mark.parametrize("n_out", [4, 1, 6])
    def test_other_length_rejected_naming_both(self, n_out):
        with pytest.raises(ContractError,
                           match=f"^solid output has {n_out} entries, the interface 5$"):
            run_simulation(_short_solid_toy(n_out), CouplingConfig())

    def test_flow_output_has_the_length_its_partner_loads(self, monkeypatch):
        # 3 tractions for 5 displacements: only the solid's output is held to x
        import fsilab.coupling as coupling_mod

        sizes = set()
        real_call = coupling_mod.call_solver

        def recording(solver_id, solver, inp):
            out = real_call(solver_id, solver, inp)
            sizes.add((solver_id.value, inp.coupling_data.size, out[0].size))
            return out

        monkeypatch.setattr(coupling_mod, "call_solver", recording)
        toy = LinearToyModel(dim_f=3, dim_s=5)
        record = run_simulation(toy, CouplingConfig(eps_f=1e-12, eps_s=1e-12))
        assert sizes == {("flow", 5, 3), ("solid", 3, 5)}
        assert deviation_from_reference(record.snapshots[-1], toy.interface_solution()) < 1e-9

    def test_snapshots_are_the_accepted_vectors_read_only(self):
        # the run keeps each accepted x as it is, a plain array that no one writes
        passed = []
        toy = LinearToyModel(steps=3)
        advance = toy.advance_state
        toy.advance_state = lambda state, d, flow_u: passed.append(d) or advance(state, d, flow_u)
        record = run_simulation(toy, CouplingConfig())
        assert len(passed) == len(record.snapshots) == 3
        for d, snap in zip(passed, record.snapshots):
            assert d is snap and type(snap) is np.ndarray and not snap.flags.writeable


class TestDeviation:
    def test_identical(self):
        d = disp([1.0, -2.0, 3.0])
        assert deviation_from_reference(d, d) == 0.0

    def test_hand_value(self):
        # ||(1,1,1,1)|| = 2, sqrt(4) = 2
        assert deviation_from_reference(disp([1, 1, 1, 1]), disp([0, 0, 0, 0])) == 1.0

    def test_scalar(self):
        assert deviation_from_reference(disp([2]), disp([1])) == 1.0

    @pytest.mark.parametrize("d, d_ref", [(np.zeros((2, 2)), np.zeros((2, 2))),
                                          (np.zeros(0), np.zeros(0)),
                                          (np.zeros(3), np.zeros(4)),
                                          (np.zeros(3), np.zeros((3, 1)))],
                             ids=["2-D", "empty", "lengths", "shapes"])
    def test_rejects_what_is_not_two_vectors_of_one_shape(self, d, d_ref):
        # an empty pair would be a nan with a RuntimeWarning, a (3, 1) one broadcast
        with pytest.raises(ContractError, match=re.escape(f"got {d.shape} and {d_ref.shape}")):
            deviation_from_reference(d, d_ref)

    @given(finite_vecs)
    def test_symmetry_and_triangle(self, vec):
        rng = np.random.default_rng(len(vec))
        a = disp(vec)
        b = disp(rng.uniform(-1, 1, size=a.size))
        c = disp(rng.uniform(-1, 1, size=a.size))
        assert deviation_from_reference(a, b) == pytest.approx(
            deviation_from_reference(b, a), rel=1e-14, abs=1e-300
        )
        assert deviation_from_reference(a, c) <= (
            deviation_from_reference(a, b) + deviation_from_reference(b, c) + 1e-12
        )


@st.composite
def vectors_with_bad_entries(draw):
    """Finite vectors of up to 300 entries, from subnormals to +-1.7e308, into
    which up to three nan or +-inf entries may be put."""
    entry = st.one_of(st.floats(-1.7e308, 1.7e308), st.floats(-1e-307, 1e-307), st.just(0.0))
    head = np.array(draw(st.lists(entry, min_size=1, max_size=40)))
    # BLAS takes other paths on longer vectors
    x = np.resize(head, draw(st.integers(head.size, 300)))
    for i, bad in draw(st.lists(st.tuples(st.integers(0, x.size - 1),
                                          st.sampled_from([math.nan, math.inf, -math.inf])),
                                max_size=3)):
        x[i] = bad
    return x


class TestAllFinite:
    @settings(max_examples=300, deadline=None)
    @given(vectors_with_bad_entries())
    def test_agrees_with_an_entrywise_test_and_warns_of_nothing(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = all_finite(x)
        assert got is bool(np.isfinite(x).all())

    @pytest.mark.parametrize("values, finite", [
        ([1e308, 1e308], True), ([1.7e308] * 201, True), ([5e-324, -5e-324], True),
        ([0.0], True), ([1e308, math.nan], False), ([math.inf, -math.inf], False),
        ([-math.inf] + [0.0] * 100, False),
    ], ids=["square-overflows", "long-square-overflows", "subnormal", "zero", "nan",
            "infs", "one-inf"])
    def test_hand_cases(self, values, finite):
        assert all_finite(np.array(values)) is finite


class TestCouplingConfig:
    def test_defaults_valid(self):
        CouplingConfig()

    @pytest.mark.parametrize("kw", [
        {"n_max_f": 0}, {"eps_f": 0.0}, {"eps_fil": -1.0}, {"reuse_q": -1},
        {"omega0": 0.0}, {"omega0": 1.5}, {"max_coupling_iters": 0}, {"n_max_s": 0},
        # omega0 = True used to build as 1.0, and "0.5" to escape as a bare TypeError
        {"omega0": True}, {"omega0": np.True_}, {"omega0": "0.5"}, {"omega0": None},
    ])
    def test_invalid_rejected(self, kw):
        # each message names the setting and the value it got
        ((name, value),) = kw.items()
        with pytest.raises(ContractError, match=f"^{name} must .*, got {re.escape(repr(value))}$"):
            CouplingConfig(**kw)

    @pytest.mark.parametrize("name, value, kind", [
        ("accel", "iqn-ils", "an AccelKind"), ("accel", "aitken", "an AccelKind"),
        ("accel", CriterionKind.FIRST_RESIDUAL, "an AccelKind"), ("accel", None, "an AccelKind"),
        ("criterion", "first_residual", "a CriterionKind"),
        ("criterion", "fixed_point", "a CriterionKind"),
        ("criterion", AccelKind.IQN_ILS, "a CriterionKind"),
    ], ids=repr)
    def test_enum_setting_of_another_type_rejected(self, name, value, kind):
        # criterion = "first_residual" used to run the fixed-point criterion,
        # and accel = "iqn-ils" constant relaxation: each dispatch tests `is`
        message = f"{name} must be {kind}, got {value!r}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            CouplingConfig(**{name: value})

    @pytest.mark.parametrize("name", ["reuse_q", "max_coupling_iters"])
    def test_non_integer_count_rejected(self, name):
        # reuse_q = 1.5 would act as 1, and a fractional budget
        # would escape run_simulation from range() as a bare TypeError; a bool
        # is an int, so reuse_q = False used to pass as 0
        for value in (2.5, 2.0, True, False):
            with pytest.raises(ContractError, match=f"{name} must be an integer"):
                CouplingConfig(**{name: value})
        CouplingConfig(**{name: np.int64(2)})

    @pytest.mark.parametrize("name", ["n_max_f", "n_max_s"])
    def test_bool_cap_rejected(self, name):
        # True used to pass as a cap of 1
        with pytest.raises(ContractError, match=f"^{name} must be an integer >= 1"):
            CouplingConfig(**{name: True})

    @pytest.mark.parametrize("name", ["eps_f", "eps_s", "eps_fil", "eps_c"])
    # the one check of a tolerance, which a solver call does not repeat; True
    # used to pass as 1.0, and a str escaped as a bare TypeError
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-9, -1.0,
                                       True, False, np.True_, "1e-3", "1e-9", None, 1e-3j])
    def test_tolerances_positive_and_finite(self, name, value):
        with pytest.raises(ContractError, match=f"^{name} must be positive and finite, "
                                                f"got {re.escape(repr(value))}$"):
            CouplingConfig(**{name: value})

    @pytest.mark.parametrize("value", [1, np.int64(2), np.float32(1e-3), np.float64(1e-3)],
                             ids=repr)
    def test_tolerance_of_any_real_type_accepted(self, value):
        CouplingConfig(eps_f=value, eps_s=value, eps_fil=value, eps_c=value)


class TestCaps:
    def test_parse_and_serialize(self):
        assert parse_cap("inf") == math.inf
        assert parse_cap("3") == 3
        assert as_caps_str(math.inf) == "inf"
        assert as_caps_str(4) == "4"
        assert caps_list("1,2,3,inf") == [1, 2, 3, math.inf]
        # an empty entry is an error, not skipped, and the loader names its key
        for text in ("1,,inf", "1,inf,", ",inf", "", " "):
            with pytest.raises(ContractError, match="^cannot parse cap value "):
                caps_list(text)
        with pytest.raises(SweepSpecError,
                           match="^config key 'grid_f': cannot parse cap value ''$"):
            load({"model": "linear_toy", "grid_f": "1,,inf"})

    def test_invalid_caps(self):
        with pytest.raises(ContractError):
            parse_cap("0")
        # unbounded is spelt `inf` only, in any case
        for text in ("x", "infinity", "unbounded"):
            with pytest.raises(ContractError, match=f"^cannot parse cap value {text!r}$"):
                parse_cap(text)
        assert parse_cap(" INF ") == math.inf
        with pytest.raises(ContractError):
            validate_cap(2.5, "n")
        # a bool is an int, and a str used to escape as a bare TypeError
        for value in (True, False, "3", None):
            with pytest.raises(ContractError, match="^n_max must be an integer >= 1"):
                validate_cap(value, "n_max")
        validate_cap(np.int64(3), "n_max")
        validate_cap(3.0, "n_max")
