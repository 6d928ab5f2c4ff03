import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsilab import (
    CouplingConfig,
    FieldRole,
    InterfaceField,
    IterationCounters,
    SolverCallReport,
    deviation_from_reference,
    fixed_point_residual,
    residual_norm,
)
from fsilab.errors import ContractError, InvalidInputError
from fsilab.interface import as_caps_str, caps_list, parse_cap, validate_cap


def disp(values):
    return InterfaceField(np.asarray(values, dtype=float), FieldRole.DISPLACEMENT)


# magnitudes bounded away from the underflow zone so squaring stays exact-ish
_entry = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
finite_vecs = st.lists(_entry, min_size=1, max_size=20)


class TestResidualNorm:
    def test_zero_vector(self):
        assert residual_norm([0.0, 0.0, 0.0, 0.0], 4) == 0.0

    def test_hand_euclidean(self):
        # ||(3,4)||_2 / sqrt(2) = 5/sqrt(2)
        assert residual_norm([3.0, 4.0], 2) == pytest.approx(5 / math.sqrt(2), rel=1e-15)

    def test_single_entry(self):
        assert residual_norm([2.0], 1) == 2.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            residual_norm([], 0)
        with pytest.raises(InvalidInputError):
            residual_norm([1.0, np.nan], 2)
        with pytest.raises(InvalidInputError):
            residual_norm([1.0, 2.0], 3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected_finite_overflow_is_not(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            residual_norm([1.0, bad], 2)
        # every entry finite, only the norm overflows: numpy warns, no error
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert residual_norm([1e300, 1e300], 2) == math.inf

    @given(finite_vecs,
           st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6)))
    def test_absolute_homogeneity(self, vec, lam):
        # lam ranges where squaring cannot underflow
        r = np.asarray(vec)
        lhs = residual_norm(lam * r, r.size)
        rhs = abs(lam) * residual_norm(r, r.size)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


class TestFixedPointResidual:
    def test_converged_state(self):
        assert fixed_point_residual(disp([1, 2]), disp([1, 2])).tolist() == [0.0, 0.0]

    def test_elementwise_subtraction(self):
        assert fixed_point_residual(disp([1.5, 0]), disp([1, 1])).tolist() == [0.5, -1.0]

    def test_sign(self):
        assert fixed_point_residual(disp([0]), disp([-3])).tolist() == [3.0]

    def test_role_and_length_mismatch(self):
        traction = InterfaceField(np.ones(2), FieldRole.TRACTION)
        with pytest.raises(ContractError):
            fixed_point_residual(traction, disp([1, 2]))
        with pytest.raises(ContractError):
            fixed_point_residual(disp([1, 2, 3]), disp([1, 2]))

    @given(finite_vecs)
    def test_zero_on_identical_fields(self, vec):
        d = disp(vec)
        assert not np.any(fixed_point_residual(d, d))


class TestDeviation:
    def test_identical(self):
        d = disp([1.0, -2.0, 3.0])
        assert deviation_from_reference(d, d) == 0.0

    def test_hand_value(self):
        # ||(1,1,1,1)|| = 2, sqrt(4) = 2
        assert deviation_from_reference(disp([1, 1, 1, 1]), disp([0, 0, 0, 0])) == 1.0

    def test_scalar(self):
        assert deviation_from_reference(disp([2]), disp([1])) == 1.0

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


class TestInterfaceField:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ContractError):
            InterfaceField(np.array([]), FieldRole.DISPLACEMENT)
        with pytest.raises(ContractError):
            InterfaceField(np.array([1.0, np.inf]), FieldRole.TRACTION)

    def test_values_are_read_only(self):
        field = disp([1.0, 2.0])
        with pytest.raises(ValueError):
            field.values[0] = 5.0

    def test_does_not_alias_input(self):
        src = np.array([1.0, 2.0])
        field = disp(src)
        src[0] = 9.0
        assert field.values[0] == 1.0

    def test_adopted_array_is_taken_over_and_checked(self):
        # the private constructor for arrays their maker just created: no
        # copy, the array turns read-only, and the finiteness check stays
        # unless the maker made it
        src = np.array([1.0, 2.0])
        field = InterfaceField._adopt(src, FieldRole.TRACTION)
        assert field.values is src and not src.flags.writeable
        assert field.role is FieldRole.TRACTION
        with pytest.raises(ContractError, match="non-finite"):
            InterfaceField._adopt(np.array([1.0, np.nan]), FieldRole.DISPLACEMENT)
        trusted = InterfaceField._adopt(np.array([1.0, 3.0]), FieldRole.DISPLACEMENT,
                                        finite=True)
        assert trusted.values.tolist() == [1.0, 3.0]


class TestSolverCallReport:
    def test_history_length_must_match(self):
        with pytest.raises(ContractError):
            SolverCallReport(inner_iters=2, residual_history=(1.0,),
                             converged_on_first=False, final_residual=1.0)

    def test_at_least_one_iteration(self):
        with pytest.raises(ContractError):
            SolverCallReport(inner_iters=0, residual_history=(),
                             converged_on_first=False, final_residual=0.0)


class TestIterationCounters:
    def test_totals_track_steps(self):
        c = IterationCounters()
        c.add_step(1, 3, 7, 5)
        c.add_step(2, 2, 4, 3)
        assert (c.coupling_total, c.flow_total, c.solid_total) == (5, 11, 8)
        c.check_additivity()

    def test_negative_rejected(self):
        c = IterationCounters()
        with pytest.raises(ContractError):
            c.add_step(1, -1, 0, 0)


class TestCouplingConfig:
    def test_defaults_valid(self):
        CouplingConfig()

    @pytest.mark.parametrize("kw", [
        {"n_max_f": 0}, {"eps_f": 0.0}, {"eps_fil": -1.0}, {"reuse_q": -1},
        {"omega0": 0.0}, {"omega0": 1.5}, {"max_coupling_iters_per_step": 0},
        {"batch_size_f": 0},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ContractError):
            CouplingConfig(**kw)

    @pytest.mark.parametrize("name", ["batch_size_f", "reuse_q", "max_coupling_iters_per_step"])
    def test_non_integer_count_rejected(self, name):
        # a fractional batch size would test convergence only at common
        # multiples, reuse_q = 1.5 would act as 1, and a fractional budget
        # would escape run_simulation from range() as a bare TypeError
        for value in (2.5, 2.0):
            with pytest.raises(ContractError, match=f"{name} must be an integer"):
                CouplingConfig(**{name: value})
        CouplingConfig(**{name: np.int64(2)})

    @pytest.mark.parametrize("name", ["eps_f", "eps_s", "eps_fil", "eps_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_tolerances_positive_and_finite(self, name, value):
        with pytest.raises(ContractError, match=f"{name} must be positive and finite"):
            CouplingConfig(**{name: value})


class TestCaps:
    def test_parse_and_serialize(self):
        assert parse_cap("inf") == math.inf
        assert parse_cap("3") == 3
        assert as_caps_str(math.inf) == "inf"
        assert as_caps_str(4) == "4"
        assert caps_list("1,2,3,inf") == [1, 2, 3, math.inf]

    def test_invalid_caps(self):
        with pytest.raises(ContractError):
            parse_cap("0")
        with pytest.raises(ContractError):
            parse_cap("x")
        with pytest.raises(ContractError):
            validate_cap(2.5, "n")
