"""Tests for the dense state-vector core."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbrcheck import (
    DomainError,
    MeasurementBasis,
    born_distribution,
    inner,
    is_normalized,
    is_orthonormal_basis,
    normalize,
    tensor,
)
from pbrcheck.quantum import as_int, as_real
from pbrcheck.scenarios import ket, xi_basis

import oracles

SQRT2 = math.sqrt(2.0)


# --- tensor products ---


class TestTensor:
    def test_computational_product(self):
        np.testing.assert_array_equal(tensor(ket("0"), ket("0")), [1, 0, 0, 0])

    def test_zero_plus_product(self):
        """|0>(x)|+> expands to (1/sqrt2, 1/sqrt2, 0, 0)."""
        np.testing.assert_allclose(
            tensor(ket("0"), ket("+")), [1 / SQRT2, 1 / SQRT2, 0, 0], atol=1e-15
        )

    def test_plus_plus_product(self):
        np.testing.assert_allclose(
            tensor(ket("+"), ket("+")), [0.5, 0.5, 0.5, 0.5], atol=1e-15
        )

    def test_left_factor_is_first_subsystem(self):
        """Amplitude at i*dim(b)+j equals a[i]*b[j]."""
        rng = np.random.default_rng(7)
        a = oracles.random_state(rng, 2)
        b = oracles.random_state(rng, 2)
        np.testing.assert_allclose(tensor(a, b), oracles.tensor_by_hand(a, b), atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tensor([1.0, np.inf], [1.0, 0.0])

    def test_tensor_inner_factorization(self):
        """<a(x)b|c(x)d> = <a|c><b|d| for random one-qubit states."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c, d = (oracles.random_state(rng, 2) for _ in range(4))
            lhs = inner(tensor(a, b), tensor(c, d))
            rhs = inner(a, c) * inner(b, d)
            assert abs(lhs - rhs) <= 1e-12


# --- inner products ---


class TestInner:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("0", "1", 0.0),
            ("+", "0", 1 / SQRT2),
            ("-", "+", 0.0),
        ],
    )
    def test_named_kets(self, a, b, expected):
        assert abs(inner(ket(a), ket(b)) - expected) <= 1e-15

    def test_conjugate_symmetry(self):
        """inner(a, b) equals conj(inner(b, a))."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert abs(inner(a, b) - inner(b, a).conjugate()) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="dimension mismatch"):
            inner([1, 0], [1, 0, 0, 0])


# --- normalization ---


class TestNormalize:
    def test_scaling(self):
        np.testing.assert_allclose(normalize([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_uniform_four_vector(self):
        np.testing.assert_allclose(normalize([1, 1, 1, 1]), [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_recombined_state_normalization_constant(self):
        """normalize(|0> + |+>) has squared normalization sqrt(2)/(2 sqrt(2) + 2)."""
        u = ket("0") + ket("+")
        n_sq = 1.0 / float(np.vdot(u, u).real)
        assert abs(n_sq - oracles.MZ_NORMALIZATION_SQ) <= 1e-12
        v = normalize(u)
        assert abs(v[0] - n_sq**0.5 * (1 + 1 / SQRT2)) <= 1e-12
        assert is_normalized(v)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError, match="cannot normalize"):
            normalize([0.0, 1e-8])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            once = normalize(v)
            np.testing.assert_allclose(normalize(once), once, atol=1e-10)

    def test_phase_preserved(self):
        """Direction (including complex phases) is unchanged."""
        v = np.array([1j, -2.0, 0.5 + 0.5j])
        w = normalize(v)
        ratio = w / v
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-14)


# --- bases and the Born rule ---


class TestBases:
    def test_computational_two_qubit_basis(self):
        assert is_orthonormal_basis(np.eye(4, dtype=complex))

    def test_xi_basis_is_orthonormal(self):
        assert is_orthonormal_basis(xi_basis())

    def test_a_gram_matrix_that_overflows_is_not_the_identity(self):
        assert not is_orthonormal_basis([[1e308, 0.0], [0.0, 1.0]])
        assert not is_orthonormal_basis([[1e308 + 1e308j, 1e308], [0.0, 1.0]])

    def test_zero_plus_is_not_a_basis(self):
        """{|0>, |+>} fails: <0|+> = 1/sqrt(2) != 0."""
        assert not is_orthonormal_basis(np.array([ket("0"), ket("+")]))

    def test_basis_needs_complete_outcome_count(self):
        with pytest.raises(DomainError, match="complete basis"):
            MeasurementBasis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_gram_of_random_unitary_rows(self):
        rng = np.random.default_rng(13)
        basis = MeasurementBasis(oracles.random_orthonormal_basis(rng, 4))
        np.testing.assert_allclose(basis.gram(), np.eye(4), atol=1e-12)


class TestBornDistribution:
    def test_product_states_against_oracle(self):
        """Library Born rows match the loop-based oracle on the frozen values."""
        basis = xi_basis()
        states = {
            "00": tensor(ket("0"), ket("0")),
            "0+": tensor(ket("0"), ket("+")),
            "+0": tensor(ket("+"), ket("0")),
            "++": tensor(ket("+"), ket("+")),
        }
        for row, (label, state) in zip(oracles.PRODUCT_BORN_ROWS, states.items()):
            got = born_distribution(state, basis)
            by_hand = oracles.born_row(state, basis.outcomes)
            np.testing.assert_allclose(got, by_hand, atol=1e-14, err_msg=label)
            np.testing.assert_allclose(got, row, atol=1e-12, err_msg=label)

    def test_zero_probability_cells(self):
        basis = xi_basis()
        assert born_distribution(tensor(ket("0"), ket("0")), basis)[0] <= 1e-12
        assert born_distribution(tensor(ket("+"), ket("+")), basis)[3] <= 1e-12

    def test_sums_to_one_for_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            basis = MeasurementBasis(oracles.random_orthonormal_basis(rng, 4))
            state = oracles.random_state(rng, 4)
            probs = born_distribution(state, basis)
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="does not match basis dim"):
            born_distribution(ket("0"), xi_basis())

    def test_invalid_basis_rejected(self):
        skewed = np.array([ket("0"), ket("+")])
        with pytest.raises(DomainError, match="not orthonormal"):
            born_distribution(ket("0"), skewed)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            born_distribution([1.0, 1.0], np.eye(2, dtype=complex))


# --- the two scalar readers ---


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_as_int_takes_exactly_the_integers_of_its_range(value, low, high):
    if low <= value < high:
        for number in (value, np.int64(value)):
            assert type(as_int(number, "n", low, high)) is int and as_int(number, "n", low, high) == value
    else:
        with pytest.raises(DomainError, match=rf"^n must be an integer in \[{low}, {high}\), got {value}$"):
            as_int(value, "n", low, high)


@given(st.one_of(st.floats(), st.integers(-2, 2), st.fractions(-2, 2)), st.booleans())
def test_as_real_takes_exactly_the_reals_of_its_interval(value, closed):
    if (0 <= value <= 1 if closed else 0 < value < 1) and not math.isnan(value):
        assert as_real(value, "x", 0, 1, closed) == float(value)
    else:
        with pytest.raises(DomainError, match=r"^x must be a real number in [(\[]0, 1[)\]], got "):
            as_real(value, "x", 0, 1, closed)


@pytest.mark.parametrize(
    "value",
    [True, np.True_, "0.5", None, 1j, [0.5], 10**400],
    ids=["True", "np.True_", "str", "None", "complex", "list", "beyond every float"],
)
def test_as_real_refuses_what_is_no_float_of_its_interval(value):
    with pytest.raises(DomainError, match=r"^x must be a real number in \(0, inf\), got "):
        as_real(value, "x", 0, math.inf, closed=False)
