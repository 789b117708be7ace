import numpy as np
import pytest

from qevt.errors import ValidationError
from qevt.linalg import PolynomialSpec, as_matrix, horner_eval, operator_norm

from helpers import naive_poly_apply, opnorm, random_complex, rng_for


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([0.3, -0.9])) == pytest.approx(0.9, abs=1e-14)

    def test_unitary(self):
        rng = rng_for(3)
        q, r = np.linalg.qr(random_complex(rng, (4, 4)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        assert operator_norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_matches_svd(self):
        rng = rng_for(4)
        for _ in range(10):
            a = random_complex(rng, (4, 4))
            assert operator_norm(a) == pytest.approx(opnorm(a), rel=1e-10)

    @pytest.mark.parametrize("s", [1e200, 1e-200], ids=["1e200", "1e-200"])
    def test_homogeneous_across_the_float_range(self, s):
        # A^dag A would overflow, or underflow to 0; the SVD forms no square
        a = random_complex(rng_for(7), (4, 4))
        assert operator_norm(s * a) == pytest.approx(s * operator_norm(a), rel=1e-15, abs=0)

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValidationError):
            operator_norm(bad)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="NaN or Inf") as info:
            as_matrix([[10**400]])
        assert info.value.module == "linalg"

    @pytest.mark.parametrize("shape", [(3,), (0, 0)], ids=["vector", "empty"])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValidationError, match=r"nonempty 2-D array, got shape") as info:
            as_matrix(np.ones(shape))
        assert info.value.module == "linalg"

    def test_submultiplicative(self):
        rng = rng_for(5)
        for _ in range(10):
            a = random_complex(rng, (4, 4))
            b = random_complex(rng, (4, 4))
            assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-10

    def test_power_difference_bound(self):
        # ||A^k - B^k|| <= k ||A - B|| for contractions
        rng = rng_for(6)
        for _ in range(10):
            a = random_complex(rng, (4, 4))
            a *= 0.95 / opnorm(a)
            b = a + 1e-3 * random_complex(rng, (4, 4))
            b *= min(1.0, 1.0 / opnorm(b))
            for k in (2, 3, 5):
                lhs = operator_norm(
                    np.linalg.matrix_power(a, k) - np.linalg.matrix_power(b, k)
                )
                assert lhs <= k * operator_norm(a - b) + 1e-10


class TestPolynomialSpec:
    def test_trims_trailing_zeros(self):
        p = PolynomialSpec([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.coefficients == (1 + 0j, 2 + 0j)

    def test_zero_polynomial_keeps_one_coefficient(self):
        assert PolynomialSpec([0.0, 0.0]).coefficients == (0j,)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PolynomialSpec([])

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            (["abc"], "must be numbers"),
            ([None], "must be numbers"),
            ([True, False], "must be numbers"),
            ([[1, 2]], r"must be a nonempty 1-D array, got shape \(1, 2\)"),
        ],
        ids=["text", "none", "bools", "pair"],
    )
    def test_non_numeric_coefficient_rejected(self, coefficients, message):
        with pytest.raises(ValidationError, match=message) as info:
            PolynomialSpec(coefficients)
        assert info.value.module == "linalg"

    @pytest.mark.parametrize(
        "coefficient", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imag-nan"]
    )
    def test_non_finite_coefficient_rejected(self, coefficient):
        with pytest.raises(ValidationError, match="polynomial coefficients must be finite"):
            PolynomialSpec([0.5, coefficient])

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="must be finite") as info:
            PolynomialSpec([0.5, 10**400])
        assert info.value.module == "linalg"

    def test_derivative(self):
        p = PolynomialSpec([3.0, 2.0, 1.0])  # 3 + 2z + z^2
        assert p.derivative().coefficients == (2 + 0j, 2 + 0j)
        assert PolynomialSpec([5.0]).derivative().coefficients == (0j,)


class TestHornerEval:
    def test_identity_polynomial(self):
        rng = rng_for(9)
        a = random_complex(rng, (3, 3))
        assert np.allclose(horner_eval(PolynomialSpec([0.0, 1.0]), a), a)

    def test_fixed_point_at_identity(self):
        # the averaging polynomial (1 + z^2)/2 maps 1 to 1
        p = PolynomialSpec([0.5, 0.0, 0.5])
        assert np.allclose(horner_eval(p, np.eye(4)), np.eye(4))

    def test_jordan_cube(self):
        j = np.diag([0.5, 0.5, 0.5]).astype(complex) + np.diag([1.0, 1.0], 1)
        got = horner_eval(PolynomialSpec([0, 0, 0, 1.0]), j)
        expected = j @ j @ j
        assert opnorm(got - expected) <= 1e-13
        assert got[0, 0] == pytest.approx(0.125)
        assert got[0, 1] == pytest.approx(0.75)
        assert got[0, 2] == pytest.approx(1.5)

    def test_matches_naive_power_sum(self):
        rng = rng_for(10)
        for _ in range(5):
            deg = int(rng.integers(1, 17))
            dim = int(rng.integers(2, 9))
            coeffs = random_complex(rng, deg + 1) / (deg + 1)
            a = random_complex(rng, (dim, dim))
            a *= 0.9 / opnorm(a)
            got = horner_eval(PolynomialSpec(coeffs), a)
            assert opnorm(got - naive_poly_apply(coeffs, a)) <= 1e-11

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            horner_eval(PolynomialSpec([1.0]), np.ones((2, 3)))
