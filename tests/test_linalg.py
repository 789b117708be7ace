import numpy as np
import pytest

from qevt.errors import ValidationError
from qevt.linalg import PolynomialSpec, as_unitary, ensure_square, horner_eval, operator_norm

from helpers import naive_poly_apply, opnorm, random_complex, random_unitary, rng_for


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
            ensure_square([[10**400]])
        assert info.value.module == "linalg"

    @pytest.mark.parametrize("shape", [(3,), (0, 0)], ids=["vector", "empty"])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValidationError, match=r"nonempty 2-D array, got shape") as info:
            ensure_square(np.ones(shape))
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


class TestAsUnitary:
    def test_returns_a_read_only_copy(self):
        u = random_unitary(rng_for(11), 3)
        got = as_unitary(u, "u", "mod", tol=1e-12)
        assert np.array_equal(got, u) and got is not u
        assert u.flags.writeable and not got.flags.writeable

    @pytest.mark.parametrize(
        "values, ndim, message",
        [
            (np.ones((2, 3)), 2, r"u must be square, got shape \(2, 3\)"),
            (np.ones((4, 2, 3)), 3, r"u must be square, got shape \(4, 2, 3\)"),
            (np.eye(2), 3, "u must be a nonempty 3-D array"),
            ([[1, 0], [0]], 2, "u must be numbers in a rectangular array"),
            ([[np.nan, 0], [0, 1]], 2, "u must be finite"),
            (0.5 * np.eye(2), 2, r"u is not unitary: \|\|U\^dag U - I\|\| = 7.500e-01 > 1e-09"),
        ],
        ids=["not-square", "stack-not-square", "ndim", "ragged", "nan", "contraction"],
    )
    def test_rejects_with_the_callers_module(self, values, ndim, message):
        with pytest.raises(ValidationError, match=message) as info:
            as_unitary(values, "u", "mod", tol=1e-9, ndim=ndim)
        assert info.value.module == "mod"

    def test_small_defects_on_many_entries_pass_a_stack(self):
        # 4 x 4 unitaries scaled by sqrt(1 + 0.9 tol): ||E||_F = 1.8 tol > tol >= ||E||,
        # so the operator norm decides and accepts
        tol = 1e-12
        rng = rng_for(12)
        stack = np.array([random_unitary(rng, 4) * np.sqrt(1 + 0.9 * tol) for _ in range(3)])
        defects = stack.conj().transpose(0, 2, 1) @ stack - np.eye(4)
        assert all(np.linalg.norm(e) > tol >= opnorm(e) for e in defects)
        as_unitary(stack, "u", "mod", tol=tol, ndim=3)

    def test_names_the_first_failing_matrix_of_a_stack(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        stack = [x, x * np.sqrt(1 + 0.9e-12), x * 1.01, x * 2.0]
        with pytest.raises(ValidationError, match=r"u\[2\] is not unitary: .* = 2.010e-02 ") as info:
            as_unitary(stack, "u", "mod", tol=1e-12, ndim=3)
        assert info.value.module == "mod"

    @pytest.mark.parametrize(
        "u",
        [[[1e200, 1e200], [1e200, -1e200]], [[1e200, 0], [0, 1]], [[1e160, 0], [0, 1e-160]]],
        ids=["nan-defect", "inf-defect", "huge-and-tiny"],
    )
    def test_a_defect_past_the_float_range_is_inf(self, u):
        # finite entries whose U^dag U overflows, to inf or to inf - inf = NaN
        with pytest.raises(ValidationError, match=r"= inf > 1e-09$"):
            as_unitary(u, "u", "mod", tol=1e-9)


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
