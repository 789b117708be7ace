import math

import numpy as np
import pytest
import scipy.linalg

from qevt import analytic
from qevt.analytic import (
    JordanForm,
    assemble_from_jordan,
    disk_samples,
    exp_plan,
    jordan_block,
    jordan_poly,
    shifted_inverse_plan,
    taylor_truncation_order,
)
from qevt.errors import NumericalError, ValidationError
from qevt.evt import transform
from qevt.linalg import PolynomialSpec, horner_eval, operator_norm

from helpers import opnorm, random_complex, random_contraction, rng_for


class TestShiftedInversePlan:
    def test_reference_order(self):
        plan = shifted_inverse_plan(2.0, 1e-3)
        assert plan.order == 10

    def test_far_pole_needs_no_terms(self):
        # once 1/(eta * eps) <= 1 the constant term alone is enough
        plan = shifted_inverse_plan(11.0, 0.2)
        assert plan.order == 0

    def test_pole_in_disk_rejected(self):
        with pytest.raises(ValidationError, match="pole"):
            shifted_inverse_plan(0.9, 1e-3)

    def test_coefficients_are_geometric(self):
        c = 1.5 + 0.4j
        plan = shifted_inverse_plan(c, 1e-4)
        for k, coeff in enumerate(plan.coefficients.coefficients):
            assert coeff == pytest.approx(1.0 / c ** (k + 1), rel=1e-12)

    def test_end_to_end_against_dense_solve(self):
        rng = rng_for(0)
        a = random_contraction(rng, 4, 0.9)
        plan = shifted_inverse_plan(1.5, 1e-4)
        report = transform(a, plan.coefficients)
        reference = np.linalg.inv(1.5 * np.eye(4) - a)
        slack = 1e-8
        assert opnorm(report.result_block - reference) <= plan.certified_error + slack

    def test_bounded_by_inverse_distance(self):
        # |1/(c - z)| <= 1/eta on the closed disk
        for c in (1.3, 2.0 + 1.0j, -1.8):
            eta = abs(c) - 1.0
            values = np.abs(1.0 / (c - disk_samples(2000)))
            assert np.max(values) <= 1.0 / eta + 1e-12

    @pytest.mark.parametrize(
        "c, eps, message",
        [
            (2.0, math.nan, "eps must be positive and finite, got nan"),
            (2.0, math.inf, "eps must be positive and finite, got inf"),
            (math.nan, 1e-6, r"the pole c = \(nan\+0j\) must be finite"),
            (complex(2.0, math.inf), 1e-6, r"the pole c = \(2\+infj\) must be finite"),
        ],
        ids=["eps-nan", "eps-inf", "c-nan", "c-inf"],
    )
    def test_rejects_non_finite_arguments(self, c, eps, message):
        with pytest.raises(ValidationError, match=message) as info:
            shifted_inverse_plan(c, eps)
        assert info.value.module == "analytic"

    def test_monotone_in_eps(self):
        orders = [shifted_inverse_plan(1.7, eps).order for eps in (1e-2, 1e-4, 1e-8)]
        assert orders == sorted(orders)


class TestDiskCheck:
    # the sample error of each of these is above max(tail, eps), below it
    # plus the rounding of the check's own evaluations
    @pytest.mark.parametrize(
        "build, order",
        [
            (lambda: shifted_inverse_plan(1.01, 1e-14), 3703),
            (lambda: shifted_inverse_plan(1.1, 1e-15), 387),
            (lambda: shifted_inverse_plan(2.0, 1e-16), 54),
            (lambda: exp_plan(1e-16), 18),
            (lambda: exp_plan(1e-300), 167),
        ],
        ids=["inverse-1.01", "inverse-1.1", "inverse-2", "exp-1e-16", "exp-1e-300"],
    )
    def test_rounding_is_allowed_for(self, build, order):
        assert build().order == order

    @pytest.mark.parametrize(
        "build, wrong",
        [
            # 1/c^k instead of 1/c^(k+1): off by a factor c everywhere
            (lambda: shifted_inverse_plan(1.01, 1e-8), lambda cs: [1.01 * x for x in cs]),
            # degree 29949, one coefficient off by 1e-3
            (
                lambda: shifted_inverse_plan(1.001, 1e-10),
                lambda cs: cs[:100] + [cs[100] + 1e-3] + cs[101:],
            ),
            (lambda: exp_plan(1e-16), lambda cs: cs[:5] + [cs[5] * (1 + 1e-9)] + cs[6:]),
        ],
        ids=["inverse-power-shift", "inverse-one-coefficient", "exp-one-coefficient"],
    )
    def test_wrong_plans_still_fail(self, monkeypatch, build, wrong):
        monkeypatch.setattr(analytic, "PolynomialSpec", lambda cs: PolynomialSpec(wrong(cs)))
        with pytest.raises(NumericalError, match="exceeds the certified bound") as info:
            build()
        assert info.value.module == "analytic"


class TestRunawayOrder:
    def built(self, _coefficients):
        raise AssertionError("coefficients built past the order cap")

    def test_order_past_the_cap_is_an_input_error(self, monkeypatch):
        # (1.01, 1e-14) has order 3703: a cap of 100 must refuse it before the
        # coefficients reach PolynomialSpec
        monkeypatch.setattr(analytic, "MAX_TRUNCATION_ORDER", 100)
        monkeypatch.setattr(analytic, "PolynomialSpec", self.built)
        with pytest.raises(ValidationError, match="truncation order 3703 ") as info:
            shifted_inverse_plan(1.01, 1e-14)
        assert info.value.module == "analytic"

    def test_cap_admits_the_largest_documented_plan(self):
        assert shifted_inverse_plan(1.001, 1e-10).order == 29949 < analytic.MAX_TRUNCATION_ORDER

    @pytest.mark.parametrize(
        "c, eps",
        [(1.5, 5e-324), (1.5, 1e-310), (1 + 2**-52, 1e-300)],
        ids=["product-underflows", "reciprocal-overflows", "pole-at-one-ulp"],
    )
    def test_reach_below_the_float_range(self, monkeypatch, c, eps):
        # 1/((|c| - 1) eps) divides by zero or overflows: an input error, not a bare one,
        # from the generic order rule
        monkeypatch.setattr(analytic, "PolynomialSpec", self.built)
        with pytest.raises(ValidationError) as info:
            shifted_inverse_plan(c, eps)
        shown = f"1.0 / ({c - 1.0!r} * {eps!r})"
        assert str(info.value) == f"m / ((r - 1) * eps) = {shown} is above the float range"
        assert info.value.module == "analytic"

    @pytest.mark.parametrize(
        "c, eps, message",
        [
            (2.0, 1e-308, "2.0^1025"),
            (-2j, 1e-308, "2.0^1025"),
            (2.0, 5.6e-309, "2.0^1025"),
            (1.5, 1.2e-308, "1.5^1752"),
        ],
        ids=["real", "imaginary", "band-edge", "1.5"],
    )
    def test_power_past_the_float_range(self, c, eps, message):
        # 1/((|c| - 1) eps) is finite, but |c|^(N + 1) is not: c^(N + 1) would
        # raise a bare OverflowError
        with pytest.raises(ValidationError) as info:
            shifted_inverse_plan(c, eps)
        assert str(info.value) == f"|c|^(N + 1) = {message} is above the float range"
        assert info.value.module == "analytic"


class TestExpPlan:
    def test_reference_order(self):
        assert exp_plan(1e-10).order == 13

    def test_trivial_accuracy(self):
        assert exp_plan(2.0).order == 0

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        # NaN and infinity compare false with every order's tail: order 0 is no answer
        with pytest.raises(ValidationError, match="eps must be positive and finite"):
            exp_plan(eps)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValidationError, match="eps must be positive"):
            exp_plan(0)

    def test_growth_rate(self):
        # order grows like log(1/eps) / log log(1/eps), within a factor of two
        for eps in (1e-4, 1e-8, 1e-12):
            n = exp_plan(eps).order
            rate = math.log(1.0 / eps) / math.log(math.log(1.0 / eps))
            assert 0.5 <= n / rate <= 2.0

    def test_monotone_orders(self):
        orders = [exp_plan(eps).order for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
        assert orders == sorted(orders)

    def test_end_to_end_against_scaling_and_squaring(self):
        rng = rng_for(1)
        a = random_contraction(rng, 4, 0.9)
        plan = exp_plan(1e-10)
        report = transform(a, plan.coefficients)
        reference = scipy.linalg.expm(a) / 3.0
        assert opnorm(report.result_block - reference) <= 1e-9


class TestTaylorTruncationOrder:
    def test_reference_value(self):
        assert taylor_truncation_order(2.0, 1.0, 1e-3) == 10

    def test_clamped_at_zero(self):
        assert taylor_truncation_order(3.0, 0.5, 1.0) == 0

    def test_rejects_radius_at_most_one(self):
        with pytest.raises(ValidationError):
            taylor_truncation_order(1.0, 1.0, 1e-3)

    @pytest.mark.parametrize(
        "r, m, eps, message",
        [
            (math.nan, 1.0, 1e-3, "radius must exceed 1 and be finite, got nan"),
            (math.inf, 1.0, 1e-3, "radius must exceed 1 and be finite, got inf"),
            (2.0, math.nan, 1e-3, "bound must be positive and finite, got nan"),
            (2.0, math.inf, 1e-3, "bound must be positive and finite, got inf"),
            (2.0, 1.0, math.nan, "eps must be positive and finite, got nan"),
            (2.0, 1.0, math.inf, "eps must be positive and finite, got inf"),
        ],
        ids=["r-nan", "r-inf", "m-nan", "m-inf", "eps-nan", "eps-inf"],
    )
    def test_rejects_non_finite_arguments(self, r, m, eps, message):
        with pytest.raises(ValidationError, match=message):
            taylor_truncation_order(r, m, eps)

    @pytest.mark.parametrize(
        "r, m, eps, shown",
        [(2.0, 1e308, 1e-3, "1e+308 / (1.0 * 0.001)"), (1.5, 1.0, 5e-324, "1.0 / (0.5 * 5e-324)")],
        ids=["quotient-overflows", "product-underflows"],
    )
    def test_ratio_past_the_float_range(self, r, m, eps, shown):
        # a bare OverflowError and ZeroDivisionError before
        with pytest.raises(ValidationError) as info:
            taylor_truncation_order(r, m, eps)
        assert str(info.value) == f"m / ((r - 1) * eps) = {shown} is above the float range"
        assert info.value.module == "analytic"

    def test_ratio_underflowing_to_zero_needs_no_terms(self):
        # 5e-324 / 1e300 is 0: log(0) is undefined, and the order is 0
        assert taylor_truncation_order(1e300, 5e-324, 1.0) == 0

    @pytest.mark.parametrize(
        "c, eps, order",
        [(2.0, 1e-3, 10), (2.0, 1e-6, 20), (-1.5j, 1e-4, 25), (1.1, 1e-6, 170),
         (1.05, 1e-6, 345), (1.01, 1e-8, 2315), (1.002, 1e-8, 12330), (1.001, 1e-10, 29949)],
    )
    def test_consistent_with_shifted_inverse(self, c, eps, order):
        # for f = 1/(c - z) the coefficients 1/c^(k+1) are bounded by 1 * |c|^-k:
        # the generic order at radius |c| and bound 1 is the plan's order
        assert shifted_inverse_plan(c, eps).order == taylor_truncation_order(abs(c), 1.0, eps)
        assert taylor_truncation_order(abs(c), 1.0, eps) == order

    def test_certifies_grid_error(self):
        # f(z) = 1/(2 - z) extends to |z| < 1.9 with |f| <= 10 there
        r, m = 1.9, 10.0
        pts = disk_samples(2000)
        for eps in (1e-2, 1e-5, 1e-8):
            n = taylor_truncation_order(r, m, eps)
            coeffs = [2.0 ** -(k + 1) for k in range(n + 1)]
            values = np.polynomial.polynomial.polyval(pts, np.asarray(coeffs))
            assert np.max(np.abs(values - 1.0 / (2.0 - pts))) <= eps

    def test_monotone_in_eps(self):
        orders = [taylor_truncation_order(1.9, 10.0, eps) for eps in (1e-2, 1e-5, 1e-8)]
        assert orders == sorted(orders)


class TestCertifiedBounds:
    def test_truncations_hold_on_disk_sample(self):
        pts = disk_samples(2000)
        plan = shifted_inverse_plan(2.0, 1e-3)
        err = np.max(np.abs(plan.coefficients(pts) - 1.0 / (2.0 - pts)))
        assert err <= plan.certified_error
        plan = exp_plan(1e-8)
        err = np.max(np.abs(plan.coefficients(pts) - np.exp(pts) / 3.0))
        assert err <= plan.certified_error


class TestJordanPoly:
    def test_scalar_block(self):
        p = PolynomialSpec([1.0, 2.0, 3.0])
        out = jordan_poly(p, 0.4 + 0.1j, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(complex(p(0.4 + 0.1j)))

    def test_cube_of_half(self):
        out = jordan_poly(PolynomialSpec([0, 0, 0, 1.0]), 0.5, 3)
        expected = np.array(
            [[0.125, 0.75, 1.5], [0, 0.125, 0.75], [0, 0, 0.125]], dtype=complex
        )
        assert opnorm(out - expected) <= 1e-14

    def test_matches_horner_on_jordan_block(self):
        rng = rng_for(2)
        for _ in range(10):
            size = int(rng.integers(1, 6))
            deg = int(rng.integers(0, 7))
            lam = complex(*rng.uniform(-0.6, 0.6, size=2))
            p = PolynomialSpec(random_complex(rng, deg + 1))
            direct = horner_eval(p, jordan_block(lam, size))
            assert opnorm(jordan_poly(p, lam, size) - direct) <= 1e-12

    def test_square_past_the_factorial_range(self):
        # z^2 on a block of size 200: lambda^2, 2 lambda and 1 on the diagonals, then 0;
        # 171! is past the float range, so derivative shifts divided by k! overflowed
        lam = 0.6 - 0.3j
        out = jordan_poly(PolynomialSpec([0, 0, 1.0]), lam, 200)
        expected = lam**2 * np.eye(200) + np.diag(np.full(199, 2 * lam), 1) + np.eye(200, k=2)
        assert np.array_equal(out, expected)

    def test_long_plan_on_a_large_block(self):
        # the degree-345 inverse plan on a size-130 block: its derivative
        # coefficients overflowed, and the Taylor shift's entries reach ~1e45
        p = shifted_inverse_plan(1.05, 1e-6).coefficients
        assert p.degree == 345
        out = jordan_poly(p, 0.6, 130)
        direct = horner_eval(p, jordan_block(0.6, 130))
        assert np.all(np.isfinite(out))
        assert opnorm(out - direct) <= 1e-12 * opnorm(direct)

    def test_toeplitz_structure(self):
        p = PolynomialSpec(random_complex(rng_for(3), 6))
        out = jordan_poly(p, 0.3 - 0.2j, 5)
        assert np.allclose(out, np.triu(out))
        for k in range(5):
            diag = np.diagonal(out, offset=k)
            assert np.allclose(diag, diag[0])


    @pytest.mark.parametrize(
        "build",
        [lambda: jordan_block(0.5, 0), lambda: jordan_poly(PolynomialSpec([1.0]), 0.5, 0)],
        ids=["block", "poly"],
    )
    def test_rejects_empty_block(self, build):
        with pytest.raises(ValidationError, match="block size must be positive"):
            build()


class TestAssembleFromJordan:
    def test_identity_similarity(self):
        jf = JordanForm(similarity=np.eye(3), blocks=((0.5, 3),))
        assert np.allclose(assemble_from_jordan(jf), jordan_block(0.5, 3))

    def test_diagonalizable_case(self):
        jf = JordanForm(similarity=np.eye(2), blocks=((0.5, 1), (-0.5, 1)))
        a = assemble_from_jordan(jf)
        assert np.allclose(a, np.diag([0.5, -0.5]))
        p = PolynomialSpec([0.0, 0.0, 1.0])
        assert np.allclose(horner_eval(p, a), np.diag([0.25, 0.25]))

    def test_similarity_identity_for_polynomials(self):
        rng = rng_for(4)
        s = np.eye(3) + 0.3 * random_complex(rng, (3, 3))
        blocks = ((0.3 + 0.0j, 2), (-0.4 + 0.0j, 1))
        jf = JordanForm(similarity=s, blocks=blocks)
        a = assemble_from_jordan(jf)
        p = PolynomialSpec(random_complex(rng, 5) / 5)
        via_blocks = scipy.linalg.block_diag(
            jordan_poly(p, 0.3, 2), jordan_poly(p, -0.4, 1)
        )
        lhs = horner_eval(p, a)
        rhs = s @ via_blocks @ np.linalg.inv(s)
        cond = operator_norm(s) * operator_norm(np.linalg.inv(s))
        assert opnorm(lhs - rhs) <= 1e-8 * cond

    def test_rejects_ill_conditioned_similarity(self):
        s = np.diag([1.0, 1e-9])
        jf = JordanForm(similarity=s, blocks=((0.5, 1), (0.2, 1)))
        with pytest.raises(ValidationError, match="ill-conditioned"):
            assemble_from_jordan(jf)

    @pytest.mark.parametrize(
        "similarity, blocks, message",
        [
            (np.eye(2), (), "at least one Jordan block is required"),
            (np.ones((2, 2)), ((0.5, 2),), "similarity matrix is singular"),
        ],
        ids=["no-blocks", "singular"],
    )
    def test_rejects_invalid_forms(self, similarity, blocks, message):
        jf = JordanForm(similarity=similarity, blocks=blocks)
        with pytest.raises(ValidationError, match=message):
            assemble_from_jordan(jf)

    def test_rejects_nonpositive_block_size(self):
        # the sizes sum to the dimension, yet the first block does not fit
        jf = JordanForm(similarity=np.eye(2), blocks=((0.5, 3), (0.2, -1)))
        with pytest.raises(ValidationError, match="block size must be positive") as info:
            assemble_from_jordan(jf)
        assert info.value.module == "analytic"

    def test_rejects_dimension_mismatch(self):
        jf = JordanForm(similarity=np.eye(3), blocks=((0.5, 2),))
        with pytest.raises(ValidationError):
            assemble_from_jordan(jf)
