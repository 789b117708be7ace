import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevt import gqsp
from qevt.analytic import shifted_inverse_plan
from qevt.encoding import BlockEncoding
from qevt.errors import NormBoundError, NumericalError, ValidationError
from qevt.gqsp import (
    GqspSequence,
    apply_to_operator,
    complete,
    evaluate_scalar,
    sup_norm_on_circle,
    synthesize,
)
from qevt.linalg import PolynomialSpec, horner_eval

from helpers import (
    circle_grid,
    dense_circuit,
    grid_sup,
    near_tie_coefficients,
    opnorm,
    outer_factor,
    random_complex,
    random_polynomial,
    random_unitary,
    reference_strip,
    reference_sup,
    rng_for,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
AVERAGING = PolynomialSpec([0.5, 0.0, 0.5])  # (1 + z^2)/2, sup-norm exactly 1


def refined_sup(p: PolynomialSpec) -> float:
    """Dense reference sup of |P|: the 2^20-point FFT grid, each of its 16 largest
    samples refined by two rounds of 2001 Horner points across the neighbouring steps."""
    grid = 2**20
    values = np.abs(np.fft.fft(p.array, grid))  # P at exp(-2 pi i j / grid)
    angles = -2 * np.pi * np.argsort(values)[-16:] / grid
    best = float(values.max())
    for width in (2 * np.pi / grid, 4 * np.pi / grid / 2000):
        ts = angles[:, None] + width * np.linspace(-1.0, 1.0, 2001)
        local = np.abs(p(np.exp(1j * ts)))
        best = max(best, float(local.max()))
        angles = ts[np.arange(ts.shape[0]), np.argmax(local, axis=1)]
    return best


class TestSupNormOnCircle:
    def test_monomials(self):
        for k in (0, 1, 5):
            coeffs = [0.0] * k + [1.0]
            assert sup_norm_on_circle(PolynomialSpec(coeffs)) == pytest.approx(1.0, abs=1e-12)

    def test_averaging_polynomial(self):
        # |e^{i t} cos t| peaks at t = 0
        assert sup_norm_on_circle(AVERAGING) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_grid(self):
        rng = rng_for(2)
        for _ in range(5):
            coeffs = random_complex(rng, 9)
            got = sup_norm_on_circle(PolynomialSpec(coeffs))
            assert abs(got - grid_sup(coeffs)) <= 1e-7

    def test_degree_beyond_16384_points(self):
        # the grid grows with the degree: 2^16 points at degree 5000, and all
        # 5000 equal peaks survive the Bernstein test until rounding
        p = PolynomialSpec(np.r_[0.5, np.zeros(4999), 0.25j])
        assert sup_norm_on_circle(p) == pytest.approx(0.75, abs=1e-12)

    def test_nearly_equal_peaks(self):
        # 300 peaks of |1 + e^{i phi} z^300| under the slow tilt of |1 + delta z|:
        # the best grid sample sits under a peak 5e-5 below the highest one
        p = PolynomialSpec(near_tie_coefficients())
        reference = refined_sup(p)
        assert reference == pytest.approx(0.999999664, abs=1e-9)
        assert abs(sup_norm_on_circle(p) - reference) <= 1e-13 * reference

    @pytest.mark.parametrize("power", [-1000, -60, 60, 1000])
    @pytest.mark.parametrize("degree", [0, 7, 301])
    def test_power_of_two_scaling_is_exact(self, degree, power):
        # the coefficients are scaled to their own binade before |P|^2 is formed,
        # so scaling by 2^power scales the result by exactly that
        p = random_polynomial(rng_for(degree), degree, sup=0.9)
        scaled = sup_norm_on_circle(p.array * 2.0**power)
        assert scaled == sup_norm_on_circle(p) * 2.0**power

    def test_batched_zoom_matches_polyval_reference(self):
        # each zoom round is one product of the Taylor rows with the offsets'
        # powers; the reference runs polyval's Horner passes on the same points
        rng = rng_for(31)
        cases = [PolynomialSpec(random_complex(rng, int(rng.integers(1, 402)))) for _ in range(200)]
        for p in [*cases, PolynomialSpec(near_tie_coefficients())]:
            want = reference_sup(p)
            assert abs(sup_norm_on_circle(p) - want) <= 4e-16 * want

    def test_coefficients_whose_squares_overflow(self):
        # |P|^2 reaches 4e600, past the float range; the scaled samples do not
        assert sup_norm_on_circle([1e300, 1e300]) == pytest.approx(2e300, rel=1e-15)


class TestOnCircle:
    @pytest.mark.parametrize("grid", [16, 171, 512], ids=["folded", "exact", "padded"])
    def test_matches_horner_at_roots_of_unity(self, grid):
        # 16 points on degree 170: up to eleven coefficients fold onto each point
        p = PolynomialSpec(random_complex(rng_for(19), 171))
        pts = circle_grid(grid)
        bound = 1e-13 * np.sum(np.abs(p.array))  # both are sums of 171 rounded terms
        assert np.max(np.abs(gqsp._on_circle(p.array, grid) - p(pts))) <= bound


    @pytest.mark.parametrize("grid", [16, 512], ids=["folded", "padded"])
    def test_rows_evaluated_in_one_call(self, grid):
        # a stack of rows is a stack of polynomials, each folded or padded as alone
        rows = random_complex(rng_for(20), (3, 171))
        got = gqsp._on_circle(rows, grid)
        for row, values in zip(rows, got):
            assert np.array_equal(values, gqsp._on_circle(row, grid))


class TestComplete:
    def test_half_z(self):
        q = complete(PolynomialSpec([0.0, 0.5]))
        assert q.degree == 0
        assert abs(q.coefficients[0]) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_monomial_completes_to_zero(self):
        q = complete(PolynomialSpec([0.0, 0.0, 1.0]))
        assert q.coefficients == (0j,)

    @pytest.mark.parametrize(
        "coeffs, factor",
        [([0.0, 0.0, 0.3j], np.sqrt(0.91)), ([0.6], 0.8), ([0.0], 1.0)],
        ids=["monomial", "constant", "zero"],
    )
    def test_constant_factor_through_newton(self, coeffs, factor):
        # one real unknown: the outer start, a 1 x 1 dense step and the circle check
        q = complete(PolynomialSpec(coeffs))
        assert q.degree == 0
        assert abs(q.coefficients[0] - factor) <= 1e-15

    def test_scaled_averaging_polynomial_matches_sine(self):
        # for s(1+z^2)/2 with s = 1 - 1e-6 the companion obeys
        # |Q|^2 = 1 - s^2 cos^2 t = sin^2 t + (1 - s^2) cos^2 t
        s = 1.0 - 1e-6
        q = complete(AVERAGING.scaled(s))
        theta = 2 * np.pi * np.arange(4096) / 4096
        got = np.abs(q(np.exp(1j * theta))) ** 2
        expected = 1.0 - (s * np.cos(theta)) ** 2
        assert np.max(np.abs(got - expected)) <= 1e-10

    def test_random_polynomials_satisfy_identity(self):
        # Q must be the factor with every root inside the disk and a positive
        # leading coefficient: layer stripping relies on that choice
        rng = rng_for(3)
        pts = circle_grid(4096)
        margin = 1.0 - gqsp.SUP_MARGIN
        for degree in (*range(1, 33), 48, 64, 128):
            for sup in (0.5, 0.9, margin):
                p = random_polynomial(rng, degree, sup=sup)
                if sup == margin:  # exactly at the margin, as synthesize rescales
                    p = p.scaled(margin / sup_norm_on_circle(p))
                q = complete(p)
                assert q.degree <= p.degree
                total = np.abs(p(pts)) ** 2 + np.abs(q(pts)) ** 2
                assert np.max(np.abs(total - 1.0)) <= 1e-8
                lead = q.coefficients[-1]
                assert lead.imag == 0.0 and lead.real > 0.0
                roots = np.polynomial.polynomial.polyroots(q.array) if q.degree else []
                assert np.all(np.abs(roots) < 1.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        degree=st.integers(1, 40),
        zeros=st.integers(0, 3),
        sup=st.floats(0.5, 1.0 - gqsp.SUP_MARGIN),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_completion_properties(self, degree, zeros, sup, real, seed):
        # low-order zeros shrink the deficit's bandwidth to degree - zeros
        rng = rng_for(seed)
        coeffs = rng.normal(size=degree + 1) + (0 if real else 1j * rng.normal(size=degree + 1))
        coeffs[: min(zeros, degree)] = 0.0
        p = PolynomialSpec(coeffs)
        p = p.scaled(sup / sup_norm_on_circle(p))
        q = complete(p)
        assert q.degree == degree - min(zeros, degree)
        pts = circle_grid(max(1024, 4 * (degree + 1)))
        total = np.abs(p(pts)) ** 2 + np.abs(q(pts)) ** 2
        assert np.max(np.abs(total - 1.0)) <= 1e-12
        lead = q.coefficients[-1]
        assert lead.imag == 0.0 and lead.real > 0.0
        roots = np.polynomial.polynomial.polyroots(q.array) if q.degree else []
        assert np.all(np.abs(roots) < 1.0)

    def test_matches_outer_function_reference(self):
        # Newton from Wilson's start must reach the outer function's factor,
        # computed independently by FFTs of log(1 - |P|^2)
        rng = rng_for(16)
        for degree in (3, 17, 40):
            p = random_polynomial(rng, degree, sup=0.9)
            assert np.max(np.abs(complete(p).array - outer_factor(p.array))) <= 1e-11

    def test_newton_nonconvergence_is_numerical_error(self, monkeypatch):
        # a margin polynomial needs several Newton steps
        p = random_polynomial(rng_for(18), 8, sup=1.0 - gqsp.SUP_MARGIN)
        monkeypatch.setattr(gqsp, "NEWTON_STEPS", 1)
        with pytest.raises(NumericalError, match="did not converge.*after 1 Newton steps") as info:
            complete(p)
        assert info.value.module == "gqsp"

    def test_margin_completions_within_step_budget(self, monkeypatch):
        # Wilson's start reaches margin inputs in 12-13 Newton steps at every
        # degree tried, up to 12330: half the budget must do
        monkeypatch.setattr(gqsp, "NEWTON_STEPS", 15)
        plans = ((1.05, 1e-6), (1.01, 1e-8))
        polys = [shifted_inverse_plan(c, eps).coefficients for c, eps in plans]
        polys.append(random_polynomial(rng_for(18), 8, sup=1.0 - gqsp.SUP_MARGIN))
        for p in polys:
            seq = synthesize(p)
            assert seq.degree == p.degree

    @pytest.mark.parametrize("degree", [8, 40, 97])
    def test_krylov_and_dense_steps_agree(self, monkeypatch, degree):
        # margin polynomials: several Newton steps on each path; the crossover
        # is moved to force one, the other step is disabled
        margin = 1.0 - gqsp.SUP_MARGIN
        p = random_polynomial(rng_for(20 + degree), degree)
        p = p.scaled(margin / sup_norm_on_circle(p))

        def disabled(*args):
            raise AssertionError("the other Newton step ran")

        with monkeypatch.context() as patch:
            patch.setattr(gqsp, "KRYLOV_MIN_ORDER", degree + 1)
            patch.setattr(gqsp, "_krylov_step", disabled)
            dense = complete(p)
        with monkeypatch.context() as patch:
            patch.setattr(gqsp, "KRYLOV_MIN_ORDER", 0)
            patch.setattr(gqsp, "_dense_steps", disabled)
            krylov = complete(p)
        assert dense.degree == krylov.degree == degree
        assert np.max(np.abs(dense.array - krylov.array)) <= 1e-11

    @pytest.mark.parametrize(
        "product, reading",
        [(np.zeros_like, r"diagonal 0\.000e\+00"), (lambda u: np.full_like(u, np.nan), "nan")],
        ids=["breakdown", "nan"],
    )
    def test_krylov_failure_is_numerical_error(self, monkeypatch, product, reading):
        # degree 170 is above the crossover: a zero product leaves the Krylov
        # space invariant without a step, a NaN one must not pass as converged
        p = shifted_inverse_plan(1.1, 1e-6).coefficients
        monkeypatch.setattr(gqsp, "_jacobian_product", lambda outer: product)
        with pytest.raises(NumericalError, match=f"Krylov step broke down.*{reading}") as info:
            synthesize(p)
        assert info.value.module == "gqsp"

    def test_krylov_nonconvergence_names_iterations(self, monkeypatch):
        p = shifted_inverse_plan(1.1, 1e-6).coefficients
        assert p.degree >= gqsp.KRYLOV_MIN_ORDER
        monkeypatch.setattr(gqsp, "NEWTON_STEPS", 2)
        with pytest.raises(
            NumericalError,
            match=r"did not converge: coefficient residual .* after 2 Newton steps "
            r"\(tolerance .*; \d+ Krylov iterations in the last\)",
        ):
            synthesize(p)

    def test_nan_start_is_numerical_error(self):
        # NaN compares false with every tolerance: it must fail, not pass
        target = np.r_[1.0, np.zeros(8)] + 0j
        with pytest.raises(NumericalError, match="coefficient residual nan"):
            gqsp._wilson_newton(np.full(9, np.nan + 0j), target)

    def test_residual_checked_between_4096_points(self, monkeypatch):
        # |P|^2 + |Q|^2 - 1 = 0.18 sin(2048 t) for this wrong Q: zero on the
        # 4096th roots of unity, 0.18 between them; Newton returns it
        p = PolynomialSpec(np.r_[0.3, np.zeros(2047), 0.3j])
        wrong = np.r_[np.sqrt(0.82), np.zeros(2048)]  # Q = sqrt(0.82) z^2048
        monkeypatch.setattr(gqsp, "_wilson_newton", lambda outer, target: wrong)
        with pytest.raises(NumericalError, match="residual 1.800e-01"):
            complete(p)

    def test_rejects_boundary_polynomial(self):
        with pytest.raises(NormBoundError, match="rescale"):
            complete(AVERAGING)

    def test_tiny_top_coefficient_keeps_its_degree(self):
        # the deficit's top Laurent coefficient is -p_2 conj(p_0) = -5e-15, yet
        # Q needs degree 2: without it the pair cannot strip to unit norm
        p = PolynomialSpec([1e-3, 0.5, 5e-12])
        assert complete(p).degree == 2
        seq = synthesize(p)
        pts = circle_grid(4096)
        assert np.max(np.abs(evaluate_scalar(seq, pts) - seq.scale * p(pts))) <= 1e-10


class TestSynthesize:
    def test_pauli_x_pair_realizes_z(self):
        # the two-X sequence realizes the identity map on the signal
        seq = GqspSequence(rotations=(X, X))
        for z in (1.0, 1j, np.exp(0.7j), 0.3 - 0.2j):
            assert evaluate_scalar(seq, z) == pytest.approx(z, abs=1e-14)

    def test_synthesized_identity_map(self):
        seq = synthesize(PolynomialSpec([0.0, 1.0]))
        assert seq.scale == 1.0
        assert evaluate_scalar(seq, 1j) == pytest.approx(1j, abs=1e-12)

    def test_degree_zero(self):
        c = 0.4 - 0.3j
        seq = synthesize(PolynomialSpec([c]))
        assert seq.degree == 0
        assert seq.rotations[0][0, 0] == pytest.approx(c, abs=1e-12)

    def test_coefficients_whose_squares_overflow(self):
        seq = synthesize([1e300, 1e300])
        assert seq.scale == pytest.approx((1 - gqsp.SUP_MARGIN) / 2e300, rel=1e-15, abs=0)
        assert evaluate_scalar(seq, 1.0) / seq.scale == pytest.approx(2e300, rel=1e-12)

    def test_sup_beyond_the_float_range_is_a_norm_error(self):
        with pytest.raises(NormBoundError) as info:
            synthesize([1e308, 1e308])
        assert str(info.value) == (
            "sup |P| on the circle is inf, beyond the float range; rescale the polynomial"
        )
        assert info.value.module == "gqsp" and info.value.norm == np.inf

    def test_averaging_polynomial_grid_residual(self):
        seq = synthesize(AVERAGING)
        pts = circle_grid(1024)
        residual = np.max(np.abs(evaluate_scalar(seq, pts) / seq.scale - AVERAGING(pts)))
        assert residual <= 1e-9

    def test_random_degree_8(self):
        rng = rng_for(4)
        pts = circle_grid(1024)
        for _ in range(5):
            p = random_polynomial(rng, 8, sup=0.9)
            seq = synthesize(p)
            assert seq.scale == 1.0
            residual = np.max(np.abs(evaluate_scalar(seq, pts) - p(pts)))
            assert residual <= 1e-9

    def test_sup_norm_computed_once(self, monkeypatch):
        # once for a polynomial inside the margin, once for one rescaled to it
        calls = []
        original = gqsp.sup_norm_on_circle

        def counting(p, *args, **kwargs):
            calls.append(p)
            return original(p, *args, **kwargs)

        monkeypatch.setattr(gqsp, "sup_norm_on_circle", counting)
        for p, rescaled in ((random_polynomial(rng_for(6), 6, sup=0.8), False), (AVERAGING, True)):
            calls.clear()
            seq = synthesize(p)
            assert (seq.scale < 1.0) == rescaled
            assert len(calls) == 1

    def test_newton_solve_failure_is_numerical_error(self, monkeypatch):
        # the dense LAPACK step: the rescaled averaging polynomial completes at
        # degree 2, below the Krylov crossover
        assert AVERAGING.degree < gqsp.KRYLOV_MIN_ORDER

        def failing(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(NumericalError, match="Newton step failed") as info:
            synthesize(AVERAGING)
        assert info.value.module == "gqsp"

    def test_draws_that_failed_the_residual_check(self):
        # inputs on which Q rebuilt by polyfromroots missed the 1e-8 residual
        # check: random draws at sup 0.9 and 1/(1.05 - z) at eps 1e-6 (degree
        # 345, rescaled to the margin)
        pts = circle_grid(4096)
        polys = [
            random_polynomial(rng_for(seed), degree, sup=0.9)
            for degree, seed in ((64, 116), (96, 111), (128, 105))
        ]
        polys.append(shifted_inverse_plan(1.05, 1e-6).coefficients)
        assert polys[-1].degree == 345
        for p in polys:
            seq = synthesize(p)
            residual = np.max(np.abs(evaluate_scalar(seq, pts) - seq.scale * p(pts)))
            assert residual <= 1e-10

    def test_monomial_at_the_margin(self):
        # 2 z^3 is rescaled to the margin; its Q is a constant near 1.4e-3
        p = PolynomialSpec([0.0, 0.0, 0.0, 2.0])
        seq = synthesize(p)
        assert seq.scale == pytest.approx((1.0 - gqsp.SUP_MARGIN) / 2.0, rel=1e-15)
        pts = circle_grid(4096)
        assert np.max(np.abs(evaluate_scalar(seq, pts) - seq.scale * p(pts))) <= 1e-14

    @pytest.mark.parametrize(
        "p, q, message",
        [
            # with Q = 0 the one layer strips, leaving a column of P's norm 0.5
            ([0.5, 0.5j], [0.0], "final column norm 0.499999500"),
            ([0.5, 1e-14], [0.5], "degenerate layer 0: both degree-1 coefficients vanish"),
            ([0.4, 0.4], [0.5], "layer stripping lost unitarity: final column norm 0.640312424"),
        ],
        ids=["parallel-pairs", "degenerate-layer", "final-column"],
    )
    def test_stripping_failures_are_numerical_errors(self, monkeypatch, p, q, message):
        # a Q that is not P's complement, as a faulty completion would return it
        monkeypatch.setattr(gqsp, "_complete", lambda poly, sup: PolynomialSpec(q))
        with pytest.raises(NumericalError, match=message) as info:
            synthesize(PolynomialSpec(p))
        assert info.value.module == "gqsp"

    def test_degree_2315_at_the_margin(self):
        # 1/(1.01 - z) at eps 1e-8, rescaled to the margin: matrix-free Newton
        # steps; a dense step here is a 4632 x 4632 solve
        p = shifted_inverse_plan(1.01, 1e-8).coefficients
        assert p.degree == 2315
        seq = synthesize(p)
        pts = circle_grid(4 * (p.degree + 1))
        assert np.max(np.abs(evaluate_scalar(seq, pts) - seq.scale * p(pts))) <= 1e-10

    def test_stripping_matches_vector_reference(self):
        rng = rng_for(21)
        for degree in (1, 2, 5, 12, 64, 128):
            p = random_polynomial(rng, degree, sup=0.9)
            q = complete(p).array
            assert q.size == degree + 1  # the constant term of p is nonzero
            got = np.array(synthesize(p).rotations)
            assert np.max(np.abs(got - reference_strip(p.array, q))) <= 1e-12

    def test_non_unitary_rotation_named(self):
        rotations = (X, X, 1.01 * X, X)
        with pytest.raises(ValidationError, match=r"rotations\[2\] is not unitary"):
            GqspSequence(rotations=rotations)

    def test_rotations_are_unitary(self):
        p = random_polynomial(rng_for(5), 6, sup=0.8)
        for rot in synthesize(p).rotations:
            assert opnorm(rot.conj().T @ rot - np.eye(2)) <= 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_polynomial(rng_for(22), 40, sup=0.9),
            lambda: random_polynomial(rng_for(23), 128, sup=1.0),  # rescaled to the margin
            lambda: shifted_inverse_plan(1.1, 1e-6).coefficients,
        ],
        ids=["random", "margin", "plan"],
    )
    def test_rotations_are_special_unitary(self, make):
        rotations = np.array(synthesize(make()).rotations)
        assert np.max(np.abs(np.linalg.det(rotations) - 1.0)) <= 1e-14

    def test_rotations_stable_under_rounding_of_q(self, monkeypatch):
        # a completion 1e-16 away, as another arithmetic would return it, must
        # move no rotation by more than rounding, in the last layers as well
        p = random_polynomial(rng_for(24), 128, sup=0.9)
        baseline = np.array(synthesize(p).rotations)
        noise = random_complex(rng_for(25), p.degree + 1)
        original = gqsp._complete

        def perturbed(poly, sup):
            q = original(poly, sup).array
            return PolynomialSpec(q * (1.0 + 1e-16 * noise[: q.size]))

        monkeypatch.setattr(gqsp, "_complete", perturbed)
        moved = np.abs(np.array(synthesize(p).rotations) - baseline)
        assert np.max(moved) <= 1e-12


class TestGqspSequence:
    @pytest.mark.parametrize(
        "rotations, scale, message",
        [
            ((), 1.0, "rotations must be a nonempty 3-D array"),
            ((X,), 0.0, "subnormalization scale must be positive and finite, got 0.0"),
            ((X,), 2.0, "subnormalization scale must be at most 1, got 2.0"),
            ((X, np.eye(3)), 1.0, "rotations must be numbers in a rectangular array"),
            ((np.eye(3), np.eye(3)), 1.0, r"rotations must be 2x2, got shape \(2, 3, 3\)"),
            ((X, [[1, 0], [0]]), 1.0, "rotations must be numbers in a rectangular array"),
            ((X, [[np.nan, 0], [0, 1]]), 1.0, "NaN or Inf"),
            ((X, [["a", 0], [0, 1]]), 1.0, "rotations must be numbers in a rectangular array"),
            ((X,), "x", "subnormalization scale must be positive and finite, got 'x'"),
            ((X,), None, "subnormalization scale must be positive and finite, got None"),
            ((X,), 10**5000, "scale must be positive and finite, got a 16610-bit integer"),
        ],
        ids=[
            "empty", "scale-0", "scale-2", "3x3", "3x3-stack", "ragged", "nan",
            "string-entry", "scale-str", "scale-none", "scale-huge-int",
        ],
    )
    def test_rejects_invalid_sequences(self, rotations, scale, message):
        with pytest.raises(ValidationError, match=message) as info:
            GqspSequence(rotations=rotations, scale=scale)
        assert info.value.module == "gqsp"

    def test_freezes_its_own_copy_of_a_stack(self):
        stack = np.array([X, X])
        seq = GqspSequence(rotations=stack)
        assert stack.flags.writeable and not seq.rotations[0].flags.writeable
        assert np.array_equal(np.array(seq.rotations), stack)

    @pytest.mark.parametrize(
        "rotation", [[[1e200, 0], [0, 1]], [[1e160, 0], [0, 1e-160]]], ids=["1e200", "1e160"]
    )
    def test_rotation_whose_gram_overflows_is_rejected(self, rotation):
        # R^dag R overflows; an eigvalsh defect of NaN compared False with the tolerance
        with pytest.raises(ValidationError) as info:
            GqspSequence(rotations=[X, rotation])
        assert str(info.value) == "rotations[1] is not unitary: ||U^dag U - I|| = inf > 1e-12"
        assert info.value.module == "gqsp"

    def test_rotations_are_held_to_the_tighter_tolerance(self):
        # a defect of 1e-10 lies in (ROTATION_TOL, UNITARITY_TOL]: a rotation is
        # refused, the same matrix is accepted as a block encoding
        rotation = X * np.sqrt(1 + 1e-10)
        with pytest.raises(ValidationError, match=r"rotations\[0\] is not unitary: .* = 1.000e-10"):
            GqspSequence(rotations=[rotation])
        BlockEncoding(unitary=rotation, ancilla_qubits=1, system_dim=1)

    def test_decisions_match_an_eigvalsh_reference(self):
        # stacks of three rotations, one scaled by sqrt(1 + delta) per column with
        # |delta| from 1e-13 to 1e-11: both the Frobenius and the operator-norm
        # branch decide, and the stack passes iff every eigenvalue of R^dag R - I
        # is within ROTATION_TOL
        rng = rng_for(30)
        accepted, by_operator_norm = 0, 0
        for _ in range(200):
            stack = np.array([random_unitary(rng, 2) for _ in range(3)])
            deltas = rng.choice([-1, 1], size=2) * 10 ** rng.uniform(-13, -11, size=2)
            stack[rng.integers(3)] *= np.sqrt(1 + deltas)
            defects = stack.conj().transpose(0, 2, 1) @ stack - np.eye(2)
            reference = np.max(np.abs(np.linalg.eigvalsh(defects))) <= gqsp.ROTATION_TOL
            try:
                GqspSequence(rotations=stack)
            except ValidationError:
                assert not reference
            else:
                assert reference
                accepted += 1
                by_operator_norm += np.max(np.linalg.norm(defects, axis=(1, 2))) > gqsp.ROTATION_TOL
        assert 20 <= accepted <= 180 and by_operator_norm >= 1


class TestEvaluateScalar:
    def test_at_zero_returns_constant_coefficient(self):
        rng = rng_for(6)
        p = random_polynomial(rng, 5, sup=0.9)
        seq = synthesize(p)
        assert evaluate_scalar(seq, 0.0) == pytest.approx(p.coefficients[0], abs=1e-10)

    def test_outside_disk_rejected(self):
        seq = synthesize(PolynomialSpec([0.5]))
        with pytest.raises(ValidationError):
            evaluate_scalar(seq, 1.5)

    def test_nan_point_rejected(self):
        seq = synthesize(PolynomialSpec([0.5]))
        with pytest.raises(ValidationError, match="evaluation points must be finite"):
            evaluate_scalar(seq, np.nan)

    def test_grid_matches_coefficient_evaluation(self):
        p = random_polynomial(rng_for(7), 8, sup=0.9)
        seq = synthesize(p)
        pts = circle_grid(1024)
        assert np.max(np.abs(evaluate_scalar(seq, pts) - p(pts))) <= 1e-8


LEAF = gqsp.FORWARD_LEAF


@functools.cache
def synthesized(degree: int, sup: float) -> tuple[GqspSequence, PolynomialSpec]:
    """A random polynomial of the degree at the sup-norm, and its sequence."""
    p = random_polynomial(rng_for(degree), degree, sup=sup)
    return synthesize(p), p


def disk_points(rng, count: int) -> np.ndarray:
    """Random points of the closed unit disk, a quarter of them on the circle."""
    radii = np.sqrt(rng.uniform(0.0, 1.0, count))
    radii[: count // 4] = 1.0
    return radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))


def perturbed(seq: GqspSequence, layer: int, size: float) -> GqspSequence:
    """seq with one rotation moved by about size, then made unitary again by its polar factor."""
    rotations = np.array(seq.rotations)
    noise = random_complex(rng_for(layer), (2, 2))
    u, _, vh = np.linalg.svd(rotations[layer] + size * noise)
    rotations[layer] = u @ vh
    return GqspSequence(rotations=rotations, scale=seq.scale)


class TestRealizedPolynomial:
    @pytest.mark.parametrize("sup", [0.9, 1.0], ids=["inside", "margin"])
    @pytest.mark.parametrize("degree", [0, 1, 2, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 345, 2315])
    def test_matches_the_kernel_in_the_disk(self, degree, sup):
        # the coefficients the tree multiplies out, against the circuit run on points
        seq, _ = synthesized(degree, sup)
        self.assert_matches_kernel(seq)

    @pytest.mark.parametrize("c, eps", [(1.05, 1e-6), (1.01, 1e-8)], ids=["345", "2315"])
    def test_plans_match_the_kernel(self, c, eps):
        self.assert_matches_kernel(synthesize(shifted_inverse_plan(c, eps).coefficients))

    @staticmethod
    def assert_matches_kernel(seq):
        z = disk_points(rng_for(seq.degree + 7), 200)
        realized = gqsp._realized(seq.rotations)
        assert realized.shape == (seq.degree + 1,)
        kernel = gqsp._signal_block(seq, lambda v: z * v, np.ones(z.size))
        assert np.max(np.abs(np.polynomial.polynomial.polyval(z, realized) - kernel)) <= 1e-13

    @pytest.mark.parametrize("leaf", [1, 2, 3, 7])
    def test_tree_equals_the_scalar_loop(self, monkeypatch, leaf):
        # small leaves split every length into odd and even halves down to single layers
        monkeypatch.setattr(gqsp, "FORWARD_LEAF", leaf)
        rng = rng_for(32)
        cases = [np.array([random_unitary(rng, 2) for _ in range(k)]) for k in range(1, 25)]
        cases.append(np.array(synthesized(40, 0.9)[0].rotations))
        for rotations in cases:
            for columns in (1, 2):
                loop = gqsp._leaf(rotations, columns)
                assert np.max(np.abs(gqsp._forward(rotations, columns) - loop)) <= 1e-14
            assert np.array_equal(gqsp._realized(rotations), gqsp._forward(rotations, 1)[0, 0])

    @pytest.mark.parametrize("grid", [64, 100])
    @pytest.mark.parametrize("offset", [0.0, 1e-3], ids=["realized", "off-by-1e-3"])
    def test_grid_below_the_degree_folds(self, grid, offset):
        # 346 coefficients on 64 or 100 points: the residual of the folded
        # coefficients equals the residual of the circuit run on the points
        seq = synthesize(shifted_inverse_plan(1.05, 1e-6).coefficients)
        p = PolynomialSpec(shifted_inverse_plan(1.05, 1e-6).coefficients.array + offset)
        pts = circle_grid(grid)
        kernel = gqsp._signal_block(seq, lambda v: pts * v, np.ones(grid))
        want = np.max(np.abs(kernel - seq.scale * p(pts)))
        assert abs(gqsp._grid_residual(seq, p, grid) - want) <= 1e-13

    @pytest.mark.parametrize("degree", [16, 2315])
    def test_one_perturbed_rotation_shows(self, degree):
        seq, p = synthesized(degree, 0.9)
        assert gqsp._grid_residual(seq, p, 4096) <= 1e-13
        assert gqsp._grid_residual(perturbed(seq, degree // 2, 1e-6), p, 4096) > 1e-7


class TestApplyToOperator:
    def test_identity_polynomial_gives_u(self):
        u = random_unitary(rng_for(8), 3)
        seq = synthesize(PolynomialSpec([0.0, 1.0]))
        circuit = apply_to_operator(seq, u)
        assert opnorm(circuit[:3, :3] - u) <= 1e-10

    def test_constant_polynomial(self):
        c = 0.3 + 0.4j
        u = random_unitary(rng_for(9), 3)
        circuit = apply_to_operator(synthesize(PolynomialSpec([c])), u)
        assert opnorm(circuit[:3, :3] - c * np.eye(3)) <= 1e-10

    def test_matches_horner_on_random_unitary(self):
        rng = rng_for(10)
        p = random_polynomial(rng, 6, sup=0.9)
        u = random_unitary(rng, 4)
        circuit = apply_to_operator(synthesize(p), u)
        assert opnorm(circuit[:4, :4] - horner_eval(p, u)) <= 1e-9

    def test_block_matches_dense_circuit(self):
        rng = rng_for(11)
        for degree in (0, 1, 4):
            seq = synthesize(random_polynomial(rng, degree, sup=0.9))
            u = random_unitary(rng, 3)
            reference = dense_circuit(seq, u)
            assert opnorm(reference.conj().T @ reference - np.eye(6)) <= 1e-10
            block = apply_to_operator(seq, u)
            assert block.shape == (3, 3)
            assert opnorm(block - reference[:3, :3]) <= 1e-13

    def test_diagonal_unitary_maps_eigenvalues(self):
        rng = rng_for(12)
        p = random_polynomial(rng, 6, sup=0.9)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        circuit = apply_to_operator(synthesize(p), np.diag(phases))
        assert opnorm(circuit[:4, :4] - np.diag(p(phases))) <= 1e-9

    def test_rejects_non_unitary(self):
        seq = synthesize(PolynomialSpec([0.5]))
        with pytest.raises(ValidationError, match="unitary"):
            apply_to_operator(seq, np.eye(2) * 0.5)

    def test_rejects_finite_signal_whose_gram_overflows(self):
        seq = synthesize(PolynomialSpec([0.5]))
        with pytest.raises(ValidationError) as info:
            apply_to_operator(seq, np.eye(2) * 1e200)
        message = "signal operator is not unitary: ||U^dag U - I|| = inf > 1e-09"
        assert str(info.value) == message
        assert info.value.module == "gqsp"


class TestCircleInvariants:
    def test_parseval_bound(self):
        # sum |a_k|^2 is the mean of |P|^2 on the circle, hence at most sup^2
        rng = rng_for(14)
        for _ in range(20):
            p = random_polynomial(rng, int(rng.integers(1, 13)), sup=1.0)
            assert float(np.sum(np.abs(p.array) ** 2)) <= 1.0 + 1e-8

    def test_maximum_modulus(self):
        rng = rng_for(15)
        for _ in range(5):
            p = random_polynomial(rng, 8, sup=0.9)
            radii = np.sqrt(rng.uniform(0, 1, size=1000))
            angles = rng.uniform(0, 2 * np.pi, size=1000)
            inside = np.max(np.abs(p(radii * np.exp(1j * angles))))
            assert inside <= sup_norm_on_circle(p) + 1e-8
