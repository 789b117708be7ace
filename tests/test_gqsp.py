import numpy as np
import pytest

from qevt import gqsp
from qevt.analytic import shifted_inverse_plan
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
    opnorm,
    random_complex,
    random_polynomial,
    random_unitary,
    rng_for,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
AVERAGING = PolynomialSpec([0.5, 0.0, 0.5])  # (1 + z^2)/2, sup-norm exactly 1


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

    def test_grid_too_coarse_rejected(self):
        with pytest.raises(ValidationError):
            sup_norm_on_circle(PolynomialSpec(np.ones(10)), grid=16)


class TestComplete:
    def test_half_z(self):
        q = complete(PolynomialSpec([0.0, 0.5]))
        assert q.degree == 0
        assert abs(q.coefficients[0]) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_monomial_completes_to_zero(self):
        q = complete(PolynomialSpec([0.0, 0.0, 1.0]))
        assert q.coefficients == (0j,)

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

    def test_outer_and_root_paths_agree(self, monkeypatch):
        # inside the margin the FFT outer function applies; a zero grid cap
        # sends the same polynomials through the companion roots
        rng = rng_for(16)
        polys = [random_polynomial(rng, degree, sup=0.9) for degree in (3, 17, 40)]
        outer = [complete(p) for p in polys]
        monkeypatch.setattr(gqsp, "OUTER_GRID_CAP", 0)
        for p, q in zip(polys, outer):
            assert np.max(np.abs(complete(p).array - q.array)) <= 1e-11

    def test_real_lift_matches_complex_lift(self, monkeypatch):
        # |P| fixes Q, so a unimodular factor on P must not change it; the
        # real polynomial's lift is real and takes the real eigenproblem
        lifts = []
        original = np.polynomial.polynomial.polyroots

        def recording(coefficients):
            lifts.append(coefficients.dtype)
            return original(coefficients)

        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", recording)
        margin = 1.0 - gqsp.SUP_MARGIN
        coeffs = rng_for(17).normal(size=25)
        p = PolynomialSpec(coeffs * (margin / sup_norm_on_circle(PolynomialSpec(coeffs))))
        q_real = complete(p)
        q_complex = complete(p.scaled(np.exp(0.7j)))
        assert lifts == [np.dtype(np.float64), np.dtype(np.complex128)]
        assert np.max(np.abs(q_real.array - q_complex.array)) <= 1e-11

    def test_outer_tail_check(self):
        # a grid far too coarse for a margin polynomial aliases the log's
        # Fourier series into the coefficients beyond the degree
        p = random_polynomial(rng_for(18), 8, sup=1.0 - gqsp.SUP_MARGIN)
        with pytest.raises(NumericalError, match="beyond degree 8") as info:
            gqsp._outer_completion(p, 8, 64)
        assert info.value.module == "gqsp"

    def test_rejects_boundary_polynomial(self):
        with pytest.raises(NormBoundError, match="rescale"):
            complete(AVERAGING)


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

    def test_root_finding_failure_is_numerical_error(self, monkeypatch):
        def failing(coefficients):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", failing)
        with pytest.raises(NumericalError, match="root finding failed") as info:
            synthesize(AVERAGING)
        assert info.value.module == "gqsp"

    def test_draws_that_failed_the_residual_check(self):
        # inputs on which Q rebuilt by polyfromroots misses the 1e-8 residual
        # check: random draws at sup 0.9 (the outer path) and 1/(1.05 - z) at
        # eps 1e-6 (degree 345, rescaled to the margin: the root path)
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

    def test_non_unitary_rotation_named(self):
        rotations = (X, X, 1.01 * X, X)
        with pytest.raises(ValidationError, match="rotation 2 is not unitary"):
            GqspSequence(rotations=rotations)

    def test_rotations_are_unitary(self):
        p = random_polynomial(rng_for(5), 6, sup=0.8)
        for rot in synthesize(p).rotations:
            assert opnorm(rot.conj().T @ rot - np.eye(2)) <= 1e-10


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

    def test_grid_matches_coefficient_evaluation(self):
        p = random_polynomial(rng_for(7), 8, sup=0.9)
        seq = synthesize(p)
        pts = circle_grid(1024)
        assert np.max(np.abs(evaluate_scalar(seq, pts) - p(pts))) <= 1e-8


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
