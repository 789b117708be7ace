import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevt import cli
from qevt.analytic import JordanForm, assemble_from_jordan, shifted_inverse_plan
from qevt.encoding import BlockEncoding, dilate, top_left_block
from qevt.errors import NormBoundError, ValidationError
from qevt.evt import (
    assemble_circuit,
    counter_order_for_degree,
    perturbation_bound,
    transform,
)
from qevt.gqsp import _grid_residual, synthesize
from qevt.linalg import PolynomialSpec, horner_eval, operator_norm
from qevt.regularize import RegularizedEncoding, regularize

from helpers import (
    dense_circuit,
    full_sector_block,
    opnorm,
    random_complex,
    random_contraction,
    random_polynomial,
    random_unitary,
    rng_for,
)

AVERAGING = PolynomialSpec([0.5, 0.0, 0.5])


def jordan_matrix(rng, dim: int) -> np.ndarray:
    """S J S^-1 with random Jordan blocks filling dim and a well-conditioned S."""
    blocks, left = [], dim
    while left:
        size = int(rng.integers(1, left + 1))
        blocks.append((complex(0.5 * random_complex(rng, ())), size))
        left -= size
    g = random_complex(rng, (dim, dim))
    similarity = np.eye(dim) + 0.2 * g / opnorm(g)
    return assemble_from_jordan(JordanForm(similarity=similarity, blocks=tuple(blocks)))


def test_counter_order_for_degree():
    assert counter_order_for_degree(0) == 1
    assert counter_order_for_degree(1) == 1
    assert counter_order_for_degree(2) == 2
    assert counter_order_for_degree(3) == 4
    assert counter_order_for_degree(8) == 8
    assert counter_order_for_degree(9) == 16


class TestAssembleCircuit:
    def test_degree_zero_is_single_rotation(self):
        a = random_contraction(rng_for(0), 3, 0.5)
        reg = regularize(dilate(a), 1)
        seq = synthesize(PolynomialSpec([0.25 + 0.1j]))
        block = assemble_circuit(seq, reg)
        assert block.shape == (3, 3)
        assert opnorm(block - (0.25 + 0.1j) * np.eye(3)) <= 1e-10

    def test_identity_polynomial_on_unitary(self):
        u = random_unitary(rng_for(1), 3)
        be = BlockEncoding(unitary=u, ancilla_qubits=0, system_dim=3)
        block = assemble_circuit(synthesize(PolynomialSpec([0.0, 1.0])), regularize(be, 1))
        assert opnorm(block - u) <= 1e-10

    def test_worked_two_regular_average(self):
        a = random_contraction(rng_for(2), 3, 0.8)
        reg = regularize(dilate(a), 2)
        seq = synthesize(AVERAGING)
        expected = (np.eye(3) + a @ a) / 2
        assert opnorm(assemble_circuit(seq, reg) / seq.scale - expected) <= 1e-10

    def test_degree_above_order_rejected(self):
        a = random_contraction(rng_for(3), 2, 0.5)
        reg = regularize(dilate(a), 2)
        seq = synthesize(random_polynomial(rng_for(4), 4, sup=0.8))
        with pytest.raises(ValidationError, match="order"):
            assemble_circuit(seq, reg)

    def test_block_matches_dense_circuit(self):
        rng = rng_for(5)
        for degree, order in ((0, 1), (1, 1), (1, 2), (4, 4), (4, 8)):
            a = random_contraction(rng, 3, 0.8)
            reg = regularize(dilate(a), order)
            seq = synthesize(random_polynomial(rng, degree, sup=0.9))
            reference = dense_circuit(seq, reg.base.unitary)
            assert opnorm(reference.conj().T @ reference - np.eye(reference.shape[0])) <= 1e-9
            block = assemble_circuit(seq, reg)
            assert block.shape == (3, 3)
            assert opnorm(block - reference[:3, :3]) <= 1e-13

    def test_dense_encoding_is_never_built(self, monkeypatch):
        # nor is the wrapped unitary applied: the other counter sectors are not
        # carried, so a counter of order 2^20 costs nothing
        def refuse(self, x):
            raise AssertionError("the wrapped unitary was applied")

        monkeypatch.setattr(RegularizedEncoding, "apply", refuse)
        rng = rng_for(6)
        a = random_contraction(rng, 3, 0.8)
        p = random_polynomial(rng, 4, sup=0.9)
        seq = synthesize(p)
        for order in (4, 2**20):
            reg = regularize(dilate(a), order)
            block = assemble_circuit(seq, reg)
            assert "base" not in vars(reg)
            assert opnorm(block / seq.scale - horner_eval(p, a)) <= 1e-12

    def test_counter_zero_sector_matches_full_sector_kernel(self):
        rng = rng_for(17)
        sources = [
            dilate(random_contraction(rng, d, norm)) for d in (1, 3, 8) for norm in (0.3, 0.9, 1.0)
        ]
        for blocks in (((0.5, 2), (-0.3j, 1)), ((0.6j, 3), (0.2, 3), (-0.7, 2))):
            d = sum(size for _, size in blocks)
            g = random_complex(rng, (d, d))
            jf = JordanForm(similarity=np.eye(d) + 0.2 * g / opnorm(g), blocks=blocks)
            a = assemble_from_jordan(jf)
            sources.append(dilate(a / opnorm(a)))
        for ancillas in (1, 2, 3):
            # the dilation extended block-diagonally to 2^a * d rows, then mixed by a
            # Haar unitary on every row with some ancilla nonzero: the block stays A
            d = 3
            u = np.eye(2**ancillas * d, dtype=np.complex128)
            u[: 2 * d, : 2 * d] = dilate(random_contraction(rng, d, 0.9)).unitary
            u[d:, :] = random_unitary(rng, u.shape[0] - d) @ u[d:, :]
            sources.append(BlockEncoding(unitary=u, ancilla_qubits=ancillas, system_dim=d))
        for degree in range(17):
            seq = synthesize(random_polynomial(rng, degree, sup=0.9))
            least = counter_order_for_degree(degree)
            for source in sources:
                tol = 1e-14 * max(1.0, opnorm(top_left_block(source)))
                for order in (least, 2 * least):
                    reg = regularize(source, order)
                    assert opnorm(assemble_circuit(seq, reg) - full_sector_block(seq, reg)) <= tol


class TestTransform:
    def test_identity_fixed_point(self):
        p = PolynomialSpec([0.1, 0.2 + 0.1j, 0.3])
        report = transform(np.eye(4), p)
        value = complex(p(1.0))
        assert opnorm(report.result_block - value * np.eye(4)) <= 1e-10

    def test_averaging_polynomial_on_random_contraction(self):
        a = random_contraction(rng_for(7), 4, 0.9)
        report = transform(a, AVERAGING)
        assert report.achieved_error <= 1e-9
        assert report.controlled_calls == 2
        assert report.total_ancillas == 3  # processing + 1 counter + 1 dilation

    def test_jordan_cube(self):
        j = np.diag([0.5, 0.5, 0.5]).astype(complex) + np.diag([1.0, 1.0], 1)
        report = transform(j, PolynomialSpec([0.0, 0.0, 0.0, 1.0]))
        expected = np.linalg.matrix_power(j, 3)
        assert opnorm(report.result_block - expected) <= 1e-9
        assert report.result_block[0, 0] == pytest.approx(0.125, abs=1e-9)
        assert report.result_block[0, 1] == pytest.approx(0.75, abs=1e-9)
        assert report.result_block[0, 2] == pytest.approx(1.5, abs=1e-9)

    def test_random_sweep_matches_horner(self):
        rng = rng_for(8)
        for _ in range(5):
            dim = int(rng.integers(2, 9))
            deg = int(rng.integers(1, 9))
            a = random_contraction(rng, dim, float(rng.uniform(0.3, 0.95)))
            p = random_polynomial(rng, deg, sup=0.9)
            report = transform(a, p)
            assert report.achieved_error <= 1e-8
            assert opnorm(report.oracle_block - horner_eval(p, a)) == 0.0

    def test_call_and_ancilla_accounting(self):
        rng = rng_for(9)
        for deg in (2, 3, 5, 8):
            a = random_contraction(rng, 3, 0.8)
            p = random_polynomial(rng, deg, sup=0.9)
            report = transform(a, p)
            assert report.controlled_calls == deg
            assert report.total_ancillas == 1 + int(np.ceil(np.log2(deg))) + 1
            assert report.circuit_dim == 2 * counter_order_for_degree(deg) * 2 * 3

    def test_circuit_dim_4096_matches_horner(self):
        rng = rng_for(15)
        a = random_contraction(rng, 32, 0.9)
        p = random_polynomial(rng, 32, sup=0.9)
        report = transform(a, p)
        assert report.circuit_dim == 4096
        assert report.total_ancillas == 7  # processing + 5 counter + 1 dilation
        assert report.controlled_calls == 32
        assert opnorm(report.result_block - horner_eval(p, a)) <= 1e-9

    def test_report_error_is_recomputable(self):
        a = random_contraction(rng_for(10), 3, 0.7)
        report = transform(a, AVERAGING)
        recomputed = opnorm(report.result_block - report.oracle_block)
        assert abs(recomputed - report.achieved_error) <= 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            transform(np.ones((2, 3)), AVERAGING)

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            transform([[10**400]], [1])

    def test_norm_above_one_is_absorbed_exactly(self):
        # coefficients soak up the matrix rescaling: the result is P(A) itself
        rng = rng_for(11)
        a = random_contraction(rng, 3, 1.7)
        p = random_polynomial(rng, 4, sup=0.9)
        report = transform(a, p)
        assert opnorm(report.result_block - horner_eval(p, a)) <= 1e-8

    @pytest.mark.parametrize(
        "seed, factor",
        [(3, 1 + 1e-12), (0, 1 + 1e-12 + 2**-52), (1, 1 + 1e-12 - 2**-52)],
        ids=["seed3", "seed0-up", "seed1-down"],
    )
    def test_norm_at_the_dilation_slack_is_rescaled(self, seed, factor):
        # ||A|| = 1 + 1e-12 to an ulp, at dilate's slack: transform rescales
        # past norm 1 and builds no dilation, so either side is accurate
        rng = rng_for(seed)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        report = transform(g / np.linalg.norm(g, 2) * factor, [0.5, 0.25])
        assert report.achieved_error <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 6),
        base=st.sampled_from([1.0, 1.0 + 1e-12]),
        ulps=st.integers(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_near_one_never_raises(self, dim, base, ulps, seed):
        g = random_complex(rng_for(seed), (dim, dim))
        a = g / np.linalg.norm(g, 2) * (base + ulps * 2.0**-52)
        report = transform(a, [0.5, 0.25])
        assert report.achieved_error <= 1e-12

    def test_norm_whose_square_overflows(self):
        # ||A|| = 1e160: A^dag A overflows, the SVD does not. Degree 1 scales
        # the top coefficient by 1e160; degree 2 would need 1e320
        a = np.eye(2) * 1e160
        report = transform(a, [0.5, 0.5])
        assert report.achieved_error <= 1e-15 * opnorm(report.oracle_block)
        with pytest.raises(NormBoundError) as info:
            transform(a, [0.5, 0.5, 0.5])
        assert str(info.value) == "P(alpha z) overflows for ||A|| = 1e+160 at degree 2"
        assert info.value.module == "evt"

    def test_builds_no_encoding(self, monkeypatch, tmp_path):
        # the rotations run on A itself: no dilation and no counter wrapper is
        # built, through the library or through the command line
        def refuse(*args, **kwargs):
            raise AssertionError("an encoding was built")

        for module in ("qevt.encoding", "qevt.regularize"):  # their bindings of linalg._built
            monkeypatch.setattr(sys.modules[module], "_built", refuse)
        monkeypatch.setattr(BlockEncoding, "__post_init__", refuse)
        monkeypatch.setattr(RegularizedEncoding, "__post_init__", refuse)
        rng = rng_for(16)
        p = random_polynomial(rng, 5, sup=0.9)
        poly = tmp_path / "p.json"
        poly.write_text(json.dumps({"coefficients": [[c.real, c.imag] for c in p.coefficients]}))
        for norm in (0.9, 1.7):
            a = random_contraction(rng, 3, norm)
            report = transform(a, p)
            assert report.achieved_error <= 1e-12 * max(1.0, opnorm(report.oracle_block))
            matrix = tmp_path / "a.json"
            data = [[v.real, v.imag] for v in a.ravel().tolist()]
            matrix.write_text(json.dumps({"rows": 3, "cols": 3, "data": data}))
            report_file = str(tmp_path / "report.json")
            args = ["transform", str(matrix), "--coeffs", str(poly), "--report", report_file]
            assert cli.main(args) == 0
        assert cli.main(["demo", "jordan", "--report", str(tmp_path / "demo.json")]) == 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["random", "jordan", "zero"]),
        dim=st.integers(1, 6),
        norm=st.sampled_from(
            [1.0 + k * 2.0**-52 for k in range(-4, 5)] + [1.0 + 1e-12, 0.5, 1.7, 1e3]
        ),
        layout=st.sampled_from(["C", "F", "transposed"]),
        degree=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_explicit_pipeline(self, kind, dim, norm, layout, degree, seed):
        # the block QSP gives on A is the block of the circuit on the dilation
        # regularized at the counter order, which transform does not build
        rng = rng_for(seed)
        if kind == "zero":
            a = np.zeros((dim, dim), dtype=np.complex128)
        else:
            a = random_complex(rng, (dim, dim)) if kind == "random" else jordan_matrix(rng, dim)
            a *= norm / opnorm(a)
        a = {
            "C": np.ascontiguousarray,
            "F": np.asfortranarray,
            "transposed": lambda m: np.ascontiguousarray(m.T).T,
        }[layout](a)
        p = random_polynomial(rng, degree, sup=0.9)
        report = transform(a, p)

        alpha = operator_norm(a)
        a_enc, p_enc = a, p
        if alpha > 1.0:
            a_enc = a / alpha
            p_enc = PolynomialSpec([c * alpha**k for k, c in enumerate(p.coefficients)])
        order = counter_order_for_degree(p_enc.degree)
        source = dilate(a_enc)
        reg = regularize(source, order)
        seq = synthesize(p_enc)
        block = assemble_circuit(seq, reg)
        result = block / seq.scale
        assert np.array_equal(report.result_block, result)
        assert report.achieved_error == operator_norm(result - horner_eval(p, a))
        assert report.predicted_bound == _grid_residual(seq, p_enc, 1024) / seq.scale
        assert report.total_ancillas == 1 + reg.counter_qubits + reg.source_ancillas
        assert report.circuit_dim == 2 * order * source.dim
        assert report.controlled_calls == seq.degree
        assert report.encoding_scale == seq.scale
        full = full_sector_block(seq, reg)
        assert opnorm(block - full) <= 1e-14 * max(1.0, opnorm(full))

    @pytest.mark.parametrize(
        "p, degree",
        [
            # 1.5^2315 is beyond the float range
            (shifted_inverse_plan(1.01, 1e-8).coefficients, 2315),
            # 1.5^1700 ~ 1e299 is finite, times the coefficient 1e10 it is not
            (PolynomialSpec([0.0] * 1700 + [1e10]), 1700),
        ],
        ids=["power", "product"],
    )
    def test_rescaling_overflow_is_a_norm_error(self, p, degree):
        a = 1.5 * random_unitary(rng_for(12), 3)
        with pytest.raises(NormBoundError) as info:
            transform(a, p)
        assert str(info.value) == f"P(alpha z) overflows for ||A|| = 1.5 at degree {degree}"
        assert info.value.module == "evt"
        assert info.value.norm == pytest.approx(1.5, rel=1e-12)


class TestPerturbationBound:
    def test_degree_zero(self):
        assert perturbation_bound(0, 0.5) == 0.0

    def test_degree_one(self):
        assert perturbation_bound(1, 1e-3) == pytest.approx(1e-3)

    def test_degree_three(self):
        assert perturbation_bound(3, 1e-4) == pytest.approx(np.sqrt(14) * 1e-4)

    @pytest.mark.parametrize(
        "degree, eps, message",
        [(-1, 1e-4, "degree must be nonnegative"), (3, -1e-4, "eps must be nonnegative")],
        ids=["degree", "eps"],
    )
    def test_rejects_negative_arguments(self, degree, eps, message):
        with pytest.raises(ValidationError, match=message):
            perturbation_bound(degree, eps)

    def test_rejects_nan_eps(self):
        with pytest.raises(ValidationError, match="eps must be nonnegative"):
            perturbation_bound(3, np.nan)
