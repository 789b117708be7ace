import importlib

import numpy as np
import pytest

from qevt.encoding import BlockEncoding, dilate, top_left_block
from qevt.errors import ValidationError
from qevt.evt import transform
from qevt.linalg import PolynomialSpec, horner_eval
from qevt.regularize import regularize

from helpers import (
    opnorm,
    random_complex,
    random_contraction,
    random_unitary,
    rng_for,
    wrapped_unitary,
)

# the module, which the package's `regularize` function shadows as an attribute
regularize_module = importlib.import_module("qevt.regularize")

# a fixed generic 2x2 contraction for the worked 2-regular example
FIXTURE_A = np.array(
    [[0.32 + 0.11j, -0.27 + 0.05j], [0.06 - 0.21j, -0.18 + 0.33j]], dtype=complex
)


class TestBase:
    """The dense wrapped unitary built from ``apply``, against the two-gate reference."""

    def test_matches_two_gate_reference(self):
        rng = rng_for(7)
        for n in (1, 2, 4, 8):
            for a in (0, 1, 2):
                for d in (1, 3):
                    u = random_unitary(rng, 2**a * d)
                    reg = regularize(BlockEncoding(unitary=u, ancilla_qubits=a, system_dim=d), n)
                    assert np.array_equal(reg.base.unitary, wrapped_unitary(u, n, a, d))

    def test_success_branch_untouched(self):
        # rows with O all-zero keep the counter value of their column
        n, a, d = 4, 2, 2
        dim = 2**a * d
        u = random_unitary(rng_for(9), dim)
        reg = regularize(BlockEncoding(unitary=u, ancilla_qubits=a, system_dim=d), n)
        w = np.asarray(reg.base.unitary).reshape(n, dim, n, dim)
        for i in range(n):
            for j in range(n):
                expected = u[:d] if i == j else np.zeros((d, dim))
                assert np.array_equal(w[j, :d, i], expected)

    def test_failed_branch_moves_one_counter_value_up(self):
        # rows with O not all-zero land one counter value higher, cyclically
        n, a, d = 4, 1, 3
        dim = 2**a * d
        u = random_unitary(rng_for(10), dim)
        reg = regularize(BlockEncoding(unitary=u, ancilla_qubits=a, system_dim=d), n)
        w = np.asarray(reg.base.unitary).reshape(n, dim, n, dim)
        for i in range(n):
            for j in range(n):
                expected = u[d:] if j == (i + 1) % n else np.zeros((dim - d, dim))
                assert np.array_equal(w[j, d:, i], expected)


class TestDenseCap:
    def test_order_2_to_the_40_is_refused_before_allocating(self):
        # np.eye of dimension 2^41 raised a bare ValueError ("array is too big")
        reg = regularize(dilate(0.5 * np.eye(1)), 2**40)
        with pytest.raises(ValidationError) as info:
            reg.base
        message = "dense unitary dimension 1099511627776 * 2 = 2199023255552 exceeds the cap 16384"
        assert str(info.value) == message
        assert info.value.module == "regularize"

    def test_lowered_cap(self, monkeypatch):
        monkeypatch.setattr(regularize_module, "MAX_DENSE_DIM", 8)
        be = dilate(0.5 * np.eye(2))
        assert regularize(be, 2).base.dim == 8  # at the cap
        with pytest.raises(ValidationError, match="dense unitary dimension 4 \\* 4 = 16 exceeds"):
            regularize(be, 4).base
        assert regularize(be, 1).base is be  # order 1 builds nothing

    def test_transform_builds_no_dense_unitary(self, monkeypatch):
        monkeypatch.setattr(regularize_module, "MAX_DENSE_DIM", 1)
        a = random_contraction(rng_for(13), 3, 0.8)
        p = PolynomialSpec([0.1, 0.2, 0.3, 0.1, 0.2])
        assert transform(a, p).achieved_error <= 1e-12


class TestRegularize:
    def test_order_one_returns_input_unchanged(self):
        be = dilate(random_contraction(rng_for(0), 3, 0.8))
        reg = regularize(be, 1)
        assert reg.base is be
        assert reg.counter_qubits == 0
        assert reg.order == 1

    def test_two_regular_block_pattern(self):
        # U_reg must equal the 4-block pattern (A B 0 0 / 0 0 C D / 0 0 A B / C D 0 0)
        be = dilate(FIXTURE_A)
        u_a = np.asarray(be.unitary)
        a, b = u_a[:2, :2], u_a[:2, 2:]
        c, d = u_a[2:, :2], u_a[2:, 2:]
        zero = np.zeros((2, 2))
        expected = np.block(
            [[a, b, zero, zero], [zero, zero, c, d], [zero, zero, a, b], [c, d, zero, zero]]
        )
        reg = regularize(be, 2)
        assert opnorm(np.asarray(reg.base.unitary) - expected) <= 1e-12

    def test_regularity_up_to_order(self):
        rng = rng_for(1)
        a = random_contraction(rng, 4, 0.85)
        reg = regularize(dilate(a), 4)
        u = np.asarray(reg.base.unitary)
        for k in range(5):
            block = np.linalg.matrix_power(u, k)[:4, :4]
            assert opnorm(block - np.linalg.matrix_power(a, k)) <= 1e-10

    def test_order_plus_one_power_fails_generically(self):
        a = random_contraction(rng_for(2), 4, 0.85)
        reg = regularize(dilate(a), 4)
        u = np.asarray(reg.base.unitary)
        block = np.linalg.matrix_power(u, 5)[:4, :4]
        assert opnorm(block - np.linalg.matrix_power(a, 5)) > 1e-6

    def test_unitarity_preserved(self):
        a = random_contraction(rng_for(3), 3, 0.9)
        reg = regularize(dilate(a), 8)
        u = np.asarray(reg.base.unitary)
        assert opnorm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-10

    def test_ancilla_accounting(self):
        a = random_contraction(rng_for(4), 2, 0.5)
        reg = regularize(dilate(a), 8)
        assert reg.counter_qubits == 3
        assert reg.source_ancillas == 1
        assert reg.base.ancilla_qubits == 4
        assert reg.base.dim == 8 * 2 * 2

    def test_top_left_block_untouched(self):
        # the success branch at k = 1 is exactly the input's encoded block
        rng = rng_for(5)
        a = random_contraction(rng, 3, 0.8)
        e = random_complex(rng, (3, 3))
        e *= 1e-4 / opnorm(e)
        be = dilate(a + e)  # treat as a (1, 1e-4)-encoding of a
        reg = regularize(be, 4)
        assert np.array_equal(top_left_block(reg.base), top_left_block(be))

    def test_rejects_non_power_of_two(self):
        be = dilate(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            regularize(be, 3)

    @pytest.mark.parametrize(
        "order, message",
        [
            (2.0, "order must be positive and an integer, got 2.0"),
            ("4", "order must be positive and an integer, got '4'"),
        ],
        ids=["float", "string"],
    )
    def test_rejects_non_integer_order(self, order, message):
        be = dilate(np.zeros((2, 2)))
        with pytest.raises(ValidationError) as info:
            regularize(be, order)
        assert str(info.value) == message
        assert info.value.module == "regularize"

    def test_numpy_integer_order(self):
        reg = regularize(dilate(np.zeros((2, 2))), np.int64(4))
        assert reg.counter_qubits == 2
        assert reg.base.ancilla_qubits == 3


class TestApply:
    def test_matches_dense_unitary(self):
        rng = rng_for(6)
        for n in (1, 2, 4, 8):
            for a in (0, 1, 2):
                for d in (1, 3):
                    dim = 2**a * d
                    be = BlockEncoding(
                        unitary=random_unitary(rng, dim), ancilla_qubits=a, system_dim=d
                    )
                    reg = regularize(be, n)
                    x = random_complex(rng, (n, dim, 2))
                    dense = wrapped_unitary(be.unitary, n, a, d) @ x.reshape(n * dim, 2)
                    assert opnorm(reg.apply(x).reshape(n * dim, 2) - dense) <= 1e-13


class TestTwoRegularWorkedExample:
    def test_polynomial_of_wrapped_unitary_encodes_average(self):
        # (I + U^2)/2 block-encodes (I + A^2)/2
        reg = regularize(dilate(FIXTURE_A), 2)
        u = np.asarray(reg.base.unitary)
        poly_u = horner_eval([0.5, 0.0, 0.5], u)
        expected = (np.eye(2) + FIXTURE_A @ FIXTURE_A) / 2
        assert opnorm(poly_u[:2, :2] - expected) <= 1e-11

    def test_cube_is_not_encoded(self):
        reg = regularize(dilate(FIXTURE_A), 2)
        u = np.asarray(reg.base.unitary)
        cube = np.linalg.matrix_power(u, 3)[:2, :2]
        assert opnorm(cube - np.linalg.matrix_power(FIXTURE_A, 3)) > 1e-6
