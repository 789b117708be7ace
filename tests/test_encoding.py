import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qevt import cli, encoding, gqsp, linalg
from qevt.analytic import (
    JordanForm,
    assemble_from_jordan,
    exp_plan,
    jordan_block,
    shifted_inverse_plan,
)
from qevt.encoding import (
    UNITARITY_TOL,
    BlockEncoding,
    dilate,
    regularity_order,
    regularity_profile,
    top_left_block,
)
from qevt.errors import NormBoundError, ValidationError
from qevt.evt import transform
from qevt.linalg import as_unitary, operator_norm
from qevt.regularize import regularize

from helpers import (
    opnorm,
    random_complex,
    random_contraction,
    random_polynomial,
    random_unitary,
    rng_for,
)


class TestBlockEncoding:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="unitary"):
            BlockEncoding(unitary=np.eye(4) * 1.5, ancilla_qubits=1, system_dim=2)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError, match="dimension"):
            BlockEncoding(unitary=np.eye(4), ancilla_qubits=1, system_dim=3)

    @pytest.mark.parametrize(
        "ancillas, system_dim, message",
        [
            (-1, 4, "ancilla count must be nonnegative"),
            (0, 0, "system dimension must be positive"),
        ],
        ids=["ancillas", "system-dim"],
    )
    def test_rejects_invalid_counts(self, ancillas, system_dim, message):
        with pytest.raises(ValidationError, match=message):
            BlockEncoding(unitary=np.eye(4), ancilla_qubits=ancillas, system_dim=system_dim)

    def test_small_defect_on_many_entries_is_accepted(self):
        # ||E||_F = 0.9e-9 * sqrt(64) is above the tolerance, ||E|| = 0.9e-9 is not:
        # the exact operator norm decides
        u = random_unitary(rng_for(5), 64) * np.sqrt(1 + 0.9e-9)
        defect = u.conj().T @ u - np.eye(64)
        assert np.linalg.norm(defect) > UNITARITY_TOL >= opnorm(defect)
        BlockEncoding(unitary=u, ancilla_qubits=6, system_dim=1)

    def test_exact_unitary_skips_the_eigensolve(self, monkeypatch):
        def fail(_):
            raise AssertionError("operator norm computed")

        monkeypatch.setattr(linalg, "operator_norm", fail)
        BlockEncoding(unitary=random_unitary(rng_for(6), 16), ancilla_qubits=2, system_dim=4)

    def test_defect_above_tolerance_reports_operator_norm(self):
        # one singular value off by 1.1e-9, fifteen more by 0.5e-9: the message
        # carries ||E|| = 1.1e-9, not ||E||_F ~ 2.2e-9
        s = np.sqrt(1 + np.array([1.1e-9] + [0.5e-9] * 15 + [0.0] * 16))
        u = random_unitary(rng_for(7), 32) * s
        defect = u.conj().T @ u - np.eye(32)
        assert np.linalg.norm(defect) > 2 * opnorm(defect)
        with pytest.raises(ValidationError) as exc:
            BlockEncoding(unitary=u, ancilla_qubits=5, system_dim=1)
        message = f"block encoding is not unitary: ||U^dag U - I|| = {opnorm(defect):.3e} > 1e-09"
        assert str(exc.value) == message
        assert f"{opnorm(defect):.3e}" == "1.100e-09"

    def test_overflowing_gram_product_is_rejected(self):
        # finite entries whose U^dag U overflows, to inf - inf = NaN or to inf:
        # a NaN Frobenius norm must not pass for a small one, and the defect is
        # reported as inf, not as a non-finite input
        for u in np.array([[1e200, 1e200], [1e200, -1e200]]), np.eye(2) * 1e160:
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(np.linalg.norm(u.conj().T @ u - np.eye(2)))
            with pytest.raises(ValidationError) as info:
                BlockEncoding(unitary=u, ancilla_qubits=1, system_dim=1)
            message = "block encoding is not unitary: ||U^dag U - I|| = inf > 1e-09"
            assert str(info.value) == message
            assert info.value.module == "encoding"

    def test_unitary_is_frozen(self):
        be = BlockEncoding(unitary=np.eye(4), ancilla_qubits=1, system_dim=2)
        with pytest.raises(ValueError):
            be.unitary[0, 0] = 2.0


class TestTopLeftBlock:
    def test_zero_ancillas_returns_whole_unitary(self):
        u = random_unitary(rng_for(0), 4)
        be = BlockEncoding(unitary=u, ancilla_qubits=0, system_dim=4)
        assert np.allclose(top_left_block(be), u)

    def test_swap_structure_gives_zero_block(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        u = np.kron(x, np.eye(3))
        be = BlockEncoding(unitary=u, ancilla_qubits=1, system_dim=3)
        assert np.allclose(top_left_block(be), 0)

    def test_round_trip_through_dilation(self):
        rng = rng_for(1)
        for dim in (2, 5, 16):
            a = random_contraction(rng, dim, 0.8)
            assert opnorm(top_left_block(dilate(a)) - a) <= 1e-10

    def test_encoded_block_is_contraction(self):
        # any valid encoding satisfies ||encoded block|| <= 1
        rng = rng_for(7)
        for dim in (2, 4):
            u = random_unitary(rng, 4 * dim)
            be = BlockEncoding(unitary=u, ancilla_qubits=2, system_dim=dim)
            assert opnorm(top_left_block(be)) <= 1 + 1e-9


class TestDilate:
    def test_zero_matrix(self):
        be = dilate(np.zeros((3, 3)))
        u = np.asarray(be.unitary)
        assert np.allclose(u[:3, :3], 0)
        assert np.allclose(u[:3, 3:], np.eye(3))
        assert np.allclose(u[3:, :3], np.eye(3))

    def test_unitary_input_gives_block_diagonal(self):
        u_in = random_unitary(rng_for(2), 3)
        u = np.asarray(dilate(u_in).unitary)
        assert np.allclose(u[:3, 3:], 0, atol=1e-7)
        assert np.allclose(u[3:, :3], 0, atol=1e-7)
        assert np.allclose(u[3:, 3:], -u_in.conj().T)

    def test_unitarity_of_dilation(self):
        a = random_contraction(rng_for(3), 4, 0.8)
        u = np.asarray(dilate(a).unitary)
        assert opnorm(u.conj().T @ u - np.eye(8)) <= 1e-10

    def test_norm_violation_reports_norm(self):
        a = np.eye(2) * 1.5
        with pytest.raises(NormBoundError) as excinfo:
            dilate(a)
        assert excinfo.value.norm == pytest.approx(1.5, abs=1e-9)

    def test_norm_violation_message_shows_the_excess(self):
        # twelve significant digits print 1 + 1.4e-12 as "1 > 1"
        with pytest.raises(NormBoundError) as excinfo:
            dilate(np.eye(2) * (1 + 1.4e-12))
        assert str(excinfo.value) == (
            "cannot dilate: ||A|| = 1.0000000000014 > 1; divide by the norm first"
        )

    def test_boundary_contraction(self):
        # norm exactly 1 must not fail, and its block is A itself
        rng = rng_for(4)
        a = random_contraction(rng, 3, 1.0)
        assert regularity_profile(dilate(a), a, 1) == [0.0]


def dilation_input(kind: str, d: int, k: int, seed: int) -> np.ndarray:
    """A d x d matrix of norm at most 1 + 4 * 2^-52, of the named kind."""
    rng = rng_for(seed)
    g = random_complex(rng, (d, d))
    if kind == "norm":  # ||A|| = 1 + k * 2^-52 to rounding, k in -4..4
        return g / opnorm(g) * (1 + k * 2.0**-52)
    if kind == "tiny":  # entries around 1e-160, whose products underflow
        return g * 1e-160
    if kind == "zero":
        return np.zeros((d, d))
    if kind == "rank-deficient":  # rank below d (0 for d = 1), norm 1 unless zero
        rank = int(rng.integers(0, d))
        low = g[:, :rank] @ random_complex(rng, (rank, d))
        return low / opnorm(low) if rank else low
    if kind == "jordan":
        lam = complex(*rng.uniform(-0.7, 0.7, 2))
        block = jordan_block(lam, d)
        return block / opnorm(block)
    # assemble_from_jordan: blocks of sizes summing to d, a well-conditioned similarity
    sizes, left = [], d
    while left:
        sizes.append(int(rng.integers(1, left + 1)))
        left -= sizes[-1]
    blocks = tuple((complex(*rng.uniform(-0.7, 0.7, 2)), size) for size in sizes)
    a = assemble_from_jordan(JordanForm(np.eye(d) + 0.3 * g / opnorm(g), blocks))
    return a / opnorm(a)


KINDS = ["norm", "tiny", "zero", "rank-deficient", "jordan", "assembled"]


class TestBuiltUnitaries:
    """dilate, RegularizedEncoding.base and synthesize build their unitaries without
    rechecking them; these tests hold what they build to the rule an input must pass."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(KINDS),
        d=st.sampled_from(range(1, 17)),  # st.integers draws d = 1 for half the examples
        order=st.sampled_from([1, 2, 4, 8, 16]),
        k=st.integers(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="norm", d=16, order=16, k=4, seed=0)
    @example(kind="assembled", d=16, order=16, k=0, seed=1)
    def test_built_unitaries_pass_the_input_rule(self, kind, d, order, k, seed):
        a = dilation_input(kind, d, k, seed)
        be = dilate(a)
        base = regularize(be, order).base
        assert np.array_equal(top_left_block(be), a)
        assert np.array_equal(top_left_block(base), a)
        for built in (be, base):
            as_unitary(built.unitary, "built unitary", "test", tol=UNITARITY_TOL)
            assert built.dim == 2**built.ancilla_qubits * built.system_dim
            assert not built.unitary.flags.writeable
        # each stores an array of its own; order 1 returns the source itself
        assert not np.shares_memory(be.unitary, a)
        assert (base is be) if order == 1 else not np.shares_memory(base.unitary, be.unitary)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["random", "monomial", "exp", "inverse"]),
        degree=st.sampled_from(range(201)),  # st.integers draws degree 0 for half the examples
        sup=st.sampled_from([0.5, 1.0 - gqsp.SUP_MARGIN, 1.2, 1e3]),
        phase=st.floats(0.0, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="random", degree=200, sup=1.0 - gqsp.SUP_MARGIN, phase=0.0, seed=0)
    @example(kind="inverse", degree=0, sup=0.5, phase=1.0, seed=0)  # degree 345 at the margin
    def test_synthesized_rotations_pass_the_input_rule(self, kind, degree, sup, phase, seed):
        if kind == "random":  # sup |P| below the margin, at it, and rescaled to it
            p = random_polynomial(rng_for(seed), degree, sup=sup)
        elif kind == "monomial":  # unimodular on the circle: completes to Q = 0
            p = np.r_[np.zeros(degree), np.exp(1j * phase)]
        elif kind == "exp":
            p = exp_plan(10.0 ** -(1 + degree % 16)).coefficients
        else:
            p = shifted_inverse_plan((1.05 + degree / 50) * np.exp(1j * phase), 1e-6).coefficients
        seq = gqsp.synthesize(p)
        as_unitary(seq.rotations, "built rotations", "test", tol=gqsp.ROTATION_TOL, ndim=3)
        assert seq.rotations.shape == (seq.degree + 1, 2, 2)
        assert not seq.rotations.flags.writeable
        assert 0.0 < seq.scale <= 1.0

    def test_synthesis_reaches_no_unitarity_check(self, monkeypatch, tmp_path):
        # synthesize's rotations are built, not checked, through the library and the
        # command line; a sequence or a signal unitary given from outside still is
        def fail(*args, **kwargs):
            raise AssertionError("unitarity checked")

        monkeypatch.setattr(gqsp, "as_unitary", fail)
        monkeypatch.setattr(linalg, "as_unitary", fail)
        monkeypatch.chdir(tmp_path)
        rng = rng_for(17)
        p = random_polynomial(rng, 6, sup=0.9)
        seq = gqsp.synthesize(p)
        for norm in (0.8, 1.5):
            a = random_contraction(rng, 3, norm)
            transform(a, p)
        (tmp_path / "a.json").write_text(cli.emit_json(cli.matrix_payload(a)))
        (tmp_path / "p.json").write_text(cli.emit_json({"coefficients": p.array}))
        for argv in (
            ["synthesize", "--coeffs", "p.json"],
            ["transform", "a.json", "--coeffs", "p.json"],
            ["demo", "jordan"],
        ):
            assert cli.main([*argv, "--report", "out.json"]) == 0
        entries = (
            lambda: gqsp.GqspSequence(np.array(seq.rotations)),
            lambda: gqsp.apply_to_operator(seq, np.eye(2)),
        )
        for entry in entries:
            with pytest.raises(AssertionError, match="unitarity checked"):
                entry()

    def test_only_inputs_reach_the_unitarity_check(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("unitarity checked")

        monkeypatch.setattr(encoding, "as_unitary", fail)
        a = random_contraction(rng_for(16), 3, 0.8)
        regularize(dilate(a), 4).base
        transform(a, [0.5, 0.25, 0.125])
        path = tmp_path / "u.json"
        payload = {"ancillas": 1, "system_dim": 2, **cli.matrix_payload(np.eye(4))}
        path.write_text(cli.emit_json(payload))
        for entry in (lambda: BlockEncoding(np.eye(4), 1, 2), lambda: cli.load_encoding(path)):
            with pytest.raises(AssertionError, match="unitarity checked"):
                entry()


def order_of(be, a, tol, k_max):
    return regularity_order(regularity_profile(be, a, k_max), tol)


class TestRegularityOrder:
    def test_plain_dilation_is_only_1_regular(self):
        a = random_contraction(rng_for(8), 3, 0.8)
        assert order_of(dilate(a), a, 1e-8, 8) == 1

    def test_unitary_is_infinitely_regular(self):
        u = random_unitary(rng_for(9), 3)
        be = BlockEncoding(unitary=u, ancilla_qubits=0, system_dim=3)
        for k_max in (16, 64):
            assert order_of(be, u, 1e-10, k_max) == k_max

    def test_regularized_reaches_requested_order(self):
        a = random_contraction(rng_for(10), 3, 0.8)
        reg = regularize(dilate(a), 4)
        assert order_of(reg.base, a, 1e-8, 4) >= 4

    def test_perturbation_thresholds(self):
        rng = rng_for(6)
        a = random_contraction(rng, 4, 0.5)
        e = random_complex(rng, (4, 4))
        e *= 1e-3 / opnorm(e)
        be = dilate(a)
        assert order_of(be, a + e, 1e-2, 1) == 1
        assert order_of(be, a + e, 1e-4, 1) == 0

    @pytest.mark.parametrize(
        "shift, tol, order",
        [
            # ||E|| = 5e-11 is under the floor at tolerance 0
            ("random", 0.0, 1),
            # the k = 1 error fails: order 0, not an error
            ("identity", 1e-8, 0),
        ],
        ids=["under-floor", "not-an-encoding"],
    )
    def test_k1_decides_between_order_0_and_1(self, shift, tol, order):
        rng = rng_for(0)
        a = random_contraction(rng, 3, 0.8)
        e = random_complex(rng, (3, 3))
        e = 5e-11 * e / opnorm(e) if shift == "random" else 1e-3 * np.eye(3)
        assert order_of(dilate(a), a + e, tol, 4) == order

    @pytest.mark.parametrize(
        "errors, tol, order",
        [
            ([2e-10], 0.0, 0),
            ([1e-8 + 1e-10, 2e-8 + 1e-10, 3e-8 + 2e-10], 1e-8, 2),
            ([0.0, 0.0], 1, 2),
            ([0.0, 0.0], np.float32(1e-8), 2),
        ],
        ids=["past-floor", "per-power", "int-tol", "numpy-tol"],
    )
    def test_rule(self, errors, tol, order):
        # err_j <= j*tol + REGULARITY_FLOOR for every j <= k
        assert regularity_order(errors, tol) == order

    @pytest.mark.parametrize(
        "tol",
        [np.nan, np.inf, -1e-8, "x", True],
        ids=["nan", "inf", "negative", "text", "bool"],
    )
    def test_rejects_invalid_tolerance(self, tol):
        # a plain dilation is only 1-regular: no tolerance may report it as 8-regular
        a = random_contraction(rng_for(8), 3, 0.8)
        profile = regularity_profile(dilate(a), a, 8)
        message = re.escape(f"tolerance must be nonnegative and finite, got {tol!r}")
        with pytest.raises(ValidationError, match=message) as info:
            regularity_order(profile, tol)
        assert info.value.module == "encoding"

    @pytest.mark.parametrize(
        "errors, order",
        [([1e-12, np.nan, 1e-12], 1), ([np.nan, 1e-12], 0), ([1e-12, 1e-12, np.nan], 2)],
        ids=["second", "first", "last"],
    )
    def test_nan_error_ends_the_order(self, errors, order):
        assert regularity_order(errors, 1e-8) == order

    def test_monotone_in_tolerance(self):
        a = random_contraction(rng_for(12), 3, 0.8)
        profile = regularity_profile(regularize(dilate(a), 4).base, a, 8)
        orders = [regularity_order(profile, tol) for tol in (1e-4, 1e-8, 1e-12)]
        assert orders == sorted(orders, reverse=True)


class TestRegularityProfile:
    def test_matches_dense_powers(self):
        # carried columns against full matrix powers, also past the regular
        # order where the errors are of order one
        rng = rng_for(13)
        for d, order, k_max in ((3, 4, 8), (2, 8, 12), (4, 1, 3)):
            a = random_contraction(rng, d, 0.85)
            be = regularize(dilate(a), order).base
            u = np.asarray(be.unitary)
            dense = [
                opnorm(np.linalg.matrix_power(u, k)[:d, :d] - np.linalg.matrix_power(a, k))
                for k in range(1, k_max + 1)
            ]
            profile = regularity_profile(be, a, k_max)
            assert max(dense[order:]) > 1e-3
            assert np.max(np.abs(np.subtract(profile, dense))) <= 1e-14

    def test_exact_dilation(self):
        a = random_contraction(rng_for(5), 4, 0.7)
        assert regularity_profile(dilate(a), a, 1) == [0.0]

    @pytest.mark.parametrize("ancillas", [1, 2, 3])
    def test_first_entry_is_the_block_error(self, ancillas):
        # bitwise: transform reads its encoding error from this entry
        rng = rng_for(14 + ancillas)
        for d in (1, 3, 4):
            a = random_contraction(rng, d, 0.8)
            encodings = [BlockEncoding(random_unitary(rng, 2**ancillas * d), ancillas, d)]
            if ancillas == 1:
                encodings.append(dilate(a))
            for be in encodings:
                for target in (a, a + 1e-3 * random_complex(rng, (d, d))):
                    expected = operator_norm(top_left_block(be) - target)
                    assert regularity_profile(be, target, 1)[0] == expected

    @pytest.mark.parametrize(
        "target, k_max, message",
        [
            (np.zeros((3, 3)), 2, "target dimension 3 != encoded system dimension 2"),
            (np.zeros((2, 2)), 0, "k_max must be positive"),
        ],
        ids=["dimension", "k-max"],
    )
    def test_rejects_invalid_arguments(self, target, k_max, message):
        with pytest.raises(ValidationError, match=message):
            regularity_profile(dilate(np.zeros((2, 2))), target, k_max)
