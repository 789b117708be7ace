"""Scalar arguments at the public boundary: one rule per kind, always typed.

Counts, finite reals and finite complex numbers go through the checks in
``qevt.errors``; whatever arrives, a public call returns or raises a
``QevtError`` naming the module that owns the argument.
"""

import math

import numpy as np
import pytest

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
from qevt.encoding import (
    BlockEncoding,
    dilate,
    regularity_order,
    regularity_profile,
    verify_encoding,
)
from qevt.errors import QevtError, ValidationError, as_complex, as_count, as_real
from qevt.evt import counter_order_for_degree, perturbation_bound
from qevt.gqsp import GqspSequence, evaluate_scalar, synthesize
from qevt.linalg import PolynomialSpec
from qevt.regularize import RegularizedEncoding, regularize

A = np.diag([0.5, 0.25])
BE = dilate(A)
P = PolynomialSpec([0.5, 0.25])
SEQ = synthesize(P)
U = np.eye(4)


class TestRules:
    @pytest.mark.parametrize(
        "value, least, expected",
        [(0, 0, 0), (3, 1, 3), (np.int64(2), 1, 2), (np.uint8(0), 0, 0), (10**30, 1, 10**30)],
    )
    def test_count_accepts_integers(self, value, least, expected):
        got = as_count(value, "n", "m", least=least)
        assert got == expected and type(got) is int

    @pytest.mark.parametrize(
        "value, least, message",
        [
            (True, 0, "n must be nonnegative and an integer, got True"),
            (1.0, 0, "n must be nonnegative and an integer, got 1.0"),
            (-1, 0, "n must be nonnegative and an integer, got -1"),
            (0, 1, "n must be positive and an integer, got 0"),
            ("1", 1, "n must be positive and an integer, got '1'"),
        ],
    )
    def test_count_rejects(self, value, least, message):
        with pytest.raises(ValidationError) as info:
            as_count(value, "n", "mod", least=least)
        assert str(info.value) == message and info.value.module == "mod"

    @pytest.mark.parametrize(
        "value, above, expected",
        [
            (0, None, 0.0),
            (2, 0, 2.0),
            (np.float64(0.5), 0, 0.5),
            (np.float32(0.5), 0, 0.5),
            (1.5, 1, 1.5),
            (10**300, 0, 1e300),
        ],
    )
    def test_real_accepts_finite_reals(self, value, above, expected):
        got = as_real(value, "x", "m", above=above)
        assert got == expected and type(got) is float

    @pytest.mark.parametrize(
        "value, above, message",
        [
            (-1e-9, None, "x must be nonnegative and finite, got -1e-09"),
            (0.0, 0, "x must be positive and finite, got 0.0"),
            (1.0, 1, "x must exceed 1 and be finite, got 1.0"),
            (math.nan, None, "x must be nonnegative and finite, got nan"),
            (math.inf, 0, "x must be positive and finite, got inf"),
            (False, None, "x must be nonnegative and finite, got False"),
            (1j, 0, "x must be positive and finite, got 1j"),
            ("1", 0, "x must be positive and finite, got '1'"),
        ],
    )
    def test_real_rejects(self, value, above, message):
        with pytest.raises(ValidationError) as info:
            as_real(value, "x", "mod", above=above)
        assert str(info.value) == message and info.value.module == "mod"

    def test_real_rejects_integer_beyond_float_range(self):
        with pytest.raises(ValidationError, match="x must be positive and finite"):
            as_real(10**400, "x", "mod", above=0)

    @pytest.mark.parametrize(
        "value, expected",
        [
            (1, 1 + 0j),
            (0.5, 0.5 + 0j),
            (np.complex64(1j), 1j),
            (complex(1e308, 1e308), complex(1e308, 1e308)),
        ],
    )
    def test_complex_accepts_finite_numbers(self, value, expected):
        got = as_complex(value, "z", "m")
        assert got == expected and type(got) is complex

    @pytest.mark.parametrize(
        "value, shown",
        [
            (math.nan, "(nan+0j)"),
            (complex(1.0, -math.inf), "(1-infj)"),
            (True, "True"),
            ("1", "'1'"),
            (None, "None"),
            (10**400, "1" + "0" * 400),
        ],
    )
    def test_complex_rejects(self, value, shown):
        with pytest.raises(ValidationError) as info:
            as_complex(value, "z", "mod")
        assert str(info.value) == f"z = {shown} must be finite" and info.value.module == "mod"


# each of these was a bare exception or a silent acceptance before the shared rules
ESCAPES = {
    "verify_encoding-eps-text": (lambda: verify_encoding(BE, A, "x"), "encoding"),
    "regularity_order-tol-text": (lambda: regularity_order(BE, A, "x", 3), "encoding"),
    "regularity_profile-k_max-float": (lambda: regularity_profile(BE, A, 2.5), "encoding"),
    "regularity_profile-k_max-bool": (lambda: regularity_profile(BE, A, True), "encoding"),
    "BlockEncoding-ancillas-text": (lambda: BlockEncoding(U, "x", 2), "encoding"),
    "BlockEncoding-ancillas-float": (lambda: BlockEncoding(U, 1.0, 2), "encoding"),
    "regularize-order-bool": (lambda: regularize(BE, True), "regularize"),
    "counter_order_for_degree-float": (lambda: counter_order_for_degree(2.5), "evt"),
    "perturbation_bound-degree-text": (lambda: perturbation_bound("x", 0.1), "evt"),
    "perturbation_bound-eps-text": (lambda: perturbation_bound(2, "x"), "evt"),
    "perturbation_bound-degree-float": (lambda: perturbation_bound(2.5, 0.1), "evt"),
    "perturbation_bound-eps-inf": (lambda: perturbation_bound(2, math.inf), "evt"),
    "taylor_truncation_order-r-text": (lambda: taylor_truncation_order("x", 1, 1), "analytic"),
    "taylor_truncation_order-m-text": (
        lambda: taylor_truncation_order(2.0, "x", 1e-3),
        "analytic",
    ),
    "shifted_inverse_plan-eps-text": (lambda: shifted_inverse_plan(2.0, "x"), "analytic"),
    "shifted_inverse_plan-c-text": (lambda: shifted_inverse_plan("x", 1e-3), "analytic"),
    "shifted_inverse_plan-c-none": (lambda: shifted_inverse_plan(None, 1e-3), "analytic"),
    "exp_plan-eps-text": (lambda: exp_plan("x"), "analytic"),
    "jordan_block-size-float": (lambda: jordan_block(0.5, 2.0), "analytic"),
    "jordan_block-eigenvalue-text": (lambda: jordan_block("x", 2), "analytic"),
    "jordan_block-eigenvalue-nan": (lambda: jordan_block(math.nan, 2), "analytic"),
    "jordan_poly-size-float": (lambda: jordan_poly(P, 0.5, 2.0), "analytic"),
    "assemble_from_jordan-not-a-pair": (
        lambda: assemble_from_jordan(JordanForm(np.eye(1), ((0.5,),))),
        "analytic",
    ),
    "disk_samples-float": (lambda: disk_samples(2.5), "analytic"),
    "disk_samples-text": (lambda: disk_samples("x"), "analytic"),
    "evaluate_scalar-text": (lambda: evaluate_scalar(SEQ, "x"), "gqsp"),
}


@pytest.mark.parametrize("call, module", ESCAPES.values(), ids=ESCAPES.keys())
def test_formerly_escaping_inputs_are_validation_errors(call, module):
    with pytest.raises(ValidationError) as info:
        call()
    assert info.value.module == module


# every public function or validated constructor, one entry per scalar argument
SCALAR_ARGUMENTS = {
    "BlockEncoding.ancilla_qubits": lambda x: BlockEncoding(U, x, 2),
    "BlockEncoding.system_dim": lambda x: BlockEncoding(U, 1, x),
    "verify_encoding.eps": lambda x: verify_encoding(BE, A, x),
    "regularity_profile.k_max": lambda x: regularity_profile(BE, A, x),
    "regularity_order.tol": lambda x: regularity_order(BE, A, x, 2),
    "regularity_order.k_max": lambda x: regularity_order(BE, A, 1e-8, x),
    "RegularizedEncoding.order": lambda x: RegularizedEncoding(BE, x),
    "regularize.n": lambda x: regularize(BE, x),
    "counter_order_for_degree.degree": counter_order_for_degree,
    "perturbation_bound.degree": lambda x: perturbation_bound(x, 0.1),
    "perturbation_bound.eps": lambda x: perturbation_bound(2, x),
    "GqspSequence.scale": lambda x: GqspSequence(SEQ.rotations, x),
    "evaluate_scalar.z": lambda x: evaluate_scalar(SEQ, x),
    "PolynomialSpec.coefficient": lambda x: PolynomialSpec([0.5, x]),
    "disk_samples.count": disk_samples,
    "shifted_inverse_plan.c": lambda x: shifted_inverse_plan(x, 1e-3),
    "shifted_inverse_plan.eps": lambda x: shifted_inverse_plan(2.0, x),
    "exp_plan.eps": exp_plan,
    "taylor_truncation_order.r": lambda x: taylor_truncation_order(x, 1.0, 1e-3),
    "taylor_truncation_order.m": lambda x: taylor_truncation_order(2.0, x, 1e-3),
    "taylor_truncation_order.eps": lambda x: taylor_truncation_order(2.0, 1.0, x),
    "jordan_block.eigenvalue": lambda x: jordan_block(x, 2),
    "jordan_block.size": lambda x: jordan_block(0.5, x),
    "jordan_poly.eigenvalue": lambda x: jordan_poly(P, x, 2),
    "jordan_poly.size": lambda x: jordan_poly(P, 0.5, x),
    "assemble_from_jordan.eigenvalue": lambda x: assemble_from_jordan(
        JordanForm(np.eye(2), ((x, 1), (0.5, 1)))
    ),
    "assemble_from_jordan.size": lambda x: assemble_from_jordan(
        JordanForm(np.eye(2), ((0.5, x), (0.5, 1)))
    ),
    "assemble_from_jordan.block": lambda x: assemble_from_jordan(JordanForm(np.eye(1), (x,))),
}

# text, nothing, a bool, a non-integral float, NaN, both infinities, a negative value
JUNK = ["x", None, True, 2.5, math.nan, math.inf, -math.inf, -1]


@pytest.mark.parametrize("junk", JUNK, ids=map(repr, JUNK))
@pytest.mark.parametrize("call", SCALAR_ARGUMENTS.values(), ids=SCALAR_ARGUMENTS.keys())
def test_junk_scalar_returns_or_raises_a_library_error(call, junk):
    try:
        call(junk)
    except QevtError:
        pass
