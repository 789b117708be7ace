"""Arguments at the public boundary: one rule per kind, always typed.

Counts, finite reals, finite complex numbers and arrays of finite numbers
go through the checks in ``qevt.errors``; whatever arrives, a public call
returns or raises a ``QevtError`` naming the module that owns the argument.
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
)
from qevt.errors import QevtError, ValidationError, as_array, as_complex, as_count, as_real
from qevt.evt import counter_order_for_degree, perturbation_bound, transform
from qevt.gqsp import (
    GqspSequence,
    apply_to_operator,
    complete,
    evaluate_scalar,
    sup_norm_on_circle,
    synthesize,
)
from qevt.linalg import PolynomialSpec, ensure_square, horner_eval, operator_norm
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

    def test_count_cap_is_inclusive(self):
        assert as_count(np.int64(5), "n", "m", most=5) == 5
        with pytest.raises(ValidationError) as info:
            as_count(6, "n", "mod", least=1, most=5)
        assert str(info.value) == "n 6 exceeds the cap 5" and info.value.module == "mod"

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

    # integers past Python's 4300-digit limit for str() are shown by sign and bit length
    HUGE_BITS = (10**5000).bit_length()

    def test_count_shows_huge_integer_by_bit_length(self):
        with pytest.raises(ValidationError) as info:
            as_count(-(10**5000), "n", "mod")
        shown = f"a negative {self.HUGE_BITS}-bit integer"
        assert str(info.value) == f"n must be nonnegative and an integer, got {shown}"
        assert info.value.module == "mod"

    def test_real_shows_huge_integer_by_bit_length(self):
        with pytest.raises(ValidationError) as info:
            as_real(10**5000, "x", "mod")
        message = f"x must be nonnegative and finite, got a {self.HUGE_BITS}-bit integer"
        assert str(info.value) == message and info.value.module == "mod"

    def test_complex_shows_huge_integer_by_bit_length(self):
        with pytest.raises(ValidationError) as info:
            as_complex(10**5000, "z", "mod")
        assert str(info.value) == f"z = a {self.HUGE_BITS}-bit integer must be finite"
        assert info.value.module == "mod"

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1, 2], [1, 2]),
            ([[0.5, 1j]], [[0.5, 1j]]),
            (np.float32(0.5), 0.5),
            ([True, 0.5], [1.0, 0.5]),  # numpy upcasts a bool mixed into numbers
            ([10**30, 1], [1e30, 1.0]),  # an object array of Python integers
            (np.array([1, 2], dtype=np.uint8), [1, 2]),
        ],
        ids=["ints", "complex", "scalar", "bool-upcast", "big-int", "uint8"],
    )
    def test_array_accepts_finite_numbers(self, values, expected):
        got = as_array(values, "v", "m")
        assert got.dtype == np.complex128 and np.array_equal(got, expected)

    def test_array_returns_complex128_input_itself(self):
        values = np.ones((2, 2), dtype=np.complex128)
        assert as_array(values, "v", "m", ndim=2) is values

    @pytest.mark.parametrize(
        "values, ndim, message",
        [
            ("0.5", None, "v must be numbers in a rectangular array"),
            (["0.5", 1], None, "v must be numbers in a rectangular array"),
            (b"1", None, "v must be numbers in a rectangular array"),
            ([[True]], None, "v must be numbers in a rectangular array"),
            ([[None, 1]], None, "v must be numbers in a rectangular array"),
            ([[1, 0], [0]], None, "v must be numbers in a rectangular array"),
            ({"a": 1}, None, "v must be numbers in a rectangular array"),
            ([1, 10**400, object()], None, "v must be numbers in a rectangular array"),
            ([], None, "v must be a nonempty array, got shape (0,)"),
            ([1, 2], 2, "v must be a nonempty 2-D array, got shape (2,)"),
            ([[math.nan]], None, "v must be finite, not NaN or Inf"),
            ([complex(1, math.inf)], 1, "v must be finite, not NaN or Inf"),
            ([[10**400]], 2, "v must be finite, not NaN or Inf"),
        ],
        ids=[
            "text", "numeric-text", "bytes", "bools", "none", "ragged", "dict", "object",
            "empty", "ndim", "nan", "inf", "huge-int",
        ],
    )
    def test_array_rejects(self, values, ndim, message):
        with pytest.raises(ValidationError) as info:
            as_array(values, "v", "mod", ndim=ndim)
        assert str(info.value) == message and info.value.module == "mod"


# each of these was a bare exception or a silent acceptance before the shared rules
ESCAPES = {
    "regularity_order-tol-text": (lambda: regularity_order([0.0], "x"), "encoding"),
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
    "evaluate_scalar-numeric-text": (lambda: evaluate_scalar(SEQ, "0.5"), "gqsp"),
    "transform-ragged": (lambda: transform([[0.5, 0.1], [0.2]], P), "linalg"),
    "transform-numeric-text": (lambda: transform([["0.5"]], ["1", "0.5"]), "linalg"),
    "BlockEncoding-ragged": (lambda: BlockEncoding([[1, 0], [0]], 0, 2), "encoding"),
    "assemble_from_jordan-ragged": (
        lambda: assemble_from_jordan(JordanForm([[1, 0], [0]], ((0.5, 2),))),
        "linalg",
    ),
    "horner_eval-dict": (lambda: horner_eval([1], {"a": 1}), "linalg"),
    "PolynomialSpec-numeric-text": (lambda: PolynomialSpec(["1", "0.5j"]), "linalg"),
    "PolynomialSpec-digit-string": (lambda: PolynomialSpec("12"), "linalg"),
    "dilate-bool": (lambda: dilate([[True]]), "linalg"),
    "GqspSequence-numeric-text": (lambda: GqspSequence(([["1", 0], [0, "1"]],)), "gqsp"),
    "GqspSequence-bool": (lambda: GqspSequence(([[True, False], [False, True]],)), "gqsp"),
    "GqspSequence-scale-huge-int": (lambda: GqspSequence(SEQ.rotations, 10**5000), "gqsp"),
    "RegularizedEncoding-order-huge-int": (
        lambda: RegularizedEncoding(BE, 10**5000),
        "regularize",
    ),
    "exp_plan-eps-below-factorial-range": (lambda: exp_plan(1e-320), "analytic"),
    # counts past the caps: sample counts, degrees and k_max by MAX_TRUNCATION_ORDER,
    # block sizes by MAX_DENSE_DIM
    "disk_samples-count-huge": (lambda: disk_samples(10**29), "analytic"),
    "jordan_block-size-huge": (lambda: jordan_block(0.5, 2**63), "analytic"),
    "jordan_poly-size-huge": (lambda: jordan_poly([1, 2], 0.5, 2**63), "analytic"),
    "perturbation_bound-degree-huge": (lambda: perturbation_bound(10**103, 0.1), "evt"),
    "regularity_profile-k_max-huge": (lambda: regularity_profile(BE, A, 10**29), "encoding"),
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
    "regularity_profile.k_max": lambda x: regularity_profile(BE, A, x),
    "regularity_order.tol": lambda x: regularity_order([0.0, 0.0], x),
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


# valid but extreme: the smallest subnormal, the bottom of the normal range, and the top
EXTREME = [5e-324, 1e-308, 1e308, 1.7976931348623157e308]


@pytest.mark.parametrize("extreme", EXTREME, ids=map(repr, EXTREME))
@pytest.mark.parametrize("call", SCALAR_ARGUMENTS.values(), ids=SCALAR_ARGUMENTS.keys())
def test_extreme_scalar_returns_or_raises_a_library_error(call, extreme):
    try:
        call(extreme)
    except QevtError:
        pass


# every public function or validated constructor, one entry per array argument
ARRAY_ARGUMENTS = {
    "ensure_square": ensure_square,
    "operator_norm": operator_norm,
    "horner_eval.p": lambda x: horner_eval(x, A),
    "horner_eval.a": lambda x: horner_eval(P, x),
    "PolynomialSpec": PolynomialSpec,
    "BlockEncoding.unitary": lambda x: BlockEncoding(x, 0, 1),
    "dilate": dilate,
    "transform.a_mat": lambda x: transform(x, P),
    "transform.p": lambda x: transform(A, x),
    "GqspSequence.rotations": GqspSequence,
    "evaluate_scalar.z": lambda x: evaluate_scalar(SEQ, x),
    "apply_to_operator.u": lambda x: apply_to_operator(SEQ, x),
    "sup_norm_on_circle": sup_norm_on_circle,
    "complete": complete,
    "synthesize": synthesize,
    "JordanForm.similarity": lambda x: assemble_from_jordan(JordanForm(x, ((0.5, 1),))),
}

# text, numeric text, nothing, a bool, a ragged nesting, a mapping, nothing at all,
# NaN, an integer beyond the float range
ARRAY_JUNK = {
    "text": "x",
    "numeric-text": ["0.5"],
    "none": None,
    "bool": [[True]],
    "ragged": [[1, 0], [0]],
    "dict": {"a": 1},
    "empty": [],
    "nan": [[math.nan]],
    "huge-int": [[10**400]],
}


@pytest.mark.parametrize("junk", ARRAY_JUNK.values(), ids=ARRAY_JUNK.keys())
@pytest.mark.parametrize("call", ARRAY_ARGUMENTS.values(), ids=ARRAY_ARGUMENTS.keys())
def test_junk_array_raises_a_validation_error(call, junk):
    with pytest.raises(ValidationError):
        call(junk)
