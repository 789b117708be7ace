"""Eigenvalue transformations of block-encoded matrices, simulated exactly.

The package builds block-encodings of arbitrary square matrices, makes
their powers faithful with a counter register, synthesizes signal
processing rotations for circle-bounded polynomials, and applies the
transformation circuit to obtain its encoded block, always verifying that
block against a classical evaluation.
"""

from .analytic import (
    JordanForm,
    TruncationPlan,
    assemble_from_jordan,
    disk_samples,
    exp_plan,
    jordan_block,
    jordan_poly,
    shifted_inverse_plan,
    taylor_truncation_order,
)
from .encoding import (
    BlockEncoding,
    dilate,
    regularity_order,
    regularity_profile,
    top_left_block,
)
from .errors import NormBoundError, NumericalError, QevtError, ValidationError
from .evt import (
    TransformReport,
    assemble_circuit,
    counter_order_for_degree,
    perturbation_bound,
    transform,
)
from .gqsp import (
    GqspSequence,
    apply_to_operator,
    complete,
    evaluate_scalar,
    sup_norm_on_circle,
    synthesize,
)
from .linalg import (
    PolynomialSpec,
    as_polynomial,
    ensure_square,
    horner_eval,
    operator_norm,
)
from .regularize import RegularizedEncoding, regularize

__version__ = "0.1.0"

__all__ = [
    "BlockEncoding",
    "GqspSequence",
    "JordanForm",
    "NormBoundError",
    "NumericalError",
    "PolynomialSpec",
    "QevtError",
    "RegularizedEncoding",
    "TransformReport",
    "TruncationPlan",
    "ValidationError",
    "apply_to_operator",
    "as_polynomial",
    "assemble_circuit",
    "assemble_from_jordan",
    "complete",
    "counter_order_for_degree",
    "dilate",
    "disk_samples",
    "ensure_square",
    "evaluate_scalar",
    "exp_plan",
    "horner_eval",
    "jordan_block",
    "jordan_poly",
    "operator_norm",
    "perturbation_bound",
    "regularity_order",
    "regularity_profile",
    "regularize",
    "shifted_inverse_plan",
    "sup_norm_on_circle",
    "synthesize",
    "taylor_truncation_order",
    "top_left_block",
    "transform",
]
