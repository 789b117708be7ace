"""End-to-end eigenvalue transformation of arbitrary square matrices.

Pipeline: dilate the matrix into a one-ancilla block-encoding, wrap it
with a counter register so the first n powers are faithful, synthesize
the processing rotations for the target polynomial, and interleave them
with the controlled encoding. Only the top-left block of that circuit is
computed. It depends on the counter-0 sector alone (see assemble_circuit),
so it is QSP on the encoded block, carried on d columns: the block is
P(A), verified against a classical Horner evaluation.

The pipeline is total on square inputs: a matrix whose norm alpha (the
largest singular value, from ``operator_norm``) is above one, by any
amount, is divided by it and the polynomial coefficients absorb the factor
(a_k -> a_k alpha^k), and a polynomial too large on the unit circle is
subnormalized, with the surviving factor reported in the transform
report. No spectral assumptions are made; non-diagonalizable inputs are
transformed through their Jordan structure automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import dilate, top_left_block
from .errors import NormBoundError, ValidationError, as_count, as_real
from .gqsp import GqspSequence, _grid_residual, _signal_block, synthesize
from .linalg import (
    MAX_TRUNCATION_ORDER,
    PolynomialSpec,
    as_polynomial,
    ensure_square,
    horner_eval,
    operator_norm,
)
from .regularize import RegularizedEncoding, regularize

_MOD = "evt"


@dataclass(frozen=True, eq=False)
class TransformReport:
    """Outcome of one transform run, with the classical oracle alongside.

    ``encoding_scale`` is the subnormalization left in the circuit: the
    assembled unitary block-encodes encoding_scale * P(A), and
    ``result_block`` has already been divided by it. Rescaling of the
    matrix itself is absorbed exactly into the synthesized coefficients
    and leaves no residual factor. ``predicted_bound`` is an estimate, not a
    bound: the synthesis residual sampled on the 1024th roots of unity. The
    built-in dilation encodes A exactly (its top-left block is a copy of A),
    so there is no encoding error to add.
    """

    result_block: np.ndarray
    oracle_block: np.ndarray
    achieved_error: float
    predicted_bound: float
    total_ancillas: int
    circuit_dim: int
    encoding_scale: float
    controlled_calls: int


def counter_order_for_degree(degree: int) -> int:
    """Smallest power of two >= degree (1 for degree <= 1)."""
    return 1 << max(as_count(degree, "degree", _MOD) - 1, 0).bit_length()


def assemble_circuit(seq: GqspSequence, reg: RegularizedEncoding) -> np.ndarray:
    """Top-left d x d block of the circuit interleaving rotations and encoding.

    The circuit is (R_0 x I) C(U) (R_1 x I) ... C(U) (R_n x I), the
    processing qubit most significant and the regularized unitary U
    controlled as one unit. Its block is QSP on the source's encoded block
    A, carried on d columns: the readout starts and ends at counter 0 with
    the source ancillas O at zero. A call that leaves O != 0 moves that
    amplitude from counter c to c + 1, so it re-enters counter 0 only after
    order failed calls, and after degree <= order calls it still has O != 0.
    Only the counter-0, O = 0 part of U, which is A, reaches the block;
    neither the circuit nor U is formed, nor the other counter sectors.
    """
    if seq.degree > reg.order:
        raise ValidationError(
            f"sequence degree {seq.degree} exceeds encoding regularity order {reg.order}",
            module=_MOD,
        )
    block = top_left_block(reg.source)
    return _signal_block(seq, lambda v: block @ v, np.eye(len(block), dtype=np.complex128))


def perturbation_bound(degree: int, eps: float) -> float:
    """sqrt(n(n+1)(2n+1)/6) * eps: worst-case ||P(A+E) - P(A)|| over circle-bounded P.

    Follows from ||(A+E)^k - A^k|| <= k ||E|| for contractions together with
    Parseval (sum |a_k|^2 <= 1) and Cauchy-Schwarz over the coefficients.
    """
    n = as_count(degree, "degree", _MOD, most=MAX_TRUNCATION_ORDER)
    return float(np.sqrt(n * (n + 1) * (2 * n + 1) / 6.0)) * as_real(eps, "eps", _MOD)


def transform(a_mat, p) -> TransformReport:
    """Block-encode P(A) for an arbitrary square A and compare with Horner.

    Builds dilation -> counter regularization at order 2^ceil(log2 deg) ->
    rotation synthesis -> the circuit's encoded block (assemble_circuit), and
    reports the achieved operator-norm error against horner_eval(p, a_mat)
    with the sampled estimate ``predicted_bound`` (see TransformReport). The
    dilation is built here and is exact, so its encoding error is not
    measured. A norm alpha > 1 for which P(alpha z) overflows is a
    NormBoundError.
    """
    a = ensure_square(a_mat, name="matrix")
    p = as_polynomial(p)

    alpha = operator_norm(a)
    if alpha > 1.0:  # then ||A / alpha|| = 1 to rounding, well inside dilate's NORM_SLACK
        a_enc = a / alpha
        try:  # P(alpha z) so that P_enc(A/alpha) == P(A) exactly
            p_enc = PolynomialSpec([c * alpha**k for k, c in enumerate(p.coefficients)])
        except (OverflowError, ValidationError):  # alpha^k, or a coefficient, is not finite
            message = f"P(alpha z) overflows for ||A|| = {alpha:.12g} at degree {p.degree}"
            raise NormBoundError(message, module=_MOD, norm=alpha) from None
    else:
        a_enc = a
        p_enc = p

    order = counter_order_for_degree(p_enc.degree)
    encoding = dilate(a_enc)
    reg = regularize(encoding, order)
    seq = synthesize(p_enc)

    result = assemble_circuit(seq, reg) / seq.scale
    oracle = horner_eval(p, a)
    achieved = operator_norm(result - oracle)

    predicted = _grid_residual(seq, p_enc, 1024) / seq.scale

    return TransformReport(
        result_block=result,
        oracle_block=oracle,
        achieved_error=achieved,
        predicted_bound=predicted,
        total_ancillas=1 + reg.counter_qubits + reg.source_ancillas,
        circuit_dim=2 * order * encoding.dim,
        encoding_scale=seq.scale,
        controlled_calls=seq.degree,
    )
