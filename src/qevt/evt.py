"""End-to-end eigenvalue transformation of arbitrary square matrices.

Construction: dilate the matrix into a one-ancilla block-encoding, wrap it
with a counter register so the first n powers are faithful, synthesize the
processing rotations for the target polynomial, and interleave them with
the controlled encoding. Only the circuit's top-left block is read, and it
depends on the counter-0 sector alone (see assemble_circuit), where the
encoding acts as A. So it is QSP on A carried on d columns, and that is all
``transform`` computes; tests/test_evt.py holds the two equal. The block is
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

from .encoding import top_left_block
from .errors import NormBoundError, ValidationError, as_count, as_real
from .gqsp import GqspSequence, _grid_residual, _operator_block, synthesize
from .linalg import (
    MAX_TRUNCATION_ORDER,
    PolynomialSpec,
    as_polynomial,
    ensure_square,
    horner_eval,
    operator_norm,
)
from .regularize import RegularizedEncoding

_MOD = "evt"


@dataclass(frozen=True, eq=False)
class TransformReport:
    """Outcome of one transform run, with the classical oracle alongside.

    ``encoding_scale`` is the subnormalization left in the circuit: the
    assembled unitary block-encodes encoding_scale * P(A), and
    ``result_block`` has already been divided by it. Rescaling of the
    matrix itself is absorbed exactly into the synthesized coefficients
    and leaves no residual factor. ``predicted_bound`` is an estimate, not a
    bound: the synthesis residual, |R - scale * P| / scale for the realized
    polynomial R multiplied out of the rotations, sampled on the 1024th roots
    of unity. It leaves out the rounding of the circuit and of the oracle on
    A, so at low degree it can fall below ``achieved_error``. The rotations
    act on A itself, which the dilation encodes exactly, so there is no
    encoding error to add; ``total_ancillas`` and ``circuit_dim`` count the
    construction's registers.
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
    return _operator_block(seq, top_left_block(reg.source))


def perturbation_bound(degree: int, eps: float) -> float:
    """sqrt(n(n+1)(2n+1)/6) * eps: worst-case ||P(A+E) - P(A)|| over circle-bounded P.

    Follows from ||(A+E)^k - A^k|| <= k ||E|| for contractions together with
    Parseval (sum |a_k|^2 <= 1) and Cauchy-Schwarz over the coefficients.
    """
    n = as_count(degree, "degree", _MOD, most=MAX_TRUNCATION_ORDER)
    return float(np.sqrt(n * (n + 1) * (2 * n + 1) / 6.0)) * as_real(eps, "eps", _MOD)


def transform(a_mat, p) -> TransformReport:
    """Block-encode P(A) for an arbitrary square A and compare with Horner.

    Synthesizes the rotations and runs them on A (A / alpha past norm 1): by
    assemble_circuit's counter-0 argument, the block of the circuit on the
    dilation regularized at order 2^ceil(log2 deg), which is not built. Reports
    the achieved operator-norm error against horner_eval(p, a_mat) with the
    sampled estimate ``predicted_bound``, which leaves out the rounding of both
    (see TransformReport). A norm alpha > 1 for which P(alpha z) overflows is
    a NormBoundError.
    """
    a = ensure_square(a_mat, name="matrix")
    p = as_polynomial(p)

    alpha = operator_norm(a)
    a_enc, p_enc = a, p
    if alpha > 1.0:  # then ||A / alpha|| = 1 to rounding: a contraction, as the dilation needs
        a_enc = a / alpha
        try:  # P(alpha z) so that P_enc(A/alpha) == P(A) exactly
            p_enc = PolynomialSpec([c * alpha**k for k, c in enumerate(p.coefficients)])
        except (OverflowError, ValidationError):  # alpha^k, or a coefficient, is not finite
            message = f"P(alpha z) overflows for ||A|| = {alpha:.12g} at degree {p.degree}"
            raise NormBoundError(message, module=_MOD, norm=alpha) from None

    seq = synthesize(p_enc)
    result = _operator_block(seq, a_enc) / seq.scale
    oracle = horner_eval(p, a)
    achieved = operator_norm(result - oracle)

    predicted = _grid_residual(seq, p_enc, 1024) / seq.scale

    order = counter_order_for_degree(p_enc.degree)
    # the construction's registers: the processing qubit, log2(order) counter
    # qubits and the dilation's one ancilla, over 2 * order * 2d rows
    return TransformReport(
        result_block=result,
        oracle_block=oracle,
        achieved_error=achieved,
        predicted_bound=predicted,
        total_ancillas=1 + (order.bit_length() - 1) + 1,
        circuit_dim=2 * order * 2 * len(a),
        encoding_scale=seq.scale,
        controlled_calls=seq.degree,
    )
