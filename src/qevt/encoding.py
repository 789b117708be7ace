"""Block-encodings: construction, decoding, and n-regularity.

A unitary U with a ancilla qubits block-encodes a d x d matrix A up to
error eps when the top-left d x d block of U (ancillas most significant,
projected onto their all-zero state) is within eps of A in operator norm;
U is unitary by linalg.as_unitary's rule, to UNITARITY_TOL, checked once
where it enters (BlockEncoding(...)). The unitaries this package builds
itself, in dilate and RegularizedEncoding.base, are unitary by construction,
stored by linalg._built unchecked: the tests hold them to the same rule.
It is n-regular when the block of U^k is within k*tol + REGULARITY_FLOOR of
A^k for every k <= n: regularity_profile measures, regularity_order decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormBoundError, ValidationError, as_count, as_real
from .linalg import (
    MAX_TRUNCATION_ORDER,
    UNITARITY_TOL,
    _built,
    as_unitary,
    ensure_square,
    operator_norm,
)

_MOD = "encoding"

NORM_SLACK = 1e-12
REGULARITY_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """A unitary together with its ancilla count and encoded-system dimension."""

    unitary: np.ndarray
    ancilla_qubits: int
    system_dim: int

    def __post_init__(self):
        u = as_unitary(self.unitary, "block encoding", _MOD, tol=UNITARITY_TOL)
        a = as_count(self.ancilla_qubits, "ancilla count", _MOD)
        d = as_count(self.system_dim, "system dimension", _MOD, least=1)
        # 2^a > dim cannot match; rejecting that first never builds a power of
        # two with thousands of digits, nor formats one into a message
        if a >= len(u).bit_length() or 2**a * d != len(u):
            raise ValidationError(f"unitary dimension {len(u)} != 2^{a} * {d}", module=_MOD)
        object.__setattr__(self, "unitary", u)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def top_left_block(be: BlockEncoding) -> np.ndarray:
    """The encoded d x d block: ancillas projected onto their all-zero state."""
    d = be.system_dim
    return be.unitary[:d, :d].copy()


def dilate(a_mat) -> BlockEncoding:
    """Exact one-ancilla block-encoding of a contraction A.

    U = [[A, (I - A A^dag)^1/2], [(I - A^dag A)^1/2, -A^dag]]. Both square
    roots are built from one SVD of A so that they share the same clamped
    singular values; separate Hermitian square roots would lose ~sqrt(eps)
    of unitarity for contractions sitting exactly on the norm-1 boundary.
    """
    a = ensure_square(a_mat, name="matrix to encode")
    left, sing, right_h = np.linalg.svd(a)
    norm = float(sing[0])
    if norm > 1.0 + NORM_SLACK:
        raise NormBoundError(
            f"cannot dilate: ||A|| = {norm:.17g} > 1; divide by the norm first",
            module=_MOD,
            norm=norm,
        )
    d = a.shape[0]
    complement = np.sqrt(1.0 - np.clip(sing, 0.0, 1.0) ** 2)
    top_right = (left * complement) @ left.conj().T
    bottom_left = (right_h.conj().T * complement) @ right_h
    u = np.block([[a, top_right], [bottom_left, -a.conj().T]])
    return _built(BlockEncoding, unitary=u, ancilla_qubits=1, system_dim=d)


def regularity_profile(be: BlockEncoding, a_mat, k_max: int) -> list[float]:
    """Per-power encoding errors ||top_left(U^k) - A^k|| for k = 1..k_max.

    The first entry is the encoding error itself. Only the d columns of U^k
    with the ancillas at zero are carried, from U[:, :d]; U^k is never formed.
    """
    a = ensure_square(a_mat, name="target matrix")
    d = be.system_dim
    if a.shape[0] != d:
        message = f"target dimension {a.shape[0]} != encoded system dimension {d}"
        raise ValidationError(message, module=_MOD)
    k_max = as_count(k_max, "k_max", _MOD, least=1, most=MAX_TRUNCATION_ORDER)
    columns, a_power = be.unitary[:, :d], a
    errors = [operator_norm(columns[:d] - a_power)]
    for _ in range(k_max - 1):
        columns, a_power = be.unitary @ columns, a_power @ a
        errors.append(operator_norm(columns[:d] - a_power))
    return errors


def regularity_order(errors, tol: float) -> int:
    """Largest k with errors[j-1] <= j*tol + REGULARITY_FLOOR for all j <= k.

    ``errors`` is a regularity_profile. A NaN ends the order; 0 means U does not
    encode the target at this tolerance."""
    tol = as_real(tol, "tolerance", _MOD)
    order = 0
    for k, err in enumerate(errors, start=1):
        if not err <= k * tol + REGULARITY_FLOOR:  # True on NaN
            break
        order = k
    return order
