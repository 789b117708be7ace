"""Power-regularization of block-encodings with a counter register.

Any block-encoding can be made n-regular (its k-th power encodes A^k for
all 0 <= k <= n, n a power of two) by prepending a b = log2(n) qubit
counter that is incremented whenever the original ancillas leave their
all-zero state. Failed branches are thereby tagged and can no longer
re-enter the success branch until the counter wraps around after n calls.

Register order, most significant first: counter (C), original ancillas
(O), system (S). The success index stays at row/column 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import BlockEncoding
from .errors import ValidationError

_MOD = "regularize"


@dataclass(frozen=True, eq=False)
class RegularizedEncoding:
    """A block-encoding wrapped with a counter register of width b, order n = 2^b.

    Only ``source`` and ``order`` are stored: ``apply`` acts with the wrapped
    unitary without forming it, and ``base`` builds the dense wrapped
    encoding on first access.
    """

    source: BlockEncoding
    order: int

    def __post_init__(self):
        _power_of_two_exponent(self.order)

    @property
    def counter_qubits(self) -> int:
        return self.order.bit_length() - 1

    @property
    def source_ancillas(self) -> int:
        return self.source.ancilla_qubits

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The wrapped unitary applied to x of shape (order, 2^a * d, c).

        Axis 0 is the counter C, axis 1 the source register O x S. The
        source unitary acts on every counter value; then the rows with O
        not all-zero (index >= d) move one counter value up, cyclically.
        """
        y = self.source.unitary @ x
        d = self.source.system_dim
        y[:, d:] = np.roll(y[:, d:], 1, axis=0)
        return y

    @cached_property
    def base(self) -> BlockEncoding:
        """The dense wrapped encoding branch_shift(n, a, d) . (I_n x U); the source if n = 1."""
        be = self.source
        if self.order == 1:
            return be
        return BlockEncoding(
            unitary=branch_shift(self.order, be.ancilla_qubits, be.system_dim)
            @ np.kron(np.eye(self.order), be.unitary),
            ancilla_qubits=self.counter_qubits + be.ancilla_qubits,
            system_dim=be.system_dim,
        )


def _power_of_two_exponent(n: int) -> int:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValidationError(f"order must be a power of two, got {n}", module=_MOD)
    return n.bit_length() - 1


def incrementer(n: int) -> np.ndarray:
    """The n x n cyclic-shift permutation taking basis index x to (x + 1) mod n."""
    _power_of_two_exponent(n)
    q = np.zeros((n, n), dtype=np.complex128)
    q[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
    return q


def branch_shift(n: int, a: int, d: int) -> np.ndarray:
    """Conditional increment on the counter: identity when the original
    ancillas read zero, the cyclic shift otherwise.

    Acts on C (dimension n) x O (dimension 2^a) x S (dimension d). Equals the
    two-gate form: increment the counter, then undo it when O is all-zero.
    """
    _power_of_two_exponent(n)
    if a < 0 or d < 1:
        raise ValidationError(f"invalid register sizes a={a}, d={d}", module=_MOD)
    dim_o = 2**a
    size = n * dim_o * d
    cols = np.arange(size)
    i = cols // (dim_o * d)
    j = (cols // d) % dim_o
    i_next = np.where(j == 0, i, (i + 1) % n)
    rows = (i_next * dim_o + j) * d + cols % d
    shift = np.zeros((size, size), dtype=np.complex128)
    shift[rows, cols] = 1.0
    return shift


def regularize(be: BlockEncoding, n: int) -> RegularizedEncoding:
    """Wrap a block-encoding so its first n powers encode the matrix powers.

    The wrapped unitary is branch_shift(n, a, d) . (I_n x U) with b + a
    ancillas; its top-left block is identical to the input's, so the
    encoding error at k = 1 is untouched.
    """
    return RegularizedEncoding(source=be, order=n)
