"""Power-regularization of block-encodings with a counter register.

Any block-encoding can be made n-regular (its k-th power encodes A^k for
all 0 <= k <= n, n a power of two) by prepending a b = log2(n) qubit
counter that is incremented whenever the original ancillas leave their
all-zero state. Failed branches are thereby tagged and can no longer
re-enter the success branch until the counter wraps around after n calls.

The wrapped unitary is the branch shift times (I_n tensor U): U acts on
every counter value, then the counter is incremented (cyclically) on the
rows where the original ancillas are not all zero. It is applied to
columns without being formed; the dense matrix is built from the same
application only on request.

Register order, most significant first: counter (C), original ancillas
(O), system (S). The success index stays at row/column 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .encoding import BlockEncoding
from .errors import ValidationError, _shown, as_count
from .linalg import MAX_DENSE_DIM, _built

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
        order = as_count(self.order, "order", _MOD, least=1)
        if order & (order - 1):
            message = f"order must be a power of two, got {_shown(order)}"
            raise ValidationError(message, module=_MOD)
        object.__setattr__(self, "order", order)

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
        order, dim, cols = x.shape
        # one 2-D product: numpy's matmul broadcasting U over the counter
        # axis does not reach BLAS (~100x slower at D = 512)
        y = self.source.unitary @ x.transpose(1, 0, 2).reshape(dim, order * cols)
        y = y.reshape(dim, order, cols).transpose(1, 0, 2)
        d = self.source.system_dim
        y[:, d:] = np.roll(y[:, d:], 1, axis=0)
        return y

    @cached_property
    def base(self) -> BlockEncoding:
        """The dense wrapped encoding (branch shift times I_n tensor U); the source if n = 1.

        Built by applying the wrapped unitary to every basis column, up to MAX_DENSE_DIM.
        It is unitary by construction and is not rechecked (see ``linalg._built``).
        """
        be = self.source
        if self.order == 1:
            return be
        dim = self.order * be.dim
        if dim > MAX_DENSE_DIM:
            message = f"dense unitary dimension {self.order} * {be.dim} = {dim}"
            raise ValidationError(f"{message} exceeds the cap {MAX_DENSE_DIM}", module=_MOD)
        columns = np.eye(dim, dtype=np.complex128).reshape(self.order, be.dim, dim)
        # a fresh array that nothing else holds: apply's product, reordered by the reshape
        unitary = self.apply(columns).reshape(dim, dim)
        a = self.counter_qubits + be.ancilla_qubits
        return _built(BlockEncoding, unitary=unitary, ancilla_qubits=a, system_dim=be.system_dim)


def regularize(be: BlockEncoding, n: int) -> RegularizedEncoding:
    """Wrap a block-encoding so its first n powers encode the matrix powers.

    The wrapped unitary, the branch shift times (I_n tensor U), has b + a
    ancillas; its top-left block is identical to the input's, so the
    encoding error at k = 1 is untouched.
    """
    return RegularizedEncoding(source=be, order=n)
