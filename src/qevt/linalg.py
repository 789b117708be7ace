"""Dense complex matrix kernel.

Matrices are plain two-dimensional ``numpy`` arrays with dtype complex128,
row-major, with finite entries; these helpers validate and operate on them.
Throughout the package the norm of a matrix is its operator norm (largest
singular value), and ``operator_norm`` is the one routine that computes it,
by SVD. In every tensor product the first factor is the more
significant register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_array

_MOD = "linalg"


def as_matrix(values, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a validated complex matrix (2-D, nonempty, finite): ``as_array``'s rule."""
    return as_array(values, name, _MOD, ndim=2)


def ensure_square(values, *, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(values, name=name)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}", module=_MOD)
    return arr


def operator_norm(a) -> float:
    """Largest singular value from LAPACK's SVD, which scales internally and forms no
    A^dag A: exact to rounding for finite entries up to the top of the float range."""
    return float(np.linalg.svd(as_matrix(a), compute_uv=False)[0])


@dataclass(frozen=True)
class PolynomialSpec:
    """Complex polynomial a_0 + a_1 z + ... + a_n z^n, lowest coefficient first.

    Trailing zero coefficients are trimmed on construction (at least one
    coefficient is kept), so ``degree`` is the true degree except for the
    zero polynomial, which has degree 0 by convention.
    """

    coefficients: tuple[complex, ...] = field()

    def __init__(self, coefficients):
        coeffs = as_array(coefficients, "polynomial coefficients", _MOD, ndim=1).tolist()
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=np.complex128)

    def __call__(self, z):
        """Evaluate at a scalar or array of points."""
        return np.polynomial.polynomial.polyval(np.asarray(z), self.array)

    def derivative(self) -> "PolynomialSpec":
        """Formal derivative via exact coefficient shifts."""
        if self.degree == 0:
            return PolynomialSpec([0.0])
        shifted = [k * c for k, c in enumerate(self.coefficients)][1:]
        return PolynomialSpec(shifted)

    def scaled(self, factor: complex) -> "PolynomialSpec":
        return PolynomialSpec([factor * c for c in self.coefficients])


def as_polynomial(p) -> PolynomialSpec:
    return p if isinstance(p, PolynomialSpec) else PolynomialSpec(p)


def horner_eval(p, a) -> np.ndarray:
    """Evaluate a polynomial at a square matrix by Horner's scheme."""
    p = as_polynomial(p)
    a = ensure_square(a)
    d = a.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    coeffs = p.coefficients
    result = coeffs[-1] * eye
    for c in reversed(coeffs[:-1]):
        result = result @ a + c * eye
    return result
