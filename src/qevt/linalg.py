"""Dense complex matrix kernel.

Matrices are plain two-dimensional ``numpy`` arrays with dtype complex128,
row-major, with finite entries; these helpers validate and operate on them.
Throughout the package the norm of a matrix is its operator norm (largest
singular value), and ``operator_norm`` is the one routine that computes it,
by SVD; ``as_unitary`` is the one rule for unitary inputs, and ``_built`` the
one constructor of the objects the package builds, which skips it. In every
tensor product the first factor is the more significant register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_array

_MOD = "linalg"

UNITARITY_TOL = 1e-9
MAX_DENSE_DIM = 2**14  # one complex matrix of this dimension is 4 GiB
MAX_TRUNCATION_ORDER = 2**20  # 35x the largest documented plan (degree 29949)


def ensure_square(values, *, name: str = "matrix") -> np.ndarray:
    arr = as_array(values, name, _MOD, ndim=2)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}", module=_MOD)
    return arr


def operator_norm(a) -> float:
    """Largest singular value from LAPACK's SVD, which scales internally and forms no
    A^dag A: exact to rounding for finite entries up to the top of the float range."""
    return float(np.linalg.svd(as_array(a, "matrix", _MOD, ndim=2), compute_uv=False)[0])


def as_unitary(values, name: str, module: str, *, tol: float, ndim: int = 2) -> np.ndarray:
    """A read-only copy of ``as_array(values)``: square matrices U (a stack of them if ndim
    is 3) with ||U^dag U - I|| <= tol. ||E|| <= ||E||_F, so a small Frobenius norm of the
    defect E accepts without the SVD; otherwise operator_norm(E) decides: inf where the
    product overflowed, and a NaN never passes."""
    u = as_array(values, name, module, ndim=ndim).copy()
    if u.shape[-1] != u.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {u.shape}", module=module)
    stack = u.reshape(-1, *u.shape[-2:])
    with np.errstate(over="ignore", invalid="ignore"):  # finite entries past ~1e154
        defects = stack.conj().transpose(0, 2, 1) @ stack
        defects -= np.eye(u.shape[-1])  # in place: a new stack for the difference is slower
        parts = defects.view(np.float64).reshape(len(stack), -1)  # real and imaginary parts
        frobenius = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    for k in np.flatnonzero(~(frobenius <= tol)):
        norm = operator_norm(defects[k]) if np.isfinite(defects[k]).all() else np.inf
        if norm > tol:
            where = name if u.ndim == 2 else f"{name}[{k}]"
            message = f"{where} is not unitary: ||U^dag U - I|| = {norm:.3e} > {tol:g}"
            raise ValidationError(message, module=module)
    u.setflags(write=False)
    return u


def _built(cls, **fields):
    """A frozen dataclass instance of values this package has just built and nothing else
    refers to: arrays are made read-only in place and __post_init__ is skipped, so there
    is no copy and no recheck. The tests hold such objects to the rules inputs pass."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


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
