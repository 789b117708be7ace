"""Analytic front-ends: certified Taylor truncations and Jordan-form tools.

Each planner returns the coefficient vector of a truncated power series
together with a certified uniform error bound on the closed unit disk,
double-checked on a deterministic sample of the disk. Jordan utilities
build matrices from a prescribed Jordan form and evaluate polynomials on
single Jordan blocks through exact derivative shifts; no numerical Jordan
decomposition of arbitrary input is attempted (that problem is ill-posed).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .linalg import PolynomialSpec, as_matrix, as_polynomial, ensure_square, operator_norm

_MOD = "analytic"

DEFAULT_EXP_SCALE = 1.0 / 3.0  # keeps |e^z| * scale below 1 on the closed disk


@dataclass(frozen=True, eq=False)
class TruncationPlan:
    """Truncated series with a certified sup-error bound on the unit disk."""

    order: int
    coefficients: PolynomialSpec
    certified_error: float


@dataclass(frozen=True, eq=False)
class JordanForm:
    """Similarity transform S and Jordan blocks (eigenvalue, size)."""

    similarity: np.ndarray
    blocks: tuple[tuple[complex, int], ...]


def disk_samples(count: int) -> np.ndarray:
    """Deterministic, well-spread points of the closed unit disk (sunflower layout)."""
    k = np.arange(1, count + 1)
    radius = np.sqrt(k / count)
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    return radius * np.exp(1j * golden_angle * k)


def _check_on_disk(plan_values, target_values, bound: float, what: str) -> None:
    worst = float(np.max(np.abs(plan_values - target_values)))
    if worst > bound:
        raise NumericalError(
            f"{what}: sample error {worst:.3e} exceeds the certified bound {bound:.3e}",
            module=_MOD,
        )


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:  # also False on NaN
        raise ValidationError(f"eps must be positive and finite, got {eps}", module=_MOD)


def shifted_inverse_plan(c: complex, eps: float) -> TruncationPlan:
    """Geometric-series truncation of 1/(c - z) for a pole outside the disk.

    Coefficients are 1/c^{k+1}; the order N = ceil(log_|c|(1/(eta eps)))
    with eta = |c| - 1 makes the geometric tail at most eps on the disk.
    """
    c = complex(c)
    _check_eps(eps)
    if not cmath.isfinite(c):
        raise ValidationError(f"the pole c = {c} must be finite", module=_MOD)
    mod = abs(c)
    if mod <= 1.0:
        raise ValidationError(
            f"|c| = {mod:.6g} <= 1: the pole lies in the closed disk", module=_MOD
        )
    eta = mod - 1.0
    n = max(0, math.ceil(math.log(1.0 / (eta * eps), mod)))
    coeffs = [1.0 / c ** (k + 1) for k in range(n + 1)]
    tail = mod ** -(n + 1) / eta
    pts = disk_samples(1000)
    plan = PolynomialSpec(coeffs)
    _check_on_disk(plan(pts), 1.0 / (c - pts), max(tail, eps), "shifted inverse truncation")
    return TruncationPlan(order=n, coefficients=plan, certified_error=tail)


def exp_plan(eps: float) -> TruncationPlan:
    """Taylor truncation of DEFAULT_EXP_SCALE * e^z with factorial tail bound 2/(N+1)!.

    The order is the smallest N with 2/(N+1)! <= eps; the ratio between
    consecutive tail terms is at most 1/2, so the geometric majorant is
    valid for every N >= 0.
    """
    _check_eps(eps)
    n = 0
    while 2.0 / math.factorial(n + 1) > eps:
        n += 1
    coeffs = [DEFAULT_EXP_SCALE / math.factorial(k) for k in range(n + 1)]
    tail = DEFAULT_EXP_SCALE * 2.0 / math.factorial(n + 1)
    pts = disk_samples(1000)
    plan = PolynomialSpec(coeffs)
    target = DEFAULT_EXP_SCALE * np.exp(pts)
    _check_on_disk(plan(pts), target, max(tail, eps), "exponential truncation")
    return TruncationPlan(order=n, coefficients=plan, certified_error=tail)


def taylor_truncation_order(r: float, m: float, eps: float) -> int:
    """Truncation order from an analytic continuation radius r > 1 and bound m.

    For f analytic and bounded by m on |z| < r, keeping the Taylor terms up
    to N = ceil(log_r(m / ((r-1) eps))) leaves a tail of at most eps on the
    closed unit disk.
    """
    if not 1.0 < r < math.inf:  # also False on NaN
        raise ValidationError(f"radius must exceed 1 and be finite, got {r}", module=_MOD)
    if not (0 < m < math.inf and 0 < eps < math.inf):
        raise ValidationError("bound and eps must be positive and finite", module=_MOD)
    return max(0, math.ceil(math.log(m / ((r - 1.0) * eps), r)))


def jordan_block(eigenvalue: complex, size: int) -> np.ndarray:
    """size x size block: the eigenvalue on the diagonal, ones on the superdiagonal."""
    if size < 1:
        raise ValidationError("block size must be positive", module=_MOD)
    block = np.eye(size, dtype=np.complex128) * complex(eigenvalue)
    block += np.diag(np.ones(size - 1), 1)
    return block


def jordan_poly(p, eigenvalue: complex, size: int) -> np.ndarray:
    """P applied to a Jordan block: upper-triangular Toeplitz of P^(k)(lambda)/k!."""
    if size < 1:
        raise ValidationError("block size must be positive", module=_MOD)
    p = as_polynomial(p)
    out = np.zeros((size, size), dtype=np.complex128)
    deriv = p
    for k in range(size):
        value = complex(deriv(complex(eigenvalue))) / math.factorial(k)
        np.fill_diagonal(out[:, k:], value)  # the k-th superdiagonal
        deriv = deriv.derivative()
    return out


def assemble_from_jordan(jf: JordanForm) -> np.ndarray:
    """Reconstruct A = S . blockdiag(J_i) . S^{-1} from a prescribed Jordan form."""
    s = ensure_square(as_matrix(jf.similarity, name="similarity"), name="similarity")
    if not jf.blocks:
        raise ValidationError("at least one Jordan block is required", module=_MOD)
    sizes = [size for _, size in jf.blocks]
    if not all(isinstance(size, numbers.Integral) and size >= 1 for size in sizes):
        raise ValidationError(
            f"Jordan block sizes must be positive integers, got {sizes}", module=_MOD
        )
    total = sum(sizes)
    if total != s.shape[0]:
        raise ValidationError(
            f"blocks cover dimension {total} but similarity is {s.shape[0]} x {s.shape[0]}",
            module=_MOD,
        )
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        raise ValidationError("similarity matrix is singular", module=_MOD) from None
    cond = operator_norm(s) * operator_norm(s_inv)
    if cond > 1e6:
        raise ValidationError(
            f"similarity matrix is too ill-conditioned: cond = {cond:.3e} > 1e6",
            module=_MOD,
        )
    j = np.zeros((total, total), dtype=np.complex128)
    offset = 0
    for eigenvalue, size in jf.blocks:
        j[offset : offset + size, offset : offset + size] = jordan_block(eigenvalue, size)
        offset += size
    return s @ j @ s_inv
