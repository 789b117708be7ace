"""Analytic front-ends: certified Taylor truncations and Jordan-form tools.

Each planner returns the coefficient vector of a truncated power series
with a certified uniform error bound on the closed unit disk, checked on a
deterministic disk sample up to the rounding of the check itself. Jordan
utilities build matrices from a prescribed Jordan form and evaluate
polynomials on single Jordan blocks from their Taylor coefficients at the
eigenvalue, by repeated synthetic division; no numerical Jordan
decomposition of arbitrary input is attempted (that problem is ill-posed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NumericalError, ValidationError, as_complex, as_count, as_real
from .linalg import (
    MAX_DENSE_DIM,
    MAX_TRUNCATION_ORDER,
    PolynomialSpec,
    as_polynomial,
    ensure_square,
    operator_norm,
)

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
    count = as_count(count, "sample count", _MOD, most=MAX_TRUNCATION_ORDER)
    k = np.arange(1, count + 1)
    radius = np.sqrt(k / count)
    golden_angle = np.pi * (3.0 - np.sqrt(5.0))
    return radius * np.exp(1j * golden_angle * k)


def _check_on_disk(plan: PolynomialSpec, target, bound: float, what: str) -> None:
    """Compare plan and target on 1000 disk samples: ``bound`` (exact arithmetic) plus rounding.

    Higham (Accuracy and Stability of Numerical Algorithms, Lemma 3.5, section
    5.1): a complex sum is exact to u, a product to sqrt(2) gamma_2 <= gamma_3, so
    Horner's rule, at most k products and k + 1 sums on c_k z^k, errs by at most
    gamma_{4(n+1)} sum |c_k| |z|^k <= gamma_{4(n+1)} sum |c_k| on the disk. Either
    target (a sum and a quotient, sqrt(2) gamma_4; or libm's exp, cos, sin and two
    products) is within gamma_8 |f(z)|. The stored coefficients are what is
    checked: their rounding is not allowed for.
    """
    pts = disk_samples(1000)
    values = target(pts)
    error = np.abs(plan(pts) - values)
    ku = np.array([4 * (plan.degree + 1), 8]) * 2.0**-53
    gamma_plan, gamma_target = ku / (1.0 - ku)
    allowed = bound + gamma_plan * np.sum(np.abs(plan.array)) + gamma_target * np.abs(values)
    if not (error <= allowed).all():  # also on NaN
        worst = int(np.argmax(error - allowed))  # a NaN, if any
        message = f"{what}: sample error {error[worst]:.3e} exceeds the certified bound"
        rounding = allowed[worst] - bound
        raise NumericalError(f"{message} {bound:.3e} plus rounding {rounding:.3e}", module=_MOD)


def shifted_inverse_plan(c: complex, eps: float) -> TruncationPlan:
    """Geometric-series truncation of 1/(c - z) for a pole outside the disk.

    Coefficients are 1/c^{k+1}, at most |c|^-k: N = taylor_truncation_order(|c|, 1, eps)
    bounds the geometric tail by eps on the disk. An order past MAX_TRUNCATION_ORDER, or a
    1/((|c| - 1) eps) or |c|^(N+1) past the float range, is a ValidationError.
    """
    c = as_complex(c, "the pole c", _MOD)
    eps = as_real(eps, "eps", _MOD, above=0)
    mod = as_real(abs(c), "the pole's modulus |c|", _MOD, above=1)  # outside the closed disk
    n = taylor_truncation_order(mod, 1.0, eps)
    if n > MAX_TRUNCATION_ORDER:
        message = f"truncation order {n} for |c| = {mod!r}, eps = {eps!r}"
        raise ValidationError(f"{message} exceeds the cap {MAX_TRUNCATION_ORDER}", module=_MOD)
    try:
        plan = PolynomialSpec([1.0 / c ** (k + 1) for k in range(n + 1)])
    except OverflowError:  # c^(k+1) is past the float range
        message = f"|c|^(N + 1) = {mod!r}^{n + 1} is above the float range"
        raise ValidationError(message, module=_MOD) from None
    tail = mod ** -(n + 1) / (mod - 1.0)
    _check_on_disk(plan, lambda z: 1.0 / (c - z), max(tail, eps), "shifted inverse truncation")
    return TruncationPlan(order=n, coefficients=plan, certified_error=tail)


def exp_plan(eps: float) -> TruncationPlan:
    """Taylor truncation of DEFAULT_EXP_SCALE * e^z with factorial tail bound 2/(N+1)!.

    The order is the smallest N with 2/(N+1)! <= eps; the ratio between
    consecutive tail terms is at most 1/2, so the geometric majorant is
    valid for every N >= 0. An eps below 2/170!, the last such bound in the
    float range (171! is past it), is a ValidationError.
    """
    eps = as_real(eps, "eps", _MOD, above=0)
    floor = 2.0 / math.factorial(170)
    if eps < floor:
        message = f"eps must be at least 2/170! = {floor:.6g}, got {eps!r}"
        raise ValidationError(message, module=_MOD)
    n = 0
    while 2.0 / math.factorial(n + 1) > eps:
        n += 1
    plan = PolynomialSpec([DEFAULT_EXP_SCALE / math.factorial(k) for k in range(n + 1)])
    tail = DEFAULT_EXP_SCALE * 2.0 / math.factorial(n + 1)
    _check_on_disk(
        plan, lambda z: DEFAULT_EXP_SCALE * np.exp(z), max(tail, eps), "exponential truncation"
    )
    return TruncationPlan(order=n, coefficients=plan, certified_error=tail)


def taylor_truncation_order(r: float, m: float, eps: float) -> int:
    """Truncation order from an analytic continuation radius r > 1 and bound m.

    For f analytic and bounded by m on |z| < r, keeping the Taylor terms up
    to N = ceil(log_r(m / ((r-1) eps))) leaves a tail of at most eps on the
    closed unit disk. An m / ((r-1) eps) past the float range is a ValidationError.
    """
    r = as_real(r, "radius", _MOD, above=1)
    m = as_real(m, "bound", _MOD, above=0)
    eps = as_real(eps, "eps", _MOD, above=0)
    try:
        ratio = m / ((r - 1.0) * eps)
        return math.ceil(math.log(ratio, r)) if ratio > 1.0 else 0  # log(0) if it underflows
    except (ZeroDivisionError, OverflowError):  # (r - 1) eps is 0, or the ratio inf
        message = f"m / ((r - 1) * eps) = {m!r} / ({r - 1.0!r} * {eps!r}) is above the float range"
        raise ValidationError(message, module=_MOD) from None


def jordan_block(eigenvalue: complex, size: int) -> np.ndarray:
    """size x size block: the eigenvalue on the diagonal, ones on the superdiagonal."""
    eigenvalue = as_complex(eigenvalue, "eigenvalue", _MOD)
    size = as_count(size, "block size", _MOD, least=1, most=MAX_DENSE_DIM)
    block = np.eye(size, dtype=np.complex128) * eigenvalue
    block += np.diag(np.ones(size - 1), 1)
    return block


def jordan_poly(p, eigenvalue: complex, size: int) -> np.ndarray:
    """P applied to a Jordan block: upper-triangular Toeplitz of P^(k)(lambda)/k!, the Taylor
    coefficients of P at lambda. Each is the remainder of one more synthetic division by
    z - lambda (Horner's scheme): no factorial or derivative is formed; k > deg P gives 0."""
    eigenvalue = as_complex(eigenvalue, "eigenvalue", _MOD)
    size = as_count(size, "block size", _MOD, least=1, most=MAX_DENSE_DIM)
    coeffs = as_polynomial(p).coefficients
    out = np.zeros((size, size), dtype=np.complex128)
    for k in range(min(size, len(coeffs))):
        # Horner's partial sums, highest first: the quotient's coefficients, then P(lambda)
        *quotient, remainder = accumulate(reversed(coeffs), lambda q, c: q * eigenvalue + c)
        np.fill_diagonal(out[:, k:], remainder)  # the k-th superdiagonal
        coeffs = quotient[::-1]
    return out


def assemble_from_jordan(jf: JordanForm) -> np.ndarray:
    """Reconstruct A = S . blockdiag(J_i) . S^{-1} from a prescribed Jordan form."""
    s = ensure_square(jf.similarity, name="similarity")
    try:
        pairs = [(eigenvalue, size) for eigenvalue, size in jf.blocks]
    except (TypeError, ValueError):  # not an iterable of pairs
        raise ValidationError("blocks must be (eigenvalue, size) pairs", module=_MOD) from None
    if not pairs:
        raise ValidationError("at least one Jordan block is required", module=_MOD)
    # eigenvalues are checked by jordan_block below
    total = sum(as_count(size, "block size", _MOD, least=1) for _, size in pairs)
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
    for eigenvalue, size in pairs:
        j[offset : offset + size, offset : offset + size] = jordan_block(eigenvalue, size)
        offset += size
    return s @ j @ s_inv
