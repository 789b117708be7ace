"""Generalized quantum signal processing on the unit circle.

Interleaving the signal operator diag(1, z) with 2x2 unitaries
R_0, ..., R_n realizes any degree-n polynomial P with |P| <= 1 on the
circle as the top-left entry of the product

    R_0 . diag(1, z) . R_1 . diag(1, z) ... diag(1, z) . R_n.

Synthesis runs in two stages: complete P to a pair (P, Q) with
|P|^2 + |Q|^2 = 1 on the circle (a Fejer-Riesz factor of 1 - |P|^2), then
strip one rotation per degree from the pair. The factor comes from FFTs of
log(1 - |P|^2) on a grid sized from the degree and sup |P| (the outer
function, Weiss style) when that grid has at most 2^15 points; closer to
the margin it comes from pairing the roots of the polynomial lift of
1 - |P|^2, taken as the eigenvalues of its companion matrix. P and Q on
roots of unity, on grids that grow with the degree, are one FFT each.
Replacing diag(1, z) with the controlled unitary diag(I, U) lifts the
scalar identity to a block-encoding of P(U) for unitary U. That circuit
is applied, never formed: the d columns entering with the processing
qubit at zero are carried through it, and only the block they leave in
the processing-0 half is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NormBoundError, NumericalError, ValidationError
from .linalg import PolynomialSpec, as_polynomial, ensure_square, operator_norm

_MOD = "gqsp"

ROTATION_TOL = 1e-12
SUP_MARGIN = 1e-6  # polynomials must satisfy sup |P| <= 1 - SUP_MARGIN for completion
OUTER_GRID_CAP = 2**15  # largest FFT grid for the outer-function completion (512 KiB per array)
STRIP_TOL = 1e-13  # both leading coefficients below this aborts layer stripping


@dataclass(frozen=True, eq=False)
class GqspSequence:
    """Rotations R_0..R_n realizing scale * P(z); scale is the applied subnormalization."""

    rotations: tuple[np.ndarray, ...]
    scale: float = field(default=1.0)

    def __post_init__(self):
        if not self.rotations:
            raise ValidationError("a sequence needs at least one rotation", module=_MOD)
        if not 0 < self.scale <= 1.0 + 1e-12:
            raise ValidationError(f"invalid subnormalization scale {self.scale}", module=_MOD)
        for k, rot in enumerate(self.rotations):
            if np.shape(rot) != (2, 2):
                raise ValidationError(f"rotation {k} is not 2x2", module=_MOD)
        stack = np.array(self.rotations, dtype=np.complex128)  # (n + 1, 2, 2), a copy
        if not np.all(np.isfinite(stack)):
            raise ValidationError("a rotation contains NaN or Inf entries", module=_MOD)
        gram = stack.conj().transpose(0, 2, 1) @ stack
        defects = np.max(np.abs(np.linalg.eigvalsh(gram - np.eye(2))), axis=1)
        bad = np.flatnonzero(defects > ROTATION_TOL)
        if bad.size:
            k = int(bad[0])
            raise ValidationError(
                f"rotation {k} is not unitary: defect {defects[k]:.3e}", module=_MOD
            )
        stack.setflags(write=False)
        object.__setattr__(self, "rotations", tuple(stack))

    @property
    def degree(self) -> int:
        return len(self.rotations) - 1


def _on_circle(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """P at the grid-th roots of unity, one FFT of the coefficients folded modulo grid."""
    folded = np.pad(coeffs, (0, -coeffs.size % grid)).reshape(-1, grid).sum(axis=0)
    return grid * np.fft.ifft(folded)


def sup_norm_on_circle(p) -> float:
    """max |P(z)| over the unit circle: an FFT grid of >= 4 (n + 1) points, then a zoom.

    Each round evaluates |P| at 33 points across the bracket (at first one grid step
    either side of the largest grid value), recentres on the largest and shrinks it 16x.
    """
    p = as_polynomial(p)
    grid = max(16384, 1 << (4 * p.degree + 3).bit_length())  # 2^ceil(log2 4(n + 1))
    values = np.abs(_on_circle(p.array, grid))
    i = int(np.argmax(values))
    best = float(values[i])
    centre, width = 2 * np.pi * i / grid, 4 * np.pi / grid
    while width > 1e-14:
        ts = centre + width * np.linspace(-0.5, 0.5, 33)
        values = np.abs(p(np.exp(1j * ts)))
        i = int(np.argmax(values))
        best = max(best, float(values[i]))
        centre, width = ts[i], width / 16
    return best


def _circle_deficit_coefficients(p: PolynomialSpec) -> np.ndarray:
    """Laurent coefficients c_{-n}..c_n of 1 - |P|^2 on the circle."""
    coeffs = p.array
    n = p.degree
    auto = np.convolve(coeffs, np.conj(coeffs[::-1]))  # index n + m holds sum_l p_{l+m} conj(p_l)
    c = -auto
    c[n] += 1.0
    return c


def complete(p) -> PolynomialSpec:
    """Companion polynomial Q with |P|^2 + |Q|^2 = 1 on the unit circle.

    Q is the factor of the trigonometric polynomial 1 - |P|^2 with every
    root inside the open unit disk and a real positive leading coefficient,
    of degree n_eff, the bandwidth of 1 - |P|^2: n minus the index of the
    lowest nonzero coefficient of P, exactly. It is computed one of two
    ways, chosen by the grid N = max(4096, 2^ceil(log2(16 (n_eff + 1) /
    sqrt(1 - sup|P|^2)))):

    - N <= 2^15: the outer function. FFTs on N points take the Fourier
      series of log|Q| = log(1 - |P|^2) / 2, keep its analytic half,
      exponentiate and transform back; the conjugate reversal of the
      first n_eff + 1 coefficients is Q. Coefficients beyond n_eff above
      1e-12 (the grid was too coarse) raise ``NumericalError``.
    - otherwise: the roots of the degree-2 n_eff lift of 1 - |P|^2, as
      the eigenvalues of its companion matrix (numpy's ``polyroots``, on
      the real eigenproblem when the lift is real). One root of each
      conjugate-reciprocal pair is kept (the inner one; roots caught
      outside are reflected inward), their monic product is rebuilt from
      its values on the roots of unity by one FFT, and the overall
      constant is fixed from the mean of 1 - |P|^2.

    Either way the result must satisfy |P|^2 + |Q|^2 = 1 within 1e-8 on
    max(4096, 2^ceil(log2 4(n + 1))) circle points, at least twice its
    bandwidth 2n. Requires sup |P| <= 1 - 1e-6 so no genuine roots sit on
    the circle; rescale the polynomial otherwise.
    """
    p = as_polynomial(p)
    return _complete(p, sup_norm_on_circle(p))


def _complete(p: PolynomialSpec, sup: float) -> PolynomialSpec:
    """``complete`` for a polynomial whose circle sup-norm is already known."""
    c = _circle_deficit_coefficients(p)
    n = p.degree
    mean_deficit = float(c[n].real)  # 1 - sum |p_k|^2, the Fourier mean of 1 - |P|^2
    if float(np.max(np.abs(c))) <= 1e-14:
        # |P| == 1 identically on the circle (a unimodular monomial): Q = 0 exactly
        return PolynomialSpec([0.0])
    # the tiny absolute slack keeps freshly rescaled polynomials, whose sup is
    # 1 - SUP_MARGIN up to rounding, from tripping on the margin they just met
    if sup > 1.0 - SUP_MARGIN + 1e-10:
        raise NormBoundError(
            f"sup |P| on the circle is {sup:.9g} > {1.0 - SUP_MARGIN}; "
            "rescale the polynomial before completing",
            module=_MOD,
            norm=sup,
        )
    # the exact bandwidth: c_m = 0 for m > n - ord0, and c_{n - ord0} = -p_n conj(p_ord0),
    # with ord0 the index of the lowest nonzero coefficient
    n_eff = n - int(np.argmax(p.array != 0))
    if n_eff == 0:
        return PolynomialSpec([np.sqrt(mean_deficit)])
    # log(1 - |P|^2) varies on the scale sqrt(1 - sup^2) / (n_eff + 1) in angle
    grid = max(4096, 1 << math.ceil(math.log2(16 * (n_eff + 1) / math.sqrt(1.0 - sup * sup))))
    if grid <= OUTER_GRID_CAP:
        q = _outer_completion(p, n_eff, grid)
    else:
        q = _root_completion(c[n - n_eff : n + n_eff + 1], n_eff, mean_deficit)

    # |P|^2 + |Q|^2 has bandwidth 2n: 4 (n + 1) points sample it at twice that
    check = max(4096, 1 << (4 * n + 3).bit_length())
    total = np.abs(_on_circle(p.array, check)) ** 2 + np.abs(_on_circle(q.array, check)) ** 2
    residual = float(np.max(np.abs(total - 1.0)))
    if residual > 1e-8:
        raise NumericalError(
            f"completion residual {residual:.3e} exceeds 1e-8 on {check} circle points",
            module=_MOD,
        )
    return q


def _outer_completion(p: PolynomialSpec, n_eff: int, grid: int) -> PolynomialSpec:
    """Q from the outer function exp(H) with Re H = log|Q| = log(1 - |P|^2) / 2 on the circle.

    Its coefficients come from FFTs on ``grid`` points: keep the analytic half
    of the Fourier series of log|Q|, exponentiate, transform back. The outer
    factor has no roots in the disk; its conjugate reversal has them all
    inside and the same modulus on the circle.
    """
    values = _on_circle(p.array, grid)
    log_q = np.fft.rfft(0.5 * np.log1p(-np.abs(values) ** 2)) / grid  # frequencies 0..grid/2
    log_q[1:-1] *= 2.0  # the analytic half: each positive frequency carries its negative twin
    outer = np.fft.fft(np.exp(grid * np.fft.ifft(log_q, grid))) / grid
    tail = float(np.max(np.abs(outer[n_eff + 1 :])))
    if tail > 1e-12:
        raise NumericalError(
            f"outer completion left coefficients up to {tail:.3e} beyond degree {n_eff} "
            f"on {grid} points",
            module=_MOD,
        )
    return _real_positive_lead(np.conj(outer[n_eff::-1]))


def _root_completion(lift: np.ndarray, n_eff: int, mean_deficit: float) -> PolynomialSpec:
    """Q from the roots of the degree-2*n_eff lift of 1 - |P|^2 inside the disk.

    The roots are the companion-matrix eigenvalues (of a real matrix when
    the lift is real); one of each conjugate-reciprocal pair is kept,
    reflected inward if it was caught outside, and their monic product is
    rebuilt by one FFT of its values on the roots of unity.
    """
    if not np.any(lift.imag):
        lift = lift.real
    try:
        roots = np.polynomial.polynomial.polyroots(lift)  # companion-matrix eigenvalues
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"root finding failed: {exc}", module=_MOD) from exc
    inner = roots[np.argsort(np.abs(roots))][:n_eff]
    inner = np.where(np.abs(inner) > 1.0, 1.0 / np.conj(inner), inner)
    size = 1 << math.ceil(math.log2(n_eff + 2))
    points = np.exp(2j * np.pi * np.arange(size) / size)
    values = np.ones(size, dtype=np.complex128)
    for r in inner:
        values *= points - r
        values /= np.max(np.abs(values))  # |z - r| <= 2: rescale so no product overflows
    coeffs = np.fft.fft(values)[: n_eff + 1]  # the monic product up to a positive factor
    return _real_positive_lead(coeffs * (np.sqrt(mean_deficit) / np.linalg.norm(coeffs)))


def _real_positive_lead(coeffs: np.ndarray) -> PolynomialSpec:
    """The polynomial times the unimodular factor that makes its leading coefficient positive."""
    lead = coeffs[-1]
    coeffs = coeffs * (np.conj(lead) / abs(lead))
    coeffs[-1] = abs(lead)
    return PolynomialSpec(coeffs)


def _unit_column(top: complex, bottom: complex) -> np.ndarray:
    norm = np.sqrt(abs(top) ** 2 + abs(bottom) ** 2)
    return np.array([top / norm, bottom / norm], dtype=np.complex128)


def synthesize(p) -> GqspSequence:
    """Rotation sequence whose scalar evaluation reproduces P on the circle.

    When sup |P| exceeds the 1 - 1e-6 completion margin, P is rescaled to fit
    and the factor is stored in the returned sequence's ``scale`` field, i.e.
    the sequence realizes scale * P.
    """
    p = as_polynomial(p)
    sup = sup_norm_on_circle(p)
    scale = 1.0
    if sup > 1.0 - SUP_MARGIN:
        deficit = float(np.max(np.abs(_circle_deficit_coefficients(p))))
        if deficit > 1e-14 or sup > 1.0 + 1e-12:
            scale = (1.0 - SUP_MARGIN) / sup
            p = p.scaled(scale)
    q = _complete(p, scale * sup)

    n = p.degree
    pc = p.array
    qc = np.zeros(n + 1, dtype=np.complex128)
    qc[: q.degree + 1] = q.array

    rotations = []
    for layer in range(n):
        m = n - layer
        top = np.sqrt(abs(pc[m]) ** 2 + abs(qc[m]) ** 2)
        if top < STRIP_TOL:
            raise NumericalError(
                f"degenerate layer {layer}: both degree-{m} coefficients vanish",
                module=_MOD,
            )
        col0 = _unit_column(np.conj(qc[m]), -np.conj(pc[m]))
        bottom = np.sqrt(abs(pc[0]) ** 2 + abs(qc[0]) ** 2)
        if bottom >= STRIP_TOL:
            col1 = _unit_column(np.conj(qc[0]), -np.conj(pc[0]))
            col1 = col1 - (col0.conj() @ col1) * col0  # analytically orthogonal already
            col1 = col1 / np.linalg.norm(col1)
        else:
            col1 = np.array([-np.conj(col0[1]), np.conj(col0[0])], dtype=np.complex128)
        rot = np.column_stack([col0, col1])
        rotations.append(rot)
        # conjugate the pair by the rotation: drop one degree on top, one constant below
        new_p = np.conj(rot[0, 0]) * pc + np.conj(rot[1, 0]) * qc
        new_q = np.conj(rot[0, 1]) * pc + np.conj(rot[1, 1]) * qc
        pc = new_p[:m]
        qc = new_q[1 : m + 1]

    closing = np.sqrt(abs(pc[0]) ** 2 + abs(qc[0]) ** 2)
    if abs(closing - 1.0) > 1e-6:
        raise NumericalError(
            f"layer stripping lost unitarity: final column norm {closing:.9f}", module=_MOD
        )
    last = np.array(
        [[pc[0], -np.conj(qc[0])], [qc[0], np.conj(pc[0])]], dtype=np.complex128
    )
    rotations.append(last / closing)
    return GqspSequence(rotations=tuple(rotations), scale=scale)


def evaluate_scalar(seq: GqspSequence, z):
    """Top-left entry of R_0 diag(1,z) R_1 ... diag(1,z) R_n at a point or array.

    Runs the circuit kernel with the signal z on one column per point.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zs) > 1.0 + 1e-12):
        raise ValidationError("evaluation points must lie in the closed unit disk", module=_MOD)
    flat = np.atleast_1d(zs).ravel()
    values = _signal_block(seq, lambda v: flat * v, np.ones(flat.size)).reshape(np.shape(zs))
    return complex(values) if np.isscalar(z) or np.shape(z) == () else values


def _grid_residual(seq: GqspSequence, p: PolynomialSpec, grid: int) -> float:
    """max |evaluate_scalar(seq, z) - scale * P(z)| over the grid-th roots of unity."""
    pts = np.exp(1j * (2 * np.pi * np.arange(grid) / grid))
    error = evaluate_scalar(seq, pts) - seq.scale * _on_circle(p.array, grid)
    return float(np.max(np.abs(error)))


def _signal_block(seq: GqspSequence, signal, x: np.ndarray) -> np.ndarray:
    """Processing-0 half of (R_0 x I) C(W) (R_1 x I) ... C(W) (R_n x I) [x; 0].

    ``signal`` applies the controlled operator W to the processing-1 half;
    the circuit matrix is never formed.
    """
    state = np.multiply.outer(seq.rotations[-1][:, 0], x)  # R_n [x; 0]
    for rot in seq.rotations[-2::-1]:
        state[1] = signal(state[1])
        state = (rot @ state.reshape(2, -1)).reshape(state.shape)
    return state[0]


def apply_to_operator(seq: GqspSequence, u) -> np.ndarray:
    """Top-left d x d block of (R_0 x I) C(U) (R_1 x I) ... C(U) (R_n x I).

    C(U) = diag(I, U) with the processing qubit most significant; the block
    is the realized polynomial applied to the unitary U.
    """
    u = ensure_square(u, name="signal unitary")
    defect = operator_norm(u.conj().T @ u - np.eye(u.shape[0]))
    if defect > 1e-9:
        raise ValidationError(f"signal operator is not unitary: defect {defect:.3e}", module=_MOD)
    return _signal_block(seq, lambda v: u @ v, np.eye(u.shape[0], dtype=np.complex128))
