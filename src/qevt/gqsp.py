"""Generalized quantum signal processing on the unit circle.

Interleaving the signal operator diag(1, z) with 2x2 unitaries
R_0, ..., R_n realizes any degree-n polynomial P with |P| <= 1 on the
circle as the top-left entry of the product

    R_0 . diag(1, z) . R_1 . diag(1, z) ... diag(1, z) . R_n.

Synthesis runs in two stages: complete P to a pair (P, Q) with
|P|^2 + |Q|^2 = 1 on the circle (a Fejer-Riesz factor of 1 - |P|^2), then
strip one rotation per degree from the pair. The factor is found by
Wilson's Newton iteration on its coefficients, from Newton's closed-form
first iterate from a constant: the same real system for every degree (a
monomial's constant factor included), with dense solves at low degree and
GMRES on FFT correlations above (inexact Newton, no matrix). Each layer is
stripped by the SU(2) rotation of the pair's leading coefficients alone, on
Python scalars and two vector updates: no orthogonalization, so rounding
does not grow from layer to layer. Multiplied back on coefficients, the
rotations give the realized polynomial: a scalar loop over runs of layers,
the runs' 2x2 polynomial matrices merged pairwise by FFT products (the
forward product tree). Every check on roots of unity is one FFT call on
coefficients (P and Q together, or the realized polynomial minus P), on
grids that grow with the degree; the sup-norm zooms from a degree-sized
grid, one product per round. Replacing diag(1, z) with the controlled unitary
diag(I, U) lifts the scalar identity to a block-encoding of P(U) for
unitary U. That circuit is applied, never formed: the d columns entering
with the processing qubit at zero are carried through it, and only the
block they leave in the processing-0 half is returned. Rotations given from
outside (to ROTATION_TOL) and U (to UNITARITY_TOL) are unitary by
linalg.as_unitary's rule; synthesize's own rotations are not rechecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NormBoundError, NumericalError, ValidationError, _shown, as_array, as_real
from .linalg import UNITARITY_TOL, PolynomialSpec, _built, as_polynomial, as_unitary

_MOD = "gqsp"

ROTATION_TOL = 1e-12
SUP_MARGIN = 1e-6  # polynomials must satisfy sup |P| <= 1 - SUP_MARGIN for completion
NEWTON_TOL = 4e-16  # completion converged: every deficit coefficient matched within this times c_0
NEWTON_STEPS = 30  # Newton steps allowed for the completion before it fails
TAYLOR_TERMS = 20  # the sup-norm zoom's expansions: the dropped terms are below 1e-19 ||p||_1
# completions of degree m >= KRYLOV_MIN_ORDER take matrix-free Newton steps: on two
# cores the dense and Krylov steps cost the same near m = 85, dense growing as m^3
KRYLOV_MIN_ORDER = 96
KRYLOV_FORCING = 1e-4  # a Krylov step stops at this relative linearized residual
KRYLOV_ITERATIONS = 100  # GMRES iterations allowed per Newton step
STRIP_TOL = 1e-13  # both leading coefficients below this aborts layer stripping
# the realized polynomial runs the scalar loop on products of at most FORWARD_LEAF
# rotations and merges longer ones by FFT: just above 512 the two cost the same
FORWARD_LEAF = 512


@dataclass(frozen=True, eq=False)
class GqspSequence:
    """Rotations R_0..R_n realizing scale * P(z); scale is the applied subnormalization."""

    rotations: np.ndarray  # (n + 1, 2, 2), read-only
    scale: float = field(default=1.0)

    def __post_init__(self):
        if as_real(self.scale, "subnormalization scale", _MOD, above=0) > 1.0 + 1e-12:
            message = f"subnormalization scale must be at most 1, got {_shown(self.scale)}"
            raise ValidationError(message, module=_MOD)
        stack = as_unitary(self.rotations, "rotations", _MOD, tol=ROTATION_TOL, ndim=3)
        if stack.shape[1:] != (2, 2):
            raise ValidationError(f"rotations must be 2x2, got shape {stack.shape}", module=_MOD)
        object.__setattr__(self, "rotations", stack)

    @property
    def degree(self) -> int:
        return len(self.rotations) - 1


def _on_circle(coeffs: np.ndarray, grid: int) -> np.ndarray:
    """Each row of coefficients at the grid-th roots of unity: one FFT call, rows
    longer than the grid folded modulo grid first."""
    size = coeffs.shape[-1]
    if size > grid:
        padding = [(0, 0)] * (coeffs.ndim - 1) + [(0, -size % grid)]
        coeffs = np.pad(coeffs, padding).reshape(*coeffs.shape[:-1], -1, grid).sum(axis=-2)
    return grid * np.fft.ifft(coeffs, grid)


def sup_norm_on_circle(p) -> float:
    """max |P(z)| over the unit circle: an FFT grid of 2^ceil(log2 8(n + 1)) points, then a zoom.

    f = |P|^2 is a trigonometric polynomial of degree n, so Bernstein's inequality
    bounds |f''| by n^2 ||f - c||, and ||f - c|| (c the midrange of the samples) by
    their half-spread over 1 - (pi n / N)^2 / 2. The maximum of f therefore lies at
    most (n s)^2 ||f - c|| / 8 above the nearest of samples spaced s apart. Every grid
    local maximum within that slack of the best sample is zoomed: each round evaluates
    33 points across every bracket on the Taylor expansions of P about the brackets'
    grid points (their coefficients from FFTs) as one product, the powers u^1..u^19 of
    the real offsets by one cumulative product and then one sum weighted by the Taylor
    rows; it recentres each bracket on its largest value, shrinks it 16x and drops the
    brackets that can no longer beat the best, until the slack is below rounding.

    The coefficients are first divided by 2^e, the power of two just above their
    largest real or imaginary part, and the result is multiplied back: exact for
    every step below, so |P|^2 cannot overflow and a finite result is unchanged.
    """
    p = as_polynomial(p)
    parts = p.array.view(np.float64)  # real and imaginary parts, interleaved
    exponent = math.frexp(float(np.max(np.abs(parts))))[1]
    coeffs = np.ldexp(parts, -exponent).view(np.complex128)
    n = p.degree
    grid = 1 << (8 * n + 7).bit_length()  # 2^ceil(log2 8(n + 1))
    step = 2 * np.pi / grid
    # row r holds sum_k p_k (i k step)^r / r! z^k at the grid points: the Taylor
    # coefficients of P(z e^{i u step}) in u, with |k step u| < 0.85 for |u| < 1.07
    orders = np.arange(TAYLOR_TERMS)
    factorials = np.cumprod(np.maximum(orders, 1), dtype=float)[:, None]
    terms = coeffs * (1j * step * np.arange(n + 1)) ** orders[:, None] / factorials
    taylor = grid * np.fft.ifft(terms, grid)
    values = np.abs(taylor[0]) ** 2
    best = float(values.max())
    # a bound on ||f - c||, c the midrange of the samples
    deviation = 0.5 * (best - float(values.min())) / (1.0 - 0.5 * (np.pi * n / grid) ** 2)

    def slack(spacing: float) -> float:
        return (n * spacing * step) ** 2 * deviation / 8.0

    local = (values >= np.roll(values, 1)) & (values >= np.roll(values, -1))
    taylor = taylor[:, local & (values + slack(1.0) >= best)]
    centres = np.zeros(taylor.shape[1])  # in grid steps from each bracket's grid point
    width = 1.0  # half-width of every bracket, in grid steps
    offsets = np.linspace(-1.0, 1.0, 33)
    while centres.size and slack(width) > 2.0**-53 * best:
        points = centres + width * offsets[:, None]
        powers = np.cumprod(points[None].repeat(TAYLOR_TERMS - 1, axis=0), axis=0)  # u^1..u^19
        values = np.abs(taylor[0] + np.einsum("rk,rpk->pk", taylor[1:], powers)) ** 2
        peak = np.argmax(values, axis=0), np.arange(values.shape[1])
        peaks = values[peak]
        best = max(best, float(peaks.max()))
        width /= 16.0
        keep = peaks + slack(width) >= best
        centres = points[peak][keep]
        taylor = taylor[:, keep]
    with np.errstate(over="ignore"):  # a sup beyond the float range is inf
        return float(np.ldexp(math.sqrt(best), exponent))


def _autocorrelation(a: np.ndarray) -> np.ndarray:
    """sum_j a_{j+k} conj(a_j) for k = 0..len(a) - 1; the k < 0 half is its conjugate."""
    return np.convolve(a, np.conj(a[::-1]))[a.size - 1 :]


def _deficit(p: PolynomialSpec) -> np.ndarray:
    """The Laurent coefficients c_0..c_n of 1 - |P|^2 on the circle; c_-k = conj(c_k)."""
    c = -_autocorrelation(p.array)
    c[0] += 1.0
    return c


def complete(p) -> PolynomialSpec:
    """Companion polynomial Q with |P|^2 + |Q|^2 = 1 on the unit circle.

    Q is the factor of the trigonometric polynomial 1 - |P|^2 with every
    root inside the open unit disk and a real positive leading coefficient,
    of degree m = n_eff, the bandwidth of 1 - |P|^2: n minus the index of
    the lowest nonzero coefficient of P, exactly. Its conjugate reversal o
    is the outer factor, with every root outside the closed disk: Wilson's
    Newton iteration (``_wilson_newton``) solves sum_j o_{j+k} conj(o_j) = c_k,
    the Laurent coefficients of 1 - |P|^2 for k = 0..m, from c_{0..m} /
    sqrt(c_0), its first iterate from the constant sqrt(c_0), whose real part
    (c_0 + 1 - |P|^2) / (2 sqrt(c_0)) > 0 on the circle leaves no root in the
    closed disk. Every c_k must be met within 4e-16 c_0 in NEWTON_STEPS
    steps, else ``NumericalError``: 3-6 steps at sup |P| <= 0.9, 12-13 at the
    margin.

    The result must satisfy |P|^2 + |Q|^2 = 1 within 1e-8 on max(4096,
    2^ceil(log2 4(n + 1))) circle points, at least twice its bandwidth 2n.
    Requires sup |P| <= 1 - 1e-6 so no genuine roots sit on the circle;
    rescale the polynomial otherwise.
    """
    p = as_polynomial(p)
    return _complete(p, sup_norm_on_circle(p))


def _complete(p: PolynomialSpec, sup: float) -> PolynomialSpec:
    """``complete`` for a polynomial whose circle sup-norm is already known."""
    c = _deficit(p)
    n = p.degree
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
    outer = _wilson_newton(c[: n_eff + 1] / math.sqrt(c[0].real), c[: n_eff + 1])
    q = PolynomialSpec(np.conj(outer[::-1]))

    # |P|^2 + |Q|^2 has bandwidth 2n: 4 (n + 1) points sample it at twice that
    check = max(4096, 1 << (4 * n + 3).bit_length())
    pair = np.zeros((2, n + 1), dtype=np.complex128)
    pair[0], pair[1, : q.degree + 1] = p.array, q.array
    values = _on_circle(pair, check)
    total = np.abs(values[0]) ** 2 + np.abs(values[1]) ** 2
    residual = float(np.max(np.abs(total - 1.0)))
    if not residual <= 1e-8:
        raise NumericalError(
            f"completion residual {residual:.3e} exceeds 1e-8 on {check} circle points",
            module=_MOD,
        )
    return q


def _wilson_newton(outer: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Newton's method for sum_j o_{j+k} conj(o_j) = target_k, k = 0..m, from ``outer``.

    From an outer start every iterate stays outer (Wilson, SIAM J. Numer.
    Anal. 6, 1969). The step delta solves the linearization corr(delta, o)_k
    + corr(o, delta)_k = target_k - sum_j o_{j+k} conj(o_j), k = 0..m,
    corr(a, b)_k = sum_j a_{j+k} conj(b_j), with the gauge Im delta_0 = 0 (a
    real o_0 stays real): a real system in the 2m + 1 unknowns of ``_pack``
    (a monomial: m = 0). Below KRYLOV_MIN_ORDER it is solved densely, in
    O(m^3) time and O(m^2) memory; from there on by GMRES to relative
    residual KRYLOV_FORCING on FFT products (inexact Newton: Eisenstat &
    Walker 1996), in O(m log m) time per product and no matrix.
    """
    m = outer.size - 1
    tol = NEWTON_TOL * float(target[0].real)
    newton_step = _dense_steps(m) if m < KRYLOV_MIN_ORDER else _krylov_step

    error = target - _autocorrelation(outer)
    residual = float(np.max(np.abs(error)))
    steps, iterations = 0, None
    while residual > tol and steps < NEWTON_STEPS:  # False on NaN: stop and fail below
        step, iterations = newton_step(outer, error)
        outer = outer + step
        error = target - _autocorrelation(outer)
        residual = float(np.max(np.abs(error)))
        steps += 1
    if not residual <= tol:
        krylov = "" if iterations is None else f"; {iterations} Krylov iterations in the last"
        raise NumericalError(
            f"completion did not converge: coefficient residual {residual:.3e} "
            f"after {steps} Newton steps (tolerance {tol:.3e}{krylov})",
            module=_MOD,
        )
    return outer


def _pack(delta: np.ndarray) -> np.ndarray:
    """The real unknowns of a Newton step: Re delta_0..m, then Im delta_1..m (Im delta_0 = 0)."""
    return np.concatenate([delta.real, delta.imag[1:]])


def _unpack(u: np.ndarray) -> np.ndarray:
    """The complex step delta_0..m that ``_pack`` maps to u."""
    delta = u[: (u.size + 1) // 2] + 0j
    delta.imag[1:] = u[delta.size :]
    return delta


def _dense_steps(m: int):
    """Newton steps for degree m from one dense real LAPACK solve in 2m + 1 unknowns each.

    Writing the step as x + iy, the Jacobian is [[RT + RH, IT + IH], [IH - IT,
    RT - RH]] with T_{ki} = o_{i-k} (Toeplitz) and H_{kj} = o_{k+j} (Hankel),
    zero outside 0..m, R/I their real and imaginary parts, restricted to the
    rows and columns of ``_pack``: the gauge drops y_0, and the imaginary row of
    k = 0 vanishes. It is written in place from sliding windows over the
    zero-padded parts of o, set up once for all steps.
    """
    size = m + 1
    jacobian = np.empty((2 * m + 1, 2 * m + 1))
    padded = np.zeros((2, 3 * m + 1))  # real and imaginary parts of o between m zeros each side
    windows = np.lib.stride_tricks.sliding_window_view(padded, size, axis=1)
    (rt, it), (rh, ih) = windows[:, m::-1], windows[:, m:]  # [k, i]: o_{i-k}, o_{k+i}

    def step(outer: np.ndarray, error: np.ndarray) -> tuple[np.ndarray, None]:
        padded[0, m : 2 * m + 1] = outer.real
        padded[1, m : 2 * m + 1] = outer.imag
        np.add(rt, rh, out=jacobian[:size, :size])
        np.add(it[:, 1:], ih[:, 1:], out=jacobian[:size, size:])
        np.subtract(ih[1:], it[1:], out=jacobian[size:, :size])
        np.subtract(rt[1:, 1:], rh[1:, 1:], out=jacobian[size:, size:])
        try:
            return _unpack(np.linalg.solve(jacobian, _pack(error))), None
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"completion Newton step failed: {exc}", module=_MOD) from exc

    return step


def _jacobian_product(outer: np.ndarray):
    """u -> J u for the real Newton system at ``outer``, by FFTs; no matrix is formed.

    u and J u are laid out by ``_pack``: (J delta)_k = corr(delta, o)_k +
    corr(o, delta)_k for k = 0..m, whose k = 0 entry is real. With F the
    length-L DFT, L >= 2m + 1 so that no correlation wraps, J delta is
    F^-1(2 Re(F delta conj(F o))) on 0..m, the conjugate of one rfft divided
    by L: per product, one FFT of delta and one rfft; F o is taken once.
    """
    m = outer.size - 1
    length = 1 << (2 * m).bit_length()
    spectrum = np.conj(np.fft.fft(outer, length)) * (2.0 / length)

    def product(u: np.ndarray) -> np.ndarray:
        folded = np.fft.rfft((np.fft.fft(_unpack(u), length) * spectrum).real)
        return _pack(np.conj(folded[: m + 1]))

    return product


def _krylov_step(outer: np.ndarray, error: np.ndarray) -> tuple[np.ndarray, int]:
    """The Newton step from unrestarted GMRES on ``_jacobian_product``, and its iteration count.

    Arnoldi orthogonalizes twice (CGS2), Givens rotations keep the
    least-squares residual current, and the iteration stops once that is
    KRYLOV_FORCING times the right-hand side, or after KRYLOV_ITERATIONS (the
    step so far is taken; Newton's own test decides). A NaN, an overflow or a
    breakdown (a zero diagonal in the triangular factor: the Krylov space is
    invariant yet the step not found) is a ``NumericalError``.
    """
    product = _jacobian_product(outer)
    rhs = _pack(error)
    norm = float(np.linalg.norm(rhs))
    limit = min(KRYLOV_ITERATIONS, rhs.size)
    basis = np.empty((limit + 1, rhs.size))
    basis[0] = rhs / norm
    triangle = np.zeros((limit, limit))
    rotations: list[tuple[float, float]] = []
    projected = [norm]  # the least-squares right-hand side, rotated with the columns
    k = 0
    while abs(projected[k]) > KRYLOV_FORCING * norm and k < limit:
        w = product(basis[k])
        column = basis[: k + 1] @ w
        w -= column @ basis[: k + 1]
        again = basis[: k + 1] @ w
        w -= again @ basis[: k + 1]
        column += again
        beta = float(np.linalg.norm(w))
        rotated = column.tolist()
        for i, (c, s) in enumerate(rotations):
            top, below = rotated[i], rotated[i + 1]
            rotated[i], rotated[i + 1] = c * top + s * below, c * below - s * top
        diagonal = math.hypot(rotated[k], beta)
        if not 0.0 < diagonal < math.inf:  # also False on NaN
            raise NumericalError(
                f"completion Krylov step broke down at iteration {k + 1}: "
                f"triangular factor diagonal {diagonal:.3e}",
                module=_MOD,
            )
        c, s = rotated[k] / diagonal, beta / diagonal
        rotations.append((c, s))
        rotated[k] = diagonal
        triangle[: k + 1, k] = rotated
        projected.append(-s * projected[k])
        projected[k] *= c
        if beta > 0.0:
            basis[k + 1] = w / beta
        k += 1
    u = np.linalg.solve(triangle[:k, :k], projected[:k]) @ basis[:k]
    return _unpack(u), k


def synthesize(p) -> GqspSequence:
    """Rotation sequence whose scalar evaluation reproduces P on the circle.

    P is completed to (P, Q) and stripped one degree per layer by the SU(2)
    rotation [[conj a, b], [-conj b, a]] of the unit leading pair (b, a) =
    (p_m, q_m) / |(p_m, q_m)|, which clears the constant pair too: p_m conj(p_0)
    + q_m conj(q_0) is the z^m coefficient of |P|^2 + |Q|^2 = 1. A vanishing
    leading pair, or a final column that is not unit, is a ``NumericalError``.

    When sup |P| exceeds the 1 - 1e-6 completion margin, P is rescaled to fit
    and the factor is stored in the returned sequence's ``scale`` field, i.e.
    the sequence realizes scale * P. The rotations are unitary by construction
    and are stored read-only without a recheck (see ``linalg._built``).
    """
    p = as_polynomial(p)
    sup = sup_norm_on_circle(p)
    if sup == math.inf:
        message = "sup |P| on the circle is inf, beyond the float range; rescale the polynomial"
        raise NormBoundError(message, module=_MOD, norm=sup)
    scale = 1.0
    # only sup <= 1 + 1e-12 leaves room for a unimodular monomial, which completes as is
    if sup > 1.0 + 1e-12 or sup > 1.0 - SUP_MARGIN and np.max(np.abs(_deficit(p))) > 1e-14:
        scale = (1.0 - SUP_MARGIN) / sup
        p = p.scaled(scale)
    q = _complete(p, scale * sup)

    n = p.degree
    pc = p.array
    qc = np.zeros(n + 1, dtype=np.complex128)
    qc[: q.degree + 1] = q.array

    # per-layer scalars are Python complex numbers: numpy's overhead on 2-vectors
    # would outweigh the two length-m updates below until m is in the thousands
    rotations = np.empty((n + 1, 2, 2), dtype=np.complex128)
    for layer in range(n):
        m = n - layer
        lead_p, lead_q = pc.item(m), qc.item(m)
        top = math.hypot(lead_p.real, lead_p.imag, lead_q.real, lead_q.imag)
        if top < STRIP_TOL:
            raise NumericalError(
                f"degenerate layer {layer}: both degree-{m} coefficients vanish",
                module=_MOD,
            )
        # the SU(2) rotation of the leading pair, which also clears the constant one
        a, b = lead_q / top, lead_p / top
        rotations[layer] = ((a.conjugate(), b), (-b.conjugate(), a))
        # conjugate the pair by the rotation: drop one degree on top, one constant below
        pc, qc = a * pc[:m] - b * qc[:m], b.conjugate() * pc[1:] + a.conjugate() * qc[1:]

    const_p, const_q = pc.item(0), qc.item(0)
    closing = math.hypot(const_p.real, const_p.imag, const_q.real, const_q.imag)
    if abs(closing - 1.0) > 1e-6:
        raise NumericalError(
            f"layer stripping lost unitarity: final column norm {closing:.9f}", module=_MOD
        )
    rotations[n] = ((const_p, -const_q.conjugate()), (const_q, const_p.conjugate()))
    rotations[n] /= closing
    return _built(GqspSequence, rotations=rotations, scale=scale)


def evaluate_scalar(seq: GqspSequence, z):
    """Top-left entry of R_0 diag(1,z) R_1 ... diag(1,z) R_n at a point or array.

    Runs the circuit kernel with the signal z on one column per point: the
    points are arbitrary, so there is no FFT to share (``_grid_residual`` has
    one, on the roots of unity).
    """
    zs = as_array(z, "evaluation points", _MOD)
    if not np.all(np.abs(zs) <= 1.0 + 1e-12):
        raise ValidationError("evaluation points must lie in the closed unit disk", module=_MOD)
    flat = zs.ravel()
    values = _signal_block(seq, lambda v: flat * v, np.ones(flat.size)).reshape(zs.shape)
    return complex(values) if zs.ndim == 0 else values


def _grid_residual(seq: GqspSequence, p: PolynomialSpec, grid: int) -> float:
    """max |R(z) - scale * P(z)| over the grid-th roots of unity, R the realized polynomial.

    R's coefficients (``_realized``) minus scale * P at the grid points by one
    FFT, folded modulo grid: no circuit runs per point, so the kernel's own
    rounding there, about n units in the last place, does not enter it.
    """
    error = np.polynomial.polynomial.polysub(_realized(seq.rotations), seq.scale * p.array)
    return float(np.max(np.abs(_on_circle(error, grid))))


def _realized(rotations: np.ndarray) -> np.ndarray:
    """Coefficients of the top-left entry of R_0 D R_1 D ... D R_n, D = diag(1, z).

    The product ``_signal_block`` forms on points, carried on coefficients by
    a tree: the halves' 2 x 2 polynomial matrices are multiplied by FFT,
    T(0..n) = T(0..m-1) D T(m..n), column 0 only at the top; runs of at most
    FORWARD_LEAF rotations are multiplied by the scalar loop of ``_leaf``.
    """
    return _forward(rotations, 1)[0, 0]


def _forward(rotations: np.ndarray, columns: int) -> np.ndarray:
    """(2, columns, k) coefficients of the first columns of R_0 D ... D R_{k-1}."""
    k = len(rotations)
    if k <= FORWARD_LEAF:
        return _leaf(rotations, columns)
    half = k // 2
    left = _forward(rotations[:half], 2)
    right = _forward(rotations[half:], columns)
    shifted = np.zeros((2, columns, k - half + 1), dtype=np.complex128)  # D times the right half
    shifted[0, :, :-1], shifted[1, :, 1:] = right
    size = 1 << (k - 1).bit_length()  # the product has degree k - 1: no coefficient wraps
    lf, rf = np.fft.fft(left, size), np.fft.fft(shifted, size)
    return np.fft.ifft(lf[:, [0]] * rf[0] + lf[:, [1]] * rf[1])[..., :k]


def _leaf(rotations: np.ndarray, columns: int) -> np.ndarray:
    """``_forward`` by the scalar loop: R_{k-1}'s first columns, then per layer,
    from the right, the Q row times z and one rotation on Python scalars.

    P's coefficient i is kept at top[i] and Q's at low[k - length + i], so the
    next layer's P with a zero on top and z Q are top[:length + 1] and
    low[k - length - 1:], updated in place.
    """
    k = len(rotations)
    top = np.zeros((k, columns), dtype=np.complex128)
    low = np.zeros((k, columns), dtype=np.complex128)
    top[0], low[-1] = rotations[-1, :, :columns]
    for length, ((a, b), (c, d)) in enumerate(rotations[-2::-1].tolist(), start=2):
        p, q = top[:length], low[k - length :]
        bq = b * q
        q *= d
        q += c * p
        p *= a
        p += bq
    return np.stack([top.T, low.T])


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


def _operator_block(seq: GqspSequence, w: np.ndarray) -> np.ndarray:
    """Top-left d x d block of (R_0 x I) C(W) (R_1 x I) ... C(W) (R_n x I): QSP on a d x d W."""
    return _signal_block(seq, lambda v: w @ v, np.eye(len(w), dtype=np.complex128))


def apply_to_operator(seq: GqspSequence, u) -> np.ndarray:
    """Top-left d x d block of (R_0 x I) C(U) (R_1 x I) ... C(U) (R_n x I).

    C(U) = diag(I, U) with the processing qubit most significant; the block
    is the realized polynomial applied to U, unitary by ``as_unitary``'s rule.
    """
    return _operator_block(seq, as_unitary(u, "signal operator", _MOD, tol=UNITARITY_TOL))
