"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import json
import math

import numpy as np

from qevt.errors import ValidationError
from qevt.gqsp import TAYLOR_TERMS, _signal_block
from qevt.linalg import PolynomialSpec, as_polynomial


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_contraction(rng: np.random.Generator, dim: int, norm: float = 0.9) -> np.ndarray:
    g = random_complex(rng, (dim, dim))
    return norm * g / np.linalg.norm(g, 2)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def circle_grid(count: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(count) / count)


def grid_sup(coeffs, count: int = 2**18) -> float:
    """Dense-grid sup of |P| on the circle, independent of the library routine.

    One zero-padded FFT gives the values at the count-th roots of unity
    (in reverse order, which leaves the maximum unchanged).
    """
    return float(np.max(np.abs(np.fft.fft(np.asarray(coeffs, dtype=np.complex128), count))))


def near_tie_coefficients() -> np.ndarray:
    """0.5 (1 + e^{i phi} z^300) (1 + delta z) / (1 + delta), degree 301, sup |P| 0.999999664.

    Its 300 equal peaks are tilted by the slow factor 1 + delta z, so a grid
    sample under a lower peak can beat every sample under the highest one.
    """
    comb = 0.5 * np.r_[1.0, np.zeros(299), np.exp(5.337317174616828j)]
    return np.convolve(comb, np.r_[1.0, 0.0786491915002826] / 1.0786491915002826)


def random_polynomial(
    rng: np.random.Generator, degree: int, sup: float = 0.9
) -> PolynomialSpec:
    """Random coefficients rescaled so the circle sup-norm is exactly `sup`."""
    coeffs = random_complex(rng, degree + 1)
    return PolynomialSpec(coeffs * (sup / grid_sup(coeffs)))


def outer_factor(coeffs, grid: int = 2**16) -> np.ndarray:
    """Q for |P|^2 + |Q|^2 = 1 from the outer function, independent of Newton's method.

    FFTs on ``grid`` points take the Fourier series of log(1 - |P|^2) / 2,
    keep its analytic half, exponentiate and transform back: the outer factor
    o, every root outside the closed disk and o_0 = exp(mean) > 0. Returns
    Q = conj(o[::-1]) of the degree of P, whose constant coefficient must be
    nonzero, and sup |P| < 1 well resolved by the grid.
    """
    p = np.asarray(coeffs, dtype=np.complex128)
    values = grid * np.fft.ifft(p, grid)  # P at the grid-th roots of unity
    log_outer = np.fft.rfft(0.5 * np.log1p(-np.abs(values) ** 2)) / grid
    log_outer[1:-1] *= 2.0  # the analytic half: positive frequencies carry their twins
    outer = np.fft.fft(np.exp(grid * np.fft.ifft(log_outer, grid))) / grid
    return np.conj(outer[: p.size][::-1])


def reference_strip(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Layer stripping on numpy 2-vectors, one layer at a time: the reference
    for the scalar loop in ``gqsp.synthesize`` (p, q of equal length n + 1).

    Each layer is the SU(2) matrix [[conj a, b], [-conj b, a]] of the unit
    leading pair (b, a) = (p_m, q_m) / |(p_m, q_m)|.
    """
    rotations = []
    for m in range(len(p) - 1, 0, -1):
        b, a = np.array([p[m], q[m]]) / np.linalg.norm([p[m], q[m]])
        rot = np.array([[np.conj(a), b], [-np.conj(b), a]])
        rotations.append(rot)
        pair = rot.conj().T @ np.vstack([p, q])
        p, q = pair[0, :m], pair[1, 1:]
    rotations.append(np.array([[p[0], -np.conj(q[0])], [q[0], np.conj(p[0])]]))
    rotations[-1] /= np.hypot(abs(p[0]), abs(q[0]))
    return np.array(rotations)


def naive_poly_apply(coeffs, a: np.ndarray) -> np.ndarray:
    """Sum of independently computed matrix powers (no Horner)."""
    out = np.zeros_like(np.asarray(a, dtype=np.complex128))
    for k, c in enumerate(coeffs):
        out += c * np.linalg.matrix_power(a, k)
    return out


def opnorm(a: np.ndarray) -> float:
    """Operator norm by ``np.linalg.norm(a, 2)`` (an SVD), bypassing the library's input checks."""
    return float(np.linalg.norm(a, 2))


def dense_circuit(seq, u: np.ndarray) -> np.ndarray:
    """Reference circuit (R_0 x I) C(U) (R_1 x I) ... C(U) (R_n x I) by dense products.

    C(U) = diag(I, U), the processing qubit most significant.
    """
    dim = u.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    cu = np.block([[eye, zero], [zero, u]])
    circuit = np.kron(seq.rotations[0], eye)
    for rot in seq.rotations[1:]:
        circuit = circuit @ cu @ np.kron(rot, eye)
    return circuit


def wrapped_unitary(u: np.ndarray, n: int, a: int, d: int) -> np.ndarray:
    """Reference regularized unitary by dense products: branch_shift . (I_n x U).

    The branch shift on C (dimension n) x O (2^a) x S (d) is the two-gate
    form: increment the counter, then undo it when O is all-zero.
    """
    dim_o = 2**a
    inc = np.roll(np.eye(n), 1, axis=0)  # basis index x -> (x + 1) mod n
    proj0 = np.zeros((dim_o, dim_o))
    proj0[0, 0] = 1.0
    undo = np.kron(np.kron(inc.T, proj0), np.eye(d)) + np.kron(
        np.kron(np.eye(n), np.eye(dim_o) - proj0), np.eye(d)
    )
    return undo @ np.kron(inc, np.eye(dim_o * d)) @ np.kron(np.eye(n), u)


def full_sector_block(seq, reg) -> np.ndarray:
    """Reference readout block with every counter sector carried through the circuit.

    The d columns with every ancilla at zero enter at counter 0, the
    regularized unitary acts on all order x 2^a * d rows through
    ``reg.apply``, and the block is read at counter 0 with every ancilla at
    zero. Only the counter-0 sector reaches that readout when deg P <= order.
    """
    d = reg.source.system_dim
    x = np.zeros((reg.order, reg.source.dim, d), dtype=np.complex128)
    x[0, :d] = np.eye(d)
    return _signal_block(seq, reg.apply, x)[0, :d]


def reference_emit_json(obj) -> str:
    """Reference JSON writer: one recursive call and one format per float.

    Matrices go through ``reference_matrix_payload`` first; the library's
    ``cli.emit_json`` must give the same bytes and the same errors.
    """
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{reference_emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x != x or x in (float("inf"), float("-inf")):
            raise ValidationError("cannot serialize non-finite float", module="cli")
        return f"{x:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ValidationError(f"cannot serialize {type(obj).__name__}", module="cli")


def reference_matrix_payload(m: np.ndarray) -> dict:
    """Reference matrix payload: a nested list of [re, im] float pairs, row-major."""
    rows, cols = m.shape
    data = [[float(v.real), float(v.imag)] for v in m.ravel()]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def reference_pairs_to_complex(pairs, what: str) -> np.ndarray:
    """Reference reader of [re, im] pairs: one type check and one complex() per entry."""
    values = []
    for entry in pairs:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise ValidationError(f"{what}: entries must be [real, imaginary] pairs", module="cli")
        values.append(complex(entry[0], entry[1]))
    arr = np.asarray(values, dtype=np.complex128)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValidationError(f"{what}: non-finite values", module="cli")
    return arr


def reference_sup(p) -> float:
    """``gqsp.sup_norm_on_circle`` with each zoom round evaluated by ``polyval``'s
    Horner passes over the Taylor rows: the reference for the batched zoom."""
    p = as_polynomial(p)
    parts = p.array.view(np.float64)
    exponent = math.frexp(float(np.max(np.abs(parts))))[1]
    coeffs = np.ldexp(parts, -exponent).view(np.complex128)
    n = p.degree
    grid = 1 << (8 * n + 7).bit_length()
    step = 2 * np.pi / grid
    orders = np.arange(TAYLOR_TERMS)
    factorials = np.cumprod(np.maximum(orders, 1), dtype=float)[:, None]
    terms = coeffs * (1j * step * np.arange(n + 1)) ** orders[:, None] / factorials
    taylor = grid * np.fft.ifft(terms, grid)
    values = np.abs(taylor[0]) ** 2
    best = float(values.max())
    deviation = 0.5 * (best - float(values.min())) / (1.0 - 0.5 * (np.pi * n / grid) ** 2)

    def slack(spacing: float) -> float:
        return (n * spacing * step) ** 2 * deviation / 8.0

    local = (values >= np.roll(values, 1)) & (values >= np.roll(values, -1))
    taylor = taylor[:, local & (values + slack(1.0) >= best)]
    centres = np.zeros(taylor.shape[1])
    width = 1.0
    offsets = np.linspace(-1.0, 1.0, 33)
    while centres.size and slack(width) > 2.0**-53 * best:
        points = centres + width * offsets[:, None]
        values = np.abs(np.polynomial.polynomial.polyval(points, taylor, tensor=False)) ** 2
        peak = np.argmax(values, axis=0), np.arange(values.shape[1])
        peaks = values[peak]
        best = max(best, float(peaks.max()))
        width /= 16.0
        keep = peaks + slack(width) >= best
        centres = points[peak][keep]
        taylor = taylor[:, keep]
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(best), exponent))
