"""The three benchmark workloads: seeded inputs, one operation, an oracle.

Every input is built here from the workload seed; the library receives
only those inputs. Each oracle is computed with numpy alone, never with
qevt, and raises ``Mismatch`` when an output is wrong.

A deck is the smallest unit of the mix (one operation per input kind of
the workload); a pass is a fixed number of decks, one after another and
each in its own seeded order, so every input kind is sampled evenly
through the pass; a run repeats whole passes, so every pass of a run
does identical work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

ORACLE_TOL = 1e-8


class Mismatch(Exception):
    """An output failed its oracle (kind "OracleMismatch") or byte check ("ByteMismatch")."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class Case:
    label: str
    data: dict
    counts: dict = field(default_factory=dict)  # computed per-operation figures


def _rng(seed: int, workload: int, deck: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, deck])


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _scaled_matrix(rng: np.random.Generator, d: int, norm: float) -> np.ndarray:
    g = _gaussian(rng, (d, d))
    return norm * g / np.linalg.norm(g, 2)


def _circle_max(coeffs: np.ndarray) -> float:
    """max |P| on a 64x oversampled grid of roots of unity, by one FFT."""
    grid = max(4096, 1 << (64 * len(coeffs) - 1).bit_length())
    return float(np.max(np.abs(np.fft.fft(coeffs, grid))))


def _random_poly(rng: np.random.Generator, degree: int, sup: float) -> np.ndarray:
    c = _gaussian(rng, degree + 1)
    return sup * c / _circle_max(c)


def _exp_coeffs(eps: float, scale: float = 1.0 / 3.0) -> np.ndarray:
    """Taylor coefficients of scale * e^z up to the first order with 2/(N+1)! <= eps."""
    n = 0
    while 2.0 / math.factorial(n + 1) > eps:
        n += 1
    return np.array([scale / math.factorial(k) for k in range(n + 1)], dtype=complex)


def _inverse_coeffs(c: float, eps: float) -> np.ndarray:
    """Geometric coefficients 1/c^(k+1) of 1/(c - z) up to the documented
    order N = ceil(log_c(1/((c - 1) eps)))."""
    n = max(0, math.ceil(math.log(1.0 / ((c - 1.0) * eps), c)))
    return np.array([c ** -(k + 1) for k in range(n + 1)], dtype=complex)


def _counter_order(degree: int) -> int:
    return 1 if degree <= 1 else 1 << (degree - 1).bit_length()


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want, 2) / max(1.0, np.linalg.norm(want, 2)))


def _matrix_poly(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    return sum(c * np.linalg.matrix_power(a, k) for k, c in enumerate(coeffs))


def _jordan_poly(coeffs: np.ndarray, s: np.ndarray, blocks) -> np.ndarray:
    """S . blockdiag(T_i) . S^-1 with T_i upper-triangular Toeplitz of P^(k)(lambda_i)/k!."""
    dim = s.shape[0]
    t = np.zeros((dim, dim), dtype=complex)
    offset = 0
    for lam, size in blocks:
        for k in range(size):
            value = npoly.polyval(lam, npoly.polyder(coeffs, k)) / math.factorial(k)
            idx = np.arange(offset, offset + size - k)
            t[idx, idx + k] = value
        offset += size
    return s @ t @ np.linalg.inv(s)


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch("OracleMismatch", message)


class Workload:
    name = ""
    ident = 0
    deck_s = 1.0  # nominal seconds per deck at the seed; sizes a pass to --seconds

    def __init__(self, qevt, seed: int, decks: int, workdir: str):
        self.qevt = qevt
        self.seed = seed
        self.workdir = workdir
        self.cases = []
        for k in range(decks):
            rng = _rng(seed, self.ident, k)
            deck = self.deck(rng, k)
            self.cases += [deck[i] for i in rng.permutation(len(deck))]
        self.warmup = self.deck(_rng(seed, self.ident, 10**6), 0)[0]

    def deck(self, rng: np.random.Generator, k: int) -> list[Case]:
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, output) -> float:
        """Raise Mismatch if the output is wrong; return its error."""
        raise NotImplementedError


class CircuitWorkload(Workload):
    """qevt.transform over a fixed mix of (d, n), matrix kinds and polynomial kinds."""

    name = "circuit"
    ident = 1
    # A deck takes about 3.7 s at the seed, but a pass is sized at 4.5 s per
    # deck: a 30 s pass then holds 7 decks, so the median falls in the
    # middle of the seven (4, 16) operations and the tail percentile (ten
    # samples beyond it) in the middle of the seven (8, 16) operations,
    # below the seven (16, 16) ones.
    deck_s = 4.5
    # (4, 8) appears twice so a deck has an odd number of operations: the
    # median latency then falls inside one shape's cluster, not between two
    SHAPES = ((4, 8), (4, 8), (8, 8), (16, 8), (4, 16), (8, 16), (16, 16))
    MATRIX_KINDS = ("contraction", "norm1.5", "jordan")
    RANDOM_KINDS = ("sup0.9", "sup1.2")
    # The plans (degrees 13 and 10) go to (4, 16) and (16, 16) only: (8, 16)
    # holds the tail percentile, which stays steadier when that shape always
    # runs at the full degree 16.
    ALL_KINDS = ("sup0.9", "sup1.2", "exp", "inverse")

    def __init__(self, qevt, seed, decks, workdir):
        self.exp_plan = qevt.exp_plan(1e-10).coefficients
        self.inverse_plan = qevt.shifted_inverse_plan(2.0, 1e-3).coefficients
        super().__init__(qevt, seed, decks, workdir)

    def _matrix(self, rng, kind: str, d: int) -> dict:
        if kind == "contraction":
            return {"a": _scaled_matrix(rng, d, 0.9)}
        if kind == "norm1.5":
            return {"a": _scaled_matrix(rng, d, 1.5)}
        sizes = [int(rng.integers(2, 5))]
        while sum(sizes) < d:
            sizes.append(int(rng.integers(1, 5)))
        sizes[-1] -= sum(sizes) - d
        lams = 0.5 * np.sqrt(rng.random(len(sizes))) * np.exp(2j * np.pi * rng.random(len(sizes)))
        blocks = tuple((complex(lam), size) for lam, size in zip(lams, sizes))
        g = _gaussian(rng, (d, d))
        s = np.eye(d) + 0.2 * g / np.linalg.norm(g, 2)
        a = self.qevt.assemble_from_jordan(self.qevt.JordanForm(similarity=s, blocks=blocks))
        return {"a": a, "similarity": s, "blocks": blocks}

    def _poly(self, rng, kind: str, n: int):
        """(polynomial handed to the library, the oracle's own coefficients)."""
        if kind == "exp":
            return self.exp_plan, _exp_coeffs(1e-10)
        if kind == "inverse":
            return self.inverse_plan, _inverse_coeffs(2.0, 1e-3)
        coeffs = _random_poly(rng, n, 0.9 if kind == "sup0.9" else 1.2)
        return coeffs, coeffs

    def deck(self, rng, k):
        cases = []
        for slot, (d, n) in enumerate(self.SHAPES):
            mkind = self.MATRIX_KINDS[(k + slot) % len(self.MATRIX_KINDS)]
            pkinds = self.ALL_KINDS if (d, n) in ((4, 16), (16, 16)) else self.RANDOM_KINDS
            pkind = pkinds[(k + slot) % len(pkinds)]
            data = self._matrix(rng, mkind, d)
            data["poly"], data["coeffs"] = self._poly(rng, pkind, n)
            degree = len(data["coeffs"]) - 1
            order = _counter_order(degree)
            dim = 4 * order * d
            counts = {
                "degree": degree,
                "gflop": 16 * degree * dim**3 / 1e9,
                "read_entries": d * d,
                "circuit_entries": dim * dim,
                "unitary_bytes": 16 * (2 * order * d) ** 2,
            }
            cases.append(Case(f"d{d}n{n}/{mkind}/{pkind}", data, counts))
        return cases

    def run(self, case):
        return self.qevt.transform(case.data["a"], case.data["poly"])

    def check(self, case, report):
        coeffs = case.data["coeffs"]
        degree = len(coeffs) - 1
        if "blocks" in case.data:
            want = _jordan_poly(coeffs, case.data["similarity"], case.data["blocks"])
        else:
            want = _matrix_poly(coeffs, case.data["a"])
        err = _rel_error(np.asarray(report.result_block), want)
        _check(err <= ORACLE_TOL, f"{case.label}: block error {err:.3e}")
        _check(
            report.controlled_calls == degree,
            f"{case.label}: {report.controlled_calls} controlled calls for degree {degree}",
        )
        ancillas = 2 + _counter_order(degree).bit_length() - 1
        _check(
            report.total_ancillas == ancillas,
            f"{case.label}: {report.total_ancillas} ancillas, expected {ancillas}",
        )
        return err


class SynthesisWorkload(Workload):
    """qevt.synthesize plus the grid residual, as `qevt synthesize` computes it."""

    name = "synthesis"
    ident = 2
    # A deck takes about 2.8 s at the seed, but a pass is sized at 2.3 s per
    # deck: a 30 s pass then holds 13 decks, so the tail percentile (ten
    # samples beyond it) falls among the thirteen deterministic
    # --inverse 1.1 --eps 1e-6 failures instead of straddling them and the
    # randomly occurring slow failures of the random polynomials.
    deck_s = 2.3
    # Ten operations per deck: four are faster than --inverse 1.5 --eps 1e-6
    # and random degree 64, four slower, so the median latency falls in the
    # middle of those two overlapping kinds, not at the edge of a gap.
    DEGREES = (16, 32, 64, 96, 128)
    PLANS = (("exp", 1e-10), (2.0, 1e-3), (1.5, 1e-6), (1.1, 1e-3), (1.1, 1e-6))
    LIB_GRID = 4096  # the `qevt synthesize` default --grid
    ORACLE_GRID = 8192

    def __init__(self, qevt, seed, decks, workdir):
        theta = 2 * np.pi * np.arange(self.LIB_GRID) / self.LIB_GRID
        self.lib_points = np.exp(1j * theta)
        # half-step offset: no point is shared with the library's grid
        theta = 2 * np.pi * (np.arange(self.ORACLE_GRID) + 0.5) / self.ORACLE_GRID
        self.oracle_points = np.exp(1j * theta)
        super().__init__(qevt, seed, decks, workdir)

    def deck(self, rng, k):
        cases = [
            Case(f"random{n}", {"coeffs": _random_poly(rng, n, 0.9)}) for n in self.DEGREES
        ]
        for c, eps in self.PLANS:
            if c == "exp":
                cases.append(Case(f"exp/{eps:g}", {"plan": ("exp", eps), "coeffs": _exp_coeffs(eps)}))
            else:
                cases.append(
                    Case(
                        f"inverse{c:g}/{eps:g}",
                        {"plan": (c, eps), "coeffs": _inverse_coeffs(c, eps)},
                    )
                )
        return cases

    def run(self, case):
        q = self.qevt
        plan = case.data.get("plan")
        if plan is None:
            poly = q.PolynomialSpec(case.data["coeffs"])
        elif plan[0] == "exp":
            poly = q.exp_plan(plan[1]).coefficients
        else:
            poly = q.shifted_inverse_plan(plan[0], plan[1]).coefficients
        seq = q.synthesize(poly)
        pts = self.lib_points
        residual = float(np.max(np.abs(q.evaluate_scalar(seq, pts) - seq.scale * poly(pts))))
        return poly, seq, residual

    def check(self, case, output):
        poly, seq, residual = output
        coeffs = case.data["coeffs"]
        got = np.asarray(poly.coefficients, dtype=complex)
        _check(
            got.shape == coeffs.shape and np.allclose(got, coeffs, rtol=1e-13, atol=0),
            f"{case.label}: polynomial coefficients differ from the series",
        )
        degree = len(coeffs) - 1
        _check(
            len(seq.rotations) == degree + 1,
            f"{case.label}: {len(seq.rotations)} rotations for degree {degree}",
        )
        z = self.oracle_points
        vec = np.repeat(np.asarray(seq.rotations[-1])[:, [0]], z.size, axis=1)
        for rot in seq.rotations[-2::-1]:
            vec = np.asarray(rot) @ np.vstack([vec[0], z * vec[1]])
        err = float(np.max(np.abs(vec[0] - seq.scale * npoly.polyval(z, coeffs))))
        _check(err <= ORACLE_TOL, f"{case.label}: oracle grid residual {err:.3e}")
        _check(residual <= ORACLE_TOL, f"{case.label}: reported grid residual {residual:.3e}")
        return err


def _write_matrix(path: str, a: np.ndarray) -> None:
    data = [[float(v.real), float(v.imag)] for v in a.ravel()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": a.shape[0], "cols": a.shape[1], "data": data}, fh)


def _read_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    pairs = np.asarray(payload["data"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(payload["rows"], payload["cols"])


class InterchangeWorkload(Workload):
    """The CLI chain dilate -> regularize --order N -> verify --order N, in process."""

    name = "interchange"
    ident = 3
    # A deck takes about 4 s at the seed; 4.3 s per deck gives a 30 s pass
    # of 7 decks.
    deck_s = 4.3
    # (4, 8) twice: an odd number of operations per deck (see CircuitWorkload.SHAPES)
    SHAPES = ((4, 8), (4, 8), (4, 16), (8, 8), (8, 16), (16, 8), (16, 16))
    EXIT_TYPES = {1: "OracleMismatch", 2: "ValidationError", 3: "NormBoundError", 4: "NumericalError"}

    def __init__(self, qevt, seed, decks, workdir):
        # with two decks or more every input set is used by at least two
        # decks, so identical inputs recur within a pass and their report
        # bytes can be compared
        self.input_sets = max(1, decks // 2)
        self.digests: dict[str, str] = {}
        super().__init__(qevt, seed, decks, workdir)

    def deck(self, rng, k):
        set_id = k % self.input_sets
        rng = _rng(self.seed, self.ident, 1000 + set_id)  # the input set, not the deck, seeds A
        cases = []
        for slot, (d, n) in enumerate(self.SHAPES):
            a = _scaled_matrix(rng, d, 0.9)
            src = os.path.join(self.workdir, f"A{set_id}_{slot}.json")
            if not os.path.exists(src):
                _write_matrix(src, a)
            stem = os.path.join(self.workdir, f"out{slot}")
            data = {"a": a, "src": src, "order": n, "stem": stem, "input": f"{set_id}/{slot}"}
            counts = {"unitary_bytes": 16 * (2 * d * n) ** 2}
            cases.append(Case(f"d{d}N{n}", data, counts))
        return cases

    def run(self, case):
        main = self.qevt.cli.main
        stem, n = case.data["stem"], case.data["order"]
        ancillas = str(1 + n.bit_length() - 1)
        steps = (
            ["dilate", case.data["src"], stem + "_U.json"],
            ["regularize", stem + "_U.json", stem + "_R.json", "--order", str(n)],
            ["verify", stem + "_R.json", case.data["src"], "--ancillas", ancillas,
             "--order", str(n), "--report", stem + "_V.json"],
        )
        for argv in steps:
            code = main(argv)
            if code != 0:
                raise Mismatch(self.EXIT_TYPES.get(code, f"Exit{code}"), f"{argv[0]} exit {code}")
        return None

    def check(self, case, _output):
        stem, src = case.data["stem"], case.data["src"]
        outputs = [stem + "_U.json", stem + "_R.json", stem + "_V.json"]
        sizes = {p: os.path.getsize(p) for p in outputs + [src]}
        case.counts["bytes_written"] = sum(sizes[p] for p in outputs)
        # dilate reads A, regularize reads U, verify reads R and A
        case.counts["bytes_read"] = 2 * sizes[src] + sizes[outputs[0]] + sizes[outputs[1]]

        with open(outputs[2], "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh.read().splitlines()]
        order = lines[-1]["order"]
        _check(order >= case.data["order"], f"{case.label}: verified order {order}")
        d = case.data["a"].shape[0]
        r = _read_matrix(outputs[1])
        _check(np.array_equal(r[:d, :d], case.data["a"]), f"{case.label}: top-left block != A")
        defect = float(np.max(np.abs(r.conj().T @ r - np.eye(r.shape[0]))))
        _check(defect <= ORACLE_TOL, f"{case.label}: regularized unitary defect {defect:.3e}")

        digest = hashlib.sha256()
        for p in outputs:
            with open(p, "rb") as fh:
                digest.update(fh.read())
        key = case.data["input"]
        if self.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            raise Mismatch("ByteMismatch", f"{case.label}: reports differ for input {key}")
        return max([entry["error"] for entry in lines[:-1]] + [defect])


WORKLOADS = {w.name: w for w in (CircuitWorkload, SynthesisWorkload, InterchangeWorkload)}
