"""Command-line interface with JSON matrix interchange.

Matrices travel as ``{"rows": r, "cols": c, "data": [[re, im], ...]}``
(row-major), polynomials as ``{"coefficients": [[re, im], ...]}``. A file
that is an ASCII JSON object whose one array is those pairs is read by
byte operations and one ``json.loads`` of its numbers (``_fast_payload``),
with no Python list per entry; any other takes ``json.load``, which alone
words the errors. All reports are emitted deterministically: fixed key
order, floats printed with 17 significant digits (zeros as ``0`` and
``-0`` without formatting), so identical inputs produce byte-identical
output. Exit codes: 0 success, 1 tolerance threshold exceeded, 2 input
error, 3 norm violation, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import sys

import numpy as np

from . import analytic, encoding, evt, gqsp
from .errors import NormBoundError, QevtError, ValidationError, as_count, as_real
from .linalg import MAX_DENSE_DIM, PolynomialSpec, ensure_square, horner_eval, operator_norm
from .regularize import regularize as regularize_encoding

_MOD = "cli"

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_INPUT = 2
EXIT_NORM = 3
EXIT_NUMERIC = 4

SYNTHESIZE_GRID = 4096  # `synthesize` reports its residual on these roots of unity


# ---------------------------------------------------------------------------
# deterministic JSON


def emit_json(obj) -> str:
    """Serialize with stable key order and 17-significant-digit floats.

    A numpy array is written as nested lists (one level per axis) of
    ``[real, imaginary]`` pairs in one %-format call. Its template holds the
    literals ``0`` and ``-0`` at zero parts, which is what ``%.17g`` prints
    for them, so only the nonzero parts are formatted.
    """
    if isinstance(obj, np.ndarray):
        if not np.all(np.isfinite(obj)):
            raise ValidationError("cannot serialize non-finite float", module=_MOD)
        parts = np.stack([obj.real, obj.imag], axis=-1)
        zero = parts == 0
        if zero.any():
            kinds = np.where(zero, 1 + np.signbit(parts), 0)
            codes = (3 * kinds[..., 0] + kinds[..., 1]).ravel().tolist()
            templates = list(map(_PAIR_TEMPLATES.__getitem__, codes))
            values = parts[~zero]
        else:
            templates = [_PAIR_TEMPLATES[0]] * (parts.size // 2)
            values = parts.ravel()
        return _nested(templates, obj.shape) % tuple(values.tolist())
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{emit_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(emit_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValidationError("cannot serialize non-finite float", module=_MOD)
        return f"{float(obj):.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ValidationError(f"cannot serialize {type(obj).__name__}", module=_MOD)


# the template of one [re, im] pair, by the kind of each part: 0 nonzero, 1 zero, 2 minus zero
_PAIR_TEMPLATES = [f"[{re},{im}]" for re in ("%.17g", "0", "-0") for im in ("%.17g", "0", "-0")]


def _nested(items: list[str], shape) -> str:
    """The strings ``items``, in row-major order, as JSON lists nested along ``shape``."""
    if len(shape) <= 1:
        return "[" + ",".join(items) + "]" if shape else items[0]
    step = math.prod(shape[1:])
    rows = (_nested(items[k * step : (k + 1) * step], shape[1:]) for k in range(shape[0]))
    return "[" + ",".join(rows) + "]"


def matrix_payload(m: np.ndarray) -> dict:
    rows, cols = m.shape
    return {"rows": int(rows), "cols": int(cols), "data": m.ravel()}


def _load_json(path: str, key: str) -> dict:
    """The file's top-level JSON object.

    A document the fast reader takes comes back with its pairs under ``key``
    already a complex vector; any other goes through ``json.load`` of the
    UTF-8 text, as ``open(path, encoding="utf-8")`` reads it, and
    ``_pairs_to_complex`` later: the one source of error messages.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", module=_MOD) from None
    payload = _fast_payload(raw, key)
    if payload is not None:
        return payload
    try:
        payload = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", module=_MOD) from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal past Python's digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}", module=_MOD) from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top-level JSON object expected", module=_MOD)
    return payload


def _fast_payload(raw: bytes, key: str) -> dict | None:
    """The document with the pairs under ``key`` as a complex vector, or None.

    One document shape is taken: ASCII text of a JSON object whose one array,
    from the first ``[`` to the last ``]``, holds only ``[re, im]`` pairs of
    finite JSON numbers and sits at ``key``. Byte deletions and counts check
    the array's brackets and commas; one ``json.loads`` of the array without
    its inner brackets parses the numbers, so JSON's own grammar decides what
    is a number, and one more parses the object with ``[]`` in the array's
    place. Any other document, this reader declines (None) rather than raise.
    """
    start, end = raw.find(b"["), raw.rfind(b"]") + 1
    if start < 0 or end <= start:
        return None
    array = raw[start:end]
    compact = array.translate(None, b" \t\n\r")  # JSON's whitespace
    skeleton = compact.translate(None, b"0123456789+-.eE")  # a byte no number holds stays
    pairs = len(skeleton) // 4
    if (
        skeleton != b"[" + b"[,]," * (pairs - 1) + b"[,]]"
        # and no number outside a pair: none after the outer [, around "],[" or before the outer ]
        or not (compact.startswith(b"[[") and compact.endswith(b"]]"))
        or compact.count(b"],") != pairs - 1
        or compact.count(b",[") != pairs - 1
    ):
        return None
    try:
        numbers = json.loads(b"[" + array.translate(None, b"[]") + b"]")
        payload = json.loads((raw[:start] + b"[]" + raw[end:]).decode("ascii"))
        values = np.array(numbers, dtype=np.float64)
    except (ValueError, OverflowError):  # not JSON; past the digit limit or the float range
        return None
    # [] is the only array left, so a list at `key` is where the pairs were
    if (
        not isinstance(payload, dict)
        or type(payload.get(key)) is not list
        or not np.all(np.isfinite(values))
    ):
        return None
    payload[key] = values.view(np.complex128)
    return payload


def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    """A list of [real, imaginary] pairs of JSON numbers as a complex vector."""
    if isinstance(pairs, np.ndarray):  # converted by the fast reader
        return pairs
    bad = ValidationError(f"{what}: entries must be [real, imaginary] pairs", module=_MOD)
    if (
        not isinstance(pairs, list)
        or not set(map(type, pairs)) <= {list}
        or not set(map(len, pairs)) <= {2}
    ):
        raise bad
    flat = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:  # exact types: bool is rejected
        raise bad
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(f"{what}: non-finite values", module=_MOD) from None
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what}: non-finite values", module=_MOD)
    return values.view(np.complex128)


def load_matrix(path: str) -> np.ndarray:
    return _matrix_from_payload(_load_json(path, "data"), path)


def _matrix_from_payload(payload: dict, path: str) -> np.ndarray:
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise ValidationError(f"{path}: missing field '{key}'", module=_MOD)
    rows, cols = (
        as_count(payload[key], f"{path}: {key}", _MOD, least=1, most=MAX_DENSE_DIM)
        for key in ("rows", "cols")
    )
    flat = _pairs_to_complex(payload["data"], path)
    if flat.size != rows * cols:
        raise ValidationError(
            f"{path}: data length {flat.size} != rows*cols = {rows * cols}", module=_MOD
        )
    return flat.reshape(rows, cols)


def load_encoding(path: str) -> encoding.BlockEncoding:
    payload = _load_json(path, "data")
    for key in ("ancillas", "system_dim"):
        if key not in payload:
            raise ValidationError(f"{path}: missing field '{key}'", module=_MOD)
    matrix = _matrix_from_payload(payload, path)
    try:
        return encoding.BlockEncoding(matrix, payload["ancillas"], payload["system_dim"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}", module=_MOD) from None


def load_polynomial(path: str) -> PolynomialSpec:
    payload = _load_json(path, "coefficients")
    if "coefficients" not in payload:
        raise ValidationError(f"{path}: missing field 'coefficients'", module=_MOD)
    return PolynomialSpec(_pairs_to_complex(payload["coefficients"], path))


def _write(path: str | None, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}", module=_MOD) from None
    else:
        print(text)


# ---------------------------------------------------------------------------
# commands


def _cmd_dilate(args) -> int:
    a = load_matrix(args.input)
    be = encoding.dilate(a)
    payload = {"ancillas": be.ancilla_qubits, "system_dim": be.system_dim}
    payload.update(matrix_payload(np.asarray(be.unitary)))
    _write(args.output, emit_json(payload))
    return EXIT_OK


def _cmd_regularize(args) -> int:
    be = load_encoding(args.input)
    reg = regularize_encoding(be, args.order)
    payload = {
        "ancillas": reg.base.ancilla_qubits,
        "system_dim": reg.base.system_dim,
        "counter_qubits": reg.counter_qubits,
        "order": reg.order,
        "source_ancillas": reg.source_ancillas,
    }
    payload.update(matrix_payload(np.asarray(reg.base.unitary)))
    _write(args.output, emit_json(payload))
    return EXIT_OK


def _cmd_synthesize(args) -> int:
    poly = load_polynomial(args.coeffs)
    seq = gqsp.synthesize(poly)
    residual = gqsp._grid_residual(seq, poly, SYNTHESIZE_GRID)
    payload = {
        "degree": seq.degree,
        "scale": seq.scale,
        "grid_residual": residual,
        "rotations": np.reshape(seq.rotations, (len(seq.rotations), 4)),
    }
    _write(args.report, emit_json(payload))
    return EXIT_OK if residual <= args.tolerance else EXIT_THRESHOLD


def _transform_report_payload(report: evt.TransformReport) -> dict:
    return {
        "achieved_error": report.achieved_error,
        "predicted_bound": report.predicted_bound,
        "total_ancillas": report.total_ancillas,
        "circuit_dim": report.circuit_dim,
        "encoding_scale": report.encoding_scale,
        "controlled_calls": report.controlled_calls,
        "result": matrix_payload(report.result_block),
    }


def _transform_exit(report: evt.TransformReport, tolerance: float) -> int:
    """Pass when achieved_error <= tolerance * max(1, ||P(A)||): relative past norm 1."""
    scale = max(1.0, operator_norm(report.oracle_block))
    return EXIT_OK if report.achieved_error <= tolerance * scale else EXIT_THRESHOLD


def _resolve_polynomial(args) -> PolynomialSpec:
    # argparse admits exactly one source; --inverse 0 parses to 0j, which is falsy
    if args.coeffs is not None:
        return load_polynomial(args.coeffs)
    if args.inverse is not None:
        return analytic.shifted_inverse_plan(args.inverse, args.eps).coefficients
    return analytic.exp_plan(args.eps).coefficients


def _cmd_transform(args) -> int:
    a = load_matrix(args.matrix)
    poly = _resolve_polynomial(args)
    report = evt.transform(a, poly)
    _write(args.report, emit_json(_transform_report_payload(report)))
    return _transform_exit(report, args.tolerance)


def _cmd_verify(args) -> int:
    unitary = load_matrix(args.unitary)
    target = ensure_square(load_matrix(args.matrix), name="target matrix")
    be = encoding.BlockEncoding(unitary, args.ancillas, target.shape[0])
    errors = encoding.regularity_profile(be, target, max(args.order, 1))
    order = encoding.regularity_order(errors, args.tolerance)
    lines = [emit_json({"k": k, "error": err}) for k, err in enumerate(errors, start=1)]
    lines.append(emit_json({"order": order, "requested": args.order, "tolerance": args.tolerance}))
    _write(args.report, "\n".join(lines))
    return EXIT_OK if order >= args.order else EXIT_THRESHOLD


def _cmd_demo(args) -> int:
    if args.which != "jordan":
        rng = np.random.default_rng(args.seed)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = 0.9 * g / operator_norm(g)  # a random contraction of norm 0.9
        if args.which == "inverse":
            plan = analytic.shifted_inverse_plan(2.0, 1e-3)
            reference = np.linalg.inv(2.0 * np.eye(4) - a)
        else:
            plan = analytic.exp_plan(1e-10)
            reference = horner_eval(analytic.exp_plan(1e-14).coefficients, a)
        report = evt.transform(a, plan.coefficients)
        payload = {
            "demo": args.which,
            "order": plan.order,
            "certified_error": plan.certified_error,
            "function_error": float(operator_norm(report.result_block - reference)),
        }
    else:
        block = analytic.jordan_block(0.5, 3)
        cube = PolynomialSpec([0.0, 0.0, 0.0, 1.0])
        report = evt.transform(block, cube)
        expected = analytic.jordan_poly(cube, 0.5, 3)
        payload = {
            "demo": "jordan",
            "eigenvalue": [0.5, 0.0],
            "block_size": 3,
            "toeplitz_error": float(operator_norm(report.result_block - expected)),
        }
    payload["report"] = _transform_report_payload(report)
    _write(args.report, emit_json(payload))
    return _transform_exit(report, args.tolerance)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qevt",
        description="Block-encoded polynomial transformations of square matrices "
        "by exact dense simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    relative = "pass when achieved_error <= TOLERANCE * max(1, ||P(A)||)"

    def common(p, rule="pass/fail threshold"):
        p.add_argument("--tolerance", type=float, default=1e-8, help=rule)
        p.add_argument("--report", default=None, help="write output here instead of stdout")

    p = sub.add_parser("dilate", help="embed a contraction in a one-ancilla unitary")
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("output", nargs="?", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("regularize", help="wrap an encoding with a counter register")
    p.add_argument("input", help="encoding JSON file (from dilate)")
    p.add_argument("output", nargs="?", default=None, help="output file (default stdout)")
    p.add_argument("--order", type=int, required=True, help="power-of-two regularity order")
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("synthesize", help="compute processing rotations for a polynomial")
    p.add_argument("--coeffs", required=True, help="polynomial JSON file")
    common(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("transform", help="block-encode P(A) and report the achieved error")
    p.add_argument("matrix", help="matrix JSON file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--coeffs", metavar="FILE", help="polynomial JSON file")
    source.add_argument("--inverse", type=complex, metavar="C", help="shifted inverse 1/(c - z)")
    source.add_argument("--exp", action="store_true", help="scaled exponential e^z / 3")
    p.add_argument("--eps", type=float, default=1e-8, help="truncation accuracy for builtins")
    common(p, relative)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="measure the regularity order of an encoding")
    p.add_argument("unitary", help="unitary matrix JSON file")
    p.add_argument("matrix", help="encoded matrix JSON file")
    p.add_argument("--ancillas", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="required regularity order")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("demo", help="run a worked example end to end")
    p.add_argument("which", choices=("inverse", "exp", "jordan"))
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrix")
    common(p, relative)
    p.set_defaults(func=_cmd_demo)

    return parser


# the options argparse only converts, held to the library's rules before any file is read:
# a threshold, and the counts that regularize's own --order rule does not cover
_NUMBER_RULES = {"tolerance": as_real, "seed": as_count, "order": as_count}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option, rule in _NUMBER_RULES.items():
            if option in args and args.command != "regularize":
                rule(getattr(args, option), f"--{option}", _MOD)
        return args.func(args)
    except QevtError as exc:  # a NumericalError, or any other library error, exits 4
        codes = {NormBoundError: EXIT_NORM, ValidationError: EXIT_INPUT}
        code = next((c for kind, c in codes.items() if isinstance(exc, kind)), EXIT_NUMERIC)
        sys.stderr.write(emit_json({"error": str(exc), "module": exc.module, "exit": code}) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
