import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qevt import cli, gqsp
from qevt.encoding import BlockEncoding, dilate, regularity_order, regularity_profile
from qevt.errors import NormBoundError, NumericalError, QevtError, ValidationError
from qevt.linalg import PolynomialSpec
from qevt.regularize import regularize

from helpers import (
    near_tie_coefficients,
    random_complex,
    random_contraction,
    random_unitary,
    reference_emit_json,
    reference_load_json,
    reference_matrix_payload,
    reference_pairs,
    reference_pairs_to_complex,
    rng_for,
)


def write_matrix(path, m):
    m = np.asarray(m, dtype=complex)
    payload = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[v.real, v.imag] for v in m.ravel()],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def write_poly(path, coeffs):
    payload = {"coefficients": [[complex(c).real, complex(c).imag] for c in coeffs]}
    path.write_text(json.dumps(payload))
    return str(path)


def read_matrix_payload(payload):
    data = np.array([complex(re, im) for re, im in payload["data"]])
    return data.reshape(payload["rows"], payload["cols"])


class TestJsonEmission:
    def test_fixed_key_order_and_float_digits(self):
        text = cli.emit_json({"b": 0.1, "a": 2})
        assert text == '{"b":0.10000000000000001,"a":2}'

    def test_round_trips_as_json(self):
        obj = {"x": [1.5, -2.25e-7], "y": {"z": True, "w": None}, "s": "hi"}
        assert json.loads(cli.emit_json(obj)) == obj

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_non_finite_scalar_rejected(self, bad, kind):
        with pytest.raises(ValidationError, match="^cannot serialize non-finite float$") as info:
            cli.emit_json({"error": kind(bad)})
        assert info.value.module == "cli"

    @pytest.mark.parametrize("obj, name", [({1}, "set"), (1j, "complex")], ids=["set", "complex"])
    def test_unknown_type_rejected(self, obj, name):
        with pytest.raises(ValidationError, match=f"^cannot serialize {name}$") as info:
            cli.emit_json([obj])
        assert info.value.module == "cli"


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (NormBoundError("raised", module="gqsp"), 3),
            (ValidationError("raised", module="gqsp"), 2),
            (NumericalError("raised", module="gqsp"), 4),
            # the base class is no more specific: the fallback for any other library error
            (QevtError("raised", module="gqsp"), 4),
        ],
        ids=["norm", "validation", "numerical", "base"],
    )
    def test_one_json_line_per_library_error(self, tmp_path, capsys, monkeypatch, error, code):
        def synthesize(poly):
            raise error

        monkeypatch.setattr(gqsp, "synthesize", synthesize)
        poly = write_poly(tmp_path / "p.json", [0.5, 0.25])
        assert cli.main(["synthesize", "--coeffs", poly]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "raised", "module": "gqsp", "exit": code}


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 0.1, 1 / 3)


def edge_matrix() -> np.ndarray:
    """Every edge value paired with every other, as real and imaginary parts."""
    return np.array([[complex(re, im) for im in EDGE_VALUES] for re in EDGE_VALUES])


def random_scaled(shape) -> np.ndarray:
    rng = rng_for(shape[0] * 100 + shape[1])
    return random_complex(rng, shape) * 10.0 ** rng.integers(-300, 300, size=shape)


def regularized_unitary() -> np.ndarray:
    return np.asarray(regularize(dilate(random_contraction(rng_for(4), 3)), 4).base.unitary)


SIGNED_ZEROS = np.array(
    [
        [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
        [complex(1.5, -0.0), complex(-0.0, -2.0), complex(0.0, 3e-300), complex(-4.0, 0.0)],
    ]
)

# the arrays emit_json writes in one template: matrix payloads are their ravel
WRITER_ARRAYS = {
    **{
        f"random-{r}x{c}": lambda r=r, c=c: random_scaled((r, c))
        for r, c in [(1, 1), (2, 3), (3, 2), (1, 7), (16, 16)]
    },
    "sparse": regularized_unitary,
    "sparse-payload": lambda: cli.matrix_payload(regularized_unitary())["data"],
    "dense-payload": lambda: random_complex(rng_for(9), 24 * 24),
    "zeros": lambda: np.zeros((3, 5), dtype=complex),
    "signed-zeros": lambda: SIGNED_ZEROS,
    "signed-zeros-payload": lambda: SIGNED_ZEROS.ravel(),
    "scalar": lambda: np.array(complex(1.5, -0.0)),
    "empty": lambda: np.zeros(0, dtype=complex),
    "empty-rows": lambda: np.zeros((0, 4), dtype=complex),
    "empty-columns": lambda: np.zeros((2, 0), dtype=complex),
    "rotations": lambda: np.reshape(
        gqsp.synthesize(PolynomialSpec([0.3, -0.2j, 0.1 + 0.25j, 0.0, -0.15])).rotations, (5, 4)
    ),
}


class TestFormatterReference:
    @pytest.mark.parametrize("name", list(WRITER_ARRAYS))
    def test_arrays_byte_identical(self, name):
        a = WRITER_ARRAYS[name]()
        assert cli.emit_json({"data": a}) == reference_emit_json({"data": reference_pairs(a)})

    def test_edge_values_byte_identical(self):
        m = edge_matrix()
        assert np.signbit(m.real).any() and np.signbit(m.imag).any()
        for sub in (m, m[:1, :1], m[:2, :5], m.real.astype(complex)):
            payload = {"ancillas": 1, "system_dim": 2, **cli.matrix_payload(sub)}
            want = {"ancillas": 1, "system_dim": 2, **reference_matrix_payload(sub)}
            assert cli.emit_json(payload) == reference_emit_json(want)

    def test_integer_valued_floats_keep_no_exponent(self):
        m = np.array([[1.0, -2.0], [1e16, 12345.0 - 1j]])
        text = cli.emit_json(cli.matrix_payload(m))
        assert text == reference_emit_json(reference_matrix_payload(m))
        assert '"data":[[1,0],[-2,0],[10000000000000000,0],[12345,-1]]' in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_rejected_like_reference(self, bad, part):
        m = np.zeros((2, 2), dtype=complex)
        m[1, 0] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        with pytest.raises(ValidationError) as want:
            reference_emit_json(reference_matrix_payload(m))
        with pytest.raises(ValidationError) as got:
            cli.emit_json(cli.matrix_payload(m))
        assert str(got.value) == str(want.value)

    def test_synthesize_rotations_one_row_per_rotation(self, tmp_path, capsys):
        coeffs = [0.3, -0.2j, 0.1 + 0.25j, 0.0, -0.15]
        poly = write_poly(tmp_path / "p.json", coeffs)
        assert cli.main(["synthesize", "--coeffs", poly]) == 0
        spec = PolynomialSpec(coeffs)
        seq = gqsp.synthesize(spec)
        want = {
            "degree": seq.degree,
            "scale": seq.scale,
            "grid_residual": gqsp._grid_residual(seq, spec, 4096),
            "rotations": [
                [[float(v.real), float(v.imag)] for v in rot.ravel()] for rot in seq.rotations
            ],
        }
        assert capsys.readouterr().out == reference_emit_json(want) + "\n"


class TestLoaderReference:
    def test_matches_reference_bitwise(self):
        rng = rng_for(11)
        values = list(EDGE_VALUES) + random_complex(rng, 40).real.tolist()
        values += [0, -7, 2**53 + 1, 10**300, -(10**20)]
        pairs = json.loads(json.dumps([[values[k], values[-1 - k]] for k in range(len(values))]))
        got = cli._pairs_to_complex(pairs, "m.json")
        want = reference_pairs_to_complex(pairs, "m.json")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_empty_list(self):
        assert cli._pairs_to_complex([], "m.json").shape == (0,)

    @pytest.mark.parametrize(
        "pairs",
        [
            [[True, 0.0]],
            [[0.0, False]],
            [["1.0", 0.0]],
            [[None, 0.0]],
            [None],
            [[1.0, 0.0], [[1.0], 0.0]],
            [[1.0, [0.0]]],
            [[1.0]],
            [[1.0, 0.0, 0.0]],
            [[1.0, 0.0], [2.0]],
            [{"re": 1.0, "im": 0.0}],
            "ab",
            [[float("nan"), 0.0]],
            [[0.0, float("-inf")]],
        ],
    )
    def test_rejects_like_reference(self, pairs):
        with pytest.raises(ValidationError) as want:
            reference_pairs_to_complex(pairs, "m.json")
        with pytest.raises(ValidationError) as got:
            cli._pairs_to_complex(pairs, "m.json")
        assert str(got.value) == str(want.value)


# JSON whitespace between tokens; "\r\n" as the general reader's text mode turns it into "\n"
WHITESPACE = ["", " ", "\n", "\t", "\r\n", "\n  "]
FLOAT_EDGE = 2**1024 - 2**970  # the least integer that rounds past the float range


def number_texts():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    near_edge = st.integers(FLOAT_EDGE - 2**60, FLOAT_EDGE + 2**60)
    return st.one_of(
        st.integers(-(10**20), 10**20).map(str),
        finite.map(repr),
        finite.map(lambda x: f"{x:.17E}"),
        finite.map(lambda x: f"{x:.3e}"),  # rounds to 1.798e+308 and past, at times
        near_edge.map(str),
        near_edge.map(lambda v: str(-v)),
        st.sampled_from(["0", "-0", "0.0", "-0.0", "0e0", "-0E-0", "1E5", "2e+3", "4.9e-324"]),
    )


# envelope fields the readers ignore; the first two put brackets in strings
EXTRA_FIELDS = [
    ("note", '"a [bracketed] note"'),
    ("closing", '"]"'),
    ("scale", "1.5e3"),
    ("flag", "true"),
    ("none", "null"),
    ("meta", '{"k": -0.0, "s": "x"}'),
]


@st.composite
def pair_documents(draw, numbers, key, header):
    """A JSON object with the number texts as [re, im] pairs under ``key``, the
    ``header`` fields and some extra ones, in any order and layout; a copy of
    ``key`` before or after the pairs at times. Returns (text, fast): fast when
    the document has the one shape the fast reader takes."""
    gaps = iter(draw(st.lists(st.sampled_from(WHITESPACE), min_size=8 * len(numbers) + 40,
                              max_size=8 * len(numbers) + 40)))
    pairs = [f"[{next(gaps)}{re}{next(gaps)},{next(gaps)}{im}{next(gaps)}]"
             for re, im in zip(numbers[::2], numbers[1::2])]
    array = f"[{next(gaps)}" + f"{next(gaps)},{next(gaps)}".join(pairs) + f"{next(gaps)}]"
    extras = draw(st.lists(st.sampled_from(EXTRA_FIELDS), max_size=3, unique=True))
    fields = draw(st.permutations([*header.items(), *extras, (key, array)]))
    copy = draw(st.sampled_from([None, "before", "after"]))
    if copy:  # the last copy of a key is the one JSON keeps
        spot = fields.index((key, array)) + (copy == "after")
        fields.insert(spot, (key, draw(st.sampled_from(["5", '"pairs"', "null"]))))
    body = f",{next(gaps)}".join(f'"{k}"{next(gaps)}:{next(gaps)}{v}' for k, v in fields)
    fast = copy != "after" and not {"note", "closing"} & {k for k, _ in extras}
    return f"{{{next(gaps)}{body}{next(gaps)}}}", fast


def loaded(loader, path):
    """What a loader gives for a file: the value's bytes and shape, or the error message."""
    try:
        value = loader(path)
    except ValidationError as exc:
        return "error", str(exc)
    if isinstance(value, BlockEncoding):
        return value.unitary.tobytes(), value.unitary.shape, value.ancilla_qubits, value.system_dim
    if isinstance(value, PolynomialSpec):
        return value.array.tobytes(), value.degree
    return value.tobytes(), value.shape, value.dtype


def loaded_by_reference(loader, path):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_load_json", lambda path, key: reference_load_json(path))
        return loaded(loader, path)


def assert_reads_like_reference(path, text, fast, loader, key):
    path.write_bytes(text.encode("ascii"))
    want = loaded_by_reference(loader, str(path))
    assert loaded(loader, str(path)) == want
    if fast and want[0] != "error":  # a document of the fast shape is taken, not declined
        assert cli._fast_payload(path.read_bytes(), key) is not None


READER_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten
)


class TestFastReader:
    """The fast reader returns what the general one does, bit for bit, or declines."""

    @READER_SETTINGS
    @given(data=st.data(), count=st.integers(1, 8))
    def test_matrix_documents(self, tmp_path, data, count):
        numbers = data.draw(st.lists(number_texts(), min_size=2 * count, max_size=2 * count))
        rows = data.draw(st.sampled_from([r for r in range(1, count + 1) if count % r == 0]))
        header = {"rows": str(rows), "cols": str(count // rows)}
        text, fast = data.draw(pair_documents(numbers, "data", header))
        assert_reads_like_reference(tmp_path / "m.json", text, fast, cli.load_matrix, "data")

    @READER_SETTINGS
    @given(data=st.data(), count=st.integers(1, 8))
    def test_polynomial_documents(self, tmp_path, data, count):
        numbers = data.draw(st.lists(number_texts(), min_size=2 * count, max_size=2 * count))
        text, fast = data.draw(pair_documents(numbers, "coefficients", {}))
        assert_reads_like_reference(
            tmp_path / "p.json", text, fast, cli.load_polynomial, "coefficients"
        )

    @READER_SETTINGS
    @given(data=st.data(), d=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_encoding_documents(self, tmp_path, data, d, seed):
        unitary = dilate(random_contraction(rng_for(seed), d)).unitary
        style = data.draw(st.sampled_from([repr, "{:.17E}".format, "{:.17g}".format]))
        numbers = [style(v) for v in unitary.view(float).ravel().tolist()]
        header = {"ancillas": "1", "system_dim": str(d), "rows": str(2 * d), "cols": str(2 * d)}
        text, fast = data.draw(pair_documents(numbers, "data", header))
        assert_reads_like_reference(tmp_path / "u.json", text, fast, cli.load_encoding, "data")

    @pytest.mark.parametrize(
        "text",
        [
            '{"rows": 1, "cols": 1, "data": [[true, 0]]}',
            '{"rows": 1, "cols": 1, "data": [[0, null]]}',
            '{"rows": 1, "cols": 1, "data": [["0.5", 0]]}',
            '{"rows": 1, "cols": 1, "data": [[NaN, 0]]}',
            '{"rows": 1, "cols": 1, "data": [[0, -Infinity]]}',
            '{"rows": 1, "cols": 1, "data": [[1e400, 0]]}',
            f'{{"rows": 1, "cols": 1, "data": [[{FLOAT_EDGE}, 0]]}}',
            '{"rows": 2, "cols": 1, "data": [[1, 0], [2]]}',
            '{"rows": 1, "cols": 1, "data": [[1, 0, 0]]}',
            '{"rows": 1, "cols": 1, "data": [5, [1, 0]]}',
            '{"rows": 2, "cols": 1, "data": [[1, 0], 5[, 2]]}',
            '{"rows": 2, "cols": 1, "data": [[1, 2]5, [3, 4]]}',
            '{"rows": 1, "cols": 1, "data": [[1, ]0]}',
            '{"rows": 1, "cols": 1, "data": [[1, 0]5]}',
            '{"rows": 1, "cols": 1, "data": [[01, 0]]}',
            '{"rows": 1, "cols": 1, "data": [[1, 0],]}',
            '{"rows": 1, "cols": 1, "data": []}',
            '{"rows": [1], "cols": 1, "data": [[1, 0]]}',
            '{"rows": 1, "cols": 1, "data": [[1, 0]], "data": "x"}',
            '{"rows": 1, "cols": 1, "data": "[[1, 0]]"}',
            '{"rows": 1, "cols": 1, "pairs": [[1, 0]]}',
            '[[1, 0]]',
            '\ufeff{"rows": 1, "cols": 1, "data": [[1, 0]]}',
            '{"rows": 1, "cols": 1, "data": [[1, 0]]',
            '{"rows": 1, "cols": 1, "data": [[1, 0]',
            '{\r\n "rows": 1,\r\n "cols": 1,\r\n "data": [[1, 0]]\r\n,}',
        ],
        ids=["true", "null", "string", "nan", "-infinity", "1e400", "int-past-float-range",
             "ragged", "pair-of-three", "number-beside-pairs", "number-before-a-pair",
             "number-joining-two-pairs",
             "number-after-a-bracket", "number-after-pair",
             "leading-zero", "trailing-comma", "no-pairs", "second-array", "data-overwritten",
             "pairs-in-a-string", "pairs-elsewhere", "top-level-array", "utf8-bom",
             "truncated-object", "truncated-array", "crlf-syntax-error"],
    )
    def test_malformed_raise_the_reference_message(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_bytes(text.encode("utf-8"))
        want = loaded_by_reference(cli.load_matrix, str(path))
        assert want[0] == "error"
        assert loaded(cli.load_matrix, str(path)) == want

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le"])
    def test_utf16_raises_the_reference_message(self, tmp_path, encoding):
        path = tmp_path / "m.json"
        path.write_bytes('{"rows": 1, "cols": 1, "data": [[1, 0]]}'.encode(encoding))
        want = loaded_by_reference(cli.load_matrix, str(path))
        assert want[0] == "error"
        assert loaded(cli.load_matrix, str(path)) == want

    def test_reads_its_own_output_without_the_general_reader(self, tmp_path, monkeypatch):
        # emit_json's own output of a regularized unitary takes the fast reader: with
        # json.load, the general reader, raising, both loaders still read it
        src = write_matrix(tmp_path / "a.json", random_contraction(rng_for(2), 4))
        assert cli.main(["dilate", src, str(tmp_path / "u.json")]) == 0
        assert cli.main(["regularize", str(tmp_path / "u.json"), str(tmp_path / "r.json"),
                         "--order", "8"]) == 0

        def general_reader(*args, **kwargs):
            raise AssertionError("the general reader ran")

        monkeypatch.setattr(json, "load", general_reader)
        want = regularize(dilate(cli.load_matrix(src)), 8).base
        got = cli.load_encoding(str(tmp_path / "r.json"))
        assert got.unitary.tobytes() == np.asarray(want.unitary).tobytes()
        assert (got.ancilla_qubits, got.system_dim) == (want.ancilla_qubits, want.system_dim)
        assert cli.load_matrix(str(tmp_path / "r.json")).tobytes() == got.unitary.tobytes()


class TestMalformedInputs:
    ONE_UNITARY = [[1, 0], [0, 0], [0, 0], [1, 0]]

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("dilate", '{"rows": 1, "cols": 1, "data": 5}',
             "entries must be [real, imaginary] pairs"),
            ("synthesize", '{"coefficients": 5}', "entries must be [real, imaginary] pairs"),
            ("dilate", '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}',
             "non-finite values"),
            ("dilate", '{"rows": true, "cols": 1, "data": [[0, 0]]}',
             "rows must be positive and an integer, got True"),
            # rows * cols has 4401 digits, past what an error message can format
            ("dilate", json.dumps({"rows": 10**2200, "cols": 10**2200, "data": [[0, 0]]}),
             f"rows {10**2200} exceeds the cap 16384"),
            ("regularize", json.dumps({"ancillas": "x", "system_dim": 1, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "ancilla count must be nonnegative and an integer, got 'x'"),
            # JSON integer fields take JSON integers only, as rows/cols do
            ("regularize", json.dumps({"ancillas": 1.5, "system_dim": 1, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "ancilla count must be nonnegative and an integer, got 1.5"),
            ("regularize", json.dumps({"ancillas": True, "system_dim": 1, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "ancilla count must be nonnegative and an integer, got True"),
            ("regularize", json.dumps({"ancillas": "1", "system_dim": 1, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "ancilla count must be nonnegative and an integer, got '1'"),
            ("regularize", json.dumps({"ancillas": 1, "system_dim": 1.0, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "system dimension must be positive and an integer, got 1.0"),
            ("regularize", json.dumps({"ancillas": 20000, "system_dim": 1, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "unitary dimension 2 != 2^20000 * 1"),
            ("dilate", '{"rows": 2, "cols": 1, "data": [[0, 0]]}',
             "data length 1 != rows*cols = 2"),
            ("dilate", '{"cols": 1, "data": [[0, 0]]}', "missing field 'rows'"),
            ("regularize", json.dumps({"system_dim": 1, "rows": 2, "cols": 2,
                                       "data": ONE_UNITARY}),
             "missing field 'ancillas'"),
            ("synthesize", '{"coeffs": [[0.5, 0]]}', "missing field 'coefficients'"),
            ("dilate", "[[0, 0]]", "top-level JSON object expected"),
        ],
        ids=["data-int", "coefficients-int", "huge-int", "rows-true", "rows-huge",
             "ancillas-string", "ancillas-float", "ancillas-true", "ancillas-digit-string",
             "system-dim-float", "ancillas-huge", "data-length", "missing-rows",
             "missing-ancillas", "missing-coefficients", "top-level-list"],
    )
    def test_exit_2_with_one_json_line(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        argv = {
            "dilate": ["dilate", str(path)],
            "synthesize": ["synthesize", "--coeffs", str(path)],
            "regularize": ["regularize", str(path), "--order", "2"],
        }[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error == {"error": f"{path}: {message}", "module": "cli", "exit": 2}


    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(b"\xff\xfe{")
        assert cli.main(["dilate", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(f"cannot read {path}: ")

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        # json.load raises a plain ValueError, not JSONDecodeError, for an
        # integer literal beyond Python's 4300-digit conversion limit
        path = tmp_path / "big.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1' + "0" * 5000 + ", 0]]}")
        assert cli.main(["dilate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"].startswith(f"{path} is not valid JSON: ")
        assert (error["module"], error["exit"]) == ("cli", 2)

    @pytest.mark.parametrize("case", ["report", "report-is-directory", "output"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, case):
        # an input error, not an OSError: exit 1 is the threshold code
        poly = write_poly(tmp_path / "p.json", [0.5, 0.25])
        matrix = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        missing = str(tmp_path / "missing" / "x.json")
        argv, target = {
            "report": (["synthesize", "--coeffs", poly, "--report", missing], missing),
            "report-is-directory": (["transform", matrix, "--coeffs", poly, "--report",
                                     str(tmp_path)], str(tmp_path)),
            "output": (["dilate", matrix, missing], missing),
        }[case]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"].startswith(f"cannot write {target}: ")
        assert (error["module"], error["exit"]) == ("cli", 2)


class TestDilateCommand:
    def test_zero_matrix_swap_structure(self, tmp_path):
        matrix = write_matrix(tmp_path / "a.json", np.zeros((2, 2)))
        out = tmp_path / "u.json"
        assert cli.main(["dilate", matrix, str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ancillas"] == 1
        assert payload["system_dim"] == 2
        u = read_matrix_payload(payload)
        assert np.allclose(u[:2, 2:], np.eye(2))
        assert np.allclose(u[2:, :2], np.eye(2))
        assert np.allclose(u[:2, :2], 0)

    def test_non_square_exits_2(self, tmp_path, capsys):
        matrix = write_matrix(tmp_path / "a.json", np.zeros((2, 3)))
        assert cli.main(["dilate", matrix]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert json.loads(err)["exit"] == 2

    def test_norm_violation_exits_3(self, tmp_path, capsys):
        matrix = write_matrix(tmp_path / "a.json", 1.5 * np.eye(2))
        assert cli.main(["dilate", matrix]) == 3
        message = json.loads(capsys.readouterr().err)
        assert message["exit"] == 3
        assert "1.5" in message["error"]

    def test_unparseable_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        assert cli.main(["dilate", str(bad)]) == 2

    def test_round_trip_verifies(self, tmp_path):
        a = random_contraction(rng_for(0), 3, 0.8)
        matrix = write_matrix(tmp_path / "a.json", a)
        out = tmp_path / "u.json"
        assert cli.main(["dilate", matrix, str(out)]) == 0
        payload = json.loads(out.read_text())
        be = BlockEncoding(
            unitary=read_matrix_payload(payload),
            ancilla_qubits=payload["ancillas"],
            system_dim=payload["system_dim"],
        )
        assert regularity_order(regularity_profile(be, a, 1), 1e-10) == 1


class TestRegularizeCommand:
    def test_chain_from_dilate(self, tmp_path):
        a = random_contraction(rng_for(1), 2, 0.7)
        matrix = write_matrix(tmp_path / "a.json", a)
        enc = tmp_path / "enc.json"
        reg = tmp_path / "reg.json"
        assert cli.main(["dilate", matrix, str(enc)]) == 0
        assert cli.main(["regularize", str(enc), str(reg), "--order", "4"]) == 0
        payload = json.loads(reg.read_text())
        assert payload["ancillas"] == 3
        assert payload["counter_qubits"] == 2
        u = read_matrix_payload(payload)
        for k in range(5):
            block = np.linalg.matrix_power(u, k)[:2, :2]
            assert np.linalg.norm(block - np.linalg.matrix_power(a, k), 2) <= 1e-10

    def test_overflowing_gram_product_exits_2(self, tmp_path, capsys):
        # finite entries whose U^dag U overflows to inf - inf = NaN
        u = np.array([[1e200, 1e200], [1e200, -1e200]])
        enc = tmp_path / "enc.json"
        write_matrix(enc, u)
        payload = json.loads(enc.read_text())
        payload.update(ancillas=1, system_dim=1)
        enc.write_text(json.dumps(payload))
        out = tmp_path / "reg.json"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["regularize", str(enc), str(out), "--order", "2"]) == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit"] == 2

    def test_order_past_the_dense_cap_exits_2(self, tmp_path, capsys):
        # 2^40: np.eye raised a bare ValueError; the cap refuses it before allocating
        enc = tmp_path / "enc.json"
        assert cli.main(["dilate", write_matrix(tmp_path / "a.json", [[0.5]]), str(enc)]) == 0
        out = tmp_path / "reg.json"
        assert cli.main(["regularize", str(enc), str(out), "--order", str(2**40)]) == 2
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["module"] == "regularize" and error["exit"] == 2
        assert error["error"].startswith("dense unitary dimension 1099511627776 * 2 ")

    def test_bad_order_exits_2(self, tmp_path):
        a = random_contraction(rng_for(2), 2, 0.7)
        matrix = write_matrix(tmp_path / "a.json", a)
        enc = tmp_path / "enc.json"
        cli.main(["dilate", matrix, str(enc)])
        assert cli.main(["regularize", str(enc), "--order", "3"]) == 2


class TestSynthesizeCommand:
    def test_reports_residual(self, tmp_path, capsys):
        poly = write_poly(tmp_path / "p.json", [0.5, 0, 0.5])
        assert cli.main(["synthesize", "--coeffs", poly]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 2
        assert payload["grid_residual"] <= 1e-10
        assert payload["scale"] == pytest.approx(1 - 1e-6)
        assert len(payload["rotations"]) == 3

    def test_completion_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        # the margin polynomial needs more than one Newton step from Wilson's start
        monkeypatch.setattr(gqsp, "NEWTON_STEPS", 1)
        poly = write_poly(tmp_path / "p.json", [0.5, 0, 0.5])
        assert cli.main(["synthesize", "--coeffs", poly]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["module"] == "gqsp"

    def test_sup_beyond_the_float_range_exits_3(self, tmp_path, capsys):
        poly = write_poly(tmp_path / "p.json", [1e308, 1e308])
        assert cli.main(["synthesize", "--coeffs", poly]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["module"] == "gqsp" and error["exit"] == 3
        assert error["error"].startswith("sup |P| on the circle is inf")

    def test_rescales_past_nearly_equal_peaks(self, tmp_path, capsys):
        # sup 1.0000197: a grid sample 5e-5 low left it unrescaled, and the
        # completion failed on a deficit that goes negative
        poly = write_poly(tmp_path / "p.json", 1.00002 * near_tie_coefficients())
        assert cli.main(["synthesize", "--coeffs", poly]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree"] == 301
        assert payload["scale"] == pytest.approx((1 - 1e-6) / (1.00002 * 0.999999664), rel=1e-9)
        assert payload["grid_residual"] <= 1e-10


class TestTransformCommand:
    def test_rescaling_overflow_exits_3(self, tmp_path, capsys):
        # ||A|| = 1.5 at degree 2315: 1.5^2315 is beyond the float range
        matrix = write_matrix(tmp_path / "a.json", 1.5 * random_unitary(rng_for(12), 3))
        assert cli.main(["transform", matrix, "--inverse", "1.01", "--eps", "1e-8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["module"] == "evt" and error["exit"] == 3
        assert error["error"].startswith("P(alpha z) overflows for ||A|| = 1.5")
        assert error["error"].endswith("at degree 2315")

    def test_norm_whose_square_overflows(self, tmp_path, capsys):
        # ||A|| = 1e160 is rescaled, not rejected by dilate; at degree 2 the
        # rescaled coefficients overflow instead: a norm error, one JSON line
        matrix = write_matrix(tmp_path / "a.json", np.eye(2) * 1e160)
        linear = write_poly(tmp_path / "p1.json", [0.5, 0.5])
        assert cli.main(["transform", matrix, "--coeffs", linear]) == 0
        assert json.loads(capsys.readouterr().out)["controlled_calls"] == 1
        quadratic = write_poly(tmp_path / "p2.json", [0.5, 0.5, 0.5])
        assert cli.main(["transform", matrix, "--coeffs", quadratic]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error == {
            "error": "P(alpha z) overflows for ||A|| = 1e+160 at degree 2",
            "module": "evt",
            "exit": 3,
        }

    def test_exp_of_identity(self, tmp_path, capsys):
        matrix = write_matrix(tmp_path / "a.json", np.eye(2))
        code = cli.main(["transform", matrix, "--exp", "--eps", "1e-8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        result = read_matrix_payload(payload["result"])
        assert np.linalg.norm(result - (np.e / 3) * np.eye(2), 2) <= 1e-8

    def test_averaging_coefficients_report(self, tmp_path, capsys):
        rng = rng_for(3)
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng, 3, 0.8))
        poly = write_poly(tmp_path / "p.json", [0.5, 0, 0.5])
        assert cli.main(["transform", matrix, "--coeffs", poly]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["controlled_calls"] == 2
        assert payload["achieved_error"] <= 1e-9

    def test_threshold_exceeded_still_writes_report(self, tmp_path):
        rng = rng_for(4)
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng, 3, 0.8))
        poly = write_poly(tmp_path / "p.json", [0.5, 0, 0.5])
        report = tmp_path / "report.json"
        code = cli.main(
            ["transform", matrix, "--coeffs", poly, "--tolerance", "0",
             "--report", str(report)]
        )
        assert code == 1
        assert report.exists()
        assert json.loads(report.read_text())["achieved_error"] > 0

    def test_tolerance_is_relative_past_norm_one(self, tmp_path, capsys):
        # ||A|| = 1e10: an achieved error of ~1e-6 is ~1e-16 relative to ||P(A)||
        a = random_contraction(rng_for(0), 3, 1e10)
        matrix = write_matrix(tmp_path / "a.json", a)
        linear = write_poly(tmp_path / "p.json", [0.5, 0.5])
        assert cli.main(["transform", matrix, "--coeffs", linear]) == 0
        achieved = json.loads(capsys.readouterr().out)["achieved_error"]
        relative = achieved / float(np.linalg.norm(0.5 * np.eye(3) + 0.5 * a, 2))
        assert achieved > 1e-8 and relative < 1e-14
        for tolerance, code in ((2 * relative, 0), (relative / 2, 1), (0, 1)):
            argv = ["transform", matrix, "--coeffs", linear, "--tolerance", repr(tolerance)]
            assert cli.main(argv) == code
        capsys.readouterr()

    @pytest.mark.parametrize(
        "source",
        [["--inverse", "2", "--eps", "1e-16"], ["--exp", "--eps", "1e-16"]],
        ids=["inverse-2", "exp"],
    )
    def test_plan_below_rounding_passes(self, tmp_path, capsys, source):
        # the planners' disk check allows for the rounding of its own evaluations
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng_for(5), 3, 0.8))
        assert cli.main(["transform", matrix, *source]) == 0
        assert json.loads(capsys.readouterr().out)["achieved_error"] <= 1e-12

    def test_runaway_inverse_order_exits_2(self, tmp_path):
        # order 39,143,943,279: refused before a coefficient is built. The child
        # runs under a 1 GiB address-space limit, so a regression that builds
        # them fails with a MemoryError instead of exhausting the machine
        matrix = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

        def limit_memory():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "qevt.cli", "transform", matrix, "--inverse", "1.000000001"],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["module"] == "analytic" and error["exit"] == 2
        assert error["error"].startswith("truncation order 39143943279 ")

    def test_inverse_builtin(self, tmp_path, capsys):
        rng = rng_for(5)
        a = random_contraction(rng, 3, 0.8)
        matrix = write_matrix(tmp_path / "a.json", a)
        assert cli.main(["transform", matrix, "--inverse", "2", "--eps", "1e-3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = read_matrix_payload(payload["result"])
        reference = np.linalg.inv(2 * np.eye(3) - a)
        assert np.linalg.norm(result - reference, 2) <= 2e-3

    def test_inverse_near_pole(self, tmp_path, capsys):
        # degree 170, rescaled to the completion margin; the bound is eps by
        # von Neumann's inequality for a contraction
        a = random_contraction(rng_for(5), 3, 0.8)
        matrix = write_matrix(tmp_path / "a.json", a)
        assert cli.main(["transform", matrix, "--inverse", "1.1", "--eps", "1e-6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = read_matrix_payload(payload["result"])
        reference = np.linalg.inv(1.1 * np.eye(3) - a)
        assert np.linalg.norm(result - reference, 2) <= 2e-6

    def test_krylov_breakdown_exits_4(self, tmp_path, capsys, monkeypatch):
        # degree 170 takes matrix-free Newton steps; a zero Jacobian product
        # breaks the first Krylov step down
        monkeypatch.setattr(gqsp, "_jacobian_product", lambda outer: np.zeros_like)
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng_for(5), 3, 0.8))
        assert cli.main(["transform", matrix, "--inverse", "1.1", "--eps", "1e-6"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["module"] == "gqsp"
        assert "Krylov step broke down" in error["error"]

    def test_completion_failure_is_one_json_line(self, tmp_path):
        # a separate process, so that anything else written to stderr (such as
        # numpy warnings) shows up next to the error line; the child allows no
        # Newton step, which this margin polynomial of degree 170 needs
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng_for(5), 3, 0.8))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = (
            "import sys\n"
            "from qevt import cli, gqsp\n"
            "gqsp.NEWTON_STEPS = 0\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "transform", matrix,
             "--inverse", "1.1", "--eps", "1e-6"],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["module"] == "gqsp"
        assert "did not converge" in error["error"]

    @pytest.mark.parametrize(
        "source, message",
        [
            (["--inverse", "2", "--eps", "nan"], "eps must be positive and finite, got nan"),
            (["--inverse", "2", "--eps", "inf"], "eps must be positive and finite, got inf"),
            (["--inverse", "nan"], "the pole c = (nan+0j) must be finite"),
            (["--inverse", "inf"], "the pole c = (inf+0j) must be finite"),
            # 0 parses to 0j, which is falsy: it must still reach the planner's rule
            (["--inverse", "0"], "the pole's modulus |c| must exceed 1 and be finite, got 0.0"),
            (["--exp", "--eps", "nan"], "eps must be positive and finite, got nan"),
            (["--exp", "--eps", "inf"], "eps must be positive and finite, got inf"),
            # 2/171! is past the float range: the order cannot be computed
            (
                ["--exp", "--eps", "1e-320"],
                "eps must be at least 2/170! = 2.7558e-307, got 1e-320",
            ),
            # order 1024: 2^1025 is past the float range
            (
                ["--inverse", "2", "--eps", "1e-308"],
                "|c|^(N + 1) = 2.0^1025 is above the float range",
            ),
        ],
        ids=["inverse-eps-nan", "inverse-eps-inf", "inverse-nan", "inverse-inf", "inverse-zero",
             "exp-eps-nan", "exp-eps-inf", "exp-eps-below-range", "inverse-power-above-range"],
    )
    def test_non_finite_builtin_exits_2(self, tmp_path, capsys, source, message):
        matrix = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        assert cli.main(["transform", matrix, *source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error == {"error": message, "module": "analytic", "exit": 2}

    @staticmethod
    def assert_usage_error(tmp_path, capsys, source, message):
        """argparse refuses the polynomial source ("P" names a valid file): no report."""
        matrix = write_matrix(tmp_path / "a.json", 0.5 * np.eye(2))
        poly = write_poly(tmp_path / "p.json", [0.5, 0.25])
        report = tmp_path / "r.json"
        argv = ["transform", matrix, *(poly if v == "P" else v for v in source)]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--report", str(report)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"qevt transform: error: {message}" in captured.err
        assert not report.exists()

    def test_unparseable_shift_exits_2(self, tmp_path, capsys):
        message = "argument --inverse: invalid complex value: 'abc'"
        self.assert_usage_error(tmp_path, capsys, ["--inverse", "abc"], message)

    def test_requires_exactly_one_polynomial_source(self, tmp_path, capsys):
        message = "one of the arguments --coeffs --inverse --exp is required"
        self.assert_usage_error(tmp_path, capsys, [], message)

    @pytest.mark.parametrize(
        "source, message",
        [
            (["--coeffs", "P", "--exp"], "argument --exp: not allowed with argument --coeffs"),
            # an empty shift was read as no shift: the other source ran and exited 0
            (["--coeffs", "P", "--inverse", ""], "argument --inverse: invalid complex value: ''"),
            (["--inverse", "", "--exp"], "argument --inverse: invalid complex value: ''"),
        ],
        ids=["coeffs-exp", "coeffs-empty-inverse", "empty-inverse-exp"],
    )
    def test_polynomial_source_misuse_is_usage_error(self, tmp_path, capsys, source, message):
        self.assert_usage_error(tmp_path, capsys, source, message)

    def test_help_shows_one_required_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transform", "-h"])
        assert exc.value.code == 0
        assert "(--coeffs FILE | --inverse C | --exp)" in capsys.readouterr().out

    def test_byte_identical_reports(self, tmp_path):
        rng = rng_for(6)
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng, 3, 0.8))
        poly = write_poly(tmp_path / "p.json", [0.1, 0.2, 0.3, 0.1])
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        cli.main(["transform", matrix, "--coeffs", poly, "--report", str(first)])
        cli.main(["transform", matrix, "--coeffs", poly, "--report", str(second)])
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("eps", ["1e-14", "1e-15"])
    def test_exp_at_full_precision(self, tmp_path, capsys, eps):
        # the deficit's top Laurent coefficient -p_n conj(p_0) is 5e-15 / 3e-16:
        # the completion must keep that degree for the layers to strip
        a = random_contraction(rng_for(9), 3, 0.8)
        matrix = write_matrix(tmp_path / "a.json", a)
        assert cli.main(["transform", matrix, "--exp", "--eps", eps]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["achieved_error"] <= 1e-12


class TestUnreadOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "--coeffs", "p.json", "--seed", "1"],
            ["synthesize", "--coeffs", "p.json", "--grid", "64"],
            ["transform", "a.json", "--exp", "--seed", "1"],
            ["transform", "a.json", "--exp", "--grid", "64"],
            ["verify", "u.json", "a.json", "--ancillas", "1", "--order", "1", "--seed", "1"],
            ["verify", "u.json", "a.json", "--ancillas", "1", "--order", "1", "--grid", "64"],
            ["demo", "jordan", "--grid", "64"],
        ],
    )
    def test_rejected_as_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # each needs an input file, but the option is refused before any file is read
    COMMANDS = pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "--coeffs", "p.json"],
            ["transform", "a.json", "--exp"],
            ["verify", "u.json", "a.json", "--ancillas", "1", "--order", "1"],
            ["demo", "jordan"],
        ],
        ids=["synthesize", "transform", "verify", "demo"],
    )

    @staticmethod
    def assert_input_error(argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": message, "module": "cli", "exit": 2}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @COMMANDS
    def test_non_finite_tolerance_exits_2(self, argv, value, capsys):
        # a NaN threshold would fail every comparison: exit 1 whatever the result
        message = f"--tolerance must be nonnegative and finite, got {value}"
        self.assert_input_error([*argv, f"--tolerance={value}"], message, capsys)  # "=" for "-inf"

    @COMMANDS
    def test_unparsable_tolerance_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--tolerance=abc"])
        assert exc.value.code == 2
        assert "argument --tolerance: invalid float value: 'abc'" in capsys.readouterr().err

    @COMMANDS
    def test_negative_tolerance_exits_2(self, argv, capsys):
        # no error is below a negative threshold: exit 1 whatever the result
        message = "--tolerance must be nonnegative and finite, got -1.0"
        self.assert_input_error([*argv, "--tolerance=-1"], message, capsys)

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["demo", "jordan", "--seed=-1"], "--seed"),
            (["verify", "u.json", "a.json", "--ancillas", "1", "--order=-5"], "--order"),
        ],
        ids=["seed", "order"],
    )
    def test_negative_count_exits_2(self, argv, option, capsys):
        # a negative seed crashed numpy's generator; a negative order passed as 1
        value = argv[-1].split("=")[1]
        message = f"{option} must be nonnegative and an integer, got {value}"
        self.assert_input_error(argv, message, capsys)


class TestParserReuse:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once per process; a usage error in between
        # leaves it parsing the next commands as a fresh one would
        assert cli.build_parser() is cli.build_parser()
        a = random_contraction(rng_for(8), 2, 0.8)
        matrix = write_matrix(tmp_path / "a.json", a)
        unitary = tmp_path / "u.json"
        assert cli.main(["dilate", matrix, str(unitary)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["dilate", matrix, "--order", "4"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ["verify", str(unitary), matrix, "--ancillas", "1", "--order", "1"]
        assert cli.main(argv) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["order"] >= 1


class TestVerifyCommand:
    def test_regularized_encoding_passes(self, tmp_path, capsys):
        a = random_contraction(rng_for(7), 2, 0.8)
        reg = regularize(dilate(a), 4)
        unitary = write_matrix(tmp_path / "u.json", np.asarray(reg.base.unitary))
        matrix = write_matrix(tmp_path / "a.json", a)
        code = cli.main(["verify", unitary, matrix, "--ancillas", "3", "--order", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["order"] >= 4
        assert all("error" in json.loads(line) for line in lines[:-1])

    def test_plain_dilation_stops_at_one(self, tmp_path, capsys):
        a = random_contraction(rng_for(8), 2, 0.8)
        be = dilate(a)
        unitary = write_matrix(tmp_path / "u.json", np.asarray(be.unitary))
        matrix = write_matrix(tmp_path / "a.json", a)
        code = cli.main(["verify", unitary, matrix, "--ancillas", "1", "--order", "2"])
        assert code == 1
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["order"] == 1

    def test_not_an_encoding_reports_order_zero(self, tmp_path):
        # k = 1 already fails: a threshold miss (exit 1), not an input error
        a = random_contraction(rng_for(10), 2, 0.8)
        unitary = write_matrix(tmp_path / "u.json", np.asarray(dilate(a).unitary))
        matrix = write_matrix(tmp_path / "a.json", a + 0.1 * np.eye(2))
        report = tmp_path / "report.jsonl"
        code = cli.main(
            ["verify", unitary, matrix, "--ancillas", "1", "--order", "2",
             "--report", str(report)]
        )
        assert code == 1
        summary = json.loads(report.read_text().strip().splitlines()[-1])
        assert summary["order"] == 0

    @pytest.mark.parametrize(
        "shift, code, order",
        # k = 1 decides: ||E|| = 5e-11 is under the floor at tolerance 0, 1e-3 I is not
        [("random", 0, 1), ("identity", 1, 0)],
        ids=["under-floor", "off-by-1e-3"],
    )
    def test_first_power_at_tolerance_zero(self, tmp_path, capsys, shift, code, order):
        rng = rng_for(0)
        a = random_contraction(rng, 3, 0.8)
        e = random_complex(rng, (3, 3))
        e = 5e-11 * e / np.linalg.norm(e, 2) if shift == "random" else 1e-3 * np.eye(3)
        unitary = write_matrix(tmp_path / "u.json", np.asarray(dilate(a).unitary))
        matrix = write_matrix(tmp_path / "a.json", a + e)
        argv = ["verify", unitary, matrix, "--ancillas", "1", "--order", "1", "--tolerance", "0"]
        assert cli.main(argv) == code
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary == {"order": order, "requested": 1, "tolerance": 0.0}

    def test_bare_unitary_is_arbitrarily_regular(self, tmp_path):
        u = random_unitary(rng_for(9), 3)
        unitary = write_matrix(tmp_path / "u.json", u)
        matrix = write_matrix(tmp_path / "a.json", u)
        code = cli.main(["verify", unitary, matrix, "--ancillas", "0", "--order", "16"])
        assert code == 0

    def test_dimension_mismatch_exits_2(self, tmp_path):
        unitary = write_matrix(tmp_path / "u.json", np.eye(4))
        matrix = write_matrix(tmp_path / "a.json", np.eye(3))
        assert cli.main(["verify", unitary, matrix, "--ancillas", "1", "--order", "1"]) == 2

    def test_non_square_target_exits_2(self, tmp_path, capsys):
        unitary = write_matrix(tmp_path / "u.json", np.eye(4))
        matrix = write_matrix(tmp_path / "a.json", np.zeros((2, 3)))
        assert cli.main(["verify", unitary, matrix, "--ancillas", "1", "--order", "1"]) == 2
        error = json.loads(capsys.readouterr().err)
        message = "target matrix must be square, got shape (2, 3)"
        assert error == {"error": message, "module": "linalg", "exit": 2}

    def test_huge_ancilla_count_exits_2(self, tmp_path, capsys):
        # 2^20000 has more digits than Python formats by default
        unitary = write_matrix(tmp_path / "u.json", np.eye(4))
        matrix = write_matrix(tmp_path / "a.json", np.eye(2))
        code = cli.main(["verify", unitary, matrix, "--ancillas", "20000", "--order", "1"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error == {"error": "unitary dimension 4 != 2^20000 * 2", "module": "encoding",
                         "exit": 2}

    def test_order_past_the_count_cap_exits_2(self, tmp_path, capsys):
        # 10^29 - 1 matrix products ran until killed; the k_max cap refuses it at once
        a = random_contraction(rng_for(11), 2, 0.8)
        unitary = write_matrix(tmp_path / "u.json", np.asarray(dilate(a).unitary))
        matrix = write_matrix(tmp_path / "a.json", a)
        argv = ["verify", unitary, matrix, "--ancillas", "1", "--order", str(10**29)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error == {"error": f"k_max {10**29} exceeds the cap 1048576", "module": "encoding",
                         "exit": 2}


class TestDemoCommand:
    @pytest.mark.parametrize("which", ["inverse", "exp", "jordan"])
    def test_demos_pass_their_checks(self, which, tmp_path, capsys):
        assert cli.main(["demo", which]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["demo"] == which
        assert payload["report"]["achieved_error"] <= 1e-8

    def test_demo_is_seed_deterministic(self, tmp_path):
        first = tmp_path / "d1.json"
        second = tmp_path / "d2.json"
        cli.main(["demo", "inverse", "--seed", "3", "--report", str(first)])
        cli.main(["demo", "inverse", "--seed", "3", "--report", str(second)])
        assert first.read_bytes() == second.read_bytes()
