import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qevt import cli
from qevt.encoding import BlockEncoding, dilate, verify_encoding
from qevt.regularize import regularize

from helpers import random_contraction, random_unitary, rng_for


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
        assert verify_encoding(be, a, 1e-10)


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

    def test_root_finding_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def failing(coefficients):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.polynomial.polynomial, "polyroots", failing)
        poly = write_poly(tmp_path / "p.json", [0.5, 0, 0.5])
        assert cli.main(["synthesize", "--coeffs", poly]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["module"] == "gqsp"


class TestTransformCommand:
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

    def test_completion_failure_is_one_json_line(self, tmp_path):
        # a separate process, so that anything else written to stderr (such as
        # numpy warnings) shows up next to the error line; the child makes the
        # companion-matrix eigensolver fail on a margin polynomial of degree 170
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng_for(5), 3, 0.8))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = (
            "import sys\n"
            "import numpy as np\n"
            "from qevt import cli\n"
            "def failing(coefficients):\n"
            "    raise np.linalg.LinAlgError('Eigenvalues did not converge')\n"
            "np.polynomial.polynomial.polyroots = failing\n"
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
        assert json.loads(lines[0])["module"] == "gqsp"

    def test_requires_exactly_one_polynomial_source(self, tmp_path):
        matrix = write_matrix(tmp_path / "a.json", np.eye(2))
        assert cli.main(["transform", matrix]) == 2

    def test_byte_identical_reports(self, tmp_path):
        rng = rng_for(6)
        matrix = write_matrix(tmp_path / "a.json", random_contraction(rng, 3, 0.8))
        poly = write_poly(tmp_path / "p.json", [0.1, 0.2, 0.3, 0.1])
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        cli.main(["transform", matrix, "--coeffs", poly, "--seed", "7", "--report", str(first)])
        cli.main(["transform", matrix, "--coeffs", poly, "--seed", "7", "--report", str(second)])
        assert first.read_bytes() == second.read_bytes()


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
