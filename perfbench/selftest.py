"""Fast self-test of the benchmark (not part of the unit-test suite).

Runs every workload at the smallest size (one deck per pass), untraced
and traced, and checks that each metric named in BENCHMARK.json is
printed with its unit, that every output passed its oracle, that the
computed per-layer figures repeat exactly between two traced runs of one
seed, and that the benchmark refuses to run outside a qevt checkout.

    python3 perfbench/selftest.py        # from the repository root, ~1-2 min
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

from worker import COMPUTED  # noqa: E402

REPORT_LINES = ("fail_frac", "op_tail_s is p", "failures ", "environment ", "setup_s samples")


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, declared, workload: str, trace: int) -> dict:
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs failed their oracle\n{proc.stdout}"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], where
    metrics = result["metrics"]
    assert set(metrics) == set(declared), f"{where}: {sorted(set(metrics) ^ set(declared))}"
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, f"{where}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{where}: {name}"
        assert any(line.strip().startswith(f"{name} ") and line.strip().endswith(f" {unit}")
                   for line in lines[:-1]), f"{where}: {name} not printed with {unit}"
    if not trace:
        for text in REPORT_LINES:
            assert any(text in line for line in lines[:-1]), f"{where}: no '{text}' line"
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        check_result(run(name, 0), end_to_end, name, 0)
        first = check_result(run(name, 1), per_layer, name, 1)["metrics"]
        second = check_result(run(name, 1), per_layer, name, 1)["metrics"]
        for metric in COMPUTED:
            assert first[metric] == second[metric], f"{name}: {metric} did not repeat"
        print(f"ok  {name}")

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "ran without a qevt checkout"
        assert '"metrics"' not in proc.stdout, "printed a result without a qevt checkout"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run outside a checkout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
