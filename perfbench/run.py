"""qevt benchmark: one workload, one seed, one closed-loop run.

Run from the repository root:

    python3 perfbench/run.py --workload circuit --seed 1 --seconds 30 --trace 0

Workloads are ``circuit``, ``synthesis`` and ``interchange`` (see
workloads.py and README.md). With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run instead. The lines
before it are a human-readable report.

Each workload runs in its own process (worker.py) with the BLAS thread
count pinned to at most the number of usable cores. Set-up time is the
median over several fresh processes, each measured from its start to
the moment it could issue its first timed operation.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("circuit", "synthesis", "interchange")
SETUP_SAMPLES = 9  # processes whose set-up is timed: eight probes plus the measured run
CHILD_TIMEOUT_S = 170
MAX_BLAS_THREADS = 2

def _child(args, root: str, env: dict, phase: str) -> tuple[dict, float]:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--phase", phase,
        "--root", root,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{args.workload} worker ({phase}) failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qevt", "__init__.py")):
        print("error: run from a qevt checkout (src/qevt not found)", file=sys.stderr)
        return 2

    threads = str(max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))))
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(args, root, env, "setup")[1])
    result, setup = _child(args, root, env, "run")
    setups.append(setup)

    env_info = result["environment"]
    failures = result["failures"]
    attempted = result["attempted"]
    failed = sum(failures.values())
    wrong = sum(failures.get(k, 0) for k in ("OracleMismatch", "ByteMismatch", "UnexpectedError"))
    correct = wrong == 0 and not result["warmup_failures"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        "environment  python {python}  numpy {numpy}  blas {blas}  "
        "blas_threads {blas_threads}  nproc {nproc}  qevt {qevt}".format(**env_info)
    )
    print(
        f"load  closed loop, 1 caller, {result['decks']} decks = {result['ops_per_pass']} ops "
        f"per pass, {result['passes']} passes, {attempted} ops"
    )
    print(f"failures  {failed} of {attempted}  by type {json.dumps(failures, sort_keys=True)}")
    for message in result["messages"]:
        print(f"  {message.strip()}")

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        tail = result["tail"]
        print(f"  setup_s samples {[round(s, 4) for s in setups]}")
        print(f"  fail_frac {tail['fail_frac']:.6g} frac")
        print(
            f"  op_tail_s is p{tail['tail_percentile']:.2f}: {tail['tail_beyond']} of "
            f"{attempted} samples beyond it"
        )
    else:
        extra = result["trace"]
        print(
            f"  untraced pass {result['plain_pass_s']:.4f} s  traced pass "
            f"{result['traced_pass_s']:.4f} s  spans in {result['spans_file']}"
        )
        print(
            f"  evt.block_read_frac base: {extra['block_read_base_entries']} circuit entries "
            f"per pass; controlled calls expected {extra['expected_controlled_calls']} per pass"
        )
        calls = metrics["evt.controlled_calls"]["value"]
        if calls != extra["expected_controlled_calls"] and not failed:
            correct = False
        print("  self time per pass, largest first:")
        for span, self_s in sorted(extra["self_s_by_span"].items(), key=lambda kv: -kv[1]):
            print(f"    {span:40s} {self_s:.6f} s")
        print(f"  computed, not measured: {', '.join(extra['computed'])}")

    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
