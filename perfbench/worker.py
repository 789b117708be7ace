"""One workload process: set up, then run whole passes in a closed loop.

Started by run.py with the BLAS thread count already pinned in its
environment. ``--phase setup`` stops after the warm-up operation and
reports when it got there; ``--phase run`` goes on to the measured
passes and prints one JSON summary as its last line.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch  # noqa: E402

# Metrics printed with --trace 0, besides setup_s which run.py measures: (name, unit).
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ok_frac", "frac"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MiB"),
)
# Metrics printed with --trace 1: (name, unit). Counts and times are per traced pass.
PER_LAYER = (
    ("linalg.operator_norm.calls", "count/pass"),
    ("linalg.operator_norm.self_s", "s/pass"),
    ("linalg.kron.self_s", "s/pass"),
    ("linalg.horner_eval.self_s", "s/pass"),
    ("encoding.dilate.self_s", "s/pass"),
    ("encoding.BlockEncoding.calls", "count/pass"),
    ("encoding.BlockEncoding.validate_s", "s/pass"),
    ("encoding.regularity_profile.self_s", "s/pass"),
    ("regularize.regularize.self_s", "s/pass"),
    ("regularize.branch_shift.self_s", "s/pass"),
    ("regularize.unitary_mb", "MiB"),
    ("gqsp.sup_norm_on_circle.calls", "count/pass"),
    ("gqsp.sup_norm_on_circle.self_s", "s/pass"),
    ("gqsp.complete.calls", "count/pass"),
    ("gqsp.complete.self_s", "s/pass"),
    ("gqsp.polynomial_roots.calls", "count/pass"),
    ("gqsp.polynomial_roots.self_s", "s/pass"),
    ("gqsp.polynomial_roots.fail", "count/pass"),
    ("gqsp.synthesize.calls", "count/pass"),
    ("gqsp.synthesize.self_s", "s/pass"),
    ("gqsp.evaluate_scalar.calls", "count/pass"),
    ("gqsp.evaluate_scalar.self_s", "s/pass"),
    ("gqsp.GqspSequence.validate_s", "s/pass"),
    ("evt.transform.self_s", "s/pass"),
    ("evt.assemble_circuit.self_s", "s/pass"),
    ("evt.assemble_circuit.gflop", "GFLOP/pass"),
    ("evt.assemble_circuit.gflops", "GFLOP/s"),
    ("evt.block_read_frac", "frac"),
    ("evt.controlled_calls", "count/pass"),
    ("analytic.shifted_inverse_plan.self_s", "s/pass"),
    ("analytic.exp_plan.self_s", "s/pass"),
    ("cli.main.calls", "count/pass"),
    ("cli.emit_json.self_s", "s/pass"),
    ("cli.load_matrix.self_s", "s/pass"),
    ("cli.load_encoding.self_s", "s/pass"),
    ("cli.bytes_written", "B/pass"),
    ("cli.bytes_read", "B/pass"),
    ("bench.check_s", "s/pass"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
)
# Figures computed from input sizes rather than measured; they repeat exactly.
COMPUTED = (
    "regularize.unitary_mb",
    "evt.assemble_circuit.gflop",
    "evt.block_read_frac",
    "cli.bytes_written",
    "cli.bytes_read",
)
TAIL_BEYOND = 10


def _import_qevt(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qevt", "__init__.py")):
        raise SystemExit(f"no qevt sources under {src}: run from the repository root")
    sys.path.insert(0, src)
    import qevt
    import qevt.cli

    if not os.path.abspath(qevt.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported qevt from {qevt.__file__}, not from {src}")
    return qevt


def _environment(qevt) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    try:  # the thread count OpenBLAS actually uses, where numpy bundles it
        import ctypes
        import glob

        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        lib = ctypes.CDLL(glob.glob(os.path.join(libdir, "*openblas*"))[0])
        getter = lib.scipy_openblas_get_num_threads64_
        getter.restype = ctypes.c_int
        threads = str(getter())
    except (OSError, IndexError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "qevt": qevt.__version__,
    }


class Loop:
    """Closed loop over the cases of one pass; records every operation."""

    def __init__(self, workload, qevt, tracer=None):
        self.wl = workload
        self.error_types = (qevt.QevtError,)
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: dict[str, int] = {}
        self.errors: list[float] = []
        self.messages: list[str] = []
        self.controlled_calls = 0

    def op(self, case, index: int) -> None:
        if self.tracer is not None:
            self.tracer.op_id = index
        kind = None
        start = time.perf_counter()
        try:
            output = self.wl.run(case)
        except self.error_types as exc:
            kind = type(exc).__name__
        except Mismatch as exc:
            kind = exc.kind
        except Exception:  # a defect, not a typed library failure: record and go on
            kind = "UnexpectedError"
            self.messages.append(f"{case.label}: {traceback.format_exc()}")
        self.latencies.append(time.perf_counter() - start)
        if kind is None:
            try:
                if self.tracer is not None and self.tracer.installed:
                    with self.tracer.span("bench.check"):
                        self.errors.append(self.wl.check(case, output))
                else:
                    self.errors.append(self.wl.check(case, output))
                self.controlled_calls += getattr(output, "controlled_calls", 0)
            except Mismatch as exc:
                kind = exc.kind
                self.messages.append(str(exc))
            except Exception:
                kind = "UnexpectedError"
                self.messages.append(f"{case.label}: check: {traceback.format_exc()}")
        if kind is not None:
            self.failures[kind] = self.failures.get(kind, 0) + 1

    def run_pass(self) -> float:
        start = time.perf_counter()
        for i, case in enumerate(self.wl.cases):
            self.op(case, i)
        return time.perf_counter() - start


def _end_to_end(loop: Loop, walls: list[float]) -> dict:
    lat = sorted(loop.latencies)
    attempted = len(lat)
    failed = sum(loop.failures.values())
    if attempted > TAIL_BEYOND:
        tail = lat[attempted - TAIL_BEYOND - 1]
        beyond = TAIL_BEYOND
    else:
        tail, beyond = lat[-1], 0
    worst = max(loop.errors) if loop.errors else 1.0
    return {
        "ops_per_s": attempted / sum(walls),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "tail_percentile": 100.0 * (attempted - beyond) / attempted,
        "tail_beyond": beyond,
        "ok_frac": 1.0 - failed / attempted,
        "fail_frac": failed / attempted,
        "accuracy_digits": -math.log10(max(worst, 1e-17)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer, workload, loop: Loop, traced_walls, plain_walls) -> tuple[dict, dict]:
    totals = tracer.totals()
    passes = len(traced_walls)

    def per(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0) / passes

    cases = workload.cases
    values = {}
    for name, _unit in PER_LAYER:
        module, _, rest = name.rpartition(".")
        if rest in ("calls", "self_s", "fail"):
            values[name] = per(module, rest)
        elif rest == "validate_s":
            values[name] = per(module, "total_s")
    gflop = sum(c.counts.get("gflop", 0.0) for c in cases)
    assemble_s = values["evt.assemble_circuit.self_s"]
    read = sum(c.counts.get("read_entries", 0) for c in cases)
    entries = sum(c.counts.get("circuit_entries", 0) for c in cases)
    values.update(
        {
            "regularize.unitary_mb": max(c.counts.get("unitary_bytes", 0) for c in cases) / 2**20,
            "evt.assemble_circuit.gflop": gflop,
            "evt.assemble_circuit.gflops": gflop / assemble_s if assemble_s > 0 else 0.0,
            "evt.block_read_frac": read / entries if entries else 0.0,
            "evt.controlled_calls": loop.controlled_calls / (2 * passes),
            "cli.bytes_written": sum(c.counts.get("bytes_written", 0) for c in cases),
            "cli.bytes_read": sum(c.counts.get("bytes_read", 0) for c in cases),
            "bench.check_s": per("bench.check", "self_s"),
            "trace.coverage": sum(t["self_s"] for t in totals.values()) / sum(traced_walls),
            "trace.overhead_frac": (sum(traced_walls) / passes)
            / (sum(plain_walls) / len(plain_walls))
            - 1.0,
        }
    )
    extra = {
        "block_read_base_entries": entries,
        "expected_controlled_calls": sum(c.counts.get("degree", 0) for c in cases),
        "self_s_by_span": {k: v["self_s"] / passes for k, v in totals.items()},
        "computed": COMPUTED,
    }
    return values, extra


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    warnings.simplefilter("ignore")  # the library's overflow warnings on failing inputs
    qevt = _import_qevt(args.root)
    cls = WORKLOADS[args.workload]
    budget = args.seconds / 2 if args.trace else args.seconds
    decks = max(1, round(budget / cls.deck_s))
    out_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = cls(qevt, args.seed, decks, workdir)
        warm = Loop(workload, qevt)
        warm.op(workload.warmup, -1)
        ready = time.monotonic()
        if args.phase == "setup":
            print(json.dumps({"ready": ready}))
            return 0

        summary = {
            "ready": ready,
            "environment": _environment(qevt),
            "decks": decks,
            "ops_per_pass": len(workload.cases),
            "warmup_failures": warm.failures,
        }
        if not args.trace:
            loop = Loop(workload, qevt)
            walls = []
            while True:
                walls.append(loop.run_pass())
                if sum(walls) * (1 + 1 / len(walls)) > args.seconds:
                    break
            summary["passes"] = len(walls)
            values = _end_to_end(loop, walls)
            summary["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
            summary["tail"] = {k: values[k] for k in ("tail_percentile", "tail_beyond", "fail_frac")}
        else:
            tracer = Tracer(qevt)
            loop = Loop(workload, qevt, tracer)
            plain, traced = [], []
            while True:
                plain.append(loop.run_pass())
                tracer.install()
                try:
                    traced.append(loop.run_pass())
                finally:
                    tracer.uninstall()
                if (sum(plain) + sum(traced)) * (1 + 1 / len(plain)) > args.seconds:
                    break
            summary["passes"] = len(plain) + len(traced)
            summary["plain_pass_s"] = sum(plain) / len(plain)
            summary["traced_pass_s"] = sum(traced) / len(traced)
            values, summary["trace"] = _per_layer(tracer, workload, loop, traced, plain)
            summary["metrics"] = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
            spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write(spans_path)
            summary["spans_file"] = os.path.relpath(spans_path, args.root)
        summary.update(
            attempted=len(loop.latencies),
            failures=loop.failures,
            messages=loop.messages[:5],
        )
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
