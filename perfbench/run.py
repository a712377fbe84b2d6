#!/usr/bin/env python3
"""Benchmark of qgame: certified solves, payoff evaluation and the CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Workloads (why each was chosen is in BENCHMARK.json):

* ``solve``  -- one op is ``response_problem`` then ``best_response``;
* ``payoff`` -- one op evaluates a strategy profile as ``qgame payoff`` does,
  plus the response-matrix assembly of ``verify_nash``;
* ``cli``    -- one op is one README command run as ``python -m qgame``.

Everything runs in this process, closed loop, one op at a time, with BLAS
pinned to one thread here and in every child process.  A run sets up
``SETUP_REPEATS`` times, then measures whole rounds of the workload's op slots
until ``--seconds`` would be exceeded (at least one round).  Every op's
output is checked; a failed check counts the op as failed and is never
retried or dropped.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced rounds and prints the per-layer metrics, with the tracing
overhead as the traced minus the untraced median op latency.  The last line
of standard output is one JSON object.  Details, the environment and (when
traced) every span are written under ``.perfbench_out/`` in the checkout.

End-to-end times are scaled to a reference machine speed: a fixed kernel
that calls no qgame code runs before every op, and every time is multiplied
by ``REFERENCE_KERNEL_S`` over the kernel's median time in the run.  On a
shared host the process's speed drifts by a fifth or more over minutes, and
the kernel tracks that drift; the unscaled numbers are printed too.
Per-layer times are not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import NamedTuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("solve", "payoff", "cli")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# the reference kernel's time on an uncontended core of the machine the
# benchmark was defined on (2.1 GHz Xeon, 2 vCPUs); see reference_kernel
REFERENCE_KERNEL_S = 0.003

# layer functions timed around each op, once per set-up, and by the cli probe
OP_FUNCTIONS = (
    "equilibrium.response_problem",
    "equilibrium.best_response",
    "game.payoff_tensor_matrix_unit",
    "game.payoff_contract",
    "game.payoff_direct",
    "quantum.kraus_to_chi",
)
SETUP_FUNCTIONS = ("games_builtin.ewl_prisoners_dilemma",)
PROBE_FUNCTIONS = ("files.load_game", "files.load_strategy", "files.load_povm_file")
PAYOFF_CORE = ("game.payoff_tensor_matrix_unit", "game.payoff_contract", "game.payoff_direct")
EXACT_COUNTERS = ("equilibrium.best_response.iterations", "game.tensor_bytes",
                  "quantum.joint_kraus_ops")


class OpRecord(NamedTuple):
    round: int
    slot: int
    traced: bool
    seconds: float
    error: str | None
    kernel: float  # the reference kernel's seconds just before the op


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="solve the held-out problem corpus instead of the tuned one")
    return parser.parse_args(argv)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def reference_kernel() -> float:
    """Seconds taken by a fixed computation that calls no qgame code.

    Small dense eigensolves and einsums plus a pure-Python loop: the mix a
    qgame op runs.  On a shared host this process's speed drifts by a fifth
    or more over minutes, with neighbours' load; the kernel's median over a
    run measures that drift, so that end-to-end times can be reported at a
    fixed reference speed (see ``end_to_end``).
    """
    import numpy as np

    a = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5.0 + np.eye(8)
    t0 = time.perf_counter()
    for _ in range(60):
        _, v = np.linalg.eigh(a)
        float(np.trace(np.einsum("ij,jk->ik", v, a)))
    total = 0
    for i in range(20000):
        total += i * i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# environment and determinism guard
# ---------------------------------------------------------------------------

def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({type(exc).__name__})"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (git failed)"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "corpus": "held-out" if args.held_out else "tuned",
    }


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "qgame").rglob("*")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def determinism_guard(workload: str, env: dict, counts: dict) -> str:
    """Compare exact counters with an earlier traced run of the same code and seed."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counters-{workload}-{env['corpus']}-seed{env['seed']}.json"
    fingerprint = code_fingerprint()
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier.get("fingerprint") == fingerprint:
            mismatches = [f"{k}: {earlier['counts'].get(k)} earlier, {v} now"
                          for k, v in counts.items() if earlier["counts"].get(k) != v]
            return "MISMATCH " + "; ".join(mismatches) if mismatches else \
                f"all {len(counts)} exact counters match the earlier run"
    path.write_text(json.dumps({"fingerprint": fingerprint, "counts": counts}, indent=1))
    return f"{len(counts)} exact counters recorded; no earlier run of this code and seed"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_rounds(wl, tracer, args, kernel_times: list):
    """Measure whole rounds; returns per-op records and the first traced round's counters.

    The reference kernel runs before every op, outside the op's timing.
    """
    records = []
    counters = defaultdict(int)
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    round_no = 0
    while True:
        traced = bool(args.trace) and round_no % 2 == 0
        tracer.enabled = traced
        round_start = time.perf_counter()
        for index, slot in enumerate(wl.order(round_no)):
            tracer.op_id = round_no * wl.slots + index
            kernel = reference_kernel()
            kernel_times.append(kernel)
            inp = wl.prepare(round_no, slot)
            out, error = None, None
            with tracer.span("op"):
                t0 = time.perf_counter()
                try:
                    out = wl.op(inp)
                except Exception as exc:  # a raising op is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
            if error is None:
                try:
                    error = wl.check(inp, out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if traced and round_no == 0 and out is not None:
                for key, value in wl.counters(inp, out).items():
                    counters[key] += value
            records.append(OpRecord(round_no, slot, traced, seconds, error, kernel))
        round_no += 1
        now = time.perf_counter()
        if round_no >= min_rounds and now - start + (now - round_start) > args.seconds:
            return records, dict(counters)


def end_to_end(wl, records, setup_times, kernel_times) -> tuple[dict, dict]:
    """End-to-end metrics, with times scaled to the reference speed.

    Every time is multiplied by ``REFERENCE_KERNEL_S`` over the run's median
    reference-kernel time, so it reads as seconds on a core where the kernel
    takes ``REFERENCE_KERNEL_S``.  The unscaled values go into ``info``.
    """
    import numpy as np

    lat = [r.seconds for r in records if not r.traced]
    completed = sum(1 for r in records if not r.traced and r.error is None)
    tail_q = 100.0 * (wl.slots - TAIL_BEYOND) / wl.slots
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF)
    raw = {
        "ops_per_s": completed / sum(lat),
        "op_p50_ms": 1000.0 * float(np.median(lat)),
        "op_tail_ms": 1000.0 * float(np.percentile(lat, tail_q)),
        "setup_s": float(np.median(setup_times)),
    }
    scale = REFERENCE_KERNEL_S / float(np.median(kernel_times))
    metrics = {name: value / scale if name == "ops_per_s" else value * scale
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    info = {"tail_percentile": tail_q, "samples": len(lat),
            "peak_rss_of": "largest child" if wl.name == "cli" else "benchmark process",
            "reference_kernel_ms": 1000.0 * float(np.median(kernel_times)),
            "time_scale": scale, "unscaled": raw}
    return metrics, info


def per_layer(wl, tracer, records, counters, probe) -> dict:
    import numpy as np

    traced_ops = [r.seconds for r in records if r.traced]
    n_ops = len(traced_ops)
    in_ops = tracer.summary(lambda op: isinstance(op, int))
    first_round = tracer.summary(lambda op: isinstance(op, int) and op < wl.slots)
    under_op = tracer.summary(lambda op: isinstance(op, int), parent="op")
    setup = tracer.summary(lambda op: op == "setup")
    probed = tracer.summary(lambda op: op == "probe")
    none = (0, 0.0)

    metrics = {}
    for name in OP_FUNCTIONS:
        metrics[f"{name}.busy_ms"] = 1000.0 * in_ops.get(name, none)[1] / n_ops
        metrics[f"{name}.calls"] = first_round.get(name, none)[0]
    for name in SETUP_FUNCTIONS:
        metrics[f"{name}.busy_ms"] = 1000.0 * setup.get(name, none)[1] / SETUP_REPEATS
        metrics[f"{name}.calls"] = setup.get(name, none)[0] // SETUP_REPEATS
    for name in PROBE_FUNCTIONS:
        calls, self_s = probed.get(name, none)
        metrics[f"{name}.busy_ms"] = 1000.0 * self_s / calls if calls else 0.0
        metrics[f"{name}.calls"] = calls
    from workloads import COMMANDS

    for command in COMMANDS:
        spans = tracer.durations(f"cli.{command.label}", lambda op: isinstance(op, int))
        metrics[f"cli.{command.label}.p50_ms"] = 1000.0 * float(np.median(spans)) if spans else 0.0
        metrics[f"cli.{command.label}.calls"] = first_round.get(f"cli.{command.label}", none)[0]
        metrics[f"cli.{command.label}.inproc_ms"] = probe.get(f"cli.{command.label}.inproc_ms", 0.0)
    for label in ("python", "numpy", "qgame"):
        metrics[f"cli.startup.{label}_ms"] = probe.get(f"cli.startup.{label}_ms", 0.0)

    for key in EXACT_COUNTERS:
        metrics[key] = counters.get(key, 0)
    solves = metrics["equilibrium.best_response.calls"]
    converged = counters.get("equilibrium.best_response.converged", 0)
    metrics["equilibrium.best_response.converged_ratio"] = converged / solves if solves else 0.0

    op_time = sum(traced_ops)
    metrics["equilibrium.best_response.op_share"] = \
        under_op.get("equilibrium.best_response", none)[1] / op_time
    metrics["game.payoff_core.op_share"] = \
        sum(under_op.get(name, none)[1] for name in PAYOFF_CORE) / op_time
    # each side at the reference speed, as the end-to-end times, because the
    # traced and untraced rounds run at different moments of the host's drift
    def p50(traced: bool) -> float:
        side = [r for r in records if r.traced == traced]
        return (float(np.median([r.seconds for r in side])) * REFERENCE_KERNEL_S
                / float(np.median([r.kernel for r in side])))

    traced_p50, untraced_p50 = p50(True), p50(False)
    metrics["trace.overhead_ms"] = 1000.0 * (traced_p50 - untraced_p50)
    metrics["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
    return metrics


def run_workload(args) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "qgame" / "__init__.py").is_file():
        raise BenchError(f"no qgame sources under {ROOT / 'src'}; run from a checkout root")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import qgame
    import workloads
    from tracer import Tracer
    import_s = time.perf_counter() - t0
    if Path(qgame.__file__).resolve().parent != ROOT / "src" / "qgame":
        raise BenchError(f"imported qgame from {qgame.__file__}, not from this checkout")

    env = environment(args)
    tracer = Tracer(enabled=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](args.seed, env["corpus"], tracer)

    setup_times, kernel_times = [], []
    tracer.op_id = "setup"
    for _ in range(SETUP_REPEATS):
        kernel_times.append(reference_kernel())
        t0 = time.perf_counter()
        child = workloads.python_child(["-c", "import qgame"])
        if child.returncode != 0:
            raise BenchError(f"import qgame failed in a child interpreter: {child.stderr[-500:]}")
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    records, counters = run_rounds(wl, tracer, args, kernel_times)
    counted = [r for r in records if args.trace or not r.traced]
    attempted = len(counted)
    errors = [r.error for r in counted if r.error is not None]
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors)}
    rounds = records[-1].round + 1
    detail = {"workload": args.workload, "env": env, "import_s": import_s,
              "setup_times_s": setup_times, "rounds": rounds, "slots": wl.slots,
              "errors": errors[:20],
              "ops": [[r.round, r.slot, int(r.traced), r.seconds] for r in records]}
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {rounds} rounds of {wl.slots} ops, "
          f"{attempted} attempted, {len(errors)} failed")
    for err in errors[:5]:
        print(f"  failed op: {err}")

    if args.trace:
        tracer.enabled = True
        tracer.op_id = "probe"
        probe = wl.probe()
        metrics = per_layer(wl, tracer, records, counters, probe)
        metrics["machine.reference_kernel_ms"] = 1000.0 * statistics.median(kernel_times)
        counts = {k: v for k, v in metrics.items() if k in EXACT_COUNTERS or k.endswith(".calls")}
        detail["determinism"] = determinism_guard(args.workload, env, counts)
        print(f"determinism: {detail['determinism']}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        metrics, info = end_to_end(wl, records, setup_times, kernel_times)
        detail.update(info)
        print(f"op_tail_ms is the p{info['tail_percentile']:.2f} of {info['samples']} ops; "
              f"peak_rss_mb is the {info['peak_rss_of']}'s")
        print(f"times are scaled by {info['time_scale']:.4f}: the reference kernel took "
              f"{info['reference_kernel_ms']:.3f} ms against {1000 * REFERENCE_KERNEL_S:.1f} ms; "
              f"unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
        wanted = spec["end_to_end"]

    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    detail["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    spec = load_spec()
    ok = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.held_out:
            argv.append("--held-out")
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
    print("all output checks passed" if ok else "OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
