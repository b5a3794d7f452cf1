"""Benchmark of the localpriority workbench.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/`; the run
fails, printing no result, when it is not there. The workload's batch of ops
is built from the seed, then repeated for about `--seconds`. Every op
is followed by an untimed correctness gate. The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`. A run
record and, with `--trace 1`, the spans go to `perfbench/out/`.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("audit", "enumerate", "search")
SETUP_SAMPLES = 7
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def setup(workload: str, seed: int):
    """Import the program and build the workload's inputs from the seed."""
    sys.path.insert(0, str(ROOT / "src"))
    import localpriority

    if not Path(localpriority.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"localpriority imported from outside {ROOT / 'src'}")
    import workloads

    return workloads.build(workload, seed, OUT)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def run_batch(work, tracer, traced: bool, failures: list[str]) -> tuple[list[float], range]:
    """One pass over the batch. Returns each op's time, failed ops included,
    and the op ids the tracer gave the batch."""
    first = tracer.op_id + 1 if tracer else 0
    times = []
    for op in work.ops:
        if tracer:
            tracer.op_id += 1
            tracer.active = traced
        started = perf_counter()
        try:
            result = op.run()
        except Exception:
            failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
            continue
        finally:
            times.append(perf_counter() - started)
            if tracer:
                tracer.active = False
        problems = op.check(result)
        if problems:
            failures.append(f"{op.label}: " + "; ".join(problems))
    last = tracer.op_id + 1 if tracer else 0
    return times, range(first, last)


def batch_time(per_batch: list[list[float]]) -> float:
    """Time to solution of one batch: the sum over its ops of each op's
    median time across batches. On a shared host, per-op medians shed more
    contention bursts than the median of whole-batch sums does."""
    return sum(statistics.median(column) for column in zip(*per_batch))


def tail(times: list[float]) -> tuple[str, float]:
    """Highest listed percentile with at least ten ops beyond it (nearest rank)."""
    ordered = sorted(times)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{q:g}", ordered[rank - 1]
    return "p50", statistics.median(ordered)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args, work, tracer) -> dict:
    """Repeat the batch while more than half a batch's time is left before
    the deadline, so a run lasts `--seconds` give or take half a batch. With
    a tracer, batches alternate between untraced and traced, starting
    untraced, and at least one of each runs."""
    failures: list[str] = []
    untraced, traced_times, traced_batches = [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(tracer) and len(untraced) > len(traced_times)
        started = perf_counter()
        times, ops = run_batch(work, tracer, traced, failures)
        if traced:
            traced_times.append(times)
            traced_batches.append(ops)
        else:
            untraced.append(times)
        now = perf_counter()
        if now + (now - started) / 2 >= deadline and (not tracer or traced_times):
            break
    return {"failures": failures, "untraced": untraced, "traced": traced_times, "traced_batches": traced_batches}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    started = perf_counter()
    try:
        work = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    setup_s = perf_counter() - started
    if args.setup_only:
        print(f"{setup_s:.9f}")
        return 0

    import tracer as tracing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        m = measure(args, work, tracer)
    finally:
        if tracer:
            tracer.restore()
    batches = len(m["untraced"]) + len(m["traced"])
    attempted = batches * len(work.ops)
    failed = len(m["failures"])
    for failure in m["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    values: dict[str, float] = {}
    unsteady: list[str] = []
    if tracer:
        names = [d["name"] for d in declared["per_layer"] if not d["name"].startswith("trace.")]
        layers, unsteady = tracing.per_layer(tracer, m["traced_batches"], names)
        values.update(layers)
        values["trace.overhead_s"] = batch_time(m["traced"]) - batch_time(m["untraced"])
        if unsteady:
            print(f"FAILED answer counts differ between batches: {unsteady}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.dump(str(OUT / f"spans-{args.workload}.tsv"))
        metrics_decl = declared["per_layer"]
    else:
        samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        values["wall_s"] = batch_time(m["untraced"])
        values["setup_s"] = statistics.median(samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics_decl = declared["end_to_end"]
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in metrics_decl}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu_model(),
        "commit": git_commit(), "batches": batches, "ops_per_batch": len(work.ops),
        "profiles_per_op": work.profiles_per_op, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "op_labels": [op.label for op in work.ops],
        "op_times_s": m["untraced"], "traced_op_times_s": m["traced"],
    }
    if args.workload == "audit" and not tracer:
        op_times = [t for times in m["untraced"] for t in times]
        label, value = tail(op_times)
        record.update(op_p50_ms=statistics.median(op_times) * 1e3, op_tail_ms=value * 1e3,
                      op_tail_percentile=label, op_samples=len(op_times))
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {batches} batches of {len(work.ops)} ops, "
          f"{attempted} ops, {failed} failed, fail_ratio {failed / attempted:.4g}")
    if "op_p50_ms" in record:
        print(f"op_p50_ms {record['op_p50_ms']:.3f} ms, op_tail_ms {record['op_tail_ms']:.3f} ms "
              f"({label} of {record['op_samples']} ops)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = failed == 0 and not unsteady
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
