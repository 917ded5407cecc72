#!/usr/bin/env python3
"""Run one braidphase benchmark workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a braidphase checkout; the package is imported from its
``src`` directory.  A single process and a single closed-loop client: each
operation starts when the previous one and its check have finished.

``--trace 0`` times whole passes over the workload's seeded operation list,
each pass in its own seeded order, as many as fit in ``--seconds`` (at least
three), and prints the end-to-end metrics.  An operation's latency is the
best of its passes; a set-up is timed again after every pass.
``--trace 1`` makes one untraced and one traced pass over the same list and
prints the per-layer metrics; the spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report (sample counts, failures, latency by (n, L) bucket).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An operation still running after this many seconds fails with reason
# "timeout".  The slowest operation at the seed commit takes well under one.
DEADLINE_S = 5.0
# Every operation is timed at least this often in a run, even when the
# passes take longer than --seconds.
MIN_PASSES = 3
# Set-ups timed after each pass, so that the set-up samples are spread over
# the run like the operations are.
SETUPS_PER_PASS = 1
# No operation starts later than this after process start, so a program
# that has turned slow still ends the run inside three minutes.
HARD_STOP_S = 140.0
PROCESS_START = time.perf_counter()


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def pin_to_current_cpu() -> None:
    """Keep this single-threaded process on the CPU it started on: moving
    between CPUs made run-to-run timings spread much more."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # no /proc or no affinity control: run unpinned


def _braidphase_modules() -> list[str]:
    return [m for m in sys.modules if m == "braidphase" or m.startswith("braidphase.")]


def import_braidphase():
    """A fresh import of braidphase from this checkout's ``src``."""
    for name in _braidphase_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    bp = importlib.import_module("braidphase")
    importlib.import_module("braidphase.cli")
    if SRC.resolve() not in Path(bp.__file__).resolve().parents:
        raise ImportError(f"braidphase was imported from {bp.__file__}, not {SRC}")
    return bp


def set_up(workload: str):
    """Import braidphase and warm the workload's entry points; returns the
    package and the seconds it took."""
    start = time.perf_counter()
    bp = import_braidphase()
    workloads.warmup(bp, workload)
    return bp, time.perf_counter() - start


def set_up_again(workload: str) -> float:
    """Time one more set-up on a fresh import, then put back the modules the
    operations use, so they keep calling the code they were built with."""
    in_use = {name: sys.modules[name] for name in _braidphase_modules()}
    try:
        return set_up(workload)[1]
    finally:
        for name in _braidphase_modules():
            del sys.modules[name]
        sys.modules.update(in_use)


def run_op(op, trace=None, index=0) -> tuple[float, str | None]:
    """Run one operation under the deadline: (seconds, failure reason or None)."""
    reason = None
    gc.collect()  # start every operation from the same collector state
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = time.perf_counter()
    try:
        if trace is None:
            result = op.call()
        else:
            with trace.op(index, op.kind):
                result = op.call()
    except OpTimeout:
        reason = "timeout"
    except Exception as exc:  # every failure is counted, none skipped
        reason = f"error {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
    return elapsed, reason


def past_hard_stop() -> bool:
    return time.perf_counter() - PROCESS_START > HARD_STOP_S


def run_pass(ops, trace=None) -> list[tuple[object, float, str | None]]:
    """One pass over the operations in list order: (op, seconds, failure)."""
    samples = []
    for index, op in enumerate(ops):
        if past_hard_stop():
            break
        samples.append((op, *run_op(op, trace, index)))
    return samples


def summarize(samples) -> dict:
    busy = sum(elapsed for _, elapsed, _ in samples)
    failed = [reason for _, _, reason in samples if reason is not None]
    return {
        "attempted": len(samples),
        "failed": len(failed),
        "wrong": sum(1 for reason in failed if reason != "timeout"),
        "reasons": failed,
        "busy_s": busy,
        "ops_per_s": (len(samples) - len(failed)) / busy if busy else 0.0,
    }


def print_buckets(ops, latencies) -> None:
    by_bucket: dict[tuple, list[float]] = {}
    for op, elapsed in zip(ops, latencies):
        by_bucket.setdefault(op.bucket, []).append(elapsed)
    print("scaling rows (ungated): kind n L latency_p50_ms operations")
    for (kind, n, length), values in sorted(by_bucket.items()):
        print(f"  {kind} n={n} L={length} {1000 * statistics.median(values):.3f} {len(values)}")


def print_failures(reasons) -> None:
    for reason in reasons[:10]:
        print(f"failure: {reason}")


def end_to_end(args, ops, setups: list[float]) -> dict:
    """Whole passes, each over every operation in a fresh seeded order, so
    every run measures the same operation mix and no operation keeps one
    place in the run.  An operation's latency is its best pass: a slowdown of
    the machine that spares one of its passes leaves it alone."""
    order_rng = random.Random(args.seed)
    times: list[list[float]] = [[] for _ in ops]
    reasons: list[str] = []
    broken: set[int] = set()
    start = time.perf_counter()
    passes = 0
    while not past_hard_stop():
        pass_start = time.perf_counter()
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        for index in order:
            if past_hard_stop():
                break
            elapsed, reason = run_op(ops[index])
            times[index].append(elapsed)
            if reason is not None:
                reasons.append(reason)
                broken.add(index)
        passes += 1
        for _ in range(SETUPS_PER_PASS):
            setups.append(set_up_again(args.workload))
        now = time.perf_counter()
        if passes >= MIN_PASSES and now - start + (now - pass_start) > args.seconds:
            break
    timed = [i for i, t in enumerate(times) if t]
    best = [min(times[i]) for i in timed]
    attempted = sum(len(t) for t in times)
    failed = len(reasons)
    wrong = sum(1 for reason in reasons if reason != "timeout")
    passed = len([i for i in timed if i not in broken])
    p90 = statistics.quantiles(best, n=10)[8] if len(best) > 1 else best[0]
    beyond = sum(1 for v in best if v > p90)
    metrics = {
        "ops_per_s": (passed / sum(best), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(best), "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"distinct_ops={len(ops)} attempted={attempted} failed={failed} "
          f"busy_s={sum(sum(t) for t in times):.3f} "
          f"wall_s={time.perf_counter() - start:.3f}")
    print(f"latency samples={len(best)} operations (best of {passes} passes each), "
          f"beyond p90={beyond}")
    print(f"setup samples={len(setups)} first={setups[0]:.4f}s "
          f"min={min(setups):.4f}s max={max(setups):.4f}s")
    print("no layer has a queue or a lock, so no waiting time is reported")
    print_failures(reasons)
    print_buckets([ops[i] for i in timed], best)
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(args, ops) -> dict:
    plain = summarize(run_pass(ops))
    trace = tracing.Tracer()
    trace.install()
    try:
        traced_samples = run_pass(ops, trace)
    finally:
        trace.uninstall()
    traced = summarize(traced_samples)
    metrics = trace.metrics()
    ratio = traced["ops_per_s"] / plain["ops_per_s"] if plain["ops_per_s"] else 0.0
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    trace.write(out, {"workload": args.workload, "seed": args.seed,
                      "operations": len(traced_samples)})
    print(f"workload={args.workload} seed={args.seed} distinct_ops={len(ops)} "
          f"untraced_busy_s={plain['busy_s']:.3f} traced_busy_s={traced['busy_s']:.3f} "
          f"spans={len(trace.spans)} written to {out.relative_to(ROOT)}")
    print("no layer has a queue or a lock, so no waiting time is reported")
    print_failures(plain["reasons"] + traced["reasons"])
    print_buckets([op for op, _, _ in traced_samples],
                  [elapsed for _, elapsed, _ in traced_samples])
    return {"correct": plain["wrong"] + traced["wrong"] == 0,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidphase" / "__init__.py").is_file():
        print(f"error: no braidphase package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_current_cpu()
    try:
        bp, first_setup = set_up(args.workload)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](bp, random.Random(args.seed))
    # The inputs and the checks' expected answers live for the whole run;
    # keep them out of the collector's full collections inside operations.
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        result = per_layer(args, ops)
    else:
        result = end_to_end(args, ops, [first_setup])
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
