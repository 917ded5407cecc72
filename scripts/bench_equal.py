"""Scaling curve of ``braidphase equal --group bn`` for each word-problem oracle.

Two modes, both importing ``braidphase`` for the seeded words (install the
package, or put its ``src`` on ``PYTHONPATH``):

``python scripts/bench_equal.py --before OLD/src --after src --out BENCH_8.json``
    Times ``equal`` through ``braidphase.cli.main`` for every oracle that
    either tree's ``--oracle`` offers (one a tree lacks is recorded there as
    null), over n in {4, 8, 12} and L in {40, 160, 640, 2560, 10240}, on the
    two source trees side by side.  A case is the median of three seeded
    equal pairs, each pair timed, best of five samples, in its own fresh
    child process; a sample is the time per call of a loop of calls lasting
    at least 20 ms, or of one call that lasts longer.  A case in
    which one call runs out of TIMEOUT_S seconds is recorded as "timeout",
    and one that runs out of the MEMORY_MB address-space limit as "memory";
    the longer words of that oracle and n are then not run and are recorded
    the same way, since the cost only grows with L.

``python scripts/bench_equal.py --pair N L SEED``
    Prints the seeded equal pair for (N, L, SEED), one braid word per line.

``scripts/bench_action.py`` times ``act`` and ``rewrite-pure`` the same way,
through this script's child processes and scaling loop, which also require
both trees to print the same output for every input they both finish;
``scripts/bench_cocycle.py`` times ``cocycle.extend`` with the same loop and
timing, in children of its own.

A pair is a random word of L letters, none next to its inverse, and the same
word with four relators s_i s_{i+1} s_i s_{i+1}^-1 s_i^-1 s_{i+1}^-1 put in at
seeded places, so both sides of every pair are equal and the whole of each
word is compared.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

ORACLES = ("dynnikov", "garside")
STRANDS = (4, 8, 12)
LENGTHS = (40, 160, 640, 2560, 10240)
SEEDS = (0, 1, 2)
TIMEOUT_S = 60
MEMORY_MB = 1024  # keeps the action's exponential images off a shared machine
# A child times the best of REPEATS samples, fewer once the calls have taken
# REPEAT_S seconds: one call per input moved a case by up to 25% on a shared
# 2-vCPU VM, and a call of seconds is steady on its own.  A sample times a
# loop of calls lasting LOOP_S and takes the time per call: single calls moved
# by up to 37% between two runs below 1 ms, and by up to 35% above it.
REPEATS = 5
REPEAT_S = 10
LOOP_S = 0.02
METHOD = (
    "Each seeded input is timed in a fresh child process per tree: one warm-up "
    "call, then the best of 5 samples, fewer once the calls have taken 10 s; "
    "a sample is the time per call of a loop of calls lasting at least 20 ms "
    "(one call, if it lasts longer). 'timeout' and 'memory' "
    "mark a case in which one such child ran out of timeout_s or "
    "memory_limit_mb; longer words of that command and n are then not run and "
    "carry the same mark. null: the tree has no such choice (an --oracle)."
)


def pair(n: int, length: int, seed: int) -> tuple[str, str]:
    """The seeded equal pair, as braid word text."""
    from braidphase.braid import random_reduced_word

    rng = random.Random(f"{n}:{length}:{seed}")
    left = list(random_reduced_word(n, length, rng).units)
    right = left.copy()
    for _ in range(4):
        i, cut = rng.randint(1, n - 2), rng.randint(0, len(right))
        right[cut:cut] = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
    return tuple("*".join(f"s{i}" if e > 0 else f"s{i}^-1" for i, e in w) for w in (left, right))


def equal_call(oracle: str, n: int, length: int, seed: int) -> dict:
    """The seeded call of ``equal --oracle ORACLE`` on the pair (n, L, seed)."""
    left, right = pair(n, length, seed)
    return {"warm_up": ["equal", "--group", "bn", "--n", "3", "--oracle", oracle, "s1", "s1"],
            "argv": ["equal", "--group", "bn", "--n", str(n), "--oracle", oracle, left, right],
            "expect": "true"}


def best_time(call) -> tuple[float, object]:
    """Seconds per call of ``call()``, the best of REPEATS samples (fewer once
    the calls have taken REPEAT_S seconds), and the value of its last call.
    A sample is the time per call of a loop of calls lasting at least LOOP_S."""
    samples, spent = [], 0.0
    while len(samples) < REPEATS and spent < REPEAT_S:
        count, elapsed, start = 0, 0.0, time.perf_counter()
        while elapsed < LOOP_S:
            value = call()
            count += 1
            elapsed = time.perf_counter() - start
        samples.append(elapsed / count)
        spent += elapsed
    return min(samples), value


def child_setup(src: str) -> None:
    """Child process: cap the address space at MEMORY_MB and put src first
    on the import path."""
    import resource

    limit = MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)


def run_case(src: str) -> None:
    """Child process: time calls of ``braidphase.cli.main`` by best_time, read
    from standard input as JSON {"warm_up": argv, "argv": argv, "expect":
    text or null}; print [seconds, sha256 of the output], "memory", or null
    when the tree rejects the warm-up's arguments (it has no such choice)."""
    call = json.load(sys.stdin)
    child_setup(src)
    from braidphase.cli import main

    try:  # also fills the lazy caches: parser, token regex
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(call["warm_up"])
    except SystemExit:  # argparse: no such choice in this tree
        print(json.dumps(None))
        return

    def run() -> tuple[int, str]:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(call["argv"])
        return code, out.getvalue().strip()

    try:
        seconds, (code, text) = best_time(run)
    except MemoryError:
        print(json.dumps("memory"))
        return
    if code != 0 or call["expect"] not in (None, text):
        argv = call["argv"]
        raise SystemExit(f"{argv[0]} --n {argv[argv.index('--n') + 1]}: wrong answer")
    print(json.dumps([seconds, hashlib.sha256(text.encode()).hexdigest()]))


def measure(src: str, calls: list[dict], child: str) -> tuple[object, list | None]:
    """Median milliseconds of the calls, each in a fresh child running
    ``child --case src``, with the digests of their outputs; or the first
    failure and no digests."""
    times, digests = [], []
    for call in calls:
        command = [sys.executable, child, "--case", src]
        try:
            done = subprocess.run(command, input=json.dumps(call), capture_output=True,
                                  text=True, timeout=TIMEOUT_S, check=True)
        except subprocess.TimeoutExpired:
            return "timeout", None
        result = json.loads(done.stdout)
        if not isinstance(result, list):
            return result, None
        times.append(result[0])
        digests.append(result[1])
    return round(statistics.median(times) * 1000, 3), digests


def scaling(trees: dict[str, str], workloads: list, child: str) -> list[dict]:
    """Cases of each (key, make_call) workload over STRANDS x LENGTHS on both
    trees, one call per seed; the trees must print the same outputs."""
    cases = []
    for key, make_call in workloads:
        for n in STRANDS:
            given_up = {}
            for index, length in enumerate(LENGTHS):
                calls = [make_call(n, length, seed) for seed in SEEDS]
                row, digests = {}, {}
                order = list(trees) if index % 2 == 0 else list(reversed(trees))
                for side in order:
                    if side in given_up:
                        row[side] = given_up[side]
                        continue
                    row[side], digests[side] = measure(trees[side], calls, child)
                    if row[side] in ("timeout", "memory"):
                        given_up[side] = row[side]
                case = {**key, "n": n, "L": length, "before": row["before"],
                        "after": row["after"]}
                if None not in digests.values() and len(set(map(tuple, digests.values()))) > 1:
                    raise SystemExit(f"the trees print different outputs: {case}")
                cases.append(case)
                print(json.dumps(case), file=sys.stderr)
    return cases


def scaling_parser(description: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--before", help="src directory of the parent tree")
    parser.add_argument("--after", default="src", help="src directory of the changed tree")
    parser.add_argument("--before-name", default="parent")
    parser.add_argument("--after-name", default="change")
    parser.add_argument("--out", help="the BENCH_*.json file to write")
    return parser


def write_scaling(parser, args, metric: str, workloads: list, child: str = __file__) -> None:
    """Write the scaling curve, timed in child processes of the script ``child``
    (this one by default) run with ``--case SRC``."""
    if not (args.before and args.out):
        parser.error("a scaling run needs --before and --out")
    doc = {
        "metric": metric,
        "before": args.before_name,
        "after": args.after_name,
        "timeout_s": TIMEOUT_S,
        "memory_limit_mb": MEMORY_MB,
        "method": METHOD,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "cases": scaling({"before": args.before, "after": args.after}, workloads, child),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = scaling_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--pair", nargs=3, type=int, metavar=("N", "L", "SEED"))
    parser.add_argument("--case", metavar="SRC")
    args = parser.parse_args(argv)
    if args.pair:
        print("\n".join(pair(*args.pair)))
    elif args.case:
        run_case(args.case)
    else:
        write_scaling(parser, args, "braidphase equal --group bn wall time per call, median "
                      "of 3 seeded equal pairs, ms",
                      [({"oracle": oracle}, functools.partial(equal_call, oracle))
                       for oracle in ORACLES])
    return 0


if __name__ == "__main__":
    sys.exit(main())
