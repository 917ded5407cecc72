"""Scaling curve of ``braidphase equal --group bn`` for each word-problem oracle.

Two modes, both importing ``braidphase`` for the seeded words (install the
package, or put its ``src`` on ``PYTHONPATH``):

``python scripts/bench_equal.py --before OLD/src --after src --out BENCH_8.json``
    Times ``equal`` through ``braidphase.cli.main`` for every oracle that
    either tree's ``--oracle`` offers (one a tree lacks is recorded there as
    null), over n in {4, 8, 12} and L in {40, 160, 640, 2560, 10240}, on the
    two source trees side by side.  A case is the median of three seeded
    equal pairs, each pair timed in its own fresh child process.  A case in
    which one call runs out of TIMEOUT_S seconds is recorded as "timeout",
    and one that runs out of the MEMORY_MB address-space limit as "memory";
    the longer words of that oracle and n are then not run and are recorded
    the same way, since the cost only grows with L.

``python scripts/bench_equal.py --pair N L SEED``
    Prints the seeded equal pair for (N, L, SEED), one braid word per line.

A pair is a random word of L letters, none next to its inverse, and the same
word with four relators s_i s_{i+1} s_i s_{i+1}^-1 s_i^-1 s_{i+1}^-1 put in at
seeded places, so both sides of every pair are equal and the whole of each
word is compared.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys

ORACLES = ("dynnikov", "garside", "artin")
STRANDS = (4, 8, 12)
LENGTHS = (40, 160, 640, 2560, 10240)
SEEDS = (0, 1, 2)
TIMEOUT_S = 60
MEMORY_MB = 1024  # keeps the action's exponential images off a shared machine
METHOD = (
    "Each seeded pair is timed in a fresh child process per tree: one warm-up "
    "call, then one call to braidphase.cli.main, timed. 'timeout' and 'memory' "
    "mark a case in which one such child ran out of timeout_s or "
    "memory_limit_mb; longer words of that oracle and n are then not run and "
    "carry the same mark. null: the tree has no such oracle."
)


def pair(n: int, length: int, seed: int) -> tuple[str, str]:
    """The seeded equal pair, as braid word text."""
    from braidphase.braid import random_reduced_word

    rng = random.Random(f"{n}:{length}:{seed}")
    left = list(random_reduced_word(n, length, rng).letters)
    right = left.copy()
    for _ in range(4):
        i, cut = rng.randint(1, n - 2), rng.randint(0, len(right))
        right[cut:cut] = [(i, 1), (i + 1, 1), (i, 1), (i + 1, -1), (i, -1), (i + 1, -1)]
    return tuple("*".join(f"s{i}" if e > 0 else f"s{i}^-1" for i, e in w) for w in (left, right))


def run_case(src: str, oracle: str, n: int) -> None:
    """Child process: time ``equal`` on the pair read from standard input as
    a JSON list of two words; print the seconds, "memory", or null when the
    tree has no such oracle."""
    import resource
    import time

    left, right = json.load(sys.stdin)
    limit = MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    from braidphase.cli import main

    warm_up = ["equal", "--group", "bn", "--n", "3", "--oracle", oracle, "s1", "s1"]
    try:  # also fills the lazy caches: parser, token regex
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(warm_up)
    except SystemExit:  # argparse: no such --oracle choice in this tree
        print(json.dumps(None))
        return
    argv = ["equal", "--group", "bn", "--n", str(n), "--oracle", oracle, left, right]
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            start = time.perf_counter()
            code = main(argv)
            seconds = time.perf_counter() - start
    except MemoryError:
        print(json.dumps("memory"))
        return
    if code != 0 or out.getvalue().strip() != "true":
        raise SystemExit(f"{oracle} n={n}: wrong answer on a pair of {len(left)} letters")
    print(json.dumps(seconds))


def measure(src: str, oracle: str, n: int, length: int) -> object:
    """Median milliseconds of one case, each pair in a fresh child, or the
    first failure."""
    times = []
    for seed in SEEDS:
        command = [sys.executable, __file__, "--case", src, oracle, str(n)]
        try:
            done = subprocess.run(command, input=json.dumps(pair(n, length, seed)),
                                  capture_output=True, text=True, timeout=TIMEOUT_S,
                                  check=True)
        except subprocess.TimeoutExpired:
            return "timeout"
        result = json.loads(done.stdout)
        if not isinstance(result, float):
            return result
        times.append(result)
    return round(statistics.median(times) * 1000, 2)


def scaling(args) -> dict:
    trees = {"before": args.before, "after": args.after}
    cases = []
    for oracle in ORACLES:
        for n in STRANDS:
            given_up = {}
            for index, length in enumerate(LENGTHS):
                row = {"oracle": oracle, "n": n, "L": length}
                order = list(trees) if index % 2 == 0 else list(reversed(trees))
                for side in order:
                    if side in given_up:
                        row[side] = given_up[side]
                        continue
                    row[side] = measure(trees[side], oracle, n, length)
                    if row[side] in ("timeout", "memory"):
                        given_up[side] = row[side]
                cases.append({key: row[key] for key in ("oracle", "n", "L", "before", "after")})
                print(json.dumps(cases[-1]), file=sys.stderr)
    return {
        "metric": "braidphase equal --group bn wall time per call, median of 3 seeded "
                  "equal pairs, ms",
        "before": args.before_name,
        "after": args.after_name,
        "timeout_s": TIMEOUT_S,
        "memory_limit_mb": MEMORY_MB,
        "method": METHOD,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "cases": cases,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pair", nargs=3, type=int, metavar=("N", "L", "SEED"))
    parser.add_argument("--case", nargs=3, metavar=("SRC", "ORACLE", "N"))
    parser.add_argument("--before", help="src directory of the parent tree")
    parser.add_argument("--after", default="src", help="src directory of the changed tree")
    parser.add_argument("--before-name", default="parent")
    parser.add_argument("--after-name", default="change")
    parser.add_argument("--out", help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    if args.pair:
        print("\n".join(pair(*args.pair)))
    elif args.case:
        src, oracle, n = args.case
        run_case(src, oracle, int(n))
    else:
        if not (args.before and args.out):
            parser.error("a scaling run needs --before and --out")
        doc = scaling(args)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
