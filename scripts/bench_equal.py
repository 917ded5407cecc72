"""Scaling curve of ``braidphase equal --group bn`` for each word-problem oracle.

``python scripts/bench_equal.py --before OLD/src --after src --out BENCH_8.json``
    Times ``equal --oracle dynnikov`` and ``equal --oracle garside`` through
    each tree's ``braidphase.cli.main`` on the seeded equal pairs below, over
    n in {4, 8, 12} and L in {40, 160, 640, 2560, 10240}, by the method in
    METHOD, which is written into the output file too.  This script holds
    the runner of that method, which ``scripts/bench_action.py`` and
    ``scripts/bench_cocycle.py`` share.  The trees timed are loaded from
    --before and --after; the seeded words are built with the ``braidphase``
    on the import path (install the package, or put its ``src`` on
    ``PYTHONPATH``).

``python scripts/bench_equal.py --pair N L SEED``
    Prints the seeded equal pair for (N, L, SEED), one braid word per line.

A pair is ``braid.random_equal_pair(N, L, random.Random("N:L:SEED"))``: a
random word of L letters and the same word with four defining relators put
in, so both sides of every pair are equal and the whole of each word is
compared.  Each word is spelled one letter at a time, ``s<i>`` or
``s<i>^-1`` and never a run such as ``s1^3``, so it can be inverted token by
token.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import os
import platform
import random
import signal
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
# Both trees are timed in one child, in turn: timed in a child each, the two
# columns could land in different speed modes of a shared 2-vCPU VM (an A/A
# case read 1.106 ms on one tree and 0.726 ms on the other).  A child takes
# PAIRS pairs of samples, fewer once they have taken REPEAT_S seconds: one
# call per input moved a case by up to 25%, a call of seconds is steady on
# its own, and with 10 pairs one A/A case in 99 read a median ratio of 0.939.
# A sample times a loop of calls lasting LOOP_S and takes the time per call:
# single calls moved by up to 37% between two runs below 1 ms, 35% above it.
PAIRS = 20
REPEAT_S = 10
LOOP_S = 0.02
METHOD = (
    "Each seeded input is timed in one fresh child process, which loads both "
    "source trees as two packages and gives them the same call. Each tree makes "
    "one warm-up call, and the trees must print the same output; the warm-up "
    f"calls are untimed unless each lasts {LOOP_S * 1000:.0f} ms or longer, when "
    f"they are the first pair of samples. Then come pairs of samples up to {PAIRS} "
    f"pairs, fewer once the pairs have taken {REPEAT_S} s, with the first tree "
    "alternating from pair to pair. A sample is the time per call of a loop of "
    f"calls lasting at least {LOOP_S * 1000:.0f} ms (one call, if it lasts longer). "
    f"before, after: the median over the {len(SEEDS)} seeds of each tree's median "
    "sample, ms, from the same pairs as ratio. ratio: the 10th percentile, median "
    "and 90th percentile of after/before over all pairs of the case; null when "
    "either side is a mark. 'memory' marks a tree that ran out of memory_limit_mb "
    "(a CLI call exiting 5 included) and 'timeout' one with a call running past "
    "timeout_s; the child then ends, the other tree is timed alone in a fresh "
    "child, and the marked tree runs no further seed, nor longer words of that "
    "command and n, which carry the same mark."
)


def pair(n: int, length: int, seed: int) -> tuple[str, str]:
    """The seeded equal pair, as braid word text spelled letter by letter."""
    from braidphase.braid import random_equal_pair

    words = random_equal_pair(n, length, random.Random(f"{n}:{length}:{seed}"))
    return tuple("*".join(f"s{i}" if e > 0 else f"s{i}^-1" for i, e in w.units) for w in words)


def cli_call(argv: list[str], expect: str | None):
    """prepare(package): a call of that tree's ``cli.main(argv)``, returning
    its output, which must be expect unless that is None.  Exit code 5 raises
    MemoryError; any other failure ends the child as a wrong answer."""
    def prepare(package):
        main = importlib.import_module(f"{package.__name__}.cli").main

        def call() -> str:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            if code == 5:  # the CLI's EXIT_RESOURCE: out of memory
                raise MemoryError
            text = out.getvalue().strip()
            if code != 0 or expect not in (None, text):
                raise SystemExit(f"{argv[0]} --n {argv[argv.index('--n') + 1]}: wrong answer")
            return text
        return call
    return prepare


def equal_call(oracle: str, n: int, length: int, seed: int):
    """The seeded call of ``equal --oracle ORACLE`` on the pair (n, L, seed)."""
    left, right = pair(n, length, seed)
    return cli_call(["equal", "--group", "bn", "--n", str(n), "--oracle", oracle, left, right],
                    "true")


class Timeout(Exception):
    """A call ran past TIMEOUT_S (not an OSError, which the CLI would catch)."""


def _on_alarm(signum, frame):
    raise Timeout


def sample(call, loop_s: float = LOOP_S) -> tuple[float, object]:
    """Seconds per call of a loop of calls of ``call()`` lasting at least
    loop_s (one call, if it lasts longer), and the value of the last one;
    raises Timeout once the loop has run TIMEOUT_S seconds."""
    count, elapsed, start = 0, 0.0, time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        while count == 0 or elapsed < loop_s:
            value = call()
            count += 1
            elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed / count, value


def load_tree(side: str, src: str):
    """The package ``braidphase`` of the source tree src, imported as tree_SIDE;
    this works because every import inside ``braidphase`` is relative."""
    spec = importlib.util.spec_from_file_location(
        f"tree_{side}", os.path.join(src, "braidphase", "__init__.py"))
    package = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


class Failed(Exception):
    """A tree's call ran out of memory or past TIMEOUT_S; args: (side, mark)."""


def time_pairs(calls: dict) -> dict[str, list[float]]:
    """The samples {side: [seconds per call]} of each tree's call, taken in
    pairs as METHOD says; raises Failed for the tree whose call fails.  The
    warm-up calls, one a tree, must print the same output, and when each
    lasts LOOP_S or longer they are the first pair."""
    samples, warm, start = {side: [] for side in calls}, {}, time.perf_counter()
    order = list(calls)
    try:
        for side in order:  # also fills the lazy caches: parser, regex
            warm[side] = sample(calls[side], 0)
        if len({str(value) for _, value in warm.values()}) > 1:
            raise SystemExit("the trees print different outputs")
        if min(seconds for seconds, _ in warm.values()) >= LOOP_S:
            for side in order:
                samples[side].append(warm[side][0])
            order.reverse()
        while len(samples[order[0]]) < PAIRS and time.perf_counter() - start < REPEAT_S:
            for side in order:
                samples[side].append(sample(calls[side])[0])
            order.reverse()
    except (MemoryError, Timeout) as exc:
        raise Failed(side, "memory" if isinstance(exc, MemoryError) else "timeout") from None
    return samples


def run_case(workloads: list, job: dict) -> None:
    """Child process: time the seeded input of the job {"workload": index, "n",
    "L", "seed", "trees": {side: src}} on each tree in turn, under MEMORY_MB;
    print {"median": {side: seconds}, "ratios": [after/before per pair]}, or
    {"failed": side, "mark": "memory" or "timeout"} as soon as one fails."""
    import resource

    limit = MEMORY_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _on_alarm)
    prepare = workloads[job["workload"]][1](job["n"], job["L"], job["seed"])
    calls = {side: prepare(load_tree(side, src)) for side, src in job["trees"].items()}
    try:
        samples = time_pairs(calls)
    except Failed as exc:
        side, mark = exc.args
        print(json.dumps({"failed": side, "mark": mark}))
        return
    ratios = [a / b for b, a in zip(samples.get("before", []), samples.get("after", []))]
    medians = {side: statistics.median(times) for side, times in samples.items()}
    print(json.dumps({"median": medians, "ratios": ratios}))


def run_seed(child: str, job: dict, trees: dict[str, str], marks: dict) -> dict:
    """The result of the job on the trees not in marks, in a fresh child of the
    script ``child``; a tree that fails is marked in marks, and the rest run
    again in a fresh child, until one child finishes or no tree is left."""
    while todo := {side: src for side, src in trees.items() if side not in marks}:
        command = [sys.executable, child, "--case", json.dumps({**job, "trees": todo})]
        # a backstop: the child's alarm ends each call unless it hangs in C code
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=4 * TIMEOUT_S + REPEAT_S)
        if done.returncode != 0:
            raise SystemExit(f"{job}: {done.stderr.strip()}")
        result = json.loads(done.stdout)
        if "failed" not in result:
            return result
        marks[result["failed"]] = result["mark"]
    return {"median": {}, "ratios": []}


def ratio_band(ratios: list[float]) -> list[float]:
    """The 10th percentile, median and 90th percentile of the ratios."""
    deciles = statistics.quantiles(ratios, n=10, method="inclusive")
    return [round(r, 3) for r in (deciles[0], statistics.median(ratios), deciles[-1])]


def scaling(trees: dict[str, str], workloads: list, child: str) -> list[dict]:
    """Cases of each (key, make) workload over STRANDS x LENGTHS on both trees,
    one child per seed (two after a failure); make(n, L, seed) builds the
    seeded input and returns prepare(package), which returns a call on that
    tree, as cli_call does."""
    cases = []
    for index, (key, _) in enumerate(workloads):
        for n in STRANDS:
            marks = {}  # a tree's mark holds for the longer words too
            for length in LENGTHS:
                medians, ratios = {side: [] for side in trees}, []
                for seed in SEEDS:
                    job = {"workload": index, "n": n, "L": length, "seed": seed}
                    result = run_seed(child, job, trees, marks)
                    for side, seconds in result["median"].items():
                        medians[side].append(seconds)
                    ratios += result["ratios"]
                row = {side: marks.get(side) or round(statistics.median(medians[side]) * 1000, 3)
                       for side in trees}
                case = {**key, "n": n, "L": length, **row,
                        "ratio": None if marks else ratio_band(ratios)}
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
    parser.add_argument("--case", metavar="JOB", type=json.loads, help=argparse.SUPPRESS)
    return parser


def run_scaling(parser, args, metric: str, workloads: list, child: str) -> int:
    """Run the child job of ``--case``, or write the scaling curve of the
    workloads, timed in children of the script ``child``."""
    if args.case:
        run_case(workloads, args.case)
        return 0
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
    return 0


def main(argv=None) -> int:
    parser = scaling_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--pair", nargs=3, type=int, metavar=("N", "L", "SEED"))
    args = parser.parse_args(argv)
    if args.pair:
        try:
            print("\n".join(pair(*args.pair)))
            sys.stdout.flush()  # a closed pipe shows here, not at the interpreter's exit
        except BrokenPipeError:  # the reader wanted only the first lines
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())  # the final flush goes nowhere
            os.close(devnull)
        return 0
    return run_scaling(parser, args, "braidphase equal --group bn wall time per call, median "
                       "of 3 seeded equal pairs, ms",
                       [({"oracle": oracle}, functools.partial(equal_call, oracle))
                        for oracle in ORACLES], __file__)


if __name__ == "__main__":
    sys.exit(main())
