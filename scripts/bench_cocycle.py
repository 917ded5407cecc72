"""Scaling curve of ``braidphase.cocycle.extend``.

``python scripts/bench_cocycle.py --before OLD/src --after src --out BENCH_15.json``
    Times ``extend`` over n in {4, 8, 12} and L in {40, 160, 640, 2560,
    10240}, on the two source trees side by side, with the child processes,
    timing, timeout, memory limit and scaling loop of
    ``scripts/bench_equal.py`` (see there; import ``braidphase`` as it says).
    No subcommand evaluates a cocycle, so each child calls ``extend`` in
    process.  A case is the median of three seeded inputs: a random word of L
    letters of both signs and a random free word of 8 letters, on

    * a valid table (``random_braid_cocycle``, three symbols), which is
      constant off its band;
    * the same table with one off-band entry raised by th4, so that one row
      has an off-band entry unlike the others.

    Both trees must print the same ``str`` of every value.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import sys

from bench_equal import best_time, child_setup, scaling_parser, write_scaling

TABLES = ("valid", "one off-band entry bumped")


def extend_call(table: str, n: int, length: int, seed: int) -> dict:
    return {"table": table, "n": n, "L": length, "seed": seed}


def run_case(src: str) -> None:
    """Child process: build the seeded input read from standard input as JSON
    {"table", "n", "L", "seed"} and time ``extend`` on it by best_time; print
    [seconds, sha256 of str(value)] or "memory"."""
    call = json.load(sys.stdin)
    child_setup(src)
    from braidphase.braid import random_braid_word
    from braidphase.cocycle import BraidOneCocycle, extend, random_braid_cocycle
    from braidphase.freegroup import FreeWord
    from braidphase.phase import Angle

    n, rng = call["n"], random.Random(f"{call['table']}:{call['n']}:{call['L']}:{call['seed']}")
    rows = [list(row) for row in random_braid_cocycle(n, rng, ("th1", "th2", "th3")).table]
    if call["table"] != "valid":
        i = rng.randrange(n - 1)
        rows[i][rng.choice([j for j in range(n) if j not in (i, i + 1)])] += Angle.symbol("th4")
    c = BraidOneCocycle(n, tuple(tuple(row) for row in rows))
    w = random_braid_word(n, call["L"], rng)
    x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(8)))
    try:
        extend(c, w, x)  # warm-up
        seconds, value = best_time(lambda: extend(c, w, x))
    except MemoryError:
        print(json.dumps("memory"))
        return
    print(json.dumps([seconds, hashlib.sha256(str(value).encode()).hexdigest()]))


def main(argv=None) -> int:
    parser = scaling_parser(__doc__.split("\n\n")[0])
    parser.add_argument("--case", metavar="SRC")
    args = parser.parse_args(argv)
    if args.case:
        run_case(args.case)
    else:
        write_scaling(parser, args, "braidphase.cocycle.extend time per call, median of 3 "
                      "seeded inputs, ms",
                      [({"table": table}, functools.partial(extend_call, table))
                       for table in TABLES],
                      child=__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
