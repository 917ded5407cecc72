"""Scaling curve of ``braidphase.cocycle.extend``.

``python scripts/bench_cocycle.py --before OLD/src --after src --out BENCH_15.json``
    Times ``extend`` over n in {4, 8, 12} and L in {40, 160, 640, 2560,
    10240}, by the runner and METHOD of ``scripts/bench_equal.py`` (see
    there), which time both trees in turn in one child per seeded input.  No
    subcommand evaluates a cocycle, so the child calls each tree's ``extend``
    in process, on an input built by that tree's own seeded generators.  A
    case is the median of three seeded inputs: a random word of L letters of
    both signs and a random free word of 8 letters, on

    * a valid table (``random_braid_cocycle``, three symbols), which is
      constant off its band;
    * the same table with one off-band entry raised by th4, so that one row
      has an off-band entry unlike the others.

    Both trees must print the same ``str`` of every value.
"""

from __future__ import annotations

import functools
import random
import sys

from bench_equal import run_scaling, scaling_parser

TABLES = ("valid", "one off-band entry bumped")


def extend_call(table: str, n: int, length: int, seed: int):
    """prepare(package): a call of that tree's ``extend`` on the seeded input."""
    def prepare(package):
        rng, cocycle = random.Random(f"{table}:{n}:{length}:{seed}"), package.cocycle
        symbols = ("th1", "th2", "th3")
        rows = [list(row) for row in cocycle.random_braid_cocycle(n, rng, symbols).table]
        if table != "valid":
            i, bump = rng.randrange(n - 1), package.phase.Angle.symbol("th4")
            rows[i][rng.choice([j for j in range(n) if j not in (i, i + 1)])] += bump
        c = cocycle.BraidOneCocycle(n, tuple(tuple(row) for row in rows))
        w = package.braid.random_braid_word(n, length, rng)
        letters = tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(8))
        x, extend = package.freegroup.FreeWord(n, letters), cocycle.extend
        return lambda: extend(c, w, x)
    return prepare


def main(argv=None) -> int:
    parser = scaling_parser(__doc__.split("\n\n")[0])
    return run_scaling(parser, parser.parse_args(argv), "braidphase.cocycle.extend time per "
                       "call, median of 3 seeded inputs, ms",
                       [({"table": table}, functools.partial(extend_call, table))
                        for table in TABLES], __file__)


if __name__ == "__main__":
    sys.exit(main())
