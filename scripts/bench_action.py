"""Scaling curve of ``braidphase act`` and ``braidphase rewrite-pure``.

``python scripts/bench_action.py --before OLD/src --after src --out BENCH_9.json``
    Times four commands through each tree's ``braidphase.cli.main`` over n in
    {4, 8, 12} and L in {40, 160, 640, 2560, 10240}, by the runner and METHOD
    of ``scripts/bench_equal.py`` (see there, also for how ``braidphase`` is
    imported), which time both trees in turn in one child per seeded input.
    A case is the median of three seeded inputs:

    * ``act`` of the first word of the seeded pair (n, L) on x1*...*xn, which
      every braid fixes;
    * ``act`` of u*v^-1, for the seeded equal pair (u, v) of (n, L/2), on a
      seeded word of 6 letters, which this identity braid fixes; v is u with
      four relators put in, spelled a letter per token and inverted token by
      token; u*v^-1 is freely reduced on parsing, where the stretch after the
      last relator cancels, to about 0.8 L + 15 letters on average;
    * ``rewrite-pure`` of the first word of the seeded pair (n, L) closed up
      to a pure braid by a permutation braid; its output is checked by the
      two trees printing the same text;
    * ``act`` of s1^L on x1, with L the exponent (the same call for each
      seed), checked against the closed form x1 conjugated by (x1*x2)^(L/2),
      built by free-word arithmetic; the output has 2L + 1 letters, so the
      curve shows whether a braid run costs its output or its square.
"""

from __future__ import annotations

import random
import sys

from bench_equal import cli_call, pair, run_scaling, scaling_parser


def _inverse(text: str) -> str:
    return "*".join(t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(text.split("*")))


def act_on_product(n: int, length: int, seed: int):
    product = "*".join(f"x{j}" for j in range(1, n + 1))
    return cli_call(["act", "--n", str(n), pair(n, length, seed)[0], product], product)


def act_of_identity(n: int, length: int, seed: int):
    from braidphase.freegroup import FreeWord

    u, v = pair(n, length // 2, seed)
    rng = random.Random(f"word:{n}:{length}:{seed}")
    letters: list[tuple[int, int]] = []
    while len(letters) < 6:
        letter = (rng.randint(1, n), rng.choice((1, -1)))
        if not letters or letter != (letters[-1][0], -letters[-1][1]):
            letters.append(letter)
    word = str(FreeWord(n, tuple(letters)))
    return cli_call(["act", "--n", str(n), f"{u}*{_inverse(v)}", word], word)


def rewrite_pure_call(n: int, length: int, seed: int):
    from braidphase.braid import BraidWord, parse_braid_word, permutation_of

    b = parse_braid_word(pair(n, length, seed)[0], n)
    closing = permutation_of(b).inverse().reduced_word()
    pure = b * BraidWord(n, tuple((i, 1) for i in closing))
    return cli_call(["rewrite-pure", "--n", str(n), str(pure)], None)


def act_of_power(n: int, length: int, seed: int):
    from braidphase.freegroup import FreeWord

    half = FreeWord(n, ((1, 1), (2, 1))) ** (length // 2)
    x = FreeWord.generator(n, 1 if length % 2 == 0 else 2)
    return cli_call(["act", "--n", str(n), f"s1^{length}", "x1"], str(x.conjugate_by(half)))


def main(argv=None) -> int:
    parser = scaling_parser(__doc__.split("\n\n")[0])
    return run_scaling(parser, parser.parse_args(argv), "braidphase act / rewrite-pure wall "
                       "time per call, median of 3 seeded inputs, ms",
                       [({"command": "act x1*...*xn"}, act_on_product),
                        ({"command": "act u*v^-1 on 6 letters"}, act_of_identity),
                        ({"command": "rewrite-pure"}, rewrite_pure_call),
                        ({"command": "act s1^L on x1"}, act_of_power)], __file__)


if __name__ == "__main__":
    sys.exit(main())
