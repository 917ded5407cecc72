"""The workloads: seeded operation lists with an independent check each.

An operation is one call into braidphase: ``braidphase.cli.main(argv)`` with
its output captured where a subcommand exists, otherwise the library
function the CLI would use.  Calls go through module attributes at call
time, so the traced run sees the wrapped functions.  Every check compares
with an answer known by construction or with an identity, never with the
same call on the same input.
"""

from __future__ import annotations

import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import gen

# Median over random words of the image letters the braid action builds for a
# word of length L on n strands: gen.median_action_work(rng, n, L) with one
# rng = random.Random(12345), called for n = 3..6 and, within each n, for
# L = 8, 16, ..., 56.  Typical image size grows exponentially in L.
ACTION_LENGTHS = (8, 16, 24, 32, 40, 48, 56)
TYPICAL_WORK = {
    3: (158, 1262, 7986, 63010, 218108, 650060, 2761584),
    4: (154, 944, 6542, 16206, 78798, 409264, 1610458),
    5: (154, 930, 4338, 12446, 59016, 182252, 651110),
    6: (146, 728, 2110, 8296, 33160, 76536, 152950),
}
# Each action input is drawn until its work is near the typical work of its
# (n, L), but at most this cap: a typical n=3, L=56 word takes two seconds, and
# the spread of work between random words of one (n, L) would otherwise decide
# a run's totals alone.
ACTION_WORK_CAP = 25_000
# Operation groups per (n, L): enough operations that the percentiles do not
# rest on a few inputs of a seed.
ACTION_ROUNDS = 2


@dataclass
class Op:
    kind: str
    n: int
    length: int
    call: Callable[[], object]
    check: Callable[[object], str | None]  # a failure reason, or None

    @property
    def bucket(self) -> tuple[str, int, int]:
        return self.kind, self.n, self.length


def cli_call(bp, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = bp.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def cli_op(bp, kind: str, n: int, length: int, argv: list[str], check) -> Op:
    def checked(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        return check(text.strip())

    return Op(kind, n, length, lambda: cli_call(bp, argv), checked)


def expect_text(expected: str):
    def check(text: str) -> str | None:
        return None if text == expected else f"expected {expected!r}, got {text[:60]!r}"

    return check


def expect_free_word(letters: gen.Letters):
    """The printed free word must be the reduced form of ``letters``."""
    expected = gen.free_reduce(letters)

    def check(text: str) -> str | None:
        if gen.parse_units(text, "x") != expected:
            return f"expected {gen.free_text(expected)[:60]!r}, got {text[:60]!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# wordproblem: Garside equality and normal forms
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"\(([^)]*)\)")


def _check_normal_form(word: gen.Letters, n: int):
    """The printed form D^p * (A1) * ... must have the word's exponent sum and
    strand permutation, and every factor must be a proper permutation braid
    (a positive word as long as its permutation's inversion count)."""
    half = n * (n - 1) // 2

    def check(text: str) -> str | None:
        head, _, rest = text.partition(" ")
        if not head.startswith("D^"):
            return f"bad normal form {text[:60]!r}"
        power = int(head[2:])
        letters = gen.half_twist(n) * abs(power)
        total = power * half
        for body in _FACTOR_RE.findall(rest):
            factor = [(int(tok[1:]), 1) for tok in body.split("*")]
            if not 0 < len(factor) < half:
                return f"factor {body} is trivial or the half twist"
            if len(factor) != gen.inversions(gen.arrangement(factor, n)):
                return f"factor {body} is not a permutation braid"
            letters += factor
            total += len(factor)
        if total != gen.exponent_sum(word):
            return "exponent sum changed"
        if gen.arrangement(letters, n) != gen.arrangement(word, n):
            return "strand permutation changed"
        return None

    return check


# Pairs per (n, L).  Every operation takes 3 to 60 ms, so a pass holds 240
# of them and a 35 s run makes about ten passes; both percentiles fall
# among many similar operations, not on the few slowest inputs of a seed.
WORDPROBLEM_PAIRS = {4: ((24, 20), (32, 20)), 6: ((16, 20), (24, 20)), 8: ((8, 20), (12, 20))}


def wordproblem(bp, rng: random.Random) -> list[Op]:
    ops = []
    for n, sizes in WORDPROBLEM_PAIRS.items():
        for length, pairs in sizes:
            for k in range(pairs):
                same = k % 2 == 0
                left, right = gen.pair(rng, n, length, same)
                argv = ["equal", "--group", "bn", "--n", str(n), "--oracle", "garside",
                        gen.braid_text(left), gen.braid_text(right)]
                ops.append(cli_op(bp, "equal", n, length, argv,
                                  expect_text("true" if same else "false")))
                argv = ["normalize", "--group", "bn", "--n", str(n), gen.braid_text(right)]
                ops.append(cli_op(bp, "normalize", n, length, argv,
                                  _check_normal_form(right, n)))
    return ops


# ---------------------------------------------------------------------------
# action: the braid action, action-oracle equality, pure rewriting
# ---------------------------------------------------------------------------

_PURE_TOKEN_RE = re.compile(r"a\((\d+),(\d+)\)(?:\^(-?\d+))?\Z")


def _check_linking(word: gen.Letters, n: int):
    """The exponent sum of a(p,q) in any a-alphabet spelling of a pure braid
    is the linking number of strands p and q."""
    expected = gen.linking_numbers(word, n)

    def check(text: str) -> str | None:
        sums: dict[tuple[int, int], int] = {}
        if text != "e":
            for token in text.split("*"):
                m = _PURE_TOKEN_RE.match(token)
                if m is None:
                    return f"bad token {token!r}"
                key = (int(m.group(1)), int(m.group(2)))
                sums[key] = sums.get(key, 0) + int(m.group(3) or 1)
        sums = {k: v for k, v in sums.items() if v}
        return None if sums == expected else "exponent sums differ from linking numbers"

    return check


def _typical(rng: random.Random, n: int, length: int, draw) -> tuple:
    """A draw of braid words whose summed action work is within 25% of the
    typical work for (n, L), capped; after 30 draws, the closest so far."""
    words = draw()
    target = len(words) * min(TYPICAL_WORK[n][ACTION_LENGTHS.index(length)], ACTION_WORK_CAP)
    best = (math.inf, words)
    for attempt in range(1000):
        if attempt:
            words = draw()
        costs = [gen.action_work(w, n, 2 * target) for w in words]
        miss = math.inf if None in costs else abs(math.log(max(sum(costs), 1) / target))
        best = min(best, (miss, words), key=lambda item: item[0])
        if best[0] <= 0.25 or (attempt >= 29 and best[0] < math.inf):
            break
    return best[1]


def action(bp, rng: random.Random) -> list[Op]:
    ops = []
    for n in (3, 4, 5, 6):
        product = [(j, 1) for j in range(1, n + 1)]
        for length in ACTION_LENGTHS * ACTION_ROUNDS:
            (b,) = _typical(rng, n, length, lambda: (gen.random_word(rng, n - 1, length),))
            ops.append(cli_op(bp, "act", n, length,
                              ["act", "--n", str(n), gen.braid_text(b), gen.free_text(product)],
                              expect_free_word(product)))

            def undo_draw():
                u, v = gen.pair(rng, n, length // 2, True)
                return (u + gen.inverse(v),)  # equal to the identity

            (b,) = _typical(rng, n, length, undo_draw)
            w = gen.random_word(rng, n, 6)
            ops.append(cli_op(bp, "act", n, length,
                              ["act", "--n", str(n), gen.braid_text(b), gen.free_text(w)],
                              expect_free_word(w)))
            for same in (True, False):
                left, right = _typical(rng, n, length, lambda: gen.pair(rng, n, length, same))
                argv = ["equal", "--group", "bn", "--n", str(n),
                        gen.braid_text(left), gen.braid_text(right)]
                ops.append(cli_op(bp, "equal", n, length, argv,
                                  expect_text("true" if same else "false")))
            (p,) = _typical(rng, n, length, lambda: (gen.pure_word(rng, n, length),))
            ops.append(cli_op(bp, "rewrite-pure", n, length,
                              ["rewrite-pure", "--n", str(n), gen.braid_text(p)],
                              _check_linking(p, n)))
    return ops


# ---------------------------------------------------------------------------
# cocycle: library calls, no CLI subcommand evaluates a cocycle
# ---------------------------------------------------------------------------

SYMBOLS = ("th1", "th2", "th3")


class CocycleMaker:
    """Braid cocycle tables built from (mu1, mu2, diag) by the benchmark
    itself: phi(s_i, x_i) = diag_i, phi(s_i, x_{i+1}) = mu1 - diag_i and mu2
    off the band, so mu = (n-1) mu1 + (n-1)(n-2) mu2 is known."""

    def __init__(self, bp, rng: random.Random):
        self.bp, self.rng = bp, rng

    def angle(self, spec) -> object:
        num, den, syms = spec
        out = self.bp.Angle.rational(num, den)
        for name, coeff in syms:
            out = out + self.bp.Angle.symbol(name, coeff)
        return out

    def params(self, torsion: bool) -> tuple:
        """(mu1, mu2): rational for a torsion total phase, else with th1 in
        mu1 and th2 in mu2, so mu1 + (n-2) mu2 keeps its th1 term."""
        mu1 = self.angle(gen.angle_spec(self.rng, () if torsion else ("th1",)))
        mu2 = self.angle(gen.angle_spec(self.rng, () if torsion else ("th2",)))
        return mu1, mu2

    def symbolic(self):
        """An angle with one symbol, so that every table costs alike."""
        return self.angle(gen.angle_spec(self.rng, (self.rng.choice(SYMBOLS),)))

    def table(self, n: int, mu1, mu2, diag=None):
        if diag is None:
            diag = [self.symbolic() for _ in range(n - 1)]
        rows = []
        for i in range(1, n):
            row = [mu2] * n
            row[i - 1] = diag[i - 1]
            row[i] = mu1 - diag[i - 1]
            rows.append(tuple(row))
        return self.bp.BraidOneCocycle(n, tuple(rows))

    def mu(self, n: int, mu1, mu2):
        return mu1.scale(n - 1) + mu2.scale((n - 1) * (n - 2))


def _expect_equal(expected):
    return lambda value: None if value == expected else f"expected {expected}, got {value}"


# (L, words) per n for extend, and pure words per (n, L) for sigma.  The
# counts put latency_p50_ms among the L = 100 extend calls and latency_p90_ms
# among the L = 625 ones, strata of near-equal cost, instead of between two
# kinds of operation, where it jumped from seed to seed.
EXTEND_WORDS = ((100, 6), (250, 8), (625, 5))
SIGMA_WORDS = 2
# Validation, similarity, restriction and verdicts run on the tables up to
# this n; at n = 12 they take 0.1 to 0.25 s each and would crowd out passes.
TABLE_OPS_MAX_N = 8


def cocycle(bp, rng: random.Random) -> list[Op]:
    ops = []
    make = CocycleMaker(bp, rng)
    for n in (4, 8, 12):
        tables = []
        for torsion in (True, False):
            mu1, mu2 = make.params(torsion)
            tables.append((torsion, mu1, mu2, make.table(n, mu1, mu2)))
        z = gen.full_twist(n)
        for length, count in EXTEND_WORDS:
            for k in range(count):
                torsion, mu1, mu2, c = tables[k % 2]
                body = gen.random_word(rng, n - 1, length - len(z))
                a = bp.BraidWord(n, tuple(body + z))
                # four distinct generators: extend's cost per letter is the
                # number of nonzero exponent sums of x, here always four
                x_letters = [(j, rng.choice((1, -1))) for j in rng.sample(range(1, n + 1), 4)]
                x = bp.FreeWord(n, tuple(x_letters))
                # phi(a' z, x) = phi(a', x) + (exponent sum of x) * mu
                expected = bp.extend(c, bp.BraidWord(n, tuple(body)), x) + make.mu(
                    n, mu1, mu2
                ).scale(gen.exponent_sum(x_letters))
                ops.append(Op("extend", n, length,
                              lambda c=c, a=a, x=x: bp.extend(c, a, x),
                              _expect_equal(expected)))
        for torsion, mu1, mu2, c in tables if n <= TABLE_OPS_MAX_N else ():
            ops.append(Op("validate", n, 0,
                          lambda c=c: bp.validate_braid_cocycle(c).ok,
                          _expect_equal(True)))
            broken = [list(row) for row in c.table]
            i, j = rng.randint(0, n - 2), rng.randint(0, n - 1)
            broken[i][j] = broken[i][j] + bp.Angle.symbol("th9")
            bad = bp.BraidOneCocycle(n, tuple(tuple(row) for row in broken))
            ops.append(Op("validate", n, 0,
                          lambda bad=bad: bp.validate_braid_cocycle(bad).ok,
                          _expect_equal(False)))
            twin = make.table(n, mu1, mu2)
            ops.append(Op("similar", n, 0,
                          lambda c=c, twin=twin: bp.similar_braid_cocycles(c, twin),
                          _check_witness(bp, c, twin)))
            other = make.table(n, mu1 + bp.Angle.rational(1, 5), mu2)
            ops.append(Op("similar", n, 0,
                          lambda c=c, other=other: bp.similar_braid_cocycles(c, other),
                          _expect_equal(None)))
            mu = make.mu(n, mu1, mu2)
            row_sum = (mu1 + mu2.scale(n - 2)).scale(2)
            ops.append(Op("restrict", n, 0,
                          lambda c=c: bp.restrict_to_pure(c),
                          _check_restriction(bp, mu, row_sum)))
            verdict = "NotFactor" if torsion else "SimpleAndUniqueTrace"
            for family in ("bn", "an"):
                ops.append(Op("verdict", n, 0,
                              lambda family=family, c=c:
                                  bp.evaluate_conditions(family, c).verdict,
                              _expect_equal(verdict)))
            pure = bp.restrict_to_pure(c)
            verdict = "NotFactor" if torsion else "GuaranteedSimpleAndUniqueTrace"
            ops.append(Op("verdict", n, 0,
                          lambda pure=pure: bp.evaluate_conditions("pn", pure).verdict,
                          _expect_equal(verdict)))
    for n in (3, 4, 5):
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        rows = {pq: [make.symbolic() for _ in range(n)] for pq in pairs}
        sigma = bp.TwoCocycleSigmaPhi(bp.build_pure_cocycle(n, rows))
        for length in (8, 16, 24):
            for _ in range(SIGMA_WORDS):
                w = gen.pure_word(rng, n, length)
                g1 = bp.SemidirectElement(bp.FreeWord(n, tuple(gen.random_word(rng, n, 4))),
                                          bp.BraidWord(n, tuple(w)))
                y = gen.random_word(rng, n, 6)
                g2 = bp.SemidirectElement(bp.FreeWord(n, tuple(y)),
                                          bp.BraidWord(n, tuple(gen.random_word(rng, n - 1, 4))))
                # sigma(g1, g2) = sum over p<q of lk_pq(w) * phi(a_pq, y)
                expected = bp.Angle.zero()
                ab = gen.abelianize(y, n)
                for pq, lk in gen.linking_numbers(w, n).items():
                    for k, coeff in enumerate(ab):
                        expected = expected + rows[pq][k].scale(lk * coeff)
                ops.append(Op("sigma", n, length,
                              lambda g1=g1, g2=g2, sigma=sigma: sigma.evaluate(g1, g2),
                              _expect_equal(expected)))
    return ops


def _check_witness(bp, c1, c2):
    """The witness f must satisfy (c1 - c2)(s_i, x_j) = f(s_i . x_j) - f(x_j)."""
    n = c1.n

    def check(witness) -> str | None:
        if witness is None:
            return "tables with equal parameters judged dissimilar"
        f = witness.values
        for i in range(1, n):
            for j in range(1, n + 1):
                if j == i:
                    want = f[i] - f[i - 1]
                elif j == i + 1:
                    want = f[i - 1] - f[i]
                else:
                    want = bp.Angle.zero()
                if c1.entry(i, j) - c2.entry(i, j) != want:
                    return f"witness fails at s{i}, x{j}"
        return None

    return check


def _check_restriction(bp, mu, row_sum):
    """Each column sums to phi(z, x_k) = mu, each row to phi(a_ij, x1..xn)."""

    def check(pure) -> str | None:
        for k in range(pure.n):
            total = bp.Angle.zero()
            for row in pure.rows:
                total = total + row[k]
            if total != mu:
                return f"column x{k + 1} sums to {total}, expected mu = {mu}"
        for row in pure.rows:
            total = bp.Angle.zero()
            for value in row:
                total = total + value
            if total != row_sum:
                return f"a row sums to {total}, expected {row_sum}"
        return None

    return check


WORKLOADS = {
    "wordproblem": wordproblem,
    "action": action,
    "cocycle": cocycle,
}


def warmup(bp, name: str) -> None:
    """One tiny call per entry point the workload uses, to fill lazy caches
    (regular expressions, argument parsers) before timing."""
    if name == "cocycle":
        c = bp.build_braid_cocycle(3, bp.Angle.symbol("th1"))
        bp.extend(c, bp.BraidWord(3, ((1, 1),)), bp.FreeWord(3, ((1, 1),)))
        bp.evaluate_conditions("bn", c)
        bp.similar_braid_cocycles(c, c)
        bp.TwoCocycleSigmaPhi(bp.restrict_to_pure(c)).evaluate(
            bp.SemidirectElement.identity(3), bp.SemidirectElement.identity(3))
        bp.validate_braid_cocycle(c)
        return
    argvs = {
        "wordproblem": [["normalize", "--group", "bn", "--n", "3", "s1"],
                        ["equal", "--group", "bn", "--n", "3", "--oracle", "garside", "s1", "s1"]],
        "action": [["act", "--n", "3", "s1", "x1"],
                   ["equal", "--group", "bn", "--n", "3", "s1", "s1"],
                   ["rewrite-pure", "--n", "3", "s1^2"]],
    }[name]
    for argv in argvs:
        cli_call(bp, argv)
