"""Seeded verification checks for the identities the library relies on.

A check is a function ``check(rng, **params)`` that returns a counterexample
string, or None when the identity holds on every input it tried.  Checks
without random inputs take ``rng=None`` and ignore it.  No cocycle check
draws a table: each works on tables with a symbol per build parameter or per
entry, which stand for every table, and the rng draws only the braid and free
words that some of them evaluate on.  :data:`REGISTRY` lists every check
once; ``braidphase verify --max-n N`` runs each check that takes a strand count
at every n from its least up to N, with no cap of its own, and the acceptance
suite calls the same functions with its own seeds and sizes.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .artin import apply_braid
from .braid import (
    BraidWord,
    _pairs,
    center_z,
    center_z_pure_word,
    defining_relations,
    dynnikov,
    embed,
    equal,
    garside_normal_form,
    is_inner_for_pure,
    is_pure,
    p3_image,
    parse_braid_word,
    permutation_of,
    random_braid_word,
    random_equal_pair,
    random_pure_braid_word,
    rewrite_pure,
)
from .cocycle import (
    BraidOneCocycle,
    SemidirectElement,
    TwoCocycleSigmaPhi,
    build_braid_cocycle,
    build_pure_cocycle,
    center_element,
    coboundary_of_character,
    evaluate_conditions,
    extend,
    extend_pure,
    mu_params,
    mu_phi,
    sigma_regular,
    similar_braid_cocycles,
    validate_braid_cocycle,
)
from .errors import RankError
from .freegroup import Character, FreeWord
from .phase import Angle

__all__ = ["Check", "REGISTRY", "build_checks", "run_verify"]


def _full_word(n: int) -> FreeWord:
    return FreeWord(n, tuple((i, 1) for i in range(1, n + 1)))


def _acts_alike(a: BraidWord, b: BraidWord) -> bool:
    """auto(a) = auto(b), by apply_braid on x1..x_{n-1} up to the first
    difference; both braids fix x1...xn, which settles the image of x_n."""
    xs = (FreeWord.generator(a.strands, j) for j in range(1, a.strands))
    return all(apply_braid(a, x) == apply_braid(b, x) for x in xs)


def _generators(n: int) -> list[SemidirectElement]:
    """x1..xn, then s1..s_{n-1}, as elements of the semidirect product."""
    return [
        SemidirectElement(FreeWord.generator(n, j), BraidWord.identity(n))
        for j in range(1, n + 1)
    ] + [
        SemidirectElement(FreeWord.identity(n), BraidWord.generator(n, i))
        for i in range(1, n)
    ]


# ---------------------------------------------------------------------------
# Suite braid
# ---------------------------------------------------------------------------

def artin_relations(rng: random.Random | None = None, *, n: int) -> str | None:
    """Both sides of every defining relation act alike, by apply_braid."""
    for kind, where, u, v in defining_relations(n):
        if not _acts_alike(u, v):
            return f"{kind}[{where}] fails under the action"
    return None


def braid_center(rng: random.Random | None = None, *, n: int) -> str | None:
    z = center_z(n)
    power = BraidWord(n, tuple((i, 1) for _ in range(n) for i in range(1, n)))
    aword = center_z_pure_word(n).expand()
    words = [("Delta^2", z), ("(s1..s_{n-1})^n", power), ("a-product", aword)]
    for (la, wa), (lb, wb) in itertools.combinations(words, 2):
        if not equal(wa, wb):
            return f"Dynnikov coordinates reject {la} = {lb}"
        if garside_normal_form(wa) != garside_normal_form(wb):
            return f"canonical forms differ for {la} = {lb}"
    return None


def center_action(rng: random.Random | None = None, *, n: int) -> str | None:
    """apply_braid(z, x_i) against x_i conjugated by x1...xn, for every i."""
    z, full = center_z(n), _full_word(n)
    for i in range(1, n + 1):
        x = FreeWord.generator(n, i)
        image, expected = apply_braid(z, x), x.conjugate_by(full)
        if image != expected:
            return f"image of x{i} is {image}, expected {expected}"
    return None


def semidirect_center(rng: random.Random | None = None, *, n: int) -> str | None:
    g = center_element(n)
    for h in _generators(n):
        if not g.commutes_with(h):
            return f"central element fails to commute with {h}"
    return None


def inner_witness(rng: random.Random, *, n: int, samples: int) -> str | None:
    """is_inner_for_pure on ``samples`` pure braids, every other one a central
    power c z^k c^-1 in disguise.  Each witness w must conjugate every x_j as
    the braid does, by apply_braid; each None needs a generator s_i that does
    not commute with the braid, since the s_i generate B_n."""
    z = center_z(n)
    xs = [FreeWord.generator(n, j) for j in range(1, n + 1)]
    ss = [BraidWord.generator(n, i) for i in range(1, n)]
    for t in range(samples):
        if t % 2 == 0:
            c = random_braid_word(n, rng.randint(0, 8), rng)
            b = c * z ** rng.randint(-2, 2) * c.inverse()
        else:
            b = random_pure_braid_word(n, 24 + n * (n - 1) // 2, rng)
        w = is_inner_for_pure(b)
        if w is not None:
            for x in xs:
                if apply_braid(b, x) != x.conjugate_by(w):
                    return f"{w} does not conjugate {x} as {b} acts on it"
        elif all(equal(b * s, s * b) for s in ss):
            return f"no witness for {b}, which commutes with every generator"
    return None


def remark_a3(rng: random.Random | None = None) -> str | None:
    t1 = parse_braid_word("s1", 3)
    t2 = parse_braid_word("s2^2", 3)
    if not equal((t1 * t2) * (t1 * t2), (t2 * t1) * (t2 * t1)):
        return "(t1 t2)^2 != (t2 t1)^2 for t1=s1, t2=s2^2"
    return None


def remark_p3(rng: random.Random | None = None) -> str | None:
    free, central = p3_image(center_z_pure_word(3))
    if not free.is_identity or central != 1:
        return f"full twist maps to ({free}, u^{central}), expected (e, u)"
    free, central = p3_image(rewrite_pure(parse_braid_word("s1^2", 3)))
    if free != (FreeWord.generator(2, 1) * FreeWord.generator(2, 2)).inverse() or central != 1:
        return "s1^2 does not map to (v1 v2)^-1 u"
    return None


def pure_rewrite(rng: random.Random, *, n: int, samples: int) -> str | None:
    """Round trips on ``samples`` pure words of 16 letters and a closing permutation."""
    for _ in range(samples):
        w = random_pure_braid_word(n, 16 + n * (n - 1) // 2, rng)
        if not is_pure(w):
            return f"generated word {w} is not pure"
        if not equal(rewrite_pure(w).expand(), w):
            return f"round trip fails for {w}"
    return None


def oracle_agreement(rng: random.Random, *, max_n: int) -> str | None:
    """The action, compared by _acts_alike, against Garside forms on 500
    pairs, half random and half equal by construction; each answer must come
    up in at least a fifth."""
    pairs = 500
    seen = {True: 0, False: 0}
    for t in range(pairs):
        n = rng.randint(2, max_n)
        if t % 2 == 0:
            a = random_braid_word(n, rng.randint(0, 30), rng)
            b = random_braid_word(n, rng.randint(0, 30), rng)
        else:
            a, b = random_equal_pair(n, 30, rng)
        via_action = _acts_alike(a, b)
        if via_action != (garside_normal_form(a) == garside_normal_form(b)):
            return f"oracles disagree on {a} vs {b} (n={n})"
        seen[via_action] += 1
    if min(seen.values()) < pairs // 5:
        return f"sample too one-sided: {seen[True]} equal, {seen[False]} unequal pairs"
    return None


def dynnikov_agreement(rng: random.Random, *, n: int) -> str | None:
    """Dynnikov coordinates against Garside forms up to 640 letters.  Equal:
    a pair equal by construction, and the first word's normal form written
    out.  Near misses: the second word with the commutator of s_i^2 and
    s_{i+1}^2 put in (pure, exponent sum 0, nontrivial), and that word with
    one letter inverted.  B_2 is infinite cyclic, so n = 2 has no commutator."""
    for length, rounds in ((10, 16), (40, 8), (160, 4), (640, 1)):
        for _ in range(rounds):
            a, b = random_equal_pair(n, length, rng)
            form, coordinates = garside_normal_form(a), dynnikov(a)
            if dynnikov(form.as_braid_word()) != coordinates:
                return f"Dynnikov coordinates reject {a} = its normal form"
            others, near, cut = [b], list(b.units), rng.randint(0, len(b.units))
            if n > 2:
                i = rng.randint(1, n - 2)
                near[cut:cut] = [(i, 1), (i, 1), (i + 1, 1), (i + 1, 1)]
                near[cut + 4 : cut + 4] = [(i, -1), (i, -1), (i + 1, -1), (i + 1, -1)]
                others.append(BraidWord(n, tuple(near)))
            if near:
                t = rng.randrange(len(near))
                flip = near[:t] + [(near[t][0], -near[t][1])] + near[t + 1 :]
                others.append(BraidWord(n, tuple(flip)))
            for other in others:
                if (dynnikov(other) == coordinates) != (garside_normal_form(other) == form):
                    return f"Dynnikov and Garside disagree on {a} vs {other}"
    return None


def permutation_homomorphism(rng: random.Random, *, n: int) -> str | None:
    for _ in range(40):
        a = random_braid_word(n, rng.randint(0, 12), rng)
        b = random_braid_word(n, rng.randint(0, 12), rng)
        if permutation_of(a * b) != permutation_of(a) * permutation_of(b):
            return f"permutation map not multiplicative on {a}, {b}"
    return None


# ---------------------------------------------------------------------------
# Suite cocycle
# ---------------------------------------------------------------------------

def classification(rng: random.Random | None = None, *, n: int) -> str | None:
    """On the generic build table, which covers every valid table
    (cocycle-extension): a twin with its own diagonal symbols e1..e_{n-1} must
    be similar, with a witness whose coboundary is the difference of the two
    tables as an identity in the symbols, and the table with m1, or from three
    strands on m2, raised by a fresh symbol must not be."""
    c, bump = _generic_cocycle(n), Angle.symbol("bump")
    (m1, m2), diag = mu_params(c), [c.entry(i, i) for i in range(1, n)]
    twin = build_braid_cocycle(n, m1, m2, [Angle.symbol(f"e{i}") for i in range(1, n)])
    witness = similar_braid_cocycles(c, twin)
    if witness is None:
        return "cocycles with equal parameters judged dissimilar"
    h = coboundary_of_character(witness)
    for i in range(1, n):
        for j in range(1, n + 1):
            if c.entry(i, j) - twin.entry(i, j) != h.entry(i, j):
                return f"witness equation fails at s{i}, x{j}"
    raised = {"m1": build_braid_cocycle(n, m1 + bump, m2, diag)}
    if n >= 3:
        raised["m2"] = build_braid_cocycle(n, m1, m2 + bump, diag)
    for name, other in raised.items():
        if similar_braid_cocycles(c, other) is not None:
            return f"the table with {name} raised judged similar"
    return None


def _unimodular_rank(rows: list[list[int]]) -> int | None:
    """Rank of integer rows by elimination with +-1 pivots only, or None when
    a step finds none.  Unit pivots make every Smith divisor 1, so the common
    zeros of the rows in (R/Z)^m are a connected torus of dimension m - rank."""
    rows, rank = [r for r in rows if any(r)], 0
    while rows:
        pivot = next(((r, j) for r in rows for j, a in enumerate(r) if a in (1, -1)), None)
        if pivot is None:
            return None
        p, j = pivot
        rows = [[a - r[j] * p[j] * b for a, b in zip(r, p)] for r in rows if r is not p]
        rows, rank = [r for r in rows if any(r)], rank + 1
    return rank


def _symbolic_rank(angles: Sequence[Angle]) -> int | None:
    """_unimodular_rank of the angles as integer forms in their symbols."""
    names = sorted({name for a in angles for name, _ in a.syms})
    return _unimodular_rank([[dict(a.syms).get(m, 0) for m in names] for a in angles])


def _generic_cocycle(n: int) -> BraidOneCocycle:
    """build_braid_cocycle with a symbol per parameter: m1, m2, d1..d_{n-1}."""
    diag = [Angle.symbol(f"d{i}") for i in range(1, n)]
    return build_braid_cocycle(n, Angle.symbol("m1"), Angle.symbol("m2"), diag)


def cocycle_extension(rng: random.Random | None = None, *, n: int) -> str | None:
    """Extension on both sides of every defining relation at every x_k, on a
    table with a symbol t{i}_{j} per entry, gives integer forms (extend is
    linear in the table).  They must have unit pivots and rank (n-1)n - p for
    the p = n+1 build parameters (2 on two strands), so the tables extension
    accepts are a connected torus of dimension p, which the generic build
    table, accepted by both sides, fills.  The relation families must agree
    with extension on that table with one entry bumped, and with the bumps
    only rel2 or only rel4 can tell."""
    pairs = [(u, v, FreeWord.generator(n, k)) for _, _, u, v in defining_relations(n)
             for k in range(1, n + 1)]

    def extension_accepts(c: BraidOneCocycle) -> bool:
        return all(extend(c, u, x) == extend(c, v, x) for u, v, x in pairs)

    t = BraidOneCocycle(n, tuple(
        tuple(Angle.symbol(f"t{i}_{j}") for j in range(1, n + 1)) for i in range(1, n)
    ))
    rank = _symbolic_rank([extend(t, u, x) - extend(t, v, x) for u, v, x in pairs])
    generic = _generic_cocycle(n)
    p = _symbolic_rank(sum(generic.table, ()))
    if None in (rank, p) or rank + p != (n - 1) * n:
        return f"relation forms of rank {rank}, build table of rank {p} (None: no unit pivot)"
    if not (extension_accepts(generic) and validate_braid_cocycle(generic).ok):
        return "the generic build table is not a cocycle"
    bumps = [[(i, j)] for i in range(1, n) for j in range(1, n + 1)]
    # phi(s_i, x_i) raised from row k on; column k raised above the band and
    # column k-2 below it
    bumps += [[(i, i) for i in range(k, n)] for k in range(2, n - 1)]
    bumps += [[(i, k if i <= k - 2 else k - 2) for i in range(1, n)] for k in range(3, n + 1)]
    for cells in bumps:
        rows = [list(row) for row in generic.table]
        for i, j in cells:
            rows[i - 1][j - 1] += Angle.symbol("bump")
        c = BraidOneCocycle(n, tuple(tuple(row) for row in rows))
        agrees = extension_accepts(c)
        if validate_braid_cocycle(c).ok != agrees:
            table = [[str(value) for value in row] for row in c.table]
            side = "accepts" if agrees else "rejects"
            return f"extension {side}, the relation families do not: {table}"
    return None


def z_relation(rng: random.Random | None = None, *, n: int) -> str | None:
    """On the generic build table, which covers every valid table."""
    c, full, z = _generic_cocycle(n), _full_word(n), center_z(n)
    mu = mu_phi(c)
    for i in range(1, n + 1):
        if extend(c, z, FreeWord.generator(n, i)) != mu:
            return f"phi(z, x{i}) != mu"
    for j in range(1, n):
        if extend(c, BraidWord.generator(n, j), full).scale(n - 1) != mu:
            return f"(n-1) phi(s{j}, x1..xn) != mu"
    return None


def kleppner_probe(rng: random.Random | None = None, *, n: int) -> str | None:
    """sigma-regularity of central powers, tested against x1..xn, s1..s_{n-1}.
    For central g the discrepancy h -> sigma(g, h) - sigma(h, g) is a
    character (Kleppner, Math. Ann. 158, 1965), so these generators decide.
    On g = ((x1..xn)^k, z^k) it is k mu at x_j and -k phi(s_j, x1..xn) at s_j,
    so as mu = (n-1) phi(s_j, x1..xn) g is regular iff k kills the row sum."""
    tests = _generators(n)
    sigma = TwoCocycleSigmaPhi(build_braid_cocycle(n, Angle.rational(1, 4), Angle.rational(1, 2)))
    k = extend(sigma.cocycle, BraidWord.generator(n, 1), _full_word(n)).torsion_order()
    if sigma_regular(sigma, center_element(n), tests).regular:
        return "central generator sigma-regular despite a nonzero torsion row sum"
    if not sigma_regular(sigma, center_element(n, k), tests).regular:
        return f"central power {k} not sigma-regular though k kills the row sum"
    free = build_braid_cocycle(n, Angle.symbol("th1"), Angle.zero())
    report = sigma_regular(TwoCocycleSigmaPhi(free), center_element(n, n - 1), tests)
    if all(not report.discrepancies[j] for j in range(n)):
        return "no nonzero discrepancy against the free generators"
    if report.regular:
        return "central element sigma-regular despite nontorsion total phase"
    return None


def verdict_logic(rng: random.Random | None = None) -> str | None:
    th1, zero, half = Angle.symbol("th1"), Angle.zero(), Angle.rational(1, 2)
    mixed = {(1, 2): [th1, zero, zero], (1, 3): [-th1, zero, zero]}
    # (label, family, table, verdict, exact details)
    cases = [
        ("nontorsion rank-2 braid table", "bn", BraidOneCocycle(2, ((th1, zero),)),
         "SimpleAndUniqueTrace", {}),
        ("torsion rank-2 braid table", "bn", BraidOneCocycle(2, ((half, zero),)),
         "NotFactor", {}),
        ("rank-2 pure table with nontorsion nu", "pn",
         build_pure_cocycle(2, {(1, 2): [th1, zero]}), "SimpleAndUniqueTrace", {}),
        ("rank-2 pure table with torsion nu", "pn",
         build_pure_cocycle(2, {(1, 2): [Angle.rational(1, 3), zero]}), "NotFactor", {}),
        # every nu_k torsion, one row sum nontorsion: Kleppner holds, the
        # relative variant fails, and the verdict must stay Indeterminate;
        # the condition (i) vs (iv) angles are computed exactly
        ("rank-3 open middle case", "pn", build_pure_cocycle(3, mixed), "Indeterminate",
         {"kleppner": "holds", "nu1": "0",
          "phi(a(1,2),x1..x3)": "th1", "phi(a(1,3),x1..x3)": "-th1"}),
        ("rank-3 pure table with torsion row sums", "pn",
         build_pure_cocycle(3, {(1, 2): [half] * 3}), "NotFactor", {"kleppner": "fails"}),
    ]
    for label, family, table, expected, details in cases:
        verdict = evaluate_conditions(family, table)
        if verdict.verdict != expected:
            return f"{label}: verdict {verdict.verdict}, expected {expected}"
        for key, value in details.items():
            if verdict.details.get(key) != value:
                return f"{label}: {key} is {verdict.details.get(key)}, expected {value}"
    return None


def sigma_identity(rng: random.Random, *, n: int) -> str | None:
    """On the generic build table and 40 seeded triples of elements."""
    sigma = TwoCocycleSigmaPhi(_generic_cocycle(n))
    e = SemidirectElement.identity(n)

    def element() -> SemidirectElement:
        free = FreeWord(
            n,
            tuple(
                (rng.randint(1, n), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 4))
            ),
        )
        return SemidirectElement(free, random_braid_word(n, rng.randint(0, 6), rng))

    for _ in range(40):
        a, b, c = element(), element(), element()
        lhs = sigma.evaluate(a, b) + sigma.evaluate(a * b, c)
        rhs = sigma.evaluate(a, b * c) + sigma.evaluate(b, c)
        if lhs != rhs:
            return f"cocycle identity fails on {a}, {b}, {c}"
        if sigma.evaluate(a, e) or sigma.evaluate(e, a):
            return "sigma is not normalized"
    return None


def pure_sigma_linking(rng: random.Random, *, n: int) -> str | None:
    """Pure sigma, evaluated through linking numbers, against the value on
    the rewritten a-alphabet word, on a table with a symbol t{i}_{j}_{k} per
    entry and 20 pure words of 16 letters and a closing permutation."""
    c = build_pure_cocycle(n, {
        (i, j): [Angle.symbol(f"t{i}_{j}_{k}") for k in range(1, n + 1)] for i, j in _pairs(n)
    })
    sigma = TwoCocycleSigmaPhi(c)
    for _ in range(20):
        b = random_pure_braid_word(n, 16 + n * (n - 1) // 2, rng)
        y = FreeWord(
            n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(rng.randint(0, 6)))
        )
        g1 = SemidirectElement(FreeWord.identity(n), b)
        g2 = SemidirectElement(y, random_braid_word(n, rng.randint(0, 6), rng))
        value, reference = sigma.evaluate(g1, g2), extend_pure(c, rewrite_pure(b), y)
        if value != reference:
            return f"sigma on {b}, {y} is {value}, rewriting gives {reference}"
    return None


def coboundary(rng: random.Random | None = None, *, n: int) -> str | None:
    """The coboundary of the character with a symbol f1..fn per generator,
    which stands for every character: its parameters vanish, it is similar to
    zero, and its entries have rank n-1.  As the n+1 build parameters reach
    every valid table (cocycle-extension), the coboundaries are exactly the
    tables with vanishing (mu1, mu2), and the classes are a torus of
    dimension 2, or 1 on two strands: one per parameter."""
    f = Character(n, tuple(Angle.symbol(f"f{j}") for j in range(1, n + 1)))
    h = coboundary_of_character(f)
    mu1, mu2 = mu_params(h)
    if mu1 or (mu2 is not None and mu2):
        return "coboundary has nonzero parameters"
    if similar_braid_cocycles(h, build_braid_cocycle(n, Angle.zero())) is None:
        return "coboundary not recognized as similar to zero"
    if (rank := _symbolic_rank(sum(h.table, ()))) != n - 1:
        return f"coboundary entries have rank {rank}, expected {n - 1}"
    p = _symbolic_rank(sum(_generic_cocycle(n).table, ()))
    if p is None or p - rank != sum(m is not None for m in (mu1, mu2)):
        return f"the classes form a torus of dimension {p} - {rank}, unlike (mu1, mu2)"
    return None


# ---------------------------------------------------------------------------
# Suite infinite
# ---------------------------------------------------------------------------

def center_embedding(rng: random.Random | None = None, *, m: int, n: int) -> str | None:
    zm = embed(center_z(m), n)
    for k in range(-3, 4):
        if equal(zm, center_z(n) ** k):
            return f"embedded center equals z^{k}"
    for i in range(1, m):
        s = BraidWord.generator(n, i)
        if not equal(zm * s, s * zm):
            return f"embedded center fails to commute with s{i}"
    s = BraidWord.generator(n, m)
    if equal(zm * s, s * zm):
        return f"embedded center unexpectedly commutes with s{m}"
    return None


# ---------------------------------------------------------------------------
# Registry and runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    id: str
    suite: str
    citation: str
    run: Callable[[random.Random], str | None]  # returns a counterexample or None


def _sizes(low: int, **fixed):
    """Parameters n = low..max_n, each with the ``fixed`` ones."""
    return lambda max_n: [dict(n=n, **fixed) for n in range(low, max_n + 1)]


def _once(max_n: int) -> list[dict]:
    return [{}]


def _embeddings(max_n: int) -> list[dict]:
    return [dict(m=m, n=n) for m in range(3, max_n + 1) for n in range(m + 1, max_n + 1)]


# (id pattern, suite, citation, check, parameters for a given max_n)
REGISTRY = (
    ("artin-relations.n{n}", "braid",
     "the defining braid relations hold under the free-group action",
     artin_relations, _sizes(2)),
    ("braid-center.n{n}", "braid",
     "Delta^2 = (s1...s_{n-1})^n = a12 (a13 a23) ... , by both oracles",
     braid_center, _sizes(3)),
    ("center-action.n{n}", "braid",
     "the full twist acts as conjugation by x1...xn",
     center_action, _sizes(2)),
    ("semidirect-center.n{n}", "braid",
     "x1...xn z is central in the semidirect product",
     semidirect_center, _sizes(2)),
    ("inner-witness.n{n}", "braid",
     "a pure braid acts by an inner automorphism exactly when it is a power of the full twist",
     inner_witness, _sizes(2, samples=20)),
    ("remark-a3", "braid",
     "(t1 t2)^2 = (t2 t1)^2 for t1 = s1, t2 = s2^2 in B_3",
     remark_a3, _once),
    ("remark-p3", "braid",
     "the splitting P_3 = F_2 x Z sends the full twist to the central generator",
     remark_p3, _once),
    ("pure-rewrite.n{n}", "braid",
     "a-alphabet rewriting of pure words round-trips to equal braids",
     pure_rewrite, _sizes(2, samples=20)),
    ("oracle-agreement", "braid",
     "the action oracle and the canonical-form oracle decide equality identically",
     oracle_agreement, lambda max_n: [dict(max_n=max_n)]),
    ("dynnikov-agreement.n{n}", "braid",
     "Dynnikov coordinates and Garside normal forms decide equality identically",
     dynnikov_agreement, _sizes(2)),
    ("permutation-homomorphism.n{n}", "braid",
     "the strand permutation map is multiplicative",
     permutation_homomorphism, _sizes(2)),
    ("cocycle-classification.n{n}", "cocycle",
     "tables are valid and classified by (mu1, mu2) up to coboundary",
     classification, _sizes(2)),
    ("cocycle-extension.n{n}", "cocycle",
     "the relation families hold exactly when extension agrees on every defining relation",
     cocycle_extension, _sizes(2)),
    ("z-relation.n{n}", "cocycle",
     "phi(z, x_i) = mu = (n-1) phi(s_j, x1...xn)",
     z_relation, _sizes(3)),
    ("kleppner-probe.n{n}", "cocycle",
     "central powers are sigma-regular exactly when the total phase is torsion",
     kleppner_probe, _sizes(3)),
    ("verdict-logic", "cocycle",
     "verdicts follow the deformation criteria, including the open middle case",
     verdict_logic, _once),
    ("sigma-identity.n{n}", "cocycle",
     "sigma^phi is a normalized 2-cocycle on the semidirect product",
     sigma_identity, _sizes(2)),
    ("pure-sigma-linking.n{n}", "cocycle",
     "pure sigma^phi through linking numbers equals its value on the rewritten word",
     pure_sigma_linking, _sizes(2)),
    ("coboundary.n{n}", "cocycle",
     "coboundaries are exactly the tables with vanishing parameters",
     coboundary, _sizes(2)),
    ("center-embedding.m{m}.n{n}", "infinite",
     "no nontrivial central element survives the strand-adding embedding",
     center_embedding, _embeddings),
)


def build_checks(max_n: int) -> list[Check]:
    """Every registry check at its parameters for strand counts up to max_n."""
    if max_n < 2:
        raise RankError(f"verify needs max_n >= 2, got {max_n}")
    return [
        Check(pattern.format(**params), suite, citation, functools.partial(check, **params))
        for pattern, suite, citation, check, parameters in REGISTRY
        for params in parameters(max_n)
    ]


def run_verify(suite: str, seed: int, max_n: int, timings: bool) -> dict:
    """Run the checks of ``suite`` ("all" for every suite), sorted by id,
    each from ``random.Random(f"{seed}:{id}")``; returns the JSON report."""
    selected = [c for c in build_checks(max_n) if suite == "all" or c.suite == suite]
    selected.sort(key=lambda c: c.id)
    records = []
    for check in selected:
        start = time.perf_counter()
        counterexample = check.run(random.Random(f"{seed}:{check.id}"))
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        record = {
            "id": check.id,
            "suite": check.suite,
            "citation": check.citation,
            "status": "pass" if counterexample is None else "fail",
            "counterexample": counterexample,
        }
        if timings:
            record["elapsed_ms"] = elapsed_ms
        records.append(record)
    failed = sum(record["status"] == "fail" for record in records)
    return {
        "suite": suite,
        "seed": seed,
        "max_n": max_n,
        "checks": records,
        "summary": {
            "total": len(records),
            "passed": len(records) - failed,
            "failed": failed,
        },
    }
