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
from collections.abc import Callable, Iterable

from .artin import apply_braid
from .braid import (
    BraidWord,
    PureWord,
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
    _generators,
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
from .errors import RankError, _Record
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


def kernel_action(rng: random.Random, *, n: int) -> str | None:
    """b Phi(x_i) b^-1 = Phi(apply_braid(b, x_i)) in B_{n+1}, by equal, for
    10 seeded braids b of up to 12 letters and every i, where Phi(x_k) =
    a(k, n+1) maps F_n onto the kernel of forgetting the last strand."""
    def phi(w: FreeWord) -> BraidWord:
        return PureWord(n + 1, tuple(((k, n + 1), e) for k, e in w.letters)).expand()

    for _ in range(10):
        b = random_braid_word(n, rng.randint(0, 12), rng)
        big = embed(b, n + 1)
        for i in range(1, n + 1):
            x = FreeWord.generator(n, i)
            if not equal(big * phi(x) * big.inverse(), phi(apply_braid(b, x))):
                return f"{b} conjugates a({i},{n + 1}) unlike its image of x{i}"
    return None


def semidirect_center(rng: random.Random | None = None, *, n: int) -> str | None:
    """is_central against commuting with every generator, by products, on the
    powers 0 and 1 of the central generator (central) and on that generator
    times each generator (not central)."""
    gens, g = _generators(n), center_element(n)
    cases = [(center_element(n, k), True) for k in (0, 1)] + [(g * h, False) for h in gens]
    for e, central in cases:
        by_products = all(e * h == h * e for h in gens)
        if (e.is_central, by_products) != (central, central):
            return f"on {e}: is_central {e.is_central}, by products {by_products}"
    return None


def inner_witness(rng: random.Random, *, n: int) -> str | None:
    """is_inner_for_pure on 20 pure braids, every other one a central
    power c z^k c^-1 in disguise.  Each witness w must conjugate every x_j as
    the braid does, by apply_braid; each None needs a generator s_i that does
    not commute with the braid, since the s_i generate B_n."""
    z = center_z(n)
    xs = [FreeWord.generator(n, j) for j in range(1, n + 1)]
    ss = [BraidWord.generator(n, i) for i in range(1, n)]
    for t in range(20):
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
    pairs, half random and half equal by construction (of 12 letters, as the
    action's images grow exponentially in the length); each answer must come
    up in at least a fifth."""
    pairs = 500
    seen = {True: 0, False: 0}
    for t in range(pairs):
        n = rng.randint(2, max_n)
        if t % 2 == 0:
            a = random_braid_word(n, rng.randint(0, 30), rng)
            b = random_braid_word(n, rng.randint(0, 30), rng)
        else:
            a, b = random_equal_pair(n, 12, rng)
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


def _unimodular_rank(angles: Iterable[Angle]) -> int | None:
    """Rank of the angles as integer forms in their symbols, by elimination
    with +-1 pivots only, or None when a step finds none.  Unit pivots make
    every Smith divisor 1, so the common zeros of the forms in (R/Z)^m are a
    connected torus of dimension m - rank.  Rows are sparse, a zero counting
    as absent; the pivot, the least unit symbol of the first row with one, is
    cleared from the rows that hold it."""
    rows, rank = [dict(a.syms) for a in angles if a.syms], 0
    while rows:
        p = next((r for r in rows if 1 in r.values() or -1 in r.values()), None)
        if p is None:
            return None
        j = min(m for m, a in p.items() if a in (1, -1))
        for r in rows:
            if r.get(j) and r is not p:
                f = r[j] * p[j]
                r.update({m: r.get(m, 0) - f * a for m, a in p.items()})
        rows, rank = [r for r in rows if any(r.values()) and r is not p], rank + 1
    return rank


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
    only rel2 or only rel4 can tell.  As the forms vanish on the generic
    table and the bump is a fresh symbol, extension accepts a bumped table
    exactly when every form's coefficients sum to 0 over the bumped cells."""
    pairs = [(u, v, FreeWord.generator(n, k)) for _, _, u, v in defining_relations(n)
             for k in range(1, n + 1)]
    t = BraidOneCocycle(n, tuple(
        tuple(Angle.symbol(f"t{i}_{j}") for j in range(1, n + 1)) for i in range(1, n)
    ))
    forms = list(dict.fromkeys(extend(t, u, x) - extend(t, v, x) for u, v, x in pairs))
    rank, generic = _unimodular_rank(forms), _generic_cocycle(n)
    p = _unimodular_rank(sum(generic.table, ()))
    if None in (rank, p) or rank + p != (n - 1) * n:
        return f"relation forms of rank {rank}, build table of rank {p} (None: no unit pivot)"
    accepted = all(extend(generic, u, x) == extend(generic, v, x) for u, v, x in pairs)
    if not (accepted and validate_braid_cocycle(generic).ok):
        return "the generic build table is not a cocycle"
    bumps = [[(i, j)] for i in range(1, n) for j in range(1, n + 1)]
    # phi(s_i, x_i) raised from row k on; column k raised above the band and
    # column k-2 below it
    bumps += [[(i, i) for i in range(k, n)] for k in range(2, n - 1)]
    bumps += [[(i, k if i <= k - 2 else k - 2) for i in range(1, n)] for k in range(3, n + 1)]
    coefficients = [dict(f.syms) for f in forms]
    for cells in bumps:
        rows = [list(row) for row in generic.table]
        for i, j in cells:
            rows[i - 1][j - 1] += Angle.symbol("bump")
        c = BraidOneCocycle(n, tuple(tuple(row) for row in rows))
        agrees = all(sum(f.get(f"t{i}_{j}", 0) for i, j in cells) == 0 for f in coefficients)
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
    """sigma_regular on g = ((x1..xn)^k, z^k) against the closed form of its
    discrepancies: k mu at each x_j, -k phi(s_j, x1..xn) at each s_j, so g is
    regular iff k kills the row sum, as mu = (n-1) phi(s_j, x1..xn).  On the
    torsion table mu1 = 1/4, mu2 = 1/2 at k = 1 and the row sum's order, and
    on mu1 = th1, whose total phase is not torsion, at k = n-1."""
    full = _full_word(n)
    torsion = build_braid_cocycle(n, Angle.rational(1, 4), Angle.rational(1, 2))
    order = extend(torsion, BraidWord.generator(n, 1), full).torsion_order()
    free = build_braid_cocycle(n, Angle.symbol("th1"), Angle.zero())
    for c, k, regular in ((torsion, 1, False), (torsion, order, True), (free, n - 1, False)):
        expected = (mu_phi(c).scale(k),) * n + tuple(
            -extend(c, BraidWord.generator(n, j), full).scale(k) for j in range(1, n)
        )
        report = sigma_regular(TwoCocycleSigmaPhi(c), center_element(n, k))
        if report.discrepancies != expected or report.regular != regular:
            return f"power {k}: {list(map(str, report.discrepancies))}, regular {report.regular}"
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
    if (rank := _unimodular_rank(sum(h.table, ()))) != n - 1:
        return f"coboundary entries have rank {rank}, expected {n - 1}"
    p = _unimodular_rank(sum(_generic_cocycle(n).table, ()))
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

class Check(_Record):
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
    ("kernel-action.n{n}", "braid",
     "the action is conjugation on the free kernel of forgetting the last of n+1 strands",
     kernel_action, _sizes(2)),
    ("semidirect-center.n{n}", "braid",
     "x1...xn z is central in the semidirect product",
     semidirect_center, _sizes(2)),
    ("inner-witness.n{n}", "braid",
     "a pure braid acts by an inner automorphism exactly when it is a power of the full twist",
     inner_witness, _sizes(2)),
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
    """Run the checks of ``suite`` ("all" for every suite), sorted by id, each
    from ``random.Random(f"{seed}:{id}")``; returns the JSON report.  A check that
    raises fails with the exception as its counterexample; MemoryError propagates."""
    selected = [c for c in build_checks(max_n) if suite == "all" or c.suite == suite]
    selected.sort(key=lambda c: c.id)
    records = []
    for check in selected:
        start = time.perf_counter()
        try:
            counterexample = check.run(random.Random(f"{seed}:{check.id}"))
        except MemoryError:
            raise
        except Exception as exc:
            counterexample = f"{type(exc).__name__}: {exc}"
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
