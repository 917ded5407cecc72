import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from braidphase.artin import apply_braid
from braidphase.braid import (
    BraidWord,
    PureWord,
    center_z,
    center_z_pure_word,
    parse_braid_word,
    parse_pure_word,
    pure_generator,
    random_braid_word,
    random_pure_braid_word,
    rewrite_pure,
)
from braidphase.cocycle import (
    BraidOneCocycle,
    SemidirectElement,
    TwoCocycleSigmaPhi,
    build_braid_cocycle,
    build_pure_cocycle,
    center_element,
    coboundary_of_character,
    cocycle_from_json,
    cocycle_to_json,
    evaluate_conditions,
    extend,
    extend_pure,
    mu_params,
    mu_phi,
    nu,
    random_angle,
    random_braid_cocycle,
    restrict_to_pure,
    sigma_regular,
    similar_braid_cocycles,
    validate_braid_cocycle,
)
from braidphase.errors import MissingOmegaError, ParseError, RankError
from braidphase.freegroup import Character, FreeWord
from braidphase.phase import Angle, parse_angle

TH1 = Angle.symbol("th1")


def full_word(n: int) -> FreeWord:
    return FreeWord(n, tuple((i, 1) for i in range(1, n + 1)))


def generators_and_tests(n: int) -> list[SemidirectElement]:
    out = [
        SemidirectElement(FreeWord.generator(n, j), BraidWord.identity(n))
        for j in range(1, n + 1)
    ]
    out += [
        SemidirectElement(FreeWord.identity(n), BraidWord.generator(n, i))
        for i in range(1, n)
    ]
    return out


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_build_examples():
    c = build_braid_cocycle(2, mu1=TH1, diag=[Angle.zero()])
    assert c.entry(1, 1) == Angle.zero() and c.entry(1, 2) == TH1
    zero = build_braid_cocycle(3, Angle.zero(), Angle.zero())
    assert all(not zero.entry(i, j) for i in (1, 2) for j in (1, 2, 3))
    c4 = build_braid_cocycle(4, mu1=Angle.zero(), mu2=Angle.rational(1, 2))
    offband = [
        c4.entry(i, j) for i in (1, 2, 3) for j in (1, 2, 3, 4) if j not in (i, i + 1)
    ]
    assert len(offband) == 6 and all(v == Angle.rational(1, 2) for v in offband)


def test_validator_accepts_constructor_output():
    rng = random.Random(1)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            report = validate_braid_cocycle(random_braid_cocycle(n, rng))
            assert report.ok, report.relation_violations


def test_validator_flags_rel1():
    c = build_braid_cocycle(3, Angle.zero(), Angle.zero())
    rows = [list(r) for r in c.table]
    rows[1][0] = Angle.rational(1, 3)  # phi(s2, x1) != phi(s1, x3)
    report = validate_braid_cocycle(BraidOneCocycle(3, tuple(tuple(r) for r in rows)))
    assert not report.ok
    assert "rel1[i=1]" in report.relation_violations


def _expected_relation_flags(n: int, i0: int, j0: int) -> set[str]:
    """Relation instances that reference table entry (i0, j0), by definition."""
    flags = set()
    for i in range(1, n - 1):
        if (i0, j0) in ((i + 1, i), (i, i + 2)):
            flags.add(f"rel1[i={i}]")
        if (i0, j0) in ((i, i), (i, i + 1), (i + 1, i + 1), (i + 1, i + 2)):
            flags.add(f"rel2[i={i}]")
        for j in range(1, n + 1):
            if j in (i, i + 1, i + 2):
                continue
            if (i0, j0) in ((i, j), (i + 1, j)):
                flags.add(f"rel3[i={i},j={j}]")
    if n >= 4 and i0 <= n - 2 and j0 not in (i0, i0 + 1):
        flags.add(f"rel4[i={i0}]")
    return flags


def test_validator_mutation_flags_exactly_the_touched_relations():
    rng = random.Random(17)
    for n in (3, 4, 5):
        for _ in range(10):
            c = random_braid_cocycle(n, rng)
            i0 = rng.randint(1, n - 1)
            j0 = rng.randint(1, n)
            rows = [list(r) for r in c.table]
            rows[i0 - 1][j0 - 1] = rows[i0 - 1][j0 - 1] + Angle.symbol("mutant")
            report = validate_braid_cocycle(
                BraidOneCocycle(n, tuple(tuple(r) for r in rows))
            )
            assert set(report.relation_violations) == _expected_relation_flags(n, i0, j0)
            assert not report.ok


def test_validator_names_each_broken_row_once_for_rel4():
    # every entry distinct: rel4 fails in each of the rows 1..n-2, once per row
    n = 12
    rows = tuple(tuple(Angle.symbol(f"t{i}_{j}") for j in range(n)) for i in range(n - 1))
    flags = validate_braid_cocycle(BraidOneCocycle(n, rows)).relation_violations
    assert [f for f in flags if f.startswith("rel4")] == [f"rel4[i={i}]" for i in range(1, n - 1)]


def test_validator_is_quadratic_on_valid_tables(monkeypatch):
    # Equal but distinct entries: tuple.count cannot shortcut on identity, so
    # every comparison reaches Angle.__eq__.
    n = 48
    c = build_braid_cocycle(n, Angle.rational(1, 3), TH1 + Angle.rational(1, 5))
    copies = tuple(tuple(Angle(a.frac, a.syms) for a in row) for row in c.table)
    table = BraidOneCocycle(n, copies)
    assert len({id(a) for row in table.table for a in row}) == n * (n - 1)
    calls = 0
    eq = Angle.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return eq(self, other)

    monkeypatch.setattr(Angle, "__eq__", counting_eq)
    assert validate_braid_cocycle(table).ok
    assert calls <= 4 * n * n


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def test_extend_examples():
    c = build_braid_cocycle(2, mu1=TH1, diag=[Angle.rational(1, 8)])
    s2 = parse_braid_word("s1^2", 2)
    # two-step recursion: phi(s^2, x1) = phi(s, x2) + phi(s, x1) = mu
    assert extend(c, s2, FreeWord.generator(2, 1)) == c.entry(1, 1) + c.entry(1, 2)
    assert extend(c, s2, FreeWord.generator(2, 1)) == mu_phi(c)
    assert extend(c, BraidWord.identity(2), FreeWord.generator(2, 1)) == Angle.zero()


def test_extend_well_defined_on_relations():
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        for _ in range(12):
            c = random_braid_cocycle(n, rng)
            for i in range(1, n - 1):
                u = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
                v = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
                for k in range(1, n + 1):
                    xk = FreeWord.generator(n, k)
                    assert extend(c, u, xk) == extend(c, v, xk)


def test_extend_inverse_letters_cancel():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 5)
        c = random_braid_cocycle(n, rng)
        w = random_braid_word(n, 10, rng)
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(5)))
        assert extend(c, w * w.inverse(), x) == Angle.zero()
        assert extend(c, w, x) + extend(c, w.inverse(), apply_braid(w, x)) == Angle.zero()


def _naive_extend(c: BraidOneCocycle, w: BraidWord, x: FreeWord) -> Angle:
    """Reference evaluation by the literal recursion on free words.

    phi(l * rest, x) = phi(l, rest . x) + phi(rest, x), with the single
    positive letter evaluated letterwise on the reduced word and the inverse
    letter via phi(s^-1, y) = -phi(s, s^-1 . y).
    """
    if not w.letters:
        return Angle.zero()
    (i, sign), rest = w.units[0], BraidWord(c.n, w.units[1:])
    y = apply_braid(rest, x)
    if sign == -1:
        y = apply_braid(BraidWord(c.n, ((i, -1),)), y)
    value = Angle.zero()
    for idx, exp in y.letters:
        value = value + c.entry(i, idx).scale(exp)
    if sign == -1:
        value = -value
    return value + _naive_extend(c, rest, x)


def _table_of_kind(n: int, kind: str, rng: random.Random) -> BraidOneCocycle:
    """A seeded table of one kind: "valid", "arbitrary", "bumped" (one
    off-band entry raised by th4), "entry" (any one entry raised) or "rel4"
    (one off-band column raised in every row, column k above the band and
    column k-2 below it, which rel1 and rel3 tie together, so that only rel4
    sees it; valid for three strands or fewer)."""
    symbols = ("th1", "th2", "th3")
    if kind == "arbitrary":
        return BraidOneCocycle(
            n,
            tuple(tuple(random_angle(rng, symbols) for _ in range(n)) for _ in range(n - 1)),
        )
    c = random_braid_cocycle(n, rng, symbols)
    rows = [list(row) for row in c.table]
    if kind == "bumped":
        i = rng.randrange(n - 1)
        j = rng.choice([j for j in range(n) if j not in (i, i + 1)])
        rows[i][j] += Angle.symbol("th4")
    elif kind == "entry":
        rows[rng.randrange(n - 1)][rng.randrange(n)] += random_angle(rng, ("th4",))
    elif kind == "rel4" and n >= 3:
        k = rng.randint(3, n)
        for i in range(1, n):
            rows[i - 1][k - 1 if i <= k - 2 else k - 3] += Angle.symbol("th4")
    return BraidOneCocycle(n, tuple(tuple(row) for row in rows))


def test_extend_matches_literal_recursion():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(2, 4)
        c = random_braid_cocycle(n, rng)
        w = random_braid_word(n, rng.randint(0, 8), rng)
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
        assert extend(c, w, x) == _naive_extend(c, w, x)
    # every kind of table up to seven strands, so that rows have up to five
    # off-band columns; x of exponent sum zero and the empty word included
    rng = random.Random(107)
    for n in range(2, 8):
        for t in range(32):
            kind = ("valid", "entry", "rel4", "arbitrary")[t % 4]
            c = _table_of_kind(n, kind, rng)
            w = random_braid_word(n, 0 if t < 4 else rng.randint(1, 8), rng)
            if t % 8 < 4:
                j, k = rng.randint(1, n), rng.randint(1, n)
                x = FreeWord(n, ((j, 1), (k, 1), (j, -1), (k, -1), (k, -1)))
                x = x * FreeWord.generator(n, rng.randint(1, n))
            else:
                x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
            assert extend(c, w, x) == _naive_extend(c, w, x)


def test_extend_with_each_off_band_entry_raised():
    # extend weights the off-band total by a value two of phi(s1, x3),
    # phi(s2, x1) and phi(s_{n-1}, x1) share; raising each off-band entry in
    # turn makes each of them the odd one, and every other entry too
    rng = random.Random(109)
    for n in (3, 4, 5):
        base = [list(row) for row in random_braid_cocycle(n, rng, ("th1", "th2")).table]
        for i in range(n - 1):
            for j in (j for j in range(n) if j not in (i, i + 1)):
                rows = [row.copy() for row in base]
                rows[i][j] += Angle.symbol("th4")
                c = BraidOneCocycle(n, tuple(tuple(row) for row in rows))
                w = random_braid_word(n, rng.randint(1, 8), rng)
                x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
                assert extend(c, w, x) == _naive_extend(c, w, x), (n, i, j)


# str(extend(...)) recorded with the per-letter Angle recursion on seeded
# (n, seed, kind of table, value) cases that _naive_extend cannot reach: words
# of 625 random letters of both signs, tables with three symbols.  "valid"
# tables are cocycles; an "arbitrary" table is not, so its value depends on
# the word; a "bumped" table is a cocycle with one off-band entry raised by
# th4, so that one row has an off-band entry unlike the others.  The n = 2, 3
# and bumped rows were recorded with the dense count-matrix evaluation that
# preceded the band sums.
EXTEND_GOLDEN = [
    (8, 1, "valid", "2/3 + th1 + 2*th2 - 85*th3"),
    (8, 2, "valid", "2/3 - 9*th1 - 4*th2 - 8*th3"),
    (12, 3, "valid", "1/24 + 24*th1 - 24*th2 + 27*th3"),
    (12, 4, "arbitrary", "17/24 + 29*th1 + 97*th2 - 51*th3"),
    (2, 5, "valid", "1/6 + 4*th2 - 2*th3"),
    (3, 6, "arbitrary", "5/8 + 33*th2 + 9*th3"),
    (8, 7, "bumped", "1/12 + 57*th1 + 35*th2 + 90*th3 - 2*th4"),
    (12, 8, "bumped", "6*th1 - 27*th2 - 12*th3 - 2*th4"),
]


def test_extend_golden_values_at_large_sizes():
    for n, seed, kind, expected in EXTEND_GOLDEN:
        rng = random.Random(seed)
        c = _table_of_kind(n, kind, rng)
        w = random_braid_word(n, 625, rng)
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(8)))
        assert str(extend(c, w, x)) == expected


def test_extend_on_central_powers_at_64_strands():
    """phi(z^5, x) = 5 (exponent sum of x) mu: z acts trivially on
    characters and phi(z, x_i) = mu for every i."""
    rng = random.Random(64)
    n = 64
    c = random_braid_cocycle(n, rng)
    z5 = center_z(n) ** 5
    for _ in range(3):
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, 1, -1))) for _ in range(9)))
        assert extend(c, z5, x) == mu_phi(c).scale(5 * sum(x.abelianize()))


def test_z_relation():
    rng = random.Random(3)
    for n in (3, 4, 5):
        z = center_z(n)
        full = full_word(n)
        for _ in range(50):
            c = random_braid_cocycle(n, rng)
            mu = mu_phi(c)
            for i in range(1, n + 1):
                assert extend(c, z, FreeWord.generator(n, i)) == mu
            for j in range(1, n):
                assert extend(c, BraidWord.generator(n, j), full).scale(n - 1) == mu
            mu1, mu2 = mu_params(c)
            assert (mu1 + mu2.scale(n - 2)).scale(n - 1) == mu


def test_varphi_z_relations():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(3, 5)
        c = random_braid_cocycle(n, rng)
        z = center_z(n)
        a = random_braid_word(n, rng.randint(0, 10), rng)
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
        assert extend(c, z * a, x) == extend(c, z, x) + extend(c, a, x)
        assert extend(c, z, x) == extend(c, z, apply_braid(a, x))


def test_mu_phi_brute_force():
    c = build_braid_cocycle(3, mu1=parse_angle("1/4 + th1"), mu2=parse_angle("1/8"))
    # independent oracle: direct sum over the whole table
    total = Angle.zero()
    for i in (1, 2):
        for j in (1, 2, 3):
            total = total + c.entry(i, j)
    assert total == mu_phi(c) == parse_angle("3/4 + 2*th1")


def test_mu_params():
    c = build_braid_cocycle(3, mu1=parse_angle("1/4 + th1"), mu2=parse_angle("1/8"))
    mu1, mu2 = mu_params(c)
    assert mu1 == parse_angle("1/4 + th1") and mu2 == parse_angle("1/8")
    c2 = build_braid_cocycle(2, mu1=TH1)
    assert mu_params(c2) == (TH1, None)


# ---------------------------------------------------------------------------
# similarity and coboundaries
# ---------------------------------------------------------------------------

def test_similarity_identical_cocycles():
    c = build_braid_cocycle(3, mu1=TH1, mu2=Angle.rational(1, 5))
    witness = similar_braid_cocycles(c, c)
    assert witness is not None
    assert all(not v for v in witness.values)


def test_similarity_spec_example():
    c1 = BraidOneCocycle(2, ((parse_angle("1/8"), parse_angle("1/8")),))
    c2 = BraidOneCocycle(2, ((parse_angle("0"), parse_angle("1/4")),))
    witness = similar_braid_cocycles(c1, c2)
    assert witness is not None
    assert [str(v) for v in witness.values] == ["0", "1/8"]


def test_similarity_iff_parameters_agree():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            c1 = random_braid_cocycle(n, rng)
            mu1, mu2 = mu_params(c1)
            same = build_braid_cocycle(
                n, mu1, mu2, diag=[Angle.rational(rng.randint(0, 5), 6) for _ in range(n - 1)]
            )
            witness = similar_braid_cocycles(c1, same)
            assert witness is not None
            # verify the witness equation on all generators
            for i in range(1, n):
                for j in range(1, n + 1):
                    diff = c1.entry(i, j) - same.entry(i, j)
                    if j == i:
                        assert diff == witness.values[i] - witness.values[i - 1]
                    elif j == i + 1:
                        assert diff == witness.values[i - 1] - witness.values[i]
                    else:
                        assert not diff
            other = build_braid_cocycle(n, mu1 + Angle.symbol("marker"), mu2)
            assert similar_braid_cocycles(c1, other) is None
            if n >= 3:
                other2 = build_braid_cocycle(n, mu1, mu2 + Angle.symbol("marker"))
                assert similar_braid_cocycles(c1, other2) is None


def test_similarity_rejects_invalid_table_with_equal_parameters():
    # an off-band entry enters neither (mu1, mu2) nor the witness recurrence,
    # so only the witness check against the coboundary can see it bumped
    rng = random.Random(12)
    for n in (3, 4, 5):
        c = random_braid_cocycle(n, rng)
        rows = [list(row) for row in c.table]
        i, j = (2, 1) if n == 3 else (2, 4)
        rows[i - 1][j - 1] += Angle.symbol("bump")
        bumped = BraidOneCocycle(n, tuple(tuple(row) for row in rows))
        assert mu_params(bumped) == mu_params(c)
        with pytest.raises(ValueError, match="witness equation fails"):
            similar_braid_cocycles(c, bumped)


def test_coboundary_characterization():
    rng = random.Random(19)
    for n in (2, 3, 4, 5):
        zero = build_braid_cocycle(n, Angle.zero(), Angle.zero())
        for _ in range(10):
            # forward: coboundaries have vanishing parameters
            f = Character(
                n, tuple(Angle.rational(rng.randint(0, 7), 8) for _ in range(n))
            )
            h = coboundary_of_character(f)
            mu1, mu2 = mu_params(h)
            assert not mu1 and (mu2 is None or not mu2)
            # converse: vanishing parameters admit a verified witness
            witness = similar_braid_cocycles(h, zero)
            assert witness is not None
            for i in range(1, n):
                assert h.entry(i, i) == witness.values[i] - witness.values[i - 1]


def test_pure_action_trivial_on_characters():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 4)
        f = Character(n, tuple(Angle.rational(rng.randint(0, 11), 12) for _ in range(n)))
        a = random_pure_braid_word(n, 12, rng)
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(6)))
        assert f(apply_braid(a, x)) == f(x)


# ---------------------------------------------------------------------------
# pure cocycles
# ---------------------------------------------------------------------------

def test_pure_cocycle_examples():
    c = build_pure_cocycle(2, {(1, 2): [TH1, Angle.zero()]})
    assert nu(c, 1) == TH1 and nu(c, 2) == Angle.zero()
    x = FreeWord.generator(2, 1)
    assert extend_pure(c, PureWord.identity(2), x) == Angle.zero()
    w = parse_pure_word("a(1,2)", 2) * parse_pure_word("a(1,2)^-1", 2)
    assert extend_pure(c, w, x) == Angle.zero()


def test_extend_pure_additive():
    rng = random.Random(47)
    n = 3
    c = build_pure_cocycle(
        n,
        {
            (1, 2): [TH1, Angle.rational(1, 3), Angle.zero()],
            (1, 3): [Angle.rational(1, 7), Angle.zero(), Angle.symbol("th2")],
            (2, 3): [Angle.zero(), TH1, Angle.rational(2, 5)],
        },
    )
    pairs = [(1, 2), (1, 3), (2, 3)]
    for _ in range(30):
        u = PureWord(n, tuple((rng.choice(pairs), rng.choice((1, -1))) for _ in range(4)))
        v = PureWord(n, tuple((rng.choice(pairs), rng.choice((1, -1))) for _ in range(4)))
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
        y = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
        assert extend_pure(c, u * v, x) == extend_pure(c, u, x) + extend_pure(c, v, x)
        assert extend_pure(c, u, x * y) == extend_pure(c, u, x) + extend_pure(c, u, y)


def test_restrict_to_pure():
    rng = random.Random(53)
    zero = build_braid_cocycle(3, Angle.zero(), Angle.zero())
    p = restrict_to_pure(zero)
    assert all(not p.entry(i, j, k) for (i, j) in ((1, 2), (1, 3), (2, 3)) for k in (1, 2, 3))
    c2 = random_braid_cocycle(2, rng)
    p2 = restrict_to_pure(c2)
    for k in (1, 2):
        assert p2.entry(1, 2, k) == extend(
            c2, parse_braid_word("s1^2", 2), FreeWord.generator(2, k)
        )
    for n in (3, 4):
        c = random_braid_cocycle(n, rng)
        p = restrict_to_pure(c)
        z = center_z(n)
        for k in range(1, n + 1):
            assert nu(p, k) == extend(c, z, FreeWord.generator(n, k))


def _three_symbol_table(n: int) -> BraidOneCocycle:
    return build_braid_cocycle(
        n,
        mu1=TH1 + Angle.rational(1, 3),
        mu2=Angle.symbol("th2", -1) + Angle.rational(2, 5),
        diag=[Angle.symbol("th3", i) + Angle.rational(i, 7) for i in range(1, n)],
    )


def _arbitrary_table(n: int) -> BraidOneCocycle:
    return BraidOneCocycle(n, tuple(
        tuple(
            Angle.rational(3 * i + j, 11)
            + Angle.symbol("th1", (i - j) % 3 - 1)
            + Angle.symbol("th2", i * j % 2)
            for j in range(1, n + 1)
        )
        for i in range(1, n)
    ))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("name, make, valid", [
    ("valid", _three_symbol_table, True),
    ("arbitrary", _arbitrary_table, False),
])
def test_restrict_to_pure_golden(n, name, make, valid):
    """Every entry against values recorded from extend on each a(i,j)."""
    golden = json.loads((Path(__file__).parent / "data" / "restrict_to_pure.json").read_text())
    c = make(n)
    assert validate_braid_cocycle(c).ok is valid
    assert [[str(v) for v in row] for row in restrict_to_pure(c).rows] == golden[f"{name}.n{n}"]


def test_restricted_cocycle_matches_extension_on_pure_words():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(2, 4)
        c = random_braid_cocycle(n, rng)
        p = restrict_to_pure(c)
        w = random_pure_braid_word(n, 12, rng)
        aw = rewrite_pure(w)
        x = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
        assert extend_pure(p, aw, x) == extend(c, w, x)


# ---------------------------------------------------------------------------
# sigma and regularity
# ---------------------------------------------------------------------------

def test_sigma_examples():
    rng = random.Random(61)
    c = random_braid_cocycle(2, rng)
    sigma = TwoCocycleSigmaPhi(c)
    g1 = SemidirectElement(FreeWord.generator(2, 1), BraidWord.identity(2))
    g2 = SemidirectElement(FreeWord.generator(2, 2), parse_braid_word("s1", 2))
    assert sigma.evaluate(g1, g2) == Angle.zero()
    g3 = SemidirectElement(FreeWord.identity(2), parse_braid_word("s1", 2))
    assert sigma.evaluate(g3, g1) == c.entry(1, 1)


def _symbolic_pure_cocycle(n: int, rng: random.Random):
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    return build_pure_cocycle(n, {p: [random_angle(rng) for _ in range(n)] for p in pairs})


def test_pure_sigma_examples():
    rng = random.Random(71)
    c = _symbolic_pure_cocycle(3, rng)
    sigma = TwoCocycleSigmaPhi(c)
    y = FreeWord(3, ((1, 1), (3, -1), (1, 1)))
    g2 = SemidirectElement(y, parse_braid_word("s2*s1^-1", 3))

    def sigma_on(braid: str) -> Angle:
        g1 = SemidirectElement(FreeWord.identity(3), parse_braid_word(braid, 3))
        return sigma.evaluate(g1, g2)

    assert sigma_on("s1^2") == c.entry(1, 2, 1).scale(2) - c.entry(1, 2, 3)
    assert sigma_on("s2*s1^2*s2^-1") == extend_pure(c, parse_pure_word("a(1,3)", 3), y)
    assert sigma_on("e") == Angle.zero()
    full_twist = SemidirectElement(FreeWord.generator(3, 2), center_z(3))
    assert sigma.evaluate(full_twist, g2) == extend_pure(c, center_z_pure_word(3), y)
    for braid in ("s1", "s1*s2", "s2^3"):
        with pytest.raises(ValueError, match="braid word is not pure"):
            sigma_on(braid)


def test_pure_sigma_matches_rewriting():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(2, 5)
        c = _symbolic_pure_cocycle(n, rng)
        b = random_pure_braid_word(n, rng.randint(0, 20), rng)
        y = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(5)))
        g1 = SemidirectElement(FreeWord.identity(n), b)
        g2 = SemidirectElement(y, random_braid_word(n, 3, rng))
        assert TwoCocycleSigmaPhi(c).evaluate(g1, g2) == extend_pure(c, rewrite_pure(b), y)


def test_sigma_two_cocycle_identity_and_normalization():
    rng = random.Random(67)
    for n in (2, 3, 4):
        c = random_braid_cocycle(n, rng)
        sigma = TwoCocycleSigmaPhi(c)
        e = SemidirectElement.identity(n)

        def element():
            free = FreeWord(
                n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(3))
            )
            return SemidirectElement(free, random_braid_word(n, rng.randint(0, 6), rng))

        for _ in range(100):
            a, b, cc = element(), element(), element()
            assert sigma.evaluate(a, b) + sigma.evaluate(a * b, cc) == sigma.evaluate(
                a, b * cc
            ) + sigma.evaluate(b, cc)
            assert sigma.evaluate(a, e) == Angle.zero()
            assert sigma.evaluate(e, a) == Angle.zero()
            assert a * a.inverse() == e and a.inverse() * a == e
        # restriction to the free subgroup vanishes
        for _ in range(10):
            x = SemidirectElement(
                FreeWord(n, ((rng.randint(1, n), 1),)), BraidWord.identity(n)
            )
            y = SemidirectElement(
                FreeWord(n, ((rng.randint(1, n), -1),)), BraidWord.identity(n)
            )
            assert sigma.evaluate(x, y) == Angle.zero()


def test_sigma_regular_central_probe():
    n = 3
    tests = generators_and_tests(n)
    c = build_braid_cocycle(n, mu1=Angle.rational(1, 4), mu2=Angle.rational(1, 8))
    mu = mu_phi(c)
    d = mu.torsion_order()
    sigma = TwoCocycleSigmaPhi(c)
    # discrepancy against x_j for ((x1..xn)^k z^k, k arbitrary) is k*mu
    for k in (1, 2, d, d * (n - 1)):
        g = center_element(n, k)
        report = sigma_regular(sigma, g, tests)
        for j in range(n):
            assert report.discrepancies[j] == mu.scale(k)
    g = center_element(n, d * (n - 1))
    assert sigma_regular(sigma, g, tests).regular
    # identity is regular against anything that commutes with it
    assert sigma_regular(sigma, SemidirectElement.identity(n), tests).regular


def test_sigma_regular_nontorsion_detects():
    n = 3
    tests = generators_and_tests(n)
    c = build_braid_cocycle(n, mu1=TH1, mu2=Angle.zero())
    assert mu_phi(c) == TH1.scale(2)
    g = center_element(n, n - 1)
    report = sigma_regular(TwoCocycleSigmaPhi(c), g, tests)
    assert not report.regular
    assert any(report.discrepancies[j] for j in range(n))


def test_sigma_regular_rank2_example():
    # mu = 1/2 and g = ((x1 x2)^2, z^2): the discrepancy 2 * (1/2) vanishes
    c = build_braid_cocycle(2, mu1=Angle.rational(1, 2))
    assert mu_phi(c) == Angle.rational(1, 2)
    tests = generators_and_tests(2)
    report = sigma_regular(TwoCocycleSigmaPhi(c), center_element(2, 2), tests)
    assert report.regular
    assert report.discrepancies[0] == Angle.zero()


def test_mackey_two_cocycle_evaluation():
    # the tower 2-cocycle that the mackey verdict reads, written out
    n = 3
    phi = build_pure_cocycle(
        n, {(1, 2): [TH1, Angle.rational(1, 3), Angle.zero()]}
    )

    def bilinear(u: PureWord, v: PureWord) -> Angle:
        wu = sum(e for _, e in u.letters)
        wv = sum(e for _, e in v.letters)
        return Angle.rational(1, 5).scale(wu * wv)

    def sigma(g, h):
        # sigma(x a, y b) = phi(a, y) + omega(a, b)
        (_, a), (y, b) = g, h
        return extend_pure(phi, a, y) + bilinear(a, b)

    a12 = parse_pure_word("a(1,2)", n)
    x1 = FreeWord.generator(n, 1)
    value = sigma((FreeWord.identity(n), a12), (x1, a12))
    assert value == TH1 + Angle.rational(1, 5)
    # normalized 2-cocycle identity on sampled triples
    rng = random.Random(79)
    pairs = [(1, 2), (1, 3), (2, 3)]

    def element():
        free = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(3)))
        word = PureWord(n, tuple((rng.choice(pairs), rng.choice((1, -1))) for _ in range(3)))
        return free, word

    def multiply(g, h):
        # (x, a)(y, b) = (x * a.y, a b); pure words act through their braids
        (x, a), (y, b) = g, h
        acted = apply_braid(a.expand(), y)
        return x * acted, a * b

    for _ in range(40):
        g, h, k = element(), element(), element()
        lhs = sigma(g, h) + sigma(multiply(g, h), k)
        rhs = sigma(g, multiply(h, k)) + sigma(h, k)
        assert lhs == rhs


def test_sigma_regular_rejects_noncommuting_tests():
    n = 3
    c = build_braid_cocycle(n, Angle.zero(), Angle.zero())
    g = SemidirectElement(FreeWord.generator(n, 1), BraidWord.identity(n))
    h = SemidirectElement(FreeWord.generator(n, 2), BraidWord.identity(n))
    with pytest.raises(ValueError):
        sigma_regular(TwoCocycleSigmaPhi(c), g, [h])


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_braid_verdicts():
    nontorsion = BraidOneCocycle(2, ((TH1, Angle.zero()),))
    v = evaluate_conditions("bn", nontorsion)
    assert v.verdict == "SimpleAndUniqueTrace" and v.citation
    torsion = BraidOneCocycle(2, ((Angle.rational(1, 2), Angle.zero()),))
    v = evaluate_conditions("bn", torsion)
    assert v.verdict == "NotFactor"
    assert v.details["mu_torsion_order"] == "2"


def test_pure_verdicts():
    simple = build_pure_cocycle(2, {(1, 2): [TH1, Angle.zero()]})
    assert evaluate_conditions("pn", simple).verdict == "SimpleAndUniqueTrace"
    dead = build_pure_cocycle(2, {(1, 2): [Angle.rational(1, 2), Angle.zero()]})
    assert evaluate_conditions("pn", dead).verdict == "NotFactor"
    guaranteed = build_pure_cocycle(3, {(1, 2): [TH1, Angle.zero(), Angle.zero()]})
    assert (
        evaluate_conditions("pn", guaranteed).verdict == "GuaranteedSimpleAndUniqueTrace"
    )
    # all nu_k torsion but one row sum nontorsion: Kleppner holds, open middle
    mixed = build_pure_cocycle(
        3,
        {
            (1, 2): [TH1, Angle.zero(), Angle.zero()],
            (1, 3): [-TH1, Angle.zero(), Angle.zero()],
        },
    )
    v = evaluate_conditions("pn", mixed)
    assert v.verdict == "Indeterminate" and v.details["kleppner"] == "holds"
    # everything torsion: Kleppner fails
    flat = build_pure_cocycle(3, {(1, 2): [Angle.rational(1, 2)] * 3})
    v = evaluate_conditions("pn", flat)
    assert v.verdict == "NotFactor" and v.details["kleppner"] == "fails"


def test_annular_verdicts():
    c = build_braid_cocycle(3, mu1=TH1, mu2=Angle.zero())
    assert evaluate_conditions("an", c).verdict == "SimpleAndUniqueTrace"
    c = build_braid_cocycle(3, mu1=Angle.rational(1, 3), mu2=Angle.zero())
    assert evaluate_conditions("an", c).verdict == "NotFactor"


def test_mackey_verdicts():
    n = 3
    zero_omega = {
        key: Angle.zero()
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for key in ((f"a({i},{j})", "z"), ("z", f"a({i},{j})"))
    }
    simple = build_pure_cocycle(n, {(1, 2): [TH1, Angle.zero(), Angle.zero()]})
    v = evaluate_conditions("mackey", simple, zero_omega)
    assert v.verdict == "SimpleAndUniqueTrace"  # iff on three strands
    # from four strands a nontorsion nu_k is only sufficient; omega is not read
    four = build_pure_cocycle(4, {(1, 2): [TH1] + [Angle.zero()] * 3})
    v = evaluate_conditions("mackey", four, {})
    assert v.verdict == "GuaranteedSimpleAndUniqueTrace" and v.details["nu1"] == "th1"
    flat = build_pure_cocycle(n, {})
    v = evaluate_conditions("mackey", flat, zero_omega)
    assert v.verdict == "NotFactor" and v.details["kleppner"] == "fails"
    # omega correction can switch Kleppner on while every nu_k stays torsion
    twisted = zero_omega | {("a(1,2)", "z"): Angle.symbol("th9")}
    v = evaluate_conditions("mackey", flat, twisted)
    assert v.verdict == "Indeterminate" and v.details["kleppner"] == "holds"
    with pytest.raises(MissingOmegaError):
        evaluate_conditions("mackey", flat, None)
    for key in zero_omega:
        with pytest.raises(MissingOmegaError, match=f"omega value for {re.escape(str(key))} not"):
            evaluate_conditions("mackey", flat, {k: v for k, v in zero_omega.items() if k != key})


def test_verdict_table_kind_and_family_are_checked():
    braid = build_braid_cocycle(3, mu1=TH1)
    pure = restrict_to_pure(braid)
    omega = {}
    for family, table in (("bn", pure), ("AN", pure), ("pn", braid), ("mackey", braid)):
        kind = "braid" if family.lower() in ("bn", "an") else "pure"
        with pytest.raises(ParseError, match=f"family {family.lower()} expects a {kind}"):
            evaluate_conditions(family, table, omega)
    for first, second in ((braid, pure), (pure, braid), (pure, pure)):
        with pytest.raises(ParseError, match="classification expects braid cocycle tables"):
            similar_braid_cocycles(first, second)
    for table in (braid, pure):
        with pytest.raises(ValueError, match="unknown condition family 'cn'"):
            evaluate_conditions("cn", table)


def test_verdict_json_shape():
    c = build_braid_cocycle(2, mu1=TH1)
    doc = evaluate_conditions("bn", c).to_json()
    assert set(doc) == {"family", "n", "verdict", "by", "details"}
    assert doc["verdict"] == "SimpleAndUniqueTrace"
    assert isinstance(doc["by"], str) and doc["by"]


def _verdict_grid() -> list[dict]:
    """Verdict documents of seeded tables at n = 2..6 under every family.

    Pure tables are rational, plus th1 in one entry (a nontorsion column) or
    th1 and -th1 in one column (torsion column sums, and nontorsion row sums
    when the two rows differ); omega values are rational or add th2.
    """
    rng = random.Random(23)
    out = []

    def record(family, table, omega=None):
        try:
            out.append(evaluate_conditions(family, table, omega).to_json())
        except (MissingOmegaError, ParseError) as exc:
            out.append({"family": family, "error": str(exc)})

    def small():
        return Angle.rational(rng.randint(0, 5), rng.choice((1, 2, 3, 4)))

    for n in range(2, 7):
        pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        for _ in range(8):
            c = random_braid_cocycle(n, rng, ("th1",) if rng.random() < 0.5 else ())
            for family in ("bn", "an", "BN"):
                record(family, c)
            rows = {pair: [small() for _ in range(n)] for pair in pairs}
            mode, k = rng.randrange(3), rng.randrange(n)
            if mode == 1:
                rows[rng.choice(pairs)][k] += TH1
            elif mode == 2:
                rows[rng.choice(pairs)][k] += TH1
                rows[rng.choice(pairs)][k] -= TH1
            for table in (build_pure_cocycle(n, rows), restrict_to_pure(c)):
                record("pn", table)
                record("mackey", table)
                values = {}
                for i, j in pairs:
                    for key in ((f"a({i},{j})", "z"), ("z", f"a({i},{j})")):
                        extra = Angle.symbol("th2") if rng.random() < 0.15 else Angle.zero()
                        values[key] = small() + extra
                record("mackey", table, values)
    return out


# sha256 of the JSON list of _verdict_grid()'s documents.
VERDICT_GRID_SHA256 = "4bb0c2c43279a6964e845fa9ad30f273478dee39f1ea11514d3bf412b6e32a75"


def test_verdict_golden():
    docs = _verdict_grid()
    branches = {
        (d["family"], d["verdict"], d["by"], "note" in d["details"],
         "mu_torsion_order" in d["details"], "kleppner" in d["details"])
        for d in docs if "error" not in d
    }
    bn, an = "thm:braid-deformation-iff", "prop:annular-kleppner-iff"
    pn_iff, pn_suff = "thm:pure-deformation-iff-rank2", "thm:pure-deformation-sufficient"
    pn_kl = "lem:pure-kleppner-criterion"
    mk, mk_iff = "prop:pure-tower-mackey", "prop:pure-tower-mackey-iff-rank3"
    assert branches == {
        ("bn", "NotFactor", bn, False, True, False),
        ("bn", "SimpleAndUniqueTrace", bn, False, False, False),
        ("an", "NotFactor", an, False, False, False),
        ("an", "SimpleAndUniqueTrace", an, False, False, False),
        ("pn", "SimpleAndUniqueTrace", pn_iff, False, False, False),
        ("pn", "NotFactor", pn_iff, False, False, False),  # n = 2 stops after nu_k
        ("pn", "GuaranteedSimpleAndUniqueTrace", pn_suff, False, False, False),
        ("pn", "Indeterminate", pn_kl, False, False, True),
        ("pn", "NotFactor", pn_kl, False, False, True),
        ("mackey", "SimpleAndUniqueTrace", mk_iff, False, False, False),
        ("mackey", "GuaranteedSimpleAndUniqueTrace", mk, False, False, False),
        ("mackey", "Indeterminate", mk, True, False, True),  # n = 3
        ("mackey", "Indeterminate", mk, False, False, True),
        ("mackey", "NotFactor", mk_iff, False, False, True),  # n = 3
        ("mackey", "NotFactor", mk, False, False, True),
    }
    assert {"family": "mackey", "error": "the mackey family needs omega values"} in docs
    text = json.dumps(docs)
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICT_GRID_SHA256


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_braid():
    rng = random.Random(73)
    for n in (2, 3, 4):
        c = random_braid_cocycle(n, rng)
        assert cocycle_from_json(cocycle_to_json(c)) == c


def test_json_roundtrip_pure():
    c = build_pure_cocycle(
        3, {(1, 2): [TH1, Angle.zero(), Angle.rational(1, 4)]}
    )
    assert cocycle_from_json(cocycle_to_json(c)) == c
    # labels may carry whitespace, also inside a(i,j)
    spaced = [["a( 1 , 2 )", " x1", "th1"], ["a(1,2)", "x3 ", "1/4"]]
    assert cocycle_from_json({"n": 3, "entries": spaced}) == c


def test_json_spec_shape():
    c = build_braid_cocycle(3, mu1=parse_angle("1/4 + th1"), mu2=Angle.zero())
    doc = cocycle_to_json(c)
    assert set(doc) == {"n", "entries"}
    assert ["s1", "x1", "0"] in doc["entries"]


def test_rank_errors():
    c = build_braid_cocycle(3, Angle.zero(), Angle.zero())
    with pytest.raises(RankError):
        extend(c, parse_braid_word("s1", 2), FreeWord.generator(2, 1))
    with pytest.raises(RankError):
        SemidirectElement(FreeWord.generator(2, 1), BraidWord.identity(3))


def test_reimport_keeps_no_old_modules_alive():
    # A typing alias evaluated at import time (Callable[[PureWord, ...], Angle])
    # sits in typing's cache and pins the classes, and with them the modules,
    # of every earlier import.  Run in a child so this process keeps its modules.
    script = (
        "import gc, importlib, sys\n"
        "for _ in range(3):\n"
        "    for name in [m for m in sys.modules if m.split('.')[0] == 'braidphase']:\n"
        "        del sys.modules[name]\n"
        "    importlib.import_module('braidphase')\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, type) and o.__module__ == 'braidphase.phase'\n"
        "          and o.__name__ == 'Angle' for o in gc.get_objects()))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "1"


def test_json_reads_each_angle_text_once():
    # equal texts share one Angle, so validation and extend compare by identity
    doc = cocycle_to_json(build_braid_cocycle(6, TH1, Angle.rational(1, 5)))
    c = cocycle_from_json(doc)
    texts = {text for _, _, text in doc["entries"]}
    assert len({id(a) for row in c.table for a in row}) == len(texts)
