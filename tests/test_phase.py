import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidphase.errors import ParseError
from braidphase.phase import Angle, parse_angle

angles = st.builds(
    Angle,
    st.fractions(min_value=-4, max_value=4, max_denominator=24),
    st.lists(
        st.tuples(st.sampled_from(["th1", "th2", "th3"]), st.integers(-3, 3)),
        max_size=3,
    ).map(tuple),
)


def test_basic_examples():
    assert Angle.rational(1, 3) + Angle.rational(2, 3) == Angle.zero()
    assert Angle.symbol("th1").scale(3) == Angle.symbol("th1", 3)
    a = Angle.rational(1, 4) + Angle.symbol("th1")
    b = Angle.rational(3, 4) + Angle.symbol("th1", -1)
    assert a + b == Angle.zero()


def test_normalization():
    assert Angle(Fraction(5, 4)).frac == Fraction(1, 4)
    assert (Angle(Fraction(5, 4)).num, Angle(Fraction(5, 4)).den) == (1, 4)
    assert Angle(Fraction(-1, 3)).frac == Fraction(2, 3)
    assert (Angle(Fraction(-6, 3)).num, Angle(Fraction(-6, 3)).den) == (0, 1)
    assert Angle(Fraction(0), (("th1", 2), ("th1", -2))) == Angle.zero()


@settings(max_examples=120, derandomize=True)
@given(angles, angles, angles)
def test_group_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + Angle.zero() == a
    assert a + (-a) == Angle.zero()
    assert a.scale(3) == a + a + a
    assert a.scale(-2) == -(a + a)


def _assert_canonical(r: Angle) -> None:
    twin = Angle(r.frac, r.syms)  # the public constructor normalises from scratch
    assert r == twin and hash(r) == hash(twin)
    assert 0 <= r.num < r.den and math.gcd(r.num, r.den) == 1
    names = [name for name, _ in r.syms]
    assert names == sorted(set(names)) and all(c != 0 for _, c in r.syms)


@settings(max_examples=150, derandomize=True)
@given(angles, angles, st.integers(-3, 3),
       st.lists(st.tuples(st.integers(-3, 3), angles), max_size=4))
def test_arithmetic_results_are_canonical(a, b, k, terms):
    # arithmetic builds its results without the public normalisation; each
    # must still be the one canonical form, with the hash that form has
    for r in (a, a + b, a - b, -a, a.scale(k), Angle.combination(terms)):
        _assert_canonical(r)


def test_angle_is_frozen_and_copies():
    a = Angle.rational(1, 3) + Angle.symbol("th1", -2)
    for field in ("num", "den", "syms", "frac"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, 0)
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


def test_group_laws_seeded_bulk():
    import random

    rng = random.Random(500)

    def sample() -> Angle:
        out = Angle.rational(rng.randint(-8, 8), rng.randint(1, 12))
        for name in ("th1", "th2"):
            out = out + Angle.symbol(name, rng.randint(-2, 2))
        return out

    for _ in range(500):
        a, b, c = sample(), sample(), sample()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + (-a) == Angle.zero()


def test_combination_matches_repeated_sums():
    import random

    rng = random.Random(501)
    assert Angle.combination([]) == Angle.zero()
    th1 = Angle.symbol("th1")
    half = Angle.rational(1, 2)
    assert Angle.combination([(3, th1), (-3, th1), (4, half)]) == Angle.zero()
    for _ in range(300):
        terms = [
            (rng.randint(-5, 5), Angle.rational(rng.randint(-8, 8), rng.randint(1, 12))
             + Angle.symbol(rng.choice(("th1", "th2")), rng.randint(-2, 2)))
            for _ in range(rng.randint(0, 6))
        ]
        expected = Angle.zero()
        for k, angle in terms:
            expected = expected + angle.scale(k)
        assert Angle.combination(terms) == expected


def test_torsion():
    assert Angle.rational(1, 2).is_torsion
    assert not Angle.symbol("th1").is_torsion
    assert not (Angle.rational(1, 3) + Angle.symbol("th1", 2)).is_torsion
    assert Angle.zero().torsion_order() == 1
    assert Angle.rational(3, 7).torsion_order() == 7
    assert Angle.symbol("th1").torsion_order() is None


def test_torsion_brute_force():
    # torsion iff some k <= denominator kills the angle, checked directly
    for q in range(1, 101):
        for p in (0, 1, q - 1, q // 2):
            a = Angle.rational(p, q)
            killed = any(not a.scale(k) for k in range(1, q + 1))
            assert killed == a.is_torsion


@settings(max_examples=80, derandomize=True)
@given(angles)
def test_parse_format_roundtrip(a):
    assert parse_angle(str(a)) == a


def test_parse_examples():
    assert parse_angle("1/3 + 2*th1") == Angle.rational(1, 3) + Angle.symbol("th1", 2)
    assert parse_angle("0") == Angle.zero()
    assert parse_angle("-th2") == Angle.symbol("th2", -1)
    assert parse_angle("3/4 - th1") == Angle.rational(3, 4) - Angle.symbol("th1")
    with pytest.raises(ParseError):
        parse_angle("1/3 + + th1")
    with pytest.raises(ParseError):
        parse_angle("th1*2")
    with pytest.raises(ParseError):
        parse_angle("1/0")
    # integers are ASCII decimal digits only: no underscores, no other scripts
    for text in ("1_0/3", "1/3_3", "1_0", "3_3*th1", "1/00", "\u0661/\u0663", "\u0663*th1"):
        with pytest.raises(ParseError, match="bad term"):
            parse_angle(text)
    assert parse_angle("010/30 - 02*th1") == Angle.rational(1, 3) - Angle.symbol("th1", 2)


def test_symbol_names_are_checked_where_they_enter():
    # Angle.symbol and parse_angle check each name; arithmetic only
    # recombines names that were checked, so Angle itself does not
    with pytest.raises(ValueError, match="bad symbol name '1x'"):
        Angle.symbol("1x")
    for text, message in [("1x", "bad term '1x' in angle '1x'"),
                          ("2*1x", "bad term '2\\*1x' in angle '2\\*1x'"),
                          ("a.b", "bad term 'a.b' in angle 'a.b'"),
                          ("x-", "cannot parse angle 'x-'")]:
        with pytest.raises(ParseError, match=message):
            parse_angle(text)
