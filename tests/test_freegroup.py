import random

import pytest
from hypothesis import given, settings, strategies as st

from braidphase.errors import RankError
from braidphase.freegroup import Character, FreeWord, parse_free_word
from braidphase.phase import Angle


def raw_letters(rank: int, max_len: int = 20):
    return st.lists(
        st.tuples(st.integers(1, rank), st.integers(-3, 3)), max_size=max_len
    ).map(tuple)


def words(rank: int, max_len: int = 20):
    return raw_letters(rank, max_len).map(lambda ls: FreeWord(rank, ls))


def test_reduce_examples():
    assert FreeWord(2, ((1, 1), (1, -1))).is_identity
    assert FreeWord(2, ((1, 1), (2, 1), (2, 1))) == parse_free_word("x1*x2^2", 2)
    # hand reduction: x2^-1 x1 x2 x2^-1 x1^-1 x2 = e
    w = FreeWord(2, ((2, -1), (1, 1), (2, 1), (2, -1), (1, -1), (2, 1)))
    assert w.is_identity


@settings(max_examples=100, derandomize=True)
@given(raw_letters(3))
def test_reduce_idempotent(letters):
    w = FreeWord(3, letters)
    assert FreeWord(3, w.letters) == w


def test_multiply_examples():
    x1, x2 = FreeWord.generator(2, 1), FreeWord.generator(2, 2)
    assert (x1 * x1.inverse()).is_identity
    assert (x1 * x2) * (x2.inverse() * x1) == FreeWord(2, ((1, 2),))
    u = x2.inverse() * x1 * x2
    v = x2.inverse() * x1.inverse() * x2
    assert (u * v).is_identity


def test_rank_checks():
    with pytest.raises(RankError):
        FreeWord.generator(2, 1) * FreeWord.generator(3, 1)
    with pytest.raises(RankError):
        FreeWord(2, ((3, 1),))
    assert FreeWord.generator(2, 1).promote(4).rank == 4
    with pytest.raises(RankError):
        FreeWord.generator(3, 3).promote(2)


@settings(max_examples=100, derandomize=True)
@given(words(6), words(6), words(6))
def test_group_laws(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert (u * u.inverse()).is_identity
    assert (u * v).inverse() == v.inverse() * u.inverse()


def test_invert_and_conjugate():
    w = parse_free_word("x1*x2^-1", 2)
    assert w.inverse() == parse_free_word("x2*x1^-1", 2)
    x1, x2 = FreeWord.generator(2, 1), FreeWord.generator(2, 2)
    assert x1.conjugate_by(x2) == parse_free_word("x2^-1*x1*x2", 2)
    assert FreeWord.identity(2).conjugate_by(w).is_identity


def test_abelianize():
    assert parse_free_word("x1*x2*x1^-1", 2).abelianize() == (0, 1)
    assert parse_free_word("x1*x2", 2).abelianize() == (1, 1)
    w = parse_free_word("x1*x2", 2) ** 3
    # oracle: expand and count letters directly
    counts = [0, 0]
    for i, e in w.letters:
        counts[i - 1] += e
    assert tuple(counts) == (3, 3) == w.abelianize()


def test_char_eval_examples():
    f = Character(2, (Angle.rational(1, 4), Angle.zero()))
    assert f(parse_free_word("x1^2", 2)) == Angle.rational(1, 2)
    assert f(FreeWord.identity(2)) == Angle.zero()
    g = Character(2, (Angle.rational(1, 3), Angle.rational(1, 6)))
    assert g(parse_free_word("x2^-1*x1*x2", 2)) == Angle.rational(1, 3)


def test_char_is_homomorphism_and_kills_conjugation():
    rng = random.Random(2024)
    f = Character(3, (Angle.rational(1, 3), Angle.symbol("th1"), Angle.rational(2, 5)))
    for _ in range(200):
        letters = tuple(
            (rng.randint(1, 3), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
        )
        u = FreeWord(3, letters[: len(letters) // 2])
        v = FreeWord(3, letters[len(letters) // 2 :])
        assert f(u * v) == f(u) + f(v)
        assert f(u.conjugate_by(v)) == f(u)


def test_parse_print_roundtrip():
    for text in ("e", "x1", "x1*x2^-1*x1^2", "x2^-3"):
        assert str(parse_free_word(text, 3)) == text
    assert str(parse_free_word("x1^+2 * x3^10000000000", 3)) == "x1^2*x3^10000000000"
