import pathlib
import random
import runpy

import pytest

from braidphase.artin import FreeAutomorphism, _substitute, apply_braid
from braidphase.braid import (
    BraidWord,
    center_z,
    equal,
    is_inner_for_pure,
    parse_braid_word,
    random_braid_word,
    random_pure_braid_word,
    random_reduced_word,
)
from braidphase.errors import RankError
from braidphase.freegroup import FreeWord, parse_free_word


def automorphism(b: BraidWord) -> FreeAutomorphism:
    """The whole automorphism of b, recorded by the images apply_braid(b, x_j)."""
    n = b.strands
    return FreeAutomorphism(
        n, tuple(apply_braid(b, FreeWord.generator(n, j)) for j in range(1, n + 1))
    )


def full_word(n: int) -> FreeWord:
    return FreeWord(n, tuple((i, 1) for i in range(1, n + 1)))


def generator_images(n: int, i: int, sign: int) -> list[FreeWord]:
    """The images of x_1..x_n under s_i^sign, as the README states them."""
    texts = [f"x{j}" for j in range(1, n + 1)]
    if sign == 1:
        texts[i - 1], texts[i] = f"x{i + 1}", f"x{i + 1}^-1*x{i}*x{i + 1}"
    else:
        texts[i - 1], texts[i] = f"x{i}*x{i + 1}*x{i}^-1", f"x{i}"
    return [parse_free_word(t, n) for t in texts]


def substitute(b: BraidWord, word: FreeWord) -> FreeWord:
    """Reference for apply_braid(b, word): substitute the generator formulas
    into the one word, for the letters of b from right to left."""
    n = b.strands
    for i, sign in reversed(b.units):
        word = FreeAutomorphism(n, tuple(generator_images(n, i, sign)))(word)
    return word


def test_generator_images():
    for n in range(2, 7):
        for i in range(1, n):
            for sign in (1, -1):
                auto = automorphism(BraidWord(n, ((i, sign),)))
                assert list(auto.images) == generator_images(n, i, sign)
                back = automorphism(BraidWord(n, ((i, -sign),)))
                for j in range(1, n + 1):
                    x = FreeWord.generator(n, j)
                    assert back(auto(x)) == x


def test_apply():
    ident = automorphism(BraidWord.identity(3))
    w = parse_free_word("x1*x3^-2", 3)
    assert ident(w) == w
    a = automorphism(parse_braid_word("s1", 2))
    assert a(parse_free_word("x1*x2", 2)) == parse_free_word("x1*x2", 2)
    with pytest.raises(RankError):
        a(parse_free_word("x1", 3))
    with pytest.raises(RankError):
        apply_braid(parse_braid_word("s1", 2), parse_free_word("x1", 3))


def test_identity_and_equal():
    for n in range(1, 5):
        gens = tuple(FreeWord.generator(n, j) for j in range(1, n + 1))
        assert automorphism(BraidWord.identity(n)) == FreeAutomorphism(n, gens)
    lhs = automorphism(parse_braid_word("s1*s2*s1", 3))
    rhs = automorphism(parse_braid_word("s2*s1*s2", 3))
    assert lhs == rhs
    assert automorphism(parse_braid_word("s1", 3)) != automorphism(parse_braid_word("s2", 3))
    assert automorphism(BraidWord.identity(2)) != automorphism(BraidWord.identity(3))


def test_artin_auto_is_homomorphism():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_braid_word(n, rng.randint(0, 8), rng)
        b = random_braid_word(n, rng.randint(0, 8), rng)
        w = FreeWord(n, tuple((rng.randint(1, n), rng.choice((1, -1))) for _ in range(4)))
        auto_a, auto_b, auto_ab = automorphism(a), automorphism(b), automorphism(a * b)
        assert auto_ab(w) == auto_a(auto_b(w)) == substitute(a * b, w) == apply_braid(a * b, w)
        for j in range(1, n + 1):
            assert auto_b.images[j - 1] == substitute(b, FreeWord.generator(n, j))


def test_relation_kernel():
    for n in range(2, 7):
        for i in range(1, n - 1):
            u = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
            v = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
            assert automorphism(u) == automorphism(v)
        for i in range(1, n):
            for j in range(i + 2, n):
                u = BraidWord(n, ((i, 1), (j, 1)))
                v = BraidWord(n, ((j, 1), (i, 1)))
                assert automorphism(u) == automorphism(v)


def test_preserves_product_of_generators():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 5)
        b = random_braid_word(n, rng.randint(0, 15), rng)
        assert automorphism(b)(full_word(n)) == apply_braid(b, full_word(n)) == full_word(n)
    for _ in range(20):  # far past the reach of automorphism
        n = rng.randint(2, 12)
        b = random_braid_word(n, rng.randint(0, 2000), rng)
        assert apply_braid(b, full_word(n)) == full_word(n)


def test_center_acts_by_conjugation():
    for n in range(2, 6):
        auto = automorphism(center_z(n))
        for i in range(1, n + 1):
            expected = FreeWord.generator(n, i).conjugate_by(full_word(n))
            assert auto.images[i - 1] == expected


def test_is_inner_witnesses():
    # two strands: the generator of the pure part conjugates by x1 x2
    w = is_inner_for_pure(parse_braid_word("s1^2", 2))
    assert w == parse_free_word("x1*x2", 2)
    # the full twist conjugates by x1...xn
    for n in range(2, 5):
        w = is_inner_for_pure(center_z(n))
        assert w == full_word(n)
    assert is_inner_for_pure(BraidWord.identity(3)) == FreeWord.identity(3)
    # one strand: n(n-1) = 0 divides nothing, and the identity is the witness
    assert is_inner_for_pure(BraidWord.identity(1)) == FreeWord.identity(1)
    with pytest.raises(ValueError):
        is_inner_for_pure(parse_braid_word("s1", 2))


def test_is_inner_witness_equation_rank2():
    # on two strands every pure braid acts by a conjugation
    rng = random.Random(55)
    for _ in range(100):
        b = random_pure_braid_word(2, 12, rng)
        witness = is_inner_for_pure(b)
        assert witness is not None, f"no witness found for {b}"
        auto = automorphism(b)
        for i in (1, 2):
            assert auto.images[i - 1] == FreeWord.generator(2, i).conjugate_by(witness)


def test_is_inner_witness_central_powers():
    rng = random.Random(56)
    for n in (3, 4):
        for k in (-2, -1, 1, 2):
            c = random_braid_word(n, 5, rng)
            for b in (center_z(n) ** k, c * center_z(n) ** k * c.inverse()):
                witness = is_inner_for_pure(b)
                assert witness == full_word(n) ** k
                auto = automorphism(b)
                for i in range(1, n + 1):
                    assert auto.images[i - 1] == FreeWord.generator(n, i).conjugate_by(witness)


def test_is_inner_semidecision_on_non_inner_input():
    # a12 in B_3 fixes x3, so a common conjugator would have to be a power of
    # x3, which fails on x1: no witness exists, and None says so
    assert is_inner_for_pure(parse_braid_word("s1^2", 3)) is None
    # disguised by conjugation: z * a12 has exponent sum 8, no multiple of
    # n(n-1) = 6, while z^2 * a12^-3 has the exponent sum of z and only the
    # equality test rules it out; neither commutes with both generators
    c = parse_braid_word("s2*s1^-1*s2", 3)
    a12 = parse_braid_word("s1^2", 3)
    for b in (center_z(3) * a12, center_z(3) ** 2 * a12 ** -3):
        b = c * b * c.inverse()
        assert is_inner_for_pure(b) is None
        assert not all(equal(b * s, s * b) for s in (BraidWord.generator(3, i) for i in (1, 2)))


# Run exponents -7..8 without 0: +-1, even and odd, each drawn equally often.
RUN_EXPONENTS = [e for e in range(-7, 9) if e]


def _random_letters(rng, gens, count):
    return [(rng.choice(gens), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(count)]


def _word_for_run(rng, n, i, kind):
    """A free word of one of three kinds for the run s_i^e: its letters
    x_i, x_{i+1} at both ends ("ends"), none of them ("none"), or any."""
    pair = [i, i + 1]
    others = [k for k in range(1, n + 1) if k not in pair]
    if kind == "ends":
        letters = (_random_letters(rng, pair, rng.randint(1, 3))
                   + _random_letters(rng, others, rng.randint(1, 3) if others else 0)
                   + _random_letters(rng, pair, rng.randint(1, 3)))
    elif kind == "none":
        letters = _random_letters(rng, others, rng.randint(0, 6)) if others else []
    else:
        letters = _random_letters(rng, list(range(1, n + 1)), rng.randint(0, 8))
    return FreeWord(n, tuple(letters))


def test_run_step_matches_letter_at_a_time():
    # one step per run s_i^e against the generator formulas applied |e| times
    rng = random.Random(14)
    kinds = ("ends", "none", "any")
    for k in range(3 * len(RUN_EXPONENTS) * 8):  # 360 (run, word) pairs
        n = rng.randint(2, 6)
        i, e = rng.randint(1, n - 1), RUN_EXPONENTS[k % len(RUN_EXPONENTS)]
        w = _word_for_run(rng, n, i, kinds[k % 3])
        expected = substitute(BraidWord(n, ((i, e),)), w)
        assert _substitute(w.letters, i, e) == expected.letters, (n, i, e, str(w))
        b = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice(RUN_EXPONENTS))
                               for _ in range(rng.randint(0, 4))))
        assert apply_braid(b, w) == substitute(b, w), (str(b), str(w))


def test_run_step_closed_forms():
    # s_i^2 conjugates x_i and x_{i+1} by c = x_i x_{i+1}, and s_i fixes c
    for n, i in ((2, 1), (3, 2), (6, 3)):
        x, y = FreeWord.generator(n, i), FreeWord.generator(n, i + 1)
        c = x * y
        for m in (-10_000, -9_999, -7, -1, 0, 1, 2, 7, 9_999, 10_000):
            assert apply_braid(BraidWord(n, ((i, 2 * m),)), x) == x.conjugate_by(c ** m)
            assert apply_braid(BraidWord(n, ((i, 2 * m + 1),)), x) == y.conjugate_by(c ** m)
            assert apply_braid(BraidWord(n, ((i, 2 * m),)), c) == c


def test_run_step_round_trip():
    # s_i^-e undoes s_i^e, so the second step cancels nearly all the first one
    # wrote, on the output stack; exponents -7..8, and |m| of 499 or 500 on
    # every tenth word, which wraps each segment in some 1,000 letters of c^m
    rng = random.Random(27)
    kinds = ("ends", "none", "any")
    for k in range(3000):
        n = rng.randint(2, 7)
        i = rng.randint(1, n - 1)
        e = rng.choice((-1001, -1000, 999, 1000) if k % 10 == 0 else RUN_EXPONENTS)
        w = _word_for_run(rng, n, i, kinds[k % 3]).letters
        image = _substitute(w, i, e)
        assert FreeWord(n, image).letters == image, (n, i, e, w)  # already reduced
        assert _substitute(image, i, -e) == w, (n, i, e, w)


def test_identity_braid_swells_and_collapses():
    # u * v^-1 for the seeded equal pairs (u, v) of scripts/bench_equal.py
    # --pair, v being u with relators put in, is the identity braid: v^-1 swells
    # a word of 6 letters, none next to its inverse, to up to some 20,000 runs,
    # and u cancels them back
    path = pathlib.Path(__file__).parent.parent / "scripts" / "bench_equal.py"
    pair = runpy.run_path(str(path))["pair"]
    rng, swell = random.Random(60), 0
    for n, length in ((3, 24), (4, 40), (5, 40), (6, 40)):
        for seed in range(3):
            u, v = (parse_braid_word(text, n) for text in pair(n, length, seed))
            w = FreeWord(n, tuple(random_reduced_word(n + 1, 6, rng).units))
            middle = apply_braid(v.inverse(), w)
            assert apply_braid(u, middle) == w == apply_braid(u * v.inverse(), w), (n, seed)
            swell = max(swell, len(middle.letters))
    assert swell > 10_000
