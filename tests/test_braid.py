import hashlib
import random

import pytest

from braidphase.braid import (
    BraidWord,
    GarsideForm,
    Permutation,
    PureWord,
    center_z,
    center_z_pure_word,
    delta,
    dynnikov,
    embed,
    equal,
    garside_normal_form,
    is_pure,
    linking_numbers,
    p3_image,
    parse_braid_word,
    parse_pure_word,
    permutation_of,
    pure_generator,
    random_braid_word,
    random_equal_pair,
    random_pure_braid_word,
    random_reduced_word,
    rewrite_pure,
)
from braidphase.errors import ParseError, RankError
from braidphase.freegroup import FreeWord


def test_permutation_of_examples():
    assert permutation_of(parse_braid_word("s1", 3)) == Permutation((2, 1, 3))
    assert permutation_of(parse_braid_word("s1^2", 3)).is_identity
    # s1 s2 is the 3-cycle 1 -> 2 -> 3 -> 1
    p = permutation_of(parse_braid_word("s1*s2", 3))
    assert p(1) == 2 and p(2) == 3 and p(3) == 1


def test_permutation_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = random_braid_word(n, rng.randint(0, 12), rng)
        b = random_braid_word(n, rng.randint(0, 12), rng)
        assert permutation_of(a * b) == permutation_of(a) * permutation_of(b)


def test_is_pure():
    assert is_pure(parse_braid_word("s1^2", 3))
    assert not is_pure(parse_braid_word("s1", 3))
    assert is_pure(center_z(3))


def test_pure_generator_formula():
    assert pure_generator(1, 2, 2) == parse_braid_word("s1^2", 2)
    assert pure_generator(1, 3, 3) == parse_braid_word("s2*s1^2*s2^-1", 3)
    assert pure_generator(2, 4, 4) == parse_braid_word("s3*s2^2*s3^-1", 4)
    for n in range(2, 6):
        for j in range(2, n + 1):
            for i in range(1, j):
                assert is_pure(pure_generator(i, j, n))
    with pytest.raises(ValueError):
        pure_generator(2, 2, 3)


def test_delta_and_center():
    assert delta(3) == parse_braid_word("s1*s2*s1", 3)
    for n in range(2, 7):
        z = center_z(n)
        power = BraidWord(n, tuple((i, 1) for _ in range(n) for i in range(1, n)))
        assert equal(z, power)
        assert equal(z, center_z_pure_word(n).expand())


def test_center_is_central():
    for n in range(3, 7):
        z = center_z(n)
        for i in range(1, n):
            s = BraidWord.generator(n, i)
            assert equal(z * s, s * z)


def test_equal_oracle():
    assert equal(parse_braid_word("s1*s2*s1", 3), parse_braid_word("s2*s1*s2", 3))
    assert equal(parse_braid_word("s1*s3", 4), parse_braid_word("s3*s1", 4))
    assert not equal(parse_braid_word("s1", 3), parse_braid_word("s2", 3))
    with pytest.raises(RankError):
        equal(parse_braid_word("s1", 2), parse_braid_word("s1", 3))


def test_dynnikov_golden():
    # (n, Delta, z = Delta^2); neither is the start vector (0,1, ..., 0,1)
    golden = [
        (2, (1, 0, 0, 2), (1, -1, 0, 3)),
        (3, (2, 0, 1, 0, 0, 3), (2, -2, 1, 0, 0, 5)),
        (4, (3, 0, 2, 0, 1, 0, 0, 4), (3, -3, 2, 0, 1, 0, 0, 7)),
        (5, (4, 0, 3, 0, 2, 0, 1, 0, 0, 5), (4, -4, 3, 0, 2, 0, 1, 0, 0, 9)),
        (6, (5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0, 6), (5, -5, 4, 0, 3, 0, 2, 0, 1, 0, 0, 11)),
        (7, (6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0, 7),
         (6, -6, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0, 13)),
    ]
    for n, half, full in golden:
        assert dynnikov(BraidWord.identity(n)) == (0, 1) * n
        assert dynnikov(delta(n)) == half
        assert dynnikov(center_z(n)) == full
    w = random_reduced_word(5, 1000, random.Random(1000))
    assert len(w.letters) == 1000
    assert dynnikov(w) == (
        4,
        -2854266523247559180716777839250099751685298194636254630860157675,
        2854266523247559180716777839250099751685298194636254630860157661,
        -12721388625559889274901515670274343393631531253994437689884525560,
        -3247063072636100829794090255751807387251085702517914492238098117,
        12177237531062063130900737883012710801777798509871633828390352881,
        -2899272771823214689064499619912381357649873861594857534495885861,
        498175058876954083155084004083402338130167147588219396558183928,
        0,
        2900242558868431241562471622428330005408863791170839095796146431,
    )


def test_relation_soundness_all_indices():
    for n in range(2, 7):
        for i in range(1, n - 1):
            u = BraidWord(n, ((i, 1), (i + 1, 1), (i, 1)))
            v = BraidWord(n, ((i + 1, 1), (i, 1), (i + 1, 1)))
            assert equal(u, v)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert equal(
                    BraidWord(n, ((i, 1), (j, 1))), BraidWord(n, ((j, 1), (i, 1)))
                )


def test_garside_examples():
    assert garside_normal_form(parse_braid_word("s1*s1^-1", 3)) == GarsideForm(3, 0, ())
    assert garside_normal_form(parse_braid_word("s1*s2*s1", 3)) == GarsideForm(3, 1, ())
    form = garside_normal_form(parse_braid_word("s1^-1", 3))
    assert form.power == -1 and len(form.factors) == 1
    # cross-check the inverse-letter conversion against the Dynnikov decision
    assert equal(form.as_braid_word(), parse_braid_word("s1^-1", 3))
    # exact forms, pinned so that a rewrite of the engine cannot change them
    golden = [
        (4, "s1^-1*s3*s1^-1*s3^-2*s1*s3*s1^-3*s3^-1*s1^-1",
         "D^-5 * (s1*s2*s3*s1*s2) * (s2*s3*s1*s2*s1) * (s1*s2*s3*s1*s2)"
         " * (s2*s3*s1*s2*s1) * (s2*s3*s1*s2)"),
        (4, "s1*s2*s1*s3*s2*s1*s2*s3^-1*s1", "D^0 * (s2*s3*s2*s1) * (s3*s2*s1)"),
        (6, "s3^-2*s5*s3*s5^-1*s3^-1*s2^-1*s1^-1*s3^-1*s1^-1*s5^-1*s4^-2*s5",
         "D^-3 * (s1*s2*s3*s4*s5*s1*s2*s3*s4*s2*s3*s1*s2*s1) * (s4*s5*s1*s2*s3*s4*s2*s3*s1)"
         " * (s1*s2*s3*s4*s5*s2*s3*s4*s1*s2*s3*s1*s2) * (s5)"),
        (6, str(center_z(6) * parse_braid_word("s5^-1*s2*s4", 6)),
         "D^1 * (s2*s3*s4*s5*s1*s2*s3*s4*s1*s2*s3*s1*s2*s1) * (s4*s2)"),
        (8, "s5*s7^2*s4^2*s7*s6^-3*s5^-1*s6^-1*s5^-1*s7^-1*s4*s3^-1*s1*s2^-1*s7^-1",
         "D^-4 * (s1*s2*s3*s4*s5*s6*s7*s1*s2*s3*s4*s5*s6*s1*s2*s3*s4*s5*s1*s2*s3*s4*s3*s1)"
         " * (s1*s2*s3*s4*s5*s6*s7*s2*s3*s4*s5*s6*s2*s3*s4*s5*s1*s2*s3*s4*s1*s2*s3*s1*s2*s1)"
         " * (s1*s2*s3*s4*s5*s6*s7*s1*s2*s3*s4*s5*s6*s1*s2*s3*s4*s5*s3*s4*s3*s2*s1)"
         " * (s6*s7*s6*s4*s3*s1) * (s6*s1*s2*s3*s4*s5*s2*s3*s4*s3*s2*s1)"
         " * (s4*s5*s6*s7*s3*s4*s3*s2) * (s4*s5*s6*s7*s3*s4*s5*s6*s2*s3*s4)"),
    ]
    for n, word, expected in golden:
        assert str(garside_normal_form(parse_braid_word(word, n))) == expected


def _longest(n: int) -> Permutation:
    return Permutation(tuple(range(n, 0, -1)))


def _right_descents(p: Permutation) -> set[int]:
    """Indices i with p(i) > p(i+1); the left descents of p are those of p^-1."""
    return {i for i in range(1, p.size) if p(i) > p(i + 1)}


def _garside_inputs():
    """Seeded words: short random ones first, so that a broken sweep fails
    fast; then ones with Delta^{+-k} and z^{+-1} put in at seeded places, long
    same-sign runs and runs that are a whole Delta; then Delta^k s1 z^k."""
    rng = random.Random(7)
    yield BraidWord(1)
    for _ in range(60):
        n = rng.randint(2, 8)
        yield random_braid_word(n, rng.randint(0, 60), rng)
    for _ in range(60):
        n = rng.randint(2, 8)
        d = delta(n)
        other = BraidWord(n, tuple((i, 1) for i in _longest(n).reduced_word()))
        pieces = [d, d.inverse(), d ** 2, d ** -3, center_z(n), center_z(n).inverse(), other,
                  other.inverse()]
        letters = list(random_braid_word(n, rng.randint(0, 40), rng).letters)
        for _ in range(rng.randint(1, 4)):
            sign = rng.choice((1, -1))
            run = BraidWord(n, tuple((rng.randint(1, n - 1), sign) for _ in range(3 * n)))
            cut = rng.randint(0, len(letters))
            letters[cut:cut] = rng.choice(pieces + [run]).letters
        yield BraidWord(n, tuple(letters))
    for n in range(2, 8):
        for k in range(-3, 4):
            yield delta(n) ** k * BraidWord.generator(n, 1) * center_z(n) ** k


def test_garside_canonical_form_properties():
    for w in _garside_inputs():
        form = garside_normal_form(w)
        w0 = _longest(w.strands)
        for p in form.factors:
            assert not p.is_identity and p != w0
        for a, b in zip(form.factors, form.factors[1:]):
            assert _right_descents(b.inverse()) <= _right_descents(a)  # left-weighted
        assert equal(form.as_braid_word(), w)


# Long forms of random_reduced_word(n, L, random.Random(0)), pinned by power,
# factor count and the sha256 of their text.
GARSIDE_GOLDEN_LONG = [
    (4, 640, -115, 240, "3eae81adea7303ecc6f0f6fb8a3c11b4793b118a6867079992e8b9898eb9839c"),
    (8, 640, -55, 114, "aee7ac28ce5fa0450614eaf85d8aea7b450207567ef1d2675695a8cd2e870810"),
    (12, 640, -35, 70, "7ae2679ce7d784799a6118b3d7ae9456f26c27509608a79532bec5f2c7cac4a6"),
    (4, 2560, -477, 961, "e4799d9a5000aeffdf0b84a0bfbfbf1a6e2736e7b5399c9af84b803e70d1ccc3"),
    (8, 2560, -220, 454, "5e299fa0de180684deb97b24b6413acd576c1f02c3ae34460c09f17b34b7ebeb"),
    (12, 2560, -148, 305, "18470261f45b6e73c03b6a88feb6cd4d1a405b4e5729de7e5753253d287cb346"),
]


@pytest.mark.parametrize("n, length, power, count, digest", GARSIDE_GOLDEN_LONG)
def test_garside_golden_long(n, length, power, count, digest):
    form = garside_normal_form(random_reduced_word(n, length, random.Random(0)))
    assert (form.power, len(form.factors)) == (power, count)
    assert hashlib.sha256(str(form).encode()).hexdigest() == digest


def test_oracle_agreement_sample():
    rng = random.Random(41)
    for t in range(120):
        n = rng.randint(2, 5)
        if t % 2 == 0:
            a = random_braid_word(n, rng.randint(0, 30), rng)
            b = random_braid_word(n, rng.randint(0, 30), rng)
        else:
            a, b = random_equal_pair(n, 30, rng)
        assert equal(a, b) == (garside_normal_form(a) == garside_normal_form(b))


def test_rewrite_pure_examples():
    assert rewrite_pure(parse_braid_word("s1^2", 2)) == parse_pure_word("a(1,2)", 2)
    assert rewrite_pure(parse_braid_word("s2*s1^2*s2^-1", 3)) == parse_pure_word(
        "a(1,3)", 3
    )
    w = parse_braid_word("s1*s2^2*s1^-1", 3)
    aw = rewrite_pure(w)
    assert equal(aw.expand(), w)
    with pytest.raises(ValueError):
        rewrite_pure(parse_braid_word("s1", 3))


def test_rewrite_pure_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 4)
        w = random_pure_braid_word(n, 16, rng)
        assert is_pure(w)
        aw = rewrite_pure(w)
        assert equal(aw.expand(), w)


# Pinned output of rewrite_pure on the pure words
# random_pure_braid_word(n, 40, random.Random(n)): the rewrite is deterministic,
# and these strings hold its exact letters, not only its value in the group.
REWRITE_GOLDEN = [
    (
        4,
        's1^-2*s2*s3^-1*s1*s3^-1*s2*s3^-1*s2*s1^-1*s2^-2*s1^-2*s2^-1*s3^-1*'
        's2^-1*s1*s2^-1*s3^-3',
        'a(3,4)^-1*a(1,4)*a(2,4)^-1*a(1,4)^-1*a(2,4)*a(1,4)^-1*a(3,4)^-1*'
        'a(1,4)*a(3,4)^-1*a(1,4)*a(2,4)^-1*a(1,4)^-1*a(1,3)*a(2,3)^-1*'
        'a(1,3)^-1*a(1,2)^-1',
    ),
    (
        5,
        's3^-1*s1^-1*s2^2*s3^-1*s2^-1*s1^2*s4^-1*s1*s2^2*s3^-1*s2^2*s4^-1*'
        's1^-1*s4*s2^-1*s1^-1*s3*s4^-1*s1*s2*s3*s4*s3*s1',
        'a(4,5)^-1*a(3,5)^-1*a(2,5)^-1*a(3,5)*a(4,5)*a(3,5)^-1*a(4,5)^-1*'
        'a(3,5)^-1*a(2,5)^-1*a(3,5)*a(4,5)*a(3,5)*a(4,5)^-1*a(3,5)^-1*a(2,5)*'
        'a(3,5)*a(4,5)*a(3,5)*a(4,5)^-1*a(3,5)^-1*a(1,5)^-1*a(3,5)*a(4,5)^-1*'
        'a(3,5)^-1*a(1,5)^-1*a(3,5)*a(4,5)*a(3,5)^-1*a(1,5)*a(3,5)*a(4,5)*'
        'a(3,5)^-1*a(4,5)^-1*a(3,5)^-1*a(2,5)^-1*a(3,5)*a(4,5)*a(3,5)^-1*'
        'a(4,5)^-1*a(3,5)^-1*a(2,5)*a(3,5)*a(4,5)*a(3,5)*a(4,5)^-1*a(3,5)^-1*'
        'a(2,5)*a(3,5)*a(4,5)*a(3,5)*a(4,5)^-1*a(3,5)^-1*a(1,5)^-1*a(3,5)*'
        'a(4,5)^-1*a(3,5)^-1*a(1,5)*a(3,5)*a(4,5)*a(3,5)^-1*a(1,5)*a(3,5)*'
        'a(4,5)*a(3,5)^-1*a(4,5)^-1*a(3,5)^-1*a(2,5)^-1*a(3,5)*a(4,5)*'
        'a(3,5)^-1*a(4,5)^-1*a(3,5)^-1*a(2,5)*a(3,5)*a(4,5)*a(3,5)*a(4,5)^-1*'
        'a(3,5)^-1*a(2,5)*a(3,5)*a(4,5)*a(3,4)^-1*a(1,4)*a(2,3)*a(1,3)^-1*'
        'a(2,3)^-1*a(1,3)*a(2,3)*a(1,2)',
    ),
    (
        6,
        's5*s4^-1*s1*s2^-1*s3^-1*s1^-1*s4^2*s2^-1*s5*s4^-1*s1^-1*s2^-1*s1*s5*'
        's3^-1*s2*s3*s5^-1*s3^-1*s5*s3*s4*s5*s2*s3*s4*s3*s2*s1',
        'a(5,6)*a(4,5)^-1*a(2,5)^-1*a(1,5)^-1*a(2,5)*a(4,5)*a(2,5)^-1*a(1,5)*'
        'a(2,5)*a(4,5)*a(2,4)^-1*a(1,4)^2*a(2,4)*a(2,3)^-1*a(1,3)^-1*a(2,3)^-1*'
        'a(1,3)*a(2,3)*a(1,2)',
    ),
]


def test_rewrite_pure_golden():
    for n, word, expected in REWRITE_GOLDEN:
        assert str(rewrite_pure(parse_braid_word(word, n))) == expected


# Combed forms that run to thousands of letters, pinned by letter count and the
# sha256 of their text: rewrite_pure of random_pure_braid_word(n, 120,
# random.Random(0)).
REWRITE_GOLDEN_LONG = [
    (4, 3307, "433f2b708fde5ff03ca0ed46eff577a1f1d8b62141d5de91d92620a3a95b43fd"),
    (5, 7107, "358152305488987916afc58c30670ad3b4563042196357429121adbea90df5b5"),
    (6, 7646, "01765d1e501bc6ba74b433243280cf9f66617e74b5a6ec35a00843e40c49f68b"),
]


@pytest.mark.parametrize("n, letters, digest", REWRITE_GOLDEN_LONG)
def test_rewrite_pure_golden_long(n, letters, digest):
    aw = rewrite_pure(random_pure_braid_word(n, 120, random.Random(0)))
    assert sum(abs(e) for _, e in aw.letters) == letters
    assert hashlib.sha256(str(aw).encode()).hexdigest() == digest


def _exponent_sums(w: PureWord) -> dict[tuple[int, int], int]:
    n = w.strands
    sums = {(p, q): 0 for q in range(2, n + 1) for p in range(1, q)}
    for pair, exp in w.letters:
        sums[pair] += exp
    return sums


def test_linking_numbers_examples():
    assert linking_numbers(parse_braid_word("s1^2", 2)) == {(1, 2): 1}
    assert linking_numbers(parse_braid_word("s1^-4", 3)) == {(1, 2): -2, (1, 3): 0, (2, 3): 0}
    # a(1,3) = s2 s1^2 s2^-1 links strands 1 and 3 only
    assert linking_numbers(pure_generator(1, 3, 3)) == {(1, 2): 0, (1, 3): 1, (2, 3): 0}
    assert linking_numbers(BraidWord.identity(4)) == {
        (p, q): 0 for q in range(2, 5) for p in range(1, q)
    }
    for n in (2, 3, 4, 6):
        assert set(linking_numbers(center_z(n)).values()) == {1}
        assert set(linking_numbers(center_z(n) ** -3).values()) == {-3}
    for text in ("s1", "s1*s2", "s1^2*s2^3"):
        with pytest.raises(ValueError, match="braid word is not pure"):
            linking_numbers(parse_braid_word(text, 3))


def test_linking_numbers_are_rewrite_exponent_sums():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 5)
        w = random_pure_braid_word(n, rng.randint(0, 24), rng)
        assert linking_numbers(w) == _exponent_sums(rewrite_pure(w))


def test_embed():
    assert embed(parse_braid_word("s1", 2), 3) == parse_braid_word("s1", 3)
    assert embed(BraidWord.identity(2), 4).is_trivial_word
    with pytest.raises(RankError):
        embed(parse_braid_word("s1*s2", 3), 2)
    z3 = embed(center_z(3), 4)
    assert not equal(z3, center_z(4))


def test_embedding_preserves_equality():
    rng = random.Random(4)
    for _ in range(25):
        a, b = random_equal_pair(3, 18, rng)
        assert equal(embed(a, 5), embed(b, 5))


def test_p3_image():
    free, central = p3_image(center_z_pure_word(3))
    assert free.is_identity and central == 1
    v1, v2 = FreeWord.generator(2, 1), FreeWord.generator(2, 2)
    free, central = p3_image(parse_pure_word("a(1,3)", 3))
    assert free == v1 and central == 0
    free, central = p3_image(parse_pure_word("a(2,3)", 3))
    assert free == v2 and central == 0
    free, central = p3_image(parse_pure_word("a(1,2)", 3))
    assert free == (v1 * v2).inverse() and central == 1
    with pytest.raises(RankError):
        p3_image(parse_pure_word("a(1,2)", 4))


def test_p3_image_is_homomorphism():
    rng = random.Random(77)
    pairs = [(1, 2), (1, 3), (2, 3)]
    for _ in range(40):
        u = PureWord(3, tuple((rng.choice(pairs), rng.choice((1, -1))) for _ in range(5)))
        v = PureWord(3, tuple((rng.choice(pairs), rng.choice((1, -1))) for _ in range(5)))
        fu, cu = p3_image(u)
        fv, cv = p3_image(v)
        fuv, cuv = p3_image(u * v)
        assert fuv == fu * fv and cuv == cu + cv


def test_braid_word_parsing():
    for text in ("e", "s1", "s1*s2^-1*s1^2", "s3^-2"):
        assert str(parse_braid_word(text, 4)) == text
    assert parse_braid_word("s1^+2 * s2", 3) == parse_braid_word("s1^2*s2", 3)
    with pytest.raises(ParseError):
        parse_braid_word("t1", 3)
    # a generator out of range is refused even when it cancels or has exponent 0
    for text in ("s3", "s5*s5^-1", "s5^0", "s1*s3^2*s3^-2"):
        with pytest.raises(RankError):
            parse_braid_word(text, 3)


def test_pure_word_parsing():
    for text in ("e", "a(1,3)^-1*a(2,3)", "a(1,2)^2"):
        assert str(parse_pure_word(text, 3)) == text
    assert parse_pure_word("a( 1 , 3 )^+2", 3) == parse_pure_word("a(1,3)^2", 3)
    with pytest.raises(ParseError):
        parse_pure_word("a(1;2)", 3)
    for text in ("a(2,2)", "a(1,4)*a(1,4)^-1", "a(1,4)^0", "a(3,2)^0", "a(0,1)*a(0,1)^-1"):
        with pytest.raises(RankError):
            parse_pure_word(text, 3)
    for letters in ((((1, 4), 1), ((1, 4), -1)), (((1, 4), 0),), (((2.0, 5), 0),)):
        with pytest.raises(RankError):
            PureWord(3, letters)
    # numbers are read by int(); a zero exponent and cancelling pairs drop out
    assert PureWord(3, ((("1", 2.0), "2"), ((2, 3), 0), ((1, 2), -2))).letters == ()
    assert (parse_pure_word("a(1,2)", 3) * parse_pure_word("a(1,2)^-1", 3)).letters == ()


def test_free_reduction_on_construction():
    w = BraidWord(3, ((1, 1), (1, -1), (2, 1)))
    assert w == parse_braid_word("s2", 3)
    assert parse_braid_word("s1^3", 2).letters == ((1, 1), (1, 1), (1, 1))
    # runs cancel before they are expanded; a longer word than the cap is refused
    assert BraidWord(2, ((1, 10**9), (1, -10**9))).letters == ()
    with pytest.raises(ParseError):
        BraidWord(3, ((1, 10**9),))
    # letters are range-checked before they are reduced
    for word in (BraidWord, FreeWord):
        for letters in (((5, 1), (5, -1)), ((5, 0),), ((0, 2), (0, -2)), ((1, 1), (7, 0))):
            with pytest.raises(RankError):
                word(3, letters)
    assert FreeWord(3, [[1, 2], [3, 0], [1, -2]]).letters == ()
