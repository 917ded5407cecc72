"""Braid words, word-problem oracles, distinguished elements, and rewriting.

A :class:`BraidWord` is a word in the generators ``s1, ..., s_{n-1}`` of the
braid group on n strands, stored as its runs ``(i, e)``, each ``s_i^e``.
Free reduction (cancelling ``s_i s_i^-1``) is applied eagerly on
construction; no other relation is, so structural equality of words is *not*
group equality.  Braid and a-alphabet words are the word type of
:mod:`braidphase.freegroup`; algorithms that go a letter at a time read
``BraidWord.units``, the word spelled out as letters ``(i, +-1)``.
:func:`equal` decides the word problem by comparing :func:`dynnikov`
coordinates, integer vectors built in polynomial time.  The cross-check is
:func:`garside_normal_form`, the left-greedy canonical form
``Delta^p A_1 ... A_k`` (factors are permutation braids), built in one pass
that appends each same-sign run as one factor: words are equal exactly when
their forms coincide.  Artin's action (:mod:`braidphase.artin`) is checked
for faithfulness against Garside, in ``verify``, and decides nothing here.
Which pure braids act by inner automorphisms is decided beside
:func:`equal`: only the central powers ``z^k`` do (:func:`is_inner_for_pure`),
and the ``inner-witness`` check confirms each answer through the action.

The module also builds the standard pure-braid generators

    a_{i,j} = s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1,

the half twist ``Delta`` and the full twist ``z = Delta^2``, and rewrites an
arbitrary pure word into the ``a_{i,j}`` alphabet by coset rewriting along a
tower of point-stabilizer subgroups (see :func:`rewrite_pure`, the canonical
form of ``P_n``).  Where only the abelianization of ``P_n`` matters,
:func:`linking_numbers` gives its coordinates in one pass without rewriting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from . import artin
from .errors import ParseError, RankError
from .freegroup import FreeWord, _parse_word, _reduce, _Word

__all__ = [
    "Permutation",
    "BraidWord",
    "GarsideForm",
    "PureWord",
    "permutation_of",
    "is_pure",
    "pure_generator",
    "delta",
    "defining_relations",
    "center_z",
    "center_z_pure_word",
    "dynnikov",
    "equal",
    "is_inner_for_pure",
    "garside_normal_form",
    "rewrite_pure",
    "linking_numbers",
    "embed",
    "p3_image",
    "parse_braid_word",
    "parse_pure_word",
    "random_braid_word",
    "random_reduced_word",
    "random_pure_braid_word",
    "random_equal_pair",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n}; image[i-1] is the image of i.

    Multiplication is composition of functions: (p * q)(i) = p(q(i)).
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.image}")

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.image[j - 1] for j in other.image))

    def inverse(self) -> Permutation:
        return Permutation(tuple(_inverse(self.image)))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def reduced_word(self) -> tuple[int, ...]:
        """A deterministic reduced word whose left-to-right product is self."""
        # cut the smallest right descent i off (p -> p s_i); none is left below i - 1
        word: list[int] = []
        p, i = list(self.image), 1
        while i < len(p):
            if p[i - 1] > p[i]:
                p[i - 1], p[i] = p[i], p[i - 1]
                word.append(i)
                i = max(1, i - 1)
            else:
                i += 1
        return tuple(reversed(word))


# Letters a braid word may spell out after free reduction, the sum of |e| over
# its runs; past it the constructor raises ParseError, so that a short input
# such as s1^1000000000 never reaches the letter-at-a-time algorithms.
MAX_BRAID_LETTERS = 1_000_000


@dataclass(frozen=True, repr=False)
class BraidWord(_Word):
    """A freely reduced word in the braid generators on ``strands`` strands.

    ``letters`` holds the reduced runs ``(i, e)``, each ``s_i^e``, and
    structural equality compares them; group equality is :func:`equal`.
    ``units`` spells the word out one letter at a time.  A word may spell
    out at most :data:`MAX_BRAID_LETTERS` letters.
    """

    _letter, _size = "s", "strands"
    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise RankError(f"strand count must be positive, got {self.strands}")
        letters = [tuple(letter) for letter in self.letters]
        for i, _ in letters:
            if not 1 <= i <= self.strands - 1:
                raise RankError(f"generator s{i} out of range for {self.strands} strands")
        runs = _reduce(letters)
        if sum(abs(e) for _, e in runs) > MAX_BRAID_LETTERS:
            raise ParseError(f"braid word longer than {MAX_BRAID_LETTERS} letters")
        object.__setattr__(self, "letters", runs)

    @cached_property
    def units(self) -> tuple[tuple[int, int], ...]:
        """The word one letter at a time: each run s_i^e as |e| letters (i, +-1)."""
        out: list[tuple[int, int]] = []
        for run in self.letters:
            i, e = run
            out += (run,) if e == 1 or e == -1 else ((i, 1 if e > 0 else -1),) * abs(e)
        return tuple(out)

    @classmethod
    def generator(cls, strands: int, i: int, sign: int = 1) -> BraidWord:
        return cls(strands, ((i, sign),))


def permutation_of(b: BraidWord) -> Permutation:
    """Image of the braid under the surjection onto the symmetric group."""
    image = list(range(1, b.strands + 1))
    for i, e in b.letters:
        if e % 2:  # a run swaps its two strands when e is odd
            image[i - 1], image[i] = image[i], image[i - 1]
    return Permutation(tuple(image))


def is_pure(b: BraidWord) -> bool:
    """True iff the braid lies in the kernel of the symmetric-group map."""
    return permutation_of(b).is_identity


def pure_generator(i: int, j: int, n: int) -> BraidWord:
    """The pure braid a_{i,j} = s_{j-1}...s_{i+1} s_i^2 s_{i+1}^-1...s_{j-1}^-1."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    pre = [(k, 1) for k in range(j - 1, i, -1)]
    post = [(k, -1) for k in range(i + 1, j)]
    return BraidWord(n, tuple(pre) + ((i, 1), (i, 1)) + tuple(post))


def delta(n: int) -> BraidWord:
    """The half twist Delta = s1 (s2 s1) ... (s_{n-1} ... s1)."""
    letters = [(i, 1) for k in range(1, n) for i in range(k, 0, -1)]
    return BraidWord(n, tuple(letters))


def defining_relations(n: int) -> list[tuple[str, str, BraidWord, BraidWord]]:
    """The defining relations of B_n as (kind, indices, left, right):
    ``braid-pair`` s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and ``comm-pair``
    s_i s_j = s_j s_i for j >= i + 2."""
    out = []
    for i in range(1, n - 1):
        left, right = ((i, 1), (i + 1, 1), (i, 1)), ((i + 1, 1), (i, 1), (i + 1, 1))
        out.append(("braid-pair", f"i={i}", BraidWord(n, left), BraidWord(n, right)))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            left, right = ((i, 1), (j, 1)), ((j, 1), (i, 1))
            out.append(("comm-pair", f"i={i},j={j}", BraidWord(n, left), BraidWord(n, right)))
    return out


def center_z(n: int) -> BraidWord:
    """The full twist z = Delta^2, the standard central element."""
    return delta(n) * delta(n)


def dynnikov(b: BraidWord) -> tuple[int, ...]:
    """Dynnikov coordinates: the vector of Z^{2n} that the letters of ``b``,
    read left to right, make of (0,1, 0,1, ..., 0,1).  The start vector has
    trivial stabiliser (Dynnikov 2002; Dehornoy 2008, "Efficient solutions to
    the braid isotopy problem"), so words are equal exactly when their
    coordinates are.  Each letter adds O(1) bits: O(L^2) bit operations.
    """
    c = [0, 1] * b.strands
    for i, sign in b.units:
        k = 2 * i - 2
        a1, b1, a2, b2 = c[k : k + 4]
        if sign < 0:  # s_i^-1 is s_i conjugated by negating every a_j
            a1, a2 = -a1, -a2
        # s_i, with x+ = max(x, 0), x- = min(x, 0), t = a1 - b1- - a2 + b2+:
        # (a1 + b1+ + (b2+ - t)+, b2 - t+, a2 + b2- + (b1- + t)-, b1 + t+)
        p1 = b1 if b1 > 0 else 0
        p2 = b2 if b2 > 0 else 0
        t = a1 - (b1 - p1) - a2 + p2
        tp, u, v = (t if t > 0 else 0), p2 - t, b1 - p1 + t
        a1, a2 = a1 + p1 + (u if u > 0 else 0), a2 + b2 - p2 + (v if v < 0 else 0)
        if sign < 0:
            a1, a2 = -a1, -a2
        c[k : k + 4] = (a1, b2 - tp, a2, b1 + tp)
    return tuple(c)


def equal(a: BraidWord, b: BraidWord) -> bool:
    """Group equality, decided by Dynnikov coordinates.  The words are never
    multiplied, so two words each under the letter cap always compare."""
    a._check(b)
    return dynnikov(a) == dynnikov(b)


def is_inner_for_pure(b: BraidWord) -> FreeWord | None:
    """The w with auto(b)(y) = w^-1 * y * w for all y, or None if there is none.

    The kernel of B_n -> Out(F_n) is <z>, z = Delta^2, the centre of B_n from
    three strands on (Birman 1974; Farb-Margalit 2012), so auto(b) is inner
    exactly when b = z^k, and z^k conjugates by (x1...xn)^k.  The exponent
    sum of z^k is n(n-1)k, so the exponent sum of b fixes k, and
    :func:`equal` decides b = z^k.  A None result is therefore a proof
    that no witness exists.  For n >= 2 the witness is unique, since F_n has
    trivial centre; on one strand the identity is returned.
    """
    if not is_pure(b):
        raise RankError("braid word is not pure")
    n = b.strands
    if n == 1:
        return FreeWord.identity(1)
    k, rest = divmod(sum(e for _, e in b.letters), n * (n - 1))
    if rest or not equal(b, center_z(n) ** k):
        return None
    return FreeWord(n, tuple((i, 1) for i in range(1, n + 1))) ** k


def embed(b: BraidWord, strands: int) -> BraidWord:
    """The same word viewed in a braid group on more strands."""
    if strands < b.strands:
        raise RankError(f"cannot embed {b.strands} strands into {strands}")
    return BraidWord(strands, b.letters)


# ---------------------------------------------------------------------------
# Garside left normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GarsideForm:
    """Left normal form Delta^power A_1 ... A_k.

    Factors are permutation braids recorded by their permutations, none of
    them trivial or the half twist, and each adjacent pair is left-weighted.
    Two braid words are equal exactly when their forms are equal.
    """

    strands: int
    power: int
    factors: tuple[Permutation, ...]

    def as_braid_word(self) -> BraidWord:
        positive = tuple((i, 1) for p in self.factors for i in p.reduced_word())
        twist = (delta(self.strands) ** self.power).letters if self.power else ()
        return BraidWord(self.strands, twist + positive)

    def __str__(self) -> str:
        out = f"D^{self.power}"
        for p in self.factors:
            out += " * (" + "*".join(f"s{i}" for i in p.reduced_word()) + ")"
        return out


def _inverse(image: tuple[int, ...] | list[int]) -> list[int]:
    inv = [0] * len(image)
    for i, v in enumerate(image, start=1):
        inv[v - 1] = i
    return inv


def _weight_pair(a: tuple[int, ...], b: tuple[int, ...]):
    """Left-weight two permutation braids a b, or None if they already are:
    while b starts with an s_j that a does not end with, move s_j from b onto a.
    b starts with s_j when j is a right descent of q, b's inverse.  p and q are
    1-based; their sentinels make j = 0, reached after a move at 1, unmovable.
    A move at j settles j and can only unsettle j-1 and j+1, so one sweep,
    lowest j first, steps back one place after each move."""
    n = len(a)
    p, q = [n + 1, *a], [0, *_inverse(b)]
    j, moved = 1, False
    while j < n:
        if q[j] > q[j + 1] and p[j] < p[j + 1]:
            p[j], p[j + 1], q[j], q[j + 1] = p[j + 1], p[j], q[j + 1], q[j]
            j, moved = j - 1, True
        else:
            j += 1
    return (tuple(p[1:]), tuple(_inverse(q[1:]))) if moved else None


def _tau(f: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by Delta, s_j -> s_{n-j}, on an image: k -> n+1-f(n+1-k)."""
    return tuple(len(f) + 1 - v for v in reversed(f))


def garside_normal_form(b: BraidWord) -> GarsideForm:
    """Canonical left normal form, and the cross-check of :func:`equal`.

    One pass reads the word as maximal same-sign runs that are permutation
    braids, at O(n) a run: a positive one grows while s_i is not a right
    descent of its image, a negative A^-1 = Delta^-1 (Delta A^-1) while i is
    a descent of Delta A^-1, whose image starts at w0.  Each run is a factor,
    left-weighted in from the right end while pairs change (El-Rifai & Morton
    1994; Epstein et al. 1992, ch. 9).  Actual factors are tau^power of the
    stored ones, tau being conjugation by Delta, so a Delta^-1, or a Delta the
    sweep makes, moves to the front in O(1) plus tau of the visited factors.
    """
    n = b.strands
    identity, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    factors: list[tuple[int, ...]] = []
    power, sign, run = 0, None, []
    for i, e in (*b.units, (0, 0)):  # (0, 0) ends the last run
        j = n - i if power % 2 else i
        if e != sign or (run[j - 1] > run[j]) == (e > 0):  # s_j would end the run
            if sign:
                factors.append(tuple(run))
                t = len(factors) - 1
                while factors[t] != w0 and t and (pair := _weight_pair(*factors[t - 1 : t + 1])):
                    factors[t - 1 : t + 1] = pair
                    t -= 1
                if factors[t] == w0:
                    del factors[t]
                    factors[t:], power = map(_tau, factors[t:]), power + 1
                if factors[-1:] == [identity]:
                    factors.pop()
            if not e:
                break
            sign, power = e, power - (e < 0)
            run = list(identity if e > 0 else w0)
            j = n - i if power % 2 else i
        run[j - 1], run[j] = run[j], run[j - 1]
    return GarsideForm(n, power, tuple(Permutation(_tau(f) if power % 2 else f) for f in factors))


# ---------------------------------------------------------------------------
# The a_{i,j} alphabet and pure-braid rewriting
# ---------------------------------------------------------------------------

def _pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (i, j) of the a_{i,j} in column order a12, a13, a23, a14, ..."""
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


def _pair_index(i: int, j: int) -> int:
    """Position of (i, j) in :func:`_pairs`, in closed form."""
    return (j - 1) * (j - 2) // 2 + i - 1


@dataclass(frozen=True, repr=False)
class PureWord(_Word):
    """A word in the pure-braid generators a_{i,j}, 1 <= i < j <= strands."""

    _letter, _size = "a", "strands"
    strands: int
    letters: tuple[tuple[tuple[int, int], int], ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise RankError(f"strand count must be positive, got {self.strands}")
        letters = [((int(pair[0]), int(pair[1])), int(exp)) for pair, exp in self.letters]
        for (i, j), _ in letters:
            if not 1 <= i < j <= self.strands:
                raise RankError(f"a({i},{j}) out of range for {self.strands} strands")
        object.__setattr__(self, "letters", _reduce(letters))

    def expand(self) -> BraidWord:
        """Substitute each a_{i,j} by its defining braid word."""
        letters: list[tuple[int, int]] = []
        for (i, j), exp in self.letters:
            gen = pure_generator(i, j, self.strands)
            word = gen if exp > 0 else gen.inverse()
            letters.extend(word.letters * abs(exp))
        return BraidWord(self.strands, tuple(letters))


def center_z_pure_word(n: int) -> PureWord:
    """z written in the a-alphabet: a12 (a13 a23) ... (a1n ... a_{n-1,n})."""
    return PureWord(n, tuple((pair, 1) for pair in _pairs(n)))


def _annular_split(b: BraidWord) -> tuple[FreeWord, BraidWord]:
    """Write a pure braid on m strands as (free part, braid on m-1 strands).

    The free part is the coordinate word of the kernel component in the
    splitting off of the last strand, with x_j standing for a_{j,m}; the
    braid part is the word with the last strand forgotten.  A coset scan
    records, left to right, the free letters e_k emitted and the braid
    letters beta_k that remain; the free part is then built right to left,
    in the Horner order e_0 . auto(beta_1)(e_1 . auto(beta_2)(e_2 ...)),
    with each stretch of emissions prepended at once and each stretch of
    braid letters applied as its runs s_i^e, one step per run.

    The cosets of the stabilizer of the last strand are indexed by the
    position p of the strand that ends at m, with shortest positive
    representatives r_p = s_{m-1} s_{m-2} ... s_p.  A positive s_i read in
    coset p emits the subgroup element r_p s_i r_{p'}^-1, p' the next coset,
    which is a_{i,m} when p = i, trivial when p = i+1, and otherwise the
    letter s_i becomes once the strand at p is forgotten: s_i of B_{m-1} when
    p > i+1, s_{i-1} when p < i.  A negative letter is the inverse of the
    positive one read in the coset it leads to.
    """
    m = b.strands
    steps: list[tuple[bool, int, int]] = []  # (is an emission, index, sign)
    p = m
    for i, sign in b.units:
        swapped = i + 1 if p == i else i if p == i + 1 else p
        q = p if sign == 1 else swapped
        if q != i + 1:
            steps.append((q == i, i if q >= i else i - 1, sign))
        p = swapped
    runs: tuple[tuple[int, int], ...] = ()
    for emitted, group in groupby(reversed(steps), key=lambda step: step[0]):
        letters = [(idx, sign) for _, idx, sign in group][::-1]
        if emitted:
            runs = _reduce(letters + list(runs))
        for idx, e in () if emitted else reversed(_reduce(letters)):  # braid runs
            runs = artin._substitute(runs, idx, e)
    braid_letters = tuple((idx, sign) for emitted, idx, sign in steps if not emitted)
    return FreeWord(m - 1, runs), BraidWord(m - 1, braid_letters)


def rewrite_pure(b: BraidWord) -> PureWord:
    """Rewrite a pure braid word into the a_{i,j} alphabet.

    Strands are split off one at a time: at each level the word is rewritten
    along the coset transversal of the subgroup fixing the last strand, which
    separates a free-group coordinate (letters a_{*,m}) from the image with
    that strand forgotten.  Expanding the result yields a braid equal to the
    input (checked by the equality oracle in the test suite), not necessarily
    the same word.

    Each free part is one word built right to left in the Horner order of
    :func:`_annular_split`, one step per braid run, never from all
    generator images.  The output
    can still be exponentially longer than the input: the action of the
    remaining braid grows words exponentially in the word length L (one
    measured n = 4 word of 86 letters combs to 18,598 letters).
    """
    if not is_pure(b):
        raise RankError("braid word is not pure")
    out: list[tuple[tuple[int, int], int]] = []
    current = b
    for m in range(b.strands, 1, -1):
        free, current = _annular_split(current)
        out.extend(((j, m), e) for j, e in free.letters)
    return PureWord(b.strands, tuple(out))


def linking_numbers(b: BraidWord) -> dict[tuple[int, int], int]:
    """Pairwise linking numbers lk(p, q), 1 <= p < q <= n, of a pure braid.

    Strands are labelled by their starting position, and lk(p, q) is half
    the signed count of crossings between strands p and q.  These are the
    coordinates of the abelianization H_1(P_n) = Z^{n(n-1)/2}: lk(p, q) is
    the exponent sum of a_{p,q} in any a-alphabet word for the braid, such as
    :func:`rewrite_pure`'s.  One pass over the runs of the word.
    """
    n = b.strands
    start = list(range(1, n + 1))
    strand = start.copy()  # label of the strand at each position
    crossings = dict.fromkeys(_pairs(n), 0)
    for i, e in b.letters:  # a run s_i^e makes e crossings of the same two strands
        p, q = strand[i - 1], strand[i]
        crossings[(p, q) if p < q else (q, p)] += e
        if e % 2:
            strand[i - 1], strand[i] = q, p
    if strand != start:
        raise RankError("braid word is not pure")
    return {pair: count // 2 for pair, count in crossings.items()}


def p3_image(w: PureWord) -> tuple[FreeWord, int]:
    """Image of a 3-strand pure word under the splitting P_3 = F_2 x Z.

    The direct factors are generated by v1 = a13, v2 = a23 (the free part)
    and the central full twist u, with a12 mapping to (v1 v2)^-1 u.  Returns
    (free component, exponent of u).
    """
    if w.strands != 3:
        raise RankError("the direct-product splitting is for 3 strands")
    v1 = FreeWord.generator(2, 1)
    v2 = FreeWord.generator(2, 2)
    a12_free = (v1 * v2).inverse()
    free = FreeWord.identity(2)
    central = 0
    for pair, exp in w.letters:
        if pair == (1, 3):
            free = free * (v1 ** exp)
        elif pair == (2, 3):
            free = free * (v2 ** exp)
        else:  # (1, 2)
            free = free * (a12_free ** exp)
            central += exp
    return free, central


# ---------------------------------------------------------------------------
# Parsing and seeded word generation
# ---------------------------------------------------------------------------

def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse words like ``s1*s2^-1*s1^2`` (``e`` is the identity)."""
    return BraidWord(strands, _parse_word(text, "s"))


def parse_pure_word(text: str, strands: int) -> PureWord:
    """Parse words like ``a(1,3)^-1*a(2,3)`` (``e`` is the identity)."""
    return PureWord(strands, tuple(_parse_word(text, "a")))


def random_braid_word(strands: int, length: int, rng: random.Random) -> BraidWord:
    letters = tuple(
        (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands, letters)


def random_reduced_word(strands: int, length: int, rng: random.Random) -> BraidWord:
    """A random word of exactly ``length`` letters, none next to its inverse."""
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        i, e = rng.randint(1, strands - 1), rng.choice((1, -1))
        if letters[-1:] != [(i, -e)]:
            letters.append((i, e))
    return BraidWord(strands, tuple(letters))


def random_pure_braid_word(strands: int, length: int, rng: random.Random) -> BraidWord:
    """A random pure word: a random word closed up by a permutation braid."""
    budget = max(0, length - strands * (strands - 1) // 2)
    base = random_braid_word(strands, budget, rng)
    correction = permutation_of(base).inverse().reduced_word()
    return base * BraidWord(strands, tuple((i, 1) for i in correction))


def random_equal_pair(
    strands: int, max_length: int, rng: random.Random
) -> tuple[BraidWord, BraidWord]:
    """Two words equal in the group, produced by relation-preserving rewrites."""
    u = random_braid_word(strands, rng.randint(0, max(1, max_length - 8)), rng)
    letters = list(u.units)
    for _ in range(8):
        op = rng.randrange(3)
        if op == 0 and len(letters) + 2 <= max_length:
            pos = rng.randint(0, len(letters))
            i = rng.randint(1, strands - 1)
            sign = rng.choice((1, -1))
            letters[pos:pos] = [(i, sign), (i, -sign)]
        elif op == 1:
            spots = [
                t
                for t in range(len(letters) - 1)
                if abs(letters[t][0] - letters[t + 1][0]) >= 2
            ]
            if spots:
                t = rng.choice(spots)
                letters[t], letters[t + 1] = letters[t + 1], letters[t]
        else:
            spots = []
            for t in range(len(letters) - 2):
                (i1, e1), (i2, e2), (i3, e3) = letters[t : t + 3]
                if e1 == e2 == e3 and i1 == i3 and abs(i1 - i2) == 1:
                    spots.append(t)
            if spots:
                t = rng.choice(spots)
                (i1, e), (i2, _), _ = letters[t : t + 3]
                letters[t : t + 3] = [(i2, e), (i1, e), (i2, e)]
    return u, BraidWord(strands, tuple(letters))
