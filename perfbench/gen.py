"""Seeded benchmark inputs, built without the library under test.

Braid words are lists of unit letters ``(i, e)`` meaning ``s_i^e`` with
``e`` in ``{1, -1}``; free words are lists of ``(j, e)`` meaning ``x_j^e``.
Everything here is plain Python so that the expected answers the benchmark
checks against are known by construction, never by asking the library.
"""

from __future__ import annotations

import math
import random

Letters = list[tuple[int, int]]


def braid_text(letters: Letters) -> str:
    """The CLI spelling of a braid word (``e`` for the empty word)."""
    if not letters:
        return "e"
    return "*".join(f"s{i}" if e == 1 else f"s{i}^{e}" for i, e in letters)


def free_text(letters: Letters) -> str:
    if not letters:
        return "e"
    return "*".join(f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in letters)


def parse_units(text: str, letter: str) -> Letters:
    """Unit letters of a printed word such as ``x1^2*x3^-1`` (``e`` empty)."""
    out: Letters = []
    if text == "e":
        return out
    for token in text.split("*"):
        name, _, exp = token.partition("^")
        if name[:1] != letter or not name[1:].isdigit():
            raise ValueError(f"bad token {token!r}")
        k = int(exp) if exp else 1
        out.extend([(int(name[1:]), 1 if k > 0 else -1)] * abs(k))
    return out


def inverse(letters: Letters) -> Letters:
    return [(i, -e) for i, e in reversed(letters)]


def free_reduce(letters: Letters) -> Letters:
    """Cancel adjacent inverse unit letters."""
    out: Letters = []
    for letter in letters:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return out


def random_word(rng: random.Random, gens: int, length: int) -> Letters:
    """A freely reduced word of exactly ``length`` unit letters in ``gens``
    generators."""
    out: Letters = []
    while len(out) < length:
        letter = (rng.randint(1, gens), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


def half_twist(n: int) -> Letters:
    return [(i, 1) for k in range(1, n) for i in range(k, 0, -1)]


def full_twist(n: int) -> Letters:
    return half_twist(n) * 2


def arrangement(letters: Letters, n: int) -> list[int]:
    """Strand labels by final position: entry p-1 is the strand that ends at
    position p (the strand permutation of the word)."""
    arr = list(range(1, n + 1))
    for i, _ in letters:
        arr[i - 1], arr[i] = arr[i], arr[i - 1]
    return arr


def exponent_sum(letters: Letters) -> int:
    return sum(e for _, e in letters)


def abelianize(letters: Letters, rank: int) -> list[int]:
    out = [0] * rank
    for j, e in letters:
        out[j - 1] += e
    return out


def linking_numbers(letters: Letters, n: int) -> dict[tuple[int, int], int]:
    """Pairwise linking numbers of a pure braid: half the signed crossing
    count between strands p < q, strands labelled by starting position."""
    arr = list(range(1, n + 1))
    crossings: dict[tuple[int, int], int] = {}
    for i, e in letters:
        a, b = arr[i - 1], arr[i]
        key = (min(a, b), max(a, b))
        crossings[key] = crossings.get(key, 0) + e
        arr[i - 1], arr[i] = b, a
    if arr != list(range(1, n + 1)):
        raise ValueError("linking numbers need a pure braid")
    out = {}
    for key, count in crossings.items():
        if count % 2:
            raise ValueError("odd crossing count in a pure braid")
        if count:
            out[key] = count // 2
    return out


def inversions(perm: list[int]) -> int:
    return sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )


def sorting_braid(arr: list[int]) -> Letters:
    """Positive letters that, appended to a word with this arrangement, bring
    every strand back to its starting position (bubble sort)."""
    arr = list(arr)
    out: Letters = []
    changed = True
    while changed:
        changed = False
        for p in range(len(arr) - 1):
            if arr[p] > arr[p + 1]:
                arr[p], arr[p + 1] = arr[p + 1], arr[p]
                out.append((p + 1, 1))
                changed = True
    return out


def pure_word(rng: random.Random, n: int, length: int) -> Letters:
    """A pure braid word of about ``length`` letters: a random word closed up
    by the positive braid that sorts its strands."""
    base = random_word(rng, n - 1, max(0, length - n * (n - 1) // 2))
    return free_reduce(base + sorting_braid(arrangement(base, n)))


def _join(x: list[int], y: list[int]) -> list[int]:
    k = 0
    while k < len(x) and k < len(y) and x[-1 - k] == -y[k]:
        k += 1
    return x[: len(x) - k] + y[k:]


def action_work(letters: Letters, n: int, budget: int) -> int | None:
    """Letters of generator images the braid action builds for this word,
    summed over its prefixes (the action is composed one letter at a time and
    every step rebuilds all n images), or None once the sum passes
    ``budget``.  A plain model of the action oracle's work that stops early."""
    images = [[j] for j in range(1, n + 1)]  # x_j^e as the signed int e*j
    work = 0
    for i, e in letters:
        a, b = images[i - 1], images[i]
        if e == 1:  # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
            images[i - 1], images[i] = b, _join(_join([-v for v in reversed(b)], a), b)
        else:  # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
            images[i - 1], images[i] = _join(_join(a, b), [-v for v in reversed(a)]), a
        work += sum(len(w) for w in images)
        if work > budget:
            return None
    return work


def median_action_work(
    rng: random.Random, n: int, length: int, words: int = 41, budget: int = 3_000_000
) -> float:
    """Median of :func:`action_work` over random words of this length; a word
    past the budget counts as infinite."""
    works = []
    for _ in range(words):
        work = action_work(random_word(rng, n - 1, length), n, budget)
        works.append(math.inf if work is None else work)
    return sorted(works)[words // 2]


def _relator(rng: random.Random, n: int) -> Letters:
    """A relator of B_n (a word equal to the identity), for insertion moves."""
    e = rng.choice((1, -1))
    if n >= 4 and rng.random() < 0.4:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        return [(i, e), (j, e), (i, -e), (j, -e)]
    i = rng.randint(1, n - 1)
    j = i + 1 if i + 1 <= n - 1 else i - 1
    return [(i, e), (j, e), (i, e), (j, -e), (i, -e), (j, -e)]


def _local_move(rng: random.Random, w: Letters) -> None:
    """One length-preserving relation move in place, where a spot exists."""
    swaps = [t for t in range(len(w) - 1) if abs(w[t][0] - w[t + 1][0]) >= 2]
    braids = [
        t
        for t in range(len(w) - 2)
        if w[t][1] == w[t + 1][1] == w[t + 2][1]
        and w[t][0] == w[t + 2][0]
        and abs(w[t][0] - w[t + 1][0]) == 1
    ]
    if braids and (not swaps or rng.random() < 0.5):
        t = rng.choice(braids)
        (i, e), (j, _), _ = w[t : t + 3]
        w[t : t + 3] = [(j, e), (i, e), (j, e)]
    elif swaps:
        t = rng.choice(swaps)
        w[t], w[t + 1] = w[t + 1], w[t]


def equal_variant(rng: random.Random, base: Letters, n: int, target: int) -> Letters:
    """A word equal to ``base`` in B_n of about ``target`` letters, reached by
    relator and free insertions, one central insertion of z and z^-1 when it
    fits, and length-preserving commutation and braid moves."""
    w = list(base)
    z = full_twist(n)
    if n >= 3 and len(w) + 2 * len(z) <= target:
        p = rng.randint(0, len(w))
        w[p:p] = z
        q = rng.randint(0, len(w))
        w[q:q] = inverse(z)
    while len(w) + 2 <= target:
        p = rng.randint(0, len(w))
        piece = _relator(rng, n)
        if len(w) + len(piece) > target:
            i = rng.randint(1, n - 1)
            e = rng.choice((1, -1))
            piece = [(i, e), (i, -e)]
        w[p:p] = piece
    for _ in range(len(w)):
        _local_move(rng, w)
    return w


def commutator_insert(rng: random.Random, w: Letters, n: int) -> Letters:
    """``w`` with a conjugate of [a(1,2), a(2,3)] = s1^2 s2^2 s1^-2 s2^-2
    inserted: a different element with the same permutation and exponent sum."""
    core = [(1, 1), (1, 1), (2, 1), (2, 1), (1, -1), (1, -1), (2, -1), (2, -1)]
    g = random_word(rng, n - 1, rng.randint(0, 4))
    piece = g + core + inverse(g)
    p = rng.randint(0, len(w))
    return w[:p] + piece + w[p:]


def pair(rng: random.Random, n: int, length: int, equal: bool) -> tuple[Letters, Letters]:
    """Two words of about ``length`` letters, equal in B_n or a near miss."""
    base = random_word(rng, n - 1, max(2, length // 2))
    left = equal_variant(rng, base, n, length)
    if equal:
        return left, equal_variant(rng, base, n, length)
    return left, commutator_insert(rng, equal_variant(rng, base, n, length - 16), n)


def angle_spec(rng: random.Random, symbols: tuple[str, ...]) -> tuple[int, int, tuple]:
    """(numerator, denominator, ((symbol, coefficient), ...)) for an angle
    with a nonzero coefficient on each of ``symbols``."""
    syms = tuple((name, rng.choice((-2, -1, 1, 2))) for name in symbols)
    return rng.randint(0, 11), rng.choice((1, 2, 3, 4, 6, 12)), syms
