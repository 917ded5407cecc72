"""The braid action on free groups by automorphisms.

The generator ``s_i`` of the braid group on n strands acts on the free group
``F_n`` by

    x_i   ->  x_{i+1}
    x_{i+1} ->  x_{i+1}^-1 * x_i * x_{i+1}
    x_j   ->  x_j               (j not in {i, i+1})

and the action extends to braid words so that ``auto(a) . auto(b) = auto(ab)``
(left action).  This matches the semidirect-product convention
``(x, a)(y, b) = (x * a(y), ab)`` used in :mod:`braidphase.cocycle`.

:func:`apply_braid` computes ``auto(l_1 ... l_L)(w) = auto(l_1)(...
auto(l_L)(w))`` on the one word, letters right to left.  A letter maps each
``(index, exponent)`` run of the reduced word to at most three runs, such as
``x_{i+1}^e -> x_{i+1}^-1 x_i^e x_{i+1}`` under ``s_i``, so a step costs the
word's length in runs whatever its exponents; the word can still grow
exponentially in L, as images under pseudo-Anosov braids do.

:func:`artin_auto` builds the whole automorphism, recorded by its generator
images ``A_1..A_n``: it reads a word left to right and right-multiplies the
automorphism built so far by each letter, which rewrites two images:
``s_i`` sets ``A_i, A_{i+1} := A_{i+1}, A_{i+1}^-1 A_i A_{i+1}`` and
``s_i^-1`` sets ``A_i, A_{i+1} := A_i A_{i+1} A_i^-1, A_i``.

Worked n = 2 example: for the word ``s1*s1`` the first letter gives
``(x2, x2^-1*x1*x2)`` and the second gives ``x1 -> x2^-1*x1*x2`` and
``x2 -> (x2^-1*x1*x2)^-1 * x2 * (x2^-1*x1*x2) = x2^-1*x1^-1*x2*x1*x2``; both
images are conjugation by ``x1*x2``, as direct substitution confirms.

The action is faithful; ``oracle-agreement`` checks it against Garside forms.
Braid equality is decided by Dynnikov coordinates (:func:`braid.equal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import RankError
from .freegroup import FreeWord, _reduce

if TYPE_CHECKING:  # pragma: no cover
    from .braid import BraidWord

__all__ = ["FreeAutomorphism", "apply_braid", "artin_auto", "is_inner_for_pure"]


@dataclass(frozen=True)
class FreeAutomorphism:
    """An automorphism of F_n recorded by the images of the generators."""

    rank: int
    images: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise ValueError("need one image per generator")
        for w in self.images:
            if w.rank != self.rank:
                raise RankError("image rank does not match automorphism rank")

    def __call__(self, word: FreeWord) -> FreeWord:
        """Apply the automorphism: substitute generator images and reduce."""
        if word.rank != self.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {word.rank}")
        raw: list[tuple[int, int]] = []
        for idx, exp in word.letters:
            image = self.images[idx - 1]
            if exp < 0:
                image = image.inverse()
            raw.extend(image.letters * abs(exp))
        return FreeWord(self.rank, raw)


def _times_generator(images: list[FreeWord], i: int, sign: int) -> None:
    """Right-multiply the automorphism with these generator images by s_i^sign,
    in place.  Only the images of x_i and x_{i+1} change."""
    a, b = images[i - 1], images[i]
    if sign == 1:  # x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
        images[i - 1] = b
        images[i] = FreeWord(b.rank, b.inverse().letters + a.letters + b.letters)
    else:  # x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i
        images[i - 1] = FreeWord(a.rank, a.letters + b.letters + a.inverse().letters)
        images[i] = a


def artin_auto(b: BraidWord) -> FreeAutomorphism:
    """The automorphism of F_n induced by a braid word on n strands."""
    n = b.strands
    images = [FreeWord.generator(n, j) for j in range(1, n + 1)]
    for i, sign in b.letters:
        _times_generator(images, i, sign)
    return FreeAutomorphism(n, tuple(images))


def _substitute(runs, i: int, sign: int) -> tuple[tuple[int, int], ...]:
    """The reduced runs of auto(s_i^sign)(w), for w given by its runs."""
    j = i + 1
    out: list[tuple[int, int]] = []
    for idx, exp in runs:
        if idx == i:  # x_i^e -> x_{i+1}^e, or x_i x_{i+1}^e x_i^-1
            out += ((j, exp),) if sign == 1 else ((i, 1), (j, exp), (i, -1))
        elif idx == j:  # x_{i+1}^e -> x_{i+1}^-1 x_i^e x_{i+1}, or x_i^e
            out += ((j, -1), (i, exp), (j, 1)) if sign == 1 else ((i, exp),)
        else:
            out.append((idx, exp))
    return _reduce(out)


def apply_braid(b: BraidWord, word: FreeWord) -> FreeWord:
    """auto(b)(word), with the letters of b applied to the word right to left."""
    if word.rank != b.strands:
        raise RankError(f"rank mismatch: {b.strands} vs {word.rank}")
    runs = word.letters
    for i, sign in reversed(b.letters):
        runs = _substitute(runs, i, sign)
    return FreeWord(word.rank, runs)


def _minimal_conjugator(word: FreeWord, index: int) -> FreeWord | None:
    """Shortest c with word == c^-1 * x_index * c, or None.

    Such a c is unique once it is forbidden from starting with a power of
    x_index, and then the reduced word is literally the mirror pattern
    ``c^-1 . x_index . c`` with no cancellation.
    """
    letters = word.letters
    m = len(letters)
    if m % 2 == 0:
        return None
    k = m // 2
    if letters[k] != (index, 1):
        return None
    for t in range(k):
        i, e = letters[t]
        if letters[m - 1 - t] != (i, -e):
            return None
    return FreeWord(word.rank, letters[k + 1 :])


def is_inner_for_pure(b: BraidWord, max_witness_length: int | None = None) -> FreeWord | None:
    """Search for w with artin_auto(b)(y) = w^-1 * y * w for all y.

    On two strands every pure braid acts by such a conjugation, and on any
    number of strands the central powers do (the full twist conjugates by
    x1...xn); a general pure braid merely sends each generator to a conjugate
    of itself, by its own conjugator.  The search is over the one-parameter
    family of candidates read off the image of x1 and returns None when no
    witness of length at most ``max_witness_length`` (default twice the
    input word length) works.  A None result means "not found within the
    bound", never a proof of nonexistence.
    """
    from .braid import is_pure

    if not is_pure(b):
        raise ValueError("braid word is not pure")
    n = b.strands
    auto = artin_auto(b)
    cutoff = max_witness_length if max_witness_length is not None else 2 * len(b.letters)
    base = _minimal_conjugator(auto.images[0], 1)
    if base is None:
        return None
    x1 = FreeWord.generator(n, 1)
    gens = [FreeWord.generator(n, j) for j in range(1, n + 1)]
    for k in sorted(range(-cutoff, cutoff + 1), key=lambda v: (abs(v), v < 0)):
        witness = (x1 ** k) * base
        if witness.length() > cutoff:
            continue
        if all(auto.images[j] == gens[j].conjugate_by(witness) for j in range(n)):
            return witness
    return None
