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

Worked n = 2 example: ``apply_braid(s1*s1, x1)`` applies the right-hand
``s1`` first, giving ``x2``, then the left one, giving ``x2^-1*x1*x2``.
Every braid fixes ``x1*x2``, so ``x2`` goes to ``x2^-1*x1^-1*x2*x1*x2``:
both images are conjugation by ``x1*x2``.

:func:`artin_auto` is the automorphism with generator images
``apply_braid(b, x_j)``.

The action is faithful; ``oracle-agreement`` checks it against Garside
forms.  Braid equality is decided by Dynnikov coordinates
(:func:`braid.equal`).

:func:`is_inner_for_pure` decides whether a pure braid acts by an inner
automorphism.  Only the central powers ``z^k`` do, so the answer is one
exponent-sum test and one call of :func:`braid.equal`; the ``inner-witness``
check confirms each witness through :func:`apply_braid` and each None by a
generator that does not commute with the braid.
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
        # perfbench/tracer.py patches this method by name: keep the name.
        if word.rank != self.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {word.rank}")
        raw: list[tuple[int, int]] = []
        for idx, exp in word.letters:
            image = self.images[idx - 1]
            if exp < 0:
                image = image.inverse()
            raw.extend(image.letters * abs(exp))
        return FreeWord(self.rank, raw)


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


def artin_auto(b: BraidWord) -> FreeAutomorphism:
    """The automorphism of F_n induced by a braid word on n strands."""
    n = b.strands
    return FreeAutomorphism(
        n, tuple(apply_braid(b, FreeWord.generator(n, j)) for j in range(1, n + 1))
    )


def is_inner_for_pure(b: BraidWord) -> FreeWord | None:
    """The w with auto(b)(y) = w^-1 * y * w for all y, or None if there is none.

    The kernel of B_n -> Out(F_n) is <z>, z = Delta^2, the centre of B_n from
    three strands on (Birman 1974; Farb-Margalit 2012), so auto(b) is inner
    exactly when b = z^k, and z^k conjugates by (x1...xn)^k.  The exponent
    sum of z^k is n(n-1)k, so the exponent sum of b fixes k, and
    :func:`braid.equal` decides b = z^k.  A None result is therefore a proof
    that no witness exists.  For n >= 2 the witness is unique, since F_n has
    trivial centre; on one strand the identity is returned.
    """
    from .braid import center_z, equal, is_pure

    if not is_pure(b):
        raise ValueError("braid word is not pure")
    n = b.strands
    if n == 1:
        return FreeWord.identity(1)
    k, rest = divmod(sum(sign for _, sign in b.letters), n * (n - 1))
    if rest or not equal(b, center_z(n) ** k):
        return None
    return FreeWord(n, tuple((i, 1) for i in range(1, n + 1))) ** k
