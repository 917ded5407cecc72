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
auto(l_L)(w))`` on the one word, right to left, one step per run ``s_i^e``:
``s_i`` maps each ``(index, exponent)`` run of the word to at most three runs,
and ``s_i^2`` conjugates x_i and x_{i+1} by ``c = x_i x_{i+1}`` and fixes the
rest (Birman 1974).  A step costs the word's length in runs plus O(|e|) per
segment of x_i, x_{i+1}; the word can still grow exponentially in L.

Worked n = 2 example: letter by letter, ``s1*s1`` sends ``x1`` to ``x2``
and then to ``x2^-1*x1*x2``, and ``x2`` to ``x2^-1*x1^-1*x2*x1*x2``: both
images are conjugation by ``c = x1*x2``, so ``apply_braid`` reads ``s1*s1``
as the one run ``s1^2`` and wraps the word in ``c^-1 ... c`` in one step.

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


def _substitute(runs, i: int, e: int) -> tuple[tuple[int, int], ...]:
    """The reduced runs of auto(s_i^e)(w), for w given by its runs, in one
    step of O(runs + |m| per segment) for e = 2m + r, r in {-1, 0, 1} of e's sign:
    s_i^r is the one-letter substitution, and (s_i^2)^m wraps each maximal
    segment of letters x_i, x_{i+1} as c^-m * segment * c^m, c = x_i x_{i+1}."""
    j = i + 1
    m, r = (e // 2, e % 2) if e > 0 else (-(-e // 2), -(-e % 2))
    c, c_inv = ((i, 1), (j, 1)), ((j, -1), (i, -1))
    c_m, c_minus_m = (c * m, c_inv * m) if m > 0 else (c_inv * -m, c * -m)
    out: list[tuple[int, int]] = []
    inside = False  # in a segment of letters x_i, x_{i+1}
    for run in (*runs, (0, 0)):  # (0, 0) closes a last segment; _reduce drops it
        idx, exp = run
        if idx != i and idx != j:
            out += c_m if inside else ()
            out.append(run)
            inside = False
            continue
        out += () if inside else c_minus_m
        inside = True
        if not r:
            out.append(run)
        elif idx == i:  # x_i^e -> x_{i+1}^e, or x_i x_{i+1}^e x_i^-1
            out += ((j, exp),) if r == 1 else ((i, 1), (j, exp), (i, -1))
        else:  # x_{i+1}^e -> x_{i+1}^-1 x_i^e x_{i+1}, or x_i^e
            out += ((j, -1), (i, exp), (j, 1)) if r == 1 else ((i, exp),)
    return _reduce(out)


def apply_braid(b: BraidWord, word: FreeWord) -> FreeWord:
    """auto(b)(word), with the runs s_i^e of b applied to the word right to left."""
    if word.rank != b.strands:
        raise RankError(f"rank mismatch: {b.strands} vs {word.rank}")
    runs = word.letters
    for i, e in reversed(_reduce(b.letters)):
        runs = _substitute(runs, i, e)
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
