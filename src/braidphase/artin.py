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
auto(l_L)(w))`` on the one word, right to left, one step per run ``s_i^e``.
``s_i^e`` maps the free factor <x_i, x_{i+1}> onto itself, so each maximal
segment of letters x_i, x_{i+1} has a nonempty reduced image in them, and a
step reduces as it writes: one pass for ``s_i^{+-1}`` and one for
``(s_i^2)^m``, where ``s_i^2`` conjugates both letters by ``c = x_i x_{i+1}``
(Birman 1974).  A step of ``s_i^(2m+r)`` costs its input runs plus O(|m|) per
segment; the word can still grow exponentially in L.

Worked n = 2 example: letter by letter, ``s1*s1`` sends ``x1`` to ``x2``
and then to ``x2^-1*x1*x2``, and ``x2`` to ``x2^-1*x1^-1*x2*x1*x2``: both
images are conjugation by ``c = x1*x2``, so ``apply_braid`` reads ``s1*s1``
as the one run ``s1^2`` and wraps the word in ``c^-1 ... c`` in one step.

The action is faithful; ``oracle-agreement`` checks it against Garside
forms.  Braid equality is decided by Dynnikov coordinates
(:func:`braid.equal`), and so is which pure braids act by inner
automorphisms (:func:`braid.is_inner_for_pure`).  This module names
``braid.BraidWord`` only in annotations, which stay unevaluated strings: the
braid layer sits above it.
"""

from __future__ import annotations

from .errors import RankError, _Record
from .freegroup import FreeWord

__all__ = ["FreeAutomorphism", "apply_braid"]


class FreeAutomorphism(_Record):
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


def _push(out: list, letters) -> None:
    """Push reduced letters onto the reduced stack out: they cancel until one stays."""
    for k, (idx, exp) in enumerate(letters):
        if out[-1][0] == idx:
            exp += out.pop()[1]
        if exp:
            out.append((idx, exp))
            out += letters[k + 1:]
            return


def _substitute(runs, i: int, e: int) -> tuple[tuple[int, int], ...]:
    """The reduced runs of auto(s_i^e)(w), for the runs of a reduced word w, in
    O(runs + |m| per segment) for e = 2m + r, r in {-1, 0, 1} of e's sign.
    A segment's image is a nonempty reduced word in x_i, x_{i+1}, so other runs
    are copied as they are.  s_i^r sends p^k to q^k and q^k to q^-r p^k q^r,
    (p, q) = (x_i, x_{i+1}) for r = 1 and (x_{i+1}, x_i) for r = -1, and only q
    letters meet; (s_i^2)^m wraps each segment as c^-m * segment * c^m with
    c = x_i x_{i+1}.  Each is one pass, merging on the output stack as it writes."""
    j = i + 1
    m, r = (e // 2, e % 2) if e > 0 else (-(-e // 2), -(-e % 2))
    out = [(0, 0)]  # index 0 meets no letter; out[0] is dropped at the end
    if r:
        p, q = (i, j) if r == 1 else (j, i)
        for run in runs:
            idx, k = run
            if idx != p and idx != q:
                out.append(run)
                continue
            exp = k if idx == p else -r  # the q letter the run's image starts with
            if out[-1][0] == q:
                exp += out.pop()[1]
            if exp:
                out.append((q, exp))
            if idx == q:
                out += ((p, k), (q, r))
        if m:  # the wrap pass reads this out, and copies its out[0] first
            runs, out = out, []
    if m:
        c, c_inv = ((i, 1), (j, 1)), ((j, -1), (i, -1))
        c_m, c_minus_m = (c * m, c_inv * m) if m > 0 else (c_inv * -m, c * -m)
        inside = False  # in a segment of letters x_i, x_{i+1}
        for run in runs:
            idx, exp = run
            if idx != i and idx != j:
                if inside:
                    _push(out, c_m)
                    inside = False
                out.append(run)
                continue
            if not inside:
                out += c_minus_m
                inside = True
            if out[-1][0] == idx:
                exp += out.pop()[1]
            if exp:
                out.append((idx, exp))
        if inside:
            _push(out, c_m)
    del out[0]
    return tuple(out)


def apply_braid(b: BraidWord, word: FreeWord) -> FreeWord:
    """auto(b)(word), with the runs s_i^e of b applied to the word right to left."""
    if word.rank != b.strands:
        raise RankError(f"rank mismatch: {b.strands} vs {word.rank}")
    runs = word.letters
    for i, e in reversed(b.letters):
        runs = _substitute(runs, i, e)
    out = object.__new__(FreeWord)  # runs are reduced and in range: no second _reduce
    object.__setattr__(out, "rank", word.rank)
    object.__setattr__(out, "letters", runs)
    return out
