"""Reduced words in finitely generated free groups and circle-valued characters.

Words are stored run-length encoded as ``(generator index, exponent)`` pairs
and kept fully reduced, so structural equality coincides with equality in the
group and equality tests are linear in the word length.  Generators are
1-based: ``x1, ..., xn``.  Every word carries its rank and binary operations
check ranks; promotion to a bigger rank is always explicit.

The module also owns the word syntax of all three alphabets the package
uses, the free generators ``x<k>``, Artin's generators ``s<i>`` and the pure
generators ``a(i,j)``: one token grammar reads words and cocycle labels, one
printer writes words, and :func:`_reduce` is the one free reduction.

Conjugacy orbits need no enumeration.  In ``F_n x| B_n`` the orbit of an
element under conjugation by ``F_n`` is finite exactly when the element is
central, ``center_element(n, k)`` of :mod:`braidphase.cocycle`: an
automorphism of ``F_n`` that fixes a finite-index subgroup is the identity,
because roots in a free group are unique.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, RankError
from .phase import Angle

__all__ = ["FreeWord", "Character", "parse_free_word"]


def _reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Freely reduce (index, exponent) pairs, keeping a pair that merges with none."""
    stack: list[tuple[int, int]] = []
    for letter in letters:
        if stack and stack[-1][0] == letter[0]:
            exp = stack.pop()[1] + letter[1]
            if exp:
                stack.append((letter[0], exp))
        elif letter[1]:
            stack.append(letter)
    return tuple(stack)


@dataclass(frozen=True)
class FreeWord:
    """A reduced word in the free group of the given rank."""

    rank: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise RankError(f"rank must be positive, got {self.rank}")
        letters = [tuple(letter) for letter in self.letters]
        for idx, _ in letters:
            if not 1 <= idx <= self.rank:
                raise RankError(f"generator x{idx} out of range for rank {self.rank}")
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def identity(cls, rank: int) -> FreeWord:
        return cls(rank)

    @classmethod
    def generator(cls, rank: int, index: int, exp: int = 1) -> FreeWord:
        return cls(rank, ((index, exp),))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def _check_rank(self, other: FreeWord) -> None:
        if self.rank != other.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __mul__(self, other: FreeWord) -> FreeWord:
        if not isinstance(other, FreeWord):
            return NotImplemented
        self._check_rank(other)
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self) -> FreeWord:
        return FreeWord(self.rank, tuple((i, -e) for i, e in reversed(self.letters)))

    def __pow__(self, n: int) -> FreeWord:
        if n == 0:
            return FreeWord(self.rank)
        base = self if n > 0 else self.inverse()
        return FreeWord(self.rank, base.letters * abs(n))

    def conjugate_by(self, g: FreeWord) -> FreeWord:
        """g^-1 * self * g."""
        self._check_rank(g)
        return g.inverse() * self * g

    def length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def abelianize(self) -> tuple[int, ...]:
        """Exponent sum of each generator."""
        out = [0] * self.rank
        for idx, exp in self.letters:
            out[idx - 1] += exp
        return tuple(out)

    def promote(self, rank: int) -> FreeWord:
        """The same word viewed in a free group of larger rank."""
        if rank < self.rank:
            raise RankError(f"cannot demote rank {self.rank} word to rank {rank}")
        return FreeWord(rank, self.letters)

    def __str__(self) -> str:
        return _word_text("x", self.letters)

    def __repr__(self) -> str:
        return f"FreeWord({self.rank}, {str(self)!r})"


# One token: a letter with its index (x<k>, s<i> or a(i,j)) and an optional
# exponent ^k.  int() reads each number, so an exponent may carry a sign
# (^+2, ^-1) and an index of a(i,j) may have whitespace around it.
_TOKEN_RE = re.compile(r"(?:([sx])(\d+)|(a)\(([^,()]*),([^,()]*)\))(?:\^(.*))?", re.DOTALL)


def _parse_token(token: str, letter: str, power: bool = True):
    """One letter of an alphabet named in ``letter`` ("x", "s", "a" or "sa") as
    (index, exponent); the index of ``a(i,j)`` is the pair (i, j).  Without
    ``power`` an exponent is refused, as in cocycle labels."""
    m = _TOKEN_RE.fullmatch(token)
    if m is None or (m[1] or m[3]) not in letter or (m[6] is not None and not power):
        raise ParseError(f"cannot parse token {token!r}")
    try:
        index = int(m[2]) if m[2] is not None else (int(m[4]), int(m[5]))
        return index, 1 if m[6] is None else int(m[6])
    except ValueError:
        raise ParseError(f"cannot parse token {token!r}") from None


def _parse_word(text: str, letter: str) -> list:
    """The tokens of a ``*``-joined word; spaces are dropped and ``e`` is the identity."""
    s = text.replace(" ", "")
    if s in ("", "e"):
        return []
    return [_parse_token(token, letter) for token in s.split("*")]


def _word_text(letter: str, runs) -> str:
    """Print (index, exponent) runs as a word of the given alphabet."""
    if not runs:
        return "e"
    if letter == "a":
        runs = [(f"({i},{j})", e) for (i, j), e in runs]
    return "*".join(f"{letter}{i}" if e == 1 else f"{letter}{i}^{e}" for i, e in runs)


def parse_free_word(text: str, rank: int) -> FreeWord:
    """Parse words like ``x1*x2^-1*x1^2`` (``e`` is the identity)."""
    return FreeWord(rank, _parse_word(text, "x"))


@dataclass(frozen=True)
class Character:
    """A homomorphism from the free group to the circle, given on generators."""

    rank: int
    values: tuple[Angle, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.rank:
            raise ValueError("need one angle per generator")

    def __call__(self, word: FreeWord) -> Angle:
        if word.rank != self.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {word.rank}")
        return Angle.combination((exp, self.values[idx - 1]) for idx, exp in word.letters)
