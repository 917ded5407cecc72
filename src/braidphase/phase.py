"""Exact arithmetic in the circle group, written additively.

An :class:`Angle` is an element of R/Z: a rational part ``q``, kept as reduced
integers ``num/den`` in [0, 1) (``.frac`` is derived), plus an integer
combination of named symbols ``th1, th2, ...``.  The symbols stand for fixed
real numbers that are assumed, together with 1, to be linearly independent
over Q; the library never certifies independence, it only relies on the
resulting dichotomy: an angle is torsion in R/Z exactly when its symbolic part
is empty.  Only public construction (``Angle(frac, syms)``, ``rational``,
``symbol``) normalises; arithmetic builds its results from normalised parts,
with one ``gcd`` for ``q`` and a merge of symbols only when both sides have some.

Quantities that are usually written multiplicatively in the unit circle are
handled additively throughout this package: products become sums and complex
conjugation becomes negation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ParseError

__all__ = ["Angle", "parse_angle"]

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one term of an angle: [c*]name or p[/q], every integer in ASCII digits
_TERM_RE = re.compile(rf"(?:([0-9]+)\*)?({_SYMBOL_RE.pattern})|([0-9]+)(?:/([0-9]+))?")


@dataclass(frozen=True, init=False)
class Angle:
    """A circle-group element ``num/den + sum_k c_k * th_k  (mod 1)``.

    ``num/den`` is reduced with ``0 <= num < den`` and ``syms`` is sorted with
    nonzero integer coefficients, so equality and hashing on these fields are
    equality in R/Z.  ``Angle(frac, syms)`` normalises any rational and any
    (name, coefficient) pairs in ``__post_init__``.
    """

    # declared here: slots=True would build a second class and leave this one alive
    __slots__ = ("num", "den", "syms")
    num: int
    den: int
    syms: tuple[tuple[str, int], ...]

    def __init__(self, frac: Fraction | int = 0, syms: Iterable[tuple[str, int]] = ()) -> None:
        _init(self, *Fraction(frac).as_integer_ratio(), syms)
        self.__post_init__()

    def __post_init__(self) -> None:
        # names are checked by symbol and parse_angle
        _init(self, self.num % self.den, self.den, _merged((n, int(c)) for n, c in self.syms))

    def __reduce__(self):  # copy and pickle: slots of a frozen class cannot be set
        return Angle, (self.frac, self.syms)

    @property
    def frac(self) -> Fraction:
        return Fraction(self.num, self.den)

    @classmethod
    def zero(cls) -> Angle:
        return cls()

    @classmethod
    def rational(cls, numerator: int, denominator: int = 1) -> Angle:
        return cls(Fraction(numerator, denominator))

    @classmethod
    def symbol(cls, name: str, coeff: int = 1) -> Angle:
        if not _SYMBOL_RE.fullmatch(name):
            raise ValueError(f"bad symbol name {name!r}")
        return cls(0, ((name, coeff),))

    @classmethod
    def combination(cls, terms: Iterable[tuple[int, Angle]]) -> Angle:
        """``sum k * angle`` over ``(k, angle)`` terms, built as one Angle.

        Numerators are summed per denominator and then over the common
        denominator, symbol coefficients per name, all as plain integers, so
        the sum costs one construction however many terms it has.
        """
        numerators: dict[int, int] = {}
        coeffs: dict[str, int] = {}
        for k, angle in terms:
            numerators[angle.den] = numerators.get(angle.den, 0) + k * angle.num
            for name, c in angle.syms:
                coeffs[name] = coeffs.get(name, 0) + k * c
        den = math.lcm(*numerators)
        num = sum(k * (den // d) for d, k in numerators.items())
        return _of(num, den, tuple(sorted((k, v) for k, v in coeffs.items() if v)))

    def __add__(self, other: Angle) -> Angle:
        if not isinstance(other, Angle):
            return NotImplemented
        s, t = self.syms, other.syms
        syms = _merged(s + t) if s and t else s or t  # one side alone is already normal
        return _of(self.num * other.den + other.num * self.den, self.den * other.den, syms)

    def __neg__(self) -> Angle:
        return _of(-self.num, self.den, tuple((k, -v) for k, v in self.syms))

    def __sub__(self, other: Angle) -> Angle:
        return self + (-other) if isinstance(other, Angle) else NotImplemented

    def scale(self, k: int) -> Angle:
        """The k-fold sum of this angle (k may be negative or zero)."""
        k = int(k)
        syms = tuple((name, c * k) for name, c in self.syms) if k else ()
        return _of(self.num * k, self.den, syms)

    def __bool__(self) -> bool:
        return bool(self.num) or bool(self.syms)

    @property
    def is_torsion(self) -> bool:
        """True iff some positive multiple of the angle is zero in R/Z."""
        return not self.syms

    def torsion_order(self) -> int | None:
        """Order of the angle in R/Z, or None if it is nontorsion."""
        return None if self.syms else self.den

    def __str__(self) -> str:
        out = str(self.frac) if self.num or not self.syms else ""
        for name, c in self.syms:
            sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
            out += sign + (name if abs(c) == 1 else f"{abs(c)}*{name}")
        return out

    def __repr__(self) -> str:
        return f"Angle({str(self)!r})"


_set_num, _set_den, _set_syms = (Angle.__dict__[f].__set__ for f in Angle.__slots__)


def _init(angle: Angle, num: int, den: int, syms) -> None:
    _set_num(angle, num)
    _set_den(angle, den)
    _set_syms(angle, syms)


def _merged(pairs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The coefficients summed per name, sorted by name, zeros dropped."""
    merged: dict[str, int] = {}
    for name, c in pairs:
        merged[name] = merged.get(name, 0) + c
    return tuple(sorted((k, v) for k, v in merged.items() if v))


def _of(num: int, den: int, syms: tuple[tuple[str, int], ...]) -> Angle:
    """``num/den + syms`` for ``den > 0`` and ``syms`` already normalised."""
    g = math.gcd(num, den)
    angle = object.__new__(Angle)
    _init(angle, num // g % (den // g), den // g, syms)
    return angle


def parse_angle(text: str) -> Angle:
    """Parse expressions like ``1/3 + 2*th1`` or ``-th2`` into an Angle."""
    s = text.replace(" ", "")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ParseError(f"cannot parse angle {text!r}")
    q, syms = Fraction(0), []
    for token in tokens:
        sign = -1 if token[0] == "-" else 1
        term = _TERM_RE.fullmatch(token.lstrip("+-"))
        try:
            if term is None:
                raise ValueError(token)
            if term[2]:
                syms.append((term[2], sign * int(term[1] or 1)))
            else:
                q += sign * Fraction(int(term[3]), int(term[4] or 1))
        except (ValueError, ZeroDivisionError) as exc:  # int() also caps digits
            raise ParseError(f"bad term {token!r} in angle {text!r}") from exc
    return Angle(q, syms)
