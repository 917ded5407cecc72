"""Exact arithmetic in the circle group, written additively.

An :class:`Angle` is an element of R/Z stored as a reduced rational in [0, 1)
plus an integer combination of named symbols ``th1, th2, ...``.  The symbols
stand for fixed real numbers that are assumed, together with 1, to be
linearly independent over Q; the library never certifies independence, it
only relies on the resulting dichotomy: an angle is torsion in R/Z exactly
when its symbolic part is empty.

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

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


@dataclass(frozen=True)
class Angle:
    """A circle-group element ``q + sum_k c_k * th_k  (mod 1)``.

    ``frac`` is reduced mod 1 and the symbol map is kept sorted with nonzero
    integer coefficients, so structural equality is equality in R/Z.
    """

    frac: Fraction = Fraction(0)
    syms: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[str, int] = {}
        for name, coeff in self.syms:  # names are checked by symbol and parse_angle
            merged[name] = merged.get(name, 0) + int(coeff)
        object.__setattr__(self, "frac", Fraction(self.frac) % 1)
        object.__setattr__(
            self, "syms", tuple(sorted((k, v) for k, v in merged.items() if v != 0))
        )

    @classmethod
    def zero(cls) -> Angle:
        return cls()

    @classmethod
    def rational(cls, numerator: int, denominator: int = 1) -> Angle:
        return cls(Fraction(numerator, denominator))

    @classmethod
    def symbol(cls, name: str, coeff: int = 1) -> Angle:
        if not _SYMBOL_RE.match(name):
            raise ValueError(f"bad symbol name {name!r}")
        return cls(Fraction(0), ((name, coeff),))

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
            q = angle.frac
            numerators[q.denominator] = numerators.get(q.denominator, 0) + k * q.numerator
            for name, c in angle.syms:
                coeffs[name] = coeffs.get(name, 0) + k * c
        den = math.lcm(*numerators)
        num = sum(k * (den // d) for d, k in numerators.items())
        return cls(Fraction(num, den), tuple(coeffs.items()))

    def __add__(self, other: Angle) -> Angle:
        if not isinstance(other, Angle):
            return NotImplemented
        return Angle(self.frac + other.frac, self.syms + other.syms)

    def __neg__(self) -> Angle:
        return Angle(-self.frac, tuple((k, -v) for k, v in self.syms))

    def __sub__(self, other: Angle) -> Angle:
        if not isinstance(other, Angle):
            return NotImplemented
        return self + (-other)

    def scale(self, k: int) -> Angle:
        """The k-fold sum of this angle (k may be negative or zero)."""
        k = int(k)
        return Angle(self.frac * k, tuple((name, c * k) for name, c in self.syms))

    def __mul__(self, k: int) -> Angle:
        if not isinstance(k, int):
            return NotImplemented
        return self.scale(k)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.frac) or bool(self.syms)

    @property
    def is_torsion(self) -> bool:
        """True iff some positive multiple of the angle is zero in R/Z."""
        return not self.syms

    def torsion_order(self) -> int | None:
        """Order of the angle in R/Z, or None if it is nontorsion."""
        if not self.is_torsion:
            return None
        return self.frac.denominator

    def __str__(self) -> str:
        parts: list[tuple[int, str]] = []  # (sign, magnitude text)
        if self.frac or not self.syms:
            parts.append((1, str(self.frac)))
        for name, coeff in self.syms:
            sign = 1 if coeff > 0 else -1
            mag = abs(coeff)
            parts.append((sign, name if mag == 1 else f"{mag}*{name}"))
        out = parts[0][1] if parts[0][0] > 0 else "-" + parts[0][1]
        for sign, text in parts[1:]:
            out += (" + " if sign > 0 else " - ") + text
        return out

    def __repr__(self) -> str:
        return f"Angle({str(self)!r})"


def parse_angle(text: str) -> Angle:
    """Parse expressions like ``1/3 + 2*th1`` or ``-th2`` into an Angle."""
    s = text.replace(" ", "")
    if s in ("", "0"):
        return Angle()
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ParseError(f"cannot parse angle {text!r}")
    frac = Fraction(0)
    syms: list[tuple[str, int]] = []
    for token in tokens:
        sign = 1
        body = token
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ParseError(f"cannot parse angle {text!r}")
        try:
            if "*" in body:
                coeff_text, name = body.split("*", 1)
                if not _SYMBOL_RE.match(name) or not _INT_RE.match(coeff_text):
                    raise ParseError(f"bad term {token!r} in angle {text!r}")
                syms.append((name, sign * int(coeff_text)))
            elif "/" in body or _INT_RE.match(body):
                frac += sign * Fraction(body)
            elif _SYMBOL_RE.match(body):
                syms.append((body, sign))
            else:
                raise ParseError(f"bad term {token!r} in angle {text!r}")
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"bad term {token!r} in angle {text!r}") from exc
    return Angle(frac, tuple(syms))
