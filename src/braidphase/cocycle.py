"""Circle-valued 1-cocycles for the braid action, induced 2-cocycles, verdicts.

A 1-cocycle for the action of the braid group on the free group is a map
``phi(a, x)`` that is a character in ``x`` and satisfies the twisted
additivity ``phi(ab, x) = phi(a, b.x) + phi(b, x)`` (all circle values are
written additively, see :mod:`braidphase.phase`).  On the braid group such a
cocycle is determined by the finite table ``phi(s_i, x_j)``, and valid tables
are exactly those satisfying four relation families:

  rel1:  phi(s_{i+1}, x_i) = phi(s_i, x_{i+2})
  rel2:  phi(s_i, x_i) + phi(s_i, x_{i+1}) is the same for every i
  rel3:  phi(s_i, x_j) = phi(s_{i+1}, x_j) for j outside {i, i+1, i+2}
  rel4:  (four or more strands) each row is constant off its own band

These families are the decision (:func:`validate_braid_cocycle`, O(n^2)
comparisons).  The ``cocycle-extension`` check of :mod:`braidphase.verify`
decides them against extension on a table with a symbol per entry: both
sides of each defining relation at each x_k give an integer form, and these
forms have rank (n-1)n - p with unit pivots, for the p = n+1 parameters
(mu1, mu2, diag) of :func:`build_braid_cocycle` (p = 2 on two strands), so
that function builds every valid table.
:func:`extend` keeps one count per row in its letter loop, that of phi(s_i,
x_{i+1}); the rest follows from the final exponent-sum vector and, as rel1,
rel3 and rel4 make every off-band entry mu2, from one total.

Up to coboundary a table is classified by ``mu1 = phi(s_i,x_i)+phi(s_i,x_{i+1})``
and, from three strands on, the common off-band value ``mu2``.  On the pure
braid group every shape-correct table is a cocycle (the action on characters
is trivial), so cocycles are plain homomorphisms there.

Each 1-cocycle induces a normalized 2-cocycle ``sigma((x,a),(y,b)) = phi(a,y)``
on the semidirect product, and the module evaluates the resulting
simplicity / unique-trace / factor criteria exactly, reporting one of the
verdicts ``SimpleAndUniqueTrace``, ``GuaranteedSimpleAndUniqueTrace``,
``NotFactor`` or ``Indeterminate`` together with the criterion it cites.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence

from . import artin
from .braid import (
    BraidWord,
    PureWord,
    _full_word,
    _pair_index,
    _pairs,
    center_z,
    equal as braid_equal,
    is_inner_for_pure,
    is_pure,
    linking_numbers,
)
from .errors import MissingOmegaError, ParseError, RankError, _Record
from .freegroup import Character, FreeWord, _parse_token
from .phase import Angle, parse_angle

__all__ = [
    "BraidOneCocycle",
    "PureOneCocycle",
    "SemidirectElement",
    "TwoCocycleSigmaPhi",
    "CocycleValidation",
    "SigmaRegularReport",
    "Verdict",
    "build_braid_cocycle",
    "validate_braid_cocycle",
    "extend",
    "mu_phi",
    "mu_params",
    "similar_braid_cocycles",
    "coboundary_of_character",
    "build_pure_cocycle",
    "nu",
    "extend_pure",
    "restrict_to_pure",
    "sigma_regular",
    "center_element",
    "evaluate_conditions",
    "cocycle_to_json",
    "cocycle_from_json",
]

# ---------------------------------------------------------------------------
# Braid-group 1-cocycles
# ---------------------------------------------------------------------------

class BraidOneCocycle(_Record):
    """Table phi(s_i, x_j): row i-1, column j-1; shape (n-1) x n.

    The record stores any shape-correct table so that the validator can
    report on broken ones; tables produced by :func:`build_braid_cocycle`
    satisfy the relation families by construction.
    """

    n: int
    table: tuple[tuple[Angle, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise RankError(f"a cocycle table needs at least 2 strands, got {self.n}")
        if len(self.table) != self.n - 1 or any(len(r) != self.n for r in self.table):
            raise ValueError(f"table must be {self.n - 1} x {self.n}")

    def entry(self, i: int, j: int) -> Angle:
        """phi(s_i, x_j), 1-based."""
        return self.table[i - 1][j - 1]


def build_braid_cocycle(
    n: int,
    mu1: Angle,
    mu2: Angle | None = None,
    diag: Sequence[Angle] | None = None,
) -> BraidOneCocycle:
    """The cocycle with phi(s_i,x_i)=diag[i], phi(s_i,x_{i+1})=mu1-diag[i],
    and every off-band entry equal to mu2 (ignored when n = 2)."""
    if n < 2:
        raise RankError(f"a braid cocycle needs at least 2 strands, got {n}")
    if mu2 is None:
        mu2 = Angle.zero()
    if diag is None:
        diag = [Angle.zero()] * (n - 1)
    if len(diag) != n - 1:
        raise RankError(f"need {n - 1} diagonal values for {n} strands, got {len(diag)}")
    rows = []
    for i in range(1, n):
        row = [mu2] * n
        row[i - 1] = diag[i - 1]
        row[i] = mu1 - diag[i - 1]
        rows.append(tuple(row))
    return BraidOneCocycle(n, tuple(rows))


class CocycleValidation(_Record):
    """Validator outcome: the relation-family instances the table violates."""

    ok: bool
    relation_violations: tuple[str, ...]


def validate_braid_cocycle(c: BraidOneCocycle) -> CocycleValidation:
    """Check the four relation families, which decide validity: each failing
    instance of rel1-rel3 is named, and each row that breaks rel4."""
    n, e = c.n, c.entry
    rel = [f"rel1[i={i}]" for i in range(1, n - 1) if e(i + 1, i) != e(i, i + 2)]
    rel += [f"rel2[i={i}]" for i in range(1, n - 1)
            if e(i, i) + e(i, i + 1) != e(i + 1, i + 1) + e(i + 1, i + 2)]
    rel += [f"rel3[i={i},j={j}]" for i in range(1, n - 1) for j in range(1, n + 1)
            if j not in (i, i + 1, i + 2) and e(i, j) != e(i + 1, j)]
    if n >= 4:
        for i, row in enumerate(c.table[:-1], start=1):
            off = row[:i - 1] + row[i + 1:]
            if off.count(off[0]) != len(off):  # one label per row, n comparisons
                rel.append(f"rel4[i={i}]")
    return CocycleValidation(not rel, tuple(rel))


def extend(c: BraidOneCocycle, a: BraidWord, x: FreeWord) -> Angle:
    """Evaluate the cocycle on an arbitrary braid word and free word.

    Uses phi(l w, x) = phi(l, w.x) + phi(w, x) with phi(s^-1, y) =
    -phi(s, s^-1.y).  phi(a, -) is a character and the action permutes the
    exponent-sum vector v of x, so each letter s_i^{+-1} adds +-v into row i
    of a count matrix N and the value is sum N_ij phi(s_i, x_j).  The letter
    swaps v_i and v_{i+1}: sum(v) stays, and v_{i+1} + ... + v_n changes by
    what the letter adds to N_ii - N_i,i+1.  So one pass keeps only N_i,i+1,
    N_ii follows from the final v, and all off-band counts total e sum(v) -
    sum(N_ii + N_i,i+1) for the word's exponent sum e, weighted by mu2, a
    value two of phi(s_1, x_3), phi(s_2, x_1), phi(s_{n-1}, x_1) share if any.
    Off-band entries unlike mu2 (none in a valid table) take their own counts
    off that total in a second pass, over the runs.  O(L + n^2) integer
    steps, plus O(L (1 + d)) for d such entries in a row.
    """
    if a.strands != c.n or x.rank != c.n:
        raise RankError("cocycle, braid word and free word must share one rank")
    n, table, start = c.n, c.table, (0, *x.abelianize())  # start, v, band, dev: 1-based
    v, band = list(start), [0] * n  # band[i] = N_i,i+1
    for i, sign in reversed(a.units):
        p, q = v[i], v[i + 1]
        v[i], v[i + 1] = q, p
        band[i] += q if sign == 1 else -p
    s1x3, s2x1, last = (table[0][2], table[1][0], table[-1][0]) if n > 2 else (None,) * 3
    mu2 = s1x3 if s1x3 is s2x1 or s1x3 == s2x1 or s1x3 is last or s1x3 == last else s2x1
    off = sum(e for _, e in a.letters) * sum(v)
    terms, dev, drift = [], {}, 0
    for i, row in zip(range(n - 1, 0, -1), reversed(table)):
        drift += v[i + 1] - start[i + 1]  # the change of v_{i+1} + ... + v_n
        terms += ((band[i] + drift, row[i - 1]), (band[i], row[i]))
        off -= 2 * band[i] + drift
        if (rest := row[:i - 1] + row[i + 1:]).count(mu2) != len(rest):  # in C, identity first
            dev[i] = [[j, 0] for j in range(1, n + 1) if j not in (i, i + 1) and row[j - 1] != mu2]
    if dev:  # back from the final v, left to right: a run s_i^e moves no off-band v_j of row i
        for i, e in a.letters:
            if i in dev:
                for count in dev[i]:
                    count[1] += e * v[count[0]]
            if e % 2:
                v[i], v[i + 1] = v[i + 1], v[i]
        own = [(m, table[i - 1][j - 1]) for i, counts in dev.items() for j, m in counts]
        terms, off = terms + own, off - sum(m for m, _ in own)
    terms.append((off, mu2))  # off is 0 on two strands, where mu2 is None
    return Angle.combination((k, angle) for k, angle in terms if k)


def mu_phi(c: BraidOneCocycle) -> Angle:
    """Sum of all table entries, the total phase of the cocycle."""
    return Angle.combination((1, value) for row in c.table for value in row)


def mu_params(c: BraidOneCocycle) -> tuple[Angle, Angle | None]:
    """(mu1, mu2); mu2 is None for two strands where it does not exist."""
    mu1 = c.entry(1, 1) + c.entry(1, 2)
    mu2 = c.entry(1, 3) if c.n >= 3 else None
    return mu1, mu2


def coboundary_of_character(f: Character) -> BraidOneCocycle:
    """The cocycle h(s_i, x_j) = f(s_i . x_j) - f(x_j)."""
    n = f.rank
    rows = []
    for i in range(1, n):
        row = [Angle.zero()] * n
        row[i - 1] = f.values[i] - f.values[i - 1]
        row[i] = f.values[i - 1] - f.values[i]
        rows.append(tuple(row))
    return BraidOneCocycle(n, tuple(rows))


def similar_braid_cocycles(c1: BraidOneCocycle, c2: BraidOneCocycle) -> Character | None:
    """Witness character f with (c1 - c2)(s_i, x) = f(s_i . x) - f(x), or None.

    Two valid cocycles are similar exactly when their (mu1, mu2) parameters
    agree; the witness is produced by the recurrence f(x_1) = 0,
    f(x_{i+1}) = f(x_i) + (c1 - c2)(s_i, x_i) and verified before returning.
    A table that is not a braid table raises :class:`ParseError`.  Both tables
    must pass :func:`validate_braid_cocycle`, which is not checked here (the
    tables of :func:`cocycle_from_json` and :func:`build_braid_cocycle` do): an
    invalid table may get a witness, even one equal to itself.
    """
    if not isinstance(c1, BraidOneCocycle) or not isinstance(c2, BraidOneCocycle):
        raise ParseError("classification expects braid cocycle tables")
    if c1.n != c2.n:
        raise RankError(f"rank mismatch: {c1.n} vs {c2.n}")
    if mu_params(c1) != mu_params(c2):
        return None
    n = c1.n
    values = [Angle.zero()]
    for i in range(1, n):
        values.append(values[-1] + (c1.entry(i, i) - c2.entry(i, i)))
    witness = Character(n, tuple(values))
    for row1, row2, row in zip(c1.table, c2.table, coboundary_of_character(witness).table):
        if any(a != b + h for a, b, h in zip(row1, row2, row)):
            raise ValueError(
                "matching parameters but witness equation fails; "
                "are both tables valid cocycles?"
            )
    return witness


# ---------------------------------------------------------------------------
# Pure-braid 1-cocycles
# ---------------------------------------------------------------------------

class PureOneCocycle(_Record):
    """Table phi(a_{i,j}, x_k) for 1 <= i < j <= n, 1 <= k <= n.

    Every shape-correct table is a cocycle: pure braids act trivially on
    characters, so cocycles on the pure braid group are plain homomorphisms.
    Rows are stored in the column order a12, a13, a23, a14, ...
    """

    n: int
    rows: tuple[tuple[Angle, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise RankError(f"a cocycle table needs at least 2 strands, got {self.n}")
        expected = len(_pairs(self.n))
        if len(self.rows) != expected or any(len(r) != self.n for r in self.rows):
            raise ValueError(f"table must be {expected} x {self.n}")

    def entry(self, i: int, j: int, k: int) -> Angle:
        """phi(a_{i,j}, x_k), 1-based."""
        if not 1 <= i < j <= self.n:
            raise ValueError(f"need 1 <= i < j <= {self.n}, got i={i}, j={j}")
        return self.rows[_pair_index(i, j)][k - 1]


def build_pure_cocycle(
    n: int, table: Mapping[tuple[int, int], Sequence[Angle]]
) -> PureOneCocycle:
    """Build from a mapping (i, j) -> values on x_1..x_n; missing rows are zero."""
    rows = []
    for pair in _pairs(n):
        row = table.get(pair)
        if row is None:
            rows.append(tuple([Angle.zero()] * n))
        else:
            if len(row) != n:
                raise ValueError(f"row for a{pair} must have {n} entries")
            rows.append(tuple(row))
    return PureOneCocycle(n, tuple(rows))


def nu(c: PureOneCocycle, k: int) -> Angle:
    """Column sum: the value of the cocycle on the full twist at x_k."""
    return Angle.combination((1, row[k - 1]) for row in c.rows)


def extend_pure(c: PureOneCocycle, w: PureWord, x: FreeWord) -> Angle:
    """Evaluate on an a-alphabet word; additive over letters because the
    action is trivial on characters, multiplicative over the free argument.

    The value depends only on the exponent sum e_ij of each a_{i,j} in w
    and the exponent sums x_k of x: sum e_ij x_k phi(a_{i,j}, x_k), formed
    once from integer counts.
    """
    if w.strands != c.n or x.rank != c.n:
        raise RankError("cocycle, pure word and free word must share one rank")
    ab = x.abelianize()
    exps = [0] * len(c.rows)
    for (i, j), exp in w.letters:
        exps[_pair_index(i, j)] += exp
    return Angle.combination(
        (exp * coeff, angle)
        for exp, row in zip(exps, c.rows)
        if exp
        for coeff, angle in zip(ab, row)
        if coeff
    )


def restrict_to_pure(c: BraidOneCocycle) -> PureOneCocycle:
    """Table entry (i, j, k) = phi(a_{i,j}, x_k), read off the table.

    a_{i,j} = w s_i^2 w^-1 with w = s_{j-1}...s_{i+1}; in :func:`extend` the
    parts of w and w^-1 cancel, leaving s_i^2 on x_k moved by w^-1.  With
    c(i,m) = phi(s_i, x_m) the entry is c(i,i) + c(i,i+1) for k in {i, j},
    2 c(i,k+1) for i < k < j and 2 c(i,k) otherwise, for every shape-correct
    table, valid or not.
    """
    band = [c.entry(i, i) + c.entry(i, i + 1) for i in range(1, c.n)]
    doubled = [tuple(v.scale(2) for v in row) for row in c.table]
    return PureOneCocycle(c.n, tuple(
        tuple(band[i - 1] if k in (i, j) else doubled[i - 1][k if i < k < j else k - 1]
              for k in range(1, c.n + 1))
        for i, j in _pairs(c.n)
    ))


# ---------------------------------------------------------------------------
# Semidirect-product elements and induced 2-cocycles
# ---------------------------------------------------------------------------

class SemidirectElement(_Record):
    """An element (x, a) of F_n x| B_n with (x,a)(y,b) = (x * a.y, ab).

    Equality is componentwise: reduced words on the free side, the braid
    equality oracle on the braid side.
    """

    free: FreeWord
    braid: BraidWord

    def __post_init__(self) -> None:
        if self.free.rank != self.braid.strands:
            raise RankError(
                f"free rank {self.free.rank} vs strand count {self.braid.strands}"
            )

    @classmethod
    def identity(cls, n: int) -> SemidirectElement:
        return cls(FreeWord.identity(n), BraidWord.identity(n))

    @property
    def n(self) -> int:
        return self.free.rank

    def __mul__(self, other: SemidirectElement) -> SemidirectElement:
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        if self.n != other.n:
            raise RankError(f"rank mismatch: {self.n} vs {other.n}")
        acted = artin.apply_braid(self.braid, other.free)
        return SemidirectElement(self.free * acted, self.braid * other.braid)

    def inverse(self) -> SemidirectElement:
        binv = self.braid.inverse()
        return SemidirectElement(artin.apply_braid(binv, self.free.inverse()), binv)

    @property
    def is_central(self) -> bool:
        """Commuting with every (y, e) means b pure and is_inner_for_pure(b) = w,
        so b = z^k and w = (x1...xn)^k, which every braid fixes: (w, b) commutes
        with every (e, c) too.  F_1 x| B_1 = Z is abelian.  No product is taken."""
        if self.n == 1:
            return True
        return is_pure(self.braid) and is_inner_for_pure(self.braid) == self.free

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return self.free == other.free and braid_equal(self.braid, other.braid)

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"({self.free}, {self.braid})"

    def __repr__(self) -> str:
        return f"SemidirectElement({self.free!r}, {self.braid!r})"


def center_element(n: int, k: int = 1) -> SemidirectElement:
    """((x1...xn)^k, z^k), the k-th power of the central generator."""
    return SemidirectElement(_full_word(n) ** k, center_z(n) ** k)


class TwoCocycleSigmaPhi(_Record):
    """The normalized 2-cocycle sigma((x,a),(y,b)) = phi(a, y).

    The underlying 1-cocycle may live on the braid group (elements of
    F_n x| B_n) or on the pure braid group.  A pure cocycle is a
    homomorphism on P_n, so it factors through H_1(P_n): the braid
    component is evaluated through its pairwise linking numbers, as the
    abelian word prod a_{p,q}^{lk(p,q)}, with no rewriting into the
    a-alphabet.
    """

    cocycle: BraidOneCocycle | PureOneCocycle

    @property
    def n(self) -> int:
        return self.cocycle.n

    def evaluate(self, g1: SemidirectElement, g2: SemidirectElement) -> Angle:
        if g1.n != self.n or g2.n != self.n:
            raise RankError("elements do not match the cocycle rank")
        if isinstance(self.cocycle, BraidOneCocycle):
            return extend(self.cocycle, g1.braid, g2.free)
        abelian = PureWord(self.n, tuple(linking_numbers(g1.braid).items()))
        return extend_pure(self.cocycle, abelian, g2.free)


class SigmaRegularReport(_Record):
    """Discrepancies sigma(g, h) - sigma(h, g) of a central g at the
    generators h = x1..xn, s1..s_{n-1}, in that order; ``regular`` (every
    discrepancy zero) decides whether g is sigma-regular."""

    regular: bool
    discrepancies: tuple[Angle, ...]


def _generators(n: int) -> list[SemidirectElement]:
    """x1..xn, then s1..s_{n-1}, as elements of the semidirect product."""
    e, one = FreeWord.identity(n), BraidWord.identity(n)
    return [SemidirectElement(FreeWord.generator(n, j), one) for j in range(1, n + 1)] + [
        SemidirectElement(e, BraidWord.generator(n, i)) for i in range(1, n)]


def sigma_regular(sigma: TwoCocycleSigmaPhi, g: SemidirectElement) -> SigmaRegularReport:
    """Decide whether the central element g is sigma-regular, that is whether
    sigma(g, h) = sigma(h, g) for every h.  For central g, h -> sigma(g, h) -
    sigma(h, g) is a character (Kleppner, "Multipliers on abelian groups",
    Math. Ann. 158, 1965), so its values at the generators decide.  Raises
    ValueError unless ``g.is_central``."""
    if not g.is_central:
        raise ValueError(f"{g} is not central")
    found = tuple(sigma.evaluate(g, h) - sigma.evaluate(h, g) for h in _generators(g.n))
    return SigmaRegularReport(not any(found), found)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

class Verdict(_Record):
    """Outcome of a simplicity / unique-trace / factor criterion.

    ``verdict`` is one of SimpleAndUniqueTrace, GuaranteedSimpleAndUniqueTrace,
    NotFactor, Indeterminate.  ``citation`` names the criterion relied on and
    ``details`` records the exactly computed angles behind the decision.
    """

    family: str
    n: int
    verdict: str
    citation: str
    details: dict[str, str]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "verdict": self.verdict,
            "by": self.citation,
            "details": dict(sorted(self.details.items())),
        }


# What sets the families apart: a braid family's citation, and a pure family's
# iff rank, its citations at that rank, above it and for Kleppner's condition,
# and its row-sum key.  A citation names the criterion a verdict relies on; the
# statements are in the docstring of evaluate_conditions.
_BRAID_FAMILIES = {"bn": "thm:braid-deformation-iff", "an": "prop:annular-kleppner-iff"}
_PURE_FAMILIES = {
    "pn": (2, "thm:pure-deformation-iff-rank2", "thm:pure-deformation-sufficient",
           "lem:pure-kleppner-criterion", "phi(a({i},{j}),x1..x{n})"),
    "mackey": (3, "prop:pure-tower-mackey-iff-rank3", "prop:pure-tower-mackey",
               "prop:pure-tower-mackey", "condition-iv(a({i},{j}))"),
}


def evaluate_conditions(
    family: str,
    table: BraidOneCocycle | PureOneCocycle,
    omega: Mapping[tuple[str, str], Angle] | None = None,
) -> Verdict:
    """The verdict of family 'bn', 'an', 'pn' or 'mackey' (any case) on a table.

    ``bn`` and ``an`` read a braid table: the deformed crossed products are
    simple with a unique trace, and the weak closure is a factor, exactly
    when the total phase mu is nontorsion.  The table must pass
    :func:`validate_braid_cocycle`, which is not checked here (the tables of
    :func:`cocycle_from_json` and :func:`build_braid_cocycle` do); an invalid
    one gets a verdict by its mu all the same.  For the annular braid group (one
    strand more) twisted C*-simplicity, the unique trace property and
    Kleppner's condition are all equivalent; an external 2-cocycle component
    cannot interfere, since central elements are regular for any 2-cocycle
    lifted from the quotient.

    ``pn`` and ``mackey`` read a pure table; ``mackey``, the 2-cocycle
    sigma(xa, yb) = phi(a, y) + omega(a, b) on the tower group, needs
    ``omega``.  Some column sum nu_k nontorsion is sufficient, and an iff on
    two strands (pn) or three (mackey).  Otherwise Kleppner's condition asks
    whether some row sum phi(a_{ij}, x1...xn), for mackey plus
    omega(a_{ij}, z) - omega(z, a_{ij}), is nontorsion: if none is the weak
    closure is not a factor, and if one is the answer is open (Indeterminate).

    ``omega`` is the table of :func:`omega_from_json`, read as given: the
    values ``omega[("a(i,j)", "z")]`` and ``omega[("z", "a(i,j)")]``, where
    ``z`` is the full twist (``a(1,2)`` itself on two strands).  A pair it
    lacks raises :class:`MissingOmegaError`; a table of the other kind, and
    on two strands unequal values for the one pair, raise :class:`ParseError`.
    """
    family = family.lower()
    if family not in _BRAID_FAMILIES and family not in _PURE_FAMILIES:
        raise ValueError(f"unknown condition family {family!r}")
    kind = "braid" if family in _BRAID_FAMILIES else "pure"
    if not isinstance(table, BraidOneCocycle if kind == "braid" else PureOneCocycle):
        raise ParseError(f"family {family} expects a {kind} cocycle table")
    n = table.n
    if kind == "braid":
        mu = mu_phi(table)
        details = {"mu": str(mu), "mu_is_torsion": str(mu.is_torsion).lower()}
        if mu.is_torsion and family == "bn":
            details["mu_torsion_order"] = str(mu.torsion_order())
        verdict = "NotFactor" if mu.is_torsion else "SimpleAndUniqueTrace"
        return Verdict(family, n, verdict, _BRAID_FAMILIES[family], details)
    if family == "mackey" and omega is None:
        raise MissingOmegaError("the mackey family needs omega values")
    if family == "mackey" and n == 2:  # z = a(1,2), so the two keys name one pair
        a = _label((1, 2))
        keys = [k for k in ((a, "z"), ("z", a)) if k in omega]
        if len(keys) == 2 and omega[keys[0]] != omega[keys[1]]:
            raise ParseError(f"omega values for {keys[0]} and {keys[1]} differ, but z = a(1,2)")
    iff_rank, cit_iff, cit_sufficient, cit_kleppner, key = _PURE_FAMILIES[family]
    nus = [nu(table, k) for k in range(1, n + 1)]
    details = {f"nu{k}": str(v) for k, v in enumerate(nus, start=1)}
    if any(not v.is_torsion for v in nus):
        if n == iff_rank:
            return Verdict(family, n, "SimpleAndUniqueTrace", cit_iff, details)
        return Verdict(family, n, "GuaranteedSimpleAndUniqueTrace", cit_sufficient, details)
    if family == "pn" and n == 2:  # the one row sum is nu_1 + nu_2
        return Verdict(family, n, "NotFactor", cit_iff, details)
    sums = []
    for (i, j), row in zip(_pairs(n), table.rows):
        total = Angle.combination((1, v) for v in row)
        if family == "mackey":
            a = _label((i, j))
            missing = next((k for k in ((a, "z"), ("z", a)) if k not in omega), None)
            if missing:
                raise MissingOmegaError(f"omega value for {missing} not supplied")
            total = total + omega[a, "z"] - omega["z", a]
        sums.append(total)
        details[key.format(i=i, j=j, n=n)] = str(total)
    if any(not v.is_torsion for v in sums):
        details["kleppner"] = "holds"
        if family == "mackey" and n == iff_rank:
            details["note"] = (
                "corrected row sums nontorsion while every nu_k is torsion; "
                "on three strands the two conditions are equivalent, so the "
                "supplied omega values are not consistent with any 2-cocycle"
            )
        return Verdict(family, n, "Indeterminate", cit_kleppner, details)
    details["kleppner"] = "fails"
    return Verdict(family, n, "NotFactor", cit_iff if n == iff_rank else cit_kleppner, details)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

# Entries a cocycle document's table may hold, (n-1)*n for a braid table and
# n*n(n-1)/2 for a pure one; past it cocycle_from_json and cocycle-build raise
# ParseError before building the table, so that a one-line document or command
# with a large n starts no quadratic or cubic work.  Tables up to n = 316
# (braid) or n = 58 (pure) fit.
MAX_COCYCLE_ENTRIES = 100_000


def _check_entry_cap(n: int, pure: bool) -> None:
    """Raise ParseError if an n-strand table would pass MAX_COCYCLE_ENTRIES;
    fewer than 2 strands is left to the table's own RankError."""
    n = max(n, 1)
    size = n * n * (n - 1) // 2 if pure else (n - 1) * n
    if size > MAX_COCYCLE_ENTRIES:
        raise ParseError(f"cocycle table of {size} entries, past the cap of {MAX_COCYCLE_ENTRIES}")


def _label(index: int | tuple[int, int]) -> str:
    """A generator's label in a document: s<i> for i, a(i,j) for (i, j)."""
    return f"s{index}" if isinstance(index, int) else "a({},{})".format(*index)


def cocycle_to_json(c: BraidOneCocycle | PureOneCocycle) -> dict:
    """Serialize a cocycle table to {"n": ..., "entries": [[gen, x, angle]]}."""
    keys, rows = ((range(1, c.n), c.table) if isinstance(c, BraidOneCocycle)
                  else (_pairs(c.n), c.rows))
    entries = [[_label(key), f"x{k}", str(value)]
               for key, row in zip(keys, rows) for k, value in enumerate(row, start=1)]
    return {"n": c.n, "entries": entries}


def cocycle_from_json(doc: Mapping) -> BraidOneCocycle | PureOneCocycle:
    """Inverse of :func:`cocycle_to_json`; the flavor is read off the labels,
    and a document without entries is a pure table of zeros.
    ``n`` must be a JSON integer and no (generator, x_k) entry may repeat.
    A braid table must pass :func:`validate_braid_cocycle`, and no table may
    hold more than :data:`MAX_COCYCLE_ENTRIES` entries."""
    try:
        n = doc["n"]
        raw_entries = list(doc["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("cocycle document needs 'n' and 'entries'") from exc
    if type(n) is not int:  # not 3.9, "3" or true
        raise ParseError(f"cocycle document's 'n' must be an integer, got {n!r}")
    rows: dict[int | tuple[int, int], dict[int, Angle]] = {}  # by s_i's i or a(i,j)'s (i, j)
    parse = functools.cache(parse_angle)  # once per text: equal entries share one Angle
    for item in raw_entries:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ParseError(f"bad entry {item!r}")
        index, _ = _parse_token(str(item[0]).strip(), "sa", power=False)
        k, _ = _parse_token(str(item[1]).strip(), "x", power=False)
        if not 1 <= k <= n:
            raise ParseError(f"free generator x{k} out of range")
        value = parse(str(item[2]))
        braid = isinstance(index, int)
        if not (1 <= index <= n - 1 if braid else 1 <= index[0] < index[1] <= n):
            kind = "braid" if braid else "pure"
            raise ParseError(f"{kind} generator {_label(index)} out of range")
        row = rows.setdefault(index, {})
        if k in row:
            raise ParseError(f"repeated entry for {_label(index)}, x{k}")
        row[k] = value
    kinds = {type(index) for index in rows}
    if len(kinds) > 1:
        raise ParseError("document mixes braid and pure generator labels")
    pure = int not in kinds
    _check_entry_cap(n, pure)
    zero = Angle.zero()  # shared, so that validation compares missing entries by identity
    table = tuple(tuple(rows.get(key, {}).get(k, zero) for k in range(1, n + 1))
                  for key in (_pairs(n) if pure else range(1, n)))
    if pure:
        return PureOneCocycle(n, table)
    c = BraidOneCocycle(n, table)
    report = validate_braid_cocycle(c)
    if not report.ok:
        raise ParseError(f"braid table is not a cocycle: {', '.join(report.relation_violations)}")
    return c


def omega_from_json(doc: Mapping, n: int) -> dict[tuple[str, str], Angle]:
    """Read omega values [["a(i,j)"|"z", same, angle], ...], each pair once, into
    the table {(label, label): angle} that :func:`evaluate_conditions` reads;
    labels are written a(i,j) and z, without spaces or leading zeros."""
    if not isinstance(doc, (list, tuple)):
        raise ParseError(f"omega must be a list of entries, got {doc!r}")
    values: dict[tuple[str, str], Angle] = {}
    for item in doc:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise ParseError(f"bad omega entry {item!r}")
        labels = [str(label).strip() for label in item[:2]]
        for pos, label in enumerate(labels):
            if label != "z":
                (i, j), _ = _parse_token(label, "a", power=False)
                if not 1 <= i < j <= n:
                    raise ParseError(f"bad omega label {label!r}")
                labels[pos] = _label((i, j))
        key = tuple(labels)
        if key in values:
            raise ParseError(f"repeated omega entry for {key[0]}, {key[1]}")
        values[key] = parse_angle(str(item[2]))
    return values
