"""The frozen records of every layer: fields, freezing, value equality, repr
and copies, one sample of each of the 16 record classes."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from braidphase import verify
from braidphase.artin import FreeAutomorphism
from braidphase.braid import BraidWord, GarsideForm, Permutation, PureWord
from braidphase.cocycle import (
    BraidOneCocycle,
    CocycleValidation,
    PureOneCocycle,
    SemidirectElement,
    SigmaRegularReport,
    TwoCocycleSigmaPhi,
    Verdict,
)
from braidphase.errors import _Record
from braidphase.freegroup import Character, FreeWord
from braidphase.phase import Angle

A, Z, H = Angle(Fraction(1, 3), (("th1", -2),)), Angle(), Angle(Fraction(1, 2))
X1, X2 = FreeWord(2, ((1, 1),)), FreeWord(2, ((2, 1),))
P132, P213 = Permutation((1, 3, 2)), Permutation((2, 1, 3))
TABLE = ((Z, H, Z), (Z, Z, H))
TABLE_TEXT = "((Angle('0'), Angle('1/2'), Angle('0')), (Angle('0'), Angle('0'), Angle('1/2')))"
RUN = verify.REGISTRY[0][3]  # a module-level check function: it pickles by name

# (class, constructor arguments, field names, repr).  The field names are the
# dataclass fields these classes had; a Python that stores class annotations
# differently must fail here, not change what a record compares.
RECORDS = [
    (Angle, (Fraction(1, 3), (("th1", -2),)), ("num", "den", "syms"), "Angle('1/3 - 2*th1')"),
    (FreeWord, (2, ((1, 2), (2, -1))), ("rank", "letters"), "FreeWord(2, 'x1^2*x2^-1')"),
    (Character, (2, (A, Z)), ("rank", "values"),
     "Character(rank=2, values=(Angle('1/3 - 2*th1'), Angle('0')))"),
    (FreeAutomorphism, (2, (X2, X1)), ("rank", "images"),
     "FreeAutomorphism(rank=2, images=(FreeWord(2, 'x2'), FreeWord(2, 'x1')))"),
    (Permutation, ((1, 3, 2),), ("image",), "Permutation(image=(1, 3, 2))"),
    (BraidWord, (3, ((1, 1), (2, -2))), ("strands", "letters"), "BraidWord(3, 's1*s2^-2')"),
    (GarsideForm, (3, -1, (P132, P213)), ("strands", "power", "factors"),
     "GarsideForm(strands=3, power=-1, factors=(Permutation(image=(1, 3, 2)), "
     "Permutation(image=(2, 1, 3))))"),
    (PureWord, (3, (((1, 2), 1), ((2, 3), -1))), ("strands", "letters"),
     "PureWord(3, 'a(1,2)*a(2,3)^-1')"),
    (BraidOneCocycle, (3, TABLE), ("n", "table"), f"BraidOneCocycle(n=3, table={TABLE_TEXT})"),
    (CocycleValidation, (False, ("rel1[i=1]",)), ("ok", "relation_violations"),
     "CocycleValidation(ok=False, relation_violations=('rel1[i=1]',))"),
    (PureOneCocycle, (2, ((A, Z),)), ("n", "rows"),
     "PureOneCocycle(n=2, rows=((Angle('1/3 - 2*th1'), Angle('0')),))"),
    (SemidirectElement, (X1, BraidWord(2, ((1, 1),))), ("free", "braid"),
     "SemidirectElement(FreeWord(2, 'x1'), BraidWord(2, 's1'))"),
    (TwoCocycleSigmaPhi, (BraidOneCocycle(3, TABLE),), ("cocycle",),
     f"TwoCocycleSigmaPhi(cocycle=BraidOneCocycle(n=3, table={TABLE_TEXT}))"),
    (SigmaRegularReport, (True, (Z, Z)), ("regular", "discrepancies"),
     "SigmaRegularReport(regular=True, discrepancies=(Angle('0'), Angle('0')))"),
    (Verdict, ("bn", 3, "NotFactor", "prop:x", {"mu1": "1/2"}),
     ("family", "n", "verdict", "citation", "details"),
     "Verdict(family='bn', n=3, verdict='NotFactor', citation='prop:x', details={'mu1': '1/2'})"),
    (verify.Check, ("artin-relations.n3", "braid", "prop:y", RUN),
     ("id", "suite", "citation", "run"),
     f"Check(id='artin-relations.n3', suite='braid', citation='prop:y', run={RUN!r})"),
]
# SemidirectElement compares braids by the word problem, so it has no hash;
# a Verdict holds a dict
UNHASHABLE = (SemidirectElement, Verdict)


@pytest.mark.parametrize("cls, args, fields, text", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(cls, args, fields, text):
    record, twin = cls(*args), cls(*args)
    assert issubclass(cls, _Record) and cls._fields == fields
    assert repr(record) == text
    for name in (*fields, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert record == twin and record is not twin and not record != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:  # the field tuple's hash, as dataclass gave: set orders stay as they were
        assert hash(record) == hash(twin) == hash(tuple(getattr(record, f) for f in fields))
    for other_cls, other_args, _, _ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(*other_args)
    with pytest.raises(TypeError):
        cls(*args, None)
    if cls.__init__ is _Record.__init__:  # the shared constructor also binds names
        by_name = dict(zip(fields, args))
        assert cls(**by_name) == record == cls(args[0], **dict(zip(fields[1:], args[1:])))
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, **{fields[0]: args[0]})
        with pytest.raises(TypeError):
            cls(**by_name, other=0)
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record


def test_records_compare_every_field_and_the_class():
    # the three word types hold the same field values (2, ()) here
    assert FreeWord(2) != BraidWord(2) != PureWord(2) != FreeWord(2)
    assert FreeWord(2) != FreeWord(3) and FreeWord(2) != X1
    assert P132 != P213 and GarsideForm(3, 0, ()) != GarsideForm(3, 1, ())
    assert Verdict("bn", 3, "NotFactor", "c", {}) != Verdict("bn", 3, "NotFactor", "c", {"a": "b"})
    assert len({FreeWord(2), FreeWord(2), BraidWord(2), PureWord(2)}) == 3
