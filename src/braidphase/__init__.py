"""Exact braid groups, the braid action on free groups, and circle-valued
cocycle deformations, with machine-checkable identities throughout.

The modules are layers, each importing only the ones before it:
:mod:`~braidphase.errors` (the exception types and the frozen-record base of
every value type), :mod:`~braidphase.phase` (circle values, written
additively), then :mod:`~braidphase.freegroup`,
:mod:`~braidphase.artin` (the action ``B_n -> Aut F_n``),
:mod:`~braidphase.braid` (the word problem and pure braids) and
:mod:`~braidphase.cocycle`.  A public name is declared once, in its layer's
``__all__``; the package re-exports their union.  :mod:`~braidphase.verify`
and :mod:`~braidphase.cli` sit on top and are not imported here.
"""

from . import artin, braid, cocycle, errors, freegroup, phase
from .artin import *
from .braid import *
from .cocycle import *
from .errors import *
from .freegroup import *
from .phase import *

__version__ = "0.1.0"

__all__ = sorted(
    {name for layer in (phase, errors, freegroup, artin, braid, cocycle) for name in layer.__all__}
)
