"""Exception types shared across the package, and the frozen record base of
its value types."""

import operator

__all__ = ["MissingOmegaError", "ParseError", "RankError"]


class ParseError(ValueError):
    """A word or angle expression could not be parsed."""


class RankError(ValueError):
    """Operands live in groups of different rank / strand count."""


class MissingOmegaError(ValueError):
    """A required value of an external 2-cocycle was not supplied."""


_set = object.__setattr__


class _Record:
    """A frozen value whose fields are its class's annotations, in order.

    Construction sets the fields, positionally or by name, then calls
    ``self.__post_init__()``.  ``==`` compares the fields, ``hash`` hashes
    their tuple, and records of different classes are never equal.  ``repr``
    prints ``Name(field=value, ...)``.  Setting or deleting an attribute
    raises ``dataclasses.FrozenInstanceError``.  No code is generated per class.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(dict.fromkeys((*cls._fields, *cls.__annotations__)))
        if fields:  # attrgetter of one name returns the bare value, hashed as a 1-tuple
            cls._values = get = operator.attrgetter(*fields)
            cls._key = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields) or kwargs.keys() != set(fields[len(args):]):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
            args += tuple(map(kwargs.__getitem__, fields[len(args):]))
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
