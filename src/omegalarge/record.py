"""The base of the package's value and result records.

A record lists its fields as class annotations, in order; a field with a
class-level default follows every field without one, and an instance built
without it reads the default from the class.  A name that starts with an
underscore is private state: it takes no part in construction, equality,
hashing or repr, and the class sets it in `__post_init__`.

The base supplies, once and in source, what a record needs:

- construction from positional or keyword fields, with each field's
  default, followed by `__post_init__`;
- field-wise equality with records of the same class only;
- the repr text `Name(field=value, ...)`;
- on a `FrozenRecord`, the hash of the field tuple and assignment and
  deletion that raise AttributeError.  A plain `Record` is a mutable
  result and is unhashable.

No code is generated at import.  The shared constructor costs about twice
what a generated one did, so a class that searches build at every step,
or once per search, writes its own straight-line `__init__`.  A slotted
record names its fields in `__slots__` as well, and has no defaults.
"""

from __future__ import annotations

from operator import attrgetter


def _values_getter(names: tuple[str, ...]):
    """The function from a record to the tuple of its field values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """A mutable result record: field-wise equality, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _required = 0  # the leading fields, which have no default
    _set_field = staticmethod(setattr)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        cls._fields = tuple(n for n in own.get("__annotations__", ()) if not n.startswith("_"))
        # a slotted record's fields are its slots' descriptors, never defaults
        slots = own.get("__slots__", ())
        defaulted = [n in own and n not in slots for n in cls._fields]
        cls._required = defaulted.index(True) if True in defaulted else len(defaulted)
        if not all(defaulted[cls._required:]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        cls._values = staticmethod(_values_getter(cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, got {len(args)}")
        set_field = self._set_field
        for name, value in zip(fields, args):
            set_field(self, name, value)
        if kwargs or len(args) < self._required:
            self._set_keywords(len(args), kwargs)
        self.__post_init__()

    def _set_keywords(self, given: int, kwargs: dict) -> None:
        """Set the fields passed by keyword after `given` positional ones;
        a field left out reads its default from the class."""
        rest = self._fields[given:]
        for name, value in kwargs.items():
            if name not in rest:
                raise TypeError(f"{type(self).__name__}() got an unexpected or repeated field {name!r}")
            self._set_field(self, name, value)
        for name in self._fields[given:self._required]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")

    def __post_init__(self) -> None:
        """Checks and private state, after the fields are set."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join([f'{n}={v!r}' for n, v in pairs])})"

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which re-runs
        # the checks and rebuilds private state
        return type(self), self._values(self)


class FrozenRecord(Record):
    """An immutable value record: field-wise equality and hash."""

    __slots__ = ()
    # sets a field past the guard below, and keeps the instance's
    # attributes in their compact per-class layout
    _set_field = staticmethod(object.__setattr__)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
