"""Immutable value records.

Equality, hashing, repr, freezing and copying are written once here, over
a per-class tuple of field names, so that no class generates code at
import as ``@dataclass`` does.
"""

# the one setter past Record's frozen __setattr__, looked up once
_set = object.__setattr__


class Record:
    """Base of posthoc's immutable value classes.

    A subclass's fields, ``_fields``, are its annotated names in order,
    after the fields of the record it extends.  Each subclass declares
    ``__slots__``: its own fields, in that order, and its private caches,
    the slots whose names start with an underscore.  A class without
    ``__slots__``, or whose other slots are not its annotated fields, is
    refused when it is created, so no instance has a ``__dict__``.

    The constructor takes each field once, by position or by name, and
    raises ``TypeError`` on a missing, unknown or repeated one.  A record
    that checks or derives its fields, or keeps caches, has its own
    ``__init__``, which stores every slot past the frozen ``__setattr__``
    with ``_set``.  Instances are equal when they are of the same class
    with equal fields, hash their fields, print as
    ``Name(field=value, ...)``, and refuse assignment and deletion.  The
    private caches take no part, but ``copy``, ``deepcopy`` and ``pickle``
    carry every slot.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"record {cls.__qualname__} must declare __slots__")
        own = tuple(cls.__dict__.get("__annotations__", ()))
        public = tuple([name for name in cls.__slots__ if not name.startswith("_")])
        if public != own:
            raise TypeError(f"record {cls.__qualname__} has the fields {list(own)} "
                            f"but the public slots {list(public)}")
        cls._fields += own

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self._fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields "
                            f"{list(self._fields)} once each, got {len(args)} "
                            f"by position and {list(kwargs)} by name")
        for name, value in values.items():
            _set(self, name, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        cls = self.__class__
        slots = {name: getattr(self, name)
                 for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())}
        return _restore, (cls, slots)


def _restore(cls, slots: dict) -> Record:
    """The record of class ``cls`` whose slots hold ``slots``: what
    ``Record.__reduce__`` rebuilds a copy or an unpickled record from."""
    record = object.__new__(cls)
    for name, value in slots.items():
        _set(record, name, value)
    return record
