"""Immutable value records.

Equality, hashing, repr and freezing are written once here, over a
per-class tuple of field names, so that no class generates code at import
as ``@dataclass`` does.
"""


class Record:
    """Base of posthoc's immutable value classes.

    A subclass's fields, ``_fields``, are its annotated names in order,
    after the fields of the record it extends.  The constructor takes each
    field once, by position or by name, and raises ``TypeError`` on a
    missing, unknown or repeated one.  A record that checks or derives its
    fields has its own ``__init__``, which stores them past the frozen
    ``__setattr__`` with ``object.__setattr__`` or one
    ``self.__dict__.update``.  Instances are equal when they are of the
    same class with equal fields, hash their fields, print as
    ``Name(field=value, ...)``, and refuse assignment and deletion.
    Attributes that are not fields (private caches) take no part.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(values) or values.keys() != set(self._fields):
            raise TypeError(f"{self.__class__.__qualname__}() takes the fields "
                            f"{list(self._fields)} once each, got {len(args)} "
                            f"by position and {list(kwargs)} by name")
        self.__dict__.update(values)

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
