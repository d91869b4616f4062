"""`Record`, the base of semimc's value classes.

A record's fields are its `__slots__`.  Each subclass gets an `__init__`
that takes the fields in order, with defaults for trailing fields given as
class keywords, and then calls the class's `__post_init__`, if it has one::

    class Report(Record, frozen=True, note=None):
        __slots__ = ("value", "note")

Two records are equal when they have the same type and equal fields.  A
frozen record hashes by its fields and refuses assignment; any other record
is mutable and unhashable.
"""

from __future__ import annotations

from operator import attrgetter


def _refuse(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


def _make_init(cls, fields: tuple[str, ...], defaults: dict):
    """`cls.__init__`, written out as source, as `collections.namedtuple`
    writes its `__new__`, so that arguments bind and fail as they do for a
    hand-written signature; each field is stored through its slot, which
    also works when the class refuses assignment."""
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in fields)
    lines = [f"_set_{n}(self, {n})" for n in fields]
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in fields}
    namespace["_defaults"] = defaults
    exec(f"def __init__(self, {params}):\n    " + "\n    ".join(lines or ["pass"]), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # names the class in argument errors
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **defaults):
        # a "__dict__" slot only makes room for `functools.cached_property`
        fields = cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        if not defaults.keys() <= set(fields):
            raise TypeError(f"{cls.__name__} has no field {sorted(defaults.keys() - set(fields))}")
        cls._values = staticmethod(attrgetter(*fields) if fields else lambda r: ())
        cls.__init__ = _make_init(cls, fields, defaults)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        else:
            cls.__hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)
