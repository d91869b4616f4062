"""`Record`, the base of semimc's value classes.

A record's fields are its `__slots__`.  Each subclass gets an `__init__`
that takes the fields in order, with defaults for trailing fields given as
class keywords, and then calls the class's `__post_init__`, if it has one::

    class Report(Record, frozen=True, note=None):
        __slots__ = ("value", "note")

Two records are equal when they have the same type and equal fields.  A
frozen record hashes by its fields and refuses assignment; any other record
is mutable and unhashable.  `repr` walks nested records and tuples on an
explicit stack, and so do `==` and `hash` of the outermost record once
Python's own runs out of recursion depth, with Python's results.
"""

from __future__ import annotations

import sys
from itertools import repeat
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
        try:
            return self._values(self) == other._values(other)
        except RecursionError:  # too deep for Python's own comparison
            if sys._getframe(1).f_code is Record.__eq__.__code__:
                raise  # called by a record's own comparison: the outermost one walks
            return _deep_eq(self, other)

    def __hash__(self):
        try:
            return hash(self._values(self))
        except RecursionError:
            if sys._getframe(1).f_code is Record.__hash__.__code__:
                raise  # as in `__eq__`
            return hash(_walk(self, _hash, "__hash__"))

    def __repr__(self):
        return _walk(self, _repr, "__repr__")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)


def _parts(x, op: str):
    """The items of a tuple, or the fields of a record whose type takes `op`
    from Record; None for any other value, which Python's own `op` handles."""
    t = type(x)
    if t is tuple:
        return x
    if isinstance(x, Record) and getattr(t, op) is getattr(Record, op):
        return tuple([getattr(x, n) for n in t._fields])


def _walk(x, leave, op: str):
    """`logic._fold` of `x` through its `_parts` for `op`."""
    from .logic import _fold  # logic imports this module
    return _fold(x, leave, lambda y: _parts(y, op))


class _Hashed(int):
    """A walked value's hash, standing for it in its parent's tuple: it
    hashes to itself, so the parent's hash is the one Python computes."""
    __hash__ = int.__int__


def _hash(x, hashed):
    """What stands for `x` in its parent's tuple: `x` itself, unless walked;
    a record hashes as its `_values`, which is its lone field if it has one."""
    if hashed is None:
        return x
    return hashed[0] if isinstance(x, Record) and len(hashed) == 1 else \
        _Hashed(hash(tuple(hashed)))


def _repr(x, texts) -> str:
    if texts is None:
        return repr(x)
    if type(x) is tuple:
        return f"({', '.join(texts)}{',' if len(texts) == 1 else ''})"
    return f"{type(x).__name__}({', '.join(map('{}={}'.format, x._fields, texts))})"


def _deep_eq(a, b) -> bool:
    """`a == b` for records of one type, pair by pair in Python's order;
    `is` decides a pair of tuple items, as in a tuple comparison."""
    todo = [(a, b, False)]
    while todo:
        x, y, item = todo.pop()
        if item and x is y:
            continue
        xs, ys = _parts(x, "__eq__"), _parts(y, "__eq__")
        if xs is None or ys is None:
            if not x == y:
                return False
        elif type(x) is type(y) and len(xs) == len(ys):  # a record compares its `_values`
            todo += zip(xs[::-1], ys[::-1], repeat(type(x) is tuple or len(xs) != 1))
        else:
            return False
    return True
