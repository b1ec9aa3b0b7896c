"""Immutable records that behave as ``@dataclass(frozen=True)`` classes,
with no method generated at import: a :class:`Record` subclass's fields are
its annotations after its bases' fields, a default is a class attribute, and
the class keywords ``norepr`` and ``nocompare`` name the fields left out of
``repr`` and of ``==`` and ``hash``. Every record compares, hashes, prints
and pickles through the methods here. Only the formula nodes spell out their
``__init__``, one ``_set`` per field, because parsing builds one node per
operator; a record that checks its arguments (a ``Trace``, a ``Dfa``, a
``RolloutRecord``) sets its fields through the generic constructor, and any
other record uses it as it is (a keyword call in field order takes its fast
path). :func:`_restore` builds a record from field values already known to
be valid, such as a compiled DFA that shares its shape's tables, without
running its constructor. A field that is a ``cached_property`` of its class
is set by a constructor like any other, and built on first read in a record
restored without it.
"""

from functools import cached_property
from itertools import repeat

_set = object.__setattr__


def _restore(cls: type, values: tuple, fields: tuple[str, ...] | None = None):
    """The ``cls`` record with field ``values``, built without ``__init__``;
    with ``fields``, the values are those of these fields, and every field
    left out must be a ``cached_property`` of ``cls``."""
    record = cls.__new__(cls)
    if fields is None:
        Record.__init__(record, *values)
    else:
        any(map(_set, repeat(record, len(fields)), fields, values))
    return record


def _field_repr(value) -> str:
    """``repr(value)``, except that a frozenset of strings, alone or in a
    tuple, lists its members sorted: their own order depends on the hash seed."""
    if type(value) is tuple:
        return f"({', '.join(map(_field_repr, value))}{',' if len(value) == 1 else ''})"
    if type(value) is frozenset and value and all(type(v) is str for v in value):
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    return repr(value)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, norepr=(), nocompare=(), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls.__match_args__ = fields = cls._fields + own
        slots = cls.__dict__.get("__slots__", ())
        defaults = {f: vars(cls)[f] for f in own if f in vars(cls) and f not in slots}
        # A field that is a cached_property is built on read: it has no default.
        cls._defaults = {**cls._defaults, **{f: v for f, v in defaults.items() if not isinstance(v, cached_property)}}
        cls._compared = tuple(f for f in fields if f not in nocompare)
        cls._shown = tuple(f for f in fields if f not in norepr)

    def __init__(self, *args, **kwargs) -> None:
        # Fields are set one by one and in order, which keeps them inline in
        # the instance as a dataclass's are; ``__dict__.update`` would build
        # a dict per instance. Keywords in field order need no binding.
        fields = self._fields
        if kwargs:
            args = kwargs.values() if not args and tuple(kwargs) == fields else self._bind(args, kwargs)
        elif len(args) != len(fields):
            args = self._bind(args, kwargs)
        any(map(_set, repeat(self, len(fields)), fields, args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of ``cls(*args, **kwargs)``, defaults filled in."""
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(cls._fields) or given.keys() & kwargs.keys() or values.keys() != set(cls._fields):
            got = f"{len(args)} positional arguments and the keywords {sorted(kwargs)}"
            raise TypeError(f"{cls.__qualname__}() takes the fields {cls._fields}; got {got}")
        return [values[f] for f in cls._fields]

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self._compared) == other._values(other._compared)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._compared))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={_field_repr(getattr(self, f))}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), self._values(self._fields))
