"""Immutable records as named tuples, built without dataclasses or typing.

Importing ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each dataclass execs its generated methods at import;
together they took half of a fresh ``import freetransform.cli``.  A named
tuple is built from one small ``eval`` and keeps no per-instance dict.
"""

from __future__ import annotations

from collections import namedtuple


class _Record:
    """What every record shares: validation on each construction path and
    equality within one class."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, skip __new__
        return cls(*iterable)

    def __eq__(self, other):
        # a plain tuple.__eq__ would match any tuple with equal fields
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def record(cls):
    """Class decorator: rebuild cls as an immutable record.

    The fields are cls's annotations in order, a class attribute of the
    same name being the field's default; the rest of the body (methods,
    properties, docstring) carries over.  The result subclasses a
    collections.namedtuple with __slots__ = (), so fields cannot be
    assigned and no other attribute can be set.  A body may define
    _checked(self), which validates the fields and returns the record,
    or a normalised copy made with tuple.__new__; positional and keyword
    construction, _make and _replace all go through it.  A record equals
    only a record of its own class with equal fields, keeps the
    namedtuple repr ``Name(field=value, ...)``, and otherwise behaves as
    a tuple: it unpacks, indexes, has a length and orders like one.
    """
    body = dict(vars(cls))
    fields = tuple(body.get("__annotations__", ()))
    defaults = [body.pop(name) for name in fields if name in body]
    if any(name not in cls.__dict__ for name in fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with")
    for name in ("__dict__", "__weakref__"):
        body.pop(name, None)
    base = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    if "_checked" in body:
        # only a record that validates pays for the extra call
        new = base.__new__

        def __new__(cls, *args, **kwargs):
            return new(cls, *args, **kwargs)._checked()

        __new__.__wrapped__ = new  # so that signature() shows the fields
        body["__new__"] = __new__
    body["__slots__"] = ()
    return type(cls.__name__, (_Record, base), body)
