"""Immutable records: small value classes with named fields.

A subclass names its fields in ``__slots__``.  The inherited
``__init__`` takes their values positionally, in that order; a subclass
that checks or converts its inputs writes its own, which passes the
checked values on to ``Record.__init__`` or sets each field once with
``object.__setattr__``.  Equality, the hash and the repr go
by the fields in that order, as a frozen dataclass's do, so the package
never imports ``dataclasses`` (which pulls in ``inspect``).
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} values")
        # zip(..., strict=True) would take twice as long: records are
        # built in the inner loops of the chart transport
        setattr_ = object.__setattr__
        for name, value in zip(names, values):
            setattr_(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{nm}={getattr(self, nm)!r}" for nm in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
