"""`Record`, the base of the package's value classes.

A subclass names its fields in `_fields`, in constructor order, and lists
them in `__slots__`; its `__init__` checks the values and stores them with
`_set`. A record equals only a record of its own type with equal fields,
hashes and prints by its fields, refuses assignment, and is pickled, copied
and `replace`d through its constructor, so every copy passes the checks.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # the field values as a tuple, for a single field too
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values(self)

    def replace(self, **changes):
        """This record with `changes`, built and checked by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))
