"""Immutable value objects, written without ``dataclasses``.

Importing ``dataclasses`` pulls in ``inspect`` and, with it, ``ast``,
``dis`` and ``tokenize``, and each decorated class generates its methods
through ``exec``, a cost every cold start of the command line would pay.

A value class lists its fields in ``__slots__`` and sets each one once in
``__init__`` with ``setfield``.  Its key is derived once, when the class
is made, from ``__slots__``: the tuple of its fields in slot order, or the
field itself when there is one.  Assigning or deleting an attribute
afterwards raises ``AttributeError``.  Two values are equal
when they have the same class and equal keys, and a value hashes like
its key.  The repr names the class and each field, ``Name(field=value,
...)``, as a dataclass's does.
"""

from operator import attrgetter

# assigns a field past Value.__setattr__; for use in __init__ only
setfield = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
