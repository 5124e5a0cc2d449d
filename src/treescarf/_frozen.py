"""Immutable value records without the ``dataclasses`` import.

Every command runs as its own process, so the package's import time is paid
on each one; ``dataclasses`` alone (with ``inspect``, ``ast`` and ``dis``
behind it) would cost more than some commands' work.
"""


class FrozenValue:
    """Base for records whose fields are the names in ``__slots__``, in order.

    A direct subclass lists its fields in ``__slots__`` and stores them from
    its own ``__init__`` with ``_fill``, after any check or normalisation.
    Instances compare equal and hash alike exactly when they have the same
    type and equal field values; the repr is ``Name(field=value, ...)``;
    assigning or deleting any attribute raises ``AttributeError``; ``copy``
    and ``pickle`` rebuild a value through ``__init__``.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inside = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inside})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
