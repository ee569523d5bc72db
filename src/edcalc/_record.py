"""The immutable record base shared by every layer of the package."""

from __future__ import annotations

_setattr = object.__setattr__


class _Record:
    """Immutable record whose fields are the names in ``__slots__``, in order.

    A record equals only a record of its own class with equal fields, and hashes
    as the tuple of its fields.  Its repr is ``Name(field=value, ...)``; copy and
    pickle rebuild it through the constructor, which takes the fields
    positionally in slot order and checks them again.
    """

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        """Set the fields in slot order; for constructors off the hot paths."""
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()
