"""The base of the package's records.

Each record is a plain class with `__slots__`.  Its fields are its public
slots, in the order the classes declare them, base class first; a slot
whose name starts with `_` holds data derived from the others and is left
out.  `Record` fills the fields from its arguments, by position and past the
refusal of `Frozen`, and derives `==`, the hash and the repr from them.  A
record that checks or normalises its arguments has its own `__init__`, which
hands the values to hold to `super().__init__` and sets any derived slot
itself with `object.__setattr__`.
"""

from typing import Callable


class Record:
    """Compares, hashes and prints a record by the tuple of its fields."""

    __slots__ = ()

    _fields: tuple[str, ...]
    _setters: tuple[Callable[[object, object], None], ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        slots = [
            (name, vars(klass)[name])
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("__slots__", ())
            if not name.startswith("_")
        ]
        cls._fields = tuple(name for name, _ in slots)
        # each slot's own setter, which stores past Frozen.__setattr__
        cls._setters = tuple(slot.__set__ for _, slot in slots)

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._setters):
            raise TypeError(
                f"{self.__class__.__name__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class Frozen(Record):
    """Refuses assignment and deletion, as a frozen record must."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
