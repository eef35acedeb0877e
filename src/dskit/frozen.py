"""The base of the immutable records.

Each record is a plain class with `__slots__` and its own `__init__`,
`__eq__`, `__hash__` and `__repr__`; its `__init__` sets the slots with
`object.__setattr__`, past the refusal below.
"""


class Frozen:
    """Refuses assignment and deletion, as a frozen record must."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
