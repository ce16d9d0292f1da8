"""The base of the record types, in place of ``dataclasses``, whose import loads
``inspect``, ``ast`` and ``dis`` and whose classes ``exec`` their methods at each start."""


class Record:
    """Field-wise ``==``, hash and ``repr``, and pickling, over the fields a
    subclass lists in ``__slots__`` in the order its ``__init__`` takes them.

    Frozen, so ``__init__`` sets fields with ``object.__setattr__``.  A subclass
    opts out as ``@dataclass`` options do, by taking ``object``'s methods back.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle's default would set the slots by the refused setattr
        return type(self), self._values()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__
