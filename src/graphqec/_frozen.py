"""The integer rules of every input, and immutable value types without
``dataclasses``.

``integers`` is the one check that a count, vertex, weight or factor is an
integer, and ``integer_list`` the one parser of comma-separated integer
text: the CLI's ``--inputs`` and ``--config``, group literals and a graph
file's ``inputs:`` line.  The graph and the group are all that ``import
graphqec`` and the parse path build, and ``import dataclasses`` would load
``inspect``, ``ast``, ``dis`` and ``tokenize`` for them: about 8 ms (Python
3.11, 2-vCPU VM) of a command that needs no numpy.
"""

from __future__ import annotations

import operator


def integers(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  Ints, bools and numpy integers pass;
    anything else, above all a float that ``int`` would truncate or an array
    of several entries, raises ValueError naming ``what`` and the value."""
    result = []
    for value in values:
        try:
            result.append(operator.index(value))
        except TypeError:
            raise ValueError(f"{what} must be integers, got {value!r}") from None
    return tuple(result)


def integer_list(text: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, each part stripped; an empty
    or blank ``text`` is the empty list.  Any other empty or non-integer
    part raises ValueError naming ``what`` and the text, e.g. ``bad vertex
    list '1,,2'``."""
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))  # int() strips
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


class Frozen:
    """Base of an immutable value.

    A subclass sets its attributes in ``__init__`` through
    ``object.__setattr__`` and names them in ``_fields``, in ``repr`` order;
    equality and hash read the ``_compared`` ones.  There are no
    ``__slots__``: pickle restores the instance ``__dict__`` directly, where
    slots would be restored through the raising ``__setattr__``.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
