"""Shared exception hierarchy, enumeration cap and frozen value base.

Everything raised on purpose by this package derives from MachalgError, so
callers (notably the CLI) can separate deliberate failures from bugs.
``machine`` exports DEFAULT_ENUMERATION_CAP as its public home.
"""

from __future__ import annotations

import math
from operator import attrgetter
from types import SimpleNamespace

DEFAULT_ENUMERATION_CAP = 10**6
_set = object.__setattr__


class _Value:
    """Base of the frozen value classes, whose fields are their annotations.

    A subclass's own ``__init__`` takes the fields in order, checks them and
    calls :meth:`_store`.  As for a frozen dataclass, ``==`` and ``hash``
    read every field but ``name`` and ``function_names``, ``repr`` lists
    them all, assignment and deletion raise, and ``dataclasses.replace``
    works, through ``__init__``; ``dataclasses.fields`` does not.  Importing
    ``dataclasses`` loads ``inspect`` and ``ast``: most of the time a command
    line call spent importing the library.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = fields = (*cls._fields, *cls.__annotations__)  # a base's fields first
        compared = [f for f in fields if f not in ("name", "function_names")]
        get = attrgetter(*compared)  # one name gives a bare value; a dataclass hashes (value,)
        cls._key = staticmethod(get if len(compared) > 1 else lambda x: (get(x),))
        cls.__dataclass_fields__ = {
            f: SimpleNamespace(name=f, init=True, _field_type=None) for f in fields
        }

    def _store(self, *values) -> None:
        for f, value in zip(self._fields, values):
            _set(self, f, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def decimal_digits(x: int) -> int:
    """The digit count of ``x``, found without writing it as text."""
    digits = int((abs(x).bit_length() - 1) * math.log10(2)) + 1  # at most the count
    while abs(x) >= 10**digits:
        digits += 1
    return digits


class MachalgError(Exception):
    """Base class for all errors raised by machalg."""


class CardinalOverflowError(MachalgError, OverflowError):
    """Finite cardinal arithmetic left the checked 64-bit range."""


class UndefinedFormError(MachalgError, ArithmeticError):
    """An arithmetic form with no defined value, e.g. 0^0."""


class InvalidMachineError(MachalgError, ValueError):
    """A machine violating a structural invariant (empty function set, ...)."""


class TotalityViolationError(MachalgError, ValueError):
    """A transition table entry points outside its state set."""


class DomainMismatchError(MachalgError, KeyError):
    """A state was used with a function defined on a different state set."""

    def __str__(self) -> str:  # KeyError's would quote the message
        return Exception.__str__(self)


class EnumerationTooLargeError(MachalgError, ValueError):
    """An exhaustive enumeration would exceed DEFAULT_ENUMERATION_CAP."""

    def __init__(self, what: str, size: int):
        cap = DEFAULT_ENUMERATION_CAP
        try:
            count = str(size)
        except ValueError:  # more digits than Python writes as text
            count = f"a {decimal_digits(size)}-digit number of"
        super().__init__(f"{what} would enumerate {count} items, above the cap of {cap}")
        self.what = what
        self.size = size
        self.cap = cap


class InvalidReductionError(MachalgError, ValueError):
    """A reduction request that is not a subset of the source machine."""


class EmptyReductionError(MachalgError, ValueError):
    """A state reduction whose preserving function set would be empty."""


class IncompatibleShapesError(MachalgError, ValueError):
    """Witness verification against machines of mismatched sizes."""


class SearchBudgetExceededError(MachalgError, RuntimeError):
    """A search hit its node cap before reaching a definite answer.

    Deliberately distinct from a negative result: the question was not
    answered, and callers must not treat this as "no".  ``depth`` is the
    most states the search had assigned at once, out of ``n``.
    """

    def __init__(self, what: str, cap: int, depth: int, n: int):
        super().__init__(
            f"{what}: search budget of {cap} nodes exceeded (inconclusive; "
            f"deepest level {depth} of {n})"
        )
        self.what = what
        self.cap = cap
        self.depth = depth
        self.n = n


class ParseError(MachalgError, ValueError):
    """Text-format parse failure with source position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column
