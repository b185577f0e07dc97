"""Exception types shared across the library, and the argument checks
``_check_int``, ``_require`` and ``_hashable_items``: they echo a bad value's
``reprlib.repr`` or type.

The command line maps these onto exit codes: InputError -> 1,
ResourceBudgetError -> 2. InternalError signals a bug in the library
itself and is never caught.
"""

import reprlib
from collections import abc
from typing import Optional


class CQError(Exception):
    """Base class for all library errors."""


class InputError(CQError):
    """Malformed or inconsistent input (bad vocabulary, unknown element, ...)."""


class ResourceBudgetError(CQError):
    """A configured search or enumeration budget was exceeded.

    Distinct from any answer: counts are always exact, never truncated,
    so running out of budget is an error, not an approximation.
    """


class InternalError(CQError):
    """An internal invariant failed; indicates a bug, not bad input."""


def _check_int(name: str, value: object, least: Optional[int] = None,
               most: Optional[int] = None) -> None:
    """InputError unless ``value`` is an int, not a bool, within ``least``..``most``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {reprlib.repr(value)}")
    # The value is not echoed: an int past the int/str digit limit cannot be printed.
    if least is not None and value < least:
        raise InputError(f"{name} must be at least {least}")
    if most is not None and value > most:
        raise InputError(f"{name} must be at most {most}")


def _require(value: object, cls: type):
    """``value`` itself, or InputError unless it is a ``cls``."""
    if isinstance(value, cls):
        return value
    raise InputError(f"expected a {cls.__name__}, got {type(value).__name__}")


def _hashable_items(value: object, name: str) -> tuple:
    """The items of ``value`` as a tuple, or InputError unless it is iterable and each item hashes."""
    items = tuple(_require(value, abc.Iterable))
    for item in items:
        try:
            hash(item)
        except TypeError:
            raise InputError(f"{name} must be hashable, got {reprlib.repr(item)}") from None
    return items
