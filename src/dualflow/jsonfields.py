"""Type checks for the fields of a JSON scenario, shared by `cli` and `flux`.

Each check returns the value when it has the expected JSON type and raises
the caller's error class otherwise, with a message that names the field
(`where`), e.g. ``grid.x_min must be a number, got 'a'``.
"""

from __future__ import annotations


def typed(value, kind: type, where: str, error: type[ValueError]):
    """value itself when it is a JSON object (kind dict) or list (kind list; tuples pass)."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise error(f"{where} must be {'a list' if kind is list else 'an object'}, "
                    f"got {value!r}")
    return value


def number(value, where: str, error: type[ValueError]) -> float:
    """value as a float; bools, and integers too large for a float, are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{where} must be a finite number, got an integer too large "
                    "for a float") from None


def pair(value, where: str, what: str, error: type[ValueError]) -> tuple[float, float]:
    """value as a pair of floats; `what` describes it, e.g. 'an [x, m] pair'."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise error(f"{where} must be {what}, got {value!r}")
    return number(value[0], f"{where}[0]", error), number(value[1], f"{where}[1]", error)
