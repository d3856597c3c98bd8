"""Run parameters: one rule per parameter, for the driver and the library alike.

A rule takes a number, flag text or a JSON value and returns it converted, or
raises ValueError (or TypeError) saying what is wrong with it; ``checked``
names the field.  ``cli`` converts every ``params`` key with these rules
before a handler loads numpy, and each library entry point applies the same
rule to the same argument, so a library call refuses what the command line
refuses, naming its argument.  The module needs only the standard library.
"""

from __future__ import annotations

import math
from collections import namedtuple

#: a Fock-desk mode: frequency, weight W and momentum label q
Mode = namedtuple("Mode", "omega weight momentum")


def checked(name: str, rule, value):
    """``rule(value)``, its error re-raised as a ValueError that names ``name``."""
    try:
        return rule(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def nonnegative(value) -> float:
    number = finite(value)
    if number < 0.0:
        raise ValueError(f"must be >= 0, got {number}")
    return number


def positive(value) -> float:
    number = finite(value)
    if number <= 0.0:
        raise ValueError(f"must be > 0, got {number}")
    return number


def coupling(value) -> float:
    """A kappa: >= 0, with kappa^2 a finite double."""
    number = nonnegative(value)
    if not math.isfinite(number * number):
        raise ValueError(f"kappa^2 must be finite, got {number}")
    return number


def momentum(value) -> float:
    """A p: finite, with p^2 a finite double."""
    number = finite(value)
    if not math.isfinite(number * number):
        raise ValueError(f"p^2 must be finite, got {number}")
    return number


def integer(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def count(value) -> int:
    number = integer(value)
    if number < 1:
        raise ValueError(f"must be >= 1, got {number}")
    return number


def unit_interval(value) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise ValueError(f"must lie in [0, 1], got {number}")
    return number


def full_fiber(value) -> float:
    """The epsilon of a run with a horizon T: 1, the only fiber the semigroup takes."""
    if float(value) != 1.0:
        raise ValueError("T needs epsilon = 1 (the semigroup residual is taken on the full "
                         f"fiber), got {float(value)!r}")
    return 1.0


def list_of(item):
    """The rule of comma-separated text or a list, ``item`` applied to each
    entry; an empty list is refused."""
    def convert(value) -> list:
        if isinstance(value, str):
            value = [token for token in value.split(",") if token.strip()]
        if not isinstance(value, list):
            raise TypeError(f"must be a list or comma-separated text, got {value!r}")
        if not value:
            raise ValueError("must not be empty")
        return [item(entry) for entry in value]
    return convert


def ladder(value) -> list[float]:
    horizons = list_of(positive)(value)
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError(f"horizons must be increasing, got {horizons}")
    return horizons


def mode(value) -> Mode:
    """A fock mode (omega, W, q) from ``omega:W[:q]`` text or a list of 2-3
    numbers, q = 0 when absent: omega > 0, W >= 0, q finite and W/omega^2
    (the mode's share of m_eff) a finite double."""
    fields = value.split(":") if isinstance(value, str) else value
    if not isinstance(fields, (list, tuple)) or len(fields) not in (2, 3):
        raise ValueError(f"a mode is omega:W[:q] or [omega, W, q], got {value!r}")
    omega, weight, q = [finite(v) for v in fields] + [0.0] * (3 - len(fields))
    try:
        ratio = weight / omega**2
    except (OverflowError, ZeroDivisionError):      # omega^2 overflows or underflows
        ratio = math.inf
    if not (omega > 0.0 and weight >= 0.0 and math.isfinite(ratio)):
        raise ValueError(f"a mode needs omega > 0, W >= 0 and W/omega^2 finite, got {value!r}")
    return Mode(omega, weight, q)
