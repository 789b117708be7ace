"""Exception types shared across the package, and the one check per kind of scalar input.

Every error carries the short name of the module that raised it, so the
command-line layer can map failures to exit codes and name the origin in
a single machine-parseable line.
"""

from __future__ import annotations

import cmath
import numbers


class QevtError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, *, module: str = "qevt"):
        super().__init__(message)
        self.module = module


class ValidationError(QevtError):
    """Malformed input: bad shapes, domains, or file contents."""


class NormBoundError(QevtError):
    """An operator norm or circle sup-norm exceeds its admissible bound."""

    def __init__(self, message: str, *, module: str = "qevt", norm: float = 0.0):
        super().__init__(message, module=module)
        self.norm = norm


class NumericalError(QevtError):
    """A numerical procedure failed: non-convergence, degeneracy, conditioning."""


def is_number(value, kind, *, finite: bool = False) -> bool:
    """True for a ``kind`` (a ``numbers`` class) that is not a bool, and finite if asked."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    try:
        return not finite or cmath.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def as_count(value, name: str, module: str, *, least: int = 0) -> int:
    """A Python or numpy integer, not a bool, at least ``least`` (0 or 1), as an int."""
    if is_number(value, numbers.Integral) and value >= least:
        return int(value)
    sign = "positive" if least else "nonnegative"
    raise ValidationError(f"{name} must be {sign} and an integer, got {value!r}", module=module)


def as_real(value, name: str, module: str, *, above: float | None = None) -> float:
    """A finite real, not a bool, above ``above`` (at least 0 if it is None), as a float."""
    real = is_number(value, numbers.Real, finite=True)
    if real and (value >= 0 if above is None else value > above):
        return float(value)
    rules = {None: "be nonnegative and finite", 0: "be positive and finite"}
    rule = rules.get(above, f"exceed {above} and be finite")
    raise ValidationError(f"{name} must {rule}, got {value!r}", module=module)


def as_complex(value, name: str, module: str) -> complex:
    """A finite complex number, not a bool, as a complex."""
    if is_number(value, numbers.Complex, finite=True):
        return complex(value)
    shown = complex(value) if isinstance(value, (float, complex)) else repr(value)
    raise ValidationError(f"{name} = {shown} must be finite", module=module)
