"""Exception types shared across the package, and the one check per kind of input.

Every error carries the short name of the module that raised it, so the
command-line layer can map failures to exit codes and name the origin in
a single machine-parseable line.
"""

from __future__ import annotations

import cmath
import numbers

import numpy as np


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


def _shown(value) -> str:
    """repr(value), or an integer too long for repr by its sign and bit length."""
    try:
        return repr(value)
    except ValueError:  # an integer past Python's integer-to-string digit limit
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"


def as_count(value, name: str, module: str, *, least: int = 0, most: int | None = None) -> int:
    """A Python or numpy integer, not a bool, at least ``least`` (0 or 1) and at most
    ``most`` (a size cap) if given, as an int."""
    if is_number(value, numbers.Integral) and value >= least:
        if most is None or value <= most:
            return int(value)
        raise ValidationError(f"{name} {_shown(value)} exceeds the cap {most}", module=module)
    sign = "positive" if least else "nonnegative"
    message = f"{name} must be {sign} and an integer, got {_shown(value)}"
    raise ValidationError(message, module=module)


def as_real(value, name: str, module: str, *, above: float | None = None) -> float:
    """A finite real, not a bool, above ``above`` (at least 0 if it is None), as a float."""
    real = is_number(value, numbers.Real, finite=True)
    if real and (value >= 0 if above is None else value > above):
        return float(value)
    rules = {None: "be nonnegative and finite", 0: "be positive and finite"}
    rule = rules.get(above, f"exceed {above} and be finite")
    raise ValidationError(f"{name} must {rule}, got {_shown(value)}", module=module)


def as_complex(value, name: str, module: str) -> complex:
    """A finite complex number, not a bool, as a complex."""
    if is_number(value, numbers.Complex, finite=True):
        return complex(value)
    shown = complex(value) if isinstance(value, (float, complex)) else _shown(value)
    raise ValidationError(f"{name} = {shown} must be finite", module=module)


def as_array(values, name: str, module: str, *, ndim: int | None = None) -> np.ndarray:
    """A nonempty array of finite numbers, with ``ndim`` axes if given, as complex128.

    Nothing is parsed: text, bytes, None, other objects and ragged nestings are rejected,
    and so is an array of bools; a bool that numpy upcasts among numbers, as in
    ``[True, 0.5]``, passes as 1.0. Object arrays of numbers pass (Python integers
    past int64); an integer past the float range is not finite. complex128 input is
    returned without a copy.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting (numpy >= 1.24)
        arr = np.asarray(None)  # rejected below with every other non-number
    if arr.dtype.kind in "iufc":
        finite = np.isfinite(arr).all()
    elif arr.dtype.kind == "O" and all(is_number(v, numbers.Complex) for v in arr.flat):
        finite = all(is_number(v, numbers.Complex, finite=True) for v in arr.flat)
    else:
        raise ValidationError(f"{name} must be numbers in a rectangular array", module=module)
    if arr.size == 0 or ndim not in (None, arr.ndim):
        shape = f"nonempty {ndim}-D array" if ndim else "nonempty array"
        raise ValidationError(f"{name} must be a {shape}, got shape {arr.shape}", module=module)
    if not finite:
        raise ValidationError(f"{name} must be finite, not NaN or Inf", module=module)
    return arr.astype(np.complex128, copy=False)
