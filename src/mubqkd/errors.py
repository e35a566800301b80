"""Exception types shared across the package, the range, integer and line checks that raise them, and _unchecked.

The CLI maps these onto exit codes: validation problems (bad dimensions,
malformed files, inconsistent counts, bad configuration) exit with 1,
numeric failures (root bracketing, construction checks) exit with 2.
"""

import math
import operator


class MubQkdError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MubQkdError, ValueError):
    """A dimension is invalid or unsupported for the requested operation."""


class ConstructionError(MubQkdError, RuntimeError):
    """An internally built object failed its own validity check."""


class ConfigError(MubQkdError, ValueError):
    """A configuration value or combination of values is invalid."""


class CountDataError(MubQkdError, ValueError):
    """Count data is malformed, incomplete, or internally inconsistent."""


class ParseError(CountDataError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _text_lines(path, comments=None):
    """Yield (line number, stripped text) for each non-blank, non-comment line of a UTF-8 file.

    Line numbers count physical lines: only "\\n", "\\r" and "\\r\\n" end one.
    Each ``#`` comment's stripped text is appended to ``comments`` when a list is given.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if text.startswith("#"):
                if comments is not None:
                    comments.append(text)
            elif text:
                yield lineno, text


def _dim_line(lineno: int, text: str) -> int:
    """Return d from an exact two-token 'dim <d>' line; any other shape raises ParseError."""
    parts = text.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise ParseError(f"expected 'dim <d>', got {text!r}", lineno)
    try:
        return int(parts[1])
    except ValueError:
        raise ParseError(f"bad dimension {parts[1]!r}", lineno) from None


class NumericError(MubQkdError, ArithmeticError):
    """A numeric routine failed (no bracket, no convergence, bad domain)."""


def check_range(name, value, lo=-math.inf, hi=math.inf, ends="[]", error=ConfigError):
    """Return value if it lies between lo and hi, else raise error naming it.

    ends holds the two brackets: "[" and "]" include their bound, "(" and
    ")" exclude it.  Every test asks "is it inside?", so NaN fails, and so
    do infinite values: the interval holds real numbers only.
    """
    if lo < value < hi:  # the fast path: nothing strictly between two bounds is infinite
        return value
    above = lo < value if ends[0] == "(" else lo <= value
    below = value < hi if ends[1] == ")" else value <= hi
    if above and below and abs(value) < math.inf:
        return value
    left, right = "(" if lo == -math.inf else ends[0], ")" if hi == math.inf else ends[1]
    lo_text, hi_text = f"{lo:.6g}", f"{hi:.6g}"
    if lo_text == hi_text:  # a narrow interval must not read as a point
        lo_text, hi_text = f"{lo:.17g}", f"{hi:.17g}"
    raise error(f"{name} must lie in {left}{lo_text}, {hi_text}{right}, got {value}")


def check_index(name, value, error=ConfigError):
    """Return value as an int if operator.index takes it (numpy integers do), else raise error naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def check_dimension(value):
    """Return value as an int if it is an integer of at least 2, else raise DimensionError."""
    return check_range("dimension", check_index("dimension", value, DimensionError), 2, error=DimensionError)


def _unchecked(cls, **fields):
    """Frozen dataclass cls with every field given, skipping __post_init__: for values built to pass it."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj
