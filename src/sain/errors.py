"""Exception categories shared across modules, and the one rule for what a
JSON value is. The CLI maps each category to a distinct exit code and a
single machine-parsable error line. Every JSON document reader and config
dataclass asks `is_json`/`json_value` whether a value is of its kind; a
document reader wraps json_value's ValueError in its own ParseError prefix."""

import numpy as np


class SainError(Exception):
    """Base class; category drives the CLI exit code."""

    category = "error"
    exit_code = 1


class IoError(SainError):
    category = "io"
    exit_code = 3


class ParseError(SainError):
    category = "parse"
    exit_code = 4


class ShapeError(SainError):
    category = "shape"
    exit_code = 5


class DivergenceError(SainError):
    category = "divergence"
    exit_code = 6


class ManifestDriftError(SainError):
    category = "manifest-drift"
    exit_code = 7


# kind -> (how a refusal names it, the test its values pass). A bool is
# neither an integer nor a number (Python's bool is an int); numpy integer and
# floating scalars count as ints and floats.
_KINDS = {
    "integer": ("an integer",
                lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool)),
    "count": ("an integer >= 0", lambda v: is_json(v, "integer") and v >= 0),
    "number": ("a number",
               lambda v: is_json(v, "integer") or isinstance(v, (float, np.floating))),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "strings": ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
}


def is_json(value, kind: str) -> bool:
    """Whether `value` is a JSON value of `kind`, a key of _KINDS."""
    return _KINDS[kind][1](value)


def json_value(name: str, value, kind: str):
    """`value` if it is of `kind`, else a ValueError naming it."""
    if not is_json(value, kind):
        raise ValueError(f"{name} must be {_KINDS[kind][0]}, got {value!r}")
    return value
