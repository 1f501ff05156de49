"""The JSON file format of every record ctrlkit reads or writes, and the
one rule for what makes a record malformed."""

from __future__ import annotations

import json
import math

# what building a record from parsed JSON values raises on a malformed
# file: a missing key, a wrong type or value, a short list, or an
# infinity where an integer is needed
BAD_RECORD = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def write_json(path: str, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def integer(value) -> int:
    """`value` as an int; ValueError unless it is integral."""
    out = int(value)
    if out != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return out


def finite_floats(values, what: str) -> list[float]:
    """`values` as floats; ValueError naming `what` unless each is a
    finite number."""
    try:
        out = [float(v) for v in values]
    except BAD_RECORD as exc:
        raise ValueError(f"{what} must be a list of numbers: {exc}") from exc
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{what} must be finite, got {out}")
    return out
