"""The JSON file format of every record ctrlkit reads or writes, the one
rule for what makes a record malformed, and the numeric input rules."""

from __future__ import annotations

import json
import math

import numpy as np

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


def csv_text(names, rows) -> str:
    """A header line of `names`, then one line per row of the numbers
    `rows` (rows, len(names)), each written "%.17g" from a Python float:
    enough digits to read back the same float, 1024 rows to one format."""
    rows, line = np.reshape(rows, (-1, len(names))), ",".join(["%.17g"] * len(names)) + "\n"
    blocks = (rows[lo:lo + 1024] for lo in range(0, len(rows), 1024))
    return ",".join(names) + "\n" + "".join((line * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


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


def require_positive(value, what: str):
    """ValueError unless `value` is positive and finite."""
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{what} must be positive and finite")


def point(values, n: int, what: str) -> np.ndarray:
    """`values` as an array of `n` finite floats: the one reader of every
    start, target and evaluation point; ValueError naming `what` otherwise."""
    out = np.array(finite_floats(values, what))
    if out.shape != (n,):
        raise ValueError(f"{what} needs {n} entries")
    return out
