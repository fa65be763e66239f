"""The number formatter of every text output.

Values are written with 17 significant digits, so each double reads back
exactly; identical numbers always give identical bytes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["fmt", "fmt_rows"]


def fmt(x) -> str:
    """One value with 17 significant digits."""
    return "%.17g" % x


#: Rows converted to Python floats at a time; bounds the memory of a big table.
_BLOCK = 4096


def fmt_rows(rows, sep: str = " ", prefix: str = "") -> Iterator[str]:
    """Text lines ``prefix + sep.join(values)`` of the rows of a 2-D array,
    yielded in blocks of lines (join them for one string)."""
    rows = np.asarray(rows, dtype=float)
    line = prefix + sep.join(["%.17g"] * rows.shape[1]) + "\n"
    for k in range(0, len(rows), _BLOCK):
        yield "".join([line % tuple(r) for r in rows[k : k + _BLOCK].tolist()])
