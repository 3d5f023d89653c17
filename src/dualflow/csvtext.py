"""The one CSV formatter: Csv, and csv_text, the text of a file through it.

Loaded on first use, by the commands that write CSV files (`run` with
``csv`` in its formats, and `convergence`); `validate` never compiles it.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat

from . import NumpyOnFirstUse

np = NumpyOnFirstUse(globals())


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _reprs(a: np.ndarray) -> list[str]:
    """repr of every entry of a 1-D numeric array, called once per run of
    identical bit patterns (so -0.0 and 0.0, equal as floats, stay apart)."""
    if a.ndim != 1 or a.dtype.kind not in "biuf" or a.itemsize > 8:
        raise ValueError(f"csv column must be a 1-D numeric array, got {a.dtype} "
                         f"with shape {a.shape}")
    bits = a.view(f"u{a.itemsize}")
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (len(starts) + 1) > len(a):   # mostly distinct: runs do not pay
        return list(map(repr, a.tolist()))
    starts = np.concatenate(([0], starts))
    counts = np.diff(starts, append=len(a)).tolist()
    return list(chain.from_iterable(map(repeat, map(repr, a[starts].tolist()), counts)))


def _is_array(c) -> bool:
    """Whether ``c`` is a numpy array: never before numpy is loaded, so a file
    of list and scalar columns is formatted without it."""
    return "numpy" in sys.modules and isinstance(c, np.ndarray)


def _verbatim(cells: list[str], one_column: bool) -> list[str]:
    """cells, checked to need no csv quoting: no delimiter, quote or line
    break, and no empty cell alone on its row (csv writes that as "")."""
    text = "\0".join(cells)
    if any(c in text for c in ',"\r\n') or (one_column and "" in cells):
        raise ValueError(f"csv cell would need quoting: {cells!r}")
    return cells


class Csv:
    """A CSV file's text, handed to ``write`` block by block: the bytes
    csv.writer gives, with numbers formatted as by _fmt.

    Each block is a tuple of columns giving that block's rows: a 1-D numpy
    array, a list, or a scalar repeated on every row; a block of scalars is
    one row.  A numpy column equal, bit for bit, to the same column of the
    previous block reuses that block's strings."""

    def __init__(self, header: list[str], write):
        self.write = write
        self.prev: dict[int, tuple[bytes, str, list[str]]] = {}
        write(",".join(_verbatim(list(header), len(header) == 1)) + "\r\n")

    def add(self, block):
        n = max((len(c) for c in block if isinstance(c, list) or _is_array(c)), default=1)
        cols, arrays = [], {}
        for j, c in enumerate(block):
            if _is_array(c):
                key = (c.tobytes(), c.dtype.str)
                hit = self.prev.get(j)
                cells = hit[2] if hit and hit[:2] == key else _reprs(c)
                arrays[j] = (*key, cells)
            elif isinstance(c, list):
                cells = _verbatim(list(map(_fmt, c)), len(block) == 1)
            else:
                cells = repeat(_verbatim([_fmt(c)], len(block) == 1)[0], n)
            cols.append(cells)
        self.prev = arrays
        rows = "\r\n".join(map(",".join, zip(*cols)))
        if rows:   # empty only when the block has no rows (see _verbatim)
            self.write(rows + "\r\n")


def csv_text(header: list[str], blocks) -> list[str]:
    """The Csv of ``blocks``, formatted: its header, then a string per block."""
    text: list[str] = []
    csv = Csv(header, text.append)
    for block in blocks:
        csv.add(block)
    return text
