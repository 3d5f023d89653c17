"""A(u) of the piecewise-linear kind, the evaluator of its flux tables.

Loaded on first use, by flux._new_tables for a piecewise-linear-a model;
a run of another kind never compiles it.
"""

from __future__ import annotations

import math
import operator

from . import NumpyOnFirstUse

np = NumpyOnFirstUse(globals())

RUNS_FROM = 128   # the faces from which PwlA.sorted gathers its rows by runs


class PwlA:
    """A(u) for the piecewise-linear kind, a = avs at the N nodes us: one row
    per stretch of the a' table, of values ``slopes``.  Rows 1..N-1 are the
    segments between nodes, rows 0 and N the constant extensions of a."""

    def __init__(self, us, avs, slopes):
        raw = np.concatenate(([0.0], np.cumsum(0.5 * (avs[1:] + avs[:-1]) * np.diff(us))))
        # the row of u; the last node stays on the last segment
        self.breaks = np.append(us[:-1], np.nextafter(us[-1], np.inf))
        # per row one column, gathered in one call: u, a, A_raw where it starts, half
        # the slope of a (-0.0 on the extensions, where the quadratic term changes no bit)
        half_slope = 0.5 * slopes
        half_slope[[0, -1]] = -0.0
        self.table = np.vstack([np.r_[v[0], v] for v in (us, avs, raw)] + [half_slope])
        # then A_raw(0), from a first call; None for +0.0: x - (+0.0) is x, even for -0.0
        self.shift = None
        shift = float(self(np.asarray(0.0)))
        if shift or math.copysign(1.0, shift) < 0:
            self.shift = np.array(shift)   # 0-d, as in _horner_coeffs

    def __call__(self, u, out=None):
        """A(u) = A_raw(u) - A_raw(0), A_raw the integral of a from the first node."""
        return self._finish(u, self.table.take(self.breaks.searchsorted(u, side="right"), 1), out)

    def sorted(self, e, out):
        """A at nondecreasing faces e, into ``out``, bit for bit as __call__.

        Sorted faces fill the rows in order, so from RUNS_FROM faces on the
        columns are gathered in runs: e[j] >= breaks[k] from pos[k] on (side
        left; side right would put a face on a node in the row before it),
        and row r repeats pos[r] - pos[r - 1] times, pos[-1] = 0 and
        pos[N] = e.size.  Fewer faces take __call__'s one take, which costs
        less than the runs' fixed Python work there.
        """
        if e.size < RUNS_FROM:
            return self(e, out)
        pos = e.searchsorted(self.breaks).tolist()
        pos.append(e.size)
        return self._finish(e, self.table.repeat(list(map(operator.sub, pos, [0, *pos])), 1), out)

    def _finish(self, u, rows, out):
        """A from the rows gathered for u: u0, a0, raw0, half slope."""
        u0, val, raw0, quad = rows
        du = np.subtract(u, u0, out=u0 if u0.ndim else None)   # a 0-d u gathers scalars
        val *= du
        val += raw0               # raw + a0*du
        quad *= du
        quad *= du                # 0.5*slope*du*du
        out = np.add(val, quad, out)
        if self.shift is not None:
            out -= self.shift
        return out
