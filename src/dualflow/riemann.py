"""Riemann problems: the admissible speeds of a jump, the speed the flux
selects, the non-uniqueness demonstration for a single Dirac, and the wave
structure of the riemann command.

Informational: the scheme and the checks need none of it.  Loaded on first
use, by `dualflow riemann` and by the names ``analysis`` serves from here;
no other command compiles it.
"""

from __future__ import annotations

import math

from . import NumpyOnFirstUse
from . import flux as fx
from .analysis import AnalysisError
from .scenario import parse_flux, read_json

np = NumpyOnFirstUse(globals())

RIEMANN_SAMPLES = 2001   # classify_riemann: points on which the envelope of A is taken
RIEMANN_TOL = 1e-10      # classify_riemann: dip of A below the chord (over max |A|) of a shock


def admissible_speed_range(model: fx.FluxModel, u_minus: float, u_plus: float):
    """(low, high, selected) speeds for a jump from u_minus to u_plus.

    low/high are the range of a on the interval (fx.a_range); selected is
    the Rankine-Hugoniot chord slope of A, the speed singled out by the
    flux-product identity, which the mean value theorem puts in that range.
    """
    if u_minus == u_plus:
        raise AnalysisError("degenerate state pair (u_minus == u_plus)")
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        low, high = fx.a_range(model, u_minus, u_plus)
        width = u_plus - u_minus
        selected = _chord_slope(model, u_minus, u_plus, low, high)
    if not all(map(math.isfinite, (low, high, width, selected))):
        raise AnalysisError(f"a, A or the chord slope of A overflows for the states "
                            f"({u_minus}, {u_plus})")
    return low, high, selected


def _chord_slope(model: fx.FluxModel, l: float, r: float, low: float, high: float) -> float:
    """(A(r) - A(l)) / (r - l), clipped to (low, high), the range of a on
    [l, r], where the mean value theorem puts the exact slope: the clip
    removes only rounding.  An overflow stays inf or nan."""
    s = (fx.eval_A(model, r) - fx.eval_A(model, l)) / (r - l)
    return min(max(s, low), high) if math.isfinite(s) else s


def nonuniqueness_demo(model: fx.FluxModel, x0: float, speed: float,
                       t_end: float) -> dict:
    """Classify the candidate solution delta_{x0 + speed t} for unit mass.

    Any speed strictly inside the range of a on [0, 1] ((a(1), a(0)) for a
    non-increasing a) yields a duality solution; only the chord slope
    A(1) - A(0) satisfies the flux-product selection.
    """
    low, high, selected = admissible_speed_range(model, 0.0, 1.0)
    admissible = low < speed < high
    is_selected = abs(speed - selected) <= 1e-12
    return {
        "x0": x0,
        "speed": speed,
        "t_end": t_end,
        "x_final": x0 + speed * t_end,
        "admissible_low": low,
        "admissible_high": high,
        "selected_speed": selected,
        "admissible": admissible,
        "selected": is_selected,
    }


def classify_riemann(model: fx.FluxModel, u_minus: float, u_plus: float) -> dict:
    """Wave structure for nondecreasing data: one rarefaction where a' >= 0 on
    [u_minus, u_plus] and a is not constant, one shock where a' <= 0, each
    decided from the signs of a' (flux.slope_range_of_a); where a' changes
    sign, the lower convex envelope of A, sampled."""
    if u_minus >= u_plus:
        raise AnalysisError("a Riemann problem requires u_minus < u_plus")
    low, high, selected = admissible_speed_range(model, u_minus, u_plus)
    with np.errstate(over="ignore", invalid="ignore"):   # an infinite a' keeps its sign
        slope_low, slope_high = fx.slope_range_of_a(model, u_minus, u_plus)
    if slope_low >= 0 and slope_high > 0:
        segments = [("rarefaction", float(u_minus), float(u_plus), None)]
    elif slope_high <= 0:
        segments = [("shock", float(u_minus), float(u_plus), selected)]
    else:   # a' changes sign: the envelope decides
        segments = _envelope_segments(model, u_minus, u_plus)
    wave = segments[0][0] if len(segments) == 1 else "composite"
    return {
        "wave": wave,
        "segments": segments,
        "admissible_low": low,
        "admissible_high": high,
        "selected_speed": selected,
    }


def _envelope_segments(model: fx.FluxModel, u_minus: float, u_plus: float) -> list:
    """The waves of the lower convex envelope of A on [u_minus, u_plus],
    sampled at RIEMANN_SAMPLES points: one shock where A stays above its
    chord (within RIEMANN_TOL)."""
    us = np.linspace(u_minus, u_plus, RIEMANN_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):   # refused below instead
        As = fx.eval_A(model, us)
        chord = As[0] + (As[-1] - As[0]) * (us - us[0]) / (us[-1] - us[0])
        # no cross product of the hull exceeds this
        reach = 2.0 * (us[-1] - us[0]) * (As.max() - As.min())
    if not (np.isfinite(chord).all() and np.isfinite(reach)):
        raise AnalysisError(f"the envelope of A overflows for the states "
                            f"({u_minus}, {u_plus})")
    scale = max(1.0, float(np.max(np.abs(As))))
    if np.all(As >= chord - RIEMANN_TOL * scale):
        hull = [0, us.size - 1]   # one shock
    else:
        hull = _lower_hull_indices(us, As)
    # an edge between neighbouring samples follows the graph of A (rarefaction),
    # a longer one is a chord of A (shock); consecutive graph edges merge
    segments = []
    for i, j in zip(hull, hull[1:]):
        ua, ub = float(us[i]), float(us[j])
        if j - i > 1:
            speed = _chord_slope(model, ua, ub, *fx.a_range(model, ua, ub))
            segments.append(("shock", ua, ub, speed))
        elif segments and segments[-1][0] == "rarefaction":
            segments[-1] = ("rarefaction", segments[-1][1], ub, None)
        else:
            segments.append(("rarefaction", ua, ub, None))
    return segments


def _lower_hull_indices(x: np.ndarray, y: np.ndarray) -> list[int]:
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (x[i2] - x[i1]) * (y[i] - y[i1]) - (y[i2] - y[i1]) * (x[i] - x[i1])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def cmd_riemann(args) -> int:
    model = parse_flux(read_json(args.flux, "--flux"))
    info = classify_riemann(model, args.u_minus, args.u_plus)
    print(f"admissible speed range: ({info['admissible_low']}, {info['admissible_high']})")
    print(f"selected (Rankine-Hugoniot) speed: {info['selected_speed']}")
    print(f"wave type: {info['wave']}")
    for kind, ua, ub, s in info["segments"]:
        if kind == "shock":
            print(f"  shock {ua} -> {ub}, speed {s}")
        else:
            print(f"  rarefaction {ua} -> {ub}")
    return 0
