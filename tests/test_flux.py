import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from numpy.polynomial import polynomial as P
from scipy.integrate import quad

from dualflow import flux as fx

ATTR = fx.quadratic_attractive()
REP = fx.quadratic_repulsive()
LIN = fx.polynomial([1.0, -2.0])          # a(u) = 1 - 2u
CUBIC = fx.polynomial([0.75, -3.0, 3.0])  # a(u) = 3(u - 1/2)^2, S-shaped A
PWL = fx.piecewise_linear([(0.0, 1.0), (0.5, -1.0), (2.0, -1.0)])

ALL_MODELS = [ATTR, REP, LIN, CUBIC, PWL]


def test_tables_built_at_construction():
    models = [fx.quadratic_attractive(), fx.quadratic_repulsive(),
              fx.polynomial([0.75, -3.0, 3.0]),
              fx.piecewise_linear([(0.0, 1.0), (0.5, -1.0), (2.0, -1.0)])]
    assert tuple(m.kind for m in models) == fx.KINDS
    for model in models:
        tables = model._tables   # of A, a and a', before any evaluation
        assert type(tables) is tuple and len(tables) == 3
        assert all(isinstance(t, fx._Extrema) for t in tables)
        fx.godunov_flux(model, 0.0, 1.0)
        fx.max_slope_of_a(model, 0.0, 1.0)
        assert model._tables is tables


def test_equal_models_compare_and_hash_alike_but_keep_their_own_tables():
    plus, minus = fx.polynomial([0.0, 1.0]), fx.polynomial([-0.0, 1.0])
    assert plus == minus and hash(plus) == hash(minus) and {plus: 1}[minus] == 1
    assert fx.polynomial([0, 1]) == plus != fx.quadratic_repulsive() and plus != "polynomial"
    assert repr(plus) == "FluxModel(kind='polynomial', a_coeffs=(0.0, 1.0), nodes=())"
    # each evaluates with the sign of zero it was given: a(-0.0) = -0.0 + -0.0 only for minus
    assert plus._tables is not minus._tables
    assert not np.signbit(fx.eval_a(plus, -0.0)) and np.signbit(fx.eval_a(minus, -0.0))


def test_eval_a_examples():
    assert fx.eval_a(ATTR, 1.0) == -1.0
    assert fx.eval_a(ATTR, 0.0) == 0.0
    assert fx.eval_a(LIN, 0.5) == 0.0


def test_eval_A_examples():
    assert fx.eval_A(ATTR, 1.0) == -0.5
    for m in ALL_MODELS:
        assert fx.eval_A(m, 0.0) == 0.0
    assert fx.eval_A(REP, 2.0) == 2.0


def test_non_finite_input_rejected():
    with pytest.raises(fx.FluxError):
        fx.eval_a(ATTR, float("nan"))
    with pytest.raises(fx.FluxError):
        fx.eval_A(REP, float("inf"))
    with pytest.raises(fx.FluxError):
        fx.godunov_flux(ATTR, 0.0, float("nan"))


@pytest.mark.parametrize("model", ALL_MODELS)
def test_antiderivative_matches_quadrature(model):
    # A(u) must equal the integral of a from 0 to u
    pts = [u for u, _ in model.nodes] if model.nodes else None
    for u in np.linspace(-0.5, 2.0, 9):
        ref, _ = quad(lambda s: fx.eval_a(model, s), 0.0, u,
                      points=pts, limit=200)
        assert fx.eval_A(model, u) == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("model", [ATTR, REP, LIN, CUBIC])
def test_finite_difference_consistency(model):
    h = 1e-4
    rng = np.random.default_rng(1)
    for u in rng.uniform(0.0, 2.0, 100):
        fd = (fx.eval_A(model, u + h) - fx.eval_A(model, u - h)) / (2 * h)
        assert abs(fd - fx.eval_a(model, u)) <= 10 * h * h


def test_godunov_flux_examples():
    assert fx.godunov_flux(ATTR, 0.0, 1.0) == -0.5
    assert fx.godunov_flux(REP, 0.0, 1.0) == 0.0
    for m in ALL_MODELS:
        assert fx.godunov_flux(m, 0.3, 0.3) == pytest.approx(
            fx.eval_A(m, 0.3), abs=1e-15)


def test_godunov_flux_interior_extremum():
    # a(u) = 1 - 2u vanishes at 1/2 where A = u - u^2 peaks
    assert fx.godunov_flux(LIN, 1.0, 0.0) == pytest.approx(0.25, abs=1e-14)
    assert fx.godunov_flux(LIN, 0.0, 1.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_godunov_flux_monotone(model):
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(200):
        ul, ur = rng.uniform(-0.5, 2.0, 2)
        base = fx.godunov_flux(model, ul, ur)
        assert fx.godunov_flux(model, ul + eps, ur) >= base - 1e-12
        assert fx.godunov_flux(model, ul, ur + eps) <= base + 1e-12


@pytest.mark.parametrize("model", ALL_MODELS)
def test_chord_slope_in_velocity_range(model):
    rng = np.random.default_rng(11)
    for _ in range(100):
        ul = rng.uniform(-0.5, 1.5)
        ur = ul + rng.uniform(1e-3, 1.0)
        slope = (fx.eval_A(model, ur) - fx.eval_A(model, ul)) / (ur - ul)
        amin, amax = fx.a_range(model, ul, ur)
        assert amin - 1e-12 <= slope <= amax + 1e-12


def _slope_samples(model, lo, hi):
    """a' at points strictly inside (lo, hi); none when lo == hi."""
    u = np.linspace(lo, hi, 202)
    u = 0.5 * (u[:-1] + u[1:])
    u = u[(lo < u) & (u < hi)]
    if model.nodes:
        us, avs = np.array(model.nodes).T
        slopes = np.concatenate(([0.0], np.diff(avs) / np.diff(us), [0.0]))
        return slopes[np.searchsorted(us, u, side="right")]
    return P.polyval(u, P.polyder(model.a_coeffs))


# one model per flux kind; this polynomial has interior extrema of a and a'
@pytest.mark.parametrize("model", [
    ATTR, REP, fx.polynomial([0.1, 1.0, -3.0, 2.0]), PWL], ids=lambda m: m.kind)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 2.5), st.floats(-1.0, 2.5)),
                min_size=1, max_size=8))
def test_range_queries_bracket_samples(model, intervals):
    lo = np.array([min(p) for p in intervals])
    hi = np.array([max(p) for p in intervals])
    amin, amax = fx.a_range(model, lo, hi)
    slope = fx.max_slope_on_intervals(model, lo, hi)
    flux = fx.godunov_flux(model, lo, hi)
    for k, (l, h) in enumerate(zip(lo.tolist(), hi.tolist())):
        # the array call equals the element-by-element 0-d calls exactly
        assert fx.a_range(model, l, h) == (amin[k], amax[k])
        assert fx.max_slope_on_intervals(model, l, h) == slope[k]
        assert np.float64(fx.godunov_flux(model, l, h)).view(np.int64) == flux[k].view(np.int64)
        u = np.linspace(l, h, 201)
        a = fx.eval_a(model, u)
        assert amin[k] - 1e-12 <= a.min() and a.max() <= amax[k] + 1e-12
        assert np.all(_slope_samples(model, l, h) <= slope[k] + 1e-12)
        # the min of A over [l, h]: below every sample, and above the smallest
        # by at most max |a| times half the sample spacing
        A = fx.eval_A(model, u).min()
        assert A - 1e-12 - max(-amin[k], amax[k]) * (h - l) / 400 <= flux[k] <= A + 1e-12


def test_velocity_continuity_by_sampling():
    for model in ALL_MODELS:
        u = np.linspace(-0.1, 2.1, 20001)
        jumps = np.abs(np.diff(fx.eval_a(model, u)))
        assert np.max(jumps) < 1e-2  # shrinks with sample spacing


def test_max_wave_speed():
    assert fx.max_wave_speed(ATTR, 0.0, 1.0) == 1.0
    assert fx.max_wave_speed(REP, 0.0, 1.0) == 1.0
    assert fx.max_wave_speed(LIN, 0.0, 1.0) == 1.0
    # interior max of a(u) = 3(u-1/2)^2 on [0,1] sits at the endpoints
    assert fx.max_wave_speed(CUBIC, 0.0, 1.0) == pytest.approx(0.75)


def test_attractive_classification():
    assert fx.is_attractive(ATTR, 1.0)
    assert fx.is_attractive(LIN, 1.0)
    assert not fx.is_attractive(REP, 1.0)
    assert not fx.is_attractive(CUBIC, 1.0)
    assert fx.is_attractive(PWL, 2.0)  # a never increases, flat tail included
    assert fx.max_slope_of_a(PWL, 0.0, 2.0) <= 0.0
    rising = fx.piecewise_linear([(0.0, -1.0), (1.0, 1.0)])
    assert not fx.is_attractive(rising, 1.0)


def test_max_slope_pwl_segments_and_extensions():
    # a' is -4 on (0, 0.5) and 0 on the flat tail and the constant extensions
    assert fx.max_slope_of_a(PWL, 0.0, 0.5) == -4.0
    assert fx.max_slope_of_a(PWL, -1.0, 0.25) == 0.0
    assert fx.max_slope_of_a(PWL, 0.5, 3.0) == 0.0
    assert fx.max_slope_of_a(PWL, 0.1, 0.1) == -4.0


@pytest.mark.parametrize("make", [
    lambda: fx.piecewise_linear([(0.0, 0.0), (5e-324, 1.0)]),      # slope of a overflows
    lambda: fx.piecewise_linear([(0.0, 0.0), (float("inf"), 1.0)]),
    lambda: fx.polynomial([1.0, 2.2e-309]),                        # np.roots overflows
    lambda: fx.polynomial([float("nan")]),
], ids=["close-nodes", "infinite-node", "subnormal-lead", "nan-coefficient"])
def test_models_without_finite_flux_rejected(make):
    with pytest.raises(fx.FluxError):
        make()


def test_far_roots_build_without_warnings():
    # a tiny top coefficient puts a root of a' near -5e299, where a overflows;
    # a subnormal one makes np.roots overflow before the model is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fx.a_range(fx.polynomial([0.0, 1.0, 1e-300]), 0.0, 1.0) == (0.0, 1.0)
        with pytest.raises(fx.FluxError):
            fx.polynomial([1.0, 2.2e-309])


def _pwl_A_reference(model, u):
    """The antiderivative formula with all three branches evaluated, then
    shifted by A_raw(0); eval_A must keep its values bit for bit."""
    us, avs = (np.array(v) for v in zip(*model.nodes))
    raw = np.concatenate(([0.0], np.cumsum(0.5 * (avs[1:] + avs[:-1]) * np.diff(us))))

    def A_raw(u):
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(us, u, side="right") - 1, 0, len(us) - 2)
        u0, u1, a0, a1 = us[idx], us[idx + 1], avs[idx], avs[idx + 1]
        du = u - u0
        slope = (a1 - a0) / (u1 - u0)
        inside = raw[idx] + a0 * du + 0.5 * slope * du * du
        below = raw[0] + avs[0] * (u - us[0])
        above = raw[-1] + avs[-1] * (u - us[-1])
        return np.where(u < us[0], below, np.where(u > us[-1], above, inside))

    return A_raw(u) - A_raw(0.0)


@settings(max_examples=60, deadline=None)
# A_raw(0) = -0.0, whose subtraction turns A's -0.0 into +0.0
@example(us=[-1.0, 0.0, 1.0], avs=[-0.0, -0.0, -1.0, 0.0, 0.0, 0.0], u=[0.0, -0.5])
@given(us=st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=6, unique=True),
       avs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
       u=st.lists(st.floats(-1.5, 2.5), min_size=1, max_size=30))
def test_pwl_eval_A_keeps_its_values(us, avs, u):
    try:
        model = fx.piecewise_linear(zip(sorted(us), avs))
    except fx.FluxError:   # nodes too close for a finite slope of a
        reject()
    # the nodes themselves: an interior node on the segment it starts, the
    # last node on the last segment
    for points in (np.array(u), np.clip(u, min(us), max(us)), np.array(sorted(us))):
        ref = _pwl_A_reference(model, points)
        assert np.array_equal(fx.eval_A(model, points).view(np.int64), ref.view(np.int64))
        scalar = np.float64(fx.eval_A(model, float(points[0])))
        assert scalar.view(np.int64) == ref[0].view(np.int64)


# x = +-0.0, subnormals, +-1e300 and values whose powers overflow to inf
HORNER_X = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
                     1.7e308, 1e160, -1e160, 0.3, -2.0])


@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_horner_equals_polyval_bit_for_bit(length):
    # leading coefficients 0.0, -0.0, 5e-324 and 1e300, and zeros of either sign
    # inside, whose adds _horner_coeffs leaves out unless c[0] is -0.0
    values = [0.0, -0.0, 5e-324, 1e300, -1.5]
    with np.errstate(over="ignore", invalid="ignore"):
        for c in itertools.product(values, repeat=length):
            ref = P.polyval(HORNER_X, np.array(c))
            got = fx._horner(HORNER_X, fx._horner_coeffs(c), np.empty(HORNER_X.size))
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), c


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0),
                       min_size=1, max_size=5),
       u=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
@example(coeffs=[-0.0], u=[-0.0] * 6)   # then a model equal to it, with the other zero
@example(coeffs=[0.0], u=[-0.0] * 6)
def test_polynomial_eval_equals_polyval_bit_for_bit(coeffs, u):
    # eval_a and eval_A run _horner; numpy's polyval, on a and on its integral
    # from 0, stays the reference
    try:
        model = fx.polynomial(coeffs)
    except fx.FluxError:   # roots out of range
        reject()
    for x in (u[0], np.array(u), np.array(u).reshape(2, 3)):
        for got, c in ((fx.eval_a(model, x), coeffs), (fx.eval_A(model, x), P.polyint(coeffs))):
            ref = P.polyval(x, np.array(c))
            assert np.shape(got) == np.shape(ref) and np.array_equal(bits(got), bits(ref))


@pytest.mark.parametrize("model, expected", [
    (fx.quadratic_repulsive(), True), (fx.polynomial([0, 1]), True),
    (fx.polynomial([-0.0, 1.0, 0.0, 0.0]), True), (fx.quadratic_attractive(), False),
    (fx.polynomial([0, 1, 1e-300]), False), (fx.polynomial([1e-300, 1]), False),
    (fx.polynomial([0, 2]), False), (fx.polynomial([0]), False),
    # a = u on [0, 1] only: constant outside the nodes
    (fx.piecewise_linear([(0.0, 0.0), (1.0, 1.0)]), False),
])
def test_identity_a_is_recognised_by_value(model, expected):
    assert fx.is_identity_a(model) is expected
