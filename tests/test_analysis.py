import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dualflow
from dualflow import analysis as an
from dualflow import flux as fx
from dualflow import measure as ms
from dualflow import pde, riemann

ATTR = fx.quadratic_attractive()
REP = fx.quadratic_repulsive()


def dirac_snapshots(model=ATTR, x_min=-3.0, x_max=1.0, n=200, t_end=1.0,
                    output_times=(0.0, 0.5), cfl=0.45):
    mu = ms.AtomicMeasure.from_pairs([(0.0, 1.0)])
    f = ms.sample_to_grid(mu, x_min, x_max, n)
    return mu, pde.run(f, model, t_end, cfl=cfl, output_times=list(output_times))


class TestSpeedRange:
    def test_attractive_unit_jump(self):
        low, high, sel = riemann.admissible_speed_range(ATTR, 0.0, 1.0)
        assert (low, high) == (-1.0, 0.0)
        assert sel == -0.5

    def test_selected_is_chord_slope(self):
        model = fx.polynomial([1.0, -2.0])  # A(u) = u - u^2
        low, high, sel = riemann.admissible_speed_range(model, 0.0, 1.0)
        assert sel == pytest.approx(0.0, abs=1e-15)
        assert low <= sel <= high

    def test_degenerate_pair_rejected(self):
        with pytest.raises(an.AnalysisError):
            riemann.admissible_speed_range(ATTR, 0.5, 0.5)


class TestOleinik:
    def test_attractive_osl_holds(self):
        _, snaps = dirac_snapshots()
        for s in snaps[1:]:
            recs = an.check_oleinik(s, ATTR, tol=5 * s.field.dx)
            assert [r.name for r in recs] == ["oleinik_osl"]
            assert recs[0].passed

    def test_repulsive_density_bound(self):
        _, snaps = dirac_snapshots(model=REP, x_min=-1.0, x_max=3.0, n=400,
                                   t_end=2.0, output_times=(0.5, 1.0, 2.0),
                                   cfl=0.9)
        for s in snaps:
            if s.t == 0.0:
                continue
            recs = an.check_oleinik(s, REP, tol=5 * s.field.dx)
            names = [r.name for r in recs]
            assert names == ["oleinik_osl", "oleinik_density"]
            assert all(r.passed for r in recs)

    def test_undefined_at_t0(self):
        _, snaps = dirac_snapshots()
        with pytest.raises(an.AnalysisError):
            an.check_oleinik(snaps[0], ATTR, tol=0.01)


class TestWeakResidual:
    def test_small_for_solver_output(self):
        f = ms.sample_to_grid(ms.AtomicMeasure.from_pairs([(0.0, 1.0)]),
                              -3.0, 1.0, 200)
        snaps = pde.run(f, ATTR, 1.0,
                        output_times=list(np.linspace(0.0, 1.0, 101)))
        res = an.weak_residual(snaps, ATTR)
        assert res < 20 * f.dx

    def test_large_for_wrong_dynamics(self):
        # freeze the initial field in time: residual must not be small
        f = ms.sample_to_grid(ms.AtomicMeasure.from_pairs([(0.0, 1.0)]),
                              -3.0, 1.0, 200)
        frozen = [pde.SolverState(t, f) for t in np.linspace(0.0, 1.0, 21)]
        assert an.weak_residual(frozen, ATTR) > 0.05

    def test_deterministic_given_seed(self):
        _, snaps = dirac_snapshots(output_times=np.linspace(0, 1, 11))
        assert an.weak_residual(snaps, ATTR) == an.weak_residual(snaps, ATTR)

    def test_needs_two_snapshots(self):
        _, snaps = dirac_snapshots()
        with pytest.raises(an.AnalysisError):
            an.weak_residual(snaps[:1], ATTR)


def _closure_bump(c, r):
    def phi(x):
        s = (np.asarray(x, dtype=float) - c) / r
        w = np.clip(1.0 - s * s, 0.0, None)
        return w * w

    def dphi(x):
        s = (np.asarray(x, dtype=float) - c) / r
        w = np.clip(1.0 - s * s, 0.0, None)
        return -4.0 * s * w / r

    return phi, dphi


def _weak_residual_reference(snapshots, model):
    """The weak residual as 32 (phi, phi', psi, psi') closures, each taken
    in turn; weak_residual must keep its value bit for bit.  Each space
    integral is one einsum over the cells, which sums as weak_residual's
    stacked einsum does, without BLAS."""
    f0 = snapshots[0].field
    times = np.array([s.t for s in snapshots])
    t0, t1 = float(times[0]), float(times[-1])
    rng = np.random.default_rng(0)
    span = f0.x_max - f0.x_min
    spatial = []
    for _ in range(8):
        r = span * rng.uniform(0.1, 0.3)
        c = rng.uniform(f0.x_min + 1.05 * r, f0.x_max - 1.05 * r)
        spatial.append(_closure_bump(c, r))
    temporal = [(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                 lambda t: np.zeros_like(np.asarray(t, dtype=float)))]
    T = t1 - t0
    for _ in range(3):
        r = T * rng.uniform(0.2, 0.45)
        c = rng.uniform(t0 + 0.05 * T, t1 - 0.05 * T)
        temporal.append(_closure_bump(c, r))
    u_mid = np.array([0.5 * (s.field.u_faces[:-1] + s.field.u_faces[1:])
                      for s in snapshots])
    A_mid = fx.eval_A(model, u_mid)
    worst = 0.0
    for phi, dphi in spatial:
        for psi, dpsi in temporal:
            pv = phi(f0.centers)
            if abs(pv[0]) > 0 or abs(pv[-1]) > 0:
                raise an.AnalysisError("test function support touches the domain boundary")
            space_u = np.einsum("sc,c->s", u_mid, pv) * f0.dx
            space_Adp = np.einsum("sc,c->s", A_mid, dphi(f0.centers)) * f0.dx
            psiv, dpsiv = psi(times), dpsi(times)
            interior = float(np.trapezoid(space_u * dpsiv + space_Adp * psiv, times))
            boundary = float(space_u[-1] * psiv[-1] - space_u[0] * psiv[0])
            worst = max(worst, abs(interior - boundary))
    return worst


# one model per flux kind
KIND_MODELS = [ATTR, REP, fx.polynomial([0.0, 1.0, -1.0]),
               fx.piecewise_linear([[0.0, 1.0], [0.3, 0.2], [0.7, -0.1], [1.0, -1.0]])]
ATOM_DATA = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 0.3)),
                     min_size=1, max_size=4).map(ms.AtomicMeasure.from_pairs)
DENSITY_DATA = (st.tuples(st.floats(-1.0, -0.1), st.floats(0.1, 1.0), st.floats(0.2, 1.2))
                .flatmap(lambda b: st.sampled_from([
                    ms.UniformDensity(*b), ms.TriangularDensity(b[0], 0.0, b[1], b[2])])))


# distinct finite states, subnormals included: any two, or two a relative gap apart
STATE = st.floats(allow_nan=False, allow_infinity=False)
NEAR_PAIRS = st.tuples(st.floats(0.5, 2.0), st.floats(1e-15, 1.0)).map(
    lambda p: (p[0], p[0] * (1.0 + p[1])))
STATE_PAIRS = (st.tuples(STATE, STATE) | NEAR_PAIRS).filter(lambda p: p[0] != p[1])


class TestSelectedSpeedInRange:
    """The chord slope of A lies in the range of a (mean value theorem); the
    rounded one is kept there, and an overflow is refused."""

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from(KIND_MODELS), pair=STATE_PAIRS)
    @example(model=ATTR, pair=(0.0, 1e155))   # A(1e155) overflows; a clip would hide it
    @example(model=KIND_MODELS[2], pair=(0.0, 1.0))   # a(u) = u - u^2: a at the ends gives (0, 0)
    def test_selected_speed(self, model, pair):
        u_minus, u_plus = pair
        with np.errstate(over="ignore", invalid="ignore"):
            width = u_plus - u_minus
            chord = (fx.eval_A(model, u_plus) - fx.eval_A(model, u_minus)) / width
            low, high = fx.a_range(model, u_minus, u_plus)
        if not all(map(math.isfinite, (low, high, width, chord))):
            with pytest.raises(an.AnalysisError, match="overflows"):
                riemann.admissible_speed_range(model, u_minus, u_plus)
            return
        bottom, top, selected = riemann.admissible_speed_range(model, u_minus, u_plus)
        assert low <= selected <= high
        assert bottom <= selected <= top   # the returned range holds it too

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(KIND_MODELS), pair=STATE_PAIRS)
    def test_shock_speeds(self, model, pair):
        u_minus, u_plus = sorted(pair)
        try:
            info = riemann.classify_riemann(model, u_minus, u_plus)
        except an.AnalysisError as exc:
            assert "overflows" in str(exc)
            return
        assert info["admissible_low"] <= info["admissible_high"]
        for kind, ua, ub, s in info["segments"]:
            if kind == "shock":
                low, high = fx.a_range(model, ua, ub)
                assert low <= s <= high


# the digest of weak_residual's space integrals on 101 random snapshots of 10 000 cells
BLAS_CHILD = """
import hashlib, types
import numpy as np
from dualflow import analysis, flux
from dualflow.measure import GridField
u = np.cumsum(np.random.default_rng(5).random((101, 10_001)), axis=1)
snapshots = [types.SimpleNamespace(t=0.01 * k, field=GridField(-1.0, 1.0, 10_000, row))
             for k, row in enumerate(u)]
integrals = analysis._space_integrals(snapshots, flux.quadratic_attractive())
print(hashlib.sha256(b"".join(a.tobytes() for a in integrals)).hexdigest())
"""


class TestWeakResidualFamily:
    def test_draws_are_the_first_of_default_rng_0(self):
        assert an.WEAK_DRAWS == tuple(np.random.default_rng(0).random(22).tolist())

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(KIND_MODELS), data=ATOM_DATA | DENSITY_DATA,
           n=st.integers(20, 160), t_end=st.floats(0.05, 0.5),
           n_times=st.integers(2, 7))
    def test_equals_the_closure_family_bit_for_bit(self, model, data, n, t_end, n_times):
        f = ms.sample_to_grid(data, -5.0, 5.0, n)
        snaps = pde.run(f, model, t_end,
                        output_times=list(np.linspace(0.0, t_end, n_times)))
        try:
            ref = _weak_residual_reference(snaps, model)
        except an.AnalysisError as exc:   # a coarse grid: a bump reaches the first cell
            with pytest.raises(an.AnalysisError, match=str(exc)):
                an.weak_residual(snaps, model)
            return
        got = an.weak_residual(snaps, model)
        assert type(got) is float
        assert np.float64(got).view(np.int64) == np.float64(ref).view(np.int64)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: one BLAS thread")
    def test_space_integrals_do_not_depend_on_the_blas_thread_count(self):
        # 101 snapshots of 10 000 cells: a BLAS matrix-vector product per bump
        # (u_mid @ phi) sums this shape in another order with two threads
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(Path(dualflow.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env,
                                 capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
            digests.append(out.stdout)
        assert digests[0] == digests[1]

    def test_support_touching_the_boundary_rejected(self):
        # on 20 cells of [-3, 1] the first cell centre lies inside a bump
        _, snaps = dirac_snapshots(n=20)
        with pytest.raises(an.AnalysisError, match="touches the domain boundary"):
            an.weak_residual(snaps, ATTR)


class TestFlowPushforward:
    def test_flow_monotone_in_q(self):
        mu = ms.AtomicMeasure.from_pairs([(-0.25, 0.5), (0.25, 0.5)])
        f = ms.sample_to_grid(mu, -3.0, 1.0, 400)
        snaps = pde.run(f, ATTR, 0.5, output_times=[0.0, 0.25, 0.5])
        flow = an.reconstruct_flow(snaps, mu, ATTR)
        assert flow.q.size == 2
        np.testing.assert_allclose(flow.weights, [0.5, 0.5])
        for row in flow.X:
            assert np.all(np.diff(row) >= 0)

    def test_pushforward_identity(self):
        mu, snaps = dirac_snapshots(n=800)
        flow = an.reconstruct_flow(snaps, mu, ATTR)
        span = 4.0
        funcs = {"x": (lambda x: x, 1.0),
                 "x2": (lambda x: x * x, 2 * span),
                 "sin": (np.sin, 1.0)}
        recs = an.pushforward_checks(flow, snaps, funcs, tol_per_lip=0.025)
        assert recs and all(r.passed for r in recs)

    def test_refused_for_repulsive(self):
        mu, snaps = dirac_snapshots(model=REP, x_min=-1.0, x_max=3.0)
        with pytest.raises(an.AnalysisError):
            an.reconstruct_flow(snaps, mu, REP)


class TestPressureless:
    @pytest.mark.parametrize("model,kw", [
        (ATTR, dict()),
        (REP, dict(x_min=-1.0, x_max=3.0, cfl=0.9)),
    ])
    def test_momentum_records_pass(self, model, kw):
        _, snaps = dirac_snapshots(model=model, **kw)
        recs = an.pressureless_check(snaps, model)
        names = {r.name for r in recs}
        assert names == {"momentum_total", "momentum_bracket"}
        assert all(r.passed for r in recs)


class TestNonuniqueness:
    def test_family_and_selection(self):
        # unit Dirac, a(u) = -u: any speed in (-1, 0) is admissible,
        # only -1/2 is selected
        demo = riemann.nonuniqueness_demo(ATTR, 0.0, -0.25, 1.0)
        assert demo["admissible"] and not demo["selected"]
        demo = riemann.nonuniqueness_demo(ATTR, 0.0, -0.5, 1.0)
        assert demo["admissible"] and demo["selected"]
        assert demo["x_final"] == -0.5
        demo = riemann.nonuniqueness_demo(ATTR, 0.0, 0.5, 1.0)
        assert not demo["admissible"]

    def test_endpoints_not_admissible(self):
        assert not riemann.nonuniqueness_demo(ATTR, 0.0, -1.0, 1.0)["admissible"]
        assert not riemann.nonuniqueness_demo(ATTR, 0.0, 0.0, 1.0)["admissible"]


class TestRiemannClassification:
    def test_concave_is_shock(self):
        out = riemann.classify_riemann(ATTR, 0.0, 1.0)
        assert out["wave"] == "shock"
        assert out["segments"][0][3] == pytest.approx(-0.5)

    def test_convex_is_rarefaction(self):
        out = riemann.classify_riemann(REP, 0.0, 1.0)
        assert out["wave"] == "rarefaction"

    def test_s_shaped_is_composite(self):
        # a(u) = 3(u - 1/2)^2 - 3/4 + 3/4... use a = 3u^2 - 3u + 0.75:
        # A has an inflection, envelope = rarefaction then shock
        model = fx.polynomial([0.75, -3.0, 3.0])
        out = riemann.classify_riemann(model, 0.0, 1.0)
        assert out["wave"] == "composite"
        kinds = [seg[0] for seg in out["segments"]]
        assert "shock" in kinds and "rarefaction" in kinds

    def test_needs_increasing_states(self):
        with pytest.raises(an.AnalysisError):
            riemann.classify_riemann(ATTR, 1.0, 0.0)


class TestReport:
    def test_json_round_trip(self, tmp_path):
        import json

        from dualflow import cli

        scn = cli.load_scenario(cli.bundled_scenario("two_atoms_attractive.json"))
        records = [an.CheckRecord("mass", 1.0, 0.0, 0.0, 1e-12, True),
                   an.CheckRecord("osl", 1.0, 2.0, 1.0, 0.0, False)]
        cli.write_files(str(tmp_path), cli.json_report(scn._replace(raw={"name": "demo"}), records))
        data = json.loads((tmp_path / "diagnostics.json").read_text())
        assert data["scenario"] == {"name": "demo"}
        assert [an.CheckRecord(**c) for c in data["checks"]] == records
