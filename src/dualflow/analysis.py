"""Diagnostics: every checkable solution property, as a named record.

Covers the one-sided Lipschitz (Oleinik) bound, weak residuals of
u_t + A(u)_x = 0, quantile-based flow reconstruction with the push-forward
identity and the pressureless momentum extension.  The _check_* functions
are the runners that scenario.CHECKS, the table of the diagnostics a
scenario can request, names.  The admissible-speed bracket, the
non-uniqueness demonstration and the wave structure of a Riemann problem
are dualflow.riemann's; ``analysis.admissible_speed_range`` and
``analysis.nonuniqueness_demo`` load it on first use.
"""

from __future__ import annotations

from typing import NamedTuple

from . import NumpyOnFirstUse
from . import flux as fx
from .measure import AtomicMeasure, face_at, quantile, wasserstein1

np = NumpyOnFirstUse(globals())

N_SPACE, N_TIME = 8, 4   # spatial bumps and time windows of the weak-residual test family
N_QUANTILES = 64         # mass coordinates of reconstruct_flow for non-atomic data
MASS_FLOOR_REL = 1e-10   # pressureless_check: lighter cells (share of the mass) have no speed
MOMENTUM_TOL = 1e-10     # pressureless_check: allowed |total momentum - (A(M) - A(0))|,
                         # relative to |A(M) - A(0)| where that exceeds 1

# weak_residual's draws: default_rng(0).random(22), fixed whatever numpy's streams become
WEAK_DRAWS = (0.6369616873214543, 0.2697867137638703, 0.04097352393619469, 0.016527635528529094,
              0.8132702392002724, 0.9127555772777217, 0.6066357757671799, 0.7294965609839984,
              0.5436249914654229, 0.9350724237877682, 0.8158535541215322, 0.002738500170148095,
              0.8574042765875693, 0.033585575305464355, 0.7296554464299441, 0.17565562060255901,
              0.8631789223498866, 0.5414612202490917, 0.2997118905373848, 0.42268722119765845,
              0.028319671145462966, 0.12428327649956394)


class AnalysisError(ValueError):
    """Diagnostic requested outside its validity domain."""


def __getattr__(name: str):   # PEP 562: the names that moved to riemann, loaded on first use
    if name in ("admissible_speed_range", "nonuniqueness_demo"):
        from . import riemann
        return getattr(riemann, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CheckRecord(NamedTuple):
    """One check's outcome; its builder passes Python floats and a bool, not the
    numpy scalars of array reductions, so diagnostics.json holds plain JSON."""

    name: str
    t: float
    value: float
    bound: float
    tol: float
    passed: bool


def check_oleinik(state: SolverState, model: fx.FluxModel, tol: float) -> list[CheckRecord]:
    """One-sided Lipschitz bound on a(u): face differences of a(u) vs 1/t.

    For a(u) = u, of whatever kind, the same bound applies to the cell
    density itself; with a(u) = -u the density bound is vacuous at shocks,
    so it is checked only when a(u) = u.
    """
    if state.t <= 0:
        raise AnalysisError("Oleinik bound 1/t is undefined at t = 0")
    f, t, tol = state.field, float(state.t), float(tol)
    au = fx.eval_a(model, f.u_faces)
    lhs = float(np.max(np.diff(au)) / f.dx)
    bound = 1.0 / t
    records = [CheckRecord("oleinik_osl", t, lhs, bound, tol, lhs <= bound + tol)]
    if fx.is_identity_a(model):
        dens = float(np.max(f.cell_masses) / f.dx)
        records.append(CheckRecord("oleinik_density", t, dens, bound, tol, dens <= bound + tol))
    return records


# ---------------------------------------------------------------------------
# weak residual


def _bump(c, r, x):
    """The C^1 bump (1 - s^2)^2 on |x - c| < r, s = (x - c) / r, and its derivative, at x."""
    s = (x - c) / r
    w = np.clip(1.0 - s * s, 0.0, None)
    return w * w, -4.0 * s * w / r


def _uniform(lo, hi, draw):   # Generator.uniform's arithmetic
    return lo + (hi - lo) * draw


def _space_bumps(x_min: float, x_max: float, n_cells: int) -> list[tuple[float, float]]:
    """(centre, radius) of weak_residual's N_SPACE spatial bumps on n_cells cells of
    [x_min, x_max], placed by the first 2 N_SPACE WEAK_DRAWS.  A bump that reaches
    the first or last cell centre, where every test function must vanish, raises."""
    span = x_max - x_min
    ends = face_at(x_min, x_max, n_cells, np.array([0.5, n_cells - 0.5]))   # as GridField.centers
    bumps, draws = [], iter(WEAK_DRAWS)
    for _ in range(N_SPACE):
        r = span * _uniform(0.1, 0.3, next(draws))
        bumps.append((_uniform(x_min + 1.05 * r, x_max - 1.05 * r, next(draws)), r))
        if _bump(*bumps[-1], ends)[0].any():
            raise AnalysisError("test function support touches the domain boundary")
    return bumps


def _space_integrals(snapshots: list[SolverState], model: fx.FluxModel):
    """(int u phi dx, int A(u) phi' dx), arrays [bump, snapshot], over the cells for
    weak_residual's bumps phi.  einsum sums in numpy's own loop, so no BLAS thread
    count moves a bit (its optimize, left off, would hand the sums to BLAS)."""
    f0 = snapshots[0].field
    u_mid = np.array([0.5 * (s.field.u_faces[:-1] + s.field.u_faces[1:])
                      for s in snapshots])
    centers = f0.centers
    phi, dphi = map(np.array, zip(*(_bump(c, r, centers) for c, r in
                                    _space_bumps(f0.x_min, f0.x_max, f0.n_cells))))
    return (np.einsum("kc,sc->ks", phi, u_mid) * f0.dx,
            np.einsum("kc,sc->ks", dphi, fx.eval_A(model, u_mid)) * f0.dx)


def weak_residual(snapshots: list[SolverState], model: fx.FluxModel) -> float:
    """Max |weak form of u_t + A(u)_x = 0| over the test functions psi(t) * phi(x).

    N_SPACE bumps phi strictly inside the domain (_space_bumps) times N_TIME
    windows psi: a constant one (boundary-in-time terms carry the information)
    and smooth bumps, placed by the last WEAK_DRAWS.  Midpoint quadrature in x
    over the cells, trapezoid in t over the snapshot times, with the
    time-boundary terms, so windows need not vanish at t0/t1.
    """
    if len(snapshots) < 2:
        raise AnalysisError("weak residual needs at least two snapshots")
    times = np.array([s.t for s in snapshots])
    t0, T = times[0], times[-1] - times[0]
    windows = [(np.ones_like(times), np.zeros_like(times))]
    draws = iter(WEAK_DRAWS[2 * N_SPACE:])
    for _ in range(N_TIME - 1):
        r = T * _uniform(0.2, 0.45, next(draws))
        c = _uniform(t0 + 0.05 * T, times[-1] - 0.05 * T, next(draws))
        windows.append(_bump(c, r, times))
    space_u, space_Adp = (v[:, None] for v in _space_integrals(snapshots, model))
    psi, dpsi = map(np.array, zip(*windows))
    interior = np.trapezoid(space_u * dpsi + space_Adp * psi, times)
    boundary = space_u[..., -1] * psi[:, -1] - space_u[..., 0] * psi[:, 0]
    return max(0.0, *np.abs(interior - boundary).ravel().tolist())


# ---------------------------------------------------------------------------
# flow reconstruction / push-forward


class FlowTable(NamedTuple):
    q: np.ndarray             # mass coordinates
    weights: np.ndarray       # quadrature weights summing to the total mass
    X: np.ndarray             # X[k, j] = position of mass coordinate q[j] in snapshot k


def reconstruct_flow(snapshots: list[SolverState], initial, model: fx.FluxModel) -> FlowTable:
    """Tabulate the transport flow X(t, q) via quantiles of the solution.

    Only offered for attractive models (non-increasing a); the general case
    has no flow down to t = 0.
    """
    total = initial.total_mass
    if not fx.is_attractive(model, total):
        raise AnalysisError("flow reconstruction requires a non-increasing velocity a")
    if isinstance(initial, AtomicMeasure):
        q = initial.levels[:-1] + 0.5 * initial.masses
        w = np.array(initial.ms)
    else:
        q = (np.arange(N_QUANTILES) + 0.5) * total / N_QUANTILES
        w = np.full(N_QUANTILES, total / N_QUANTILES)
    X = np.array([quantile(s.field, q) for s in snapshots])
    return FlowTable(q, w, X)


def pushforward_checks(flow: FlowTable, snapshots: list[SolverState],
                       test_funcs: dict, tol_per_lip: float) -> list[CheckRecord]:
    """Compare int phi d rho(t) against sum_j w_j phi(X(t, q_j)).

    ``test_funcs`` maps name -> (phi, lipschitz constant); the per-function
    tolerance is tol_per_lip * lipschitz.
    """
    records = []
    for k, s in enumerate(snapshots):
        masses, centers = s.field.cell_masses, s.field.centers
        for name, (phi, lip) in test_funcs.items():
            direct = float(np.sum(masses * phi(centers)))
            pushed = float(np.sum(flow.weights * phi(flow.X[k])))
            err = abs(direct - pushed)
            tol = float(tol_per_lip * lip)
            records.append(CheckRecord(f"pushforward_{name}", float(s.t), err, tol, tol,
                                       err <= tol))
    return records


# ---------------------------------------------------------------------------
# pressureless extension


def pressureless_check(snapshots: list[SolverState], model: fx.FluxModel) -> list[CheckRecord]:
    """Momentum bookkeeping for the q = A(u)_x extension.

    (i) total momentum equals A(M) - A(0) at every snapshot;
    (ii) per-cell mean speed q_i / rho_i lies in the velocity range of a
    over [u_i, u_{i+1}] wherever the cell carries mass.
    """
    records = []
    total = snapshots[0].field.total_mass
    expected = fx.eval_A(model, total) - fx.eval_A(model, 0.0)
    tol = MOMENTUM_TOL * max(1.0, abs(float(expected)))   # the sum rounds at A's scale
    floor = MASS_FLOOR_REL * total
    for s in snapshots:
        u = s.field.u_faces
        A = fx.eval_A(model, u)
        q = np.diff(A)   # the momentum q_i = A(u_{i+1}) - A(u_i) of each cell
        err = abs(float(np.sum(q)) - expected)
        records.append(CheckRecord("momentum_total", float(s.t), err, tol, tol, err <= tol))
        rho = s.field.cell_masses
        A_scale = 1.0 + float(np.max(np.abs(A)))
        i = np.nonzero(rho > floor)[0]
        amin, amax = fx.a_range(model, u[i], u[i + 1])
        speed = q[i] / rho[i]
        # second term absorbs cancellation in A(u_{i+1}) - A(u_i)
        # when the cell mass is tiny
        slack = (1e-12 * (1.0 + np.abs(amin) + np.abs(amax))
                 + 16 * np.finfo(float).eps * A_scale / rho[i])
        within = (amin - slack <= speed) & (speed <= amax + slack)
        bad = int(np.count_nonzero(~within))
        records.append(CheckRecord("momentum_bracket", float(s.t), float(bad),
                                   0.0, 0.0, bad == 0))
    return records


# ---------------------------------------------------------------------------
# the runners of scenario.CHECKS: fn(scenario, snapshots, oracle pairs) -> records


def _bounded(name: str, values, tol: float) -> list[CheckRecord]:
    """One record per (t, value) pair, passing when value <= tol."""
    return [CheckRecord(name, float(t), float(v), tol, tol, bool(v <= tol)) for t, v in values]


def _check_mass(scn, snapshots, pairs):
    total = snapshots[0].field.total_mass
    return _bounded("mass_conservation",
                    [(s.t, abs(s.field.u_faces[-1] - total)) for s in snapshots],
                    scn.tolerances["mass"])


def _check_oleinik(scn, snapshots, pairs):
    return [rec for s in snapshots if s.t > 0
            for rec in check_oleinik(s, scn.model, scn.tolerances["oleinik"])]


def _check_pressureless(scn, snapshots, pairs):
    return pressureless_check(snapshots, scn.model)


def _check_pushforward(scn, snapshots, pairs):
    flow = reconstruct_flow(snapshots, scn.initial, scn.model)
    span = max(abs(scn.x_min), abs(scn.x_max))
    funcs = {"x": (lambda x: x, 1.0), "x2": (lambda x: x * x, 2.0 * span), "sin": (np.sin, 1.0)}
    return pushforward_checks(flow, snapshots, funcs, scn.tolerances["pushforward"])


def _check_weak_residual(scn, snapshots, pairs):
    return _bounded("weak_residual", [(snapshots[-1].t, weak_residual(snapshots, scn.model))],
                    scn.tolerances["weak_residual"])


def _check_w1_vs_particles(scn, snapshots, pairs):
    return _bounded("w1_pde_vs_particles",
                    [(s.t, wasserstein1(s.field, atoms)) for s, atoms in pairs],
                    scn.tolerances["w1_vs_particles"])
