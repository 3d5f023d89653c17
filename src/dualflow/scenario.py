"""Scenario files: the one reader of their JSON format.

A scenario poses the Cauchy problem: a velocity model a (``flux``), an
initial measure rho_0 (``initial``), the grid and times it is solved on,
the diagnostics to run and where to write.  Reading is fail-closed: an
unknown field, a value of the wrong JSON type or a non-finite number raises
ScenarioError naming the field, e.g. ``grid.x_min must be a number, got 'a'``.
"""

from __future__ import annotations

import json
import math
from typing import Callable, NamedTuple

import numpy as np

from . import flux as fx
from .measure import AtomicMeasure, MeasureError, TriangularDensity, UniformDensity, check_inside

DEFAULT_CHECKS = ("mass", "oleinik", "pressureless")
FORMATS = ("csv", "json")
MAX_CELLS = 10**7   # the most cells of a grid: 80 MB per array of face values
MAX_COORD = 1e100              # largest |x| of a grid end: the checks' sums of m x^2 stay finite
MASS_RANGE = (1e-100, 1e100)   # of the total mass: so do those sums, and no mass floor underflows


class ScenarioError(ValueError):
    """Malformed scenario file; the message names the offending field."""


class Scenario(NamedTuple):
    model: fx.FluxModel
    initial: object                    # AtomicMeasure or a density object
    x_min: float
    x_max: float
    n_cells: int
    t_end: float
    cfl: float
    output_times: list[float]
    checks: tuple[str, ...]
    tolerances: dict                   # of every check that takes one, defaults filled in
    out_dir: str
    formats: tuple[str, ...]
    raw: dict

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells


def _nonincreasing_a(scn):
    if not fx.is_attractive(scn.model, scn.initial.total_mass):
        return "needs a velocity a non-increasing on [0, total mass], and flux is not"


def _residual_precondition(scn):
    if len(set(scn.output_times) | {scn.t_end}) < 2:
        return "needs two or more distinct snapshot times in time.output_times and time.t_end"
    from . import analysis   # only for a scenario that lists weak_residual, which needs it anyway
    try:
        analysis._space_bumps(scn.x_min, scn.x_max, scn.n_cells)
    except analysis.AnalysisError:
        return (f"needs a finer grid than grid.n_cells = {scn.n_cells}: a test function "
                f"reaches the first or last cell centre")


def _oracle_precondition(scn):
    if not isinstance(scn.initial, AtomicMeasure):
        return "needs atomic initial data (initial.type \"atoms\")"
    return _nonincreasing_a(scn)


class Check(NamedTuple):   # one entry of CHECKS
    runner: str                     # its fn(scenario, snapshots, oracle pairs) in analysis
    tolerance: Callable | None      # fn(dx, total mass) -> the default; None: it takes none
    precondition: Callable | None   # fn(scenario) -> a refusal naming the field, or None

    def run(self, scn: Scenario, snapshots, pairs) -> list:   # of analysis.CheckRecord
        from . import analysis   # loaded when a check first runs, not by importing scenario
        return getattr(analysis, self.runner)(scn, snapshots, pairs)


# The diagnostics a scenario can request, by name.  ``pairs`` are (snapshot, oracle
# atoms), given only for w1_vs_particles.  A scenario's "tolerances" may override the
# defaults, and parse_scenario refuses a check whose precondition refuses the scenario.
# W1, the push-forward errors and the weak residual integrate u or rho, so they scale
# with the total mass M and their defaults carry it.
CHECKS = {
    "mass": Check("_check_mass", lambda dx, mass: 1e-12, None),
    "oleinik": Check("_check_oleinik", lambda dx, mass: 5 * dx, None),
    "pressureless": Check("_check_pressureless", None, None),
    "pushforward": Check("_check_pushforward", lambda dx, mass: 5 * dx * mass, _nonincreasing_a),
    "weak_residual": Check("_check_weak_residual", lambda dx, mass: 20 * dx * mass,
                           _residual_precondition),
    "w1_vs_particles": Check("_check_w1_vs_particles", lambda dx, mass: 3 * dx * mass,
                             _oracle_precondition),
}


def read_json(text: str, what: str):
    """The JSON value of ``text``; NaN and +-Infinity, which JSON lacks, are
    refused.  ``what`` names the source in errors ("scenario", "--flux")."""
    def refuse(name):
        raise ScenarioError(f"{what} contains the non-finite number {name}")

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what} is not valid JSON: {exc}") from exc


def typed(value, kind: type, where: str):
    """value itself when it is a JSON object (kind dict) or list (kind list; tuples pass)."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ScenarioError(f"{where} must be {'a list' if kind is list else 'an object'}, "
                            f"got {value!r}")
    return value


def number(value, where: str) -> float:
    """value as a finite float; bools, integers too large for a float and the
    infinity that JSON parses a number such as 1e400 to are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ScenarioError(f"{where} must be a finite number, got an integer too large "
                            "for a float") from None
    if not math.isfinite(x):
        raise ScenarioError(f"{where} must be a finite number, got {x!r}")
    return x


def pairs(values, where: str, what: str) -> list[tuple[float, float]]:
    """Each item of the list ``values``, named ``where``, as a pair of floats;
    `what` describes one, e.g. 'an [x, m] pair'.  An error names the item, as in
    ``initial.atoms[3][1] must be a number``: its field path is built only then."""
    out = []
    for i, value in enumerate(values):
        try:
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ScenarioError(f" must be {what}, got {value!r}")
            out.append((number(value[0], "[0]"), number(value[1], "[1]")))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}[{i}]{exc}") from None
    return out


def _require_keys(block, where: str, required, optional=()) -> dict:
    unknown = set(typed(block, dict, where)).difference(required, optional)
    if unknown:
        raise ScenarioError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = set(required).difference(block)
    if missing:
        raise ScenarioError(f"missing field(s) in {where}: {sorted(missing)}")
    return block


# flux.kind -> the fields it reads besides "kind"
FLUX_FIELDS = {"quadratic-attractive": (), "quadratic-repulsive": (),
               "polynomial": ("coeffs",), "piecewise-linear-a": ("nodes",)}


def parse_flux(block, where: str = "") -> fx.FluxModel:
    """The model of a flux block, whose kind admits only its own fields.  Each error is a
    ScenarioError naming its field, under ``where``, the block's name in a scenario."""
    kind = typed(block, dict, where or "flux block").get("kind")
    try:
        if kind not in fx.KINDS:   # not FLUX_FIELDS: a tuple takes unhashable kinds too
            raise ScenarioError(f"unknown flux kind {kind!r}")
        _require_keys(block, f"a {kind} flux", {"kind", *FLUX_FIELDS[kind]})
        if kind == "polynomial":
            return fx.polynomial(number(c, f"coeffs[{i}]")
                                 for i, c in enumerate(typed(block["coeffs"], list, "coeffs")))
        if kind == "piecewise-linear-a":
            return fx.piecewise_linear(pairs(typed(block["nodes"], list, "nodes"), "nodes",
                                             "a [u, a] pair"))
        return (fx.quadratic_attractive() if kind == "quadratic-attractive"
                else fx.quadratic_repulsive())
    except (ScenarioError, fx.FluxError) as exc:
        raise ScenarioError(f"{where}: {exc}" if where else str(exc)) from exc


# initial.type -> (density class, its number fields in constructor order)
DENSITIES = {"uniform": (UniformDensity, ("x_left", "x_right", "mass")),
             "triangular": (TriangularDensity, ("x_left", "x_peak", "x_right", "mass"))}


def _parse_initial(block: dict):
    kind = block.get("type")
    if kind == "atoms":
        atoms = _require_keys(block, "initial", {"type", "atoms"})["atoms"]
        if not isinstance(atoms, (list, tuple)) or not atoms:
            raise ScenarioError("initial.atoms must be a non-empty list (total mass > 0)")
        try:
            return AtomicMeasure.from_pairs(pairs(atoms, "initial.atoms", "an [x, m] pair"))
        except MeasureError as exc:
            raise ScenarioError(f"initial.atoms: {exc}") from exc
    if isinstance(kind, str) and kind in DENSITIES:   # a list kind is unhashable
        cls, names = DENSITIES[kind]
        _require_keys(block, "initial", {"type", *names})
        try:
            return cls(*(number(block[k], f"initial.{k}") for k in names))
        except MeasureError as exc:
            raise ScenarioError(f"initial: {exc}") from exc
    raise ScenarioError(f"initial.type must be atoms|uniform|triangular, got {kind!r}")


def _check_resolved(atoms: AtomicMeasure):
    """Refuse atoms that u cannot resolve: each must raise the cumulative mass, and
    its mid level (analysis.reconstruct_flow's mass coordinate) lie strictly between
    the cumulative masses left and right of it."""
    cum = atoms.levels
    mid = cum[:-1] + 0.5 * atoms.masses
    if (coarse := ((mid <= cum[:-1]) | (mid >= cum[1:])).nonzero()[0]).size:
        j = int(coarse[0])
        raise ScenarioError(f"initial.atoms: the atom at x = {float(atoms.positions[j])!r} of "
                            f"mass {float(atoms.masses[j])!r} is below the resolution of the "
                            f"cumulative mass {float(cum[j])!r} of the atoms left of it")


def check_grid(x_min: float, x_max: float, n_cells, where: str, initial):
    """Refuse n_cells cells on [x_min, x_max] unless n_cells is a positive
    integer at most MAX_CELLS, the extent is positive and finite, each end
    lies within MAX_COORD of 0, the faces increase and the initial data lie
    strictly inside them (check_inside); ``where`` names the field of n_cells
    (``grid.n_cells``, ``--resolutions``)."""
    if isinstance(n_cells, bool) or not isinstance(n_cells, int) or not 1 <= n_cells <= MAX_CELLS:
        raise ScenarioError(f"{where} must be a positive integer at most {MAX_CELLS}, "
                            f"got {n_cells!r}")
    if not 0.0 < x_max - x_min < math.inf:
        raise ScenarioError(f"grid.x_max - grid.x_min must be positive and finite, "
                            f"got {x_max - x_min!r}")
    for name, x in (("grid.x_min", x_min), ("grid.x_max", x_max)):
        if abs(x) > MAX_COORD:
            raise ScenarioError(f"{name} must lie in [-{MAX_COORD:g}, {MAX_COORD:g}], got {x!r}")
    # each face x_min + dx*k is off by at most 1.5 ulps of the largest |x|, so a dx of
    # 4 of them keeps the faces increasing
    if (x_max - x_min) / n_cells < 4 * math.ulp(max(abs(x_min), abs(x_max))):
        raise ScenarioError(f"grid.x_max - grid.x_min must be at least 4 ulps of "
                            f"max(|grid.x_min|, |grid.x_max|) per cell, got {x_max - x_min!r} "
                            f"for {where} = {n_cells}")
    try:
        check_inside(initial, x_min, x_max, n_cells)
    except MeasureError as exc:   # the initial data do not fit inside the grid
        raise ScenarioError(f"initial: {exc} (grid.x_min = {x_min!r}, grid.x_max = {x_max!r}, "
                            f"{where} = {n_cells})") from exc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    return parse_scenario(read_json(text, "scenario"))


def parse_scenario(raw: dict) -> Scenario:
    _require_keys(raw, "scenario", {"flux", "initial", "grid", "time"}, {"diagnostics", "output"})
    model = parse_flux(raw["flux"], "flux")
    initial = _parse_initial(typed(raw["initial"], dict, "initial"))
    if not MASS_RANGE[0] <= initial.total_mass <= MASS_RANGE[1]:
        raise ScenarioError(f"initial: the total mass must lie in [{MASS_RANGE[0]:g}, "
                            f"{MASS_RANGE[1]:g}], got {initial.total_mass!r}")
    if isinstance(initial, AtomicMeasure):
        _check_resolved(initial)

    grid = _require_keys(raw["grid"], "grid", {"x_min", "x_max", "n_cells"})
    x_min = number(grid["x_min"], "grid.x_min")
    x_max = number(grid["x_max"], "grid.x_max")
    n_cells = grid["n_cells"]
    check_grid(x_min, x_max, n_cells, "grid.n_cells", initial)
    tblock = _require_keys(raw["time"], "time", {"t_end"}, {"cfl", "output_times"})
    t_end = number(tblock["t_end"], "time.t_end")
    if t_end <= 0:
        raise ScenarioError("time.t_end must be positive")
    cfl = number(tblock.get("cfl", fx.CFL), "time.cfl")
    if not 0 < cfl <= 1:
        raise ScenarioError(f"time.cfl must lie in (0, 1], got {cfl!r}")
    output_times = [number(t, "time.output_times") for t in
                    typed(tblock.get("output_times", []), list, "time.output_times")]
    if any(t < 0 or t > t_end for t in output_times):
        raise ScenarioError("time.output_times must lie in [0, t_end]")
    if output_times != sorted(output_times):
        raise ScenarioError("time.output_times must be sorted")

    diag = _require_keys(raw.get("diagnostics", {}), "diagnostics", (), {"checks", "tolerances"})
    checks = tuple(typed(diag.get("checks", DEFAULT_CHECKS), list, "diagnostics.checks"))
    tolerances = typed(diag.get("tolerances", {}), dict, "diagnostics.tolerances")
    defaults = {name: c.tolerance for name, c in CHECKS.items() if c.tolerance}
    for where, names, known in (("checks", checks, CHECKS),
                                ("tolerances", tolerances, defaults)):
        for c in names:
            if not isinstance(c, str) or c not in known:
                raise ScenarioError(f"diagnostics.{where}: {c!r} is not one of {list(known)}")
    # every tolerance a check can take, the scenario's own or the default for this grid
    tolerances = {k: v((x_max - x_min) / n_cells, initial.total_mass)
                  for k, v in defaults.items()} | {
        k: number(v, f"diagnostics.tolerances.{k}") for k, v in tolerances.items()}
    out = _require_keys(raw.get("output", {}), "output", (), {"directory", "formats"})
    formats = typed(out.get("formats", FORMATS), list, "output.formats")
    for f in formats:
        if f not in FORMATS:
            raise ScenarioError(f"output.formats: unknown format {f!r} (known: {list(FORMATS)})")
    out_dir = out.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ScenarioError(f"output.directory must be a string, got {out_dir!r}")
    scn = Scenario(model=model, initial=initial, x_min=x_min, x_max=x_max, n_cells=n_cells,
                   t_end=t_end, cfl=cfl, output_times=output_times, checks=checks,
                   tolerances=tolerances, out_dir=out_dir, formats=tuple(formats), raw=raw)
    for name in checks:   # a check the scenario can never run is refused before any engine
        if refusal := CHECKS[name].precondition and CHECKS[name].precondition(scn):
            raise ScenarioError(f"diagnostics.checks: {name} {refusal}")
    return scn
