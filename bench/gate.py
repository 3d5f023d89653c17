"""Correctness gate applied to the outputs of every benchmark command.

Invariants are recomputed from the written files, not taken from the
program's own report, except where the report is the output under test
(diagnostics.json).  Tolerances: W1 <= 3*dx and L1 <= 5*dx are the ones in
tests/test_acceptance.py; monotonicity allows the 1e-14 that
GridField.validate allows.  Masses are dyadic (see workloads.py), so mass
must be exact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from workloads import A_of

MONO_TOL = 1e-14
W1_TOL_DX = 3.0
L1_TOL_DX = 5.0
COM_TOL = 1e-9

# record names each configured check must produce in diagnostics.json
# facts of a run whose outputs were never checked in full
NO_FACTS = {"merge_events": 0, "l1_over_dx": 0.0, "w1_over_dx": 0.0, "write_bytes": 0}

CHECK_RECORDS = {
    "mass": "mass_conservation",
    "oleinik": "oleinik_osl",
    "pressureless": "momentum_bracket",
    "pushforward": "pushforward_x",
    "weak_residual": "weak_residual",
}


def digest(out_dir: str) -> tuple[str, int]:
    """SHA-256 over (name, bytes) of every output file, and their total size."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        total += len(data)
    return h.hexdigest(), total


def snapshot_times(scn: dict) -> list[float]:
    t = scn["time"]
    return sorted(set(t.get("output_times", [])) | {t["t_end"]})


def total_mass(scn: dict) -> float:
    init = scn["initial"]
    if init["type"] == "atoms":
        return sum(m for _, m in init["atoms"])
    return init["mass"]


def _load(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _by_time(rows: np.ndarray, times, problems: list, what: str) -> dict:
    found = sorted(set(rows[:, 0].tolist()))
    if found != times:
        problems.append(f"{what}: snapshot times {found} != {times}")
    return {t: rows[rows[:, 0] == t] for t in found}


def w1_field_atoms(x: np.ndarray, u: np.ndarray, ax: np.ndarray, am: np.ndarray) -> float:
    """Exact integral of |U_grid - U_atoms|: U_grid is linear between faces,
    U_atoms is the right-continuous step primitive of the atoms."""
    breaks = np.union1d(x, ax)
    a, b = breaks[:-1], breaks[1:]
    ua = np.interp(a, x, u)
    ub = np.interp(b, x, u)
    level = np.concatenate(([0.0], np.cumsum(am)))[np.searchsorted(ax, a, side="right")]
    d0, d1, h = ua - level, ub - level, b - a
    same = d0 * d1 >= 0
    safe = np.where(same, 1.0, np.abs(d1 - d0))
    part = np.where(same, 0.5 * (np.abs(d0) + np.abs(d1)) * h,
                    0.5 * (d0 * d0 + d1 * d1) / safe * h)
    return float(np.sum(part))


def _check_fields(scn, out_dir, times, M, problems):
    grid = scn["grid"]
    n = grid["n_cells"]
    dx = (grid["x_max"] - grid["x_min"]) / n
    faces = _by_time(_load(os.path.join(out_dir, "fields_faces.csv")), times,
                     problems, "fields_faces.csv")
    cells = _by_time(_load(os.path.join(out_dir, "fields_cells.csv")), times,
                     problems, "fields_cells.csv")
    for t, rows in faces.items():
        u = rows[:, 2]
        if u.size != n + 1:
            problems.append(f"t={t}: {u.size} faces, expected {n + 1}")
            continue
        if u[0] != 0.0 or u[-1] != M:
            problems.append(f"t={t}: boundary values {u[0]!r}, {u[-1]!r} != 0, {M!r}")
        if np.min(np.diff(u)) < -MONO_TOL:
            problems.append(f"t={t}: u not monotone (min jump {np.min(np.diff(u))!r})")
        if u.min() < -MONO_TOL or u.max() > M + MONO_TOL:
            problems.append(f"t={t}: u outside [0, M]: [{u.min()!r}, {u.max()!r}]")
    for t, rows in cells.items():
        err = abs(float(np.sum(rows[:, 2])) - M)
        if err > 1e-12:
            problems.append(f"t={t}: cell masses sum off M by {err!r}")
    return faces, dx


def _check_particles(scn, out_dir, times, M, problems, facts):
    traj = _by_time(_load(os.path.join(out_dir, "trajectory.csv")), times,
                    problems, "trajectory.csv")
    A_M = A_of(scn["flux"], M)
    com0 = None
    count = None
    for t in sorted(traj):
        rows = traj[t]
        x, m = rows[:, 2], rows[:, 3]
        if rows[:, 1].tolist() != list(range(len(rows))):
            problems.append(f"t={t}: atom ids not 0..k-1")
        if np.any(np.diff(x) <= 0):
            problems.append(f"t={t}: aggregate positions not increasing")
        if float(np.sum(m)) != M:
            problems.append(f"t={t}: aggregate masses sum to {float(np.sum(m))!r} != {M!r}")
        com = float(np.sum(m * x)) / M
        if com0 is None:
            com0 = com - t * A_M / M
        elif abs(com - com0 - t * A_M / M) > COM_TOL:
            problems.append(f"t={t}: centre of mass off A(M)/M drift by "
                            f"{com - com0 - t * A_M / M!r}")
        if count is not None and len(rows) > count:
            problems.append(f"t={t}: aggregate count grew")
        count = len(rows)
    with open(os.path.join(out_dir, "events.csv"), newline="") as fh:
        events = list(csv.reader(fh))[1:]
    t_ev = [float(e[0]) for e in events]
    m_ev = [float(e[3]) for e in events]
    if t_ev != sorted(t_ev) or (t_ev and not 0 < t_ev[0] <= t_ev[-1] <= times[-1]):
        problems.append("events.csv: event times not ordered within (0, t_end]")
    if any(not 0 < m <= M for m in m_ev):
        problems.append("events.csv: event mass outside (0, M]")
    if count == 1 and (not m_ev or m_ev[-1] != M):
        problems.append("events.csv: final merge does not carry the total mass M")
    facts["merge_events"] = len(events)
    return traj


def check(workload, scn: dict, out_dir: str, returncode: int) -> tuple[list[str], dict]:
    """(problems, facts) for one command's outputs; no problems means pass."""
    problems: list[str] = []
    facts = dict(NO_FACTS)
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    missing = [f for f in workload.outputs
               if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        problems.append(f"missing outputs: {missing}")
        return problems, facts
    times = snapshot_times(scn)
    M = total_mass(scn)
    # bytes written by the cli.write_* functions (diagnostics.json is not)
    facts["write_bytes"] = sum(os.path.getsize(os.path.join(out_dir, f))
                               for f in os.listdir(out_dir) if f != "diagnostics.json")

    report = None
    if "diagnostics.json" in workload.outputs:
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            report = json.load(fh)["checks"]
        failed = [c["name"] for c in report if not c["passed"]]
        if failed:
            problems.append(f"failed diagnostics: {sorted(set(failed))}")
        names = {c["name"] for c in report}
        want = {CHECK_RECORDS[c] for c in scn["diagnostics"]["checks"]}
        if workload.oracle:
            want.add("w1_pde_vs_particles")
        if want - names:
            problems.append(f"diagnostics.json lacks records {sorted(want - names)}")
        n_mass = sum(c["name"] == "mass_conservation" for c in report)
        if n_mass != len(times):
            problems.append(f"{n_mass} mass records for {len(times)} snapshots")

    faces = traj = None
    if "fields_faces.csv" in workload.outputs:
        faces, dx = _check_fields(scn, out_dir, times, M, problems)
    if "trajectory.csv" in workload.outputs:
        traj = _check_particles(scn, out_dir, times, M, problems, facts)

    if faces is not None and scn["flux"]["kind"] == "quadratic-repulsive":
        x0 = scn["initial"]["atoms"][0][0]
        worst = 0.0
        for t, rows in faces.items():
            if t > 0:
                x, u = rows[:, 1], rows[:, 2]
                exact = np.clip((x - x0) / t, 0.0, M)
                worst = max(worst, float(np.trapezoid(np.abs(u - exact), x)) / dx)
        if worst > L1_TOL_DX:
            problems.append(f"L1(u, exact rarefaction) = {worst!r} dx > {L1_TOL_DX} dx")
        facts["l1_over_dx"] = worst

    if faces is not None and traj is not None and report is not None:
        worst = 0.0
        for rec in (c for c in report if c["name"] == "w1_pde_vs_particles"):
            t = rec["t"]
            f, p = faces[t], traj[t]
            w1 = w1_field_atoms(f[:, 1], f[:, 2], p[:, 2], p[:, 3])
            if abs(w1 - rec["value"]) > 1e-9:
                problems.append(f"t={t}: recomputed W1 {w1!r} != reported {rec['value']!r}")
            worst = max(worst, w1 / dx)
        if worst > W1_TOL_DX:
            problems.append(f"W1(PDE, oracle) = {worst!r} dx > {W1_TOL_DX} dx")
        facts["w1_over_dx"] = worst
    return problems, facts
