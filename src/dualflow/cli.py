"""Command-line front end: scenario runs, convergence studies, Riemann info.

Subcommands:
    run          evolve a scenario with the PDE engine, the aggregate engine,
                 or both, writing CSV snapshots and a diagnostics JSON
    convergence  exact L1 error of u against one reference, over resolutions
    riemann      admissible speed range, selected speed and wave structure
    validate     run all configured diagnostics; exit 0 iff everything passes

Exit codes: 0 success, 1 configuration/I-O error, 2 diagnostics failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import pickle
import sys
import tempfile
from itertools import chain, repeat

import numpy as np

from . import flux as fx   # pde, particles and analysis: imported by the functions that run them
from .measure import AtomicMeasure, GridField, extract_atoms, sample_to_grid, wasserstein1
from .scenario import (CHECKS, Scenario, ScenarioError, check_grid, load_scenario, parse_flux,
                       read_json)


def initial_grid(scn: Scenario, n_cells: int | None = None) -> GridField:
    return sample_to_grid(scn.initial, scn.x_min, scn.x_max,
                          scn.n_cells if n_cells is None else n_cells)


def run_pde(scn: Scenario, n_cells: int | None = None, each=None) -> list:   # of SolverState
    """The snapshots of pde.run; ``each``, when given, is called on each one as
    the march reaches it and returns it."""
    from . import pde
    args = (initial_grid(scn, n_cells), scn.model, scn.t_end, scn.cfl, scn.output_times)
    return pde.run(*args) if each is None else list(map(each, pde.march(*args)))


def run_particles(scn: Scenario):
    """Oracle states at each output time (t_end included) and the merge events."""
    from . import particles
    current = particles.AggregateSystem.create(scn.initial, scn.model)
    states, events = [], []
    for t in sorted(set(scn.output_times) | {scn.t_end}):
        current, ev = particles.advance(current, t)
        states.append(current)
        events.extend(ev)
    return states, events


def bundled_scenario(name: str) -> str:
    """Path of a scenario file shipped with the package."""
    from importlib import resources
    return str(resources.files("dualflow").joinpath("scenarios", name))


def pair_with_oracle(snapshots, states):
    """(snapshot, oracle atoms) pairs, one per output time.

    ``states`` are run_particles' oracle states, whose output times are the
    snapshot times.
    """
    return [(s, state.atoms) for s, state in zip(snapshots, states, strict=True)]


def run_diagnostics(scn: Scenario, snapshots, oracle=None) -> list:   # of analysis.CheckRecord
    """The records of the scenario's checks on the PDE snapshots, in their order.

    w1_vs_particles compares against the sticky-particle oracle: ``oracle``
    is run_particles' result, computed here when the caller has none.
    """
    pairs = None
    if "w1_vs_particles" in scn.checks:
        pairs = pair_with_oracle(snapshots, (oracle or run_particles(scn))[0])
    return [rec for name in scn.checks for rec in CHECKS[name].run(scn, snapshots, pairs)]


# ---------------------------------------------------------------------------
# file output


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file that replaces ``path`` once closed.

    Readers see the old file or the complete new one, never a partial
    write; on error the temporary file is removed.  The file gets the mode
    open() would give it (0o666 less the umask), not mkstemp's 0o600.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            yield fh
        umask = os.umask(0o077)   # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _verbatim(cells: list[str], one_column: bool) -> list[str]:
    """cells, checked to need no csv quoting: no delimiter, quote or line
    break, and no empty cell alone on its row (csv writes that as "")."""
    text = "\0".join(cells)
    if any(c in text for c in ',"\r\n') or (one_column and "" in cells):
        raise ValueError(f"csv cell would need quoting: {cells!r}")
    return cells


class _Csv:
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
        n = max((len(c) for c in block if isinstance(c, (list, np.ndarray))), default=1)
        cols, arrays = [], {}
        for j, c in enumerate(block):
            if isinstance(c, np.ndarray):
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


def _write_csv(path: str, header: list[str], blocks):
    """Write the _Csv of ``blocks`` to ``path``, a block at a time."""
    with _atomic_open(path) as fh:
        csv = _Csv(header, fh.write)
        for block in blocks:
            csv.add(block)


def write_field_outputs(out_dir: str, snapshots):
    """The three field CSVs of ``snapshots``, an iterable: each snapshot is
    formatted as it comes, and the files are written after the last."""
    texts = {"fields_faces.csv": [], "fields_cells.csv": [], "atoms_extracted.csv": []}
    faces, cells, atoms = (_Csv(header, text.append) for header, text in zip(
        (["t", "x_face", "u"], ["t", "x_center", "rho_cell_mass", "rho_density"],
         ["t", "atom_id", "x", "m"]), texts.values()))
    for s in snapshots:
        f, mu = s.field, extract_atoms(s.field)
        faces.add((s.t, f.faces, f.u_faces))
        cells.add((s.t, f.centers, (m := f.cell_masses), m / f.dx))
        atoms.add((s.t, np.arange(mu.n_atoms), mu.positions, mu.masses))
    for name, text in texts.items():
        with _atomic_open(os.path.join(out_dir, name)) as fh:
            fh.writelines(text)


class _FieldWriter(contextlib.AbstractContextManager):   # whose __enter__ returns self
    """write_field_outputs to ``out_dir`` (None: no field CSVs) in a forked
    child, fed each snapshot by ``send`` as the march reaches it.  The child
    writes the files only after ``commit`` (every engine and check has run)
    and exits writing nothing when the pipe ends without one; it answers a
    line, empty for done, else its error (an OSError here).  Leaving the
    ``with`` block reaps it.  Without a fork (no os.fork, or it fails),
    commit formats and writes in this process.
    """

    def __init__(self, out_dir: str | None):
        self.out_dir, self.pid = out_dir, None
        if out_dir is None or not hasattr(os, "fork"):
            return
        from . import pde   # noqa: F401  loaded before the fork: the child unpickles its states
        (feed, self.feed), (self.back, back) = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:   # no process to spare: commit writes in this process
            for fd in (feed, self.feed, self.back, back):
                os.close(fd)
            return
        if not self.pid:   # the child: it never returns
            try:
                import signal
                signal.signal(signal.SIGINT, signal.SIG_IGN)   # the pipe says when to stop
                os.close(self.feed)
                os.close(self.back)
                feed, back = os.fdopen(feed, "rb"), os.fdopen(back, "w", 1, "utf-8")

                def received():
                    while (state := pickle.load(feed)) is not None:   # EOFError: no commit
                        yield state
                    back.write("\n")   # every snapshot is formatted
                write_field_outputs(out_dir, received())
                back.write("\n")   # and written
            except Exception as exc:   # one line, never empty: an empty one means done
                back.write(" ".join(str(exc).splitlines()) or type(exc).__name__)
                back.write("\n")
            finally:
                os._exit(0)
        os.close(feed)
        os.close(back)
        self.back = os.fdopen(self.back, encoding="utf-8")

    def _put(self, item):
        try:
            data = memoryview(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(self.feed, data):]
        except BrokenPipeError:   # the child has stopped: its line says why
            self._reply()
            raise

    def _reply(self):
        if (line := self.back.readline()) != "\n":
            raise OSError(line.strip() or "the field writer stopped without a reply")

    def send(self, snapshot):
        if self.pid:
            self._put(snapshot)
        return snapshot

    def commit(self, snapshots):
        if self.pid:
            self._put(None)
            os.close(self.feed)
            self.feed = None
            self._reply()
        elif self.out_dir is not None:   # no child: format and write here
            write_field_outputs(self.out_dir, snapshots)

    def __exit__(self, kind, *_):
        if self.pid:
            try:
                if self.feed is not None:   # no commit: the child writes nothing
                    os.close(self.feed)
                elif kind is None:
                    self._reply()
            finally:
                self.back.close()
                os.waitpid(self.pid, 0)


def write_particle_outputs(out_dir: str, states, events):
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ["t", "atom_id", "x", "m", "v"],
               ((st.time, np.arange(st.atoms.n_atoms), st.atoms.positions, st.atoms.masses, st.v)
                for st in states))
    _write_csv(os.path.join(out_dir, "events.csv"),
               ["t_event", "ids_merged", "x", "m"],
               [(np.array([e.t for e in events]),
                 ["+".join(str(i) for i in e.indices) for e in events],
                 np.array([e.x for e in events]), np.array([e.m for e in events]))])


def write_summary_csv(out_dir: str, scn: Scenario, snapshots, records):
    from . import analysis
    residual = next((c.value for c in records if c.name == "weak_residual"), "")
    _write_csv(os.path.join(out_dir, "diagnostics.csv"),
               ["t", "total_mass", "max_cell_density", "oleinik_lhs_max",
                "residual_weak"],
               [(s.t, s.field.total_mass, float(np.max(s.field.cell_masses) / s.field.dx),
                 analysis.check_oleinik(s, scn.model, 0.0)[0].value if s.t > 0 else "",
                 residual) for s in snapshots])


def write_report(scn: Scenario, records):
    """diagnostics.json: the check records and the scenario they ran on."""
    with _atomic_open(os.path.join(scn.out_dir, "diagnostics.json")) as fh:
        fh.write(json.dumps({"checks": [r._asdict() for r in records], "scenario": scn.raw},
                            indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def load_args_scenario(args) -> Scenario:
    """The scenario of --scenario, writing to --out when that is given."""
    scn = load_scenario(args.scenario)
    return scn._replace(out_dir=args.out) if args.out else scn


def cmd_run(args) -> int:
    scn = load_args_scenario(args)
    # the oracle serves exactly the scenarios that w1_vs_particles can check
    if args.engine != "pde" and (refusal := CHECKS["w1_vs_particles"].precondition(scn)):
        raise ScenarioError(f"--engine {args.engine} {refusal}")
    oracle = None if args.engine == "pde" else run_particles(scn)
    if args.engine == "particles":
        if "csv" in scn.formats:
            write_particle_outputs(scn.out_dir, *oracle)
        return 0
    if args.engine == "both" and "w1_vs_particles" not in scn.checks:
        scn = scn._replace(checks=scn.checks + ("w1_vs_particles",))
    with _FieldWriter(scn.out_dir if "csv" in scn.formats else None) as fields:
        snapshots = run_pde(scn, each=fields.send)
        # every engine and check has run before the first file is written: exit 1 writes none
        records = run_diagnostics(scn, snapshots, oracle)
        fields.commit(snapshots)
        if "json" in scn.formats:
            write_report(scn, records)
        if "csv" in scn.formats:
            if oracle:
                write_particle_outputs(scn.out_dir, *oracle)
            write_summary_csv(scn.out_dir, scn, snapshots, records)
    for c in records:
        if not c.passed:
            print(f"FAIL {c.name} t={c.t}: value={c.value} bound={c.bound}",
                  file=sys.stderr)
    return 0 if all(c.passed for c in records) else 2


def _reference(scn: Scenario, finest: GridField):
    """The u_ref that every convergence row is measured against.

    Data the oracle serves (w1_vs_particles' precondition, which asks for
    atoms and a non-increasing a): its atoms at t_end.  One atom under
    a(u) = u: its fan, the one-cell field whose primitive is
    clip((x - x0) / t, 0, M) (the atom itself when the fan is narrower than
    an ulp of x0).  Anything else: ``finest``, the finest grid.
    """
    mu = scn.initial
    if not CHECKS["w1_vs_particles"].precondition(scn):   # one advance, from t = 0 to t_end
        return run_particles(scn._replace(output_times=[]))[0][-1].atoms
    if isinstance(mu, AtomicMeasure) and mu.n_atoms == 1 and fx.is_identity_a(scn.model):
        x0, m = float(mu.positions[0]), mu.total_mass
        x1 = x0 + m * scn.t_end
        return GridField(x0, x1, 1, [0.0, m]) if x1 > x0 else mu
    return finest


def convergence_table(scn: Scenario, resolutions) -> list[dict]:
    """Exact W1 = L1 error of u per resolution, with observed order between rows.

    ``resolutions``: cell counts, as ints or as the strings of --resolutions;
    at least 3 of them, distinct, each a grid the scenario's parser admits.
    The error is wasserstein1 against _reference; a row measured against
    itself (the finest grid) is NaN, with no order.
    """
    try:
        ns = sorted(int(n) for n in resolutions)
    except ValueError:
        ns = []
    if len(ns) < 3 or len(set(ns)) < len(ns):
        raise ScenarioError("--resolutions must be at least 3 distinct integers, "
                            f"got {','.join(map(str, resolutions))}")
    for n in ns:
        check_grid(scn.x_min, scn.x_max, n, "--resolutions", scn.initial)
    fields = [run_pde(scn, n_cells=n)[-1].field for n in ns]
    reference = _reference(scn, fields[-1])
    rows = []
    for i, (n, f) in enumerate(zip(ns, fields)):
        e = math.nan if f is reference else wasserstein1(f, reference)
        order = None
        if i and e > 0 and rows[-1]["l1_error"] > 0:
            order = math.log2(rows[-1]["l1_error"] / e) / math.log2(n / ns[i - 1])
        rows.append({"n_cells": n, "l1_error": e, "order": order})
    return rows


def cmd_convergence(args) -> int:
    scn = load_args_scenario(args)
    rows = convergence_table(scn, args.resolutions.split(","))
    _write_csv(os.path.join(scn.out_dir, "convergence.csv"),
               ["n_cells", "l1_error", "order"],
               [(r["n_cells"], r["l1_error"],
                 "" if r["order"] is None else r["order"]) for r in rows])
    print(f"{'n_cells':>8} {'L1 error':>14} {'order':>8}")
    for r in rows:
        order = "" if r["order"] is None else f"{r['order']:.3f}"
        print(f"{r['n_cells']:>8} {r['l1_error']:>14.6e} {order:>8}")
    return 0


def cmd_riemann(args) -> int:
    from . import analysis
    model = parse_flux(read_json(args.flux, "--flux"))
    info = analysis.classify_riemann(model, args.u_minus, args.u_plus)
    print(f"admissible speed range: ({info['admissible_low']}, {info['admissible_high']})")
    print(f"selected (Rankine-Hugoniot) speed: {info['selected_speed']}")
    print(f"wave type: {info['wave']}")
    for kind, ua, ub, s in info["segments"]:
        if kind == "shock":
            print(f"  shock {ua} -> {ub}, speed {s}")
        else:
            print(f"  rarefaction {ua} -> {ub}")
    return 0


def cmd_validate(args) -> int:
    scn = load_args_scenario(args)
    records = run_diagnostics(scn, run_pde(scn))
    write_report(scn, records)
    for c in records:
        status = "pass" if c.passed else "FAIL"
        print(f"{status} {c.name} t={c.t} value={c.value} bound={c.bound}")
    return 0 if all(c.passed for c in records) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualflow",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    scn_opts = argparse.ArgumentParser(add_help=False)   # read by load_args_scenario
    scn_opts.add_argument("--scenario", required=True)
    scn_opts.add_argument("--out", default=None)

    p_run = sub.add_parser("run", parents=[scn_opts], help="run a scenario")
    p_run.add_argument("--engine", choices=("pde", "particles", "both"),
                       default="pde")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence", parents=[scn_opts], help="grid-refinement study")
    p_conv.add_argument("--resolutions", required=True,
                        help="comma-separated cell counts, e.g. 100,200,400")
    p_conv.set_defaults(func=cmd_convergence)

    p_rie = sub.add_parser("riemann", help="classify a Riemann problem")
    p_rie.add_argument("--flux", required=True,
                       help='flux block as JSON, e.g. {"kind": "quadratic-attractive"}')
    p_rie.add_argument("u_minus", type=float)
    p_rie.add_argument("u_plus", type=float)
    p_rie.set_defaults(func=cmd_riemann)

    p_val = sub.add_parser("validate", parents=[scn_opts],
                           help="run diagnostics; exit 0 iff all pass")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:   # every error of a bad input here, pde.SolverError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry():
    """The process entry of `dualflow` and `python -m dualflow.cli`: main's
    exit code, after gc.freeze() has spared the interpreter's final
    collections the ~22 000 long-lived objects of numpy, the stdlib and
    dualflow, none of them garbage.  main(argv) itself never freezes."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
