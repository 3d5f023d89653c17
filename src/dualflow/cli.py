"""Command-line front end: scenario runs, convergence studies, Riemann info.

Subcommands:
    run          evolve a scenario with the PDE engine, the aggregate engine,
                 or both, writing CSV snapshots and a diagnostics JSON
    convergence  exact L1 error of u against one reference, over resolutions
    riemann      admissible speed range, selected speed and wave structure
    validate     run all configured diagnostics; exit 0 iff everything passes

Options take their exact long names, as --name VALUE or --name=VALUE, and a
value that is not empty; of a repeated option the last wins.  --resolutions
takes comma-separated cell counts, --flux a flux block as JSON, e.g.
{"kind": "quadratic-attractive"}, and a state of riemann may be negative
(riemann --flux JSON -0.5 0.5).  -h or --help prints this text and the usage.

Exit codes: 0 success, 1 usage, configuration or I/O error, 2 diagnostics
failure.
"""

from __future__ import annotations

from . import without_collections

# The imports below allocate long-lived objects and free none of them, so every
# collection they would trigger finds no garbage.  cli binds no numpy: the
# modules that build arrays import it on first use, without collections too.
with without_collections():
    import atexit
    import json
    import os
    import sys
    import types

    from .measure import GridField, extract_atoms, sample_to_grid
    from .scenario import CHECKS, Scenario, ScenarioError, load_scenario, write_files


def initial_grid(scn: Scenario) -> GridField:
    return sample_to_grid(scn.initial, scn.x_min, scn.x_max, scn.n_cells)


def run_pde(scn: Scenario) -> list:   # of SolverState
    """The snapshots of pde.run on the scenario."""
    from . import pde
    return pde.run(initial_grid(scn), scn.model, scn.t_end, scn.cfl, scn.output_times)


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


def write_field_outputs(snapshots) -> dict:
    """The three field CSVs of ``snapshots``, as write_files takes them."""
    from .csvtext import Csv
    texts = {"fields_faces.csv": [], "fields_cells.csv": [], "atoms_extracted.csv": []}
    faces, cells, atoms = (Csv(header, text.append) for header, text in zip(
        (["t", "x_face", "u"], ["t", "x_center", "rho_cell_mass", "rho_density"],
         ["t", "atom_id", "x", "m"]), texts.values()))
    for s in snapshots:
        f, mu = s.field, extract_atoms(s.field)
        faces.add((s.t, f.faces, f.u_faces))
        cells.add((s.t, f.centers, (m := f.cell_masses), m / f.dx))
        atoms.add((s.t, list(range(mu.n_atoms)), mu.xs, mu.ms))
    return texts


def write_particle_outputs(states, events) -> dict:
    """trajectory.csv and events.csv, formatted from the oracle's float lists: no numpy."""
    from .csvtext import csv_text
    return {
        "trajectory.csv": csv_text(
            ["t", "atom_id", "x", "m", "v"],
            ((st.time, list(range(st.atoms.n_atoms)), st.atoms.xs, st.atoms.ms, st.vs)
             for st in states)),
        "events.csv": csv_text(
            ["t_event", "ids_merged", "x", "m"],
            [([e.t for e in events], ["+".join(map(str, e.indices)) for e in events],
              [e.x for e in events], [e.m for e in events])])}


def write_summary_csv(scn: Scenario, snapshots, records) -> dict:
    from . import analysis
    from .csvtext import csv_text
    residual = next((c.value for c in records if c.name == "weak_residual"), "")
    return {"diagnostics.csv": csv_text(
        ["t", "total_mass", "max_cell_density", "oleinik_lhs_max", "residual_weak"],
        [(s.t, s.field.total_mass, float(s.field.cell_masses.max() / s.field.dx),
          analysis.check_oleinik(s, scn.model, 0.0)[0].value if s.t > 0 else "",
          residual) for s in snapshots])}


def json_report(scn: Scenario, records) -> dict:
    """diagnostics.json, as write_files takes it: the check records and the
    scenario they ran on."""
    report = {"checks": [r._asdict() for r in records], "scenario": scn.raw}
    return {"diagnostics.json": [json.dumps(report, indent=2, sort_keys=True), "\n"]}


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
        write_files(scn.out_dir, write_particle_outputs(*oracle) if "csv" in scn.formats else {})
        return 0
    if args.engine == "both" and "w1_vs_particles" not in scn.checks:
        scn = scn._replace(checks=scn.checks + ("w1_vs_particles",))
    snapshots = run_pde(scn)
    records = run_diagnostics(scn, snapshots, oracle)
    texts = json_report(scn, records) if "json" in scn.formats else {}
    if "csv" in scn.formats:
        texts.update(write_particle_outputs(*oracle) if oracle else {})
        texts.update(write_summary_csv(scn, snapshots, records))
        texts.update(write_field_outputs(snapshots))
    # every engine and check has run before the one write: a failure before its
    # first rename leaves every previous output as it was
    write_files(scn.out_dir, texts)
    for c in records:
        if not c.passed:
            print(f"FAIL {c.name} t={c.t}: value={c.value} bound={c.bound}",
                  file=sys.stderr)
    return 0 if all(c.passed for c in records) else 2


def cmd_convergence(args) -> int:
    from . import convergence
    return convergence.cmd_convergence(load_args_scenario(args), args.resolutions)


def cmd_riemann(args) -> int:
    from . import riemann
    return riemann.cmd_riemann(args)


ATOMIC_PIPE_WRITE = 512   # bytes: the least PIPE_BUF that POSIX allows


def write_stdout(text: str):
    """``text``, ASCII, on stdout in writes a pipe takes whole or not at all.
    Unbuffered (PYTHONUNBUFFERED), a write that a pipe takes only part of
    loses the rest with no error."""
    for start in range(0, len(text), ATOMIC_PIPE_WRITE):
        sys.stdout.write(text[start:start + ATOMIC_PIPE_WRITE])


def cmd_validate(args) -> int:
    scn = load_args_scenario(args)
    records = run_diagnostics(scn, run_pde(scn))
    write_files(scn.out_dir, json_report(scn, records))
    # one text, not a print per record: unbuffered, that would be a write per record
    write_stdout("".join(f"{'pass' if c.passed else 'FAIL'} {c.name} t={c.t} value={c.value} "
                         f"bound={c.bound}\n" for c in records))
    return 0 if all(c.passed for c in records) else 2


# ---------------------------------------------------------------------------
# command line


REQUIRED = object()   # the default of an option that every command line must give
# the options that load_args_scenario reads
SCENARIO_OPTIONS = {"--scenario": ("PATH", REQUIRED), "--out": ("DIR", None)}
# name: (function, {option: (metavar, default)}, positional floats); the metavar
# {a,b,...} lists the only values that its option takes
COMMANDS = {
    "run": (cmd_run, {**SCENARIO_OPTIONS, "--engine": ("{pde,particles,both}", "pde")}, ()),
    "convergence": (cmd_convergence, {**SCENARIO_OPTIONS, "--resolutions": ("N,N,...", REQUIRED)},
                    ()),
    "riemann": (cmd_riemann, {"--flux": ("JSON", REQUIRED)}, ("u_minus", "u_plus")),
    "validate": (cmd_validate, SCENARIO_OPTIONS, ()),
}
HELP = ("-h", "--help")


class UsageError(Exception):
    """A command line that COMMANDS does not take."""


def usage(command: str | None = None) -> str:
    """The usage line of a command, or of dualflow."""
    if command is None:
        return f"usage: dualflow {{{','.join(COMMANDS)}}} [--option VALUE]... (-h for help)"
    _, options, floats = COMMANDS[command]
    return " ".join(["usage: dualflow", command, *(
        f"{name} {meta}" if default is REQUIRED else f"[{name} {meta}]"
        for name, (meta, default) in options.items()), *floats])


def is_option(token: str) -> bool:
    """Whether a command-line token names an option: a '-' first, and no number."""
    try:
        float(token)
    except ValueError:
        return token.startswith("-")
    return False


def parse_args(argv: list):
    """The command line ``argv`` as attributes, one per option (``--out`` as
    ``out``) and per positional float, and the command's function ``func``;
    None when it asks for help.  Raises UsageError for any line COMMANDS does
    not take."""
    if not argv:
        raise UsageError("no command given")
    if argv[0] in HELP:
        return None
    if argv[0] not in COMMANDS:
        raise UsageError(f"{argv[0]!r} is not a command ({', '.join(COMMANDS)})")
    func, options, floats = COMMANDS[argv[0]]
    given, positional = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in HELP:
            return None
        if not is_option(token):
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise UsageError(f"unrecognized option {name}")
        if not eq:
            value = next(tokens, None)
            if value is None or is_option(value):
                raise UsageError(f"option {name} needs a value")
        meta = options[name][0]
        if not value:
            raise UsageError(f"option {name} has an empty value")
        if meta.startswith("{") and value not in meta[1:-1].split(","):
            raise UsageError(f"option {name}: {value!r} is not one of {meta}")
        given[name] = value
    missing = [name for name, (_, default) in options.items()
               if default is REQUIRED and name not in given] + list(floats[len(positional):])
    if missing:
        raise UsageError(f"missing {', '.join(missing)}")
    if len(positional) > len(floats):
        raise UsageError(f"unrecognized arguments {' '.join(positional[len(floats):])}")
    args = types.SimpleNamespace(func=func, **{
        name[2:]: given.get(name, default) for name, (_, default) in options.items()})
    for name, token in zip(floats, positional):
        try:
            setattr(args, name, float(token))
        except ValueError:
            raise UsageError(f"{name}: {token!r} is not a number") from None
    return args


def __getattr__(name: str):   # PEP 562: cli.convergence_table loads the study on first use
    if name == "convergence_table":
        from .convergence import convergence_table
        return convergence_table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(usage(command), f"error: {exc}", sep="\n", file=sys.stderr)
        return 1
    if args is None:   # -h: the docstring, and the usage of the command or of every command
        write_stdout("\n".join([__doc__, *map(usage, [command] if command else COMMANDS), ""]))
        return 0
    try:
        return args.func(args)
    except ValueError as exc:   # every error of a bad input here, pde.SolverError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def entry():
    """The process entry of `dualflow` and `python -m dualflow.cli`: main's exit
    code, after the atexit handlers and the flush of sys.stdout and sys.stderr,
    as at any exit, and then os._exit: no module teardown and no final
    collections, whose only work left is freeing memory that the exit returns
    anyway.  Every output file is closed before main returns.  A flush that
    fails exits through sys.exit instead, so that the interpreter reports the
    failure as it does at any exit.  cli.main(argv), the call of the library
    and the tests, only returns.

    Before main, and so before numpy is first imported, each of BLAS_THREADS
    that the environment does not set is set to 1: OpenBLAS then starts no
    thread pool, whose start is a large share of a short command.  The
    outputs do not depend on it: weak_residual sums in numpy's own loop, not
    in BLAS.  A value the user set is kept.  cli.main and ``import dualflow``
    leave the environment alone."""
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):   # a closed pipe, a full disk, a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
