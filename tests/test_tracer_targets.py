"""bench/tracer.py can trace every function it names in dualflow.

The tracer rebinds each entry of ``tracer.FUNCTIONS`` at run time, through
the namespace of the module that defines it, so a rename, a deletion or a
move behind a module ``__getattr__`` in ``src/`` would otherwise break only
traced runs.  The tracer is loaded read-only: no bytecode is written next to it.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dualflow

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    str(Path(m.__file__).parents[1]) for m in (dualflow, np)))
INSTALL = """
import importlib.util, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
print("installed", len(tracer.FUNCTIONS))
"""


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for qual in tracer.FUNCTIONS:
        module, _, name = qual.partition(".")
        obj = importlib.import_module(f"dualflow.{module}")
        for part in name.split("."):
            assert hasattr(obj, part), f"{qual} is traced but not defined"
            obj = getattr(obj, part)
        assert callable(obj), qual


def test_the_tracer_installs_in_a_fresh_interpreter():
    # hasattr also passes a name that a module __getattr__ serves, which install()
    # cannot rebind; this process has imported (and may have traced) dualflow already
    out = subprocess.run([sys.executable, "-S", "-c", INSTALL, str(TRACER)], env=ENV,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "installed" and int(out.stdout.split()[1]) > 0, out.stdout
