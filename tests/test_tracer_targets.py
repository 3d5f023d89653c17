"""The functions that bench/tracer.py wraps by name all exist in dualflow.

The tracer rebinds each entry of ``tracer.FUNCTIONS`` at run time, so a
rename or deletion in ``src/`` would otherwise break only traced runs.
The tracer is loaded read-only: no bytecode is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
