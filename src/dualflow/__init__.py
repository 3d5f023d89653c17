"""dualflow: 1D weakly nonlinear conservation system solver and validator.

Solves rho_t + (a(u) rho)_x = 0 with u_x = rho by evolving the primitive u
as the entropy solution of u_t + A(u)_x = 0 (Godunov scheme), alongside an
exact event-driven aggregate tracker for the attractive case, plus a
diagnostics layer (Oleinik bound, push-forward identity, weak residuals,
pressureless momentum extension, non-uniqueness selection).
"""

import gc
import sys

# module -> its names, each loaded on first use (PEP 562): `import dualflow` loads no module
_EXPORTS = {
    "flux": ("FluxError", "FluxModel", "eval_A", "eval_a", "godunov_flux", "piecewise_linear",
             "polynomial", "quadratic_attractive", "quadratic_repulsive"),
    "measure": ("AtomicMeasure", "GridField", "MeasureError", "extract_atoms", "quantile",
                "sample_to_grid", "wasserstein1"),
    "particles": ("AggregateSystem", "MergeEvent", "OracleError", "advance", "collapse_time",
                  "next_event", "velocities"),
    "pde": ("SolverState", "run", "step"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__version__ = "0.1.0"
__all__ = [*_OWNER, *_EXPORTS]


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime logs; a fromlist returns the submodule
    module = __import__(f"{__name__}.{module}", fromlist=["_"])
    return module if name in _EXPORTS else getattr(module, name)


class without_collections:
    """A ``with`` block that runs with the cyclic collector off, and leaves it on
    or off as it found it, also when the block raises.  For imports: they
    allocate long-lived objects and free none, so every collection they trigger
    finds no garbage.  On the way out, freeze and unfreeze move every tracked
    object, unscanned, to the oldest generation: else the first allocation after
    the block would scan all it made in one young pass."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if not gc.get_freeze_count():   # a caller's frozen objects stay frozen
            gc.freeze()
            gc.unfreeze()
        if self.collecting:
            gc.enable()


class NumpyOnFirstUse:
    """A module's ``np`` until the module first reads a name of it: that
    imports numpy, without collections unless it is loaded already, and binds
    numpy itself as the module's ``np``, so every later read is numpy's own.
    A command that builds no array never imports numpy."""

    __slots__ = ("namespace",)

    def __init__(self, namespace: dict):
        self.namespace = namespace   # the module's globals()

    def __getattr__(self, name: str):
        self.namespace["np"] = numpy = load_numpy()
        return getattr(numpy, name)


def load_numpy():
    """numpy, imported by the first call without collections: its import
    makes some 13 000 tracked objects, long-lived, and frees none."""
    if "numpy" not in sys.modules:
        with without_collections():
            import numpy   # noqa: F401
    return sys.modules["numpy"]
