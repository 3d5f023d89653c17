"""dualflow: 1D weakly nonlinear conservation system solver and validator.

Solves rho_t + (a(u) rho)_x = 0 with u_x = rho by evolving the primitive u
as the entropy solution of u_t + A(u)_x = 0 (Godunov scheme), alongside an
exact event-driven aggregate tracker for the attractive case, plus a
diagnostics layer (Oleinik bound, push-forward identity, weak residuals,
pressureless momentum extension, non-uniqueness selection).
"""

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
