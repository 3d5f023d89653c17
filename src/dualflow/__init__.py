"""dualflow: 1D weakly nonlinear conservation system solver and validator.

Solves rho_t + (a(u) rho)_x = 0 with u_x = rho by evolving the primitive u
as the entropy solution of u_t + A(u)_x = 0 (Godunov scheme), alongside an
exact event-driven aggregate tracker for the attractive case, plus a
diagnostics layer (Oleinik bound, push-forward identity, weak residuals,
pressureless momentum extension, non-uniqueness selection).
"""

from .flux import (FluxError, FluxModel, eval_A, eval_a, godunov_flux, piecewise_linear,
                   polynomial, quadratic_attractive, quadratic_repulsive)
from .measure import (AtomicMeasure, GridField, MeasureError, extract_atoms, quantile,
                      sample_to_grid, wasserstein1)
from .particles import AggregateSystem, MergeEvent, OracleError, advance, collapse_time, next_event, velocities
from .pde import SolverState, run, step

__version__ = "0.1.0"
