"""Interior penalty discontinuous Galerkin solver for elliptic and parabolic
problems driven by a measure concentrated on an embedded curve."""

__version__ = "0.1.0"

from .assembly import DGSpec, SparseSystem, assemble_dirichlet_rhs, assemble_mass, assemble_stiffness
from .curve import Curve, assemble_line_rhs, build_restrictions, compute_fh_field, distance_to_curve
from .fields import FieldFunction, interpolate
from .mesh import BoxDomain, Mesh, build_box_mesh
from .norms import convergence_rates, dg_energy_error, dg_norm, l2_error, weighted_dg_norm, weighted_l2_norm
from .parabolic import (
    BackwardEuler, Step, TimeGrid, project_initial, run_backward_euler, spacetime_l2_error,
)
from .problems import LogLineSolution, sine_curve
from .solver import SolverConfig, SolveResult, solve

__all__ = [
    "BoxDomain", "Mesh", "build_box_mesh",
    "Curve", "build_restrictions", "distance_to_curve", "assemble_line_rhs", "compute_fh_field",
    "DGSpec", "SparseSystem", "assemble_stiffness", "assemble_mass", "assemble_dirichlet_rhs",
    "SolverConfig", "SolveResult", "solve",
    "FieldFunction", "interpolate",
    "l2_error", "dg_energy_error", "dg_norm", "weighted_l2_norm", "weighted_dg_norm", "convergence_rates",
    "BackwardEuler", "Step", "TimeGrid", "project_initial", "run_backward_euler",
    "spacetime_l2_error",
    "LogLineSolution", "sine_curve",
]
