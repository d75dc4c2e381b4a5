"""Spline developable surface patches from boundary data.

A developable strip is a ruled surface between two B-spline boundary
curves over shared knots whose control net cells are all planar; such
strips are generated by a two-parameter polygon recursion.  This package
evaluates and re-expresses the boundary splines through their blossoms,
runs the recursion, solves the three boundary-interpolation problems
(end rulings, both corner points, triangular patch with a prescribed
apex velocity), and verifies results by independent sampling.
"""

__version__ = "0.1.0"

from .bspline import BSplineCurve, KnotVector
from .errors import (ConeCaseError, CylinderCaseError, DegenerateCaseError,
                     InfeasibleProblemError, PlanarSurfaceError)
from .fileio import (ProblemSpec, SolveReport, export_obj, parse_curve,
                     parse_problem, parse_solution, serialize_curve,
                     serialize_problem, serialize_solution)
from .solvers import (AffineScaling, Problem1Solution, Problem2Solution,
                      Problem3Solution, Solved, apex_direction,
                      ruling_coefficients, solve_problem1, solve_problem2,
                      solve_problem3, solve_spec)
from .strip import (DevelopableStrip, RuledPatch, control_relation_residuals,
                    propagate_polygon)
from .verify import (DevelopabilityScan, cell_planarity_residual,
                     curves_pointwise_equal, developability_scan,
                     planarity_report)
from .cli import main, run_cli

__all__ = [
    "__version__",
    "BSplineCurve", "KnotVector",
    "RuledPatch", "DevelopableStrip", "propagate_polygon",
    "control_relation_residuals",
    "AffineScaling",
    "Problem1Solution", "Problem2Solution", "Problem3Solution", "Solved",
    "ruling_coefficients",
    "solve_problem1", "solve_problem2", "solve_problem3", "apex_direction",
    "solve_spec",
    "DevelopabilityScan", "developability_scan",
    "cell_planarity_residual", "curves_pointwise_equal", "planarity_report",
    "ProblemSpec", "SolveReport", "parse_problem", "serialize_problem",
    "parse_curve", "serialize_curve", "parse_solution", "serialize_solution",
    "export_obj", "run_cli", "main",
    "InfeasibleProblemError", "DegenerateCaseError", "CylinderCaseError",
    "ConeCaseError", "PlanarSurfaceError",
]
