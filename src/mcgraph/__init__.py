"""Finite-difference laboratory for prescribed mean curvature graphs.

Solves the Dirichlet problem for div(grad u / sqrt(1 + |grad u|^2)) = n H(x)
on bounded planar domains with an embedded-boundary grid, and checks the
solutions against the a priori height and gradient estimates, the sharp
existence threshold for boundary curvature, and the non-existence mechanism
for supercritical curvature.
"""

from .geometry import (DomainSpec, PrescribedCurvature, SerrinAudit,
                       check_serrin, check_gradient_condition, make_domain,
                       disk, ellipse, rect, rounded_rect, annulus, dumbbell,
                       levelset, MalformedDomainError)
from .boundary import (BoundaryData, ZeroData, ExpressionData, BumpData,
                       constant_data, scherk_trace)
from .expressions import Expr2D, compile_expr, ExpressionError
from .grid import Grid, ScalarField, GridError, InvalidFieldError
from .operators import (Evaluation, apply_M, gradient, boundary_slope,
                        coefficient_matrix, DIMENSION)
from .linear import solve as solve_linear, SolverError
from .solver import SolveReport, solve_dirichlet, sup_slope
from .barriers import (EstimateAudit, BarrierParams, NotApplicable,
                       height_bound, height_barrier, boundary_gradient_package,
                       barrier_pair_checks, global_gradient_bound,
                       comparison_check, ComparisonResult,
                       nonexistence_bound, NonexistenceCertificate,
                       adversarial_boundary_data, nonexistence_witness,
                       WitnessReport, EstimateLedger, estimate_ledger)
from .reference import ReferenceSolution, catalog, get as get_reference
from .config import Scenario, ExperimentSpec, ConfigError, load_scenario
from .reporting import (build_report, write_report, write_traces_csv,
                        write_fields_csv, write_heatmap_svg)

__version__ = "0.1.0"

__all__ = [
    "DomainSpec", "PrescribedCurvature", "SerrinAudit", "check_serrin",
    "check_gradient_condition", "make_domain", "disk", "ellipse", "rect",
    "rounded_rect", "annulus", "dumbbell", "levelset", "MalformedDomainError",
    "BoundaryData", "ZeroData", "ExpressionData", "BumpData", "constant_data",
    "scherk_trace",
    "Expr2D", "compile_expr", "ExpressionError",
    "Grid", "ScalarField", "GridError", "InvalidFieldError",
    "Evaluation", "apply_M", "gradient", "coefficient_matrix", "DIMENSION",
    "solve_linear", "SolverError",
    "SolveReport", "solve_dirichlet", "sup_slope", "boundary_slope",
    "EstimateAudit", "BarrierParams", "NotApplicable", "height_bound",
    "height_barrier", "boundary_gradient_package", "barrier_pair_checks",
    "global_gradient_bound", "comparison_check", "ComparisonResult",
    "nonexistence_bound", "NonexistenceCertificate",
    "adversarial_boundary_data", "nonexistence_witness", "WitnessReport",
    "EstimateLedger", "estimate_ledger",
    "ReferenceSolution", "catalog", "get_reference",
    "Scenario", "ExperimentSpec", "ConfigError", "load_scenario",
    "build_report", "write_report", "write_traces_csv", "write_fields_csv",
    "write_heatmap_svg",
]
