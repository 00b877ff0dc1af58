"""Hybrid finite element / reduced order subdomain solver.

Solves the 2D convection-diffusion-reaction equation on a rectangle by
overlapping multiplicative Schwarz coupling of subdomain solvers, where
each subdomain runs either a Q1 finite element model or a reduced model
whose operators are inferred from snapshot data.
"""

from .errors import (ConfigurationError, DivergenceError, FactorizationError,
                     FormatError, OutOfDomainError)
from .mesh import Rect, StructuredMesh, build_mesh
from .fem import (CdrParams, SemiDiscreteSystem, assemble, assemble_full,
                  boundary_values, element_matrices)
from .timestep import ImplicitEulerStepper, Trajectory, integrate, n_steps_for
from .rom import (OpInfOperators, PodBasis, RomStepper, compute_pod,
                  fit_operators, time_derivatives, train_opinf)
from .schwarz import (FESubdomainSolver, GatherPlan, InterfaceTable,
                      RomSubdomainSolver, RunResult, SchwarzConfig,
                      StitchPlan, SubdomainSpec, build_interfaces,
                      run_coupled, schwarz_window)
from .config import GLOBAL_RECT, RunConfig, parse_config
from .driver import (ComparisonReport, cmd_compare, cmd_run_fom,
                     cmd_run_hybrid, cmd_run_mono_opinf, cmd_run_schwarz,
                     cmd_train, error_metric, error_metric_detail)
from .matio import export_field_csv, load_matrix, save_matrix
from .kernels import single_thread_blas

# The imports above have loaded numpy's and scipy's OpenBLAS; set each to
# one thread now, once per process (see ``kernels``).
single_thread_blas()

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DivergenceError", "FactorizationError",
    "FormatError", "OutOfDomainError",
    "Rect", "StructuredMesh", "build_mesh",
    "CdrParams", "SemiDiscreteSystem", "assemble", "assemble_full",
    "boundary_values", "element_matrices",
    "ImplicitEulerStepper", "Trajectory", "integrate", "n_steps_for",
    "OpInfOperators", "PodBasis", "RomStepper", "compute_pod",
    "fit_operators", "time_derivatives", "train_opinf",
    "FESubdomainSolver", "GatherPlan", "InterfaceTable",
    "RomSubdomainSolver", "RunResult", "SchwarzConfig", "StitchPlan",
    "SubdomainSpec", "build_interfaces", "run_coupled", "schwarz_window",
    "GLOBAL_RECT", "RunConfig", "parse_config",
    "ComparisonReport", "cmd_compare", "cmd_run_fom", "cmd_run_hybrid",
    "cmd_run_mono_opinf", "cmd_run_schwarz", "cmd_train", "error_metric",
    "error_metric_detail",
    "export_field_csv", "load_matrix", "save_matrix",
    "__version__",
]
