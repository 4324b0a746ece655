"""motkit: martingale optimal transport at desk scale.

A frontier-sweep solver for separated 1-D instances, a self-contained LP
oracle, reduction and lifting for radially symmetric marginals, and
structural verifiers (forbidden configurations, monotone frontier maps,
circular deformation curves).
"""

from .errors import (InputError, MotkitError, NotInConvexOrderError,
                     SeparationError, SolverFailureError)
from .measures import (DiscreteMeasure, GridDensity, OrderReport,
                       call_function, common_mass_split, convex_order_check,
                       quantize)
from .mot1d import (Coupling, SeparationInterval, TransportMaps,
                    cost, coupling_matrix, detect_separation,
                    reflection_residual)
from .pipeline import solve
from .lp import LpSolution, MotLp, diagonal_mass, solve_lp, uniqueness_probe
from .radial import (LiftedCoupling, RadialAtoms, RadialProfile, induce_1d,
                     induced_atoms, l_symmetrize_2d, r_equivalent,
                     rotate_pushforward, rotation_group_2d, sample_lifted,
                     solve_radial, symmetrize_coupling, unit_sphere_area)
from .verify import (DeformationInstance, ForbiddenConfig, ValidationReport,
                     check_decreasing, count_targets_per_side,
                     curve_is_constant, curve_is_strictly_decreasing,
                     deformation_curve, detect_forbidden,
                     random_deformation_instance, swap_gain,
                     validate_coupling)

__version__ = "0.1.0"

__all__ = [
    "Coupling", "DeformationInstance", "DiscreteMeasure",
    "ForbiddenConfig", "GridDensity", "InputError", "LiftedCoupling",
    "LpSolution", "MotLp", "MotkitError", "NotInConvexOrderError",
    "OrderReport", "RadialAtoms", "RadialProfile", "SeparationError",
    "SeparationInterval", "SolverFailureError", "TransportMaps",
    "ValidationReport", "call_function", "check_decreasing",
    "common_mass_split", "convex_order_check", "cost", "coupling_matrix",
    "count_targets_per_side", "curve_is_constant",
    "curve_is_strictly_decreasing", "deformation_curve", "detect_forbidden",
    "detect_separation", "diagonal_mass", "induce_1d", "induced_atoms",
    "l_symmetrize_2d", "quantize",
    "r_equivalent", "random_deformation_instance", "reflection_residual",
    "rotate_pushforward", "rotation_group_2d", "sample_lifted",
    "solve", "solve_lp", "solve_radial",
    "swap_gain", "symmetrize_coupling",
    "uniqueness_probe", "unit_sphere_area", "validate_coupling",
]
