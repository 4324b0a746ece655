"""motkit: martingale optimal transport at desk scale.

A frontier-sweep solver for separated 1-D instances, a self-contained LP
oracle, reduction and lifting for radially symmetric marginals, and
structural verifiers (forbidden configurations, monotone frontier maps,
circular deformation curves).
"""

from .errors import (InputError, MotkitError, NotInConvexOrderError,
                     SeparationError, SolverFailureError)
from .measures import (Coupling, DiscreteMeasure, GridDensity, TransportMaps,
                       call_function, common_mass_split, convex_order_check,
                       quantize)
from .mot1d import (SeparationInterval, cost, coupling_matrix,
                    detect_separation, reflection_residual, solve)
from .lp import MotLp, solve_lp, uniqueness_probe
from .radial import (RadialAtoms, RadialProfile, induce_1d, induced_atoms,
                     rotation_group_2d, sample_lifted, solve_radial,
                     symmetrize_coupling, unit_sphere_area)
from .verify import (DeformationInstance, check_decreasing, curve_is_constant,
                     curve_is_strictly_decreasing, deformation_curve,
                     detect_forbidden, random_deformation_instance,
                     validate_coupling)

__version__ = "0.1.0"

__all__ = [
    "Coupling", "DeformationInstance", "DiscreteMeasure", "GridDensity",
    "InputError", "MotLp", "MotkitError", "NotInConvexOrderError",
    "RadialAtoms", "RadialProfile", "SeparationError", "SeparationInterval",
    "SolverFailureError", "TransportMaps", "call_function", "check_decreasing",
    "common_mass_split", "convex_order_check", "cost", "coupling_matrix",
    "curve_is_constant", "curve_is_strictly_decreasing", "deformation_curve",
    "detect_forbidden", "detect_separation", "induce_1d", "induced_atoms",
    "quantize", "random_deformation_instance", "reflection_residual",
    "rotation_group_2d", "sample_lifted", "solve", "solve_lp", "solve_radial",
    "symmetrize_coupling", "uniqueness_probe", "unit_sphere_area",
    "validate_coupling",
]
