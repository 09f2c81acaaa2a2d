"""Exact equivariant residue engine for a family of plane fields.

The package computes, over the rationals and with no floating point
anywhere, the residue sums attached to a four-step blowup of the space
of degree-two plane fields on projective three-space: the catalog of
fixed points and fixed lines, the linear relations among the thirty
unknown twist degrees, the per-flag fiber value 21 and the global
degree 168208.
"""

__version__ = "0.1.0"

from .torus import WeightError, DivByZeroWeight, validate_weights, \
    enumerate_fixed_flags
from .fixlocus import build_catalog
from .bottsum import TwistLinear, total_degree, fiber_degree, \
    component_degree, three_planes_demo
from .relations import build_system, solve_relations, \
    normal_twist_check, InconsistentSystem, ResidualUnknowns

__all__ = [
    "WeightError", "DivByZeroWeight", "validate_weights",
    "enumerate_fixed_flags", "build_catalog", "TwistLinear",
    "total_degree", "fiber_degree", "component_degree",
    "three_planes_demo", "build_system", "solve_relations",
    "normal_twist_check", "InconsistentSystem", "ResidualUnknowns",
    "__version__",
]
