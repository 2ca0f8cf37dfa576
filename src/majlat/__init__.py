"""Majorization lattice toolkit.

Exact-rational or float-with-tolerance computations on sorted probability
vectors: the majorization order, pairwise meet and join, infimum and
supremum of arbitrary families via Lorenz-curve envelopes, reductions for
convex polytopes and l1 balls, and optimal-common-resource resolution for
majorization-based resource theories.
"""

from types import ModuleType as _ModuleType

from .core import (
    LorenzCurve,
    MajOrdering,
    OrderedProbVector,
    bottom,
    compare,
    curve_to_vector,
    majorizes,
    make_vector,
    partial_sums,
    top,
)
from .errors import *  # errors.py defines nothing but exception classes
from .lattice import (
    ExtremalFamily,
    family_inf,
    family_sup,
    join,
    meet,
)
from .numeric import DEFAULT_FLOAT_TOL, Scalar, scalar_str
from .polytope import (
    Ball,
    Polytope,
    ball_vertices,
    flattest_approx,
    polytope_inf,
    polytope_sup,
    steepest_approx,
)
from .resource_theory import (
    Direction,
    ResourceTheory,
    StateSpec,
    first_component_family,
    ocr_first_component_bound,
    ocr_two_block_superposition,
    optimal_common_resource,
    state_to_vector,
    two_block_family,
)
from .svg import emit_lorenz_svg

__version__ = "0.1.0"

# The public names are the ones imported above: no underscore, no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
