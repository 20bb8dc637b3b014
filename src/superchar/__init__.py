"""Exact characters of finite-dimensional irreducible gl(m|n) modules.

The closed formula reads a dominant weight as a diagram on the integer line,
builds the nesting forest of its cap diagram, and aggregates one summand per
forest-subgraph (vertex of the associated order polyhedron).  Every result
can be re-derived through an independent signed expansion into Kac
characters, enumerated as lattice points of the same polyhedron.
"""

from .caps import CapForest, SegmentData, cap_diagram, projective_family, segment_data
from .capgraph import Forest, ThetaPoly, gamma, linear_extensions, subgraphs, theta, theta_tilde
from .charring import (
    CharPoly,
    Window,
    alt_J,
    dhat_denominator,
    dimension_eval,
    irreducible_char,
    kac_char,
    supersymmetry_check,
)
from .oracle import oracle_char
from .weights import ABPair, HighestWeight, InvariantError, WeightDiagram, ab_sets, build_diagram, diagram_of_weight, rho

__version__ = "0.1.0"

__all__ = [
    "ABPair",
    "CapForest",
    "CharPoly",
    "Forest",
    "HighestWeight",
    "InvariantError",
    "SegmentData",
    "ThetaPoly",
    "WeightDiagram",
    "Window",
    "ab_sets",
    "alt_J",
    "build_diagram",
    "cap_diagram",
    "dhat_denominator",
    "diagram_of_weight",
    "dimension_eval",
    "gamma",
    "irreducible_char",
    "kac_char",
    "linear_extensions",
    "oracle_char",
    "projective_family",
    "rho",
    "segment_data",
    "subgraphs",
    "supersymmetry_check",
    "theta",
    "theta_tilde",
]
