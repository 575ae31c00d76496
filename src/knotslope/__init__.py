"""Boundary slopes of SL(2,C) knot group representations.

The package computes the slope invariant of an irreducible boundary-unipotent-
free representation two ways — from the adjoint twisted Alexander matrix of an
augmented knot group presentation, and from the logarithmic Gauss map of the
A-polynomial — and provides the symbolic machinery (free group words, Fox
calculus, Riley families, bivariate Laurent resultants, Newton polygons)
needed for both routes.

Route 1 takes stacks and returns results: ``Route1Plan`` evaluates the
Riley representations at many meridians, or any stack of generator
images, into ``Route1Result`` records, and ``log_gauss_stack`` reads
route 2 at many points.  ``Representation`` with ``riley_family``,
``compute_slope``, ``boundary_data``, ``parabolic_modulus``,
``is_boundary_parabolic`` and ``is_unitarizable`` is the one-representation
view of the same code that the demos read.
"""

from __future__ import annotations

from .apoly import (ApolyError, ApolyResult, BiLaurent, IdealSlopeReport,
                    NewtonPolygon, bilaurent_from_json, bilaurent_gcd,
                    bilaurent_to_json, compute_apoly_twobridge,
                    compute_apoly_twobridge_detailed, format_bilaurent,
                    ideal_point_slopes, log_gauss, log_gauss_stack,
                    newton_polygon, parse_bilaurent, resultant_t,
                    RileyLocus, riley_locus, riley_polynomial, side_slopes,
                    squarefree_part)
from .data import DataError, builtin_names, load_builtin, resolve_builtin
from .linalg import (KILLING_GRAM, SL2_BASIS, adjoint_of, nullspace,
                     sl2_coordinates)
from .presentation import (GroupRingElement, KnotPresentation, ParseError,
                           PresentationError, Word, exponent_sum,
                           format_presentation, format_word, fox_derivative,
                           free_reduce, parse_presentation, parse_word)
from .representations import (NonFiniteError, Representation,
                              RepresentationError, abelian_representation,
                              is_unitarizable, riley_family)
from .slope import (AugmentedPresentation, DegenerateIntersectionError,
                    NotAdmissibleError, Route1Plan, Route1Result, SlopeError,
                    SlopeValue, TwistedAlexanderMatrix, augment,
                    boundary_data, build_twisted_alexander, compute_slope,
                    is_boundary_parabolic, parabolic_modulus)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # presentation
    "Word", "GroupRingElement", "KnotPresentation", "PresentationError",
    "ParseError", "parse_presentation", "parse_word", "format_presentation",
    "format_word", "free_reduce", "exponent_sum", "fox_derivative",
    # linalg
    "SL2_BASIS", "KILLING_GRAM", "adjoint_of", "sl2_coordinates", "nullspace",
    # representations
    "Representation", "RepresentationError", "NonFiniteError", "riley_family",
    "abelian_representation", "is_unitarizable",
    # slope
    "SlopeError", "NotAdmissibleError", "DegenerateIntersectionError",
    "SlopeValue", "AugmentedPresentation", "TwistedAlexanderMatrix",
    "Route1Plan", "Route1Result",
    "augment", "build_twisted_alexander", "compute_slope", "boundary_data",
    "is_boundary_parabolic", "parabolic_modulus",
    # apoly
    "ApolyError", "ApolyResult", "BiLaurent", "NewtonPolygon",
    "IdealSlopeReport", "parse_bilaurent", "format_bilaurent",
    "bilaurent_to_json", "bilaurent_from_json", "bilaurent_gcd",
    "resultant_t", "squarefree_part", "RileyLocus", "riley_locus",
    "riley_polynomial",
    "compute_apoly_twobridge", "compute_apoly_twobridge_detailed",
    "newton_polygon", "side_slopes", "ideal_point_slopes", "log_gauss",
    "log_gauss_stack",
    # data
    "DataError", "builtin_names", "load_builtin", "resolve_builtin",
]
