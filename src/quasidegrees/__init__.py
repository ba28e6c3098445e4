"""Exact computation of quasidegree sets of multigraded modules.

The package computes, over Q and with no floating point anywhere:

* standard pairs and degrees of monomial ideals,
* free resolutions over multigraded polynomial rings,
* quasidegree sets (Zariski closures of the set of nonzero graded pieces)
  of finitely generated modules,
* toric ideals of integer matrices and their normalized volumes,
* degree loci of local cohomology via graded duality, including the
  rank-jump membership test for individual parameter vectors.

Of ``quasidegrees.groebner`` the package exports only the ideal-level
functions on polynomials: ``buchberger`` (and its ``GroebnerBasis``),
``divide``, ``normal_form``, ``saturate`` and ``ideal_equal``. Module
bases, syzygies and initial modules are computed on the vecdicts of
``quasidegrees.groebner`` (``vec_groebner``, ``vec_syzygies``,
``vec_initial_module``).
"""

from .groebner import (
    GroebnerBasis,
    buchberger,
    divide,
    ideal_equal,
    normal_form,
    saturate,
)
from .homology import (
    FreeResolution,
    GradedPresentation,
    InhomogeneousError,
    ext_presentation,
    free_resolution,
    qlc,
    qlc_total,
)
from .linalg import InputError, IntMatrix, integer_kernel
from .parse import (
    ParseError,
    UnknownVariableError,
    parse_polynomial,
    render_polynomial,
)
from .planes import AffinePlane, QuasidegreeSet, plane_contains, remove_redundancy
from .poly import (
    GREVLEX,
    LEX,
    ColumnLatticeError,
    Elimination,
    GradedRing,
    GradingError,
    GradingNotPositiveError,
    GrevLex,
    Lex,
    Polynomial,
    find_heft,
    graded_ring,
    standard_graded_ring,
)
from .qdeg import (
    NonMonomialEntryError,
    NonSplittingError,
    quasidegrees_module,
    quasidegrees_monomial,
)
from .stdpairs import StandardPair, degree_via_pairs, standard_pairs
from .toric import (
    normalized_volume,
    to_a_graded_ring,
    toric_ideal,
)

__all__ = [
    "AffinePlane",
    "ColumnLatticeError",
    "Elimination",
    "FreeResolution",
    "GREVLEX",
    "GradedPresentation",
    "GradedRing",
    "GradingError",
    "GradingNotPositiveError",
    "GrevLex",
    "GroebnerBasis",
    "InhomogeneousError",
    "InputError",
    "IntMatrix",
    "LEX",
    "Lex",
    "NonMonomialEntryError",
    "NonSplittingError",
    "ParseError",
    "Polynomial",
    "QuasidegreeSet",
    "StandardPair",
    "UnknownVariableError",
    "buchberger",
    "degree_via_pairs",
    "divide",
    "ext_presentation",
    "find_heft",
    "free_resolution",
    "graded_ring",
    "ideal_equal",
    "integer_kernel",
    "normal_form",
    "normalized_volume",
    "parse_polynomial",
    "plane_contains",
    "qlc",
    "qlc_total",
    "quasidegrees_module",
    "quasidegrees_monomial",
    "remove_redundancy",
    "render_polynomial",
    "saturate",
    "standard_graded_ring",
    "standard_pairs",
    "to_a_graded_ring",
    "toric_ideal",
]
