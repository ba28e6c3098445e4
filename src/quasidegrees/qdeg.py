"""Quasidegree sets of finitely generated multigraded modules.

The quasidegree set of a module M is the Zariski closure in Q^d of
tdeg(M) = {beta : M_beta != 0}. Both public quasidegree functions take
M as the cokernel of a ``homology.GradedPresentation`` P. When each
column of P holds one monomial (so the image splits as a direct sum of
monomial ideals I_k, one per row), ``quasidegrees_monomial`` computes
the closure exactly:

    for each row k, with row shift alpha_k:
        for each standard pair (x^u, Z) of I_k:
            contribute the plane deg(x^u) + alpha_k + span{deg(x_i) : i in Z}

The standard pairs cover the standard monomials of I_k, the degrees of a
pair form a shifted copy of the semigroup generated by the face columns,
and the Zariski closure of that is the affine plane above, so the union
over rows and pairs is tdeg(M)'s closure on the nose.

For a general (non-monomial, non-split) presentation the module is first
replaced by its initial submodule, which splits and has the same graded
Hilbert function, hence the same quasidegrees: ``initial_quasidegrees``
reads its row ideals off a module Groebner basis of vecdict columns, and
``quasidegrees_module`` is its Polynomial edge. On a split presentation
both routes give the same planes, so the CLI's ``qdeg`` tries
``quasidegrees_monomial`` and falls back to ``quasidegrees_module`` when
that raises NonMonomialEntryError or NonSplittingError (both
``PresentationError``, a ``linalg.InputError``). This module
reads P's ``ring``, ``shifts`` and ``columns`` and never builds or
checks one: ``homology.GradedPresentation`` is the one check of a
presentation, and ``homology`` imports this module, not the other way
round.
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import Sequence

from .groebner import VecPoly, vec_initial_module, vector_to_vec
from .linalg import InputError
from .planes import AffinePlane, QuasidegreeSet, Span
from .poly import Exps, GradedRing
from .stdpairs import standard_pairs


class PresentationError(InputError):
    """A presentation matrix violates a structural requirement."""


class NonMonomialEntryError(PresentationError):
    def __init__(self) -> None:
        super().__init__("matrix entry is not a monomial")


class NonSplittingError(PresentationError):
    def __init__(self) -> None:
        super().__init__(
            "presentation does not split into row ideals; use quasidegrees_module"
        )


def _row_ideals(P) -> list[list[Exps]]:
    """Generator exponents of the row ideals of a split monomial presentation.

    Each nonzero column of P holds one monomial; its exponents go to the
    ideal of its row. Raises NonMonomialEntryError when any entry has more
    than one term, and only then NonSplittingError when a column has two
    nonzero entries.
    """
    if not all(f.is_monomial() for col in P.columns for f in col if f):
        raise NonMonomialEntryError()
    ideals: list[list[Exps]] = [[] for _ in P.shifts]
    for col in P.columns:
        entries = [(k, f) for k, f in enumerate(col) if f]
        if len(entries) > 1:
            raise NonSplittingError()
        for k, f in entries:
            (e,) = f.terms
            ideals[k].append(e)
    return ideals


def quasidegrees_monomial(P) -> QuasidegreeSet:
    """Quasidegree set of coker P for a GradedPresentation P whose columns
    each hold one monomial.

    Set-equal planes from different standard pairs or rows collapse to
    the one with the least base; use remove_redundancy to also drop
    planes strictly inside others.
    """
    return _quasidegrees_rows(P.ring, P.shifts, _row_ideals(P))


def _quasidegrees_rows(ring: GradedRing, shifts: Sequence, ideals: Sequence) -> QuasidegreeSet:
    """Quasidegree set of the direct sum of the R(-shifts[k])/<ideals[k]>.

    Each face's span is row-reduced once, into one Span that every plane
    on that face shares; each standard pair then gives one plane, whose
    base's coset is computed in integer arithmetic. QuasidegreeSet keeps
    the least base of each set of equal planes.
    """
    span = cache(lambda face: Span(ring.degree(i) for i in sorted(face)))
    return QuasidegreeSet(
        AffinePlane._on(span(pair.face), map(add, ring.multidegree(pair.root), shift))
        for shift, gens in zip(shifts, ideals)
        for pair in standard_pairs(gens, ring.nvars)
    )


def initial_quasidegrees(
    columns: Sequence[VecPoly], shifts: Sequence[Sequence[int]], ring: GradedRing
) -> QuasidegreeSet:
    """Quasidegree set of R^t(-shifts)/<columns> for homogeneous vecdict columns."""
    return _quasidegrees_rows(ring, shifts, vec_initial_module(columns, len(shifts), ring.order))


def quasidegrees_module(P) -> QuasidegreeSet:
    """Quasidegree set of coker P for any GradedPresentation P.

    Replaces the image submodule by its initial submodule (same graded
    Hilbert function, hence the same quasidegrees) and runs the split
    monomial algorithm on the result.
    """
    return initial_quasidegrees([vector_to_vec(c) for c in P.columns], P.shifts, P.ring)
