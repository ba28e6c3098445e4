"""Quasidegree sets of finitely generated multigraded modules.

The quasidegree set of a module M is the Zariski closure in Q^d of
tdeg(M) = {beta : M_beta != 0}. For M presented by a monomial matrix
whose columns each hit a single row (so the image splits as a direct sum
of monomial ideals I_k, one per row), the closure is computed exactly:

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
``quasidegrees_module`` is the Polynomial edge, checked as a presentation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Optional, Sequence

from .groebner import VecPoly, Vector, vec_initial_module, vector_to_vec
from .linalg import Frozen
from .planes import AffinePlane, QuasidegreeSet, RatVec, coset_key, rref_span
from .poly import ANY_DEGREE, Exps, GradedRing, Polynomial

Term = tuple[Fraction, Exps]


class PresentationError(ValueError):
    """A presentation matrix violates a structural requirement."""


class NonMonomialEntryError(PresentationError):
    def __init__(self) -> None:
        super().__init__("matrix entry is not a monomial")


class NonSplittingError(PresentationError):
    def __init__(self) -> None:
        super().__init__(
            "presentation does not split into row ideals; use quasidegrees_module"
        )


class InhomogeneousError(ValueError):
    def __init__(self) -> None:
        super().__init__("inhomogeneous generator")


def integral_shifts(shifts: Sequence[Sequence]) -> tuple[tuple[int, ...], ...]:
    """Degree shifts as int tuples; ValueError for a non-integral entry."""
    out = tuple(tuple(int(x) for x in s) for s in shifts)
    if out != tuple(tuple(s) for s in shifts):
        raise ValueError("degree shifts must be integers")
    return out


class MonomialMatrix(Frozen):
    """A t x s matrix of monomials presenting a module R^t(-shifts)/im.

    ``row_shifts[k]`` is the degree of the k-th target generator;
    ``entries[k][j]`` is the (coefficient, exponents) monomial in row k of
    column j, or None for a zero entry.
    """

    _fields = ("ring", "row_shifts", "entries")

    def __init__(
        self,
        ring: GradedRing,
        row_shifts: Sequence[Sequence[int]],
        entries: Sequence[Sequence[Optional[Term]]],
    ) -> None:
        shifts = integral_shifts(row_shifts)
        d = ring.grading_rank
        if any(len(s) != d for s in shifts):
            raise ValueError("row shift has the wrong grading rank")
        rows = []
        width = None
        for row in entries:
            row = tuple(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged monomial matrix")
            cleaned = []
            for entry in row:
                if entry is None:
                    cleaned.append(None)
                    continue
                coeff, exps = entry
                coeff = Fraction(coeff)
                exps = tuple(int(e) for e in exps)
                if len(exps) != ring.nvars:
                    raise ValueError("exponent tuple has the wrong length")
                if not coeff:
                    cleaned.append(None)
                    continue
                cleaned.append((coeff, exps))
            rows.append(tuple(cleaned))
        if len(rows) != len(shifts):
            raise ValueError("one shift per row is required")
        self.__dict__.update(ring=ring, row_shifts=shifts, entries=tuple(rows))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def splits(self) -> bool:
        """At most one nonzero entry per column?"""
        for j in range(self.ncols):
            if sum(1 for k in range(self.nrows) if self.entries[k][j] is not None) > 1:
                return False
        return True

    def row_ideals(self) -> list[list[Exps]]:
        """Generator exponents of the row ideals; requires a split matrix."""
        if not self.splits():
            raise NonSplittingError()
        out: list[list[Exps]] = [[] for _ in range(self.nrows)]
        for j in range(self.ncols):
            for k in range(self.nrows):
                entry = self.entries[k][j]
                if entry is not None:
                    out[k].append(entry[1])
                    break
        return out


def monomial_matrix_from_vectors(
    columns: Sequence[Vector], row_shifts: Sequence[Sequence[int]], ring: GradedRing
) -> MonomialMatrix:
    """Build a MonomialMatrix from tuple-of-polynomial columns.

    Raises NonMonomialEntryError if any entry has more than one term.
    """
    t = len(row_shifts)
    entries: list[list[Optional[Term]]] = [[] for _ in range(t)]
    for col in columns:
        if len(col) != t:
            raise ValueError("column length does not match the number of shifts")
        for k, f in enumerate(col):
            if f.is_zero():
                entries[k].append(None)
            elif f.is_monomial():
                e, c = next(iter(f.terms.items()))
                entries[k].append((c, e))
            else:
                raise NonMonomialEntryError()
    return MonomialMatrix(ring, tuple(tuple(s) for s in row_shifts), tuple(tuple(r) for r in entries))


def quasidegrees_monomial(phi: MonomialMatrix) -> QuasidegreeSet:
    """Quasidegree set of coker(phi) for a split monomial matrix.

    Set-equal planes from different standard pairs or rows collapse to
    the one with the least base; use remove_redundancy to also drop
    planes strictly inside others.
    """
    return _quasidegrees_rows(phi.ring, phi.row_shifts, phi.row_ideals())


def _quasidegrees_rows(ring: GradedRing, shifts: Sequence, ideals: Sequence) -> QuasidegreeSet:
    """Quasidegree set of the direct sum of the R(-shifts[k])/<ideals[k]>.

    The pairs are grouped by their plane as a set before any AffinePlane
    is built: each face's span is row-reduced once, a base is keyed by
    its coset of that span in integer arithmetic, and only the least
    base of each group becomes a plane.
    """
    from .stdpairs import standard_pairs

    # RREF span -> {coset key of a base: least base}, one entry per set
    groups: dict[tuple[RatVec, ...], dict[tuple[int, ...], tuple[int, ...]]] = {}
    # face -> (its coset key, its span's group)
    faces: dict[frozenset[int], tuple[Callable, dict]] = {}
    for shift, gens in zip(shifts, ideals):
        for pair in standard_pairs(gens, ring.nvars):
            face = faces.get(pair.face)
            if face is None:
                span = rref_span(ring.degree(i) for i in sorted(pair.face))
                face = faces[pair.face] = (coset_key(span), groups.setdefault(span, {}))
            coset, group = face
            base = tuple(map(add, ring.multidegree(pair.root), shift))
            key = coset(base)
            if key not in group or base < group[key]:
                group[key] = base
    return QuasidegreeSet(
        tuple(
            AffinePlane._from_rref(base, span)
            for span, group in groups.items()
            for base in group.values()
        )
    )


def vector_degree(vec: Vector, shifts: Sequence[Sequence[int]], ring: GradedRing):
    """Common degree of a homogeneous free-module element, with the k-th
    component shifted by shifts[k].

    Returns ANY_DEGREE for the zero vector and None when inhomogeneous.
    """
    from .poly import homogeneous_degree

    deg = None
    for k, f in enumerate(vec):
        dk = homogeneous_degree(f, ring)
        if dk is None:
            return None
        if dk is ANY_DEGREE:
            continue
        total = tuple(a + b for a, b in zip(dk, shifts[k]))
        if deg is None:
            deg = total
        elif deg != total:
            return None
    return ANY_DEGREE if deg is None else deg


def initial_quasidegrees(
    columns: Sequence[VecPoly], shifts: Sequence[Sequence[int]], ring: GradedRing
) -> QuasidegreeSet:
    """Quasidegree set of R^t(-shifts)/<columns> for homogeneous vecdict columns."""
    return _quasidegrees_rows(ring, shifts, vec_initial_module(columns, len(shifts), ring.order))


def quasidegrees_module(
    columns: Sequence[Vector],
    row_shifts: Sequence[Sequence[int]],
    ring: GradedRing,
) -> QuasidegreeSet:
    """Quasidegree set of R^t(-shifts)/<columns> for homogeneous columns.

    Replaces the image submodule by its initial submodule (same graded
    Hilbert function, hence the same quasidegrees) and runs the split
    monomial algorithm on the result, after a GradedPresentation check.
    """
    from .homology import GradedPresentation

    P = GradedPresentation(ring, row_shifts, columns)
    return initial_quasidegrees([vector_to_vec(c) for c in P.columns], P.shifts, ring)
