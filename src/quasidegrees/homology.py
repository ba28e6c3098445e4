"""Free resolutions, Ext presentations, and graded local duality.

The target computation: for a module M over a ring positively graded by
Z^d with full column lattice, the quasidegree sets of the local
cohomology modules H^i_m(M) supported at the graded maximal ideal. By
graded local duality,

    H^i_m(M)_beta  is dual to  Ext^(n-i)(M, R)_(-beta - eps),

where eps is the sum of the variable degrees, so the quasidegree set of
H^i_m(M) is obtained from that of Ext^(n-i)(M, R) by mapping each plane
base to -base - eps (spans are preserved: negating a linear span changes
nothing).

Ext is computed from a minimal graded free resolution: repeated Schreyer
syzygy computations, each level ordered by the lead terms of the previous
level's generators. One Buchberger run per level takes the level's
columns in heft-degree order and gives both a minimal generating subset
of them (a column is dropped when it reduces to zero against the basis
of everything of lower degree and the kept columns before it) and the
syzygies among that subset; the chain criterion keeps pairs whose
syzygies the others generate out of the next level's candidates. F_0 is
the presentation's free module as given, so when the presentation has
no unit entry the ranks are the graded Betti numbers; the length is at
most nvars. A presentation builds that resolution once, on first use,
and every Ext of it, hence every local cohomology module that ``qlc``
and ``qlc_total`` ask for, reads the same one. ``qlc`` passes each Ext's
vecdict relations from ``_ext`` to ``qdeg.initial_quasidegrees``;
``ext_presentation`` is the edge that makes them Polynomial columns.

Each shift is read off one term: a homogeneous vector has the degree
deg x^e + shifts[k] of any of its terms x^e e_k. ``GradedPresentation``
is the one check of a presentation (integral shifts of the grading
rank, columns of one entry per shift over the ring, and homogeneity;
each failure an ``InputError``); every later column, and every kernel
element that generates an Ext, is a syzygy of homogeneous columns and
so homogeneous (Schreyer; Eisenbud, *Commutative Algebra*, Thm 15.10).

Two Groebner runs are skipped because their answer is known. A level
with one column keeps it and has no syzygies: the column is nonzero and
R is a domain, so f * v = 0 forces f = 0. And at j = L the next
differential is zero, so the kernel K that generates Ext^L is all of
F_L^T, the identity: K has no syzygies, and each column of phi_L^T is
its own lift through K.
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from operator import add, mul
from typing import Sequence

from .groebner import (
    Heft,
    ModKey,
    Vector,
    schreyer_key,
    top_key,
    vec_minimal_syzygies,
    vec_syzygies,
    vec_syzygies_and_lifts,
    vec_to_vector,
    vector_to_vec,
)
from .linalg import Frozen, InputError, _int_tuple
from .planes import AffinePlane, QuasidegreeSet, remove_redundancy
from .poly import GradedRing, Polynomial
from .qdeg import initial_quasidegrees
from .words import VecPoly, common_layout, vec_repack

Shifts = tuple[tuple[int, ...], ...]


class InhomogeneousError(InputError):
    def __init__(self) -> None:
        super().__init__("inhomogeneous generator")


class GradedPresentation(Frozen):
    """coker of a graded map into R^t(-shifts), given by its columns.

    The shifts must be integers, one entry per grading row, and every
    term x^e e_k of a column must have the one degree deg x^e + shifts[k];
    a zero column has every degree.
    """

    _fields = ("ring", "shifts", "columns")

    def __init__(
        self, ring: GradedRing, shifts: Sequence[Sequence[int]], columns: Sequence[Vector]
    ) -> None:
        shifts = tuple(_int_tuple(s, "degree shifts") for s in shifts)
        if any(len(s) != ring.grading_rank for s in shifts):
            raise InputError("shift has the wrong grading rank")
        cols = tuple(tuple(c) for c in columns)
        for col in cols:
            if len(col) != len(shifts):
                raise InputError("column length does not match the number of shifts")
            degrees = set()
            for f, shift in zip(col, shifts):
                if f.nvars != ring.nvars:
                    raise InputError("polynomial does not live in this ring")
                degrees.update(tuple(map(add, ring.multidegree(e), shift)) for e in f.terms)
                if len(degrees) > 1:
                    raise InhomogeneousError()
        self.__dict__.update(ring=ring, shifts=shifts, columns=cols)

    @classmethod
    def cyclic(cls, ring: GradedRing, gens: Sequence[Polynomial]) -> "GradedPresentation":
        """R/<gens> as a presentation of the rank-one free module."""
        zero = (0,) * ring.grading_rank
        return cls(ring, (zero,), tuple((g,) for g in gens if not g.is_zero()))

    @cached_property
    def _resolution(self) -> "FreeResolution":
        """The full minimal resolution, built on first use and shared by
        every Ext (and so every local cohomology) of this module."""
        return free_resolution(self)


class FreeResolution(Frozen):
    """F_0 <- F_1 <- ... <- F_L with graded free modules.

    ``shifts[i]`` lists the generator degrees of F_i. ``columns[i]`` holds
    the columns of the map F_(i+1) -> F_i as vecdicts over F_i, the form
    the resolution and Ext code work in; ``differentials[i]`` holds the
    same columns as tuples of Polynomials, converted on first use.
    """

    _fields = ("ring", "shifts", "columns")

    def __init__(
        self, ring: GradedRing, shifts: tuple[Shifts, ...], columns: tuple[tuple[VecPoly, ...], ...]
    ) -> None:
        self.__dict__.update(ring=ring, shifts=shifts, columns=columns)

    @cached_property
    def differentials(self) -> tuple[tuple[Vector, ...], ...]:
        n = self.ring.nvars
        return tuple(
            tuple(vec_to_vector(w, self.rank(i), n) for w in cols)
            for i, cols in enumerate(self.columns)
        )

    @property
    def length(self) -> int:
        return len(self.columns)

    def rank(self, i: int) -> int:
        return len(self.shifts[i])


def _vec_degree(w: VecPoly, shifts: Shifts, ring: GradedRing) -> tuple:
    """The degree of a nonzero homogeneous w, read off one term x^e e_k
    as deg x^e + shifts[k]."""
    words = w.words
    t = next(iter(w))
    return tuple(map(add, ring.multidegree(words.unpack(t & words.mask)), shifts[t >> words.ctop]))


def _heft_degree(ring: GradedRing, shifts: Shifts) -> Heft:
    """The heft degree heft . (deg x^e + shifts[pos]) of a term x^e e_pos
    of the free module whose generators have degrees ``shifts``, as the
    heft of each variable and of each generator."""
    return ring.weights, [sum(map(mul, ring.heft, s)) for s in shifts]


def free_resolution(P: GradedPresentation) -> FreeResolution:
    """Minimal graded free resolution of coker(P).

    One transcripted Buchberger run per level (``vec_minimal_syzygies``)
    takes that level's columns in heft-degree order, starting with the
    presentation's own columns, and gives both a minimal generating
    subset of them (the columns themselves, in input order) and the
    syzygies among that subset, which become the next level's columns.
    F_0 is the presentation's free module as given. Every differential
    after the first therefore has no unit entry, and when the first has
    none either the ranks are the graded Betti numbers of coker(P). The
    syzygies are Schreyer's, less those of the pairs the chain criterion
    skips, which the others generate; so the resolution ends, after at
    most nvars differentials, when a syzygy module vanishes. The
    criterion leaves the ranks alone and shortens the candidate lists:
    on the 3x9 toric ring of the scale tests in tests/test_homology.py
    the levels are offered 879 columns in all instead of 1619, and keep
    the same 455.

    The shifts of F_(i+1) are the degrees of the kept columns, each read
    off one term (see the module docstring).
    """
    ring = P.ring
    shift_levels: list[Shifts] = [P.shifts]
    diffs: list[tuple[VecPoly, ...]] = []
    key: ModKey = top_key(ring.order)
    cols = [vector_to_vec(c) for c in P.columns if any(f for f in c)]
    while cols:
        shifts = shift_levels[-1]
        if len(cols) == 1:
            keep, syz = [0], []  # see the module docstring
        else:
            keep, syz = vec_minimal_syzygies(cols, key, _heft_degree(ring, shifts))
        cols = [cols[k] for k in keep]
        diffs.append(tuple(cols))
        shift_levels.append(tuple(_vec_degree(w, shifts, ring) for w in cols))
        key = schreyer_key(key, cols)
        cols = syz
    return FreeResolution(ring, tuple(shift_levels), tuple(diffs))


def _transpose(columns: Sequence[VecPoly], t: int) -> list[VecPoly]:
    """Columns of the transposed matrix.

    ``columns`` are the s columns of a map R^s -> R^t; the transpose maps
    R^t -> R^s and its t columns are returned (the k-th collects entry k
    of every original column).
    """
    words = common_layout(columns)
    out, ctop = [VecPoly(words) for _ in range(t)], words.ctop
    for m, col in enumerate(columns):
        for term, c in vec_repack(col, words).items():
            out[term >> ctop][m << ctop | term & words.body] = c
    return out


def _ext(P: GradedPresentation, j: int) -> tuple[Shifts, list[VecPoly]]:
    """Generator degrees and nonzero vecdict relations of Ext^j(coker P, R),
    0 <= j <= nvars (else InputError).

    The resolution F_* of coker P is dualized; Ext^j is
    ker(phi_(j+1)^T) / im(phi_j^T) inside F_j^T, whose generator degrees
    are the negated shifts of F_j. Generators: kernel elements K of the
    transposed differential; relations: syzygies of K, then the columns of
    phi_j^T lifted through K, both from one transcripted Groebner run of
    K; at j = L, K is the identity and the relations are the nonzero
    columns of phi_L^T. The resolution is the one P shares across all j.
    A generator's shift is read off one term of its kernel element.
    """
    ring = P.ring
    n = ring.nvars
    if not 0 <= j <= n:
        # j = n - i for qlc's i, so the range is the same for both
        raise InputError(f"cohomological index must lie in [0, {n}], the number of variables")
    res = P._resolution
    L = res.length
    if j > L:
        return (), []
    dual_shifts = tuple(tuple(-x for x in s) for s in res.shifts[j])
    # a zero row of phi_j lifts to zero, which is no relation
    targets = _transpose(res.columns[j - 1], res.rank(j - 1)) if j else []
    if j == L:
        # K is the identity (see the module docstring)
        return dual_shifts, [r for r in targets if r]
    mkey = top_key(ring.order)
    K = vec_syzygies(_transpose(res.columns[j], res.rank(j)), mkey, n)
    if not K:
        return (), []
    gen_shifts = tuple(_vec_degree(w, dual_shifts, ring) for w in K)
    syz, lifts = vec_syzygies_and_lifts(K, targets, mkey, n)
    return gen_shifts, [r for r in syz + lifts if r]


def ext_presentation(P: GradedPresentation, j: int) -> GradedPresentation:
    """Presentation of Ext^j(coker P, R) with the duality grading."""
    shifts, rels = _ext(P, j)
    cols = tuple(vec_to_vector(r, len(shifts), P.ring.nvars) for r in rels)
    return GradedPresentation(P.ring, shifts, cols)


def dual_shift_plane(plane: AffinePlane, eps: Sequence[int]) -> AffinePlane:
    """The graded-duality image of a plane: base -> -base - eps."""
    return AffinePlane._on(plane._span, (-b - e for b, e in zip(plane._base, eps)))


def qlc(P: GradedPresentation, i: int) -> QuasidegreeSet:
    """Quasidegree set of the i-th local cohomology of coker P.

    Computed as the duality image of qdeg(Ext^(n-i)(coker P, R)).
    """
    ring = P.ring
    shifts, rels = _ext(P, ring.nvars - i)
    if not shifts:
        return QuasidegreeSet(())
    q = initial_quasidegrees(rels, shifts, ring)
    eps = ring.degree_sum
    return QuasidegreeSet(tuple(dual_shift_plane(p, eps) for p in q.planes))


def module_dimension(P: GradedPresentation) -> int:
    """Krull dimension of coker P, -1 for the zero module.

    Read from the resolution P already holds, with exact integers and no
    further Groebner work. Let K(t) = sum_i (-1)^i sum_(s in F_i)
    t^(heft . s). The Hilbert series of coker P in the heft grading is
    K(t) / prod_j (1 - t^(heft . deg x_j)), every heft degree is
    positive, so the dimension is the pole order at t = 1, namely
    n - ord_(t=1) K(t). The order is the first r with K^(r)(1) != 0,
    where K^(r)(1) / r! = sum_k c_k * binom(k, r) once K is shifted to
    nonnegative exponents k.
    """
    heft = P.ring.heft
    coeffs: dict[int, int] = {}
    for i, shifts in enumerate(P._resolution.shifts):
        for s in shifts:
            k = sum(h * x for h, x in zip(heft, s))
            coeffs[k] = coeffs.get(k, 0) + (-1) ** i
    coeffs = {k: c for k, c in coeffs.items() if c}
    if not coeffs:
        return -1
    low = min(coeffs)
    r = 0
    while not sum(c * comb(k - low, r) for k, c in coeffs.items()):
        r += 1
    return P.ring.nvars - r


def qlc_total(P: GradedPresentation) -> QuasidegreeSet:
    """Union of qlc(P, i) over 0 <= i < max(dim M, d), redundancy removed,
    where M = coker P and d is the grading rank.

    For M = R/I_A, and for any module with dim M <= d, this is the
    rank-jump locus of Matusevich–Miller–Walther, the local cohomology
    in degrees below d, which for dim M < d includes the top one,
    H^(dim M). For dim M > d it is all local cohomology below the top,
    so R/<xy, xz> in the standard grading keeps its H^1. A module with
    vanishing union (for example a Cohen-Macaulay quotient of dimension
    d) yields the empty set. Since H^i vanishes for i > dim M, those
    degrees are not computed. All the Ext modules involved come from
    the one resolution of P, which also gives dim M.
    """
    dim = module_dimension(P)
    stop = dim if dim >= P.ring.grading_rank else dim + 1
    return remove_redundancy([p for i in range(stop) for p in qlc(P, i).planes])
