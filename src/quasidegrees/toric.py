"""Toric ideals of integer matrices and their normalized volumes.

For a d x n integer matrix A whose columns span Z^d, the toric ideal is

    I_A = < x^u - x^v : u, v >= 0, A u = A v >,

prime and homogeneous for the grading by A. It is computed from an
LLL-reduced basis of the saturated kernel lattice of A: the binomials of
a lattice basis generate an ideal J with I_A = (J : (x_1 ... x_n)^inf),
and that saturation is taken one variable at a time by the Bayer–Stillman
criterion (Sturmfels, *Gröbner Bases and Convex Polytopes*, 1996,
Ch. 12), but only by the variables the lattice basis forces (below).
When every vector u of the basis has entries summing to 0, every
binomial involved is homogeneous in total degree. In an order that
compares total degrees first and then reverse-lexicographically with x_j
last, x_j divides the lead term of a homogeneous polynomial only if it
divides every term, so dividing each element of such a basis of J by its
largest power of x_j gives a basis of (J : x_j^inf). Nothing is
eliminated; the last basis is converted to the ring's order.

Otherwise the lattice is lifted to the vectors (u, -Σu) in one more
variable t, the kernel of [[A, 0], [1 ... 1, 1]], whose binomials are
homogeneous in total degree. With J' the ideal of the lifted basis,
J' : (x_σ)^inf is computed as above and then t is set to 1. That ring
map sends J' onto J, generator to generator, and commutes with
saturating by a monomial m of Q[x]: if m^k h lies in J, then t^a m^k H
lies in J' for some a, H the homogenization of h (Cox–Little–O'Shea,
Ch. 8 §4), so H lies in J' : (m t)^inf = (J' : m^inf) : t^inf; and a
homogeneous ideal and its saturation by t have the same image. So the
image of J' : (x_σ)^inf is J : (x_σ)^inf = I_A, with the σ of the
lattice itself (below): t is never saturated. No two terms of a basis
element collide on the way, since the element is homogeneous and x^a t^k
and x^a t^m of one degree have k = m. The ring's grading is never read,
and A needs no heft.

Most saturations change nothing, and only the variables in σ are used
(compare Hemmecke–Malkin, JSC 2009). For a set S of variables, a lattice
binomial x^(u+) - x^(u-) *meets S on one side* when exactly one of its
two monomials has a variable in S. Call a nonempty S *bad* when no basis
binomial meets it on one side, and let T be the variables left out of σ.
If no subset of T is bad, then

    J : (x_σ)^inf = J : (x_1 ... x_n)^inf = I_A.

Proof: an associated prime P of J : (x_σ)^inf is an associated prime of
J that contains no x_i with i in σ, so the set S of variables in P lies
in T. If S were nonempty, some basis binomial would meet it on one
side: one of its monomials lies in P and the other, a product of
variables outside P, does not, yet their difference lies in J ⊆ P. So
no associated prime contains a variable, every variable is a nonzero
divisor modulo J : (x_σ)^inf, and saturating by the others changes
nothing. No heft is used.

Bad sets are closed under union, so T has one largest bad subset: start
from S = T and, while a binomial meets S on one side, remove its support
from S (a bad subset of S avoids that binomial's variables in S). T is
built greedily from x_n down and from x_1 up, keeping x_j when T ∪ {j}
has no bad subset; σ is the rest of the larger T, x_n first on a tie
(``saturating_variables``). x_n first saturates the rational normal
quartic and quintic once, x_1 first twice; on 3×9 it is 3 against 2.

The normalized volume of A (d! times the Euclidean volume of the convex
hull of the columns and the origin, for pointed cases) equals the degree
of R/I_A, which is read off as the number of top-dimensional standard
pairs of the grevlex initial ideal of I_A (Ch. 8). When the all-ones
vector lies in the row space of A, I_A is homogeneous in the standard
grading and every term order gives the same count.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .groebner import ModKey, VecPoly, buchberger, top_key, vec_groebner, vec_to_poly
from .linalg import InputError, IntMatrix, as_int_matrix, integer_kernel, lll_reduce
from .poly import GREVLEX, GradedRing, MonomialOrder, Polynomial, graded_ring
from .stdpairs import degree_via_pairs
from .words import Words


def to_a_graded_ring(
    A: IntMatrix | Iterable[Iterable[int]],
    names: Sequence[str] | None = None,
    order: MonomialOrder = GREVLEX,
) -> GradedRing:
    """The polynomial ring with one variable per column of A, graded by A.

    Validates positivity (a heft vector is found or an error raised) and
    that the columns generate Z^d.
    """
    A = as_int_matrix(A)
    if names is None:
        names = tuple(f"x{j + 1}" for j in range(A.ncols))
    return graded_ring(names, A, order=order)


def _binomials(lattice: Sequence[Sequence[int]], nvars: int) -> list[VecPoly]:
    """x^(u+) - x^(u-) for each vector u of ``lattice``, packed in the one
    layout their exponents fit."""
    words = Words.fit(nvars, max((abs(x) for u in lattice for x in u), default=0))
    plus = [words.term(0, [max(x, 0) for x in u]) for u in lattice]
    minus = [words.term(0, [max(-x, 0) for x in u]) for u in lattice]
    return [VecPoly(words, {p: 1, m: -1}) for p, m in zip(plus, minus)]


def _largest_bad_set(sides: list[tuple[int, int]], skipped: int) -> int:
    """The largest bad subset of ``skipped`` (a bit mask), empty when it is
    safe to skip; ``sides`` holds each binomial's (u+, u-) support masks."""
    bad = skipped
    changed = True
    while bad and changed:
        changed = False
        for plus, minus in sides:
            if bool(plus & bad) != bool(minus & bad):
                bad &= ~(plus | minus)
                changed = True
    return bad


def saturating_variables(lattice: Sequence[Sequence[int]], nvars: int) -> list[int]:
    """The variables σ by which the binomials of a lattice basis must be
    saturated to give the lattice ideal (see the module docstring)."""
    sides = [
        (
            sum(1 << i for i, x in enumerate(u) if x > 0),
            sum(1 << i for i, x in enumerate(u) if x < 0),
        )
        for u in lattice
    ]

    def greedy(order: Iterable[int]) -> int:
        skipped = 0
        for j in order:
            if not _largest_bad_set(sides, skipped | 1 << j):
                skipped |= 1 << j
        return skipped

    # the larger of the two safe sets, x_n first on a tie
    skipped = max(greedy(reversed(range(nvars))), greedy(range(nvars)), key=int.bit_count)
    return [j for j in range(nvars) if not skipped >> j & 1]


def _saturation_key(last: int) -> ModKey:
    """Total degree first, then reverse lex with x_last as the last
    variable: among monomials of equal degree, the smaller power of x_last
    wins. On terms of component 0: the degree field, the complemented
    x_last, the rest complemented."""

    def make(words):
        low, top, bits = words.low, words.top, words.bits
        at = words.shifts[last]
        rest = words.data & ~(low << at)
        return lambda t: ((t >> top) << bits | low - (t >> at & low)) << top | rest & ~t

    return ModKey(make)


def _divide_out(g: VecPoly, j: int) -> VecPoly:
    """g divided by the largest power of x_j that divides it."""
    at, low, top = g.words.shifts[j], g.words.low, g.words.top
    m = min(t >> at & low for t in g)
    if not m:
        return g
    xm = m << top | m << at  # x_j^m, its degree field too
    return VecPoly(g.words, {t - xm: c for t, c in g.items()})


def _dehomogenize(g: VecPoly) -> VecPoly:
    """g with its last variable set to 1, over the variables before it."""
    words = Words(g.words.nvars - 1, g.words.width)
    return VecPoly(words, {words.term(0, words.unpack(t)): c for t, c in g.items()})


def toric_ideal(
    A: IntMatrix | Iterable[Iterable[int]], ring: GradedRing | None = None
) -> list[Polynomial]:
    """Reduced Groebner basis of the toric ideal I_A in the ring's order.

    Saturates in total degree, only by ``saturating_variables``, the
    binomials of the lattice basis when each vector sums to 0 and else
    those of its lift, whose new variable is then set to 1 (see the
    module docstring). Only the ring's variable count and order are read
    (without a ring: A's column count and grevlex), so A needs no heft.
    """
    A = as_int_matrix(A)
    nvars, order = (A.ncols, GREVLEX) if ring is None else (ring.nvars, ring.order)
    if nvars != A.ncols:
        raise InputError("ring must have one variable per column of A")
    lattice = lll_reduce(integer_kernel(A))
    if not lattice:
        return []
    sigma = saturating_variables(lattice, nvars)
    lifted = any(map(sum, lattice))
    if lifted:
        lattice = [[*u, -sum(u)] for u in lattice]
    gens = _binomials(lattice, len(lattice[0]))
    for j in sigma:
        gb = vec_groebner(gens, _saturation_key(j))
        gens = [_divide_out(g, j) for g in gb]
    if lifted:
        gens = [_dehomogenize(g) for g in gens]
    gb = vec_groebner(gens, top_key(order))
    return [vec_to_poly(g, nvars) for g in gb]


def toric_volume(
    A: IntMatrix | Iterable[Iterable[int]],
    basis: Sequence[Polynomial],
    order: MonomialOrder,
) -> int:
    """Normalized volume of A from a reduced Groebner basis of I_A in ``order``.

    The volume is the count of top-dimensional standard pairs of the
    grevlex initial ideal, so a basis in another order is converted to
    grevlex first: when I_A is not homogeneous in the standard grading the
    count depends on the order (for A = [[1,1,0],[1,0,1]] lex gives 1 and
    grevlex 2).
    """
    A = as_int_matrix(A)
    if order != GREVLEX:
        basis, order = buchberger(basis, GREVLEX).generators, GREVLEX
    lead = [max(g.terms, key=order.key) for g in basis]
    return degree_via_pairs(lead, A.ncols)


def normalized_volume(A: IntMatrix | Iterable[Iterable[int]]) -> int:
    """Degree of R/I_A: the number of top-dimensional standard pairs of the
    grevlex initial ideal of I_A, for A with a heft whose columns span Z^d."""
    A = as_int_matrix(A)
    return toric_volume(A, toric_ideal(A, to_a_graded_ring(A)), GREVLEX)
