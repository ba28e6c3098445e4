"""Groebner bases, syzygies, and saturation for ideals and submodules.

Internal representation ("vecdict"): an element of a free module R^t is a
dict mapping (component, exponent tuple) -> nonzero coefficient.
Coefficients are exact rationals kept as ``int`` while they are integral
and as ``Fraction`` otherwise: ``poly_to_vec`` and ``vector_to_vec``
convert integral Fractions to int, and every division goes through
``exact_div``, which returns an int whenever the quotient is one. Toric
binomials have coefficients +-1, so their bases and syzygies mostly stay
in the integers. Scalar
polynomials embed as vectors with a single component 0. Module term
orders are plain sort-key functions on (component, exponent) pairs, so
position-over-term, term-over-position, and Schreyer-induced orders are
all just different key constructors. Each key function computes the key
of a term once and remembers it (``memoized_key``), so lead-term
searches and Schreyer chains, whose level keys call the level before,
pay for each term once per key function.

The public functions speak Polynomial and tuple-of-Polynomial; the
vecdict layer is exported as well because the resolution code builds on
it directly.

Division is deterministic (first listed divisor wins), pair selection is
the normal strategy (smallest lcm degree first, then input order), and
reduced bases are sorted by lead term, so every function here returns the
same answer on the same input, independent of dict iteration order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .poly import (
    Exps,
    GREVLEX,
    Elimination,
    GrevLex,
    MonomialOrder,
    Polynomial,
    exps_add,
    exps_coprime,
    exps_divides,
    exps_lcm,
    exps_sub,
)

ModTerm = tuple[int, Exps]
# an exact rational: an int while integral, a Fraction otherwise
Coeff = int | Fraction
# an element of R^t: (component, exponents) -> nonzero Coeff
VecPoly = dict[ModTerm, Coeff]
# an element of R: exponents -> nonzero Coeff
ScalarPoly = dict[Exps, Coeff]
ModKey = Callable[[ModTerm], object]

Vector = tuple[Polynomial, ...]


# --- module term orders ---


class _KeyCache(dict):
    """Sort keys of module terms, each computed on its first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute: ModKey) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, mt: ModTerm):
        k = self[mt] = self.compute(mt)
        return k


def memoized_key(compute: ModKey) -> ModKey:
    """The key function ``compute``, remembering the key of every term it
    has seen. A lookup of a known term runs no Python code."""
    return _KeyCache(compute).__getitem__


def top_key(order: MonomialOrder) -> ModKey:
    """Term-over-position key on a free module, lower component wins ties."""
    okey = order.key
    return memoized_key(lambda mt: (okey(mt[1]), -mt[0]))


def schreyer_key(parent_key: ModKey, leads: Sequence[ModTerm]) -> ModKey:
    """Order induced by a list of generators of a submodule of the parent.

    A term m*e_k of the new free module is compared by the parent-module
    position of m*lead(g_k), lower component winning ties. ``leads`` are
    the parent lead terms of the generators g_k.
    """

    def key(mt: ModTerm):
        pos, e = mt
        lp, le = leads[pos]
        return (parent_key((lp, exps_add(e, le))), -pos)

    return memoized_key(key)


# --- coefficients ---


def as_coeff(c: Coeff) -> Coeff:
    """c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def exact_div(a: Coeff, b: Coeff) -> Coeff:
    """a / b exactly, as an int when the quotient is integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return as_coeff(a / b)


# --- vecdict helpers ---


def poly_to_vec(f: Polynomial) -> VecPoly:
    return {(0, e): as_coeff(c) for e, c in f.terms.items()}


def vector_to_vec(v: Sequence[Polynomial]) -> VecPoly:
    return {(i, e): as_coeff(c) for i, f in enumerate(v) for e, c in f.terms.items()}


def vec_to_vector(p: VecPoly, ncomps: int, nvars: int) -> Vector:
    comps: list[ScalarPoly] = [dict() for _ in range(ncomps)]
    for (i, e), c in p.items():
        comps[i][e] = c
    return tuple(Polynomial(nvars, comp) for comp in comps)


def vec_to_poly(p: VecPoly, nvars: int) -> Polynomial:
    return Polynomial(nvars, {e: c for (i, e), c in p.items()})


def vec_lead(p: VecPoly, mkey: ModKey) -> ModTerm:
    return max(p, key=mkey)


def vec_sub_scaled(p: VecPoly, coeff: Coeff, shift: Exps, g: VecPoly) -> None:
    """In place p -= coeff * x^shift * g."""
    for (pos, e), c in g.items():
        key = (pos, exps_add(shift, e))
        v = p.get(key, 0) - coeff * c
        if v:
            p[key] = v
        else:
            p.pop(key, None)


def vec_scale(p: VecPoly, c: Coeff) -> VecPoly:
    return {k: c * v for k, v in p.items()} if c else {}


def scalar_mul_vec(q: ScalarPoly, v: VecPoly, acc: VecPoly) -> None:
    """In place acc += q * v for a scalar polynomial q."""
    for me, mc in q.items():
        for (pos, e), c in v.items():
            key = (pos, exps_add(me, e))
            val = acc.get(key, 0) + mc * c
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)


# --- division ---


def vec_divide(
    f: VecPoly, basis: Sequence[VecPoly], mkey: ModKey, leads: Sequence[ModTerm] | None = None
) -> tuple[list[ScalarPoly], VecPoly]:
    """Full division with remainder: f = sum q_i * basis_i + r.

    No term of r is divisible by any lead term of the basis. At each step
    the first divisor in list order wins, which makes the result (and
    everything built on it) deterministic.
    """
    if leads is None:
        leads = [vec_lead(g, mkey) for g in basis]
    p = dict(f)
    rem: VecPoly = {}
    qs: list[ScalarPoly] = [dict() for _ in basis]
    while p:
        t = max(p, key=mkey)
        c = p[t]
        tpos, texps = t
        for i, g in enumerate(basis):
            lpos, lexps = leads[i]
            if lpos == tpos and exps_divides(lexps, texps):
                shift = exps_sub(texps, lexps)
                coeff = exact_div(c, g[leads[i]])
                qs[i][shift] = qs[i].get(shift, 0) + coeff
                vec_sub_scaled(p, coeff, shift, g)
                break
        else:
            rem[t] = c
            del p[t]
    return qs, rem


def vec_normal_form(f: VecPoly, basis: Sequence[VecPoly], mkey: ModKey) -> VecPoly:
    return vec_divide(f, basis, mkey)[1]


# --- Buchberger ---


def _spair_parts(
    fi: VecPoly, li: ModTerm, fj: VecPoly, lj: ModTerm
) -> tuple[Exps, Coeff, Exps, Coeff]:
    """Multipliers (shift_i, coeff_i, shift_j, coeff_j) of the S-pair.

    S = coeff_i * x^shift_i * f_i - coeff_j * x^shift_j * f_j with both
    products having monic lead term x^lcm e_pos.
    """
    lcm = exps_lcm(li[1], lj[1])
    return (
        exps_sub(lcm, li[1]),
        exact_div(1, fi[li]),
        exps_sub(lcm, lj[1]),
        exact_div(1, fj[lj]),
    )


def _pair_priority(li: ModTerm, lj: ModTerm) -> int:
    return sum(exps_lcm(li[1], lj[1]))


def vec_autoreduce(basis: list[VecPoly], mkey: ModKey) -> list[VecPoly]:
    """Minimal, monic, fully tail-reduced basis, sorted by lead term."""
    order = sorted(range(len(basis)), key=lambda i: mkey(vec_lead(basis[i], mkey)))
    kept: list[VecPoly] = []
    kept_leads: list[ModTerm] = []
    for i in order:
        lead = vec_lead(basis[i], mkey)
        pos, exps = lead
        if any(lp == pos and exps_divides(le, exps) for lp, le in kept_leads):
            continue
        kept.append(basis[i])
        kept_leads.append(lead)
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1 :]
        r = vec_normal_form(kept[i], others, mkey) if others else kept[i]
        lead = vec_lead(r, mkey)
        kept[i] = vec_scale(r, exact_div(1, r[lead]))
    kept.sort(key=lambda g: mkey(vec_lead(g, mkey)))
    return kept


def vec_groebner(
    gens: Iterable[VecPoly],
    mkey: ModKey,
    *,
    scalar: bool = False,
    reduce: bool = True,
) -> list[VecPoly]:
    """Groebner basis of the submodule generated by ``gens``.

    Pair selection: smallest lcm total degree first, ties by insertion
    order. When ``scalar`` is set the coprime-lead-term criterion is
    applied; it is only valid for ideals (single component), not for
    general submodules, so callers must not set it for t > 1.

    Returns the reduced basis (minimal, monic, tail-reduced, sorted) when
    ``reduce`` is true, otherwise the raw accumulated basis.
    """
    basis = [dict(g) for g in gens if g]
    leads = [vec_lead(g, mkey) for g in basis]
    heap: list[tuple[int, int, int]] = []
    for j in range(len(basis)):
        for i in range(j):
            if leads[i][0] == leads[j][0]:
                heapq.heappush(heap, (_pair_priority(leads[i], leads[j]), i, j))
    while heap:
        _, i, j = heapq.heappop(heap)
        li, lj = leads[i], leads[j]
        if scalar and exps_coprime(li[1], lj[1]):
            continue
        si, ci, sj, cj = _spair_parts(basis[i], li, basis[j], lj)
        s: VecPoly = {}
        vec_sub_scaled(s, -ci, si, basis[i])
        vec_sub_scaled(s, cj, sj, basis[j])
        r = vec_divide(s, basis, mkey, leads)[1]
        if r:
            lead = vec_lead(r, mkey)
            basis.append(r)
            leads.append(lead)
            k = len(basis) - 1
            for m in range(k):
                if leads[m][0] == lead[0]:
                    heapq.heappush(heap, (_pair_priority(leads[m], lead), m, k))
    return vec_autoreduce(basis, mkey) if reduce else basis


# --- transcripts, syzygies, lifting ---


@dataclass
class _Transcript:
    """A Groebner basis H of <gens> with bookkeeping.

    exprs[k] writes H[k] as a combination of the original generators: a
    vecdict over the *generator index* space. pair_records holds, for
    every processed S-pair, its syzygy among the H (a vecdict over the
    H index space); complete because no pair is ever skipped.
    """

    basis: list[VecPoly]
    leads: list[ModTerm]
    exprs: list[VecPoly]
    pair_records: list[VecPoly]
    gen_index: list[int]


def _transcript_groebner(
    gens: Sequence[VecPoly], mkey: ModKey, *, record_pairs: bool
) -> _Transcript:
    basis: list[VecPoly] = []
    leads: list[ModTerm] = []
    exprs: list[VecPoly] = []
    gen_index: list[int] = []
    for idx, g in enumerate(gens):
        if not g:
            continue
        basis.append(dict(g))
        leads.append(vec_lead(g, mkey))
        exprs.append({(idx, (0,) * _nvars_of(g)): 1})
        gen_index.append(idx)
    records: list[VecPoly] = []
    heap: list[tuple[int, int, int]] = []
    for j in range(len(basis)):
        for i in range(j):
            if leads[i][0] == leads[j][0]:
                heapq.heappush(heap, (_pair_priority(leads[i], leads[j]), i, j))
    while heap:
        _, i, j = heapq.heappop(heap)
        li, lj = leads[i], leads[j]
        si, ci, sj, cj = _spair_parts(basis[i], li, basis[j], lj)
        s: VecPoly = {}
        vec_sub_scaled(s, -ci, si, basis[i])
        vec_sub_scaled(s, cj, sj, basis[j])
        qs, r = vec_divide(s, basis, mkey, leads)
        sigma: VecPoly = {(i, si): ci}
        v = sigma.get((j, sj), 0) - cj
        if v:
            sigma[(j, sj)] = v
        else:
            sigma.pop((j, sj), None)
        for k, q in enumerate(qs):
            for e, c in q.items():
                key = (k, e)
                val = sigma.get(key, 0) - c
                if val:
                    sigma[key] = val
                else:
                    sigma.pop(key, None)
        if r:
            expr: VecPoly = {}
            scalar_mul_vec({si: ci}, exprs[i], expr)
            scalar_mul_vec({sj: -cj}, exprs[j], expr)
            for k, q in enumerate(qs):
                if q:
                    scalar_mul_vec({e: -c for e, c in q.items()}, exprs[k], expr)
            lead = vec_lead(r, mkey)
            basis.append(r)
            leads.append(lead)
            exprs.append(expr)
            knew = len(basis) - 1
            sigma[(knew, (0,) * len(lead[1]))] = -1
            for m in range(knew):
                if leads[m][0] == lead[0]:
                    heapq.heappush(heap, (_pair_priority(leads[m], lead), m, knew))
        if record_pairs:
            records.append(sigma)
    return _Transcript(basis, leads, exprs, records, gen_index)


def _nvars_of(g: VecPoly) -> int:
    return len(next(iter(g))[1])


def vec_syzygies(gens: Sequence[VecPoly], mkey: ModKey, nvars: int) -> list[VecPoly]:
    """Generators of {(q_1..q_s) : sum q_i gens_i = 0} as vecdicts over
    the generator index space.

    Built from a transcripted Buchberger run: every processed S-pair
    contributes its syzygy among the basis elements (pushed back through
    the transcript), and the columns of I - M N (where M rewrites the
    basis in terms of the generators and N divides the generators by the
    basis) pick up redundancy of the generators themselves. Zero
    generators contribute unit syzygies.
    """
    zero_exps = (0,) * nvars
    out: list[VecPoly] = []
    for idx, g in enumerate(gens):
        if not g:
            out.append({(idx, zero_exps): 1})
    tr = _transcript_groebner(gens, mkey, record_pairs=True)
    for sigma in tr.pair_records:
        w: VecPoly = {}
        for (k, e), c in sigma.items():
            scalar_mul_vec({e: c}, tr.exprs[k], w)
        if w:
            out.append(w)
    for idx, g in enumerate(gens):
        if not g:
            continue
        qs, r = vec_divide(g, tr.basis, mkey, tr.leads)
        if r:
            raise AssertionError("generator failed to reduce against its own basis")
        w = {(idx, zero_exps): 1}
        for k, q in enumerate(qs):
            if q:
                scalar_mul_vec({e: -c for e, c in q.items()}, tr.exprs[k], w)
        if w:
            out.append(w)
    return out


def vec_lift(
    targets: Sequence[VecPoly], gens: Sequence[VecPoly], mkey: ModKey
) -> list[VecPoly]:
    """Write each target as a combination of gens.

    Returns one vecdict over the generator index space per target. Raises
    ValueError if a target is not in the submodule generated by gens.
    """
    tr = _transcript_groebner(gens, mkey, record_pairs=False)
    out: list[VecPoly] = []
    for t in targets:
        qs, r = vec_divide(t, tr.basis, mkey, tr.leads)
        if r:
            raise ValueError("element does not lie in the submodule")
        w: VecPoly = {}
        for k, q in enumerate(qs):
            if q:
                scalar_mul_vec(q, tr.exprs[k], w)
        out.append(w)
    return out


# --- public polynomial-level API ---


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with the order that defines it."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder
    reduced: bool = True

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def divide(
    f: Polynomial, divisors: Sequence[Polynomial], order: MonomialOrder = GREVLEX
) -> tuple[list[Polynomial], Polynomial]:
    """Division with remainder: f = sum q_i d_i + r, no term of r
    divisible by any lead term of the divisors."""
    nvars = f.nvars
    if any(d.is_zero() for d in divisors):
        raise ValueError("zero divisor in division")
    qs, r = vec_divide(poly_to_vec(f), [poly_to_vec(d) for d in divisors], top_key(order))
    return [Polynomial(nvars, q) for q in qs], vec_to_poly(r, nvars)


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    nz = [g for g in gens if not g.is_zero()]
    if not nz:
        return GroebnerBasis((), order)
    nvars = nz[0].nvars
    if any(g.nvars != nvars for g in nz):
        raise ValueError("generators over different rings")
    gb = vec_groebner([poly_to_vec(g) for g in nz], top_key(order), scalar=True)
    return GroebnerBasis(tuple(vec_to_poly(g, nvars) for g in gb), order)


def module_groebner(
    gens: Sequence[Vector], order: MonomialOrder = GREVLEX
) -> list[Vector]:
    """Reduced Groebner basis of a submodule of R^t, term-over-position
    order with lower component winning ties."""
    nz = [v for v in gens if any(f for f in v)]
    if not nz:
        return []
    t = len(nz[0])
    if any(len(v) != t for v in nz):
        raise ValueError("vectors of different lengths")
    nvars = nz[0][0].nvars
    gb = vec_groebner([vector_to_vec(v) for v in nz], top_key(order))
    return [vec_to_vector(g, t, nvars) for g in gb]


def normal_form(
    f: Polynomial, gb: GroebnerBasis | Sequence[Polynomial], order: MonomialOrder | None = None
) -> Polynomial:
    if isinstance(gb, GroebnerBasis):
        order = order or gb.order
        gens: Sequence[Polynomial] = gb.generators
    else:
        gens = gb
        if order is None:
            raise ValueError("an order is required with a raw generator list")
    live = [poly_to_vec(g) for g in gens if not g.is_zero()]
    return vec_to_poly(vec_normal_form(poly_to_vec(f), live, top_key(order)), f.nvars)


def syzygies(
    gens: Sequence[Polynomial] | Sequence[Vector], order: MonomialOrder = GREVLEX
) -> list[Vector]:
    """Generating set of the syzygy module of ``gens``.

    ``gens`` may be polynomials (ideal case) or equal-length tuples of
    polynomials (submodule of a free module). Each returned vector v
    satisfies sum v_i * gens_i = 0.
    """
    if not gens:
        return []
    first = gens[0]
    if isinstance(first, Polynomial):
        nvars = first.nvars
        vecs = [poly_to_vec(g) for g in gens]  # type: ignore[arg-type]
    else:
        nvars = first[0].nvars
        vecs = [vector_to_vec(v) for v in gens]  # type: ignore[arg-type]
    syz = vec_syzygies(vecs, top_key(order), nvars)
    return [vec_to_vector(s, len(gens), nvars) for s in syz]


def initial_module(
    gens: Sequence[Polynomial] | Sequence[Vector], order: MonomialOrder = GREVLEX
) -> dict[int, list[Exps]]:
    """Lead exponents of a Groebner basis, grouped by component.

    For an ideal (polynomial input) the result has a single key 0. The
    grouped exponent lists generate the initial module, which decomposes
    as a direct sum of monomial ideals, one per component.
    """
    if not gens:
        return {}
    first = gens[0]
    if isinstance(first, Polynomial):
        ncomp = 1
        vecs = [poly_to_vec(g) for g in gens if not g.is_zero()]  # type: ignore[union-attr]
    else:
        ncomp = len(first)
        vecs = [vector_to_vec(v) for v in gens if any(f for f in v)]  # type: ignore[arg-type]
    mkey = top_key(order)
    out: dict[int, list[Exps]] = {i: [] for i in range(ncomp)}
    for g in vec_groebner(vecs, mkey, scalar=(ncomp == 1)):
        pos, exps = vec_lead(g, mkey)
        out[pos].append(exps)
    return out


def initial_ideal(gens: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> list[Exps]:
    return initial_module(gens, order).get(0, [])


def saturate(
    gens: Sequence[Polynomial], f: Polynomial, order: MonomialOrder = GREVLEX
) -> list[Polynomial]:
    """Reduced Groebner basis of the saturation (I : f^infinity).

    Computed by adjoining a fresh variable T, forming I + <1 - T f>, and
    eliminating T; the T-free part of that basis generates the
    intersection with the original ring.
    """
    live = [g for g in gens if not g.is_zero()]
    if f.is_zero():
        raise ValueError("cannot saturate by zero")
    if not live:
        return []
    nvars = live[0].nvars

    def _lift(p: Polynomial) -> VecPoly:
        return {(0, (0,) + e): as_coeff(c) for e, c in p.terms.items()}

    big = [_lift(g) for g in live]
    one_minus_tf: VecPoly = {(0, (0,) * (nvars + 1)): 1}
    for e, c in f.terms.items():
        key = (0, (1,) + e)
        one_minus_tf[key] = one_minus_tf.get(key, 0) - as_coeff(c)
    big.append(one_minus_tf)
    gb = vec_groebner(big, top_key(Elimination(1)), scalar=True)
    kept = []
    for g in gb:
        if all(e[0] == 0 for (_, e) in g):
            kept.append(Polynomial(nvars, {e[1:]: c for (_, e), c in g.items()}))
    if isinstance(order, GrevLex):
        # the elimination order restricts to grevlex on the T-free part,
        # so kept is already the reduced grevlex basis
        return kept
    return list(buchberger(kept, order).generators)


def ideal_equal(
    gens1: Sequence[Polynomial], gens2: Sequence[Polynomial], order: MonomialOrder = GREVLEX
) -> bool:
    """Do two generator lists generate the same ideal?"""
    gb1 = buchberger(gens1, order)
    gb2 = buchberger(gens2, order)
    return tuple(gb1.generators) == tuple(gb2.generators)
