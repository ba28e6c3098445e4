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

Every basis, syzygy and lift here comes from one Buchberger pair loop,
``_buchberger``. Generators and S-pairs wait in one queue by degree, so
a generator is reduced against the basis of everything below its degree
before it joins, and one whose normal form is zero is not added; with a
heft degree on homogeneous input the generators kept are a minimal
generating set. ``vec_groebner`` runs the loop without a transcript and
autoreduces the result. ``vec_syzygies``, ``vec_minimal_syzygies``,
``vec_lift`` and ``vec_syzygies_and_lifts`` run it with a transcript,
which keeps, for every basis element, its expression in the generators
and, for every S-pair or generator that reduces to zero, that reduction
as a syzygy.

Two criteria skip pairs. The chain criterion, in the strict form of
Gebauer and Moeller, applies to every run, with or without a transcript:
a pair (i, j) leaves the queue unreduced when another basis element k of
its component has lead(k) | lcm(i, j) and lcm(i, k) and lcm(j, k) both
proper divisors of lcm(i, j). With m the lcms and suitable scalars,
S_ij = (m_ij/m_ik) S_ik + (m_ij/m_kj) S_kj, and the pair syzygies
satisfy tau_ij = (m_ij/m_ik) tau_ik + (m_ij/m_kj) tau_kj plus a syzygy
whose terms all lie below m_ij. Both pairs on the right have a smaller
lcm, so by induction on the lcm in the term order (a well-order in which
a proper divisor comes first) every skipped pair has a standard
representation and its syzygy lies in the span of the syzygies kept:
the basis is a Groebner basis and the transcript still generates
(Schreyer's theorem, Eisenbud Thm 15.10). Strictness rules out two pairs
of one lcm each skipped on account of the other. The coprime-lead-term
criterion skips pairs only in a run without a transcript on an ideal
(every generator term in component 0): it is false for submodules, and
a transcript would lose the Koszul syzygies of the pairs it skips.

Division is deterministic (first listed divisor wins), the queue takes
the least degree first (the total degree of a pair's lcm or of a
generator's lead term, unless the caller passes another degree), pairs
before generators at equal degree, then pairs and generators each in
the order they were queued, and reduced bases are sorted by lead term,
so every function here returns the same answer on the same input,
independent of dict iteration order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import le
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


def _total_degree(mt: ModTerm) -> int:
    """The default degree of a module term: the total degree of x^e."""
    return sum(mt[1])


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


def _in_gens(sigma: VecPoly, exprs: Sequence[VecPoly]) -> VecPoly:
    """sum c * x^e * exprs[k] over the terms c * x^e e_k of sigma: a
    combination of basis elements rewritten in the generators."""
    w: VecPoly = {}
    for (k, e), c in sigma.items():
        scalar_mul_vec({e: c}, exprs[k], w)
    return w


def _quotients(qs: Sequence[ScalarPoly]) -> VecPoly:
    """Division quotients q_k as the vecdict sum q_k e_k."""
    return {(k, e): c for k, q in enumerate(qs) for e, c in q.items()}


@dataclass
class _Run:
    """What one ``_buchberger`` run found (see there), and the work it
    did: pairs queued, skipped by each criterion and reduced to zero,
    generators kept and dropped."""

    basis: list[VecPoly]
    leads: list[ModTerm]
    kept: list[int]
    exprs: list[VecPoly]
    relations: list[VecPoly]
    dropped: list[VecPoly]
    pairs_queued: int = 0
    pairs_coprime: int = 0
    pairs_chain: int = 0
    pairs_zero: int = 0
    gens_kept: int = 0
    gens_dropped: int = 0


def _chain_skips(L: Exps, li: Exps, lj: Exps, leads: Iterable[Exps]) -> bool:
    """The chain criterion for the pair with leads x^li, x^lj and lcm x^L:
    is there a lead x^l among ``leads`` (the basis leads of the pair's
    component, li and lj among them) with x^l | x^L such that lcm(li, l)
    and lcm(lj, l) both differ from L, so both properly divide it?"""
    for l in leads:
        # li and lj themselves fail the test; skip them without computing it
        if l is not li and l is not lj and all(map(le, l, L)):
            if tuple(map(max, li, l)) != L and tuple(map(max, lj, l)) != L:
                return True
    return False


def _buchberger(
    gens: Iterable[VecPoly],
    mkey: ModKey,
    *,
    transcript: bool,
    degree: Callable[[ModTerm], int] = _total_degree,
) -> _Run:
    """The one pair loop: a Groebner basis H of the submodule generated by
    ``gens``, built degree by degree, with its lead terms.

    Generators and S-pairs share one queue. A generator waits at the
    degree of its lead term, a pair at the degree of its lcm term, and
    at equal degree pairs come first, then by input order. A generator
    whose normal form against H so far is zero is dropped; otherwise
    that normal form joins H and the generator's index joins ``kept``
    (reported in input order). When every generator is homogeneous for
    ``degree`` (a heft degree), H is a Groebner basis up to degree delta
    by the time a generator of degree delta is tested, so a generator is
    dropped exactly when it lies in the submodule of the kept generators
    before it, and the kept ones generate minimally.

    With a transcript, exprs[k] writes H[k] in the gens (a vecdict over
    the generator index space; e_g - sum q_k exprs[k] for a kept
    generator g), relations holds every S-pair that reduced to zero as a
    syzygy of H (over the H index space), and dropped holds every
    dropped generator's reduction e_g - sum q_k exprs[k] as a syzygy of
    the gens. A pair that adds an element, like a kept generator, gives
    a syzygy that is zero once written in the gens, so these hold every
    syzygy Schreyer's theorem needs but those of skipped pairs, which the
    others generate.

    A popped pair (i, j) is skipped by the chain criterion when some
    basis element k of its component, present when the pair is popped,
    has lead(k) | lcm(i, j) with lcm(i, k) and lcm(j, k) both proper
    divisors of lcm(i, j); the module docstring proves this safe in any
    pop order. ``degree`` is the total degree or a positive heft degree,
    so a proper divisor has a smaller degree. On homogeneous input the
    queue hands out pairs in order of degree, so (i, k) and (j, k) have
    left it before (i, j), H is still a Groebner basis up to each degree
    when that degree's generators are tested, and the criterion changes
    none of the generators kept. Without a transcript the
    coprime-lead-term criterion also skips pairs on an ideal (every
    generator term in component 0). ``run`` counts the pairs queued,
    skipped by each criterion and reduced to zero, and the generators
    kept and dropped.
    """
    gens = list(gens)
    run = _Run([], [], [], [], [], [])
    basis, leads, exprs = run.basis, run.leads, run.exprs
    coprime = not transcript and all(pos == 0 for g in gens for pos, _ in g)
    zero = next(((0,) * len(e) for g in gens for _, e in g), ())
    # lead exponents of the basis, by component
    comp_leads: dict[int, list[Exps]] = {}
    # (degree, 0, i, j) is the pair (i, j); (degree, 1, idx, 0) the generator idx
    heap: list[tuple[int, int, int, int]] = [
        (degree(vec_lead(g, mkey)), 1, idx, 0) for idx, g in enumerate(gens) if g
    ]
    heapq.heapify(heap)
    while heap:
        _, is_gen, i, j = heapq.heappop(heap)
        if is_gen:
            s = gens[i]
        else:
            li, lj = leads[i], leads[j]
            if coprime and exps_coprime(li[1], lj[1]):
                run.pairs_coprime += 1
                continue
            if _chain_skips(exps_lcm(li[1], lj[1]), li[1], lj[1], comp_leads[li[0]]):
                run.pairs_chain += 1
                continue
            si, ci, sj, cj = _spair_parts(basis[i], li, basis[j], lj)
            s = {}
            vec_sub_scaled(s, -ci, si, basis[i])
            vec_sub_scaled(s, cj, sj, basis[j])
        qs, r = vec_divide(s, basis, mkey, leads)
        if transcript:
            if is_gen:
                # g - sum_k q_k H_k = r, written in the gens
                w = {(i, zero): 1}
                vec_sub_scaled(w, 1, zero, _in_gens(_quotients(qs), exprs))
                (exprs if r else run.dropped).append(w)
            else:
                # sum_k sigma_k H_k = S - sum_k q_k H_k = r
                sigma = vec_scale(_quotients(qs), -1)
                vec_sub_scaled(sigma, -ci, si, {(i, zero): 1})
                vec_sub_scaled(sigma, cj, sj, {(j, zero): 1})
                if r:
                    exprs.append(_in_gens(sigma, exprs))
                else:
                    run.relations.append(sigma)
        if not r:
            if is_gen:
                run.gens_dropped += 1
            else:
                run.pairs_zero += 1
            continue
        if is_gen:
            run.kept.append(i)
            run.gens_kept += 1
        lead = vec_lead(r, mkey)
        basis.append(r)
        leads.append(lead)
        comp_leads.setdefault(lead[0], []).append(lead[1])
        k = len(basis) - 1
        for m in range(k):
            if leads[m][0] == lead[0]:
                lcm = (lead[0], exps_lcm(leads[m][1], lead[1]))
                heapq.heappush(heap, (degree(lcm), 0, m, k))
                run.pairs_queued += 1
    run.kept.sort()
    return run


def vec_groebner(gens: Iterable[VecPoly], mkey: ModKey) -> list[VecPoly]:
    """Reduced Groebner basis (minimal, monic, tail-reduced, sorted by
    lead term) of the submodule generated by ``gens``: ``_buchberger``
    without a transcript, then ``vec_autoreduce``."""
    return vec_autoreduce(_buchberger(gens, mkey, transcript=False).basis, mkey)


def vec_initial_module(gens: list[VecPoly], t: int, order: MonomialOrder) -> list[list[Exps]]:
    """Lead exponents of the reduced Groebner basis of <gens> in R^t, one list
    per component: generators of the initial module's monomial ideals."""
    mkey = top_key(order)
    out: list[list[Exps]] = [[] for _ in range(t)]
    for g in vec_groebner(gens, mkey):
        pos, exps = vec_lead(g, mkey)
        out[pos].append(exps)
    return out


# --- syzygies and lifting ---


def _pair_syzygies(run: _Run) -> list[VecPoly]:
    """The nonzero syzygies of the S-pairs that reduced to zero, written
    in the generators."""
    return [w for sigma in run.relations if (w := _in_gens(sigma, run.exprs))]


def _syzygies_of(gens: Sequence[VecPoly], run: _Run, nvars: int) -> list[VecPoly]:
    """Generators of the syzygies of ``gens`` from their transcripted run:
    units for zero generators, then the pair syzygies, then the
    reductions of the dropped generators."""
    units = [{(idx, (0,) * nvars): 1} for idx, g in enumerate(gens) if not g]
    return units + _pair_syzygies(run) + run.dropped


def _lifts_of(targets: Sequence[VecPoly], run: _Run, mkey: ModKey) -> list[VecPoly]:
    """Each target divided by the run's basis and written in its gens."""
    out: list[VecPoly] = []
    for t in targets:
        qs, r = vec_divide(t, run.basis, mkey, run.leads)
        if r:
            raise ValueError("element does not lie in the submodule")
        out.append(_in_gens(_quotients(qs), run.exprs))
    return out


def vec_syzygies(gens: Sequence[VecPoly], mkey: ModKey, nvars: int) -> list[VecPoly]:
    """Generators of {(q_1..q_s) : sum q_i gens_i = 0} as vecdicts over
    the generator index space.

    Built from a transcripted Buchberger run: every S-pair that reduced
    to zero contributes its syzygy among the basis elements (rewritten
    in the generators), and every generator that reduced to zero against
    the basis before it contributes its reduction. Zero generators
    contribute unit syzygies.
    """
    return _syzygies_of(gens, _buchberger(gens, mkey, transcript=True), nvars)


def vec_minimal_syzygies(
    gens: Sequence[VecPoly], mkey: ModKey, degree: Callable[[ModTerm], int]
) -> tuple[list[int], list[VecPoly]]:
    """A minimal generating subset of homogeneous ``gens`` and the
    syzygies among it, from one transcripted run that takes the gens in
    order of ``degree``, a heft degree they are homogeneous for.

    Returns the indices of the kept generators, in input order, and
    generators of the syzygy module of the kept generators alone, as
    vecdicts over 0..s-1 for s kept generators.
    """
    run = _buchberger(gens, mkey, transcript=True, degree=degree)
    index = {g: k for k, g in enumerate(run.kept)}
    syz = [{(index[g], e): c for (g, e), c in w.items()} for w in _pair_syzygies(run)]
    return run.kept, syz


def vec_lift(
    targets: Sequence[VecPoly], gens: Sequence[VecPoly], mkey: ModKey
) -> list[VecPoly]:
    """Write each target as a combination of gens.

    Returns one vecdict over the generator index space per target. Raises
    ValueError if a target is not in the submodule generated by gens.
    """
    return _lifts_of(targets, _buchberger(gens, mkey, transcript=True), mkey)


def vec_syzygies_and_lifts(
    gens: Sequence[VecPoly], targets: Sequence[VecPoly], mkey: ModKey, nvars: int
) -> tuple[list[VecPoly], list[VecPoly]]:
    """``vec_syzygies(gens, mkey, nvars)`` and ``vec_lift(targets, gens,
    mkey)`` from one transcripted run of ``gens``."""
    run = _buchberger(gens, mkey, transcript=True)
    return _syzygies_of(gens, run, nvars), _lifts_of(targets, run, mkey)


# --- public polynomial-level API ---


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with the order that defines it."""

    generators: tuple[Polynomial, ...]
    order: MonomialOrder

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
    gb = vec_groebner([poly_to_vec(g) for g in nz], top_key(order))
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
    vectors = [(g,) for g in gens] if isinstance(gens[0], Polynomial) else gens
    nvars = vectors[0][0].nvars
    syz = vec_syzygies([vector_to_vec(v) for v in vectors], top_key(order), nvars)
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
    vectors = [(g,) for g in gens] if isinstance(gens[0], Polynomial) else gens
    vecs = [vector_to_vec(v) for v in vectors if any(f for f in v)]
    return dict(enumerate(vec_initial_module(vecs, len(vectors[0]), order)))


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
    gb = vec_groebner(big, top_key(Elimination(1)))
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
