"""Groebner bases, syzygies, and saturation for ideals and submodules.

Internal representation ("vecdict"): an element of R^t is a ``VecPoly``,
a dict from packed module terms to nonzero coefficients that holds the
layout of its terms (``words`` module). A term x^e e_pos is one int: the
word of e (w data bits under one guard bit per variable), its total
degree above, pos on top. A product is one addition, divisibility one
guard-bit test, an lcm the field-wise max. Only the converters at the
Polynomial edge pack and unpack, with w one bit more than the largest
exponent of their input needs (at least 7). A product whose field
reaches 2^w sets a guard bit, and the kernel raises ``WordOverflow``
before storing it or asking its key; each entry point then repacks its
inputs twice as wide and starts again (``words.widening``), as it does
to bring vecdicts of mixed layouts to the widest. No order depends on
the layout, so neither does the answer: no exponent or variable count
is too large.

Coefficients are exact rationals, ``int`` while integral and
``Fraction`` otherwise: the converters turn integral Fractions into
ints, and every division goes through ``exact_div``. Toric binomials
have coefficients +-1, so their bases and syzygies mostly stay integral.

Module term orders are ``ModKey`` objects: ``key.on(words)`` sorts the
terms of a layout and remembers each term's key while the ModKey lives
(one call, resolution or Ext), so a lead-term search runs no Python code
per known term. A term-over-position key is the order's key over the
complemented position (for grevlex: the degree over the complemented
word); a Schreyer key the parent key of m * lead(g_pos) over it.

The package's Groebner work runs on vecdicts (``vec_groebner``,
``vec_syzygies``, ``vec_initial_module`` and the rest); the four
converters ``poly_to_vec``, ``vector_to_vec``, ``vec_to_poly`` and
``vec_to_vector`` cross to and from ``Polynomial``. The
polynomial-level surface is small: ``buchberger`` (with its
``GroebnerBasis``), ``saturate`` (public, and the tests' reference for
toric ideals; no command calls it) and ``divide``, ``normal_form`` and
``ideal_equal`` for ideals. There is no polynomial-level module basis,
syzygy or initial-module function: build vecdicts with the converters
and call the kernel.

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

Division is deterministic (the first listed divisor of the term's
component wins), the queue takes the least degree first (the total
degree of a pair's lcm or of a generator's lead term, unless the caller
passes a heft degree), pairs before generators at equal degree, then
pairs and generators each in the order they were queued, and reduced
bases are sorted by lead term, so every function here returns the same
answer on the same input, independent of dict iteration order.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import lshift
from typing import Callable, Iterable, Sequence

from .linalg import Frozen
from .poly import GREVLEX, Elimination, Exps, GrevLex, MonomialOrder, Polynomial
from .words import VecPoly, WordOverflow, Words, lcm, vec_repack, widening

# x^e e_pos as words.term(pos, e)
ModTerm = int
# an exact rational: an int while integral, a Fraction otherwise
Coeff = int | Fraction
Heft = tuple[Sequence[int], Sequence[int]]  # weights of the variables, offsets of the components

Vector = tuple[Polynomial, ...]

# positions are list indices, below 2^63: a key keeps one in its low 64 bits
_POS = 64


# --- module term orders ---


class _Memo(dict):
    """``compute(k)`` for every key k, computed on its first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, k):
        v = self[k] = self.compute(k)
        return v


class ModKey(_Memo):
    """A module term order: ``on(words)`` is its sort key on the terms of
    that layout, computing each term's key once with ``make(words)``."""

    def __init__(self, make: Callable[[Words], Callable[[int], object]]) -> None:
        super().__init__(lambda words: _Memo(make(words)).__getitem__)

    on = _Memo.__getitem__


def top_key(order: MonomialOrder) -> ModKey:
    """Term-over-position key on a free module, lower component wins ties."""

    def make(words: Words):
        ctop, body, data, mask = words.ctop, words.body, words.data, words.mask
        if type(order) is GrevLex:
            # reverse lex is the complemented word read from x_n down
            return lambda t: (((t & body) ^ data) << _POS) - (t >> ctop)
        okey, unpack = order.key, words.unpack
        return lambda t: (okey(unpack(t & mask)), -(t >> ctop))

    return ModKey(make)


def schreyer_key(parent_key: ModKey, gens: Sequence[VecPoly]) -> ModKey:
    """Order induced by a list of generators of a submodule of the parent.

    A term m*e_k of the new free module is compared by the parent-module
    position of m*lead(g_k), lower component winning ties. ``gens`` are
    the generators g_k, vecdicts over the parent.
    """

    def make(words: Words):
        ctop, body, guards = words.ctop, words.body, words.guards
        pkey = parent_key.on(words)
        leads = [max(vec_repack(g, words), key=pkey) for g in gens]

        def key(t: int):
            pos, m = t >> ctop, leads[t >> ctop] + (t & body)
            if m & guards:
                raise WordOverflow
            k = pkey(m)  # an int, or a tuple for an order known only by one
            return (k << _POS) - pos if k.__class__ is int else (k, -pos)

        return key

    return ModKey(make)


def vec_lead(p: VecPoly, mkey: ModKey) -> ModTerm:
    return max(p, key=mkey.on(p.words))


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


def _pack(v: Sequence[Polynomial], nvars: int) -> VecPoly:
    """sum_k v[k] e_k as a vecdict, in the layout its exponents fit."""
    largest = max((max(map(max, f.terms)) for f in v if f.terms and nvars), default=0)
    out = VecPoly(words := Words.fit(nvars, largest))
    ctop, top, shifts = words.ctop, words.top, words.shifts
    for k, f in enumerate(v):
        for e, c in f.terms.items():
            out[k << ctop | sum(e) << top | sum(map(lshift, e, shifts))] = as_coeff(c)
    return out


def poly_to_vec(f: Polynomial) -> VecPoly:
    return _pack((f,), f.nvars)


def vector_to_vec(v: Sequence[Polynomial]) -> VecPoly:
    return _pack(v, v[0].nvars if v else 0)


def vec_to_vector(p: VecPoly, ncomps: int, nvars: int) -> Vector:
    comps: list[dict[Exps, Coeff]] = [dict() for _ in range(ncomps)]
    if p:
        ctop, mask, unpack = p.words.ctop, p.words.mask, p.words.unpack
        for t, c in p.items():
            comps[t >> ctop][unpack(t & mask)] = Fraction(c)
    return tuple(Polynomial._unchecked(nvars, comp) for comp in comps)


def vec_to_poly(p: VecPoly, nvars: int) -> Polynomial:
    mask, unpack = (p.words.mask, p.words.unpack) if p else (0, None)
    return Polynomial._unchecked(nvars, {unpack(t & mask): Fraction(c) for t, c in p.items()})


# --- division ---


def _sub_scaled(p: dict, coeff: Coeff, shift: int, g: dict, guards: int) -> None:
    """In place p -= coeff * x^shift * g; WordOverflow when a product
    leaves the layout of the guard bits ``guards``."""
    for t, c in g.items():
        k = t + shift
        if k & guards:
            raise WordOverflow
        v = p.get(k, 0) - coeff * c
        if v:
            p[k] = v
        else:
            del p[k]


def _reduce(
    p: dict, basis: Sequence[dict], divs: dict, key: Callable, words: Words
) -> tuple[dict, dict]:
    """Full division of p (consumed) by the basis whose (lead, index)
    pairs ``divs`` lists by component: returns the quotients as the dict
    sum q_k e_k over the basis index space and the remainder. The first
    divisor of the term's component wins."""
    ctop, guards = words.ctop, words.guards
    q: dict = {}
    rem: dict = {}
    while p:
        t = max(p, key=key)
        c = p[t]
        tg = t | guards
        for l, i in divs.get(t >> ctop, ()):
            if (tg - l) & guards == guards:
                shift = t - l
                g = basis[i]
                b = g[l]
                # exact_div(c, b), inlined for an integral quotient
                integral = c.__class__ is int is b.__class__ and not c % b
                coeff = c // b if integral else exact_div(c, b)
                # each step leaves only terms below t, so no q term repeats
                q[i << ctop | shift] = coeff
                _sub_scaled(p, coeff, shift, g, guards)
                break
        else:
            rem[t] = c
            del p[t]
    return q, rem


def vec_divide(f: VecPoly, basis: Sequence[VecPoly], mkey: ModKey) -> tuple[VecPoly, VecPoly]:
    """Full division with remainder: f = sum q_k * basis_k + r.

    No term of r is divisible by any lead term of the basis. At each step
    the first divisor in list order wins, which makes the result (and
    everything built on it) deterministic. The quotients come back as
    the vecdict sum q_k e_k over the basis index space.
    """

    def run(words, fs, basis):
        key, divs = mkey.on(words), {}
        for i, g in enumerate(basis):
            divs.setdefault((l := max(g, key=key)) >> words.ctop, []).append((l, i))
        q, r = _reduce(dict(fs[0]), basis, divs, key, words)
        return VecPoly(words, q), VecPoly(words, r)

    return widening(run, [f], basis)


# --- Buchberger ---


def _autoreduce(basis: list[dict], key: Callable, words: Words) -> list[dict]:
    """Minimal, monic, fully tail-reduced basis, sorted by lead term. A
    divisor of a tail term lies below the lead, so each element reduces
    against the (reduced) elements before it in lead order alone."""
    ctop, guards = words.ctop, words.guards
    leads = [max(g, key=key) for g in basis]
    kept: list[dict] = []
    divs: dict[int, list[tuple[int, int]]] = {}
    for i in sorted(range(len(basis)), key=lambda i: key(leads[i])):
        lead = leads[i]
        lg = lead | guards
        mates = divs.setdefault(lead >> ctop, [])
        if any((lg - l) & guards == guards for l, _ in mates):
            continue
        r = _reduce(dict(basis[i]), kept, divs, key, words)[1]
        scale = exact_div(1, r[lead])
        mates.append((lead, len(kept)))
        kept.append({t: scale * c for t, c in r.items()})
    return kept


def _in_gens(sigma: dict, exprs: Sequence[dict], words: Words) -> dict:
    """sum c * x^e * exprs[k] over the terms c * x^e e_k of sigma: a
    combination of basis elements rewritten in the generators."""
    ctop, body, guards = words.ctop, words.body, words.guards
    w: dict = {}
    for t, c in sigma.items():
        _sub_scaled(w, -c, t & body, exprs[t >> ctop], guards)
    return w


class _Run:
    """What one ``_buchberger`` run found (see there), in the layout
    ``words``, and the work it did: pairs queued, skipped by each
    criterion and reduced to zero, generators kept and dropped."""

    def __init__(self, words: Words) -> None:
        self.words = words
        self.basis: list[dict] = []
        self.leads: list[int] = []
        self.divs: dict[int, list[tuple[int, int]]] = {}  # (lead, index) by component
        self.kept: list[int] = []
        self.exprs: list[dict] = []
        self.relations: list[dict] = []
        self.dropped: list[dict] = []
        self.pairs_queued = self.pairs_coprime = self.pairs_chain = self.pairs_zero = 0
        self.gens_kept = self.gens_dropped = 0


def _chain_skips(L: int, li: int, lj: int, leads: Iterable[tuple[int, int]], words: Words) -> bool:
    """The chain criterion for the pair with lead words li, lj and lcm L:
    is there a lead l among ``leads`` (the (lead, index) pairs of the
    pair's component, li and lj among them) with l | L such that lcm(li, l)
    and lcm(lj, l) both differ from L, so both properly divide it?"""
    mask, guards, width = words.mask, words.guards, words.width
    Lg = L | guards
    for l, _ in leads:
        # the guard bits of the word part ignore l's degree and position;
        # li and lj themselves fail the test, so skip them without it
        if (Lg - l) & guards == guards and (l := l & mask) != li and l != lj:
            if lcm(li, l, guards, width) != L and lcm(lj, l, guards, width) != L:
                return True
    return False


def _buchberger(
    gens: Sequence[dict],
    key: Callable[[int], object],
    words: Words,
    *,
    transcript: bool,
    heft: Heft | None = None,
) -> _Run:
    """The one pair loop: a Groebner basis H of the submodule generated by
    ``gens`` (packed in ``words``, sorted by ``key``), built degree by
    degree, with its lead terms.

    Generators and S-pairs share one queue. A generator waits at the
    degree of its lead term, a pair at the degree of its lcm term, and
    at equal degree pairs come first, then by input order. A generator
    whose normal form against H so far is zero is dropped; otherwise
    that normal form joins H and the generator's index joins ``kept``
    (reported in input order). When every generator is homogeneous for
    the heft degree, H is a Groebner basis up to degree delta by the
    time a generator of degree delta is tested, so a generator is
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
    pop order. The degree is the total degree or a positive heft degree,
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
    top, ctop, body, mask = words.top, words.ctop, words.body, words.mask
    guards, width = words.guards, words.width
    wdeg = words.degree
    run = _Run(words)
    basis, leads, exprs, divs = run.basis, run.leads, run.exprs, run.divs
    coprime = not transcript and all(t >> ctop == 0 for g in gens for t in g)
    # the queue's degree of x^word e_comp: total, or by a heft (weights, offsets)
    if heft:
        form, offsets = words.form(heft[0]), heft[1]
        degree = lambda comp, word: offsets[comp] + form(word)
    else:
        degree = lambda comp, word: wdeg(word)
    # (degree, 0, i, j) is the pair (i, j); (degree, 1, idx, 0) the generator idx
    heap = [(degree(l >> ctop, l & mask), 1, idx, 0) for idx, g in enumerate(gens) if g
            for l in (max(g, key=key),)]
    heapq.heapify(heap)
    while heap:
        d, is_gen, i, j = heapq.heappop(heap)
        if is_gen:
            s = dict(gens[i])
        else:
            li, lj = leads[i], leads[j]
            wi, wj = li & mask, lj & mask
            L = lcm(wi, wj, guards, width)
            # coprime leads: the lcm is the product
            if coprime and wi + wj == L:
                run.pairs_coprime += 1
                continue
            if _chain_skips(L, wi, wj, divs[li >> ctop], words):
                run.pairs_chain += 1
                continue
            # the lcm with its degree field (the queue's, unless a heft's)
            L |= (wdeg(L) if heft else d) << top
            si, ci = L - (li & body), exact_div(1, basis[i][li])
            sj, cj = L - (lj & body), exact_div(1, basis[j][lj])
            s = {}
            _sub_scaled(s, -ci, si, basis[i], guards)
            _sub_scaled(s, cj, sj, basis[j], guards)
        q, r = _reduce(s, basis, divs, key, words)
        if transcript:
            if is_gen:
                # g - sum_k q_k H_k = r, written in the gens
                w = {i << ctop: 1}
                _sub_scaled(w, 1, 0, _in_gens(q, exprs, words), guards)
                (exprs if r else run.dropped).append(w)
            else:
                # sum_k sigma_k H_k = S - sum_k q_k H_k = r
                sigma = {t: -c for t, c in q.items()}
                _sub_scaled(sigma, -ci, si, {i << ctop: 1}, guards)
                _sub_scaled(sigma, cj, sj, {j << ctop: 1}, guards)
                if r:
                    exprs.append(_in_gens(sigma, exprs, words))
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
        lead = max(r, key=key)
        k = len(basis)
        basis.append(r)
        leads.append(lead)
        mates = divs.setdefault(lead >> ctop, [])
        comp, w = lead >> ctop, lead & mask
        for l, m in mates:
            L = lcm(l & mask, w, guards, width)
            heapq.heappush(heap, (degree(comp, L), 0, m, k))
            run.pairs_queued += 1
        mates.append((lead, k))
    run.kept.sort()
    return run


def vec_groebner(gens: Iterable[VecPoly], mkey: ModKey) -> list[VecPoly]:
    """Reduced Groebner basis (minimal, monic, tail-reduced, sorted by
    lead term) of the submodule generated by ``gens``: ``_buchberger``
    without a transcript, then autoreduction."""

    def run(words, gens):
        key = mkey.on(words)
        basis = _buchberger(gens, key, words, transcript=False).basis
        return [VecPoly(words, g) for g in _autoreduce(basis, key, words)]

    return widening(run, list(gens))


def vec_initial_module(gens: list[VecPoly], t: int, order: MonomialOrder) -> list[list[Exps]]:
    """Lead exponents of the reduced Groebner basis of <gens> in R^t, one list
    per component: generators of the initial module's monomial ideals."""
    mkey = top_key(order)
    out: list[list[Exps]] = [[] for _ in range(t)]
    for g in vec_groebner(gens, mkey):
        lead, words = vec_lead(g, mkey), g.words
        out[lead >> words.ctop].append(words.unpack(lead & words.mask))
    return out


# --- syzygies and lifting ---


def _pair_syzygies(run: _Run) -> list[dict]:
    """The nonzero syzygies of the S-pairs that reduced to zero, written
    in the generators."""
    return [w for sigma in run.relations if (w := _in_gens(sigma, run.exprs, run.words))]


def _syzygies_of(gens: Sequence[dict], run: _Run) -> list[VecPoly]:
    """Generators of the syzygies of ``gens`` from their transcripted run:
    units for zero generators, then the pair syzygies, then the
    reductions of the dropped generators."""
    ctop = run.words.ctop
    units = [{idx << ctop: 1} for idx, g in enumerate(gens) if not g]
    return [VecPoly(run.words, w) for w in units + _pair_syzygies(run) + run.dropped]


def _lifts_of(targets: Sequence[dict], run: _Run, key: Callable) -> list[VecPoly]:
    """Each target divided by the run's basis and written in its gens."""
    words = run.words
    out: list[VecPoly] = []
    for t in targets:
        q, r = _reduce(dict(t), run.basis, run.divs, key, words)
        if r:
            raise ValueError("element does not lie in the submodule")
        out.append(VecPoly(words, _in_gens(q, run.exprs, words)))
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
    return vec_syzygies_and_lifts(gens, [], mkey, nvars)[0]


def vec_minimal_syzygies(
    gens: Sequence[VecPoly], mkey: ModKey, heft: Heft
) -> tuple[list[int], list[VecPoly]]:
    """A minimal generating subset of homogeneous ``gens`` and the
    syzygies among it, from one transcripted run that takes the gens in
    order of the heft degree (weights of the variables, degrees of the
    components) they are homogeneous for.

    Returns the indices of the kept generators, in input order, and
    generators of the syzygy module of the kept generators alone, as
    vecdicts over 0..s-1 for s kept generators.
    """

    def run(words, gens):
        found = _buchberger(gens, mkey.on(words), words, transcript=True, heft=heft)
        index, ctop, body = {g: k for k, g in enumerate(found.kept)}, words.ctop, words.body
        return found.kept, [
            VecPoly(words, {index[t >> ctop] << ctop | t & body: c for t, c in w.items()})
            for w in _pair_syzygies(found)
        ]

    return widening(run, gens)


def vec_lift(targets: Sequence[VecPoly], gens: Sequence[VecPoly], mkey: ModKey) -> list[VecPoly]:
    """Write each target as a combination of gens.

    Returns one vecdict over the generator index space per target. Raises
    ValueError if a target is not in the submodule generated by gens.

    Nothing in the package calls it: ``vec_syzygies_and_lifts`` does its
    work. It stays only because the benchmark's tracer
    (``perfbench/tracer.py``) looks it up by name, so deleting it makes
    every traced run fail until that tracer stops naming it.
    """
    return vec_syzygies_and_lifts(gens, targets, mkey, 0)[1]


def vec_syzygies_and_lifts(
    gens: Sequence[VecPoly], targets: Sequence[VecPoly], mkey: ModKey, nvars: int
) -> tuple[list[VecPoly], list[VecPoly]]:
    """``vec_syzygies(gens, mkey, nvars)`` and ``vec_lift(targets, gens,
    mkey)`` from one transcripted run of ``gens``."""

    def run(words, gens, targets):
        key = mkey.on(words)
        found = _buchberger(gens, key, words, transcript=True)
        return _syzygies_of(gens, found), _lifts_of(targets, found, key)

    return widening(run, gens, targets, nvars=nvars)


# --- polynomial-level API: ideals only ---


class GroebnerBasis(Frozen):
    """A reduced Groebner basis together with the order that defines it."""

    _fields = ("generators", "order")

    def __init__(self, generators: tuple[Polynomial, ...], order: MonomialOrder) -> None:
        self.__dict__.update(generators=generators, order=order)

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
    q, r = vec_divide(poly_to_vec(f), [poly_to_vec(d) for d in divisors], top_key(order))
    return list(vec_to_vector(q, len(divisors), nvars)), vec_to_poly(r, nvars)


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
    return vec_to_poly(vec_divide(poly_to_vec(f), live, top_key(order))[1], f.nvars)


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
    # T is x_1 of the big ring, so field 0 (bits ``low``) holds its power
    words = Words.fit(nvars + 1, max(max(e, default=0) for g in live + [f] for e in g.terms))
    one_minus_tf = [((0,) * (nvars + 1), 1)] + [((1,) + e, -c) for e, c in f.terms.items()]
    big = [[((0,) + e, c) for e, c in g.terms.items()] for g in live] + [one_minus_tf]
    big = [VecPoly(words, {words.term(0, e): as_coeff(c) for e, c in g}) for g in big]
    kept = []
    for g in vec_groebner(big, top_key(Elimination(1))):
        low, mask, unpack = g.words.low, g.words.mask, g.words.unpack
        if not any(t & low for t in g):  # T-free
            terms = {unpack(t & mask)[1:]: Fraction(c) for t, c in g.items()}
            kept.append(Polynomial._unchecked(nvars, terms))
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
