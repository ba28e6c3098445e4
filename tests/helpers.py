"""Shared oracles and random generators for the test suite.

The Hilbert-function oracles here are deliberately independent of the
Groebner machinery: they enumerate monomials of a multidegree directly
(the ring does that by heft-bounded search) and use plain rational rank
computations, so they can referee the algebraic code.
"""

import itertools
import random
from fractions import Fraction
from operator import add

from quasidegrees import cli, groebner
from quasidegrees.groebner import (
    ModKey,
    buchberger,
    poly_to_vec,
    saturate,
    top_key,
    vec_groebner,
    vec_initial_module,
    vec_to_poly,
    vector_to_vec,
)
from quasidegrees.linalg import (
    IntMatrix,
    as_int_matrix,
    column_lattice_is_full,
    integer_kernel,
    lll_reduce,
    rational_rank,
)
from quasidegrees.planes import AffinePlane, QuasidegreeSet
from quasidegrees.poly import (
    GradedRing,
    MonomialOrder,
    Polynomial,
    exps_add,
    exps_divides,
    exps_lcm,
    find_heft,
)
from quasidegrees.stdpairs import (
    StandardPair,
    minimal_generators,
    pair_contains,
    standard_pairs,
)
from quasidegrees.toric import _divide_out


def build_cli_rings_in(monkeypatch, order: MonomialOrder) -> None:
    """Make the CLI build every ring in ``order``, for the commands whose
    printed answer is fixed by the module and which therefore take no
    ``--order``: their Groebner route in that order stays under test."""
    grevlex_ring = cli.build_ring
    monkeypatch.setattr(cli, "build_ring", lambda job, _order=None: grevlex_ring(job, order))


def term_degrees(col, shifts, ring: GradedRing) -> set:
    """The degrees deg x^e + shifts[k] of the terms x^e e_k of a column:
    one for a nonzero homogeneous column, none for a zero one."""
    return {tuple(map(add, ring.multidegree(e), s)) for f, s in zip(col, shifts) for e in f.terms}


def hilbert_quotient_dim(ring: GradedRing, gens, beta) -> int:
    """dim_Q (R/I)_beta for homogeneous gens, by degreewise linear algebra."""
    beta = tuple(beta)
    mons = list(ring.monomials_of_degree(beta))
    if not mons:
        return 0
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        degrees = {ring.multidegree(e) for e in g.terms}
        assert len(degrees) == 1, "oracle needs homogeneous gens"
        (dg,) = degrees
        target = tuple(b - d for b, d in zip(beta, dg))
        for v in ring.monomials_of_degree(target):
            row = [Fraction(0)] * len(mons)
            for e, c in g.terms.items():
                row[index[exps_add(v, e)]] = c
            rows.append(row)
    rank = rational_rank(rows) if rows else 0
    return len(mons) - rank


def hilbert_coker_dim(ring: GradedRing, columns, shifts, beta) -> int:
    """dim_Q of the beta piece of R^t(-shifts)/<columns>, exactly.

    Basis of the free part in degree beta: pairs (component k, monomial of
    degree beta - shifts[k]). Relations: monomial multiples of the columns
    landing in that degree. The quotient dimension is basis size minus the
    rank of the relation rows.
    """
    beta = tuple(beta)
    basis = []
    for k, s in enumerate(shifts):
        target = tuple(b - x for b, x in zip(beta, s))
        for m in ring.monomials_of_degree(target):
            basis.append((k, m))
    if not basis:
        return 0
    index = {bm: i for i, bm in enumerate(basis)}
    rows = []
    for col in columns:
        degrees = term_degrees(col, shifts, ring)
        assert len(degrees) <= 1, "oracle needs homogeneous columns"
        if not degrees:
            continue
        (dcol,) = degrees
        target = tuple(b - x for b, x in zip(beta, dcol))
        for v in ring.monomials_of_degree(target):
            row = [Fraction(0)] * len(basis)
            for k, f in enumerate(col):
                for e, c in f.terms.items():
                    row[index[(k, exps_add(v, e))]] = c
            rows.append(row)
    rank = rational_rank(rows) if rows else 0
    return len(basis) - rank


def graded_map_rank(ring: GradedRing, columns, source_shifts, beta) -> int:
    """rank of the beta piece of a graded map out of R(-source_shifts), exactly.

    ``columns[k]`` is the image of the k-th source generator, a tuple of
    polynomials over the target components. The beta piece of the source
    has basis (k, u) with deg x^u = beta - source_shifts[k]; its image is
    x^u * columns[k], written in the monomial basis of the target.
    """
    beta = tuple(beta)
    rows = []
    for col, s in zip(columns, source_shifts):
        for u in ring.monomials_of_degree(tuple(b - x for b, x in zip(beta, s))):
            row = {}
            for k, f in enumerate(col):
                for e, c in f.terms.items():
                    row[(k, exps_add(u, e))] = c
            rows.append(row)
    if not rows:
        return 0
    index = {}
    for row in rows:
        for key in row:
            index.setdefault(key, len(index))
    dense = [[Fraction(0)] * len(index) for _ in rows]
    for dr, row in zip(dense, rows):
        for key, c in row.items():
            dr[index[key]] = c
    return rational_rank(dense)


def apply_matrix(columns, v, nvars: int, t_out: int):
    """Image of the vector v under the map whose j-th column is columns[j]."""
    acc = [Polynomial.zero(nvars) for _ in range(t_out)]
    for q, col in zip(v, columns):
        if q.is_zero():
            continue
        for k, entry in enumerate(col):
            acc[k] = acc[k] + q * entry
    return tuple(acc)


def free_module_dim(ring: GradedRing, shifts, beta) -> int:
    """dim_Q of the beta piece of the free module R(-shifts)."""
    return sum(
        sum(1 for _ in ring.monomials_of_degree(tuple(b - x for b, x in zip(beta, s))))
        for s in shifts
    )


def complex_is_exact_at(ring: GradedRing, shifts, differentials, beta) -> bool:
    """Is F_0 <- F_1 <- ... <- F_L exact at every F_i, i >= 1, in degree beta?

    ``differentials[i]`` holds the columns of F_(i+1) -> F_i and
    ``shifts[i]`` the generator degrees of F_i. Exactness at F_i means
    dim ker(d_i) = rank(d_(i+1)) there, with d_(L+1) = 0.
    """
    ranks = [
        graded_map_rank(ring, cols, shifts[i + 1], beta)
        for i, cols in enumerate(differentials)
    ]
    ranks.append(0)
    for i in range(1, len(shifts)):
        kernel = free_module_dim(ring, shifts[i], beta) - ranks[i - 1]
        if kernel != ranks[i]:
            return False
    return True


def _minimal_monomials(exps):
    """The inclusion-minimal exponent vectors, sorted."""
    exps = sorted(set(exps), key=lambda e: (sum(e), e))
    kept = []
    for e in exps:
        if not any(exps_divides(k, e) for k in kept):
            kept.append(e)
    return tuple(sorted(kept))


def k_polynomial(gens, ring: GradedRing) -> dict:
    """The multigraded K-polynomial of R/<x^g : g in gens>, as a map
    degree -> nonzero coefficient, by the colon recursion
    K(J + <m>) = K(J) - t^deg(m) K(J : m), from K(0) = 1.

    Its Hilbert series is K(t) / prod_j (1 - t^deg(x_j)), so K is what a
    graded free resolution of the quotient has as its alternating sum of
    t^shift; no resolution is involved here.
    """
    memo: dict = {}

    def k(G) -> dict:
        if not G:
            return {(0,) * ring.grading_rank: 1}
        if not any(G[0]):
            return {}  # J = R
        if G not in memo:
            *rest, m = G
            out = dict(k(tuple(rest)))
            dm = ring.multidegree(m)
            colon = _minimal_monomials(tuple(max(a - b, 0) for a, b in zip(g, m)) for g in rest)
            for s, c in k(colon).items():
                s = exps_add(s, dm)
                out[s] = out.get(s, 0) - c
            memo[G] = {s: c for s, c in out.items() if c}
        return memo[G]

    return k(_minimal_monomials(map(tuple, gens)))


def resolution_k_polynomial_matches(res) -> bool:
    """Does sum_i (-1)^i sum_(s in shifts[i]) t^s equal the K-polynomial
    of coker(differentials[0]), read as sum_k t^shifts[0][k] K(R/J_k) off
    the monomial ideals J_k of its initial module? A missing or spurious
    generator at any level, or a wrong shift, breaks the equality."""
    ring = res.ring
    euler: dict = {}
    for i, shifts in enumerate(res.shifts):
        for s in shifts:
            euler[s] = euler.get(s, 0) + (-1) ** i
    t = res.rank(0)
    lead = vec_initial_module(list(res.columns[0]), t, ring.order) if res.length else [[]] * t
    expected: dict = {}
    for gens, shift in zip(lead, res.shifts[0]):
        for s, c in k_polynomial(gens, ring).items():
            s = exps_add(s, shift)
            expected[s] = expected.get(s, 0) + c
    return {s: c for s, c in euler.items() if c} == {s: c for s, c in expected.items() if c}


def record_buchberger_runs(fn, *args):
    """fn(*args) and the ``groebner._buchberger`` runs it made, in order."""
    runs = []
    inner = groebner._buchberger

    def recording(*a, **kw):
        runs.append(inner(*a, **kw))
        return runs[-1]

    groebner._buchberger = recording
    try:
        return fn(*args), runs
    finally:
        groebner._buchberger = inner


def standard_monomial_count(ring: GradedRing, lead_exps, beta) -> int:
    """dim_Q (R/in(I))_beta: monomials of the degree outside the lead terms."""
    return sum(
        1
        for m in ring.monomials_of_degree(tuple(beta))
        if not any(exps_divides(l, m) for l in lead_exps)
    )


def random_polynomial(rng: random.Random, nvars, max_terms=3, max_exp=3) -> Polynomial:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        c = rng.choice([x for x in range(-3, 4) if x])
        terms.append((e, Fraction(c)))
    return Polynomial(nvars, terms)


def random_ideal(rng: random.Random, nvars, max_gens=3, max_terms=3, max_exp=3):
    return [
        random_polynomial(rng, nvars, max_terms, max_exp)
        for _ in range(rng.randint(1, max_gens))
    ]


def random_homogeneous_binomial_ideal(rng: random.Random, nvars, max_gens=3, max_deg=4):
    """Binomials x^a - c*x^b with equal total degree (standard grading)."""

    def exps_of_degree(d):
        e = [0] * nvars
        for _ in range(d):
            e[rng.randrange(nvars)] += 1
        return tuple(e)

    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_deg)
        a, b = exps_of_degree(d), exps_of_degree(d)
        c = rng.choice([x for x in range(-3, 4) if x])
        gens.append(Polynomial(nvars, [(a, Fraction(1)), (b, Fraction(-c))]))
    return [g for g in gens if not g.is_zero()] or [Polynomial.zero(nvars)]


def random_monomial_ideal(rng: random.Random, nvars, max_gens=4, max_exp=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if any(e):
            gens.append(e)
    return gens


def scale_monomial_ideal(nvars, ngens, max_exp, seed):
    """A seeded random monomial ideal for timing ``standard_pairs``.

    With ``rng = random.Random(seed)``, the generators are drawn one after
    the other, and each generator's exponents one variable at a time in
    index order: ``rng.random() < 0.5`` gives exponent 0, and otherwise
    ``rng.randint(1, max_exp)`` gives the exponent. All ``ngens`` tuples
    are returned, in draw order, repeats and multiples included; the zero
    tuple (the unit ideal) is kept too.
    """
    rng = random.Random(seed)
    return [
        tuple(0 if rng.random() < 0.5 else rng.randint(1, max_exp) for _ in range(nvars))
        for _ in range(ngens)
    ]


def brute_force_standard_pairs(gens, nvars):
    """Reference standard pairs: box search over every face, then a filter.

    For each face Z, the candidate roots are the monomials off Z below the
    largest generator exponents that avoid the projection of the ideal;
    the standard pairs are the candidates no other candidate contains.
    Exponential in nvars and quadratic in the candidate count, so only
    for small ideals.
    """
    gens = minimal_generators(gens)
    if any(not any(g) for g in gens):
        return []
    maxexp = [max((g[i] for g in gens), default=0) for i in range(nvars)]
    candidates = []
    for bits in range(1 << nvars):
        face = frozenset(i for i in range(nvars) if bits >> i & 1)
        comp = [i for i in range(nvars) if i not in face]
        projected = [tuple(g[i] if i in comp else 0 for i in range(nvars)) for g in gens]
        if any(not any(p) for p in projected):
            continue
        for combo in itertools.product(*[range(maxexp[i]) for i in comp]):
            root = [0] * nvars
            for i, v in zip(comp, combo):
                root[i] = v
            root = tuple(root)
            if not any(exps_divides(p, root) for p in projected):
                candidates.append(StandardPair(root, face))
    out = [
        p
        for p in candidates
        if not any(q is not p and pair_contains(p, q) for q in candidates)
    ]
    out.sort(key=StandardPair.sort_key)
    return out


def delta_walk_standard_pairs(gens, nvars):
    """Reference standard pairs: the face-complex walk on exponent tuples.

    Walks the faces Z of Δ = {Z : no minimal generator is supported in Z}
    and, for each, intersects the ideals I_{Z ∪ {i}} = I_Z : x_i^∞ one step
    up, pruned by I_Z, to get the generators of (I_Z : m^∞) outside I_Z;
    then steps one variable off Z at a time from those, never entering
    I_Z. ``stdpairs.standard_pairs`` runs the same walk on packed words;
    this one tests divisibility and takes lcms entry by entry, so it
    shares no word arithmetic with it.
    """
    gens = minimal_generators(gens)
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in gens]
    if 0 in supports:
        return []

    def outside(u, ideal):
        return not any(exps_divides(g, u) for g in ideal)

    def saturation_roots(ideal, above):
        own = set(ideal)
        factors = []
        for gens in above:
            kept = [g for g in gens if g not in own]
            if not kept:
                return []
            factors.append(kept)
        factors.sort(key=len)
        roots = [(0,) * nvars]
        for kept in factors:
            lcms = [exps_lcm(a, b) for a in roots for b in kept]
            roots = minimal_generators([u for u in lcms if outside(u, ideal)])
            if not roots:
                break
        return roots

    ideals = {0: gens}
    faces = [0]
    for bits in faces:
        for j in range(bits.bit_length(), nvars):
            child = bits | 1 << j
            if all(s & ~child for s in supports):
                projected = [g[:j] + (0,) + g[j + 1 :] for g in ideals[bits]]
                ideals[child] = minimal_generators(projected)
                faces.append(child)
    out = []
    for bits in faces:
        ideal = ideals[bits]
        comp = [i for i in range(nvars) if not bits >> i & 1]
        above = [ideals[bits | 1 << i] for i in comp if bits | 1 << i in ideals]
        roots = set(saturation_roots(ideal, above))
        todo = list(roots)
        while todo:
            u = todo.pop()
            for i in comp:
                v = u[:i] + (u[i] + 1,) + u[i + 1 :]
                if v not in roots and outside(v, ideal):
                    roots.add(v)
                    todo.append(v)
        face = frozenset(i for i in range(nvars) if bits >> i & 1)
        out.extend(StandardPair(u, face) for u in roots)
    out.sort(key=StandardPair.sort_key)
    return out


def dimension_via_standard_pairs(ring: GradedRing, columns, shifts) -> int:
    """Krull dimension of R^t(-shifts)/<columns>, -1 for the zero module.

    The initial module of <columns> is a direct sum of monomial ideals
    J_k e_k, and the quotient has the Hilbert function of the sum of the
    R/J_k, so the dimension is the largest face among the standard pairs
    of any J_k. No resolution is involved.
    """
    lead = vec_initial_module([vector_to_vec(c) for c in columns], len(shifts), ring.order)
    return max(
        (p.dimension for gens in lead for p in standard_pairs(gens, ring.nvars)), default=-1
    )


def lattice_binomials(A) -> list[Polynomial]:
    """x^(u+) - x^(u-) for each vector u of the LLL-reduced basis of the
    kernel lattice of A, the basis ``toric_ideal`` starts from."""
    n = as_int_matrix(A).ncols
    gens = []
    for u in lll_reduce(integer_kernel(A)):
        plus, minus = tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u)
        gens.append(Polynomial(n, [(plus, Fraction(1)), (minus, Fraction(-1))]))
    return gens


def elimination_toric_ideal(A, ring: GradedRing):
    """Reference reduced basis of I_A in the ring's order.

    The lattice-basis binomials saturated by each variable in turn through
    ``groebner.saturate``, which adjoins a fresh variable T, adds 1 - T x_j
    and eliminates T; then converted to the ring's order.
    """
    gens = lattice_binomials(A)
    if not gens:
        return []
    for j in range(ring.nvars):
        gens = saturate(gens, ring.variable(j), ring.order)
    return list(buchberger(gens, ring.order).generators)


def weighted_saturation_key(weights, last: int) -> ModKey:
    """w-degree first, then reverse lex with x_last as the last variable:
    among monomials of equal w-degree, the smaller power of x_last wins.
    The Bayer–Stillman order for binomials homogeneous in the weights w.
    On words: the w-degree, the complemented x_last, the rest complemented."""

    def make(words):
        low, mask, top, bits = words.low, words.mask, words.top, words.bits
        at, wdeg = words.shifts[last], words.form(weights)
        rest = words.data & ~(low << at)
        return lambda t: (wdeg(t & mask) << bits | low - (t >> at & low)) << top | rest & ~t

    return ModKey(make)


def all_variables_toric_ideal(A, ring: GradedRing):
    """Reference reduced basis of I_A in the ring's order, for A with a heft.

    The lattice-basis binomials, homogeneous for the weights w = h A of a
    heft h of A, saturated by every variable in turn with the Bayer–Stillman
    step (a Groebner basis in ``weighted_saturation_key``, then
    ``toric._divide_out``); then converted to the ring's order. No lift.
    """
    A = as_int_matrix(A)
    gens = [poly_to_vec(g) for g in lattice_binomials(A)]
    if not gens:
        return []
    h = find_heft(A)
    weights = [sum(hi * ai for hi, ai in zip(h, col)) for col in A.columns()]
    for j in range(ring.nvars):
        key = weighted_saturation_key(weights, j)
        gens = [_divide_out(g, j) for g in vec_groebner(gens, key)]
    return [vec_to_poly(g, ring.nvars) for g in vec_groebner(gens, top_key(ring.order))]


# matrices whose integer_kernel basis has entries of 25, 22, 9 and 13
WIDE_KERNEL = [
    ((3, 3, 3, 2, 3, 1), (-1, 2, -1, -2, 4, -1), (2, 4, 2, -1, 1, 2)),
    ((3, 2, 2, 2, 1), (-2, 0, 1, 0, 1), (4, -1, 0, -2, 0)),
    ((1, 2, 2, 3, 3, 1), (2, 1, 1, 4, 0, 1)),
    ((2, 2, 3, 3, 1), (1, 0, -2, 4, -2)),
]


def random_toric_matrix(rng: random.Random) -> IntMatrix:
    """A d x n matrix, d <= 3, n <= 7, with a positive first row (so the
    grading is positive), rank d and columns spanning Z^d."""
    while True:
        d = rng.randint(1, 3)
        n = rng.randint(d, 7)
        rows = [[rng.randint(1, 2) for _ in range(n)]]
        rows += [[rng.randint(-1, 2) for _ in range(n)] for _ in range(d - 1)]
        A = IntMatrix(tuple(tuple(r) for r in rows))
        if rational_rank(rows) == d and column_lattice_is_full(A):
            return A


def gram_schmidt_data(b):
    """mu[k][j] and squared lengths B[k], computed from scratch."""
    ortho, mu = [], []
    for v in b:
        w = [Fraction(x) for x in v]
        row = []
        for u in ortho:
            m = Fraction(sum(x * y for x, y in zip(v, u))) / sum(x * x for x in u)
            row.append(m)
            w = [x - m * y for x, y in zip(w, u)]
        ortho.append(w)
        mu.append(row)
    return mu, [sum(x * x for x in w) for w in ortho]


def reference_lll_reduce(basis):
    """LLL with delta = 3/4 that recomputes the Gram–Schmidt data from
    scratch after every swap; ``linalg.lll_reduce`` updates it instead and
    must return the same list."""
    delta = Fraction(3, 4)
    b = [list(map(int, v)) for v in basis]
    mu, B = gram_schmidt_data(b)
    k = 1
    while k < len(b):
        for j in reversed(range(k)):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            mu, B = gram_schmidt_data(b)
            k = max(k - 1, 1)
    return [tuple(v) for v in b]


def _gram_schmidt(b):
    """Exact Gram–Schmidt data of b: the coefficients mu[i][j] (j < i) and
    the squared lengths B[i] of the orthogonalized vectors."""
    ortho, mu, B = [], [], []
    for v in b:
        w = [Fraction(x) for x in v]
        row = []
        for u, Bj in zip(ortho, B):
            m = sum(x * y for x, y in zip(v, u)) / Bj
            row.append(m)
            w = [x - m * y for x, y in zip(w, u)]
        ortho.append(w)
        mu.append(row)
        B.append(sum(x * x for x in w))
    return mu, B


def _swap(b, mu, B, k):
    """Swap b[k-1] and b[k] and update the Gram–Schmidt data in place.

    Only the pair's squared lengths, the pair's own coefficient and the
    coefficients of later vectors on the pair change (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.3, SWAP).
    """
    b[k - 1], b[k] = b[k], b[k - 1]
    m = mu[k][k - 1]
    mu[k - 1], mu[k] = mu[k][: k - 1], mu[k - 1] + [m]
    Bk = B[k] + m * m * B[k - 1]
    mu[k][k - 1] = m * B[k - 1] / Bk
    B[k - 1], B[k] = Bk, B[k - 1] * B[k] / Bk
    for row in mu[k + 1 :]:
        t = row[k]
        row[k] = row[k - 1] - m * t
        row[k - 1] = t + mu[k][k - 1] * row[k]


def fraction_lll_reduce(basis):
    """LLL with delta = 3/4 in exact rational arithmetic, updating the
    Gram–Schmidt data on each swap: the Fraction algorithm that the
    integral ``linalg.lll_reduce`` must match vector for vector."""
    delta = Fraction(3, 4)
    b = [list(map(int, v)) for v in basis]
    mu, B = _gram_schmidt(b)
    if any(not x for x in B):
        raise ValueError("lattice basis vectors are linearly dependent")
    k = 1
    while k < len(b):
        for j in reversed(range(k)):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            _swap(b, mu, B, k)
            k = max(k - 1, 1)
    return [tuple(v) for v in b]


def reference_quasidegrees_monomial(P) -> QuasidegreeSet:
    """Quasidegree set of a split monomial presentation, each plane built
    by the public AffinePlane constructor from Fraction data, so every
    standard pair row-reduces its own span; ``quasidegrees_monomial``
    builds one Span per face and passes integer bases to
    ``AffinePlane._on``. Both leave the least base of a set to
    QuasidegreeSet.

    Each row ideal is generated by the exponents of the nonzero entries in
    that row; a split presentation has at most one per column."""
    ring = P.ring
    ideals = [[] for _ in P.shifts]
    for col in P.columns:
        assert sum(1 for f in col if f) <= 1, "the presentation does not split"
        for k, f in enumerate(col):
            if f:
                (e,) = f.terms
                ideals[k].append(e)
    planes = []
    for shift, gens in zip(P.shifts, ideals):
        for pair in standard_pairs(gens, ring.nvars):
            deg = ring.multidegree(pair.root)
            base = tuple(Fraction(a + b) for a, b in zip(deg, shift))
            span = tuple(ring.degree(i) for i in sorted(pair.face))
            planes.append(AffinePlane(base, span))
    return QuasidegreeSet(tuple(planes))


def reduce_modulo_rref(v, span):
    """v minus its multiples of the rows of ``span``, a reduced row echelon
    basis over Q, so zero at every pivot: the Fraction reduction that
    ``planes.Span.coset`` scales to integers. Two points have the same
    reduction exactly when they differ by a vector of the span."""
    out = [Fraction(x) for x in v]
    for row in span:
        p = next(i for i, x in enumerate(row) if x)
        f = out[p]
        if f:
            out = [a - f * r for a, r in zip(out, row)]
    return tuple(out)
