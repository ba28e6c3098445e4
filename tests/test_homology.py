import functools
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    apply_matrix,
    complex_is_exact_at,
    dimension_via_standard_pairs,
    hilbert_quotient_dim,
    k_polynomial,
    random_homogeneous_binomial_ideal,
    random_monomial_ideal,
    record_buchberger_runs,
    resolution_k_polynomial_matches,
    term_degrees,
)
from quasidegrees.groebner import top_key, vec_syzygies_and_lifts, vec_to_vector
from quasidegrees.homology import (
    FreeResolution,
    GradedPresentation,
    InhomogeneousError,
    _ext,
    _transpose,
    dual_shift_plane,
    ext_presentation,
    free_resolution,
    module_dimension,
    qlc,
    qlc_total,
)
from quasidegrees.linalg import IntMatrix, column_lattice_is_full, integer_kernel
from quasidegrees.parse import parse_polynomial
from quasidegrees.planes import AffinePlane, QuasidegreeSet, remove_redundancy
from quasidegrees.poly import GREVLEX, LEX, MonomialOrder, Polynomial, graded_ring, standard_graded_ring
from quasidegrees.qdeg import quasidegrees_module
from quasidegrees.toric import to_a_graded_ring, toric_ideal
from quasidegrees.words import VecPoly, Words

# resolutions built inside qlc and Ext are checked as well
pytestmark = pytest.mark.usefixtures("k_polynomial_checked_resolutions")

F = Fraction
A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))
R3 = standard_graded_ring(("x", "y", "z"))


def p3(s):
    return parse_polynomial(s, R3)


def resolution_is_complex(res: FreeResolution):
    n = res.ring.nvars
    for i in range(1, res.length):
        phi_prev = res.differentials[i - 1]
        t_out = res.rank(i - 1)
        for col in res.differentials[i]:
            image = apply_matrix(phi_prev, col, n, t_out)
            assert all(f.is_zero() for f in image)


def resolution_is_minimal(res: FreeResolution):
    # a unit entry would let a generator be written through the others
    zero = (0,) * res.ring.nvars
    for cols in res.differentials:
        for col in cols:
            assert all(zero not in f.terms for f in col)


def resolution_is_exact(res: FreeResolution, degrees):
    for beta in degrees:
        assert complex_is_exact_at(res.ring, res.shifts, res.differentials, beta), beta


def sample_degrees(res: FreeResolution):
    """Every generator degree of the resolution: a missing or wrong
    syzygy leaves homology in the degree of the generator it should be."""
    return sorted({s for level in res.shifts for s in level})


def level_one_is_minimal(res: FreeResolution, gens, degrees):
    """Minimal generators of I in degree beta span (I / mI)_beta, so F_1
    has that many generators of degree beta."""
    ring = res.ring
    live = [g for g in gens if not g.is_zero()]
    m_live = [v * g for v in ring.variables() for g in live]
    level_1 = res.shifts[1] if res.length else ()
    for beta in degrees:
        beta_1 = hilbert_quotient_dim(ring, m_live, beta) - hilbert_quotient_dim(ring, live, beta)
        assert level_1.count(beta) == beta_1, beta


def curve_presentation(exponents):
    A = IntMatrix(((1,) * len(exponents), tuple(exponents)))
    R = to_a_graded_ring(A)
    return GradedPresentation.cyclic(R, toric_ideal(A, R))


def resolution_is_homogeneous(res: FreeResolution):
    """Every column has the degree its shift says, and the shifts add up
    to the K-polynomial of the presented module."""
    for i, cols in enumerate(res.differentials):
        for col, expected in zip(cols, res.shifts[i + 1]):
            assert term_degrees(col, res.shifts[i], res.ring) == {expected}
    assert resolution_k_polynomial_matches(res)


def test_presentation_validation():
    with pytest.raises(InhomogeneousError, match="^inhomogeneous generator$"):
        GradedPresentation(R3, ((0,),), ((p3("x + x*y"),),))
    with pytest.raises(ValueError, match="^column length does not match the number of shifts$"):
        GradedPresentation(R3, ((0,),), ((p3("x"), p3("y")),))
    with pytest.raises(ValueError, match="^degree shifts must be integers$"):
        GradedPresentation(R3, ((F(1, 2),),), ((p3("x"),),))
    with pytest.raises(ValueError, match="grading rank"):
        GradedPresentation(R3, ((0, 0),), ((p3("x"),),))
    # a column polynomial over two variables, in a ring of three
    with pytest.raises(ValueError, match="does not live in this ring"):
        GradedPresentation(R3, ((0,),), ((Polynomial.monomial((1, 0)),),))
    # two entries, each homogeneous, whose shifted degrees differ
    x, zero = p3("x"), Polynomial.zero(3)
    with pytest.raises(InhomogeneousError):
        GradedPresentation(R3, ((0,), (1,)), ((x, x),))
    # equal shifted degrees, a zero entry and a zero column all pass
    columns = ((x, x), (x, zero), (zero, zero))
    assert GradedPresentation(R3, ((0,), (0,)), columns).columns == columns


def test_resolution_skips_a_zero_column():
    P = GradedPresentation(R3, ((0,),), ((p3("y^2"),), (Polynomial.zero(3),), (p3("x"),)))
    res = free_resolution(P)
    assert res.shifts[1] == ((2,), (1,))
    assert res.differentials[0] == ((p3("y^2"),), (p3("x"),))
    resolution_is_homogeneous(res)


def test_k_polynomial_of_monomial_ideals():
    # R/<x, y>: a Koszul complex; R/<x^2, x*y>: 1 - 2t^2 + t^3
    assert k_polynomial([(1, 0, 0), (0, 1, 0)], R3) == {(0,): 1, (1,): -2, (2,): 1}
    assert k_polynomial([(2, 0, 0), (1, 1, 0)], R3) == {(0,): 1, (2,): -2, (3,): 1}
    assert k_polynomial([], R3) == {(0,): 1}
    assert k_polynomial([(0, 0, 0), (1, 0, 0)], R3) == {}
    # in the grading by A35 the K-polynomial keeps every multidegree apart
    R = to_a_graded_ring(A35)
    assert k_polynomial([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], R) == {
        (0, 0, 0): 1,
        (1, 0, 0): -1,
        (1, 0, 1): -1,
        (2, 0, 1): 1,
    }


def test_k_polynomial_oracle_sees_a_dropped_column():
    res = free_resolution(curve_presentation((0, 1, 3, 4)))
    assert resolution_k_polynomial_matches(res)
    for i in range(res.length):
        for k in (0, res.rank(i + 1) - 1):
            columns, shifts = list(res.columns), list(res.shifts)
            columns[i] = columns[i][:k] + columns[i][k + 1 :]
            shifts[i + 1] = shifts[i + 1][:k] + shifts[i + 1][k + 1 :]
            mutant = FreeResolution(res.ring, tuple(shifts), tuple(columns))
            assert not resolution_k_polynomial_matches(mutant), (i, k)


def test_resolution_of_two_monomials():
    P = GradedPresentation.cyclic(R3, [p3("x*y"), p3("y*z")])
    res = free_resolution(P)
    assert [res.rank(i) for i in range(res.length + 1)] == [1, 2, 1]
    assert res.shifts[0] == ((0,),)
    assert res.shifts[1] == ((2,), (2,))
    assert res.shifts[2] == ((3,),)
    resolution_is_complex(res)
    resolution_is_homogeneous(res)
    # the second syzygy is (z, -x) up to scale
    (col,) = res.differentials[1]
    scale = col[0].terms[(0, 0, 1)]
    assert col[0] == scale * p3("z")
    assert col[1] == scale * (-p3("x"))


def test_resolution_of_free_module_is_trivial():
    P = GradedPresentation(R3, ((0,),), ())
    res = free_resolution(P)
    assert res.length == 0
    assert res.shifts == (((0,),),)
    resolution_is_homogeneous(res)


def test_resolution_properties_random():
    rng = random.Random(71)
    for _ in range(12):
        nvars = rng.randint(2, 3)
        ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
        if rng.random() < 0.5:
            gens = [
                Polynomial.monomial(e)
                for e in random_monomial_ideal(rng, nvars, max_gens=3, max_exp=2)
            ]
        else:
            gens = random_homogeneous_binomial_ideal(rng, nvars, max_gens=2, max_deg=3)
        P = GradedPresentation.cyclic(ring, [g for g in gens if not g.is_zero()])
        res = free_resolution(P)
        resolution_is_complex(res)
        resolution_is_homogeneous(res)
        resolution_is_minimal(res)
        top = max(s[0] for level in res.shifts for s in level)
        resolution_is_exact(res, [(b,) for b in range(top + 2)])
        level_one_is_minimal(res, gens, [(b,) for b in range(top + 2)])


def test_resolution_where_heft_and_total_degree_disagree():
    # deg x = 1, deg y = 3: x*y has the least total degree of the three
    # but the greatest heft degree, and it lies in <y - x^3, x^3>
    R = graded_ring(("x", "y"), degree_matrix=IntMatrix(((1, 3),)))
    gens = [parse_polynomial(s, R) for s in ("x*y", "y - x^3", "x^3")]
    res = free_resolution(GradedPresentation.cyclic(R, gens))
    assert [res.rank(i) for i in range(res.length + 1)] == [1, 2, 1]
    assert res.differentials[0] == ((gens[1],), (gens[2],))
    assert res.shifts[1:] == (((3,), (3,)), ((6,),))
    resolution_is_complex(res)
    resolution_is_homogeneous(res)
    resolution_is_minimal(res)
    resolution_is_exact(res, [(b,) for b in range(9)])
    level_one_is_minimal(res, gens, [(b,) for b in range(9)])


def test_resolution_properties_in_a_two_row_grading():
    # variable heft degrees 1, 2, 3, 4 under a grevlex (total degree) order
    deg = IntMatrix(((1, 2, 3, 4), (0, 1, 1, 0)))
    R = graded_ring(("w", "x", "y", "z"), degree_matrix=deg)
    assert R.heft == (1, 0)
    rng = random.Random(79)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(2, 5)):
            e = tuple(rng.randint(0, 2) for _ in range(4))
            mons = list(R.monomials_of_degree(R.multidegree(e)))
            picked = rng.sample(mons, min(len(mons), rng.randint(1, 3)))
            gens.append(Polynomial(4, {m: F(rng.choice((-2, -1, 1, 3))) for m in picked}))
        gens = [g for g in gens if g.total_degree() > 0]
        res = free_resolution(GradedPresentation.cyclic(R, gens))
        resolution_is_complex(res)
        resolution_is_homogeneous(res)
        resolution_is_minimal(res)
        resolution_is_exact(res, sample_degrees(res))
        level_one_is_minimal(res, gens, {R.multidegree(next(iter(g.terms))) for g in gens})


# A degree-13 curve in P^6 has generator degrees up to total degree 9,
# where one exactness oracle call takes seconds, so its exactness is
# checked at the 48 generator degrees of total degree at most 4.
EXACT_UP_TO = {(0, 1, 4, 6, 9, 10, 13): 4}


@pytest.mark.parametrize(
    "exponents, ranks",
    [
        # rational normal curves: Eagon-Northcott Betti numbers
        ((0, 1, 2, 3), [1, 3, 2]),
        ((0, 1, 2, 3, 4), [1, 6, 8, 3]),
        ((0, 1, 2, 3, 4, 5), [1, 10, 20, 15, 4]),
        # the Sturmfels-Takayama curve, which is not Cohen-Macaulay
        ((0, 1, 3, 4), [1, 4, 4, 1]),
        # the degree-13 curve of EXACT_UP_TO
        ((0, 1, 4, 6, 9, 10, 13), [1, 23, 75, 106, 75, 25, 3]),
    ],
)
def test_curve_resolutions_are_minimal_and_exact(exponents, ranks):
    res = free_resolution(curve_presentation(exponents))
    assert [res.rank(i) for i in range(res.length + 1)] == ranks
    resolution_is_complex(res)
    resolution_is_homogeneous(res)
    resolution_is_minimal(res)
    top = EXACT_UP_TO.get(exponents)
    resolution_is_exact(res, [b for b in sample_degrees(res) if top is None or b[0] <= top])


# The scale inputs of the ROADMAP: a 3-row toric ring and an 8-column
# curve. Exactness is checked at the generator degrees of total degree at
# most 3, where the dense oracle stays cheap.
SCALE_MATRICES = {
    "3x9": ((1,) * 9, (1, 4, 0, 2, 0, 3, 3, 3, 3), (1, 0, 3, 0, 3, 3, 4, 0, 3)),
    "3x10": ((1,) * 10, (1, 1, 2, 3, 0, 0, 3, 2, 1, 1), (3, 3, 3, 1, 1, 1, 3, 0, 0, 1)),
    "curve8": ((1,) * 8, (4, 18, 2, 8, 3, 15, 14, 15)),
}


@functools.cache
def scale_resolution(name):
    """The resolution of R/I_A for a scale matrix, with the Buchberger
    runs it made, one per level."""
    A = IntMatrix(SCALE_MATRICES[name])
    R = to_a_graded_ring(A)
    P = GradedPresentation.cyclic(R, toric_ideal(A, R))
    return record_buchberger_runs(free_resolution, P)


@pytest.mark.parametrize(
    "name, ranks",
    [
        ("3x9", [1, 16, 65, 125, 134, 83, 28, 4]),
        ("3x10", [1, 17, 77, 166, 199, 138, 54, 11, 1]),
        ("curve8", [1, 15, 61, 123, 141, 92, 31, 4]),
    ],
)
def test_scale_resolutions_are_minimal_and_exact(name, ranks):
    res, _ = scale_resolution(name)
    assert [res.rank(i) for i in range(res.length + 1)] == ranks
    resolution_is_complex(res)
    resolution_is_homogeneous(res)
    resolution_is_minimal(res)
    resolution_is_exact(res, [b for b in sample_degrees(res) if b[0] <= 3])


def test_chain_criterion_cuts_the_columns_offered_on_3x9():
    # without the chain criterion every level's run is offered 1619
    # columns in all, the pair syzygies of the level below, and keeps 455;
    # with it, exactly 879, a count that pins the S-pair and division order
    res, runs = scale_resolution("3x9")
    assert len(runs) == res.length
    assert sum(run.pairs_chain for run in runs) > 0
    assert sum(run.gens_kept for run in runs) == sum(map(len, res.shifts[1:])) == 455
    assert sum(run.gens_kept + run.gens_dropped for run in runs) == 879


def test_running_example_resolution_is_minimal_and_exact():
    R = to_a_graded_ring(A35)
    # I_A has five generators, one of them redundant
    gens = toric_ideal(A35, R)
    assert len(gens) == 5
    res = free_resolution(GradedPresentation.cyclic(R, gens))
    assert [res.rank(i) for i in range(res.length + 1)] == [1, 4, 4, 1]
    resolution_is_homogeneous(res)
    resolution_is_minimal(res)
    resolution_is_exact(res, sample_degrees(res))


class TupleGrevLex(MonomialOrder):
    """Grevlex known only by its key on exponent tuples."""

    def key(self, exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))


def test_resolution_in_an_order_known_only_by_its_tuple_key():
    # the sort keys of every level are then pairs, not ints, and the
    # resolution is the one of grevlex itself
    names = ("x", "y", "z", "w")
    resolutions = []
    for order in (TupleGrevLex(), GREVLEX):
        R = standard_graded_ring(names, order)
        gens = [parse_polynomial(s, R) for s in ("x*z - y^2", "x*w - y*z", "y*w - z^2")]
        resolutions.append(free_resolution(GradedPresentation.cyclic(R, gens)))
    assert [resolutions[0].rank(i) for i in range(3)] == [1, 3, 2]
    resolution_is_homogeneous(resolutions[0])
    assert resolutions[0].differentials == resolutions[1].differentials


def test_redundant_generators_are_dropped():
    gens = [p3(s) for s in ("x*y", "x*y*z", "y*z", "x*y + y*z", "x^2*y")]
    res = free_resolution(GradedPresentation.cyclic(R3, gens))
    assert [res.rank(i) for i in range(res.length + 1)] == [1, 2, 1]
    assert res.differentials[0] == ((p3("x*y"),), (p3("y*z"),))
    resolution_is_homogeneous(res)


def test_resolution_with_far_apart_generator_degrees():
    # a complete intersection: Koszul ranks. Deciding that b^50 is not
    # redundant must cost a normal form, not a look at the degree-49
    # monomials in six variables that separate a from b^50 (about 3
    # million of them).
    R6 = standard_graded_ring(tuple("abcdef"))
    gens = [parse_polynomial(s, R6) for s in ("a", "b^50", "c^40*d - e^41")]
    t0 = time.perf_counter()
    res = free_resolution(GradedPresentation.cyclic(R6, gens))
    assert time.perf_counter() - t0 < 5.0
    assert [res.rank(i) for i in range(res.length + 1)] == [1, 3, 3, 1]
    resolution_is_homogeneous(res)
    resolution_is_minimal(res)


def test_exactness_oracle_sees_a_missing_syzygy():
    res = free_resolution(curve_presentation((0, 1, 2, 3, 4)))
    degrees = sample_degrees(res)
    broken = list(res.differentials)
    broken[1] = broken[1][1:]
    shifts = list(res.shifts)
    shifts[2] = shifts[2][1:]
    assert not all(
        complex_is_exact_at(res.ring, shifts, broken, beta) for beta in degrees
    )


def test_quintic_local_cohomology_vanishes_within_budget():
    t0 = time.perf_counter()
    assert qlc_total(curve_presentation((0, 1, 2, 3, 4, 5))).is_empty
    assert time.perf_counter() - t0 < 10.0


def test_resolution_of_module_presentations():
    rng = random.Random(73)
    for _ in range(8):
        nvars = 2
        ring = standard_graded_ring(("x", "y"))
        t = rng.randint(1, 2)
        shifts = tuple((rng.randint(-1, 1),) for _ in range(t))
        cols = []
        for _ in range(rng.randint(1, 3)):
            col = [Polynomial.zero(nvars)] * t
            k = rng.randrange(t)
            e = (rng.randint(0, 2), rng.randint(0, 2))
            col[k] = Polynomial.monomial(e)
            cols.append(tuple(col))
        P = GradedPresentation(ring, shifts, tuple(cols))
        res = free_resolution(P)
        resolution_is_complex(res)
        resolution_is_homogeneous(res)
        resolution_is_exact(res, sample_degrees(res))


def test_ext_of_free_module():
    P = GradedPresentation(R3, ((1,), (2,)), ())
    E0 = ext_presentation(P, 0)
    assert E0.shifts == ((-1,), (-2,))
    assert E0.columns == ()
    for j in (1, 2, 3):
        assert ext_presentation(P, j).shifts == ()


def test_ext_out_of_range():
    P = GradedPresentation.cyclic(R3, [p3("x")])
    with pytest.raises(ValueError):
        ext_presentation(P, -1)
    with pytest.raises(ValueError):
        ext_presentation(P, 4)


def test_ext_of_zero_module():
    P = GradedPresentation(R3, (), ())
    assert ext_presentation(P, 0).shifts == ()


def test_ext_top_of_point():
    # Ext^2(Q[x,y]/<x,y>, R) is one-dimensional, concentrated in degree -2
    R = standard_graded_ring(("x", "y"))
    P = GradedPresentation.cyclic(R, [parse_polynomial("x", R), parse_polynomial("y", R)])
    E = ext_presentation(P, 2)
    assert E.shifts == ((-2,),)
    # relations generate <x, y>
    from quasidegrees.groebner import ideal_equal

    rel_polys = [c[0] for c in E.columns if not c[0].is_zero()]
    assert ideal_equal(rel_polys, [parse_polynomial("x", R), parse_polynomial("y", R)])


@pytest.mark.parametrize(
    "matrix", [A35.entries, ((1,) * 4, (0, 1, 3, 4)), ((1,) * 5, (0, 1, 3, 4, 5))]
)
def test_ext_at_the_length_is_the_transcripted_run(matrix):
    # at j = L the kernel is the identity of F_L^T, so Ext^L is read off
    # the last differential; one transcripted run of the unit vectors
    # must give the same generators and relations
    R = to_a_graded_ring(IntMatrix(matrix))
    P = GradedPresentation.cyclic(R, toric_ideal(matrix, R))
    res = P._resolution
    L, n, t = res.length, R.nvars, res.rank(res.length)
    shifts, rels = _ext(P, L)
    words = Words.fit(n, 0)
    K = [VecPoly(words, {k << words.ctop: 1}) for k in range(t)]
    targets = _transpose(res.columns[L - 1], res.rank(L - 1))
    syz, lifts = vec_syzygies_and_lifts(K, targets, top_key(R.order), n)
    assert shifts == tuple(tuple(-x for x in s) for s in res.shifts[L])
    assert rels
    assert [vec_to_vector(r, t, n) for r in rels] == [
        vec_to_vector(r, t, n) for r in syz + lifts if r
    ]


def test_ext_presentation_gives_the_planes_qlc_reads():
    # qlc reads each Ext as vecdicts; the public presentation must present
    # the same module, so its quasidegrees, duality-shifted, are qlc's
    rng = random.Random(83)
    cases = [
        curve_presentation((0, 1, 3, 4)),
        GradedPresentation.cyclic(R3, [p3("x*y"), p3("x*z")]),
    ]
    for _ in range(8):
        nvars = rng.randint(2, 3)
        ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
        gens = random_homogeneous_binomial_ideal(rng, nvars, max_gens=2, max_deg=3)
        cases.append(GradedPresentation.cyclic(ring, [g for g in gens if not g.is_zero()]))
    ring = standard_graded_ring(("x", "y"))
    for _ in range(4):
        shifts = ((0,), (rng.randint(-1, 1),))
        cols = [
            (Polynomial.monomial((rng.randint(0, 2), rng.randint(0, 2))), Polynomial.zero(2))
            for _ in range(rng.randint(1, 2))
        ]
        cols.append((Polynomial.zero(2), Polynomial.monomial((rng.randint(1, 2), 0))))
        cases.append(GradedPresentation(ring, shifts, tuple(cols)))
    kernels = 0
    for P in cases:
        resolution_is_homogeneous(P._resolution)
        n = P.ring.nvars
        eps = P.ring.degree_sum
        for j in range(n + 1):
            E = ext_presentation(P, j)
            q = quasidegrees_module(E)
            dual = QuasidegreeSet(tuple(dual_shift_plane(p, eps) for p in q.planes))
            assert dual.planes == qlc(P, n - j).planes
            # j < L with generators: K came from a nonzero kernel
            kernels += j < P._resolution.length and bool(E.shifts)
    assert kernels


def test_qlc_point_module_golden():
    # H^0 of Q[x,y]/<x,y> is the module itself: quasidegrees {0}
    R = standard_graded_ring(("x", "y"))
    P = GradedPresentation.cyclic(R, [parse_polynomial("x", R), parse_polynomial("y", R)])
    q = qlc_total(P)
    assert [(p.base, p.span) for p in q.planes] == [((F(0),), ())]


def test_qlc_hand_example_dimension_one():
    # M = Q[x]/<x>: qlc(M, 0) is exactly the origin
    R1 = standard_graded_ring(("x",))
    P = GradedPresentation.cyclic(R1, [parse_polynomial("x", R1)])
    q = qlc(P, 0)
    assert [(p.base, p.span) for p in q.planes] == [((F(0),), ())]


def test_qlc_of_free_module_vanishes():
    P = GradedPresentation(R3, ((0,),), ())
    assert qlc_total(P).is_empty
    for i in range(R3.grading_rank):
        assert qlc(P, i).is_empty


def test_duality_shift_is_an_involution():
    rng = random.Random(79)
    eps = (5, 2, 0)
    for _ in range(25):
        base = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        span = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            for _ in range(rng.randint(0, 2))
        )
        p = AffinePlane(base, span)
        q = dual_shift_plane(dual_shift_plane(p, eps), eps)
        assert q.base == p.base and q.span == p.span
        # the image reuses the plane's span, row-reduced once
        assert dual_shift_plane(p, eps)._span is p._span


def test_qlc_running_example_golden():
    R = to_a_graded_ring(A35)
    I = toric_ideal(A35, R)
    P = GradedPresentation.cyclic(R, I)
    total = qlc_total(P)
    assert [(p.base, p.span) for p in total.planes] == [
        ((F(0), F(0), F(1)), ((F(1), F(0), F(-2)),))
    ]
    assert qlc(P, 0).is_empty
    assert qlc(P, 1).is_empty
    assert len(qlc(P, 2).planes) == 1


def test_qlc_gap_curve_golden():
    # projective monomial curve with exponents (0,1,3,4): its coordinate
    # ring misses exactly the lattice point (1,2) inside the cone, so the
    # only local cohomology below the top is one dimensional there
    A = IntMatrix(((1, 1, 1, 1), (0, 1, 3, 4)))
    R = to_a_graded_ring(A)
    P = GradedPresentation.cyclic(R, toric_ideal(A, R))
    total = qlc_total(P)
    assert [(p.base, p.span) for p in total.planes] == [((F(1), F(2)), ())]
    assert qlc(P, 0).is_empty


def test_qlc_cohen_macaulay_curves_vanish():
    for A in ([[1, 2]], [[1, 2, 3]], [[1, 0], [0, 1]]):
        A = IntMatrix(tuple(tuple(r) for r in A))
        R = to_a_graded_ring(A)
        P = GradedPresentation.cyclic(R, toric_ideal(A, R))
        assert qlc_total(P).is_empty


def dimension_matches_oracle(P):
    expected = dimension_via_standard_pairs(P.ring, P.columns, P.shifts)
    assert module_dimension(P) == expected
    return expected


def test_module_dimension_of_the_corpus():
    for exponents in ((0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5), (0, 1, 3, 4)):
        assert dimension_matches_oracle(curve_presentation(exponents)) == 2
    R = to_a_graded_ring(A35)
    assert dimension_matches_oracle(GradedPresentation.cyclic(R, toric_ideal(A35, R))) == 3
    R1 = to_a_graded_ring([[1, 2]])
    assert dimension_matches_oracle(GradedPresentation.cyclic(R1, toric_ideal([[1, 2]], R1))) == 1
    cases = [
        (GradedPresentation.cyclic(R3, [p3("x*y"), p3("x*z")]), 2),
        (GradedPresentation.cyclic(R3, [p3("x*y"), p3("y*z")]), 2),
        (GradedPresentation.cyclic(R3, [p3("x"), p3("y"), p3("z")]), 0),
        (GradedPresentation.cyclic(R3, [p3("x^2"), p3("y^3"), p3("z")]), 0),
        (GradedPresentation.cyclic(R3, [p3("x*y - z^2")]), 2),
        (GradedPresentation.cyclic(R3, [p3("1")]), -1),
        (GradedPresentation(R3, ((0,), (1,)), ()), 3),
        (GradedPresentation(R3, (), ()), -1),
    ]
    for P, dim in cases:
        assert dimension_matches_oracle(P) == dim


def test_module_dimension_random():
    rng = random.Random(71)
    for _ in range(12):
        nvars = rng.randint(2, 3)
        ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
        if rng.random() < 0.5:
            gens = [
                Polynomial.monomial(e)
                for e in random_monomial_ideal(rng, nvars, max_gens=3, max_exp=2)
            ]
        else:
            gens = random_homogeneous_binomial_ideal(rng, nvars, max_gens=2, max_deg=3)
        dimension_matches_oracle(
            GradedPresentation.cyclic(ring, [g for g in gens if not g.is_zero()])
        )
    rng = random.Random(73)
    ring = standard_graded_ring(("x", "y"))
    for _ in range(8):
        t = rng.randint(1, 2)
        shifts = tuple((rng.randint(-1, 1),) for _ in range(t))
        cols = []
        for _ in range(rng.randint(1, 3)):
            col = [Polynomial.zero(2)] * t
            col[rng.randrange(t)] = Polynomial.monomial((rng.randint(0, 2), rng.randint(0, 2)))
            cols.append(tuple(col))
        dimension_matches_oracle(GradedPresentation(ring, shifts, tuple(cols)))


def test_qlc_total_reaches_below_a_dimension_above_the_grading_rank():
    # R/<xy, xz>: dimension 2, depth 1, grading rank 1
    P = GradedPresentation.cyclic(R3, [p3("x*y"), p3("x*z")])
    assert not qlc(P, 1).is_empty
    assert qlc_total(P).contains_point((F(0),))
    assert qlc_total(P) == remove_redundancy(list(qlc(P, 0).planes) + list(qlc(P, 1).planes))


def test_qlc_total_keeps_the_top_cohomology_below_the_grading_rank():
    # dim M = 0 < d = 1: the sum over i < d of the rank-jump test includes
    # H^0, the top one; the zero module has nothing
    R1 = standard_graded_ring(("x",))
    P = GradedPresentation.cyclic(R1, [parse_polynomial("x", R1)])
    assert module_dimension(P) == 0
    assert [(p.base, p.span) for p in qlc_total(P).planes] == [((F(0),), ())]
    assert qlc_total(GradedPresentation(R1, (), ())).is_empty


# A35, the Sturmfels–Takayama curve, two more curves, 3x9 and a 3x5
METAMORPHIC = {
    "A35": A35,
    "sturmfels_takayama": IntMatrix(((1,) * 4, (0, 1, 3, 4))),
    "curve_01345": IntMatrix(((1,) * 5, (0, 1, 3, 4, 5))),
    "curve7": IntMatrix(((1,) * 7, (0, 1, 4, 6, 9, 10, 13))),
    "3x9": IntMatrix(((1,) * 9, (1, 4, 0, 2, 0, 3, 3, 3, 3), (1, 0, 3, 0, 3, 3, 4, 0, 3))),
    "3x5": IntMatrix(((1,) * 5, (0, 1, 0, 1, 2), (0, 0, 1, 1, 0))),
}
UNIMODULAR = ((1, 0, -1), (2, 1, 0), (0, 0, 1))


def toric_qlc_total(A, order=GREVLEX):
    R = to_a_graded_ring(A, order=order)
    return set(qlc_total(GradedPresentation.cyclic(R, toric_ideal(A, R))).planes)


@pytest.mark.parametrize("name", sorted(METAMORPHIC))
def test_qlc_total_of_a_toric_ring_under_order_permutation_and_regrading(name):
    # the rank-jump locus depends on neither the term order nor the order
    # of the columns, and A -> U A for a unimodular U maps it by U
    A = METAMORPHIC[name]
    planes = toric_qlc_total(A)
    assert toric_qlc_total(A, LEX) == planes
    perm = random.Random(name).sample(range(A.ncols), A.ncols)
    assert toric_qlc_total(IntMatrix(tuple(tuple(r[j] for j in perm) for r in A.entries))) == planes
    if A.nrows == 3:

        def by_u(v):
            return tuple(sum(u * x for u, x in zip(row, v)) for row in UNIMODULAR)

        UA = IntMatrix(tuple(zip(*map(by_u, A.columns()))))
        mapped = {AffinePlane(by_u(p.base), map(by_u, p.span)) for p in planes}
        assert toric_qlc_total(UA) == mapped


def _in_both_orders(names, gens, compute):
    """compute(P) for R/<gens> over the grevlex and the lex ring."""
    return [
        compute(GradedPresentation.cyclic(standard_graded_ring(names, order), gens))
        for order in (GREVLEX, LEX)
    ]


def test_quasidegrees_do_not_depend_on_the_order():
    # the quasidegree sets are invariants of the module: lex and grevlex
    # give different initial modules, hence possibly different redundant
    # planes, but the same irredundant union
    rng = random.Random(28)
    for _ in range(60):
        nvars = rng.randint(3, 4)
        names = tuple(f"x{i}" for i in range(nvars))
        gens = random_homogeneous_binomial_ideal(rng, nvars, max_gens=3, max_deg=3)

        def planes(P):
            found = [quasidegrees_module(P)] + [qlc(P, i) for i in range(nvars + 1)]
            return [remove_redundancy(q) for q in found]

        grevlex, lex = _in_both_orders(names, gens, planes)
        assert lex == grevlex


def _random_a_graded_quotient(rng):
    """A = [[1]*n, r] and binomials x^u+ - x^u- for integer combinations u
    of A's kernel basis, sometimes with a monomial added."""
    n = rng.choice((3, 4))
    A = None
    while A is None or not column_lattice_is_full(A):
        A = IntMatrix(((1,) * n, tuple(rng.randint(0, 4) for _ in range(n))))
    kernel = integer_kernel(A)
    gens = []
    while not gens:
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-1, 1) for _ in kernel]
            u = [sum(c * v[j] for c, v in zip(coeffs, kernel)) for j in range(n)]
            if any(u):
                plus, minus = (tuple(max(s * x, 0) for x in u) for s in (1, -1))
                gens.append(Polynomial(n, [(plus, F(1)), (minus, F(-1))]))
        if rng.random() < 0.3:
            gens.append(Polynomial.monomial(tuple(rng.randint(0, 2) for _ in range(n))))
    return A, gens


def _quasidegree_sets(A, gens):
    """Irredundant quasidegrees, every qlc and qlc_total of R/<gens>, R graded by A."""
    R = graded_ring(tuple(f"x{j}" for j in range(A.ncols)), A)
    P = GradedPresentation.cyclic(R, gens)
    found = [quasidegrees_module(P)] + [qlc(P, i) for i in range(R.nvars + 1)]
    return [remove_redundancy(q) for q in found] + [qlc_total(P)], R.weights


def test_quasidegrees_under_permutation_and_regrading_of_random_presentations():
    # permuting the variables with A's columns leaves every set as it is;
    # A -> U A for a shear or the row swap maps each plane by U. The row
    # swap can change the heft find_heft picks, so the sets do not
    # depend on the heft either.
    rng = random.Random(29)
    other_heft = 0
    for _ in range(60):
        A, gens = _random_a_graded_quotient(rng)
        n = A.ncols
        sets, weights = _quasidegree_sets(A, gens)
        perm = rng.sample(range(n), n)
        permuted = IntMatrix(tuple(tuple(r[j] for j in perm) for r in A.entries))
        moved = [Polynomial(n, [(tuple(e[j] for j in perm), c) for e, c in g.terms.items()]) for g in gens]
        assert _quasidegree_sets(permuted, moved)[0] == sets
        U = rng.choice([((1, 0), (rng.randint(-3, 3), 1)), ((0, 1), (1, 0))])

        def by_u(v):
            return tuple(sum(u * x for u, x in zip(row, v)) for row in U)

        UA = IntMatrix(tuple(zip(*map(by_u, A.columns()))))
        u_sets, u_weights = _quasidegree_sets(UA, gens)
        assert u_sets == [
            QuasidegreeSet(AffinePlane(by_u(p.base), map(by_u, p.span)) for p in q) for q in sets
        ]
        other_heft += u_weights != weights
    assert other_heft


def test_qlc_total_prints_alike_in_both_orders():
    # the benchmark's std5_a ideal: lex and grevlex give different initial
    # modules of its Ext modules, hence different spanning sets for the
    # same planes
    names = ("g", "t", "n", "p", "u")
    R = standard_graded_ring(names)
    gens = [
        parse_polynomial(s, R)
        for s in ("g^3*p^2*u", "g^2*n^4*p^4", "t^3*p^4*u", "g*t^4*p^3", "g^4*t*p^3", "g^4*t^3*n^4*p^4")
    ]
    grevlex, lex = _in_both_orders(names, gens, qlc_total)
    assert grevlex.planes
    assert [(p.base, p.span) for p in lex.planes] == [(p.base, p.span) for p in grevlex.planes]
