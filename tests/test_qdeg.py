import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import hilbert_coker_dim, reference_quasidegrees_monomial
from quasidegrees.cli import Job, build_presentation, build_ring
from quasidegrees.linalg import IntMatrix
from quasidegrees.parse import parse_polynomial
from quasidegrees.planes import AffinePlane, remove_redundancy
from quasidegrees.poly import Polynomial, graded_ring, standard_graded_ring
from quasidegrees.qdeg import (
    InhomogeneousError,
    MonomialMatrix,
    NonMonomialEntryError,
    NonSplittingError,
    monomial_matrix_from_vectors,
    quasidegrees_module,
    quasidegrees_monomial,
    vector_degree,
)

F = Fraction
R3 = standard_graded_ring(("x", "y", "z"))
A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))


def mono(ring, text):
    f = parse_polynomial(text, ring)
    assert f.is_monomial()
    e, c = next(iter(f.terms.items()))
    return (c, e)


def test_monomial_matrix_validation():
    m = MonomialMatrix(R3, ((0,),), ((mono(R3, "x*y"), mono(R3, "y*z")),))
    assert m.nrows == 1 and m.ncols == 2
    assert m.splits()
    assert m.row_ideals() == [[(1, 1, 0), (0, 1, 1)]]
    with pytest.raises(ValueError):
        MonomialMatrix(R3, ((0, 0),), ((mono(R3, "x"),),))


def test_non_integral_shifts_are_rejected():
    x = parse_polynomial("x", R3)
    with pytest.raises(ValueError):
        MonomialMatrix(R3, ((F(1, 2),),), ((mono(R3, "x"),),))
    with pytest.raises(ValueError):
        quasidegrees_module([(x,)], ((F(1, 2),),), R3)
    # an integral Fraction is the integer it names
    assert MonomialMatrix(R3, ((F(4, 2),),), ((mono(R3, "x"),),)).row_shifts == ((2,),)


def test_monomial_matrix_nonsplit_detected():
    m = MonomialMatrix(
        R3,
        ((0,), (0,)),
        (
            (mono(R3, "x"),),
            (mono(R3, "y"),),
        ),
    )
    assert not m.splits()
    with pytest.raises(NonSplittingError):
        m.row_ideals()


def test_from_vectors_rejects_non_monomial():
    cols = [(parse_polynomial("x + y", R3),)]
    with pytest.raises(NonMonomialEntryError):
        monomial_matrix_from_vectors(cols, ((0,),), R3)


def test_quasidegrees_monomial_golden():
    # R/<x*y, y*z> with the standard grading: the y-axis contributes the
    # plane 0 + C*span{1}; the xz-plane face contributes 0 + C*span{1,1},
    # the same line, which is kept once with its span in RREF
    m = MonomialMatrix(R3, ((0,),), ((mono(R3, "x*y"), mono(R3, "y*z")),))
    q = quasidegrees_monomial(m)
    assert [(p.base, p.span) for p in q.planes] == [((F(0),), ((F(1),),))]
    assert remove_redundancy(q) == q


def test_quasidegrees_monomial_uses_shifts():
    m = MonomialMatrix(R3, ((2,),), ((mono(R3, "x*y"), mono(R3, "y*z")),))
    q = quasidegrees_monomial(m)
    assert all(p.base == (F(2),) for p in q.planes)


def test_quasidegrees_monomial_multirow():
    # two rows with different shifts; each contributes its own planes
    m = MonomialMatrix(
        R3,
        ((0,), (1,)),
        (
            (mono(R3, "x"), None, None, None),
            (None, mono(R3, "x"), mono(R3, "y"), mono(R3, "z")),
        ),
    )
    q = quasidegrees_monomial(m)
    # <x> at shift 0 has the single pair (1, {y, z}), the whole line;
    # <x, y, z> at shift 1 has the single pair (1, {}), the point 1
    assert [(p.base, p.span) for p in q.planes] == [
        ((F(0),), ((F(1),),)),
        ((F(1),), ()),
    ]


def test_vector_degree():
    x = parse_polynomial("x", R3)
    z = Polynomial.zero(3)
    assert vector_degree((x, z), ((0,), (0,)), R3) == (1,)
    assert vector_degree((x, x), ((0,), (0,)), R3) == (1,)
    assert vector_degree((x, x), ((0,), (1,)), R3) is None
    from quasidegrees.poly import ANY_DEGREE

    assert vector_degree((z, z), ((0,), (0,)), R3) is ANY_DEGREE


def test_quasidegrees_module_spec_trace():
    # Q[x]^2 / <(x, x)>: the cokernel has a free second component (full
    # line) plus a one-dimensional piece in degree 0
    R1 = standard_graded_ring(("x",))
    x = parse_polynomial("x", R1)
    q = quasidegrees_module([(x, x)], ((0,), (0,)), R1)
    assert [(p.base, p.span) for p in q.planes] == [
        ((F(0),), ()),
        ((F(0),), ((F(1),),)),
    ]


def test_quasidegrees_module_matches_monomial_on_split_input():
    xy = parse_polynomial("x*y", R3)
    yz = parse_polynomial("y*z", R3)
    q1 = quasidegrees_module([(xy,), (yz,)], ((0,),), R3)
    m = MonomialMatrix(R3, ((0,),), ((mono(R3, "x*y"), mono(R3, "y*z")),))
    q2 = quasidegrees_monomial(m)
    assert [(p.base, p.span) for p in q1.planes] == [(p.base, p.span) for p in q2.planes]


def test_quasidegrees_module_rejects_inhomogeneous():
    f = parse_polynomial("x + x*y", R3)
    with pytest.raises(InhomogeneousError):
        quasidegrees_module([(f,)], ((0,),), R3)


def test_quasidegrees_of_free_module_is_full():
    R = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    q = quasidegrees_module([], ((0, 0, 0),), R)
    assert len(q.planes) == 1
    p = q.planes[0]
    assert p.dimension == 3
    assert p.contains_point((7, -3, F(1, 2)))


def test_quasidegrees_zero_module():
    q = quasidegrees_module([], (), R3)
    assert q.is_empty


def test_tdeg_inside_qdeg_sampled():
    # brute-force graded pieces of random cyclic quotients; wherever the
    # piece is nonzero the quasidegree set must contain the degree
    rng = random.Random(53)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(nvars))
            if any(e):
                gens.append((Polynomial.monomial(e),))
        if not gens:
            continue
        q = quasidegrees_module(gens, ((0,),), ring)
        for d in range(0, 7):
            dim = hilbert_coker_dim(ring, gens, ((0,),), (d,))
            if dim > 0:
                assert q.contains_point((d,))


def test_tdeg_inside_qdeg_multigraded():
    ring = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    xs = ring.variables()
    # homogeneous binomial from a known kernel vector
    f = xs[0] * xs[2] - xs[1] * xs[3]
    q = quasidegrees_module([(f,)], ((0, 0, 0),), ring)
    for beta in [(0, 0, 0), (1, 0, 0), (2, 1, 1), (1, 0, -2)]:
        dim = hilbert_coker_dim(ring, [(f,)], ((0, 0, 0),), beta)
        if dim > 0:
            assert q.contains_point(beta)


def test_base_points_are_true_degrees():
    # every plane base of a monomial quotient is an honest nonzero degree
    rng = random.Random(59)
    for _ in range(10):
        nvars = rng.randint(1, 3)
        ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(e):
                gens.append((Polynomial.monomial(e),))
        if not gens:
            continue
        q = quasidegrees_module(gens, ((0,),), ring)
        for p in q.planes:
            beta = tuple(int(b) for b in p.base)
            assert hilbert_coker_dim(ring, gens, ((0,),), beta) > 0


# --- one plane per distinct set against one plane per standard pair ---

# d = 1 and d = 2; each has variables of equal degree, so different faces
# share a span, and the last has RREF spans with fractional entries
DIFFERENTIAL_GRADINGS = [
    ((1, 1, 1),),
    ((1, 2, 2, 3),),
    ((1, 1, 1, 1, 1), (0, 1, 1, 2, 3)),
    ((2, 1, 1, 2), (1, 0, 1, 1)),
]


def assert_planes_match_reference(phi):
    got = quasidegrees_monomial(phi).planes
    want = reference_quasidegrees_monomial(phi).planes
    assert got == want
    assert [p.base for p in got] == [p.base for p in want]


@pytest.mark.parametrize("degrees", DIFFERENTIAL_GRADINGS, ids=["d1", "d1w", "d2", "d2frac"])
def test_quasidegrees_monomial_matches_one_plane_per_pair(degrees):
    n, d = len(degrees[0]), len(degrees)
    ring = graded_ring(tuple(f"x{i}" for i in range(n)), degrees)
    rng = random.Random(101 * n + d)
    for _ in range(25):
        nrows = rng.randint(1, 3)
        shifts = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(nrows))
        columns = []
        for k in range(nrows):
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                columns.append((k, (rng.randint(1, 3), exps)))
        rng.shuffle(columns)
        entries = tuple(
            tuple(term if row == k else None for row, term in columns) for k in range(nrows)
        )
        assert_planes_match_reference(MonomialMatrix(ring, shifts, entries))


def test_quasidegrees_monomial_matches_one_plane_per_pair_on_the_demo_job():
    job = Job.load(str(Path(__file__).resolve().parent.parent / "jobs" / "monomial_demo.json"))
    ring = build_ring(job, "grevlex")
    P = build_presentation(job, ring, allow_toric=False)
    assert_planes_match_reference(monomial_matrix_from_vectors(P.columns, P.shifts, ring))
