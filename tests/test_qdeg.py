import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import hilbert_coker_dim, reference_quasidegrees_monomial
from quasidegrees.cli import Job, build_presentation, build_ring
from quasidegrees.homology import GradedPresentation
from quasidegrees.linalg import IntMatrix
from quasidegrees.parse import parse_polynomial
from quasidegrees import qdeg
from quasidegrees.planes import Span, remove_redundancy
from quasidegrees.poly import Polynomial, graded_ring, standard_graded_ring
from quasidegrees.qdeg import (
    NonMonomialEntryError,
    NonSplittingError,
    _row_ideals,
    quasidegrees_module,
    quasidegrees_monomial,
)

F = Fraction
R3 = standard_graded_ring(("x", "y", "z"))
A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))


def pres(ring, shifts, rows):
    """coker of the matrix with these rows of polynomial text ("0" for zero)."""
    entries = [[parse_polynomial(cell, ring) for cell in row] for row in rows]
    return GradedPresentation(ring, shifts, tuple(zip(*entries)))


def test_row_ideals_of_a_split_presentation():
    P = pres(R3, ((0,), (1,)), (("x*y", "0", "0", "2*y*z"), ("0", "-z", "0", "0")))
    assert _row_ideals(P) == [[(1, 1, 0), (0, 1, 1)], [(0, 0, 1)]]


def test_non_integral_shifts_are_rejected():
    with pytest.raises(ValueError):
        pres(R3, ((F(1, 2),),), (("x",),))
    # an integral Fraction is the integer it names
    assert pres(R3, ((F(4, 2),),), (("x",),)).shifts == ((2,),)


def test_non_split_presentation_detected():
    P = pres(R3, ((0,), (0,)), (("x",), ("y",)))
    with pytest.raises(NonSplittingError):
        quasidegrees_monomial(P)


def test_non_monomial_entry_detected():
    # also when an earlier column hits two rows: entries are checked first
    for P in [
        pres(R3, ((0,),), (("x + y",),)),
        pres(R3, ((0,), (0,)), (("x", "x - y"), ("y", "0"))),
    ]:
        with pytest.raises(NonMonomialEntryError):
            quasidegrees_monomial(P)


def test_quasidegrees_monomial_golden():
    # R/<x*y, y*z> with the standard grading: the y-axis contributes the
    # plane 0 + C*span{1}; the xz-plane face contributes 0 + C*span{1,1},
    # the same line, which is kept once with its span in RREF
    q = quasidegrees_monomial(pres(R3, ((0,),), (("x*y", "y*z"),)))
    assert [(p.base, p.span) for p in q.planes] == [((F(0),), ((F(1),),))]
    assert remove_redundancy(q) == q


def test_quasidegrees_monomial_uses_shifts():
    q = quasidegrees_monomial(pres(R3, ((2,),), (("x*y", "y*z"),)))
    assert all(p.base == (F(2),) for p in q.planes)


def test_quasidegrees_monomial_multirow():
    # two rows with different shifts; each contributes its own planes
    P = pres(R3, ((0,), (1,)), (("x", "0", "0", "0"), ("0", "x", "y", "z")))
    q = quasidegrees_monomial(P)
    # <x> at shift 0 has the single pair (1, {y, z}), the whole line;
    # <x, y, z> at shift 1 has the single pair (1, {}), the point 1
    assert [(p.base, p.span) for p in q.planes] == [
        ((F(0),), ((F(1),),)),
        ((F(1),), ()),
    ]


def test_quasidegrees_module_spec_trace():
    # Q[x]^2 / <(x, x)>: the cokernel has a free second component (full
    # line) plus a one-dimensional piece in degree 0
    R1 = standard_graded_ring(("x",))
    x = parse_polynomial("x", R1)
    q = quasidegrees_module(GradedPresentation(R1, ((0,), (0,)), [(x, x)]))
    assert [(p.base, p.span) for p in q.planes] == [
        ((F(0),), ()),
        ((F(0),), ((F(1),),)),
    ]


# d = 1 and d = 2; each has variables of equal degree, so different faces
# share a span, and the last has RREF spans with fractional entries
DIFFERENTIAL_GRADINGS = [
    ((1, 1, 1),),
    ((1, 2, 2, 3),),
    ((1, 1, 1, 1, 1), (0, 1, 1, 2, 3)),
    ((2, 1, 1, 2), (1, 0, 1, 1)),
]
RINGS = [graded_ring(tuple(f"x{i}" for i in range(len(g[0]))), g) for g in DIFFERENTIAL_GRADINGS]


@st.composite
def split_monomial_presentations(draw):
    """Presentations whose columns each hold one monomial or are zero, on
    1 to 3 rows with shifts in [-2, 2] and coefficients other than 1."""
    ring = draw(st.sampled_from(RINGS))
    n, d = ring.nvars, ring.grading_rank
    nrows = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=nrows, max_size=nrows))
    coeff = st.sampled_from((1, -1, 2, F(-3, 2), F(5, 7)))
    exps = st.tuples(*[st.sampled_from((0, 0, 1, 2, 3))] * n)
    columns = []
    # row None is a zero column
    for row in draw(st.lists(st.sampled_from((None, *range(nrows))), max_size=8)):
        col = [Polynomial.zero(n)] * nrows
        if row is not None:
            col[row] = Polynomial.monomial(draw(exps), draw(coeff))
        columns.append(tuple(col))
    return GradedPresentation(ring, shifts, columns)


@settings(max_examples=80, deadline=None)
@given(split_monomial_presentations())
def test_quasidegrees_module_matches_monomial_on_split_input(P):
    got, want = quasidegrees_module(P).planes, quasidegrees_monomial(P).planes
    assert got == want
    assert [p.base for p in got] == [p.base for p in want]


def test_quasidegrees_of_free_module_is_full():
    R = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    q = quasidegrees_module(GradedPresentation(R, ((0, 0, 0),), []))
    assert len(q.planes) == 1
    p = q.planes[0]
    assert p.dimension == 3
    assert p.contains_point((7, -3, F(1, 2)))


def test_quasidegrees_zero_module():
    q = quasidegrees_module(GradedPresentation(R3, (), []))
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
        q = quasidegrees_module(GradedPresentation(ring, ((0,),), gens))
        for d in range(0, 7):
            dim = hilbert_coker_dim(ring, gens, ((0,),), (d,))
            if dim > 0:
                assert q.contains_point((d,))


def test_tdeg_inside_qdeg_multigraded():
    ring = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    xs = ring.variables()
    # homogeneous binomial from a known kernel vector
    f = xs[0] * xs[2] - xs[1] * xs[3]
    q = quasidegrees_module(GradedPresentation(ring, ((0, 0, 0),), [(f,)]))
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
        q = quasidegrees_module(GradedPresentation(ring, ((0,),), gens))
        for p in q.planes:
            beta = tuple(int(b) for b in p.base)
            assert hilbert_coker_dim(ring, gens, ((0,),), beta) > 0


def test_one_span_per_face_shared_by_its_planes(monkeypatch):
    built = []
    monkeypatch.setattr(qdeg, "Span", lambda vectors: built.append(Span(vectors)) or built[-1])
    R = standard_graded_ring(("x", "y", "z", "w"))
    P = pres(R, ((0,), (2,)), (("x^2*y", "y^3*z", "0"), ("0", "0", "x*w^2")))
    pairs = [pair for gens in _row_ideals(P) for pair in qdeg.standard_pairs(gens, R.nvars)]
    faces = {pair.face for pair in pairs}
    assert len(pairs) > len(faces)
    q = quasidegrees_monomial(P)
    assert len(built) == len(faces)
    assert all(any(p._span is s for s in built) for p in q.planes)


# --- shared face spans against the public constructor per standard pair ---


def assert_planes_match_reference(P):
    got = quasidegrees_monomial(P).planes
    want = reference_quasidegrees_monomial(P).planes
    assert got == want
    assert [p.base for p in got] == [p.base for p in want]


@pytest.mark.parametrize("ring", RINGS, ids=["d1", "d1w", "d2", "d2frac"])
def test_quasidegrees_monomial_matches_one_plane_per_pair(ring):
    n, d = ring.nvars, ring.grading_rank
    rng = random.Random(101 * n + d)
    for _ in range(25):
        nrows = rng.randint(1, 3)
        shifts = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(nrows))
        columns = []
        for k in range(nrows):
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                col = [Polynomial.zero(n)] * nrows
                col[k] = Polynomial.monomial(exps, rng.randint(1, 3))
                columns.append(tuple(col))
        rng.shuffle(columns)
        assert_planes_match_reference(GradedPresentation(ring, shifts, columns))


def test_quasidegrees_monomial_matches_one_plane_per_pair_on_the_demo_job():
    job = Job.load(str(Path(__file__).resolve().parent.parent / "jobs" / "monomial_demo.json"))
    ring = build_ring(job, "grevlex")
    assert_planes_match_reference(build_presentation(job, ring))
