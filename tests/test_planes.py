import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import reduce_modulo_rref
from quasidegrees.linalg import InputError, rref
from quasidegrees.planes import (
    AffinePlane,
    QuasidegreeSet,
    Span,
    plane_contains,
    remove_redundancy,
)


F = Fraction


def random_plane(rng, d, max_span=None):
    if max_span is None:
        max_span = d
    base = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d))
    span = tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
        for _ in range(rng.randint(0, max_span))
    )
    return AffinePlane(base, span)


def random_point_on(rng, plane):
    pt = list(plane.base)
    for v in plane.span:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        pt = [p + c * x for p, x in zip(pt, v)]
    return tuple(pt)


def test_point_plane_is_just_its_base():
    p = AffinePlane((1, 2))
    assert p.dimension == 0
    assert p.contains_point((1, 2))
    assert not p.contains_point((1, 3))


def test_span_is_stored_in_rref():
    p = AffinePlane((0, 0), ((1, 1), (2, 2)))
    q = AffinePlane((0, 0), ((-3, -3),))
    assert p == q and hash(p) == hash(q)
    assert p.dimension == 1
    assert p.span == q.span == ((F(1), F(1)),)
    assert AffinePlane((0, 0, 0), ((1, 2, 0), (1, 3, 1))).span == (
        (F(1), F(0), F(-2)),
        (F(0), F(1), F(1)),
    )


def test_equality_reduces_base_against_pivots_but_keeps_it():
    p = AffinePlane((5, 7), ((1, 0),))
    q = AffinePlane((-2, 7), ((1, 0),))
    assert p == q and hash(p) == hash(q)
    assert p.base == (F(5), F(7))
    assert q.base == (F(-2), F(7))


def random_vectors(rng, d, count):
    """Rational vectors of length d, zero and dependent ones among them."""
    vs = []
    for _ in range(count):
        r = rng.random()
        if r < 0.15:
            vs.append((0,) * d)
        elif r < 0.4 and vs:
            a, b = rng.choice(vs), rng.choice(vs)
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            vs.append(tuple(x + c * y for x, y in zip(a, b)))
        else:
            vs.append(tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)))
    return vs


def test_span_rref_matches_linalg_rref():
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(1, 5)
        vs = random_vectors(rng, d, rng.randint(0, d + 2))
        R, _, rank = rref(vs)
        span = Span(vs)
        assert span.rref == R[:rank]
        # the integer form: primitive rows with positive pivots, scale their lcm
        pivots = [next(i for i, x in enumerate(row) if x) for row in span.rows]
        assert all(type(x) is int for row in span.rows for x in row)
        assert all(row[p] > 0 and math.gcd(*row) == 1 for p, row in zip(pivots, span.rows))
        assert span.scale == math.lcm(*(row[p] for p, row in zip(pivots, span.rows)))
        again = Span(vs[::-1])
        assert again == span and hash(again) == hash(span)


def test_span_rejects_vectors_of_unequal_length():
    with pytest.raises(InputError):
        Span([(1, 2), (3,)])
    with pytest.raises(InputError):
        Span([(1,), (0, 1)])


def test_coset_agrees_exactly_on_points_of_one_plane():
    rng = random.Random(13)
    same = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        span = Span(random_vectors(rng, d, rng.randint(0, d)))
        for fractional in (False, True):
            def coordinate():
                return F(rng.randint(-4, 4), rng.randint(1, 3)) if fractional else rng.randint(-4, 4)

            v = tuple(coordinate() for _ in range(d))
            w = tuple(coordinate() for _ in range(d))
            if span.rows and rng.random() < 0.5:
                # move w onto the plane through v along an integer row
                row, c = rng.choice(span.rows), coordinate()
                w = tuple(a + c * x for a, x in zip(v, row))
            cv, cw = span.coset(v), span.coset(w)
            if not fractional:
                assert all(type(x) is int for x in cv + cw)
            assert cv == tuple(span.scale * x for x in reduce_modulo_rref(v, span.rref))
            planes_equal = AffinePlane(v, span.rref) == AffinePlane(w, span.rref)
            assert (cv == cw) == planes_equal == (AffinePlane._on(span, v) == AffinePlane._on(span, w))
            same += planes_equal
    assert same > 100


def test_order_is_the_fraction_key_order():
    # the order of a reduced base, then the RREF span, over Q
    def fraction_key(p):
        return (reduce_modulo_rref(p.base, p.span), p.span)

    rng = random.Random(19)
    for _ in range(40):
        d = rng.randint(1, 3)
        planes = [random_plane(rng, d) for _ in range(6)]
        # equal reduced bases on different spans, and equal sets
        planes += [AffinePlane((0,) * d, random_vectors(rng, d, rng.randint(0, 2))) for _ in range(4)]
        planes += [AffinePlane(random_point_on(rng, p), p.span) for p in planes[:3]]
        for a in planes:
            for b in planes:
                assert (a < b) == (fraction_key(a) < fraction_key(b))
        assert sorted(planes) == sorted(planes, key=fraction_key)


def test_public_constructor_and_on_build_the_same_set():
    rng = random.Random(23)
    for _ in range(100):
        d = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(0, d))]
        base = tuple(rng.randint(-5, 5) for _ in range(d))
        # Fraction data for the same set: scaled span vectors, a moved base
        c = rng.randint(1, 4)
        fraction_vectors = [tuple(F(x, c) for x in v) for v in vectors]
        fraction_base = list(map(F, base))
        for v in fraction_vectors:
            k = rng.randint(-3, 3)
            fraction_base = [a + k * x for a, x in zip(fraction_base, v)]
        public = AffinePlane(fraction_base, fraction_vectors)
        internal = AffinePlane._on(Span(vectors), base)
        assert public == internal and hash(public) == hash(internal)
        assert public.span == internal.span
        assert internal.base == tuple(map(F, base))
        assert all(type(x) is F for x in internal.base + sum(internal.span, ()))


def test_equality_requires_same_base_modulo_span():
    p = AffinePlane((0, 0), ((1, 0),))
    q = AffinePlane((0, 1), ((1, 0),))
    assert p != q
    assert AffinePlane((0, 0)) != AffinePlane((0, 0), ((1, 0),))


def test_order_follows_the_set_not_the_base():
    line = AffinePlane((3, 0), ((1, 0),))  # the x-axis, reduced base (0, 0)
    point = AffinePlane((1, 0))
    assert line < point
    assert not point < line
    assert sorted([point, line]) == [line, point]


def test_contains_point_running_example():
    plane = AffinePlane((0, 0, 1), ((1, 0, -2),))
    assert plane.contains_point((0, 0, 1))
    assert plane.contains_point((F(3, 2), 0, -2))
    assert not plane.contains_point((0, 0, 0))


def test_plane_contains():
    line = AffinePlane((0, 0), ((1, 1),))
    whole = AffinePlane((0, 0), ((1, 0), (0, 1)))
    assert plane_contains(whole, line)
    assert not plane_contains(line, whole)
    point = AffinePlane((2, 2))
    assert plane_contains(line, point)
    assert not plane_contains(line, AffinePlane((2, 3)))
    with pytest.raises(ValueError):
        plane_contains(line, AffinePlane((0, 0, 0)))


def test_quasidegree_set_membership():
    q = QuasidegreeSet(
        (
            AffinePlane((0, 0), ((1, 0),)),
            AffinePlane((0, 1)),
        )
    )
    assert q.contains_point((5, 0))
    assert q.contains_point((0, 1))
    assert not q.contains_point((1, 1))
    assert not QuasidegreeSet(()).contains_point(())  # empty union in Q^0


def test_quasidegree_set_collapses_set_equal_planes_to_least_base():
    # the monomial_demo case: the line Q recorded from two standard pairs,
    # once with a repeated span vector, plus a copy based at 3
    planes = [
        AffinePlane((0,), ((1,),)),
        AffinePlane((0,), ((1,), (1,))),
        AffinePlane((3,), ((2,),)),
    ]
    for perm in itertools.permutations(planes):
        q = QuasidegreeSet(perm)
        assert len(q) == 1
        (p,) = q.planes
        assert p.base == (F(0),)
        assert p.span == ((F(1),),)
    two = QuasidegreeSet(
        (AffinePlane((5, 1), ((1, 0),)), AffinePlane((-2, 1), ((3, 0),)))
    )
    assert [p.base for p in two] == [(F(-2), F(1))]
    assert remove_redundancy(two) == two


def test_least_base_is_read_from_the_bases_as_given():
    # integer bases, as on the monomial route, and Fraction ones compare
    # as numbers; no plane builds its Fractions until they are read
    for perm in itertools.permutations([(5, 1), (F(-3), 1), (-2, 1)]):
        line = Span([(2, 0)])
        (p,) = QuasidegreeSet(AffinePlane._on(line, base) for base in perm).planes
        assert p._base == (-3, 1)
        assert "base" not in p.__dict__ and "span" not in p.__dict__
        assert "rref" not in line.__dict__
        assert p.base == (F(-3), F(1)) and p.span == ((F(1), F(0)),)


def test_remove_redundancy_chain():
    point = AffinePlane((0, 0))
    line = AffinePlane((0, 0), ((1, 0),))
    plane = AffinePlane((0, 0), ((1, 0), (0, 1)))
    out = remove_redundancy(QuasidegreeSet((point, line, plane)))
    assert out.planes == (plane,)


def test_remove_redundancy_properties_random():
    rng = random.Random(41)
    shuffler = random.Random(42)  # kept apart so the planes drawn stay the same
    for _ in range(40):
        d = rng.randint(1, 3)
        planes = [random_plane(rng, d) for _ in range(rng.randint(1, 5))]
        out = remove_redundancy(QuasidegreeSet(tuple(planes)))
        # pairwise incomparable
        for a in out:
            for b in out:
                if a is not b:
                    assert not plane_contains(a, b)
        # union preserved: sampled points of every input plane stay inside,
        # and output planes are input planes
        for p in planes:
            for _ in range(5):
                pt = random_point_on(rng, p)
                assert out.contains_point(pt)
        for a in out:
            assert any(a == p and a.base == p.base for p in planes)
        # idempotent, and its planes are already one QuasidegreeSet
        again = remove_redundancy(out)
        assert again.planes == out.planes
        assert QuasidegreeSet(out.planes).planes == out.planes
        # the set does not depend on the order of its planes
        shuffled = planes[:]
        shuffler.shuffle(shuffled)
        q = QuasidegreeSet(tuple(planes))
        r = QuasidegreeSet(tuple(shuffled))
        assert r == q
        assert [p.base for p in r] == [p.base for p in q]


def test_sorting_is_deterministic():
    rng = random.Random(43)
    planes = [random_plane(rng, 2) for _ in range(6)]
    out1 = remove_redundancy(QuasidegreeSet(tuple(planes)))
    out2 = remove_redundancy(QuasidegreeSet(tuple(out1.planes)))
    assert out1.planes == out2.planes


def test_containment_matches_point_sampling():
    rng = random.Random(47)
    for _ in range(60):
        d = rng.randint(1, 3)
        a = random_plane(rng, d, max_span=2)
        b = random_plane(rng, d, max_span=2)
        if plane_contains(b, a):
            for _ in range(10):
                pt = random_point_on(rng, a)
                assert b.contains_point(pt)


def test_mixed_ambient_dims_rejected():
    with pytest.raises(ValueError):
        QuasidegreeSet((AffinePlane((0,)), AffinePlane((0, 0))))
    with pytest.raises(ValueError):
        AffinePlane((0, 0), ((1,),))
