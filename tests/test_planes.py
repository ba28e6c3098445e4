import itertools
import math
import random
from fractions import Fraction

import pytest

from quasidegrees.planes import (
    AffinePlane,
    QuasidegreeSet,
    coset_key,
    plane_contains,
    remove_redundancy,
    rref_span,
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


def test_coset_key_agrees_exactly_on_points_of_one_translate():
    # integer points, spans with fractional RREF entries among them
    rng = random.Random(13)
    for _ in range(200):
        d = rng.randint(1, 4)
        span = rref_span(
            [rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(0, d))
        )
        key = coset_key(span)
        v = tuple(rng.randint(-4, 4) for _ in range(d))
        w = tuple(rng.randint(-4, 4) for _ in range(d))
        if span and rng.random() < 0.5:
            # move w onto the translate of v through an integer point
            c = rng.randint(-3, 3) * math.lcm(*(x.denominator for x in span[0]))
            w = tuple(int(a + c * x) for a, x in zip(v, span[0]))
        assert all(type(x) is int for x in key(v))
        assert (key(v) == key(w)) == (AffinePlane(v, span) == AffinePlane(w, span))


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
        # idempotent
        again = remove_redundancy(out)
        assert again.planes == out.planes
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
