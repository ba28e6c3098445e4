import itertools
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    brute_force_standard_pairs,
    delta_walk_standard_pairs,
    random_monomial_ideal,
    scale_monomial_ideal,
)
from quasidegrees.poly import exps_divides
from quasidegrees.stdpairs import (
    StandardPair,
    degree_via_pairs,
    minimal_generators,
    pair_contains,
    standard_pairs,
)


def in_ideal(e, gens):
    return any(exps_divides(g, e) for g in gens)


def brute_force_valid(root, face, gens, nvars, depth=4):
    """Does every monomial root * (face monomials) avoid the ideal?

    Checked up to extra exponent `depth` in each face direction; by
    projection this bound is exact once depth exceeds the generator
    exponents.
    """
    face = sorted(face)
    for combo in itertools.product(range(depth + 1), repeat=len(face)):
        e = list(root)
        for i, v in zip(face, combo):
            e[i] += v
        if in_ideal(tuple(e), gens):
            return False
    return True


def all_valid_pairs(gens, nvars, maxexp):
    out = []
    for bits in range(1 << nvars):
        face = frozenset(i for i in range(nvars) if bits >> i & 1)
        comp = [i for i in range(nvars) if i not in face]
        for combo in itertools.product(*[range(maxexp[i] + 1) for i in comp]):
            root = [0] * nvars
            for i, v in zip(comp, combo):
                root[i] = v
            if brute_force_valid(tuple(root), face, gens, nvars, depth=max(maxexp, default=0) + 1):
                out.append(StandardPair(tuple(root), face))
    return out


def test_pair_validation():
    with pytest.raises(ValueError):
        StandardPair((1, 0), frozenset({0}))
    with pytest.raises(ValueError):
        StandardPair((1, 0), frozenset({5}))


def test_minimal_generators():
    assert minimal_generators([(2, 0), (1, 0), (1, 0), (1, 2)]) == [(1, 0)]
    assert minimal_generators([]) == []


def test_pair_contains():
    p = StandardPair((0, 0, 0), frozenset({1}))
    q = StandardPair((0, 0, 0), frozenset({0, 1}))
    assert pair_contains(p, q)
    assert not pair_contains(q, p)
    r = StandardPair((1, 0, 0), frozenset({1}))
    assert pair_contains(r, q)
    assert not pair_contains(q, r)
    assert not pair_contains(r, StandardPair((0, 0, 0), frozenset({1})))


def test_standard_pairs_golden_two_gens():
    # <x*y, y*z> in Q[x,y,z]
    pairs = standard_pairs([(1, 1, 0), (0, 1, 1)], 3)
    assert [(p.root, tuple(sorted(p.face))) for p in pairs] == [
        ((0, 0, 0), (0, 2)),
        ((0, 0, 0), (1,)),
    ]
    assert degree_via_pairs([(1, 1, 0), (0, 1, 1)], 3) == 1


def test_standard_pairs_principal_power():
    # <x^2> in Q[x,y]: two pairs along the y-axis
    pairs = standard_pairs([(2, 0)], 2)
    assert [(p.root, tuple(sorted(p.face))) for p in pairs] == [
        ((0, 0), (1,)),
        ((1, 0), (1,)),
    ]
    assert degree_via_pairs([(2, 0)], 2) == 2


def test_standard_pairs_zero_and_unit_ideal():
    pairs = standard_pairs([], 3)
    assert [(p.root, tuple(sorted(p.face))) for p in pairs] == [((0, 0, 0), (0, 1, 2))]
    assert degree_via_pairs([], 3) == 1
    assert standard_pairs([(0, 0, 0)], 3) == []
    assert degree_via_pairs([(0, 0, 0)], 3) == 0


def test_standard_pairs_initial_ideal_of_running_example():
    # in(I_A) for the 3x5 matrix: <x1*x3, x1*x4^2, x1^2*x4, x1^3, x2*x4^3>
    gens = [
        (1, 0, 1, 0, 0),
        (1, 0, 0, 2, 0),
        (2, 0, 0, 1, 0),
        (3, 0, 0, 0, 0),
        (0, 1, 0, 3, 0),
    ]
    pairs = standard_pairs(gens, 5)
    top = [p for p in pairs if p.dimension == 3]
    expected = {
        ((0, 0, 0, 0, 0), frozenset({1, 2, 4})),
        ((0, 0, 0, 1, 0), frozenset({1, 2, 4})),
        ((0, 0, 0, 2, 0), frozenset({1, 2, 4})),
        ((0, 0, 0, 0, 0), frozenset({2, 3, 4})),
    }
    assert {(p.root, p.face) for p in top} == expected
    assert degree_via_pairs(gens, 5) == 4


def test_standard_pairs_properties_random():
    rng = random.Random(31)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        gens = random_monomial_ideal(rng, nvars, max_gens=3, max_exp=3)
        pairs = standard_pairs(gens, nvars)
        # pairwise incomparable
        for p in pairs:
            for q in pairs:
                if p is not q:
                    assert not pair_contains(p, q)
        # every box monomial outside I is covered; covered monomials are outside I
        box = 5
        for e in itertools.product(range(box + 1), repeat=nvars):
            covered = any(p.contains_exps(e) for p in pairs)
            assert covered == (not in_ideal(e, gens))
        # true maximality against a brute-force pair enumeration
        mg = minimal_generators(gens)
        if any(not any(g) for g in mg):
            continue
        maxexp = [max((g[i] for g in mg), default=0) for i in range(nvars)]
        valid = all_valid_pairs(mg, nvars, maxexp)
        for p in pairs:
            assert not any(q != p and pair_contains(p, q) for q in valid)
        # and completeness: every valid pair is contained in a returned pair
        for q in valid:
            assert any(pair_contains(q, p) for p in pairs)


def _assert_matches_references(gens, nvars, brute_force=True):
    pairs = standard_pairs(gens, nvars)
    assert pairs == delta_walk_standard_pairs(gens, nvars)
    if brute_force:
        assert pairs == brute_force_standard_pairs(gens, nvars)
    return pairs


def test_standard_pairs_match_brute_force():
    rng = random.Random(20261018)
    cases = [
        ([], 3),  # zero ideal
        ([(0, 0, 0)], 3),  # unit ideal
        ([(1, 2), (0, 0), (3, 1)], 2),  # unit ideal among other generators
        ([(2, 1), (1, 1), (2, 1), (3, 0), (1, 3)], 2),  # repeats and multiples
    ]
    while len(cases) < 220:
        nvars = rng.randint(1, 4)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(nvars))
            for _ in range(rng.randint(0, 5))
        ]
        if gens and rng.random() < 0.5:
            # a multiple of a generator makes the generating set non-minimal
            g = rng.choice(gens)
            gens.append(tuple(e + rng.randint(0, 2) for e in g))
        cases.append((gens, nvars))
    # pure powers x_i^a: every face holding i leaves the complex of faces
    # with I_Z != R, so whole stars of faces are skipped
    while len(cases) < 300:
        nvars = rng.randint(2, 5)
        gens = [
            tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in range(nvars))
            for _ in range(rng.randint(1, 4))
        ]
        for i in rng.sample(range(nvars), rng.randint(1, nvars - 1)):
            gens.append(tuple(rng.randint(1, 3) if j == i else 0 for j in range(nvars)))
        cases.append((gens, nvars))
    for gens, nvars in cases:
        _assert_matches_references(gens, nvars)


def test_standard_pairs_match_brute_force_five_variables():
    gens = [
        (2, 1, 0, 0, 1),
        (0, 3, 1, 0, 0),
        (1, 0, 2, 2, 0),
        (0, 0, 0, 3, 1),
        (3, 0, 0, 1, 2),
        (0, 1, 1, 0, 3),
    ]
    assert standard_pairs(gens, 5) == brute_force_standard_pairs(gens, 5)


def _ideal_with_top_exponent(rng, nvars, top):
    """A random ideal whose largest minimal-generator exponent is ``top``:
    x_i^top, or x_i^top times another variable, beside generators with
    entries below ``top``."""
    while True:
        gens = [
            tuple(rng.randint(0, min(top - 1, 3)) for _ in range(nvars))
            for _ in range(rng.randint(0, 3))
        ]
        g = [0] * nvars
        i = rng.randrange(nvars)
        g[i] = top
        if nvars > 1 and rng.random() < 0.5:
            g[rng.choice([j for j in range(nvars) if j != i])] = 1
        gens.insert(rng.randint(0, len(gens)), tuple(g))
        if tuple(g) in minimal_generators(gens):
            return gens


# largest exponents 2^k - 1, 2^k and 2^k + 1: the first is the largest a
# field of w = k data bits holds, the other two need w = k + 1
@pytest.mark.parametrize("top", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
def test_standard_pairs_match_references_at_field_boundaries(top):
    rng = random.Random(1000 + top)
    for _ in range(8):
        nvars = rng.randint(1, 3)
        gens = _ideal_with_top_exponent(rng, nvars, top)
        small_box = top <= 9 or nvars == 1
        _assert_matches_references(gens, nvars, brute_force=small_box)


def test_standard_pairs_large_exponent_beside_exponent_one():
    cases = [
        ([(1000, 0)], 2),
        ([(1000, 1, 0), (0, 1, 1)], 3),
        ([(1000, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 1), (0, 0, 1, 0)], 4),
        ([(0, 1, 1, 0), (1000, 0, 0, 1), (1, 0, 1, 0), (0, 0, 0, 2)], 4),
    ]
    for gens, nvars in cases:
        pairs = _assert_matches_references(gens, nvars, brute_force=False)
        assert max(max(p.root) for p in pairs) == 999
    # x^1000 * y: the roots x^0 .. x^999 along y and y^0 along x
    assert len(standard_pairs([(1000, 1)], 2)) == 1001


def test_standard_pairs_one_variable():
    for gens in ([], [(0,)], [(1,)], [(5,)], [(5,), (3,), (8,)], [(7,), (0,)], [(64,)]):
        _assert_matches_references(gens, 1)
    _assert_matches_references([(1000,)], 1, brute_force=False)
    assert [p.root for p in standard_pairs([(5,), (8,)], 1)] == [(e,) for e in range(5)]


@pytest.mark.parametrize("top", [7, 8, 9, 16, 33])
def test_standard_pairs_sixteen_variables(top):
    # twelve variables lie in the ideal (nine with exponent 1, three with 2),
    # so the faces live on the other four, x_15 among them: the field at
    # the top of each word carries the largest exponent, in one generator
    rng = random.Random(top)
    nvars = 16
    free = rng.sample(range(15), 3) + [15]
    gens = []
    for j, k in enumerate(j for j in range(nvars) if j not in free):
        gens.append(tuple((2 if j < 3 else 1) if i == k else 0 for i in range(nvars)))
    while len(gens) < 16:
        g = tuple(rng.randint(0, 3) if i in free[:3] else 0 for i in range(nvars))
        if any(g):
            gens.append(g)
    gens.append(tuple(top if i == 15 else int(i == free[0]) for i in range(nvars)))
    pairs = _assert_matches_references(gens, nvars, brute_force=False)
    assert max(p.root[15] for p in pairs) == top - 1


def test_standard_pairs_repeated_non_minimal_and_zero_generators():
    cases = [
        ([(2, 1, 0), (2, 1, 0), (2, 1, 0)], 3),
        ([(1, 1, 0), (2, 1, 0), (1, 3, 2), (1, 1, 0)], 3),
        ([(0, 0), (3, 1)], 2),  # a zero generator: the unit ideal
        ([(0, 0, 0)], 3),
        ([(4, 0), (0, 0), (4, 0)], 2),
        ([(8, 1), (8, 1), (16, 1), (0, 9)], 2),
    ]
    for gens, nvars in cases:
        _assert_matches_references(gens, nvars)
    assert standard_pairs([(0, 0), (3, 1)], 2) == []
    assert standard_pairs([(2, 1, 0), (2, 1, 0)], 3) == standard_pairs([(2, 1, 0)], 3)


def _check_cover_and_maximality(gens, nvars, pairs, bound):
    """Every pair avoids the ideal, is maximal and is contained in no other
    pair, and the pairs cover exactly the standard monomials of the box
    [0, bound]^nvars."""

    def admissible(root, face):
        return not any(
            all(g[j] <= root[j] for j in range(nvars) if j not in face) for g in gens
        )

    for p in pairs:
        assert admissible(p.root, p.face)
        for i in range(nvars):
            if i not in p.face:
                wider = p.root[:i] + (0,) + p.root[i + 1 :]
                assert not admissible(wider, p.face | {i})
        for q in pairs:
            assert p is q or not pair_contains(p, q)
    covered = set()
    for p in pairs:
        axes = [
            range(bound + 1) if i in p.face else (p.root[i],) for i in range(nvars)
        ]
        covered.update(itertools.product(*axes))
    outside = {
        e
        for e in itertools.product(range(bound + 1), repeat=nvars)
        if not in_ideal(e, gens)
    }
    assert covered == outside


def test_standard_pairs_six_variables_cover_and_maximality():
    # the box search and pairwise filter took over a minute on ideals of
    # this shape
    rng = random.Random(6)
    nvars = 6
    gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(7)]
    t0 = time.perf_counter()
    pairs = standard_pairs(gens, nvars)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"standard_pairs took {elapsed:.1f}s"
    _check_cover_and_maximality(gens, nvars, pairs, bound=6)


def test_standard_pairs_ten_variables_cover_and_maximality():
    # the time bound fails a walk over all 2^10 faces that intersects full
    # lcm products for each (about 2 s with Python 3.11 on a 2-core VM)
    nvars = 10
    gens = scale_monomial_ideal(nvars, 16, 2, seed=10)
    t0 = time.perf_counter()
    pairs = standard_pairs(gens, nvars)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.5, f"standard_pairs took {elapsed:.1f}s"
    assert len(pairs) == 399
    # every root exponent is below the largest generator exponent, 2, so
    # the box [0, 2]^10 holds every root and a step past it along each face
    _check_cover_and_maximality(gens, nvars, pairs, bound=2)


@pytest.mark.parametrize(
    "gens",
    [
        [(1.5, 2)],
        [(1, Fraction(1, 2))],
        [(-1, 2)],
        [(1, 0), (0, -3)],
    ],
)
def test_non_integral_or_negative_exponents_are_rejected(gens):
    with pytest.raises(ValueError):
        standard_pairs(gens, 2)
    with pytest.raises(ValueError):
        degree_via_pairs(gens, 2)


def test_integral_exponents_of_other_types_are_accepted():
    assert standard_pairs([(2.0, Fraction(4, 2))], 2) == standard_pairs([(2, 2)], 2)
