import itertools
import random
import time

import pytest

from helpers import brute_force_standard_pairs, random_monomial_ideal
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
    for gens, nvars in cases:
        assert standard_pairs(gens, nvars) == brute_force_standard_pairs(gens, nvars)


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


def test_standard_pairs_six_variables_cover_and_maximality():
    # the box search and pairwise filter took over a minute on ideals of
    # this shape
    rng = random.Random(6)
    nvars, bound = 6, 6
    gens = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(7)]

    def admissible(root, face):
        return not any(
            all(g[j] <= root[j] for j in range(nvars) if j not in face) for g in gens
        )

    t0 = time.perf_counter()
    pairs = standard_pairs(gens, nvars)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"standard_pairs took {elapsed:.1f}s"
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
