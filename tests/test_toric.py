import itertools
import random
import time

import pytest

from helpers import (
    WIDE_KERNEL,
    all_variables_toric_ideal,
    elimination_toric_ideal,
    hilbert_quotient_dim,
    random_toric_matrix,
    standard_monomial_count,
)
from quasidegrees import groebner, poly, toric
from quasidegrees.groebner import buchberger, ideal_equal, normal_form
from quasidegrees.linalg import IntMatrix, integer_kernel, lll_reduce, rational_rank
from quasidegrees.parse import parse_polynomial
from quasidegrees.poly import (
    GREVLEX,
    LEX,
    ColumnLatticeError,
    GradingNotPositiveError,
    Polynomial,
    find_heft,
    graded_ring,
    standard_graded_ring,
)
from quasidegrees.stdpairs import degree_via_pairs
from quasidegrees.toric import (
    normalized_volume,
    saturating_variables,
    to_a_graded_ring,
    toric_ideal,
    toric_volume,
)

A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))


def curve(exponents):
    return IntMatrix(((1,) * len(exponents), tuple(exponents)))


# the running example, the Sturmfels-Takayama curve, the rational normal
# curves of degree 3-6, a gap curve, the 3-cube and a hexagon
CORPUS = {
    "A35": A35,
    "sturmfels_takayama": curve((0, 1, 3, 4)),
    **{f"rnc{k}": curve(tuple(range(k + 1))) for k in range(3, 7)},
    "gap_0259": curve((0, 2, 5, 9)),
    "cube": IntMatrix(
        (
            (1,) * 8,
            (0, 1, 0, 1, 0, 1, 0, 1),
            (0, 0, 1, 1, 0, 0, 1, 1),
            (0, 0, 0, 0, 1, 1, 1, 1),
        )
    ),
    "hexagon": IntMatrix(((1,) * 6, (0, 1, 2, 2, 1, 0), (0, 0, 1, 2, 2, 1))),
}


def test_to_a_graded_ring_defaults():
    R = to_a_graded_ring(A35)
    assert R.names == ("x1", "x2", "x3", "x4", "x5")
    assert R.heft == (1, 0, 0)


def test_to_a_graded_ring_errors():
    with pytest.raises(GradingNotPositiveError):
        to_a_graded_ring([[1, -1]])
    with pytest.raises(ColumnLatticeError):
        to_a_graded_ring([[2, 4]])


@pytest.mark.parametrize(
    "A,binomial",
    [([[1, -1]], {(1, 1): 1, (0, 0): -1}), ([[2, 4]], {(2, 0): 1, (0, 1): -1})],
    ids=["no_heft", "proper_column_lattice"],
)
def test_toric_ideal_without_a_ring_needs_no_grading_by_A(A, binomial):
    # A grades no ring here, yet I_A is defined: in grevlex over one
    # variable per column; only the volume needs a heft and Z^d
    expected = [Polynomial(2, binomial.items())]
    assert toric_ideal(A) == expected
    assert toric_ideal(A, standard_graded_ring(("x0", "x1"))) == expected


def test_toric_ideal_twisted_cubic():
    # the twisted cubic, degree 3
    A = [[1, 1, 1, 1], [0, 1, 2, 3]]
    R = to_a_graded_ring(A, ("a", "b", "c", "d"))
    I = toric_ideal(A, R)
    expected = [
        parse_polynomial(s, R)
        for s in ("b^2 - a*c", "b*c - a*d", "c^2 - b*d")
    ]
    assert ideal_equal(I, expected, R.order)
    assert normalized_volume(A) == 3


def test_toric_ideal_segre():
    # A = [[1,1,0,0],[0,0,1,1],[1,0,1,0]]: 2x2 minors flavor, one binomial
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]]
    R = to_a_graded_ring(A)
    I = toric_ideal(A, R)
    x1, x2, x3, x4 = (parse_polynomial(n, R) for n in R.names)
    assert ideal_equal(I, [x1 * x4 - x2 * x3], R.order)
    assert normalized_volume(A) == 2


def test_toric_ideal_running_example_golden():
    R = to_a_graded_ring(A35)
    I = toric_ideal(A35, R)
    expected = [
        parse_polynomial(s, R)
        for s in (
            "x1*x3 - x2*x4",
            "x1*x4^2 - x3^2*x5",
            "x1^2*x4 - x2*x3*x5",
            "x1^3 - x2^2*x5",
        )
    ]
    assert ideal_equal(I, expected, R.order)
    # every element of the basis is homogeneous for the A grading
    for f in I:
        assert len({R.multidegree(e) for e in f.terms}) == 1


def test_running_example_initial_ideal_and_volume():
    R = to_a_graded_ring(A35)
    I = toric_ideal(A35, R)
    # I is a reduced basis, so its lead terms generate the initial ideal
    lead = sorted(f.lead_term(R.order)[0] for f in I)
    assert lead == [
        (0, 1, 0, 3, 0),
        (1, 0, 0, 2, 0),
        (1, 0, 1, 0, 0),
        (2, 0, 0, 1, 0),
        (3, 0, 0, 0, 0),
    ]
    assert degree_via_pairs(lead, 5) == 4
    assert normalized_volume(A35) == 4


def test_volume_of_identity_is_one():
    assert normalized_volume([[1, 0], [0, 1]]) == 1
    assert toric_ideal([[1, 0], [0, 1]]) == []


def test_volume_of_segment():
    # A = [1 2]: vol = 2
    assert normalized_volume([[1, 2]]) == 2
    A = [[1, 3]]
    assert normalized_volume(A) == 3


def test_toric_membership_oracle():
    # x^u - x^v lies in I_A exactly when A u = A v; spot-check both ways
    R = to_a_graded_ring(A35)
    I = toric_ideal(A35, R)
    gb = buchberger(I, R.order)
    kernel_vec = (1, -1, 1, -1, 0)
    plus = tuple(max(x, 0) for x in kernel_vec)
    minus = tuple(max(-x, 0) for x in kernel_vec)
    from quasidegrees.poly import Polynomial

    f = Polynomial(5, [(plus, 1), (minus, -1)])
    assert normal_form(f, gb).is_zero()
    g = parse_polynomial("x1 - x2", R)
    assert not normal_form(g, gb).is_zero()


def test_toric_hilbert_function_matches_volume_ideal():
    # graded pieces of R/I_A are 1-dimensional exactly on the saturated
    # semigroup; sample degrees of monomials and compare with the initial
    # ideal count (Hilbert function invariance under taking lead terms)
    R = to_a_graded_ring(A35)
    I = toric_ideal(A35, R)
    lead = [f.lead_term(R.order)[0] for f in I]
    rng = random.Random(61)
    for _ in range(12):
        e = tuple(rng.randint(0, 2) for _ in range(5))
        beta = R.multidegree(e)
        assert hilbert_quotient_dim(R, I, beta) == standard_monomial_count(R, lead, beta)


def test_random_kernel_binomials_vanish_in_toric_ideal():
    rng = random.Random(67)
    from quasidegrees.poly import Polynomial

    R = to_a_graded_ring(A35)
    I = toric_ideal(A35, R)
    gb = buchberger(I, R.order)
    basis = integer_kernel(A35)
    for _ in range(15):
        u = [0] * 5
        for v in basis:
            c = rng.randint(-2, 2)
            u = [a + c * b for a, b in zip(u, v)]
        plus = tuple(max(x, 0) for x in u)
        minus = tuple(max(-x, 0) for x in u)
        f = Polynomial(5, [(plus, 1), (minus, -1)])
        assert normal_form(f, gb).is_zero()


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_toric_ideal_matches_elimination_reference(name, order):
    A = CORPUS[name]
    R = to_a_graded_ring(A, order=order)
    assert toric_ideal(A, R) == elimination_toric_ideal(A, R)


def test_toric_ideal_matches_elimination_reference_random():
    rng = random.Random(83)
    for _ in range(16):
        A = random_toric_matrix(rng)
        for order in (GREVLEX, LEX):
            R = to_a_graded_ring(A, order=order)
            assert toric_ideal(A, R) == elimination_toric_ideal(A, R), (A, order)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("rows", WIDE_KERNEL, ids=["k25", "k22", "k9", "k13"])
def test_toric_ideal_matches_elimination_reference_wide_kernel(rows, order):
    A = IntMatrix(rows)
    assert max(abs(x) for u in integer_kernel(A) for x in u) > 3
    R = to_a_graded_ring(A, order=order)
    gb = toric_ideal(A, R)
    assert gb == elimination_toric_ideal(A, R)
    assert toric_volume(A, gb, order) == normalized_volume(A)


# its echelon kernel basis has entries up to 100, such as
# (63, -15, -85, 100, -40, 1, 0); the LLL-reduced one stays below 4
LONG_KERNEL = IntMatrix(
    ((1, 1, 2, 2, 2, 2, 2), (2, 0, 1, 0, 1, -1, 2), (2, 2, -1, -1, 2, -1, 2))
)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_toric_ideal_of_a_long_kernel_basis(order):
    R = to_a_graded_ring(LONG_KERNEL, order=order)
    start = time.perf_counter()
    gb = toric_ideal(LONG_KERNEL, R)
    assert time.perf_counter() - start < 2.0
    assert gb == elimination_toric_ideal(LONG_KERNEL, R)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_toric_ideal_weights_come_from_the_matrix(order):
    # rings whose grading is not A: the standard grading leaves a^2 - b
    # inhomogeneous, and saturating in the weights (1, 1, 2, 1) of the
    # second ring's grading would break the criterion on the twisted cubic
    A = IntMatrix(((1, 2, 3),))
    R = standard_graded_ring(("a", "b", "c"), order=order)
    gb = toric_ideal(A, R)
    assert gb == elimination_toric_ideal(A, R)
    expected = [parse_polynomial(s, R) for s in ("a^2 - b", "a*b - c", "b^2 - a*c")]
    assert ideal_equal(gb, expected, order)
    cubic = CORPUS["rnc3"]
    R = graded_ring(("a", "b", "c", "d"), [[1, 1, 2, 1]], order=order)
    assert toric_ideal(cubic, R) == elimination_toric_ideal(cubic, R)


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_toric_ideal_never_searches_for_a_heft(monkeypatch, order):
    # the saturation runs in total degree and reads only the ring's
    # variable count and order: rings graded by A with different hefts,
    # and a ring graded otherwise, need no heft of A
    names = tuple(f"x{j}" for j in range(1, 6))
    expected = elimination_toric_ideal(A35, graded_ring(names, A35, order=order))
    rings = [graded_ring(names, A35, heft, order) for heft in ((1, 0, 0), (3, 1, 1))]
    twisted = IntMatrix(((1, 2, 3),))
    standard = standard_graded_ring(("a", "b", "c"), order=order)
    twisted_expected = elimination_toric_ideal(twisted, standard)

    def refuse(A):
        raise AssertionError("toric_ideal searched for a heft")

    monkeypatch.setattr(poly, "find_heft", refuse)
    for R in rings:
        assert toric_ideal(A35, R) == expected
    assert toric_ideal(twisted, standard) == twisted_expected


def test_toric_ideal_never_saturates_through_elimination(monkeypatch):
    # one saturation loop for every matrix and ring: rings graded by A, a
    # matrix without heft, and rings graded by neither
    cases = [(A, to_a_graded_ring(A)) for A in (A35, CORPUS["rnc4"], CORPUS["cube"])] + [
        (IntMatrix(((1, -1),)), standard_graded_ring(("a", "b"))),
        (IntMatrix(((1, -1, 0, 2), (0, 1, 1, -1))), standard_graded_ring(tuple("abcd"))),
        (IntMatrix(((1, 2, 3),)), standard_graded_ring(tuple("abc"), order=LEX)),
        (CORPUS["rnc3"], graded_ring(tuple("abcd"), [[1, 1, 2, 1]])),
    ]
    expected = [elimination_toric_ideal(A, R) for A, R in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("toric_ideal reached elimination")

    monkeypatch.setattr(groebner, "saturate", refuse)
    monkeypatch.setattr(poly.Elimination, "__init__", refuse)
    for (A, R), gb in zip(cases, expected):
        assert toric_ideal(A, R) == gb, A
    assert normalized_volume(A35) == 4


def test_volume_from_lex_and_grevlex_bases_agree_random():
    rng = random.Random(89)
    for _ in range(16):
        A = random_toric_matrix(rng)
        grevlex = toric_ideal(A, to_a_graded_ring(A, order=GREVLEX))
        lex = toric_ideal(A, to_a_graded_ring(A, order=LEX))
        vol = toric_volume(A, grevlex, GREVLEX)
        assert toric_volume(A, lex, LEX) == vol == normalized_volume(A), A
        homogeneous = rational_rank(A.entries + ((1,) * A.ncols,)) == rational_rank(A.entries)
        if homogeneous:
            # standard-graded I_A: the lex count needs no conversion
            lead = [max(g.terms, key=LEX.key) for g in lex]
            assert degree_via_pairs(lead, A.ncols) == vol, A


def test_volume_of_inhomogeneous_matrix_is_read_in_grevlex():
    # I_A = <x2*x3 - x1>: lex leads with x1 (one top pair), grevlex with
    # x2*x3 (two); the volume is the grevlex count from either basis
    A = IntMatrix(((1, 1, 0), (1, 0, 1)))
    lex = toric_ideal(A, to_a_graded_ring(A, order=LEX))
    assert degree_via_pairs([max(g.terms, key=LEX.key) for g in lex], 3) == 1
    assert toric_volume(A, lex, LEX) == normalized_volume(A) == 2


def test_toric_ideal_of_a_matrix_without_heft():
    # only a ring graded by something else admits A = [[1, -1]]; I_A is
    # <ab - 1>, homogeneous for no positive weights
    A = IntMatrix(((1, -1),))
    R = standard_graded_ring(("a", "b"))
    assert toric_ideal(A, R) == [parse_polynomial("a*b - 1", R)]


def _bad(S, lattice):
    """No vector of the lattice basis meets S on exactly one side."""
    return all(
        any(u[i] > 0 for i in S) == any(u[i] < 0 for i in S) for u in lattice
    )


def _has_bad_subset(T, lattice):
    return any(
        _bad(S, lattice)
        for r in range(1, len(T) + 1)
        for S in itertools.combinations(sorted(T), r)
    )


def test_saturating_variables_leave_no_bad_subset_brute_force():
    rng = random.Random(20261019)
    cases = [[(1, 1)], [(1, 1, 0), (0, 1, -1)], [(-1, -2, 0)], [(1, -1, 0, 0)]]
    for _ in range(300):
        n = rng.randint(1, 7)
        lattice = []
        for _ in range(rng.randint(1, 4)):
            u = [rng.randint(-2, 2) for _ in range(n)]
            sign = rng.random()
            if sign < 0.15:
                u = [abs(x) for x in u]  # x^u - 1
            elif sign < 0.3:
                u = [-abs(x) for x in u]  # 1 - x^(-u)
            lattice.append(tuple(u))
        cases.append(lattice)
    for lattice in cases:
        n = len(lattice[0])
        sigma = saturating_variables(lattice, n)
        assert sigma == sorted(set(sigma)) and all(0 <= j < n for j in sigma)
        skipped = set(range(n)) - set(sigma)
        assert not _has_bad_subset(skipped, lattice), lattice
        # maximal: skipping one more variable leaves a bad subset
        for j in sigma:
            assert _has_bad_subset(skipped | {j}, lattice), (lattice, j)
        # no larger than the sigma of either greedy order
        for order in (reversed(range(n)), range(n)):
            greedy = set()
            for j in order:
                if not _has_bad_subset(greedy | {j}, lattice):
                    greedy.add(j)
            assert len(sigma) <= n - len(greedy), (lattice, sigma, greedy)


SCALE_MATRICES = {
    "3x9": IntMatrix(
        ((1,) * 9, (1, 4, 0, 2, 0, 3, 3, 3, 3), (1, 0, 3, 0, 3, 3, 4, 0, 3))
    ),
    "3x10": IntMatrix(
        ((1,) * 10, (1, 1, 2, 3, 0, 0, 3, 2, 1, 1), (3, 3, 3, 1, 1, 1, 3, 0, 0, 1))
    ),
    "curve7": curve((0, 1, 4, 6, 9, 10, 13)),
    "curve8": curve((4, 18, 2, 8, 3, 15, 14, 15)),
}


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("name", sorted(SCALE_MATRICES))
def test_toric_ideal_matches_all_variables_reference(name, order):
    A = SCALE_MATRICES[name]
    R = to_a_graded_ring(A, order=order)
    assert toric_ideal(A, R) == all_variables_toric_ideal(A, R)


def test_toric_ideal_matches_all_variables_reference_random():
    rng = random.Random(83)
    for _ in range(16):
        A = random_toric_matrix(rng)
        for order in (GREVLEX, LEX):
            R = to_a_graded_ring(A, order=order)
            assert toric_ideal(A, R) == all_variables_toric_ideal(A, R), (A, order)


def _lattice(A):
    return [tuple(u) for u in lll_reduce(integer_kernel(A))]


def test_saturating_variables_of_the_benchmark_and_scale_matrices():
    # the smaller sigma of the two greedy orders, x_n first on a tie
    assert saturating_variables(_lattice(A35), 5) == [0, 2]
    assert saturating_variables(_lattice(curve((0, 1, 3, 4))), 4) == [0, 2]
    assert saturating_variables(_lattice(curve(range(5))), 5) == [1]
    assert saturating_variables(_lattice(curve(range(6))), 6) == [1]
    assert saturating_variables(_lattice(curve((0, 1, 3, 4, 5))), 5) == [2]
    assert saturating_variables(_lattice(SCALE_MATRICES["3x9"]), 9) == [7, 8]


def test_toric_ideal_runs_one_groebner_basis_per_saturating_variable(monkeypatch):
    runs = []

    def counted(*args, **kwargs):
        runs.append(1)
        return groebner.vec_groebner(*args, **kwargs)

    monkeypatch.setattr(toric, "vec_groebner", counted)
    sigma = saturating_variables(_lattice(A35), 5)
    assert len(sigma) < 5
    assert toric_ideal(A35)
    assert len(runs) == len(sigma) + 1


@pytest.mark.parametrize(
    "rows, names, expected, sigma",
    [
        (((1, -1),), "ab", ["a*b - 1"], []),
        (((1, -1, 0, 0), (0, 0, 1, 1)), "abcd", ["a*b - 1", "c - d"], [2]),
        (((1, -1, 0, 2), (0, 1, 1, -1)), "abcd", None, [0]),
    ],
    ids=["ab-1", "ab-1,c-d", "2x4"],
)
def test_toric_ideal_without_heft_saturates_by_sigma(monkeypatch, rows, names, expected, sigma):
    # these lattices have vectors that do not sum to 0, so their lift is
    # saturated, by the sigma of the lattice itself: never by the new
    # variable, which is set to 1 afterwards
    steps, divide_out = [], toric._divide_out

    def counted(g, j):
        steps.append(j)
        return divide_out(g, j)

    monkeypatch.setattr(toric, "_divide_out", counted)
    A = IntMatrix(rows)
    R = standard_graded_ring(tuple(names))
    gb = toric_ideal(A, R)
    assert any(map(sum, _lattice(A)))
    assert list(dict.fromkeys(steps)) == saturating_variables(_lattice(A), A.ncols) == sigma
    if expected is not None:
        assert ideal_equal(gb, [parse_polynomial(s, R) for s in expected], R.order)
    assert gb == elimination_toric_ideal(A, R)


def _random_grading(rng, names, order):
    """A ring on ``names`` graded by a random positive matrix of 2 rows, 1
    for a single variable."""
    n = len(names)
    while True:
        rows = [[rng.randint(1, 3) for _ in range(n)]]
        rows += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(min(n, 2) - 1)]
        try:
            return graded_ring(names, rows, order=order)
        except ColumnLatticeError:
            continue


def test_toric_ideal_matches_elimination_reference_over_gradings():
    # entries -2..3 give matrices without a heft, with zero columns and
    # without a ones row in the row space, so both the lattice as it is and
    # the lifted one are saturated; rings graded by the standard grading
    # and by a positive 2-row matrix, neither of them A
    rng = random.Random(20261021)
    seen = {"lifted": 0, "no heft": 0, "zero column": 0}
    for _ in range(100):
        d, n = rng.randint(1, 2), rng.randint(2, 5)
        A = IntMatrix(tuple(tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(d)))
        names = tuple("abcde"[:n])
        seen["lifted"] += any(map(sum, _lattice(A)))
        seen["zero column"] += any(not any(col) for col in A.columns())
        try:
            find_heft(A)
        except GradingNotPositiveError:
            seen["no heft"] += 1
        for order in (GREVLEX, LEX):
            for R in (standard_graded_ring(names, order=order), _random_grading(rng, names, order)):
                assert toric_ideal(A, R) == elimination_toric_ideal(A, R), (A, R)
    assert min(seen.values()) >= 20, seen


def test_toric_ideal_does_not_depend_on_the_grading():
    # rings graded by A, by the standard grading and by another positive
    # grading give one basis in each order
    rng = random.Random(20261022)
    for _ in range(40):
        A = random_toric_matrix(rng)
        names = tuple(f"x{j}" for j in range(1, A.ncols + 1))
        for order in (GREVLEX, LEX):
            gb = toric_ideal(A, to_a_graded_ring(A, names, order))
            assert toric_ideal(A, standard_graded_ring(names, order=order)) == gb, A
            assert toric_ideal(A, _random_grading(rng, names, order)) == gb, A
