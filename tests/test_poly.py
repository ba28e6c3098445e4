import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasidegrees.linalg import IntMatrix
from quasidegrees.poly import (
    GREVLEX,
    LEX,
    ColumnLatticeError,
    Elimination,
    GradingNotPositiveError,
    GradedRing,
    Polynomial,
    exps_divides,
    exps_lcm,
    find_heft,
    graded_ring,
    standard_graded_ring,
)

A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))


def exps_strategy(nvars, cap=6):
    return st.tuples(*[st.integers(0, cap) for _ in range(nvars)])


def poly_strategy(nvars):
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    return st.lists(st.tuples(exps_strategy(nvars, 4), coeff), max_size=5).map(
        lambda ts: Polynomial(nvars, ts)
    )


# --- term orders ---


def test_grevlex_examples():
    # x^2 > x*y > y^2 > x > y > 1 in two variables
    seq = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]
    for a, b in zip(seq, seq[1:]):
        assert GREVLEX.compare(a, b) == 1
    # degree dominates
    assert GREVLEX.compare((1, 0), (0, 2)) == -1


def test_lex_examples():
    assert LEX.compare((1, 0), (0, 2)) == 1
    assert LEX.compare((0, 1), (0, 2)) == -1


def test_elimination_order_blocks():
    # first variable is eliminated: anything containing it beats anything free of it
    ORD = Elimination(1)
    assert ORD.compare((1, 0, 0), (0, 5, 5)) == 1
    assert ORD.compare((0, 2, 0), (1, 0, 0)) == -1
    # on block-free monomials it restricts to grevlex
    assert ORD.compare((0, 2, 0), (0, 1, 1)) == GREVLEX.compare((2, 0), (1, 1))


@given(exps_strategy(3), exps_strategy(3), exps_strategy(3))
def test_orders_are_term_orders(a, b, c):
    from quasidegrees.poly import exps_add

    for order in (GREVLEX, LEX, Elimination(1), Elimination(2)):
        # 1 is minimal
        assert order.compare(a, (0, 0, 0)) >= 0
        # multiplicative
        cmp_ab = order.compare(a, b)
        assert order.compare(exps_add(a, c), exps_add(b, c)) == cmp_ab


def test_compare_length_mismatch():
    with pytest.raises(ValueError):
        GREVLEX.compare((1, 0), (1, 0, 0))


# --- polynomial arithmetic ---


def test_polynomial_combines_and_drops_zeros():
    f = Polynomial(2, [((1, 0), 1), ((1, 0), -1), ((0, 1), 2)])
    assert f.terms == {(0, 1): Fraction(2)}
    assert Polynomial(2) == Polynomial.zero(2)
    assert not Polynomial.zero(2)


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial(2, [((1,), 1)])
    with pytest.raises(ValueError):
        Polynomial(2, [((-1, 0), 1)])


@pytest.mark.parametrize("j", [2, 5, -1])
def test_variable_rejects_an_index_out_of_range(j):
    with pytest.raises(ValueError, match="variable index"):
        Polynomial.variable(2, j)


def test_variable_is_a_single_exponent_one():
    assert Polynomial.variable(3, 1).terms == {(0, 1, 0): Fraction(1)}
    assert Polynomial.variable(3, 1) == Polynomial.monomial((0, 1, 0))


def test_lead_term():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    f = x * y + y * y * y
    assert f.lead_term(GREVLEX) == ((0, 3), Fraction(1))
    assert f.lead_term(LEX) == ((1, 1), Fraction(1))
    with pytest.raises(ValueError):
        Polynomial.zero(2).lead_term(GREVLEX)


@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Polynomial.zero(2)
    assert f * Polynomial.constant(2, 1) == f


@given(poly_strategy(2), st.integers(0, 4))
def test_powers(f, k):
    expected = Polynomial.constant(2, 1)
    for _ in range(k):
        expected = expected * f
    assert f ** k == expected


def test_power_does_no_squaring_past_the_last_bit(monkeypatch):
    f = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    expected = Polynomial.constant(2, 1)
    for _ in range(16):
        expected = expected * f
    calls = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    assert f ** 16 == expected
    # four squarings reach f^16, one product takes it into the result
    assert len(calls) == 5


def test_power_of_a_monomial_scales_its_exponents(monkeypatch):
    f = Polynomial.monomial((2, 0, 1), Fraction(3, 2))
    products = []
    for k in range(8):
        expected = Polynomial.constant(3, 1)
        for _ in range(k):
            expected = expected * f
        products.append(expected)
    zero = Polynomial.zero(3)
    monkeypatch.setattr(Polynomial, "__mul__", None)  # no product on this path
    for k, expected in enumerate(products):
        assert f**k == expected
    assert (f**7).terms == {(14, 0, 7): Fraction(2187, 128)}
    monkeypatch.undo()
    assert zero**0 == Polynomial.constant(3, 1)
    assert zero**3 == zero


# --- graded rings ---


def test_standard_grading():
    R = standard_graded_ring(("x", "y", "z"))
    assert R.multidegree((1, 2, 0)) == (3,)
    assert R.degree_sum == (3,)
    assert R.heft == (1,)


def test_running_example_ring():
    R = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    assert R.heft == (1, 0, 0)
    assert R.degree(4) == (1, 0, -2)
    assert R.degree_sum == (5, 2, 0)
    assert R.multidegree((1, 1, 0, 0, 0)) == (2, 0, 1)


@pytest.mark.parametrize("seed", range(4))
def test_degrees_read_once_agree_with_the_degree_matrix(seed):
    rng = random.Random(seed)
    rows = [[1] * 6] + [[rng.randint(-3, 5) for _ in range(6)] for _ in range(2)]
    rows[1][:3] = [0, 1, 0]
    rows[2][:3] = [0, 0, 1]
    R = graded_ring(tuple("abcdef"), rows)
    A = R.degree_matrix
    for j in range(R.nvars):
        assert R.degree(j) == A.column(j)
        assert R.weights[j] == sum(h * a for h, a in zip(R.heft, A.column(j)))
    for _ in range(50):
        e = tuple(rng.randint(0, 7) for _ in range(R.nvars))
        assert R.multidegree(e) == A.mul_vec(e)
        assert R.multidegree(list(e)) == A.mul_vec(e)
        assert R.heft_degree(e) == sum(h * b for h, b in zip(R.heft, A.mul_vec(e)))
    with pytest.raises(ValueError):
        R.multidegree((1,) * (R.nvars + 1))


def test_grading_positivity_rejected():
    # degrees 1 and -1 on a line cannot be positively graded
    with pytest.raises(GradingNotPositiveError):
        graded_ring(("x", "y"), [[1, -1]])


def test_column_lattice_must_be_full():
    with pytest.raises(ColumnLatticeError):
        graded_ring(("x", "y"), [[2, 4]])


def test_find_heft_needs_search():
    # neither a standard basis vector nor all-ones works here
    A = [[1, -1], [-1, 2]]
    h = find_heft(A)
    cols = list(zip(*A))
    assert all(sum(hi * ai for hi, ai in zip(h, col)) > 0 for col in cols)


def test_find_heft_raises_when_impossible():
    with pytest.raises(GradingNotPositiveError):
        find_heft([[1, -1]])


def test_find_heft_decides_no_heft_quickly():
    # a zero column rules a heft out, and neither fast path applies
    rng = random.Random(1)
    A = [[rng.randint(0, 3) for _ in range(22)] for _ in range(6)]
    zero = rng.randrange(22)
    for row in A:
        row[zero] = 0
    start = time.perf_counter()
    with pytest.raises(GradingNotPositiveError):
        find_heft(A)
    assert time.perf_counter() - start < 5


def test_find_heft_finds_hidden_heft():
    # columns drawn on the positive side of a mixed-sign h0; on this seed
    # no unit vector and not the all-ones vector is a heft of any of them
    rng = random.Random(3)
    for d, n in ((3, 8), (4, 12), (6, 22)):
        h0 = [rng.choice((-2, -1, 1, 2)) * (-1) ** i for i in range(d)]
        cols = []
        while len(cols) < n:
            c = [rng.randint(-3, 3) for _ in range(d)]
            if sum(map(int.__mul__, h0, c)) > 0:
                cols.append(c)
        h = find_heft([list(row) for row in zip(*cols)])
        assert all(sum(map(int.__mul__, h, c)) > 0 for c in cols)


@given(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=2))
def test_find_heft_agrees_with_a_grid_search(rows):
    # for d <= 2 and entries in [-2, 2], a nonempty open cone of hefts
    # holds a column or the sum of its two boundary rays, each a column
    # turned by a right angle: an integer point with entries at most 4
    cols = list(zip(*rows))
    grid = [h for h in itertools.product(range(-12, 13), repeat=len(rows)) if any(h)]
    exists = any(all(sum(map(int.__mul__, h, c)) > 0 for c in cols) for h in grid)
    try:
        h = find_heft(rows)
    except GradingNotPositiveError:
        assert not exists
    else:
        assert all(sum(map(int.__mul__, h, c)) > 0 for c in cols)


def test_homogeneous_degree():
    R = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    f = Polynomial(5, [((1, 0, 1, 0, 0), 1), ((0, 1, 0, 1, 0), -1)])
    assert {R.multidegree(e) for e in f.terms} == {(2, 1, 1)}
    g = Polynomial(5, [((1, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 0), 1)])
    assert {R.multidegree(e) for e in g.terms} == {(1, 0, 0), (1, 0, 1)}


def test_monomials_of_degree_standard():
    R = standard_graded_ring(("x", "y"))
    mons = sorted(R.monomials_of_degree((2,)))
    assert mons == [(0, 2), (1, 1), (2, 0)]
    assert list(R.monomials_of_degree((-1,))) == []


def test_monomials_of_degree_torus_direction():
    # with a negative entry in the degree matrix the fiber is still finite
    R = graded_ring(("x1", "x2", "x3", "x4", "x5"), A35)
    mons = list(R.monomials_of_degree((2, 0, 1)))
    assert (1, 1, 0, 0, 0) in mons
    for m in mons:
        assert R.multidegree(m) == (2, 0, 1)
    assert len(mons) == len(set(mons))


def test_monomials_of_degree_counts_match_binomial():
    R = standard_graded_ring(("x", "y", "z"))
    for k in range(5):
        count = sum(1 for _ in R.monomials_of_degree((k,)))
        assert count == (k + 1) * (k + 2) // 2


@given(st.integers(0, 10_000))
def test_monomials_of_degree_random_fibers(seed):
    rng = random.Random(seed)
    R = graded_ring(("a", "b", "c"), [[1, 1, 1], [0, 1, rng.randint(-2, 2)]])
    beta = (rng.randint(0, 4), rng.randint(-3, 3))
    mons = list(R.monomials_of_degree(beta))
    assert len(mons) == len(set(mons))
    for m in mons:
        assert R.multidegree(m) == beta


def test_exps_helpers():
    assert exps_divides((1, 0), (2, 5))
    assert not exps_divides((3, 0), (2, 5))
    assert exps_lcm((1, 2), (2, 0)) == (2, 2)
