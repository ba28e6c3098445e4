import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import (
    WIDE_KERNEL,
    fraction_lll_reduce,
    gram_schmidt_data,
    random_toric_matrix,
    reference_lll_reduce,
)
from quasidegrees.homology import GradedPresentation
from quasidegrees.linalg import (
    InputError,
    IntMatrix,
    column_lattice_is_full,
    integer_kernel,
    integer_row_echelon,
    lattice_member,
    lll_reduce,
    rational_rank,
    rref,
)
from quasidegrees.planes import AffinePlane, QuasidegreeSet, plane_contains
from quasidegrees.poly import Polynomial, graded_ring, standard_graded_ring
from quasidegrees.stdpairs import StandardPair, standard_pairs

A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))


def brute_force_kernel_lattice(A, bound):
    """All integer kernel vectors with entries in [-bound, bound]."""
    A = IntMatrix(tuple(A.entries))
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=A.ncols):
        if not any(A.mul_vec(v)):
            out.append(v)
    return out


def test_kernel_of_sum_matrix():
    assert integer_kernel([[1, 1]]) == [(1, -1)]


def test_kernel_identity_is_trivial():
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_kernel_zero_matrix_is_standard_basis():
    assert integer_kernel([[0, 0, 0]]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_kernel_of_running_example_matrix():
    basis = integer_kernel(A35)
    assert len(basis) == 2
    for v in basis:
        assert not any(A35.mul_vec(v))
    # known kernel vectors must be integer combinations of the basis
    assert lattice_member((1, -1, 1, -1, 0), basis)
    assert lattice_member((1, 0, -2, 2, -1), basis)


def test_kernel_is_saturated_small_cases():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 2)
        n = rng.randint(1, 3)
        A = IntMatrix(tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)))
        basis = integer_kernel(A)
        for v in basis:
            assert not any(A.mul_vec(v))
        for v in brute_force_kernel_lattice(A, 3):
            assert lattice_member(v, basis), (A.entries, v, basis)


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_kernel_rank_and_membership(d, n, seed):
    rng = random.Random(seed)
    A = IntMatrix(tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d)))
    basis = integer_kernel(A)
    assert len(basis) == n - rational_rank(A.entries)
    for v in basis:
        assert not any(A.mul_vec(v))
    # basis vectors are sign-normalized and sorted
    for v in basis:
        assert next(x for x in v if x) > 0
    assert basis == sorted(basis)


def test_echelon_preserves_row_lattice():
    rows = [[2, 4, 1], [3, 6, 2], [0, 0, 5]]
    ech = integer_row_echelon(rows)
    for r in rows:
        assert lattice_member(r, ech)
    for r in ech:
        assert lattice_member(r, rows)


def test_lattice_member_divisibility():
    assert lattice_member((2, 0), [(2, 0), (0, 3)])
    assert not lattice_member((1, 0), [(2, 0), (0, 3)])
    assert lattice_member((0, 0), [])
    assert not lattice_member((1,), [])


def test_column_lattice_full():
    assert column_lattice_is_full(A35)
    assert column_lattice_is_full([[1, 0], [0, 1]])
    assert not column_lattice_is_full([[2, 0], [0, 1]])
    assert not column_lattice_is_full([[1, 1], [1, 1]])
    assert not column_lattice_is_full([[1, 1]] * 2 + [[0, 0]])
    assert column_lattice_is_full(IntMatrix(()))


def test_column_lattice_full_matches_the_membership_oracle():
    # one echelon form of the columns against one membership test per unit
    # vector, on small matrices with entries of either sign
    rng = random.Random(41)
    for _ in range(300):
        d, n = rng.randint(1, 3), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        cols = list(zip(*rows))
        units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
        expected = all(lattice_member(u, cols) for u in units)
        assert column_lattice_is_full(rows) == expected, rows


def test_rref_small():
    R, piv, rank = rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank == 2
    assert piv == (0, 1)
    assert R[0] == (Fraction(1), Fraction(0), Fraction(-1))
    assert R[1] == (Fraction(0), Fraction(1), Fraction(2))
    assert R[2] == (Fraction(0), Fraction(0), Fraction(0))


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
        R1, piv1, rank1 = rref(rows)
        R2, piv2, rank2 = rref(R1)
        assert R1 == R2
        assert piv1 == piv2
        assert rank1 == rank2


# --- LLL ---


def _lll_matrices():
    rng = random.Random(97)
    return [random_toric_matrix(rng) for _ in range(16)] + [IntMatrix(r) for r in WIDE_KERNEL]


@pytest.mark.parametrize("A", _lll_matrices())
def test_lll_reduce_keeps_the_lattice_and_reduces_it(A):
    kernel = integer_kernel(A)
    reduced = lll_reduce(kernel)
    assert len(reduced) == len(kernel)
    assert all(lattice_member(v, kernel) for v in reduced)
    assert all(lattice_member(v, reduced) for v in kernel)
    mu, B = gram_schmidt_data(reduced)
    for k in range(len(reduced)):
        assert all(abs(m) <= Fraction(1, 2) for m in mu[k])
        if k:
            assert B[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * B[k - 1]


@pytest.mark.parametrize("A", _lll_matrices())
def test_lll_reduce_matches_the_full_recompute(A):
    kernel = integer_kernel(A)
    assert lll_reduce(kernel) == reference_lll_reduce(kernel)


def test_lll_reduce_matches_the_full_recompute_on_random_bases():
    # wider entries and up to seven vectors: most swaps have later vectors
    # whose coefficients on the swapped pair must be updated
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(2, 7)
        b = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(rng.randint(2, n))]
        if rational_rank(b) == len(b):
            assert lll_reduce(b) == reference_lll_reduce(b)


def test_integral_lll_matches_the_fraction_lll_on_saturated_kernels():
    # the integral algorithm takes the same steps as the Fraction one, so
    # the bases agree vector for vector, here on 300 random saturated
    # kernels of d x n matrices with d <= 3 and n <= 9
    rng = random.Random(2021)
    done = 0
    while done < 300:
        d, n = rng.randint(1, 3), rng.randint(2, 9)
        rows = [[rng.randint(-4, 6) for _ in range(n)] for _ in range(d)]
        kernel = integer_kernel(rows)
        if kernel:
            assert lll_reduce(kernel) == fraction_lll_reduce(kernel), rows
            done += 1


def test_integral_lll_rounds_half_to_even():
    # mu = 1/2, 3/2 and -1/2 on the first vector: Python's round gives 0,
    # 2 and 0, which the integral rounding must reproduce
    cases = [(2, 0), (1, 5)], [(2, 0), (3, 5)], [(2, 0), (-1, 5)], [(2, 0, 0), (5, 1, 0), (-3, 1, 7)]
    for b in cases:
        assert lll_reduce(b) == fraction_lll_reduce(b)


def test_lll_reduce_small_cases():
    assert lll_reduce([]) == []
    assert lll_reduce([(3, -4)]) == [(3, -4)]
    # the classic example: (1, 1, 1), (-1, 0, 2), (3, 5, 6)
    assert lll_reduce([(1, 1, 1), (-1, 0, 2), (3, 5, 6)]) == [(0, 1, 0), (1, 0, 1), (-1, 0, 2)]
    with pytest.raises(ValueError):
        lll_reduce([(1, 2), (2, 4)])


@pytest.mark.parametrize(
    "build",
    [
        lambda x: IntMatrix([[x, 1]]),
        lambda x: Polynomial(2, [((x, 0), 1)]),
        lambda x: graded_ring(["a"], [[1]], heft=[x]),
        lambda x: StandardPair((x, 0), ()),
        lambda x: standard_pairs([(x, 1)], 2),
        lambda x: GradedPresentation(standard_graded_ring(["a"]), [[x]], []),
    ],
    ids=["IntMatrix", "Polynomial", "graded_ring_heft", "StandardPair", "standard_pairs",
         "GradedPresentation"],
)
def test_constructors_refuse_non_integral_integers(build):
    # a value passes when it equals its int; 1.5 used to be truncated to 1
    with pytest.raises(InputError, match="must be integers"):
        build(1.5)
    assert build(2.0) == build(Fraction(4, 2)) == build(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Polynomial(2, [((1, 0, 0), 1)]),
        lambda: Polynomial(2, [((-1, 0), 1)]),
        lambda: StandardPair((-1, 0), ()),
        lambda: StandardPair((1, 0), {2}),
        lambda: StandardPair((1, 0), {0}),
        lambda: standard_pairs([(1, 0), (0, 1, 1)], 2),
        lambda: rref([(1, 2), (3,)]),
        lambda: standard_graded_ring(["a", "b"]).multidegree((1, 0, 0)),
        lambda: next(standard_graded_ring(["a", "b"]).monomials_of_degree((1, 0))),
        lambda: AffinePlane((0, 0), ((1,),)),
        lambda: AffinePlane((0, 0)).contains_point((0,)),
        lambda: plane_contains(AffinePlane((0, 0)), AffinePlane((0,))),
        lambda: QuasidegreeSet((AffinePlane((0,)), AffinePlane((0, 0)))),
    ],
    ids=["Polynomial_length", "Polynomial_negative", "StandardPair_negative",
         "StandardPair_face_range", "StandardPair_root_on_face", "standard_pairs_length",
         "rref_rows", "multidegree_length", "monomials_of_degree_length", "AffinePlane_span",
         "contains_point_length", "plane_contains_dims", "QuasidegreeSet_dims"],
)
def test_shape_and_range_checks_raise_input_error(call):
    with pytest.raises(InputError):
        call()
