"""Exact integer and rational linear algebra.

Everything here is arbitrary precision: integer routines work on Python
ints, rational routines on fractions.Fraction. No floating point.

The integer routines revolve around unimodular row reduction (row swaps,
negations, and xgcd-based 2x2 transforms of determinant one). Because the
transforms are unimodular, the row space as a *lattice* is preserved, which
is what makes :func:`integer_kernel` return a basis of the saturated kernel
lattice ker(A) over Z rather than merely a rational kernel basis.

``Frozen``, the base of the package's immutable value classes, lives
here because this module imports no other module of the package.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


class Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``_fields`` and stores them once, from
    ``__init__``, into the instance ``__dict__``; assigning or deleting an
    attribute afterwards raises AttributeError. Two instances are equal
    when they have the same class and equal fields, and hash as the tuple
    of their fields. The ``__dict__`` stays, so ``cached_property`` works.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class IntMatrix(Frozen):
    """Rectangular integer matrix, row-major, immutable and hashable."""

    _fields = ("entries",)

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("matrix rows have unequal lengths")
        self.__dict__["entries"] = rows

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> IntVec:
        return self.entries[i]

    def column(self, j: int) -> IntVec:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[IntVec]:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else IntMatrix(())

    def mul_vec(self, v: Sequence[int]) -> IntVec:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)


def as_int_matrix(A: IntMatrix | Iterable[Iterable[int]]) -> IntMatrix:
    return A if isinstance(A, IntMatrix) else IntMatrix(tuple(tuple(r) for r in A))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_row_echelon(rows: Iterable[Sequence[int]], width: int | None = None) -> list[list[int]]:
    """Row echelon form over Z using only unimodular row operations.

    Pivoting happens on the first ``width`` columns (all by default); any
    extra columns are carried along, so the caller can keep track of the
    transformation by augmenting with an identity block. Pivot entries are
    made positive. The row lattice is unchanged.
    """
    M = [list(map(int, r)) for r in rows]
    if not M:
        return M
    ncols = len(M[0])
    if width is None:
        width = ncols
    r = 0
    for c in range(width):
        if r >= len(M):
            break
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, len(M)):
            if not M[i][c]:
                continue
            a, b = M[r][c], M[i][c]
            if b % a == 0:
                q = b // a
                M[i] = [x - q * y for x, y in zip(M[i], M[r])]
            else:
                g, x, y = _xgcd(a, b)
                ag, bg = a // g, b // g
                top, bot = M[r], M[i]
                M[r] = [x * p + y * q2 for p, q2 in zip(top, bot)]
                M[i] = [ag * q2 - bg * p for p, q2 in zip(top, bot)]
        if M[r][c] < 0:
            M[r] = [-x for x in M[r]]
        r += 1
    return M


def integer_kernel(A: IntMatrix | Iterable[Iterable[int]]) -> list[IntVec]:
    """Basis of the saturated integer kernel {u in Z^n : A u = 0}.

    Saturated means the basis spans ker(A) over Q as well: any integer
    vector in the rational kernel is an integer combination of the basis.
    Each basis vector is sign-normalized (first nonzero entry positive) and
    the list is sorted for determinism.
    """
    A = as_int_matrix(A)
    d, n = A.nrows, A.ncols
    aug = [list(A.column(j)) + [1 if k == j else 0 for k in range(n)] for j in range(n)]
    ech = integer_row_echelon(aug, width=d)
    basis = []
    for row in ech:
        if any(row[:d]):
            continue
        v = row[d:]
        if not any(v):
            continue
        lead = next(x for x in v if x)
        if lead < 0:
            v = [-x for x in v]
        basis.append(tuple(v))
    basis.sort()
    return basis


def lll_reduce(basis: Sequence[Sequence[int]]) -> list[IntVec]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by linearly
    independent integer vectors, in integers only.

    The integral LLL of Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7: with d_0 = 1 and d_(i+1) the Gram determinant of
    the first i + 1 vectors, lam[k][j] = d_(j+1) mu_kj is an integer, and
    every update of the Gram–Schmidt data divides exactly. Each vector is
    size-reduced against all earlier ones, from the nearest down, before
    the Lovász test 4 d_(k+1) d_(k-1) >= 3 d_k^2 - 4 lam[k][k-1]^2, which
    is B_k >= (3/4 - mu_k,k-1^2) B_(k-1) times 4 d_k d_(k-1).

    The result spans the same lattice, is size-reduced (|mu_kj| <= 1/2)
    and satisfies the Lovász condition. Raises ValueError when the vectors
    are linearly dependent.
    """
    b = [list(map(int, v)) for v in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * k for k in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(map(mul, b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if not d[k + 1]:
            raise ValueError("lattice basis vectors are linearly dependent")
    k = 1
    while k < n:
        for j in reversed(range(k)):
            # q = round(mu_kj), half to even like ``round`` on a Fraction
            q, r = divmod(2 * lam[k][j] + d[j + 1], 2 * d[j + 1])
            q -= not r and q & 1
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
                lam[k][j] -= q * d[j + 1]
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * m * m:
            k += 1
            continue
        # swap b[k - 1] and b[k] (Cohen's SWAPI): lam[k][k - 1] stays
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1], lam[k] = lam[k][: k - 1], lam[k - 1] + [m]
        new = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for row in lam[k + 1 :]:
            t = row[k]
            row[k] = (d[k + 1] * row[k - 1] - m * t) // d[k]
            row[k - 1] = (new * t + m * row[k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, 1)
    return [tuple(v) for v in b]


def lattice_member(v: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Is v an integer combination of the given integer vectors?"""
    if not basis:
        return not any(v)
    ech = [r for r in integer_row_echelon(basis) if any(r)]
    w = list(map(int, v))
    for row in ech:
        c = next(i for i, x in enumerate(row) if x)
        if w[c]:
            if w[c] % row[c]:
                return False
            q = w[c] // row[c]
            w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


def column_lattice_is_full(A: IntMatrix | Iterable[Iterable[int]]) -> bool:
    """Do the columns of A generate all of Z^d (d = number of rows)? Yes
    when an echelon form of them has d pivots, all 1: the pivots multiply
    to the lattice's index."""
    A = as_int_matrix(A)
    pivots = [next(x for x in row if x) for row in integer_row_echelon(A.columns()) if any(row)]
    return len(pivots) == A.nrows and all(x == 1 for x in pivots)


def rref(rows: Iterable[Sequence[Fraction | int]]) -> tuple[tuple[RatVec, ...], tuple[int, ...], int]:
    """Reduced row echelon form over Q.

    Returns (matrix, pivot columns, rank). Pivot entries are 1 and are the
    only nonzero entries in their columns. Zero rows sink to the bottom.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    if not M:
        return (), (), 0
    ncols = len(M[0])
    if any(len(r) != ncols for r in M):
        raise ValueError("matrix rows have unequal lengths")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(M):
            break
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in M), tuple(pivots), r


def rational_rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    return rref(rows)[2]
