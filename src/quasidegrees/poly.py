"""Sparse polynomials over Q, term orders, and multigraded rings.

A polynomial is a mapping from exponent tuples to nonzero Fractions, so
equality is representation independent; the notion of "lead term" only
appears relative to a term order.

A graded ring carries a d x n integer degree matrix whose j-th column is
the degree of the j-th variable. Construction validates the two running
hypotheses of the whole package: the grading is *positive* (some integer
functional is strictly positive on every variable degree, the heft vector)
and the variable degrees generate the full lattice Z^d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, le, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import Frozen, InputError, IntMatrix, _int_tuple, as_int_matrix, column_lattice_is_full

Exps = tuple[int, ...]


# Exponent-tuple helpers for the Polynomial layer; the Groebner kernel and
# standard pairs work on packed words (``words``) instead. They map builtin
# operators over the tuples instead of running generator expressions.


def exps_add(a: Exps, b: Exps) -> Exps:
    return tuple(map(add, a, b))


def exps_sub(a: Exps, b: Exps) -> Exps:
    return tuple(map(sub, a, b))


def exps_divides(a: Exps, b: Exps) -> bool:
    """Does x^a divide x^b?"""
    return all(map(le, a, b))


def exps_lcm(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


def support(e: Exps) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(e) if x)


class GradingError(InputError):
    """A degree matrix fails one of the standing hypotheses."""


class GradingNotPositiveError(GradingError):
    pass


class ColumnLatticeError(GradingError):
    pass


class MonomialOrder:
    """A term order, exposed as a sort key on exponent tuples.

    Subclasses provide :meth:`key`; keys for the same order are mutually
    comparable and ordered the way the monomials are.
    """

    def key(self, exps: Exps):
        raise NotImplementedError

    def compare(self, a: Exps, b: Exps) -> int:
        """-1, 0, or 1 as x^a <, =, > x^b."""
        if len(a) != len(b):
            raise ValueError("exponent tuples of different lengths")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


class GrevLex(MonomialOrder, Frozen):
    """Graded reverse lexicographic order."""

    def key(self, exps: Exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))


class Lex(MonomialOrder, Frozen):
    def key(self, exps: Exps):
        return exps


class Elimination(MonomialOrder, Frozen):
    """Eliminates the first ``block`` variables.

    Compares total degree in the block first, then grevlex overall, so any
    monomial involving a block variable beats every monomial free of them.
    A Groebner basis in this order therefore intersects cleanly with the
    subring on the remaining variables, where it restricts to grevlex.
    """

    _fields = ("block",)

    def __init__(self, block: int) -> None:
        self.__dict__["block"] = block

    def key(self, exps: Exps):
        return (sum(exps[: self.block]), sum(exps), tuple(-e for e in reversed(exps)))


GREVLEX = GrevLex()
LEX = Lex()


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exps, Fraction] | Iterable[tuple[Exps, Fraction]] = ()):
        acc: dict[Exps, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = _int_tuple(exps, "exponents")
            if len(exps) != nvars:
                raise InputError(f"exponent tuple {exps} does not have {nvars} entries")
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            c = acc.get(exps, Fraction(0)) + Fraction(coeff)
            if c:
                acc[exps] = c
            else:
                acc.pop(exps, None)
        self.nvars = nvars
        self.terms = acc

    @classmethod
    def _unchecked(cls, nvars: int, terms: dict[Exps, Fraction]) -> "Polynomial":
        """The polynomial of terms already valid: distinct exponent tuples
        of nvars nonnegative ints, nonzero Fraction coefficients."""
        out = cls.__new__(cls)
        out.nvars, out.terms = nvars, terms
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Fraction | int) -> "Polynomial":
        return cls(nvars, [((0,) * nvars, Fraction(c))])

    @classmethod
    def variable(cls, nvars: int, j: int) -> "Polynomial":
        if not 0 <= j < nvars:
            raise ValueError(f"variable index {j} is not in [0, {nvars})")
        return cls._unchecked(nvars, {tuple(int(i == j) for i in range(nvars)): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff: Fraction | int = 1) -> "Polynomial":
        return cls(len(exps), [(tuple(exps), Fraction(coeff))])

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different rings")
        acc = dict(self.terms)
        for e, c in other.terms.items():
            v = acc.get(e, Fraction(0)) + c
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
        return Polynomial._unchecked(self.nvars, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial._unchecked(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            terms = {e: c * v for e, v in self.terms.items()} if c else {}
            return Polynomial._unchecked(self.nvars, terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different rings")
        acc: dict[Exps, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = exps_add(e1, e2)
                v = acc.get(e, Fraction(0)) + c1 * c2
                if v:
                    acc[e] = v
                else:
                    acc.pop(e, None)
        return Polynomial._unchecked(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return Polynomial._unchecked(self.nvars, {tuple(k * x for x in e): c**k})
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def lead_term(self, order: MonomialOrder) -> tuple[Exps, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no lead term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Exps, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mon = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" + (f"*{mon}" if mon else ""))
        return f"Polynomial({' + '.join(parts)})"


def find_heft(A: IntMatrix | Iterable[Iterable[int]]) -> tuple[int, ...]:
    """An integer vector h with h . a_j > 0 for every column a_j of A.

    Tries the standard basis vectors and the all-ones vector first, then
    decides exactly with ``_phase_one``: a heft exists iff some rational
    h has h . a_j >= 1 for every j (rescale), and the integer multiple of
    such an h is a heft. Raises GradingNotPositiveError when no heft
    exists.
    """
    A = as_int_matrix(A)
    d = A.nrows
    cols = A.columns()

    def works(h: Sequence[int]) -> bool:
        return all(sum(hi * ai for hi, ai in zip(h, col)) > 0 for col in cols)

    for h in [tuple(int(i == k) for i in range(d)) for k in range(d)] + [(1,) * d]:
        if works(h):
            return h
    h = _phase_one(cols, d)
    if h is None:
        raise GradingNotPositiveError("grading not positive: no heft vector exists")
    scale = math.lcm(*(x.denominator for x in h))
    return tuple(int(x * scale) for x in h)


def _phase_one(cols: Sequence[Sequence[int]], d: int) -> list[Fraction] | None:
    """A rational h with h . a >= 1 for every a in ``cols``, or None.

    Phase one of the simplex method, exact over Fractions: with h = p - q
    (p, q >= 0), row j reads a_j . p - a_j . q - s_j + r_j = 1 with a
    slack s_j and an artificial r_j, and the sum of the artificials is
    minimized from the basis of all artificials. Bland's rule (the least
    entering index, then the least leaving basic index among the least
    ratios) cannot cycle, so the loop ends; the system is feasible iff the
    minimum is 0.
    """
    n = len(cols)
    rows = []
    for j, a in enumerate(cols):
        row = [Fraction(x) for x in a] + [Fraction(-x) for x in a] + [Fraction(0)] * (2 * n)
        row[2 * d + j], row[2 * d + n + j] = Fraction(-1), Fraction(1)
        rows.append(row + [Fraction(1)])
    basis = [2 * d + n + j for j in range(n)]
    # reduced costs of the sum of the artificials, its value negated last
    cost = [-sum(c) for c in zip(*rows)]
    for b in basis:
        cost[b] = Fraction(0)
    while (enter := next((k for k in range(2 * d + 2 * n) if cost[k] < 0), None)) is not None:
        # the objective is bounded below by 0, so the column has a positive entry
        ratios = [(row[-1] / row[enter], basis[i], i) for i, row in enumerate(rows) if row[enter] > 0]
        i = min(ratios)[2]
        piv = rows[i][enter]
        rows[i] = pivot = [x / piv for x in rows[i]]
        for other in rows + [cost]:
            if other is not pivot and (f := other[enter]):
                other[:] = [x - f * y for x, y in zip(other, pivot)]
        basis[i] = enter
    if cost[-1]:
        return None
    value = [Fraction(0)] * (2 * d)
    for b, row in zip(basis, rows):
        if b < 2 * d:
            value[b] = row[-1]
    return [value[k] - value[d + k] for k in range(d)]


class GradedRing(Frozen):
    """Polynomial ring Q[x_1..x_n] graded by Z^d via a degree matrix.

    ``degree_matrix`` is d x n; deg(x_j) is its j-th column. ``heft`` is a
    certificate of positivity, by default ``find_heft``'s, found after the
    shape checks. ``order`` is the ambient term order used by default in
    Groebner computations over this ring. ``degrees`` holds the columns
    and ``weights`` the heft of each variable, computed once.
    """

    _fields = ("names", "degree_matrix", "heft", "order")

    def __init__(
        self,
        names: Sequence[str],
        degree_matrix: IntMatrix | Iterable[Iterable[int]],
        heft: Sequence[int] | None = None,
        order: MonomialOrder = GREVLEX,
    ) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names")
        A = as_int_matrix(degree_matrix)
        if A.ncols != len(names):
            raise InputError("grading matrix needs one column per variable")
        h = find_heft(A) if heft is None else _int_tuple(heft, "heft entries")
        if len(h) != A.nrows:
            raise InputError("heft needs one entry per row of the grading matrix")
        degrees = tuple(A.columns())
        weights = tuple(sum(map(mul, h, col)) for col in degrees)
        for name, w in zip(names, weights):
            if w <= 0:
                raise GradingNotPositiveError(
                    f"grading not positive: heft fails on variable {name}"
                )
        if not column_lattice_is_full(A):
            raise ColumnLatticeError(
                "variable degrees do not generate the full grading lattice Z^d"
            )
        self.__dict__.update(
            names=names, degree_matrix=A, heft=h, order=order, degrees=degrees, weights=weights
        )

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def grading_rank(self) -> int:
        return self.degree_matrix.nrows

    def degree(self, j: int) -> Exps:
        return self.degrees[j]

    @property
    def degree_sum(self) -> tuple[int, ...]:
        """Sum of all variable degrees (the duality twist)."""
        return tuple(sum(row) for row in self.degree_matrix.entries)

    def multidegree(self, exps: Sequence[int]) -> tuple[int, ...]:
        if len(exps) != self.nvars:
            raise InputError("exponent tuple has the wrong length")
        return tuple([sum(map(mul, row, exps)) for row in self.degree_matrix.entries])

    def heft_degree(self, exps: Sequence[int]) -> int:
        """Value of the heft functional on the multidegree of x^exps."""
        return sum(map(mul, self.heft, self.multidegree(exps)))

    def variable(self, j: int) -> Polynomial:
        return Polynomial.variable(self.nvars, j)

    def variables(self) -> list[Polynomial]:
        return [self.variable(j) for j in range(self.nvars)]

    def name_index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def monomials_of_degree(self, beta: Sequence[int]) -> Iterator[Exps]:
        """All exponent tuples u >= 0 with (degree matrix) u = beta.

        Finite because the grading is positive: each variable consumes at
        least one unit of heft. Enumeration is DFS in variable order.
        """
        beta = tuple(int(b) for b in beta)
        if len(beta) != self.grading_rank:
            raise InputError("degree vector has the wrong length")
        n, weights, cols = self.nvars, self.weights, self.degrees

        def rec(j: int, remaining: tuple[int, ...], acc: list[int]) -> Iterator[Exps]:
            budget = sum(h * r for h, r in zip(self.heft, remaining))
            if budget < 0:
                return
            if j == n:
                if not any(remaining):
                    yield tuple(acc)
                return
            col = cols[j]
            for k in range(budget // weights[j] + 1):
                acc.append(k)
                yield from rec(
                    j + 1,
                    tuple(r - k * c for r, c in zip(remaining, col)),
                    acc,
                )
                acc.pop()

        yield from rec(0, beta, [])


def standard_graded_ring(names: Sequence[str], order: MonomialOrder = GREVLEX) -> GradedRing:
    """Q[names] with the standard Z-grading deg(x_j) = 1."""
    n = len(names)
    return GradedRing(tuple(names), IntMatrix(((1,) * n,)), (1,), order)


def graded_ring(
    names: Sequence[str],
    degree_matrix: IntMatrix | Iterable[Iterable[int]] | None = None,
    heft: Sequence[int] | None = None,
    order: MonomialOrder = GREVLEX,
) -> GradedRing:
    if degree_matrix is None:
        return standard_graded_ring(names, order)
    return GradedRing(names, degree_matrix, heft, order)
