"""Finite unions of rational affine planes in Q^d.

An AffinePlane is base + span. The base is kept as given (for a
quasidegree plane, the integer degree of a standard root). The span is a
Span, an integer form whose ``coset`` reduces a point modulo it;
equality, hashing and order read the base's coset, so two planes are
equal exactly when they are the same subset of Q^d. Fractions appear
only in ``base`` and ``span``, which print, and are built when first
read: most candidate planes collapse into a duplicate and never print.
A QuasidegreeSet keeps one plane per set, the one with the least base of
those it is given, in sorted order. A map applied afterwards can reverse
that choice: homology.qlc dualises with base -> -base - eps, so it
prints the greatest of the candidate images.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .linalg import Frozen, InputError


def _primitive(v: list[int], pivot: int) -> list[int]:
    """v over the gcd of its entries, signed so that v[pivot] > 0."""
    g = math.gcd(*v)
    return [x // g for x in v] if v[pivot] > 0 else [-x // g for x in v]


class Span(Frozen):
    """The linear span of rational vectors of one length, in one integer
    form: ``rows``, its reduced row echelon basis with each row scaled to
    a primitive integer vector with a positive pivot (two spans are equal
    exactly when their rows are); ``scale``, the lcm of the pivots; and
    ``rref``, the same basis over Q."""

    _fields = ("rows",)

    def __init__(self, vectors: Iterable[Sequence]) -> None:
        rows: dict[int, list[int]] = {}  # Gauss-Jordan: pivot -> row, 0 at other pivots
        vectors = list(vectors)
        if len({len(v) for v in vectors}) > 1:
            raise InputError("span vectors must have one length")
        for v in vectors:
            den = math.lcm(*(x.denominator for x in v))
            v = [int(x * den) for x in v]
            for p, row in rows.items():
                if v[p]:
                    v = [row[p] * a - v[p] * b for a, b in zip(v, row)]
            q = next((i for i, x in enumerate(v) if x), None)
            if q is not None:
                rows[q] = v = _primitive(v, q)
                for p, row in rows.items():
                    if row[q] and p != q:
                        rows[p] = _primitive([v[q] * a - row[q] * b for a, b in zip(row, v)], p)
        pivots = sorted(rows)
        scale = math.lcm(*(rows[p][p] for p in pivots))
        self.__dict__.update(
            rows=tuple(tuple(rows[p]) for p in pivots),
            scale=scale,
            # scale // pivot times a point's entry at the pivot is the
            # multiple of the row to subtract: the other rows vanish there
            _steps=tuple((p, tuple(rows[p]), scale // rows[p][p]) for p in pivots),
        )

    def coset(self, v: Sequence) -> tuple:
        """``scale`` times v reduced modulo the span: equal on two points
        exactly when they differ by a vector of the span, integral on
        integer points."""
        out = [self.scale * x for x in v]
        for p, row, m in self._steps:
            f = m * v[p]
            if f:
                out = [a - f * r for a, r in zip(out, row)]
        return tuple(out)

    @cached_property
    def rref(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, row[p]) for x in row) for p, row, _ in self._steps)


class AffinePlane(Frozen):
    """The set base + sum of Q-multiples of the span vectors."""

    _fields = ("base", "span")

    def __init__(self, base: Iterable, span: Iterable[Iterable] = ()) -> None:
        base = tuple(map(Fraction, base))
        rows = [tuple(map(Fraction, v)) for v in span]
        if any(len(v) != len(base) for v in rows):
            raise InputError("span vectors must match the base dimension")
        self._store(Span(rows), base)

    @classmethod
    def _on(cls, span: Span, base: Iterable) -> AffinePlane:
        """base + span for a Span of the base's dimension, with no row
        reduction and no checks; the span is shared, not copied."""
        plane = object.__new__(cls)
        plane._store(span, tuple(base))
        return plane

    def _store(self, span: Span, base: tuple) -> None:
        self.__dict__.update(_base=base, _span=span, _key=(span.rows, span.coset(base)))

    @cached_property
    def base(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self._base))

    @property
    def span(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._span.rref

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinePlane):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: AffinePlane) -> bool:
        # by the base reduced modulo the span, then by the span: the
        # reduced bases are the cosets over the scales, so cross-multiply
        s, t = self._span.scale, other._span.scale
        mine, theirs = [x * t for x in self._key[1]], [y * s for y in other._key[1]]
        return mine < theirs if mine != theirs else self.span < other.span

    @property
    def ambient_dim(self) -> int:
        return len(self._base)

    @property
    def dimension(self) -> int:
        return len(self._span.rows)

    def contains_point(self, beta: Sequence) -> bool:
        beta = tuple(x if type(x) is int else Fraction(x) for x in beta)
        if len(beta) != self.ambient_dim:
            raise InputError("point has the wrong dimension")
        return self._span.coset(beta) == self._key[1]


def plane_contains(outer: AffinePlane, inner: AffinePlane) -> bool:
    """Is inner a subset of outer?"""
    if outer.ambient_dim != inner.ambient_dim:
        raise InputError("planes in different ambient spaces")
    return outer.contains_point(inner._base) and not any(
        any(outer._span.coset(v)) for v in inner._span.rows
    )


class QuasidegreeSet(Frozen):
    """A finite union of affine planes (possibly empty)."""

    _fields = ("planes",)

    def __init__(self, planes: Iterable[AffinePlane]) -> None:
        least: dict[AffinePlane, AffinePlane] = {}
        for p in planes:
            if p not in least or p._base < least[p]._base:
                least[p] = p
        if len({p.ambient_dim for p in least}) > 1:
            raise InputError("planes in different ambient spaces")
        self.__dict__["planes"] = tuple(sorted(least.values()))

    @property
    def is_empty(self) -> bool:
        return not self.planes

    def contains_point(self, beta: Sequence) -> bool:
        return any(p.contains_point(beta) for p in self.planes)

    def __iter__(self):
        return iter(self.planes)

    def __len__(self):
        return len(self.planes)


def remove_redundancy(q: QuasidegreeSet | Iterable[AffinePlane]) -> QuasidegreeSet:
    """Drop every plane strictly contained in another plane of the union.

    The union of the planes is unchanged.
    """
    planes = QuasidegreeSet(q).planes
    return QuasidegreeSet(
        p for p in planes if not any(o != p and plane_contains(o, p) for o in planes)
    )
