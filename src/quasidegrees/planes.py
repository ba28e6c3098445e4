"""Finite unions of rational affine planes in Q^d.

An AffinePlane is base + span{v_1..v_r}, its span stored as the reduced
row echelon basis. The base is kept as given (for a quasidegree plane,
the degree of a standard root); equality, hashing and order read it
reduced modulo the span, so two planes are equal exactly when they are
the same subset of Q^d. A QuasidegreeSet keeps one plane per set, the
one with the least base of those it is given, in sorted order. A map
applied afterwards can reverse that choice: homology.qlc dualises with
base -> -base - eps, so it prints the greatest of the candidate images.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .linalg import Frozen, rref

RatVec = tuple[Fraction, ...]


def _as_ratvec(v: Iterable) -> RatVec:
    return tuple(Fraction(x) for x in v)


def _reduce(v: Sequence[Fraction], span: tuple[RatVec, ...]) -> RatVec:
    """v minus its multiples of the RREF rows, zero at every pivot."""
    out = list(v)
    for row in span:
        p = next(i for i, x in enumerate(row) if x)
        f = out[p]
        if f:
            out = [a - f * r for a, r in zip(out, row)]
    return tuple(out)


def rref_span(vectors: Iterable[Iterable]) -> tuple[RatVec, ...]:
    """The reduced row echelon basis of the span of the vectors."""
    R, _, rank = rref(vectors)
    return R[:rank]


def coset_key(span: tuple[RatVec, ...]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """A map on integer points that agrees on two points exactly when they
    differ by a vector of ``span``, an RREF basis.

    It is the reduction modulo the span scaled by the common denominator
    of the span's entries, so it runs in integer arithmetic. A point's
    entry at a pivot is the multiple of that pivot's row to subtract,
    because the other rows vanish there.
    """
    scale = math.lcm(*(x.denominator for row in span for x in row))
    rows = [
        (next(i for i, x in enumerate(row) if x), [int(x * scale) for x in row])
        for row in span
    ]

    def key(v: Sequence[int]) -> tuple[int, ...]:
        out = [scale * x for x in v]
        for p, row in rows:
            f = v[p]
            if f:
                out = [a - f * r for a, r in zip(out, row)]
        return tuple(out)

    return key


class AffinePlane(Frozen):
    """The set base + sum of Q-multiples of the span vectors."""

    _fields = ("base", "span")

    def __init__(self, base: Iterable, span: Iterable[Iterable] = ()) -> None:
        base = _as_ratvec(base)
        rows = [_as_ratvec(v) for v in span]
        if any(len(v) != len(base) for v in rows):
            raise ValueError("span vectors must match the base dimension")
        self._store(base, rref_span(rows))

    def _store(self, base: RatVec, span: tuple[RatVec, ...]) -> None:
        self.__dict__.update(base=base, span=span, _key=(_reduce(base, span), span))

    @classmethod
    def _from_rref(cls, base: Iterable, span: tuple[RatVec, ...]) -> "AffinePlane":
        """The plane of a span that is already an RREF basis of its
        dimension, skipping the row reduction and the checks."""
        plane = object.__new__(cls)
        plane._store(_as_ratvec(base), span)
        return plane

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffinePlane):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "AffinePlane") -> bool:
        return self._key < other._key

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    @property
    def dimension(self) -> int:
        return len(self.span)

    def contains_point(self, beta: Sequence) -> bool:
        beta = _as_ratvec(beta)
        if len(beta) != self.ambient_dim:
            raise ValueError("point has the wrong dimension")
        return _reduce(beta, self.span) == self._key[0]


def plane_contains(outer: AffinePlane, inner: AffinePlane) -> bool:
    """Is inner a subset of outer?"""
    if outer.ambient_dim != inner.ambient_dim:
        raise ValueError("planes in different ambient spaces")
    return outer.contains_point(inner.base) and not any(
        any(_reduce(v, outer.span)) for v in inner.span
    )


class QuasidegreeSet(Frozen):
    """A finite union of affine planes (possibly empty)."""

    _fields = ("planes",)

    def __init__(self, planes: Iterable[AffinePlane]) -> None:
        least: dict[AffinePlane, AffinePlane] = {}
        for p in planes:
            if p not in least or p.base < least[p].base:
                least[p] = p
        if len({p.ambient_dim for p in least}) > 1:
            raise ValueError("planes in different ambient spaces")
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
    planes = QuasidegreeSet(tuple(q)).planes
    return QuasidegreeSet(
        tuple(
            p
            for p in planes
            if not any(o != p and plane_contains(o, p) for o in planes)
        )
    )
