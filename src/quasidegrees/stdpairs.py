"""Standard pairs of monomial ideals.

A standard pair of a monomial ideal I in Q[x_1..x_n] is a pair (x^u, Z)
of a monomial and a set of variables with

* supp(u) disjoint from Z,
* every monomial x^u * (monomials in the Z variables) outside I,
* maximality: no other pair with these two properties covers a strictly
  larger set of monomials.

The standard pairs partition-cover the standard monomials (the monomials
outside I), and the number of pairs with |Z| = dim R/I is the degree of
R/I. Everything here works on plain exponent tuples.

Let I_Z be I with the face variables set to 1 and m the ideal of the
other variables. Then (x^u, Z) is a standard pair exactly when x^u lies
in (I_Z : m^∞) but not in I_Z: the pair fails to be maximal iff, for some
i off Z, the pair (x^u with u_i = 0, Z ∪ {i}) avoids I, that is iff x^u
is outside I_Z : x_i^∞ (Hoşten–Smith, "Monomial ideals", 2002;
Sturmfels–Trung–Vogel, Math. Ann. 1995). ``standard_pairs`` therefore
builds each face's roots from the finite set (I_Z : m^∞) minus I_Z. With g
minimal generators and p pairs, the cost is 2^n faces times a polynomial
in g for the projections and saturations, plus O(p * n^2 * g) for the
search. Large exponents cost only through p; there is no box to scan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Exps, exps_divides, exps_lcm, support


@dataclass(frozen=True)
class StandardPair:
    """The set of monomials x^root * x^v, supp(v) inside face."""

    root: Exps
    face: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", tuple(int(e) for e in self.root))
        object.__setattr__(self, "face", frozenset(int(i) for i in self.face))
        if any(e < 0 for e in self.root):
            raise ValueError("negative exponent in standard pair root")
        if any(i < 0 or i >= len(self.root) for i in self.face):
            raise ValueError("face index out of range")
        if set(support(self.root)) & self.face:
            raise ValueError("root support must be disjoint from the face")

    @property
    def dimension(self) -> int:
        return len(self.face)

    def sort_key(self):
        return (self.root, tuple(sorted(self.face)))

    def contains_exps(self, e: Exps) -> bool:
        """Is x^e of the form x^root * (monomial in face variables)?"""
        return all(
            (e[i] == self.root[i]) or (i in self.face and e[i] >= self.root[i])
            for i in range(len(self.root))
        )


def minimal_generators(gens: list[Exps]) -> list[Exps]:
    """Inclusion-minimal monomial generators, deduplicated and sorted."""
    uniq = sorted(set(tuple(g) for g in gens))
    out = []
    for g in uniq:
        if not any(h != g and exps_divides(h, g) for h in uniq):
            out.append(g)
    return out


def pair_contains(p: StandardPair, q: StandardPair) -> bool:
    """Is every monomial of p also a monomial of q?"""
    if len(p.root) != len(q.root):
        raise ValueError("pairs over different rings")
    if not p.face <= q.face:
        return False
    if not exps_divides(q.root, p.root):
        return False
    return all(i in q.face for i in support(tuple(a - b for a, b in zip(p.root, q.root))))


def _intersect(a: list[Exps], b: list[Exps]) -> list[Exps]:
    """Minimal generators of <a> ∩ <b>: the lcms of all generator pairs."""
    return minimal_generators([exps_lcm(g, h) for g in a for h in b])


def standard_pairs(gens: list[Exps], nvars: int) -> list[StandardPair]:
    """All standard pairs of the monomial ideal generated by ``gens``.

    For each face Z, with I_Z the projected ideal and m the ideal of the
    variables off Z, the roots are the monomials of (I_Z : m^∞) outside
    I_Z. The saturation is the intersection of the colons by each x_i off
    Z (a colon by x_i^∞ zeroes coordinate i of every generator), and its
    difference with I_Z is found by stepping one variable at a time from
    the saturation's minimal generators, never entering I_Z. Pairs come
    back sorted by root, then face.
    """
    gens = [tuple(int(e) for e in g) for g in gens]
    if len(set(map(len, gens))) > 1 or (gens and len(gens[0]) != nvars):
        raise ValueError("generator exponent length mismatch")
    gens = minimal_generators(gens)
    out: list[StandardPair] = []
    for bits in range(1 << nvars):
        face = frozenset(i for i in range(nvars) if bits >> i & 1)
        comp = [i for i in range(nvars) if i not in face]
        ideal = minimal_generators(
            [tuple(0 if i in face else e for i, e in enumerate(g)) for g in gens]
        )
        if ideal and not any(ideal[0]):
            continue  # I_Z is the whole ring
        sat = [(0,) * nvars]
        for i in comp:
            sat = _intersect(sat, [g[:i] + (0,) + g[i + 1 :] for g in ideal])

        def outside(u: Exps) -> bool:
            return not any(exps_divides(g, u) for g in ideal)

        roots = {u for u in sat if outside(u)}
        todo = list(roots)
        while todo:
            u = todo.pop()
            for i in comp:
                v = u[:i] + (u[i] + 1,) + u[i + 1 :]
                if v not in roots and outside(v):
                    roots.add(v)
                    todo.append(v)
        out.extend(StandardPair(u, face) for u in roots)
    out.sort(key=StandardPair.sort_key)
    return out


def degree_from_pairs(pairs: list[StandardPair]) -> int:
    """Number of top-dimensional pairs in ``pairs``; zero when there are none."""
    if not pairs:
        return 0
    top = max(p.dimension for p in pairs)
    return sum(1 for p in pairs if p.dimension == top)


def degree_via_pairs(gens: list[Exps], nvars: int) -> int:
    """Number of top-dimensional standard pairs (the degree of R/I).

    Zero for the unit ideal (R/I = 0 has no standard monomials).
    """
    return degree_from_pairs(standard_pairs(gens, nvars))
