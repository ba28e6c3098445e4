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
builds each face's roots from the finite set (I_Z : m^∞) minus I_Z.

Only faces with I_Z ≠ R can carry a pair. They form the complex
Δ = {Z : no minimal generator of I is supported in Z}, which is closed
under taking subsets, and I_Z : x_i^∞ = I_{Z ∪ {i}}. So the saturation
of each face is read from the faces one step up; a face above Z that
is not in Δ contributes the whole ring and drops out. The cost is a walk over Δ, not over all
2^n faces, plus for each face an intersection of at most n ideals that
is pruned by I_Z as it goes, plus O(p * n * g) for the search, with g
minimal generators and p roots. Large exponents cost only through p;
there is no box to scan.
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
    """Inclusion-minimal monomial generators, deduplicated and sorted.

    Candidates are tested in order of total degree, so each needs testing
    only against the generators already kept: a proper divisor has a
    smaller degree.
    """
    kept: list[Exps] = []
    for g in sorted(set(map(tuple, gens)), key=sum):
        if not any(exps_divides(h, g) for h in kept):
            kept.append(g)
    kept.sort()
    return kept


def pair_contains(p: StandardPair, q: StandardPair) -> bool:
    """Is every monomial of p also a monomial of q?"""
    if len(p.root) != len(q.root):
        raise ValueError("pairs over different rings")
    if not p.face <= q.face:
        return False
    if not exps_divides(q.root, p.root):
        return False
    return all(i in q.face for i in support(tuple(a - b for a, b in zip(p.root, q.root))))


def _exponents(g) -> Exps:
    """An exponent vector as an int tuple; ValueError unless every entry
    is a non-negative integer."""
    out = tuple(int(e) for e in g)
    if out != tuple(g) or any(e < 0 for e in out):
        raise ValueError(f"exponents must be non-negative integers, got {tuple(g)}")
    return out


def _saturation_roots(
    ideal: list[Exps], above: list[list[Exps]], nvars: int
) -> list[Exps]:
    """Generators of (I_Z : m^∞), all outside I_Z, that every monomial of
    (I_Z : m^∞) minus I_Z is a multiple of.

    ``ideal`` holds the minimal generators of I_Z and ``above`` those of
    each I_{Z ∪ {i}} ≠ R. A generator inside I_Z is dropped, since all its
    multiples lie in I_Z too; when an ideal keeps none, nothing is left.
    A minimal generator h of I_{Z ∪ {i}} lies in I_Z only if it is one of
    I_Z's own: a generator of I_Z dividing h has no x_i either, so it lies
    in I_{Z ∪ {i}} and equals h.
    """

    def outside(u: Exps) -> bool:
        return not any(exps_divides(g, u) for g in ideal)

    own = set(ideal)
    factors = []
    for gens in above:
        kept = [g for g in gens if g not in own]
        if not kept:
            return []
        factors.append(kept)
    factors.sort(key=len)
    roots = [(0,) * nvars]
    for kept in factors:
        lcms = [exps_lcm(a, b) for a in roots for b in kept]
        roots = minimal_generators([u for u in lcms if outside(u)])
        if not roots:
            break
    return roots


def standard_pairs(gens: list[Exps], nvars: int) -> list[StandardPair]:
    """All standard pairs of the monomial ideal generated by ``gens``.

    Walks the faces Z of Δ = {Z : no minimal generator is supported in Z},
    found with support bit masks, and projects each I_Z once from
    I_{Z − max Z}. For each face, with m the ideal of the variables off Z,
    the roots are the monomials of (I_Z : m^∞) outside I_Z. The saturation
    is the intersection of the I_{Z ∪ {i}} = I_Z : x_i^∞ over the faces
    Z ∪ {i} of Δ, pruned by I_Z, and its difference with I_Z is found by
    stepping one variable at a time from its generators, never entering
    I_Z. Pairs come back sorted by root, then face. Raises ValueError for
    a negative or non-integral exponent.
    """
    gens = [_exponents(g) for g in gens]
    if len(set(map(len, gens))) > 1 or (gens and len(gens[0]) != nvars):
        raise ValueError("generator exponent length mismatch")
    gens = minimal_generators(gens)
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in gens]
    if 0 in supports:
        return []  # the unit ideal
    ideals = {0: gens}  # face bit mask -> minimal generators of I_Z
    faces = [0]
    for bits in faces:
        for j in range(bits.bit_length(), nvars):
            child = bits | 1 << j
            if all(s & ~child for s in supports):
                projected = [g[:j] + (0,) + g[j + 1 :] for g in ideals[bits]]
                ideals[child] = minimal_generators(projected)
                faces.append(child)
    out: list[StandardPair] = []
    for bits in faces:
        ideal = ideals[bits]
        comp = [i for i in range(nvars) if not bits >> i & 1]
        above = [ideals[bits | 1 << i] for i in comp if bits | 1 << i in ideals]
        roots = set(_saturation_roots(ideal, above, nvars))
        todo = list(roots)
        while todo:
            u = todo.pop()
            for i in comp:
                v = u[:i] + (u[i] + 1,) + u[i + 1 :]
                if v not in roots and not any(exps_divides(g, v) for g in ideal):
                    roots.add(v)
                    todo.append(v)
        if roots:
            face = frozenset(i for i in range(nvars) if bits >> i & 1)
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
