"""Standard pairs of monomial ideals.

A standard pair of a monomial ideal I in Q[x_1..x_n] is a pair (x^u, Z)
of a monomial and a set of variables with

* supp(u) disjoint from Z,
* every monomial x^u * (monomials in the Z variables) outside I,
* maximality: no other pair with these two properties covers a strictly
  larger set of monomials.

The standard pairs partition-cover the standard monomials (the monomials
outside I), and the number of pairs with |Z| = dim R/I is the degree of
R/I. The public functions and ``StandardPair`` take and give plain
exponent tuples; ``standard_pairs`` searches on packed words inside.

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
is pruned by I_Z as it goes, plus O(p * n * g) word operations for the
search, with g minimal generators and p roots. Large exponents cost only
through p and the width of a word; there is no box to scan.

Packed words. ``standard_pairs`` packs each exponent vector into one int
with the layout of ``words`` (the module the Groebner kernel packs its
terms with too): fields of w data bits under one guard bit, w the bit
length of the largest generator exponent. Divisibility is one guard-bit
test and an lcm one field-wise maximum (see there); besides, I_{Z ∪ {j}}
comes from I_Z by masking out field j, a step to x_i * x^v adds one to
field i, and since a proper divisor is a smaller int, sorting words by
value orders them for minimalization.

Why no field overflows. Let e_i be the largest exponent of x_i among the
generators, so e_i < 2^w. Every saturation root and every monomial the
search keeps is outside I_Z, but in I_Z : x_i^∞ for each i off Z, and
has u_i = 0 for i in Z. If u_i >= e_i for some i off Z, a generator g
of I_Z with x^g | x_i^k x^u would divide x^u itself, since g_i <= e_i;
so u_i < e_i. An lcm of such words, or of them and generators, stays
at most e_i in each field, and so does a step u + x_i tested against
I_Z. Every word ever formed thus has fields at most e_i < 2^w, and
the tests above are exact; with a narrower w they are not.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import Frozen
from .poly import Exps, exps_divides, support
from .words import Words, in_ideal, minimal_words


class StandardPair(Frozen):
    """The set of monomials x^root * x^v, supp(v) inside face."""

    _fields = ("root", "face")

    def __init__(self, root: Iterable[int], face: Iterable[int]) -> None:
        root = tuple(int(e) for e in root)
        face = frozenset(int(i) for i in face)
        if any(e < 0 for e in root):
            raise ValueError("negative exponent in standard pair root")
        if any(i < 0 or i >= len(root) for i in face):
            raise ValueError("face index out of range")
        if set(support(root)) & face:
            raise ValueError("root support must be disjoint from the face")
        self.__dict__.update(root=root, face=face)

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
    ideal: list[int], above: list[list[int]], guards: int, width: int
) -> list[int]:
    """Generators of (I_Z : m^∞), all outside I_Z, that every monomial of
    (I_Z : m^∞) minus I_Z is a multiple of; packed words throughout.

    ``ideal`` holds the minimal generators of I_Z and ``above`` those of
    each I_{Z ∪ {i}} ≠ R. A generator inside I_Z is dropped, since all its
    multiples lie in I_Z too; when an ideal keeps none, nothing is left.
    A minimal generator h of I_{Z ∪ {i}} lies in I_Z only if it is one of
    I_Z's own: a generator of I_Z dividing h has no x_i either, so it lies
    in I_{Z ∪ {i}} and equals h.
    """
    own = set(ideal)
    factors = []
    for gens in above:
        kept = [g for g in gens if g not in own]
        if not kept:
            return []
        factors.append(kept)
    factors.sort(key=len)
    roots = [0]
    for kept in factors:
        lcms = set()
        for a in roots:
            ag = a | guards
            for b in kept:
                # ``words.lcm``, inlined with a | guards taken once per root
                ge = (ag - b) & guards
                lcms.add(b ^ ((a ^ b) & (ge - (ge >> width))))
        roots = minimal_words([u for u in lcms if not in_ideal(u, ideal, guards)], guards)
        if not roots:
            break
    return roots


def _pair(root: Exps, face: frozenset[int]) -> StandardPair:
    """A StandardPair from a checked root and face, skipping the checks."""
    p = object.__new__(StandardPair)
    p.__dict__.update(root=root, face=face)
    return p


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

    The search runs on packed words (see the module docstring), with w
    the bit length of the largest generator exponent.
    """
    gens = [_exponents(g) for g in gens]
    if len(set(map(len, gens))) > 1 or (gens and len(gens[0]) != nvars):
        raise ValueError("generator exponent length mismatch")
    words = Words(nvars, max((e for g in gens for e in g), default=0).bit_length())
    width, shifts, guards = words.width, words.shifts, words.guards
    fields = [words.low << s for s in shifts]
    minimal = minimal_words(list(map(words.pack, gens)), guards)
    supports = [sum(1 << i for i, f in enumerate(fields) if g & f) for g in minimal]
    if 0 in supports:
        return []  # the unit ideal
    ideals = {0: minimal}  # face bit mask -> minimal generators of I_Z
    faces = [0]
    for bits in faces:
        for j in range(bits.bit_length(), nvars):
            child = bits | 1 << j
            if all(s & ~child for s in supports):
                off = ~fields[j]
                ideals[child] = minimal_words([g & off for g in ideals[bits]], guards)
                faces.append(child)
    found = []
    for bits in faces:
        ideal = ideals[bits]
        comp = [i for i in range(nvars) if not bits >> i & 1]
        above = [ideals[bits | 1 << i] for i in comp if bits | 1 << i in ideals]
        roots = set(_saturation_roots(ideal, above, guards, width))
        if not roots:
            continue
        steps = [1 << shifts[i] for i in comp]
        todo = list(roots)
        while todo:
            u = todo.pop()
            for step in steps:
                v = u + step
                if v not in roots and not in_ideal(v, ideal, guards):
                    roots.add(v)
                    todo.append(v)
        key = tuple(i for i in range(nvars) if bits >> i & 1)
        face = frozenset(key)
        for u in roots:
            found.append((words.unpack(u), key, face))
    found.sort()
    return [_pair(root, face) for root, _, face in found]


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
