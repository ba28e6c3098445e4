"""Answer checks that share no code with the package under test.

Every check takes the CLI's machine-format document and returns None when
the answer is right, or a one-line reason when it is not. The facts used:

* toric generators: binomials x^u - x^v with A u = A v, parsed here;
* volumes: twice the lattice polygon's shoelace area for a three-row
  matrix with a row of ones, max - min for a two-row one;
* local cohomology of a projective monomial curve k[S]: H^0 = 0 and
  H^1 lives exactly in the degrees S' minus S, where S' is the set of
  degrees that enter S after adding a multiple of either extremal
  generator (Goto-Suzuki-Watanabe, Trung-Hoa). qlc of a curve is that
  finite set of points;
* standard pairs and split monomial quasidegrees: enumeration of
  standard monomials in a box around the generators.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# --- polynomials as printed by the CLI ---

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?(.*)$")


def parse_terms(text: str, names: list[str]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Terms of a rendered polynomial such as ``x5^2 - 3*x4*x6 + 1``."""
    index = {n: i for i, n in enumerate(names)}
    chunks = text.replace(" - ", " -").replace(" + ", " +").split(" ")
    terms = []
    for chunk in chunks:
        sign = -1 if chunk.startswith("-") else 1
        body = chunk.lstrip("+-")
        coeff_text, mono = _TERM.match(body).groups()
        exps = [0] * len(names)
        if mono and re.fullmatch(r"\d+(?:/\d+)?", mono):
            coeff = Fraction(mono)
        else:
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
            for factor in mono.split("*"):
                name, _, power = factor.partition("^")
                exps[index[name]] += int(power) if power else 1
        terms.append((sign * coeff, tuple(exps)))
    return terms


def check_toric(doc: dict, matrix: list[list[int]], names: list[str]) -> str | None:
    gens = doc.get("generators")
    if not gens:
        return "no toric generators"
    for text in gens:
        try:
            terms = parse_terms(text, names)
        except (KeyError, ValueError, AttributeError):
            return f"unparsable generator {text!r}"
        if len(terms) != 2 or sorted(c for c, _ in terms) != [-1, 1]:
            return f"{text!r} is not a binomial x^u - x^v"
        u, v = terms[0][1], terms[1][1]
        if any(a and b for a, b in zip(u, v)):
            return f"{text!r} has a common variable, so the ideal is not prime"
        for row in matrix:
            if sum(r * e for r, e in zip(row, u)) != sum(r * e for r, e in zip(row, v)):
                return f"{text!r} is not homogeneous: A u != A v"
    return None


# --- volumes ---


def shoelace_volume(points: list[tuple[int, int]]) -> int:
    """Twice the area of the convex hull (normalized volume in dim 2)."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice_area = sum(
        hull[i][0] * hull[(i + 1) % len(hull)][1] - hull[(i + 1) % len(hull)][0] * hull[i][1]
        for i in range(len(hull))
    )
    return abs(twice_area)


def check_volume(doc: dict, expected: int) -> str | None:
    if doc.get("volume") != expected:
        return f"volume {doc.get('volume')} != {expected}"
    return None


# --- local cohomology of projective monomial curves ---


def curve_holes(a: list[int]) -> set[tuple[int, int]]:
    """Degrees (e, x) of H^1_m(k[S]) for S generated by the (1, a_i)."""
    lo, hi = min(a), max(a)
    shifted = [x - lo for x in a]
    top = hi - lo
    depth = 2 * top + len(a) + 4
    reach = [1]
    for _ in range(2 * depth + 1):
        row = 0
        for s in shifted:
            row |= reach[-1] << s
        reach.append(row)

    def in_s(e: int, y: int) -> bool:
        return 0 <= y <= top * e and (reach[e] >> y) & 1 == 1

    holes = set()
    for e in range(depth + 1):
        for y in range(top * e + 1):
            if in_s(e, y):
                continue
            if in_s(e + depth, y) and in_s(e + depth, y + depth * top):
                holes.add((e, y + lo * e))
    return holes


def _points(doc: dict) -> set[tuple[Fraction, ...]] | str:
    out = set()
    for plane in doc.get("planes", []):
        if plane["span"]:
            return f"plane with span {plane['span']} where only points are possible"
        out.add(tuple(Fraction(c) for c in plane["base"]))
    return out


def check_curve_qlc(doc: dict, a: list[int]) -> str | None:
    got = _points(doc)
    if isinstance(got, str):
        return got
    want = {tuple(Fraction(c) for c in h) for h in curve_holes(a)}
    if got != want:
        return f"qlc points {sorted(got)} != H^1 degrees {sorted(want)}"
    return None


def check_status(doc: dict, status: str, volume: int) -> str | None:
    if doc.get("status") != status:
        return f"status {doc.get('status')} != {status}"
    return check_volume(doc, volume)


# --- rational linear algebra for planes ---


def rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def in_span(v, span) -> bool:
    if not any(v):
        return True
    return rank([list(s) for s in span] + [list(v)]) == rank([list(s) for s in span])


def plane_in(inner, outer) -> bool:
    """Is the affine plane inner = (base, span) inside outer?"""
    diff = [a - b for a, b in zip(inner[0], outer[0])]
    return in_span(diff, outer[1]) and all(in_span(v, outer[1]) for v in inner[1])


def check_point_in(doc: dict, beta: tuple[int, ...]) -> str | None:
    planes = [
        ([Fraction(c) for c in p["base"]], [[Fraction(c) for c in v] for v in p["span"]])
        for p in doc.get("planes", [])
    ]
    if not planes:
        return "empty, but H^1 is nonzero (depth 1 < dim 2)"
    if not any(plane_in((list(beta), []), p) for p in planes):
        return f"{beta} is a degree of H^1 but lies in no plane"
    return None


# --- monomial ideals ---


def divides(g, m) -> bool:
    return all(a <= b for a, b in zip(g, m))


def admissible(root, face, gens) -> bool:
    """No monomial root * (monomial in the face variables) lies in <gens>."""
    return all(any(g[i] > root[i] for i in range(len(root)) if i not in face) for g in gens)


def standard_box(gens, nvars):
    """Standard monomials in the box reaching one past every generator."""
    box = [range(max(g[i] for g in gens) + 2) for i in range(nvars)]
    for m in itertools.product(*box):
        if not any(divides(g, m) for g in gens):
            yield m


def pairs_error(pairs, gens, nvars) -> str | None:
    """Check a claimed list of (root, face) against the definition."""
    seen = set()
    for root, face in pairs:
        root = tuple(root)
        face = frozenset(face)
        if (root, face) in seen:
            return f"pair {root} {sorted(face)} listed twice"
        seen.add((root, face))
        if any(root[i] for i in face):
            return f"pair {root} {sorted(face)}: root meets face"
        if not admissible(root, face, gens):
            return f"pair {root} {sorted(face)} meets the ideal"
        for j in range(nvars):
            if j not in face:
                bigger = root[:j] + (0,) + root[j + 1 :]
                if admissible(bigger, face | {j}, gens):
                    return f"pair {root} {sorted(face)} is not maximal"
    for m in standard_box(gens, nvars):
        if not any(
            all(m[i] == r[i] or (i in f and m[i] >= r[i]) for i in range(nvars))
            for r, f in seen
        ):
            return f"standard monomial {m} is in no pair"
    return None


def check_std_pairs(doc: dict, gens, nvars: int) -> str | None:
    pairs = [(p["root"], p["face"]) for p in doc.get("pairs", [])]
    err = pairs_error(pairs, gens, nvars)
    if err:
        return err
    top = max((len(f) for _, f in pairs), default=0)
    degree = sum(1 for _, f in pairs if len(f) == top)
    if doc.get("degree") != degree:
        return f"degree {doc.get('degree')} != {degree} top-dimensional pairs"
    return None


def check_split_qdeg(doc: dict, rows, grading) -> str | None:
    """Quasidegrees of the direct sum of R(-shift_k)/I_k, planes reduced.

    ``rows`` holds (shift, generators) per row; ``grading`` is the degree
    matrix. Every plane must be the closure of degrees of an admissible
    family of standard monomials of one row, no plane may sit inside
    another, and every standard monomial in the box must land in a plane.
    """
    nvars = len(grading[0])
    degs = [[Fraction(grading[r][j]) for r in range(len(grading))] for j in range(nvars)]

    def degree(shift, m):
        return [Fraction(s) + sum(e * degs[j][r] for j, e in enumerate(m)) for r, s in enumerate(shift)]

    planes = [
        ([Fraction(c) for c in p["base"]], [[Fraction(c) for c in v] for v in p["span"]])
        for p in doc.get("planes", [])
    ]
    if not planes:
        return "no planes for a nonzero module"
    for i, p in enumerate(planes):
        for j, q in enumerate(planes):
            if i != j and plane_in(p, q):
                return f"plane {i} lies in plane {j}; --reduce should drop it"
    boxes = [(shift, gens, list(standard_box(gens, nvars))) for shift, gens in rows]
    for base, span in planes:
        dim = rank(span) if span else 0
        inside = [j for j in range(nvars) if in_span(degs[j], span)]
        found = False
        for shift, gens, std in boxes:
            for m in std:
                if degree(shift, m) != base:
                    continue
                for size in range(len(inside) + 1):
                    for face in itertools.combinations(inside, size):
                        if any(m[j] for j in face):
                            continue
                        if (rank([degs[j] for j in face]) if face else 0) != dim:
                            continue
                        if admissible(m, set(face), gens):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return f"plane base {base} is not the closure of any family of standard degrees"
    for shift, gens, std in boxes:
        for m in std:
            d = degree(shift, m)
            if not any(plane_in((d, []), p) for p in planes):
                return f"degree {d} of a standard monomial lies in no plane"
    return None
