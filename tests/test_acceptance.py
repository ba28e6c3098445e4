"""Acceptance gate: one test per shipped criterion.

Each test prints a single ``ACCEPTANCE <n> <name>: PASS`` or ``... FAIL``
line (visible with ``pytest tests/test_acceptance.py -s``) and enforces the
stated runtime budget where one exists.  Tolerances are exact everywhere;
all arithmetic is rational.
"""

import io
import itertools
import json
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    apply_matrix,
    hilbert_quotient_dim,
    random_homogeneous_binomial_ideal,
    random_ideal,
    random_monomial_ideal,
    random_polynomial,
    resolution_k_polynomial_matches,
    standard_monomial_count,
    term_degrees,
)
from quasidegrees import (
    GREVLEX,
    AffinePlane,
    GradedPresentation,
    IntMatrix,
    Polynomial,
    buchberger,
    divide,
    free_resolution,
    ideal_equal,
    normal_form,
    parse_polynomial,
    plane_contains,
    qlc,
    qlc_total,
    remove_redundancy,
    standard_graded_ring,
    standard_pairs,
    to_a_graded_ring,
    toric_ideal,
)
from quasidegrees.cli import main as cli_main
from quasidegrees.homology import dual_shift_plane
from quasidegrees.planes import QuasidegreeSet
from quasidegrees.poly import exps_divides, exps_lcm
from quasidegrees.stdpairs import pair_contains

# resolutions built inside qlc and Ext are checked as well
pytestmark = pytest.mark.usefixtures("k_polynomial_checked_resolutions")

F = Fraction
JOBS = Path(__file__).resolve().parent.parent / "jobs"
A35 = IntMatrix(((1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, -2)))


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num} {name}: FAIL (took {elapsed:.1f}s, budget {budget:g}s)")
        raise AssertionError(f"criterion {num} exceeded {budget:g}s: {elapsed:.1f}s")
    print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_qdeg_golden(tmp_path):
    with criterion(1, "qdeg golden", budget=1.0):
        job = tmp_path / "monomial.json"
        job.write_text(
            json.dumps(
                {
                    "variables": ["x", "y", "z"],
                    "grading": "standard",
                    "ideal": ["x*y", "y*z"],
                }
            )
        )
        # the y-axis pair and the xz-plane pair both give the line Q;
        # it prints once, with its span in reduced row echelon form
        code, out, _ = run_cli(["qdeg", str(job)])
        assert code == 0
        assert out.splitlines() == ["base (0) span {(1)}"]
        code, out, _ = run_cli(["qdeg", str(job), "--reduce"])
        assert code == 0
        assert out.splitlines() == ["base (0) span {(1)}"]


def test_criterion_2_toric_golden():
    with criterion(2, "toric golden", budget=10.0):
        ring = to_a_graded_ring(A35)
        computed = toric_ideal(A35, ring)
        expected = [
            parse_polynomial(s, ring)
            for s in (
                "x1*x3 - x2*x4",
                "x1*x4^2 - x3^2*x5",
                "x1^2*x4 - x2*x3*x5",
                "x1^3 - x2^2*x5",
            )
        ]
        assert ideal_equal(computed, expected)


def test_criterion_3_qlc_golden():
    with criterion(3, "local cohomology golden", budget=120.0):
        ring = to_a_graded_ring(A35)
        P = GradedPresentation.cyclic(ring, toric_ideal(A35, ring))
        total = qlc_total(P)
        assert len(total.planes) == 1
        (plane,) = total.planes
        assert plane == AffinePlane((0, 0, 1), ((1, 0, -2),))
        assert plane == AffinePlane((2, 0, -3), ((-1, 0, 2),))
        assert plane.span == ((F(1), F(0), F(-2)),)
        code, out, _ = run_cli(["qlc", str(JOBS / "rank_jump_demo.json")])
        assert code == 0
        assert out.splitlines() == ["base (0, 0, 1) span {(1, 0, -2)}"]


def test_criterion_4_volume():
    with criterion(4, "normalized volume", budget=10.0):
        code, out, _ = run_cli(["volume", str(JOBS / "rank_jump_demo.json")])
        assert code == 0
        assert out.strip() == "volume 4"


def test_criterion_5_rank_jump_predicate():
    with criterion(5, "rank-jump predicate"):
        job = str(JOBS / "rank_jump_demo.json")
        code, out, _ = run_cli(["check-beta", job, "0,0,1"])
        assert code == 0 and out.startswith("RANK-JUMP")
        code, out, _ = run_cli(["check-beta", job, "3/2,0,-2"])
        assert code == 0 and out.startswith("RANK-JUMP")
        code, out, _ = run_cli(["check-beta", job, "0,0,0"])
        assert code == 0 and out.startswith("EXPECTED-RANK vol(A)=4")


def test_criterion_6_standard_pairs_properties():
    with criterion(6, "standard pairs cover and maximality", budget=60.0):
        rng = random.Random(20260816)
        bound = 6
        checked = 0
        while checked < 100:
            nvars = rng.randint(1, 4)
            gens = random_monomial_ideal(rng, nvars, max_gens=5, max_exp=4)
            if not gens:
                continue
            pairs = standard_pairs(gens, nvars)
            for p in pairs:
                for q in pairs:
                    assert p is q or not pair_contains(p, q)
            covered = set()
            for p in pairs:
                axes = [
                    range(bound + 1) if i in p.face else (p.root[i],)
                    for i in range(nvars)
                ]
                covered.update(itertools.product(*axes))
            outside = {
                e
                for e in itertools.product(range(bound + 1), repeat=nvars)
                if not any(exps_divides(g, e) for g in gens)
            }
            assert covered == outside
            checked += 1


def s_polynomial(f, g, order):
    ef, cf = f.lead_term(order)
    eg, cg = g.lead_term(order)
    lcm = exps_lcm(ef, eg)
    mf = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, ef)), 1 / cf)
    mg = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, eg)), 1 / cg)
    return mf * f - mg * g


def test_criterion_7_groebner_properties():
    with criterion(7, "Groebner S-pairs, division, Hilbert", budget=120.0):
        rng = random.Random(20260817)
        checked = 0
        while checked < 100:
            nvars = rng.randint(2, 3)
            gens = [g for g in random_ideal(rng, nvars, max_gens=4) if not g.is_zero()]
            if len(gens) < 2:
                continue
            gb = buchberger(gens, GREVLEX)
            G = gb.generators
            for i in range(len(G)):
                for j in range(i + 1, len(G)):
                    s = s_polynomial(G[i], G[j], GREVLEX)
                    assert normal_form(s, gb).is_zero()
            f = random_polynomial(rng, nvars)
            qs, r = divide(f, G, GREVLEX) if G else ([], f)
            reconstructed = Polynomial.zero(nvars)
            for q, g in zip(qs, G):
                reconstructed = reconstructed + q * g
            assert reconstructed + r == f
            leads = [g.lead_term(GREVLEX)[0] for g in G]
            for e in r.terms:
                assert not any(exps_divides(le, e) for le in leads)
            checked += 1

        binom_checked = 0
        while binom_checked < 30:
            nvars = rng.randint(2, 3)
            ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
            gens = random_homogeneous_binomial_ideal(rng, nvars, max_gens=2, max_deg=3)
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens, GREVLEX)
            leads = [g.lead_term(GREVLEX)[0] for g in gb.generators]
            for k in range(6):
                assert hilbert_quotient_dim(ring, gens, (k,)) == standard_monomial_count(
                    ring, leads, (k,)
                )
            binom_checked += 1


def _check_resolution(res):
    n = res.ring.nvars
    for i in range(1, res.length):
        t_out = res.rank(i - 1)
        for col in res.differentials[i]:
            image = apply_matrix(res.differentials[i - 1], col, n, t_out)
            assert all(f.is_zero() for f in image)
    for i, cols in enumerate(res.differentials):
        for col, expected in zip(cols, res.shifts[i + 1]):
            assert term_degrees(col, res.shifts[i], res.ring) == {expected}
    assert resolution_k_polynomial_matches(res)


def test_criterion_8_homology_properties():
    with criterion(8, "resolutions, duality, d=1 example"):
        rng = random.Random(20260818)
        for _ in range(10):
            nvars = rng.randint(2, 3)
            ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
            if rng.random() < 0.5:
                gens = [
                    Polynomial.monomial(e)
                    for e in random_monomial_ideal(rng, nvars, max_gens=3, max_exp=2)
                ]
            else:
                gens = random_homogeneous_binomial_ideal(
                    rng, nvars, max_gens=2, max_deg=3
                )
            P = GradedPresentation.cyclic(ring, [g for g in gens if not g.is_zero()])
            _check_resolution(free_resolution(P))

        ring = to_a_graded_ring(A35)
        P = GradedPresentation.cyclic(ring, toric_ideal(A35, ring))
        _check_resolution(free_resolution(P))

        R1 = standard_graded_ring(("x",))
        P1 = GradedPresentation.cyclic(R1, [parse_polynomial("x", R1)])
        q = qlc(P1, 0)
        assert [(p.base, p.span) for p in q.planes] == [((F(0),), ())]

        eps = (5, 2, 0)
        for _ in range(25):
            base = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            span = tuple(
                tuple(F(rng.randint(-3, 3)) for _ in range(3))
                for _ in range(rng.randint(0, 2))
            )
            p = AffinePlane(base, span)
            pp = dual_shift_plane(dual_shift_plane(p, eps), eps)
            assert pp.base == p.base and pp.span == p.span


def _random_plane(rng, d):
    base = tuple(F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(d))
    span = tuple(
        tuple(F(rng.randint(-3, 3)) for _ in range(d))
        for _ in range(rng.randint(0, d))
    )
    return AffinePlane(base, span)


def _sample_points(rng, plane, count=20):
    points = []
    for _ in range(count):
        pt = list(plane.base)
        for v in plane.span:
            c = F(rng.randint(-40, 40), rng.randint(1, 4))
            pt = [a + c * b for a, b in zip(pt, v)]
        points.append(tuple(pt))
    return points


def test_criterion_9_plane_arrangement_properties():
    with criterion(9, "plane redundancy removal and containment"):
        rng = random.Random(20260819)
        for _ in range(100):
            d = rng.randint(1, 4)
            planes = tuple(_random_plane(rng, d) for _ in range(rng.randint(1, 6)))
            q = QuasidegreeSet(planes)
            reduced = remove_redundancy(q)
            kept = reduced.planes
            for i, p in enumerate(kept):
                assert any(p == orig for orig in planes)
                for j, other in enumerate(kept):
                    if i != j:
                        assert not plane_contains(other, p)
            for orig in planes:
                assert any(plane_contains(k, orig) for k in kept)

            a, b = rng.choice(planes), rng.choice(planes)
            samples = _sample_points(rng, b)
            if plane_contains(a, b):
                assert all(a.contains_point(pt) for pt in samples)
            else:
                assert any(not a.contains_point(pt) for pt in samples)
