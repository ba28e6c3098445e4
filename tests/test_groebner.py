import random
from fractions import Fraction

import pytest

from helpers import (
    free_module_dim,
    graded_map_rank,
    hilbert_quotient_dim,
    random_homogeneous_binomial_ideal,
    random_ideal,
    record_buchberger_runs,
    standard_monomial_count,
    term_degrees,
)
from quasidegrees.groebner import (
    buchberger,
    divide,
    ideal_equal,
    normal_form,
    poly_to_vec,
    saturate,
    top_key,
    vec_groebner,
    vec_initial_module,
    vec_syzygies,
    vec_to_vector,
    vector_to_vec,
)
from quasidegrees.parse import parse_polynomial
from quasidegrees.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    exps_divides,
    exps_lcm,
    standard_graded_ring,
)

R2 = standard_graded_ring(("x", "y"))
R3 = standard_graded_ring(("x", "y", "z"))


def p2(s):
    return parse_polynomial(s, R2)


def p3(s):
    return parse_polynomial(s, R3)


# --- division ---


def test_divide_simple():
    qs, r = divide(p2("x^2 + y^2"), [p2("x")])
    assert qs == [p2("x")]
    assert r == p2("y^2")


def test_divide_reconstruction_and_reducedness():
    rng = random.Random(123)
    for _ in range(40):
        f = random_ideal(rng, 2, 1, 4, 3)[0]
        divisors = [g for g in random_ideal(rng, 2, 2, 2, 2) if not g.is_zero()]
        if not divisors:
            continue
        qs, r = divide(f, divisors, GREVLEX)
        total = r
        for q, d in zip(qs, divisors):
            total = total + q * d
        assert total == f
        lead_exps = [d.lead_term(GREVLEX)[0] for d in divisors]
        for e in r.terms:
            assert not any(exps_divides(l, e) for l in lead_exps)


def test_divide_first_divisor_wins():
    # both divisors match the lead term; the quotient must land on the first
    qs, r = divide(p2("x*y"), [p2("x"), p2("y")])
    assert qs[0] == p2("y")
    assert qs[1].is_zero()
    assert r.is_zero()


def test_divide_rejects_zero_divisor():
    with pytest.raises(ValueError):
        divide(p2("x"), [Polynomial.zero(2)])


# --- Buchberger ---


def test_buchberger_empty():
    assert buchberger(()).generators == ()
    assert buchberger([Polynomial.zero(2)]).generators == ()


def test_buchberger_known_basis():
    gb = buchberger([p2("x*y - 1"), p2("y^2 - 1")])
    assert list(gb.generators) == [p2("x - y"), p2("y^2 - 1")]


def test_buchberger_on_exponents_past_fifteen_bits():
    # x^40001 - x * (x^40000 - y) = x*y, then y^2 from the pair with x*y
    gb = buchberger([p2("x^40000 - y"), p2("x^40001")])
    assert list(gb.generators) == [p2("y^2"), p2("x*y"), p2("x^40000 - y")]
    # x^80000 = x^40000 * x^40000 reduces to y^2, which is in the basis
    assert normal_form(p2("x^80000 + x + y"), gb) == p2("x + y")


def count_widenings(monkeypatch):
    """A list that grows by one layout each time the kernel repacks wider."""
    from quasidegrees.words import Words

    seen = []
    wider = Words.wider

    def counted(self):
        seen.append(wider(self))
        return seen[-1]

    monkeypatch.setattr(Words, "wider", counted)
    return seen


def test_a_run_whose_exponents_outgrow_the_layout_starts_again_wider(monkeypatch):
    # the inputs fit 7-bit fields, but in lex the basis reaches y^200: the
    # run repacks partway through and gives the basis of any layout
    seen = count_widenings(monkeypatch)
    gens = [p2("x - y^20"), p2("x^10")]
    assert list(buchberger(gens, LEX).generators) == [p2("y^200"), p2("x - y^20")]
    assert [w.width for w in seen] == [14]
    # with a transcript: the syzygies and lifts of the wider run
    check_syzygies(gens, vec_syzygies([poly_to_vec(g) for g in gens], top_key(LEX), 2))
    assert len(seen) == 2
    qs, r = divide(p2("x^10*y^190"), [p2("y^200"), p2("x - y^20")], LEX)
    assert r == Polynomial.zero(2)
    assert qs[0] * p2("y^200") + qs[1] * p2("x - y^20") == p2("x^10*y^190")


def test_vecdicts_of_mixed_layouts_meet_in_the_widest():
    # the generators fit 7-bit fields, the target needs 10: the lift runs
    # in the target's layout and rebuilds the target
    from quasidegrees.groebner import vec_lift

    gens = [(p2("x^2"), p2("y")), (p2("y^3"), p2("x*y"))]
    target = tuple(p2("x^298") * a + p2("x^297") * b for a, b in zip(*gens))
    packed = [vector_to_vec(v) for v in gens]
    (lift,) = vec_lift([vector_to_vec(target)], packed, top_key(GREVLEX))
    assert lift.words.width > packed[0].words.width
    qs = vec_to_vector(lift, 2, 2)
    assert tuple(qs[0] * a + qs[1] * b for a, b in zip(*gens)) == target


def test_buchberger_is_deterministic_under_permutation():
    gens = [p3("x*y - z"), p3("y*z - x"), p3("x*z - y")]
    gb1 = buchberger(gens)
    gb2 = buchberger(list(reversed(gens)))
    assert gb1.generators == gb2.generators


def test_buchberger_reduced_form():
    gb = buchberger([p2("x^2 - y"), p2("x^2 - x")])
    lead_exps = [g.lead_term(GREVLEX)[0] for g in gb.generators]
    for i, g in enumerate(gb.generators):
        exps, coeff = g.lead_term(GREVLEX)
        assert coeff == 1
        for j, l in enumerate(lead_exps):
            if i != j:
                assert not exps_divides(l, exps)
        # no tail term divisible by any other lead
        for e in g.terms:
            if e != exps:
                assert not any(exps_divides(l, e) for l in lead_exps)


def spairs_reduce_to_zero(gens, order):
    from quasidegrees.poly import exps_lcm, exps_sub

    for i in range(len(gens)):
        for j in range(i):
            ei, ci = gens[i].lead_term(order)
            ej, cj = gens[j].lead_term(order)
            lcm = exps_lcm(ei, ej)
            s = Polynomial.monomial(exps_sub(lcm, ei), 1 / ci) * gens[i] - Polynomial.monomial(
                exps_sub(lcm, ej), 1 / cj
            ) * gens[j]
            if not normal_form(s, list(gens), order).is_zero():
                return False
    return True


def test_groebner_property_small_sample():
    rng = random.Random(5)
    for _ in range(25):
        nvars = rng.randint(1, 3)
        gens = random_ideal(rng, nvars)
        for order in (GREVLEX, LEX):
            gb = buchberger(gens, order)
            assert spairs_reduce_to_zero(gb.generators, order)
            for g in gens:
                assert normal_form(g, gb).is_zero()


def test_normal_form_membership():
    gb = buchberger([p3("x*y - z"), p3("y*z - x")])
    f = p3("(x*y - z)*(x + y^2) + (y*z - x)*z^3 + x + 1")
    assert normal_form(f, gb) == normal_form(p3("x + 1"), gb)


# --- syzygies ---


def check_syzygies(gens, syz):
    """The vecdict syzygies ``syz`` of ``gens`` (polynomials or equal-length
    tuples of them) as tuples of polynomials, each checked to satisfy
    sum q_i * gens_i = 0 in polynomial arithmetic."""
    vectors = [(g,) for g in gens] if isinstance(gens[0], Polynomial) else gens
    nvars = vectors[0][0].nvars
    out = []
    for w in syz:
        q = vec_to_vector(w, len(gens), nvars)
        for comp in range(len(vectors[0])):
            total = Polynomial.zero(nvars)
            for c, v in zip(q, vectors):
                total = total + c * v[comp]
            assert total.is_zero()
        out.append(q)
    return out


def assert_syzygies_span_kernel(ring, vectors, syz, top):
    """In every degree up to ``top``, the syzygies of homogeneous
    ``vectors`` span the kernel of the map they define, by ranks of
    degree pieces (no Groebner basis involved)."""
    gen_degs = [term_degrees(v, [(0,)] * len(v), ring).pop() for v in vectors]
    syz_degs = [term_degrees(w, gen_degs, ring).pop() for w in syz]
    for b in range(top + 1):
        kernel = free_module_dim(ring, gen_degs, (b,)) - graded_map_rank(
            ring, vectors, gen_degs, (b,)
        )
        assert graded_map_rank(ring, syz, syz_degs, (b,)) == kernel, b


def test_syzygies_of_two_monomials():
    gens = [p3("x*y"), p3("y*z")]
    packed = [poly_to_vec(g) for g in gens]
    syz = check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), 3))
    assert len(syz) == 1
    v = syz[0]
    # (z, -x) up to a scalar
    scale = v[0].terms[(0, 0, 1)]
    assert v[0] == scale * p3("z")
    assert v[1] == scale * (-p3("x"))


def test_syzygies_of_redundant_generators():
    gens = [p2("x"), p2("x")]
    packed = [poly_to_vec(g) for g in gens]
    syz = check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), 2))
    assert any(v[0].total_degree() == 0 and not v[0].is_zero() for v in syz)


def test_syzygies_with_zero_generator():
    gens = [p2("x"), Polynomial.zero(2)]
    packed = [poly_to_vec(g) for g in gens]
    syz = check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), 2))
    assert any(v == (Polynomial.zero(2), Polynomial.constant(2, 1)) for v in syz)


def test_syzygies_of_free_pair_are_trivial():
    gens = [(p2("x"), Polynomial.zero(2)), (Polynomial.zero(2), p2("y"))]
    assert vec_syzygies([vector_to_vec(v) for v in gens], top_key(GREVLEX), 2) == []


def test_syzygies_random_ideals():
    rng = random.Random(17)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        gens = random_ideal(rng, nvars, max_gens=3, max_terms=2, max_exp=2)
        packed = [poly_to_vec(g) for g in gens]
        check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), nvars))


def test_syzygies_random_modules():
    rng = random.Random(19)
    for _ in range(10):
        t = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            gens.append(
                tuple(
                    random_ideal(rng, 2, 1, 2, 2)[0] if rng.random() < 0.8 else Polynomial.zero(2)
                    for _ in range(t)
                )
            )
        packed = [vector_to_vec(v) for v in gens]
        check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), 2))


def test_syzygy_completeness_koszul():
    # the syzygies of x, y, z are generated by the three Koszul relations
    # in degree 2: the computed ones span the kernel through degree 3
    gens = [p3("x"), p3("y"), p3("z")]
    packed = [poly_to_vec(g) for g in gens]
    syz = check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), 3))
    assert_syzygies_span_kernel(R3, [(g,) for g in gens], syz, 3)


def test_syzygies_of_a_dropped_generator_generate():
    # x + y reduces to zero against x and y, so its syzygy (1, 1, -1)
    # comes from its reduction: the syzygies span the kernel in degree 1
    gens = [p2("x"), p2("y"), p2("x + y")]
    packed = [poly_to_vec(g) for g in gens]
    syz = check_syzygies(gens, vec_syzygies(packed, top_key(GREVLEX), 2))
    assert_syzygies_span_kernel(R2, [(g,) for g in gens], syz, 2)


def random_homogeneous_vectors(rng, ring, t, ngens, max_deg):
    """``ngens`` nonzero homogeneous elements of R^t, each component zero
    or one to three terms of the element's degree."""
    out = []
    while len(out) < ngens:
        mons = list(ring.monomials_of_degree((rng.randint(1, max_deg),)))
        vec = []
        for _ in range(t):
            picked = rng.sample(mons, min(len(mons), rng.randint(1, 3)))
            coeffs = {m: Fraction(rng.choice((-2, -1, 1, 3))) for m in picked}
            vec.append(Polynomial(ring.nvars, coeffs if rng.random() < 0.8 else {}))
        if any(vec):
            out.append(tuple(vec))
    return out


def lead_terms(run, t, nvars):
    """(component, exponents) of each basis lead of a ``_buchberger`` run,
    read through ``vec_to_vector``."""
    from quasidegrees.groebner import VecPoly, vec_to_vector

    out = []
    for lead in run.leads:
        v = vec_to_vector(VecPoly(run.words, {lead: 1}), t, nvars)
        ((k, f),) = [(k, f) for k, f in enumerate(v) if f]
        (e,) = f.terms
        out.append((k, e))
    return out


def test_syzygies_are_complete_when_the_chain_criterion_skips_pairs():
    # homogeneous ideals and submodules of R^2 with five or six
    # generators in three variables: the chain criterion skips pairs, and
    # the syzygies still span the kernel of the generators in every degree
    # up to the largest lcm of two basis leads or generator degree, which
    # bounds the degrees of a generating set (Schreyer)
    rng = random.Random(211)
    fired = 0
    for case in range(8):
        t = 1 + case % 2
        vectors = random_homogeneous_vectors(rng, R3, t, rng.randint(5, 6), 2)
        packed = [vector_to_vec(v) for v in vectors]
        syz, runs = record_buchberger_runs(vec_syzygies, packed, top_key(GREVLEX), 3)
        (run,) = runs
        fired += run.pairs_chain > 0
        assert run.pairs_coprime == 0
        syz = check_syzygies(vectors, syz)
        leads = lead_terms(run, t, 3)
        top = max(
            [sum(e) for v in vectors for f in v for e in f.terms]
            + [sum(exps_lcm(a, b)) for p, a in leads for q, b in leads if p == q]
        )
        assert_syzygies_span_kernel(R3, vectors, syz, top)
    assert fired >= 3


def test_syzygies_and_lifts_of_one_run():
    from quasidegrees.groebner import vec_syzygies_and_lifts

    rng = random.Random(227)
    mkey = top_key(GREVLEX)
    zero = (Polynomial.zero(3), Polynomial.zero(3))
    for _ in range(6):
        vectors = random_homogeneous_vectors(rng, R3, 2, 4, 2) + [zero]
        gens = [vector_to_vec(v) for v in vectors]
        targets = [{}]
        for _ in range(2):
            # a combination c * x^e of each generator, the zero one too
            target = zero
            for v in vectors:
                e = tuple(rng.randint(0, 1) for _ in range(3))
                m = Polynomial.monomial(e, rng.choice((-1, 2)))
                target = tuple(a + m * b for a, b in zip(target, v))
            targets.append(vector_to_vec(target))
        (syz, lifts), runs = record_buchberger_runs(
            vec_syzygies_and_lifts, gens, targets, mkey, 3
        )
        assert len(runs) == 1
        assert len(lifts) == len(targets) and lifts[0] == {}
        # each lift rebuilds its target from the generators
        for target, lift in zip(targets, lifts):
            q = vec_to_vector(lift, len(vectors), 3)
            rebuilt = tuple(sum((c * v[k] for c, v in zip(q, vectors)), Polynomial.zero(3)) for k in range(2))
            assert rebuilt == vec_to_vector(target, 2, 3)
        # every syzygy kills the generators, and the zero one has its unit syzygy
        syz_vectors = check_syzygies(vectors, syz)
        others = (Polynomial.zero(3),) * (len(vectors) - 1)
        assert any(w[:-1] == others and w[-1] and w[-1].total_degree() == 0 for w in syz_vectors)


# --- coefficients ---


def test_exact_div_is_an_int_while_integral():
    from quasidegrees.groebner import exact_div, poly_to_vec, vec_to_poly

    assert type(exact_div(6, 3)) is int and exact_div(6, 3) == 2
    assert type(exact_div(-1, -1)) is int and exact_div(-1, -1) == 1
    assert exact_div(1, -2) == Fraction(-1, 2)
    assert type(exact_div(Fraction(3, 2), Fraction(3, 4))) is int
    assert exact_div(Fraction(3, 2), 2) == Fraction(3, 4)
    assert exact_div(2, Fraction(4, 3)) == Fraction(3, 2)
    vec = poly_to_vec(p2("x - 3*y + 1/2"))
    assert [type(c) for c in vec.values()].count(int) == 2
    assert vec_to_poly(vec, 2).terms[(0, 0)] == Fraction(1, 2)


SCALES = [Fraction(3, 2), Fraction(-5, 7), Fraction(2, 9), 3, -1]


def test_rational_and_non_unit_coefficients():
    # generators scaled by 3/2, -5/7, ... take the division, S-pair and
    # monic-rescaling steps out of the integers: the reduced basis is the
    # one of the unscaled generators, syzygies vanish and lifts rebuild
    from quasidegrees.groebner import vec_lift

    rng = random.Random(137)
    nvars = 2
    for _ in range(12):
        t = rng.randint(1, 2)
        vectors = [
            tuple(random_ideal(rng, nvars, 1, 3, 2)[0] for _ in range(t))
            for _ in range(rng.randint(2, 3))
        ]
        scales = [rng.choice(SCALES) for _ in vectors]
        scaled = [tuple(f * c for f in v) for v, c in zip(vectors, scales)]
        for order in (GREVLEX, LEX):
            mkey = top_key(order)
            basis, scaled_basis = (
                [vec_to_vector(g, t, nvars) for g in vec_groebner(map(vector_to_vec, gens), mkey)]
                for gens in (vectors, scaled)
            )
            assert scaled_basis == basis
            if t == 1:
                ideal = [v[0] for v in vectors]
                assert buchberger([v[0] for v in scaled], order) == buchberger(ideal, order)
            check_syzygies(scaled, vec_syzygies([vector_to_vec(v) for v in scaled], mkey, nvars))
            # targets: combinations of the generators with rational weights
            targets = []
            for _ in range(3):
                target = tuple(Polynomial.zero(nvars) for _ in range(t))
                for v in scaled:
                    q = random_ideal(rng, nvars, 1, 2, 1)[0] * rng.choice(SCALES)
                    target = tuple(a + q * b for a, b in zip(target, v))
                if any(target):
                    targets.append(target)
            lifts = vec_lift(
                [vector_to_vec(x) for x in targets],
                [vector_to_vec(v) for v in scaled],
                mkey,
            )
            for x, w in zip(targets, lifts):
                qs = vec_to_vector(w, len(scaled), nvars)
                rebuilt = tuple(
                    sum((q * v[k] for q, v in zip(qs, scaled)), Polynomial.zero(nvars))
                    for k in range(t)
                )
                assert rebuilt == x


# --- module bases ---


def test_vec_groebner_position_up():
    # same term in two components: the lower component is the lead,
    # so a vector with support in component 0 alone cannot be reduced
    # by one leading in component 1; the reduced basis is (0,x), (x,0),
    # in increasing order of the leads x*e1 < x*e0
    x = p2("x")
    z = Polynomial.zero(2)
    gb = vec_groebner([vector_to_vec((x, x)), vector_to_vec((z, x))], top_key(GREVLEX))
    assert [vec_to_vector(g, 2, 2) for g in gb] == [(z, x), (x, z)]


def test_vec_groebner_keeps_coprime_pairs():
    # the leads x*e0 and y*e0 are coprime, yet their S-pair (0, y) does
    # not reduce: the coprime criterion holds only for ideals
    x, y, one = p2("x"), p2("y"), p2("1")
    z = Polynomial.zero(2)
    gb = vec_groebner([vector_to_vec((x, one)), vector_to_vec((y, z))], top_key(GREVLEX))
    assert (z, y) in [vec_to_vector(g, 2, 2) for g in gb]


def test_vec_initial_module_of_an_ideal_and_a_module():
    gens = [p2("x*y - 1"), p2("y^2 - 1")]
    (lead,) = vec_initial_module([poly_to_vec(g) for g in gens], 1, GREVLEX)
    assert sorted(lead) == [(0, 2), (1, 0)]
    # the lead exponents of the reduced basis, read with the order's key
    assert sorted(lead) == sorted(g.lead_term(GREVLEX)[0] for g in buchberger(gens))
    x = p2("x")
    z = Polynomial.zero(2)
    assert vec_initial_module([vector_to_vec(v) for v in [(x, x), (z, x)]], 2, GREVLEX) == [
        [(1, 0)],
        [(1, 0)],
    ]


# --- saturation ---


def test_saturate_monomial():
    out = saturate([p2("x^2*y"), p2("x*y^2")], p2("x"))
    assert ideal_equal(out, [p2("y")])


def test_saturate_binomial():
    out = saturate([p2("x^2 - x*y")], p2("x"))
    assert ideal_equal(out, [p2("x - y")])


def test_saturate_already_saturated():
    out = saturate([p2("y")], p2("x"))
    assert out == [p2("y")]


def test_saturate_zero_ideal():
    assert saturate([], p2("x")) == []
    assert saturate([Polynomial.zero(2)], p2("x")) == []


def test_saturate_rejects_zero():
    with pytest.raises(ValueError):
        saturate([p2("x")], Polynomial.zero(2))


def test_saturate_property_random():
    # f^k * g lands in the ideal for every saturation generator g
    rng = random.Random(23)
    for _ in range(10):
        gens = [g for g in random_ideal(rng, 2, 2, 2, 2) if not g.is_zero()]
        if not gens:
            continue
        f = p2("x")
        out = saturate(gens, f)
        gb = buchberger(gens)
        for g in out:
            h = g
            ok = False
            for _ in range(12):
                if normal_form(h, gb).is_zero():
                    ok = True
                    break
                h = h * f
            assert ok


# --- ideal equality ---


def test_ideal_equal():
    assert ideal_equal([p2("x"), p2("y")], [p2("y"), p2("x + y")])
    assert ideal_equal([p2("2*x")], [p2("x")])
    assert not ideal_equal([p2("x")], [p2("x"), p2("y")])
    assert ideal_equal([], [Polynomial.zero(2)])


# --- Hilbert function invariance (small version; the counted suite is in
# the acceptance tests) ---


def test_hilbert_function_matches_initial_module():
    rng = random.Random(29)
    for _ in range(8):
        nvars = rng.randint(2, 3)
        ring = standard_graded_ring(tuple(f"x{i}" for i in range(nvars)))
        gens = random_homogeneous_binomial_ideal(rng, nvars)
        if all(g.is_zero() for g in gens):
            continue
        (lead,) = vec_initial_module([poly_to_vec(g) for g in gens], 1, GREVLEX)
        for d in range(6):
            assert hilbert_quotient_dim(ring, gens, (d,)) == standard_monomial_count(
                ring, lead, (d,)
            )
