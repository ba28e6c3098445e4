import random

import pytest

from quasidegrees.words import (
    VecPoly,
    WordOverflow,
    Words,
    common_layout,
    lcm,
    vec_repack,
    widening,
)


def random_exps(rng, words):
    return [rng.randint(0, words.low) for _ in range(words.nvars)]


@pytest.mark.parametrize("nvars", [0, 1, 2, 5, 9, 10])
@pytest.mark.parametrize("width", [0, 1, 3, 7, 14])
def test_forms_match_the_sum_over_fields(nvars, width):
    rng = random.Random(nvars * 31 + width)
    words = Words(nvars, width)
    for _ in range(60):
        e = random_exps(rng, words)
        word = words.pack(e)
        assert words.unpack(word) == tuple(e)
        assert words.degree(word) == sum(e)
        for top in (1, 40, 10**6):
            weights = [rng.randint(0, top) for _ in range(nvars)]
            assert words.form(weights)(word) == sum(map(int.__mul__, weights, e))
        signed = [rng.randint(-3, 3) for _ in range(nvars)]
        assert words.form(signed)(word) == sum(map(int.__mul__, signed, e))


def test_degree_of_many_variables():
    words = Words(600, 7)
    assert words.degree(words.pack([127] * 600)) == 127 * 600


def test_divisibility_lcm_and_guard_bits():
    rng = random.Random(5)
    words = Words(4, 3)
    for _ in range(300):
        a, b = random_exps(rng, words), random_exps(rng, words)
        wa, wb = words.pack(a), words.pack(b)
        divides = ((wb | words.guards) - wa) & words.guards == words.guards
        assert divides == all(x <= y for x, y in zip(a, b))
        assert words.unpack(lcm(wa, wb, words.guards, words.width)) == tuple(map(max, a, b))
        # a sum leaves the layout exactly when some field reaches 2^width
        assert bool((wa + wb) & words.guards) == any(x + y > words.low for x, y in zip(a, b))


def test_terms_repack_into_a_wider_layout_and_not_into_a_narrower_one():
    narrow, wide = Words(3, 7), Words(3, 14)
    t = narrow.term(5, (100, 0, 7))
    assert narrow.repack(t, wide) == wide.term(5, (100, 0, 7)) != t
    assert wide.repack(wide.term(2, (9000, 1, 1)), wide) == wide.term(2, (9000, 1, 1))
    with pytest.raises(WordOverflow):
        wide.repack(wide.term(2, (9000, 1, 1)), narrow)
    assert Words.fit(3, 100).width == 8 and Words.fit(3, 2).width == 7
    assert narrow.wider() == Words(3, 14) and Words(3, 0).wider().width == 2


def test_widening_runs_in_the_widest_layout_and_again_twice_as_wide():
    narrow, wide = Words(2, 7), Words(2, 9)
    v = VecPoly(narrow, {narrow.term(0, (3, 4)): 1})
    w = VecPoly(wide, {wide.term(1, (300, 0)): 2})
    assert common_layout([v, {}, w]) == wide and common_layout([], 2) == Words.fit(2, 0)
    assert vec_repack(v, narrow) is v and vec_repack({}, wide) == {}
    seen = []

    def run(words, vs, ws):
        seen.append(words.width)
        if words.width < 30:
            raise WordOverflow
        return [words.unpack(t & words.mask) for t in (*vs[0], *ws[0])]

    assert widening(run, [v], [w]) == [(3, 4), (300, 0)]
    assert seen == [9, 18, 36]
