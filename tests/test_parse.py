from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasidegrees import parse
from quasidegrees.parse import (
    MAX_NESTING,
    ParseError,
    UnknownVariableError,
    _Parser,
    parse_polynomial,
    render_polynomial,
)
from quasidegrees.poly import GREVLEX, LEX, Polynomial, standard_graded_ring

R3 = standard_graded_ring(("x", "y", "z"))


def test_parse_basic():
    f = parse_polynomial("x*y - y*z", R3)
    assert f.terms == {(1, 1, 0): Fraction(1), (0, 1, 1): Fraction(-1)}


def test_parse_rational_coefficients():
    f = parse_polynomial("3/2*x^2 - 1/3", R3)
    assert f.terms == {(2, 0, 0): Fraction(3, 2), (0, 0, 0): Fraction(-1, 3)}


def test_parse_powers_and_parens():
    f = parse_polynomial("(x + y)^2", R3)
    g = parse_polynomial("x^2 + 2*x*y + y^2", R3)
    assert f == g


def test_parse_nesting_limit():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deep, R3) == parse_polynomial("x", R3)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested"):
            parse_polynomial("(" * depth + "x" + ")" * depth, R3)


def test_parse_unary_minus():
    assert parse_polynomial("-x", R3) == -parse_polynomial("x", R3)
    assert parse_polynomial("--x", R3) == parse_polynomial("x", R3)
    assert parse_polynomial("x - -y", R3) == parse_polynomial("x + y", R3)


def test_parse_cancellation_to_zero():
    assert parse_polynomial("x^2 - x^2", R3).is_zero()
    assert parse_polynomial("0", R3).is_zero()


def test_parse_subscripted_names():
    R = standard_graded_ring(("x_1", "x_2"))
    f = parse_polynomial("x_1*x_2^3", R)
    assert f.terms == {(1, 3): Fraction(1)}


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + ", R3)
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("x ++", R3)
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + $", R3)
    assert exc.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariableError) as exc:
        parse_polynomial("x + w", R3)
    assert exc.value.name == "w"


def test_parse_division_restrictions():
    assert parse_polynomial("x/2", R3) == parse_polynomial("1/2*x", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x/y", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x/0", R3)


def test_parse_exponent_restrictions():
    with pytest.raises(ParseError):
        parse_polynomial("x^y", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x^-1", R3)


def test_render_examples():
    f = parse_polynomial("x*y - y*z", R3)
    assert render_polynomial(f, R3) == "x*y - y*z"
    assert render_polynomial(Polynomial.zero(3), R3) == "0"
    g = parse_polynomial("-3/2*x^2 + 1", R3)
    assert render_polynomial(g, R3) == "-3/2*x^2 + 1"


def test_render_respects_order():
    f = parse_polynomial("x + y^2", R3)
    assert render_polynomial(f, R3, GREVLEX).startswith("y^2")
    assert render_polynomial(f, R3, LEX).startswith("x")


def exps_strategy():
    return st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(
    st.lists(
        st.tuples(exps_strategy(), st.fractions(min_value=-9, max_value=9, max_denominator=5)),
        max_size=6,
    )
)
def test_render_parse_round_trip(terms):
    f = Polynomial(3, terms)
    assert parse_polynomial(render_polynomial(f, R3), R3) == f


# a job may name a variable outside the NAME rule, such as x-1
R_NAMES = standard_graded_ring(("x", "y", "x_1", "ab", "a", "Z9", "x-1"))
NEAR_MISSES = [
    "x", "x*x", "x^0", "x^02", "x^007*y", "ab*a^3*ab", "x_1^2*x_1", "Z9^10",
    "x^2^3", "x*", "*x", "x**y", "x^", "^2", "", "x^2y", "x ^2", " x", "x ",
    "x* y", "x\t", "x*w", "w", "x-1", "x-1^2", "x^-1", "x^y", "2*x", "x*2",
    "x^+2", "(x)", "x^٣", "x^²", "é", "x*é", "_x", "x__", "x/2", "x^1.5",
]


def _outcome(parse, text, ring):
    """The parsed terms with their coefficient types, or the error raised."""
    try:
        f = parse(text, ring)
    except ParseError as exc:
        return type(exc), str(exc), exc.position
    return f.nvars, [(e, type(c), c) for e, c in f.terms.items()]


def _descent(text, ring):
    return _Parser(text, ring).parse()


@pytest.mark.parametrize("text", NEAR_MISSES)
def test_single_monomial_reader_agrees_with_the_descent(text):
    assert _outcome(parse_polynomial, text, R_NAMES) == _outcome(_descent, text, R_NAMES)


def test_single_monomial_reader_reads_exponents(monkeypatch):
    # a single monomial never reaches the descent
    monkeypatch.setattr(parse, "_Parser", None)
    assert parse_polynomial("x*x^3*ab^0*y", R_NAMES).terms == {(4, 1, 0, 0, 0, 0, 0): 1}
    assert parse_polynomial("x^0", R_NAMES) == Polynomial.constant(7, 1)
    assert parse_polynomial("x_1^02", R_NAMES).terms == {(0, 0, 2, 0, 0, 0, 0): 1}


PIECES = ["x", "y", "x_1", "ab", "a", "b", "Z9", "x-1", "w", "é", "_", "*", "^",
          "0", "2", "02", "10", "٣", " ", "+", "-", "(", ")", "/"]


@given(st.lists(st.sampled_from(PIECES), max_size=8))
def test_single_monomial_reader_agrees_with_the_descent_on_random_texts(pieces):
    text = "".join(pieces)
    assert _outcome(parse_polynomial, text, R_NAMES) == _outcome(_descent, text, R_NAMES)
