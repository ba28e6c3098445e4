"""The package's public value classes: equality, hashing, read-only fields."""

import inspect

import pytest

import quasidegrees
from quasidegrees import (
    AffinePlane,
    Elimination,
    FreeResolution,
    GradedPresentation,
    GradedRing,
    GrevLex,
    GroebnerBasis,
    IntMatrix,
    Lex,
    QuasidegreeSet,
    StandardPair,
    buchberger,
    free_resolution,
    graded_ring,
    parse_polynomial,
    standard_graded_ring,
)

R2 = standard_graded_ring(("x", "y"))
XY = parse_polynomial("x*y", R2)
Y2 = parse_polynomial("y^2", R2)


def presentation(*gens):
    return GradedPresentation.cyclic(R2, [parse_polynomial(g, R2) for g in gens])


# class -> (a maker of two equal values, a value unequal to them, hashable?)
# A value holding Polynomials or vecdicts cannot be hashed, as before.
CASES = {
    AffinePlane: (lambda: AffinePlane((1, 2), [(1, 1)]), AffinePlane((0, 0), [(1, 1)]), True),
    Elimination: (lambda: Elimination(2), Elimination(1), True),
    GrevLex: (GrevLex, Lex(), True),
    Lex: (Lex, GrevLex(), True),
    GradedRing: (
        lambda: graded_ring(("x", "y"), [[1, 1], [0, 1]]),
        R2,
        True,
    ),
    IntMatrix: (lambda: IntMatrix([[1, 2], [3, 4]]), IntMatrix(((1, 2), (3, 5))), True),
    QuasidegreeSet: (
        lambda: QuasidegreeSet([AffinePlane((0, 1), [(2, 2)])]),
        QuasidegreeSet(()),
        True,
    ),
    StandardPair: (lambda: StandardPair((0, 1), {0}), StandardPair((0, 2), [0]), True),
    GroebnerBasis: (lambda: buchberger([XY, Y2]), buchberger([XY]), False),
    GradedPresentation: (lambda: presentation("x*y", "y^2"), presentation("x*y"), False),
    FreeResolution: (
        lambda: free_resolution(presentation("x*y", "y^2")),
        free_resolution(presentation("x*y")),
        False,
    ),
}


def test_every_public_value_class_is_covered():
    # Polynomial is the one mutable public class; exceptions are not values
    public = {
        obj
        for name in quasidegrees.__all__
        if inspect.isclass(obj := getattr(quasidegrees, name))
        and not issubclass(obj, Exception)
    }
    assert public - {quasidegrees.Polynomial} == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_equality_and_hashing(cls):
    make, other, hashable = CASES[cls]
    a, b = make(), make()
    assert type(a) is cls
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    value = CASES[cls][0]()
    for name in list(vars(value)) or ["anything"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) is before
