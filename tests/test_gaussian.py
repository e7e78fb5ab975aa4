"""Scalar field: arithmetic, powers, and the canonical string codec."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qdetlab import GaussianRational, ONE, ZERO, ParseError, parse
from qdetlab.gaussian import HALF, _one_minus, _parts, _pdiv, _pmul, _psub, _ratio, _reduced
from helpers import canonical, gq


fractions = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
scalars = st.builds(GaussianRational, fractions)
nonzero_scalars = scalars.filter(bool)
# Values num/den up to about 2**2200, the size the default suite's operands
# reach.  The shared powers of 6 make numerators and denominators of
# different values cancel, so the gcd shortcuts take their reducing paths.
big_ints = st.integers(-(2**1800), 2**1800)
big_scalars = st.builds(
    lambda num, den, j, k: gq((num * 6**j, den * 6**k)),
    big_ints, st.integers(1, 2**1800), st.integers(0, 150), st.integers(0, 150),
)
operands = st.one_of(st.just(ZERO), scalars, big_scalars)


def test_rational_addition():
    assert gq((1, 2)) + gq((1, 3)) == gq((5, 6))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    for x in (ONE, ZERO, Fraction(-2, 3), 5):
        with pytest.raises(ZeroDivisionError, match="division by zero in QQ"):
            x / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.reciprocal()
    with pytest.raises(ZeroDivisionError):
        (ONE - ONE).reciprocal()


def test_pow():
    assert GaussianRational(2) ** -1 == gq((1, 2))
    assert gq((-2, 3)) ** 3 == gq((-8, 27))
    assert gq((3, 7)) ** 0 == ONE and ZERO**0 == ONE
    assert gq((-2, 3)) ** -2 == gq((9, 4))
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


@pytest.mark.parametrize("value", [0.1, 0.5, "3/4", 1j])
def test_value_must_be_an_int_or_a_fraction(value):
    with pytest.raises(TypeError):
        GaussianRational(value)


def test_mixed_arithmetic_with_ints_and_fractions():
    assert 1 + gq((1, 2)) == gq((3, 2))
    assert 2 * gq((1, 2)) == ONE
    assert Fraction(1, 3) - gq((1, 3)) == ZERO
    assert 1 / gq((2, 3)) == gq((3, 2))


@pytest.mark.parametrize("other", [0.5, 2.0, 1j, 1 + 0j, "1"])
def test_floats_complex_and_strings_are_not_operands(other):
    # the field is exact: an inexact or textual operand raises on either side
    # of every operation and is never equal to a scalar
    x = gq((1, 2))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
        binary = getattr(operator, op.strip("_"))
        with pytest.raises(TypeError):
            binary(x, other)
        with pytest.raises(TypeError):
            binary(other, x)
    assert (x == other) is False and (other == x) is False
    assert (ONE == 1.0) is False and (ONE != 1.0) is True


def assert_built_as(z, value):
    """z reads back as the Fraction value and hashes and prints like GaussianRational(value)."""
    assert type(z.re) is Fraction and z.re == value and z.im == 0
    built = GaussianRational(value)
    assert z == built and hash(z) == hash(built) and str(z) == str(built)


@given(operands, operands)
# (4/9) / (-2/3) = -2/3 needs both cross-gcds, 2 and 3, and the sign moved up.
@example(gq((4, 9)), gq((-2, 3)))
def test_real_operations_match_the_general_formulas(x, y):
    """Small and large operands give the Fraction results."""
    a, c = x.re, y.re
    assert_built_as(x * y, a * c)
    assert_built_as(x + y, a + c)
    assert_built_as(x - y, a - c)
    assert_built_as(a - y, a - c)  # Fraction - GaussianRational goes through __rsub__
    assert_built_as(1 - y, 1 - c)
    if y:
        assert_built_as(x / y, a / c)
        # Fraction / GaussianRational goes through __rtruediv__
        assert_built_as(a / y, a / c)


def unreduced(z, scale):
    """The pair of z with numerator and denominator multiplied by scale > 0."""
    return tuple(part * scale for part in _parts(z))


@given(operands, operands, st.integers(1, 10**6), st.integers(1, 10**6))
def test_pair_helpers_match_the_scalar_operations(x, y, s, t):
    """Unreduced pairs give the scalar results once reduced, and reduce to canonical fields."""
    x2, y2 = unreduced(x, s), unreduced(y, t)
    for pair, expected in (
        (_pmul(x2, y2), x * y),
        (_psub(x2, y2), x - y),
        (_one_minus(x2, y2), 1 - x * y),
    ):
        assert pair[1] > 0
        z = _reduced(*pair)
        assert _parts(z) == _parts(expected)
        assert canonical(z)
    if y:
        assert _pdiv(x2, y2)[1] > 0
        assert _parts(_reduced(*_pdiv(x2, y2))) == _parts(x / y)
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero in QQ"):
            _pdiv(x2, y2)


@given(
    st.lists(st.tuples(operands, st.integers(1, 10**6)), max_size=6),
    st.lists(st.tuples(operands.filter(bool), st.integers(1, 10**6)), max_size=4),
)
def test_ratio_is_the_scalar_product_and_quotient(numerators, denominators):
    """One product of unreduced pairs, reduced once, equals the scalar product
    of the numerators over that of the denominators, in canonical fields."""
    expected = ONE
    for x, _ in numerators:
        expected = expected * x
    for y, _ in denominators:
        expected = expected / y
    got = _ratio([unreduced(x, s) for x, s in numerators], [unreduced(y, s) for y, s in denominators])
    assert canonical(got) and _parts(got) == _parts(expected)


@given(st.lists(operands, max_size=3), st.lists(operands.filter(bool), max_size=3), st.integers(1, 10**6))
def test_ratio_raises_at_a_zero_denominator_pair(numerators, denominators, scale):
    pairs = [_parts(y) for y in denominators]
    for at in range(len(pairs) + 1):
        with pytest.raises(ZeroDivisionError, match="^division by zero in QQ$"):
            _ratio(map(_parts, numerators), pairs[:at] + [(0, scale)] + pairs[at:])


@given(operands.filter(bool))
def test_real_reciprocal_matches_conjugate_over_norm(x):
    # The conjugate of a rational is itself, and its norm is its square.
    assert x.conjugate() is x
    u = x.re / (x.re * x.re)
    assert_built_as(x.reciprocal(), u)
    assert_built_as(ONE / x, u)
    assert_built_as(x**-2, u * u)


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(nonzero_scalars)
def test_multiplicative_inverse(x):
    assert x * x ** -1 == ONE
    assert x * x.reciprocal() == ONE


@given(scalars)
def test_codec_round_trip(v):
    assert parse(str(v)) == v
    assert str(parse(str(v))) == str(v)


def test_format_examples():
    assert str(ZERO) == "0"
    assert str(gq((3, 4))) == "3/4"
    assert str(gq(2)) == "2"
    assert str(gq((-1, 3))) == "-1/3"


def test_parse_reduces_to_lowest_terms():
    assert parse("-2/6") == gq((-1, 3))
    assert str(parse("-2/6")) == "-1/3"
    assert parse("4/2") == GaussianRational(2)
    assert parse("-0") == ZERO


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("x", 0),
        ("1/", 2),
        ("1/0", 2),
        ("1+", 1),
        ("1+2", 1),
        ("1i2", 1),
        ("i3", 0),
        ("1+2j", 1),
        ("1x", 1),
        ("1+2ix", 3),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position


def test_parse_refuses_the_imaginary_unit():
    # outside input: an i form raises at its i and never builds a value
    for text in ("i", "-i", "1+i", "2-i", "3/4+1/2i", "1/2i", "2i", "1/0i", "1-2/3i"):
        with pytest.raises(ParseError, match="imaginary unit") as exc:
            parse(text)
        assert exc.value.position == text.index("i"), text


def test_values_are_immutable_and_hashable():
    v = gq((1, 2))
    with pytest.raises(AttributeError):
        v.re = Fraction(1)
    with pytest.raises(AttributeError):
        v._d = 2
    for name in ("_r", "_d", "re"):
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == gq((1, 2))
    assert len({v, gq((2, 4)), ONE}) == 2


plain_ints = st.one_of(
    st.integers(-10, 10),
    st.integers(2**70 - 10, 2**70 + 10),
    st.integers(-(2**70) - 10, -(2**70) + 10),
)


@given(operands, plain_ints)
def test_int_operands_agree_with_their_scalar(x, k):
    g = GaussianRational(k)
    assert x + k == x + g
    assert k + x == g + x
    assert k * x == g * x
    assert x - k == x - g
    assert k - x == g - x
    assert (x == k) == (x == g)
    assert g == k


@given(operands)
def test_real_values_hash_like_the_equal_fraction(x):
    assert x == x.re and hash(x) == hash(x.re)


def test_hash_agrees_with_equality_across_types():
    assert ONE in {1} and 1 in {ONE}
    assert gq((1, 2)) in {Fraction(1, 2)}
    assert len({ZERO, 0, Fraction(0), ONE, 1, Fraction(1), gq((1, 2)), Fraction(1, 2)}) == 3
    assert hash(gq((-3, 2))) == hash(gq((6, -4)))


@given(operands)
def test_str_matches_the_fraction_rendering(x):
    assert str(x) == str(x.re)


@pytest.mark.parametrize(
    "z, text",
    [(ONE, "1"), (-ONE, "-1"), (HALF, "1/2"), (-HALF, "-1/2"), (gq(3), "3"), (ZERO, "0"), (gq((-4, 6)), "-2/3")],
)
def test_str_examples_match_the_fraction_rendering(z, text):
    assert str(z) == str(z.re) == text


def test_conjugate_and_real_predicates():
    # A scalar is two ints; the read-outs of a Gaussian rational stay.
    assert GaussianRational.__slots__ == ("_r", "_d")
    v = gq((-3, 4))
    assert v.conjugate() is v and v.im == 0 and v.re == Fraction(-3, 4)
    # the canonical fields say whether a value is an integer (_d == 1)
    assert (GaussianRational(5)._r, GaussianRational(5)._d) == (5, 1)
    assert (v._r, v._d) == (-3, 4)
