"""Scalar field: arithmetic, powers, and the canonical string codec."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from qdetlab import GaussianRational, I, ONE, ZERO, ParseError, parse
from qdetlab.gaussian import _parts, _reduced, _tdiv, _tmul, _tone_minus, _tsub
from helpers import canonical, gq


fractions = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
scalars = st.builds(GaussianRational, fractions, fractions)
nonzero_scalars = scalars.filter(bool)
reals = st.one_of(st.just(ZERO), st.builds(GaussianRational, fractions))
# Fields (re + im*i)/den up to about 2**2200, the size the default suite's
# operands reach.  The shared powers of 6 make numerators and denominators of
# different values cancel, so the gcd shortcuts take their reducing paths.
big_ints = st.integers(-(2**1800), 2**1800)
big_scalars = st.builds(
    lambda re, im, den, j, k: gq((re * 6**j, den * 6**k), (im * 6**j, den * 6**k)),
    big_ints, st.one_of(st.just(0), big_ints), st.integers(1, 2**1800), st.integers(0, 150), st.integers(0, 150),
)
operands = st.one_of(reals, scalars, big_scalars)


def test_rational_addition():
    assert gq((1, 2)) + gq((1, 3)) == gq((5, 6))


def test_i_squared_is_minus_one():
    assert I * I == -ONE
    assert I * I == GaussianRational(-1)


def test_division_by_conjugate():
    assert ONE / (ONE + I) == GaussianRational(Fraction(1, 2), Fraction(-1, 2))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    for x in (ONE, ZERO, I, Fraction(-2, 3), 5):
        with pytest.raises(ZeroDivisionError, match="division by zero in QQ"):
            x / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.reciprocal()
    with pytest.raises(ZeroDivisionError):
        (ONE - ONE).reciprocal()


def test_pow():
    assert GaussianRational(2) ** -1 == gq((1, 2))
    assert (ONE + I) ** 2 == GaussianRational(0, 2)
    assert gq((3, 7), (2, 5)) ** 0 == ONE
    assert (ONE + I) ** -2 == ONE / GaussianRational(0, 2)
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


@pytest.mark.parametrize("re, im", [(0.1, 0), (0, 0.5), ("3/4", 0)])
def test_parts_must_be_ints_or_fractions(re, im):
    with pytest.raises(TypeError):
        GaussianRational(re, im)


def test_mixed_arithmetic_with_ints_and_fractions():
    assert 1 + I == GaussianRational(1, 1)
    assert 2 * gq((1, 2)) == ONE
    assert Fraction(1, 3) - gq((1, 3)) == ZERO
    assert 1 / (ONE + I) == (ONE - I) / 2


@pytest.mark.parametrize("other", [0.5, 2.0, 1j, 1 + 0j, "1"])
def test_floats_complex_and_strings_are_not_operands(other):
    # the field is exact: an inexact or textual operand raises on either side
    # of every operation and is never equal to a scalar
    x = gq((1, 2), 1)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
        binary = getattr(operator, op.strip("_"))
        with pytest.raises(TypeError):
            binary(x, other)
        with pytest.raises(TypeError):
            binary(other, x)
    assert (x == other) is False and (other == x) is False
    assert (ONE == 1.0) is False and (ONE != 1.0) is True


def assert_built_as(z, re, im):
    """z has Fraction parts equal to (re, im) and hashes and prints like GaussianRational(re, im)."""
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    built = GaussianRational(re, im)
    assert z == built and hash(z) == hash(built) and str(z) == str(built)


@given(operands, operands)
# (4/9) / (-2/3) = -2/3 needs both cross-gcds, 2 and 3, and the sign moved up.
@example(gq((4, 9)), gq((-2, 3)))
def test_real_operations_match_the_general_formulas(x, y):
    """Real, complex and large operands give the Fraction formulas' parts."""
    a, b, c, d = x.re, x.im, y.re, y.im
    assert_built_as(x * y, a * c - b * d, a * d + b * c)
    assert_built_as(x + y, a + c, b + d)
    assert_built_as(x - y, a - c, b - d)
    assert_built_as(a - y, a - c, -d)  # Fraction - GaussianRational goes through __rsub__
    assert_built_as(1 - y, 1 - c, -d)
    if y:
        norm = c * c + d * d
        assert_built_as(x / y, (a * c + b * d) / norm, (b * c - a * d) / norm)
        # Fraction / GaussianRational goes through __rtruediv__
        assert_built_as(a / y, a * c / norm, -a * d / norm)


def unreduced(z, scale):
    """The triple of z with numerator and denominator multiplied by scale > 0."""
    return tuple(part * scale for part in _parts(z))


@given(operands, operands, st.integers(1, 10**6), st.integers(1, 10**6))
def test_triple_helpers_match_the_scalar_operations(x, y, s, t):
    """Unreduced triples give the scalar results once reduced, and reduce to canonical fields."""
    x3, y3 = unreduced(x, s), unreduced(y, t)
    for triple, expected in (
        (_tmul(x3, y3), x * y),
        (_tsub(x3, y3), x - y),
        (_tone_minus(x3), 1 - x),
    ):
        assert triple[2] > 0
        z = _reduced(*triple)
        assert _parts(z) == _parts(expected)
        assert canonical(z)
    if y:
        assert _tdiv(x3, y3)[2] > 0
        assert _parts(_reduced(*_tdiv(x3, y3))) == _parts(x / y)
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero in QQ"):
            _tdiv(x3, y3)


@given(operands.filter(bool))
def test_real_reciprocal_matches_conjugate_over_norm(x):
    norm = x.re * x.re + x.im * x.im
    u, v = x.re / norm, -x.im / norm
    assert_built_as(x.reciprocal(), u, v)
    assert_built_as(ONE / x, u, v)
    assert_built_as(x**-2, u * u - v * v, 2 * u * v)


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
    assert str(gq((3, 4), (1, 2))) == "3/4+1/2i"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(gq(2, -1)) == "2-i"
    assert str(gq((-1, 3))) == "-1/3"


def test_parse_reduces_to_lowest_terms():
    assert parse("-2/6") == gq((-1, 3))
    assert str(parse("-2/6")) == "-1/3"
    assert parse("3/4+1/2i") == gq((3, 4), (1, 2))
    assert parse("4/2i") == GaussianRational(0, 2)


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("x", 0),
        ("1/", 2),
        ("1/0", 2),
        ("1+", 2),
        ("1+2", 3),
        ("1i2", 2),
        ("i3", 1),
        ("1+2j", 3),
        ("1x", 1),
        ("1+2ix", 4),
    ],
)
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == position


def test_values_are_immutable_and_hashable():
    v = gq((1, 2), 1)
    with pytest.raises(AttributeError):
        v.re = Fraction(1)
    with pytest.raises(AttributeError):
        v._d = 2
    for name in ("_r", "_i", "_d", "re"):
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert v == gq((1, 2), 1)
    assert len({v, gq((1, 2), 1), ONE}) == 2


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


@given(reals)
def test_real_values_hash_like_the_equal_fraction(x):
    assert x == x.re and hash(x) == hash(x.re)


def test_hash_agrees_with_equality_across_types():
    assert ONE in {1} and 1 in {ONE}
    assert gq((1, 2)) in {Fraction(1, 2)}
    assert len({ZERO, 0, Fraction(0), ONE, 1, Fraction(1), gq((1, 2)), Fraction(1, 2)}) == 3
    assert hash(gq(3, -1)) == hash(gq((6, 2), (-2, 2)))


def reference_str(z):
    """The rendering from the Fraction parts, as the canonical grammar states it."""
    re, im = z.re, z.im
    if not im:
        return str(re)
    sign = "-" if im < 0 else ("+" if re else "")
    coeff = "" if abs(im) == 1 else str(abs(im))
    return f"{str(re) if re else ''}{sign}{coeff}i"


@given(operands)
def test_str_matches_the_fraction_rendering(x):
    assert str(x) == reference_str(x)


@pytest.mark.parametrize(
    "z, text",
    [(I, "i"), (-I, "-i"), (I / 2, "1/2i"), (-I / 2, "-1/2i"), (gq(3, -1), "3-i"), (ZERO, "0"), (gq((-4, 6), (4, 6)), "-2/3+2/3i")],
)
def test_str_examples_match_the_fraction_rendering(z, text):
    assert str(z) == reference_str(z) == text


def test_conjugate_and_real_predicates():
    v = gq(1, 2)
    assert v.conjugate() == gq(1, -2)
    # the canonical fields say whether a value is real (_i == 0) or an integer (also _d == 1)
    assert v._i == 2
    assert (v * v.conjugate())._i == 0
    assert (GaussianRational(5)._i, GaussianRational(5)._d) == (0, 1)
    assert gq((1, 2))._d == 2
    assert (I._i, I._d) == (1, 1)
