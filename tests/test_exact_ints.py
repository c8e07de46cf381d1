"""Differential tests of ``Exact``, stored as canonical ints (A + B*sqrt2)/D,
against ``oracles.FractionExact``, the same field held as two Fractions."""

import math
import operator
from fractions import Fraction

from hypothesis import given, strategies as st

from dyadicops.scalars import RATIONAL, Exact, decode_value, encode_value, reciprocal
from oracles import FractionExact

small = st.fractions(min_value=-60, max_value=60, max_denominator=12)
# denominators 2**k * odd: Haar steps put powers of 2 under every value
dyadic = st.builds(
    lambda n, k, odd: Fraction(n, (1 << k) * odd),
    st.integers(-(10**12), 10**12),
    st.integers(0, 40),
    st.integers(0, 60).map(lambda j: 2 * j + 1),
)
parts = st.one_of(small, dyadic, st.just(Fraction(0)))
pairs = st.tuples(parts, parts)
plain = st.one_of(
    st.integers(-50, 50), st.booleans(), small, dyadic, st.floats(-3, 3, allow_nan=False)
)

BINARY = (
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge,
)
UNARY = (
    operator.neg, operator.pos, abs, bool, hash, str, repr, float,
    lambda v: v.sign(),
    lambda v: v.is_rational,
    lambda v: v.as_fraction(),
    lambda v: v.sqrt(),
)


def both(pair):
    a, b = pair
    return Exact(a, b), FractionExact(a, b)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return "raises", type(exc)


def assert_canonical(x):
    assert type(x.A) is int and type(x.B) is int and type(x.D) is int
    assert x.D > 0
    assert math.gcd(x.A, x.B, x.D) == 1


def assert_same(new, old):
    """new is the Exact result, old the FractionExact one (or both are plain)."""
    kind, value = new
    assert kind == old[0], (new, old)
    if kind == "raises":
        assert value is old[1]
    elif isinstance(old[1], FractionExact):
        assert type(value) is Exact
        assert (value.a, value.b) == (old[1].a, old[1].b)
        assert_canonical(value)
    else:
        assert type(value) is type(old[1])
        assert value == old[1]


@given(pairs)
def test_unary_operations_match(pair):
    new, old = both(pair)
    assert_canonical(new)
    for fn in UNARY:
        assert_same(outcome(fn, new), outcome(fn, old))


@given(pairs, pairs)
def test_binary_operations_match(p, q):
    x, fx = both(p)
    y, fy = both(q)
    for fn in BINARY:
        assert_same(outcome(fn, x, y), outcome(fn, fx, fy))


@given(pairs, plain)
def test_mixed_operands_on_either_side(pair, other):
    x, fx = both(pair)
    for fn in BINARY:
        assert_same(outcome(fn, x, other), outcome(fn, fx, other))
        assert_same(outcome(fn, other, x), outcome(fn, other, fx))


@given(pairs, st.integers(-5, 6))
def test_powers_match(pair, n):
    x, fx = both(pair)
    assert_same(outcome(operator.pow, x, n), outcome(operator.pow, fx, n))


@given(pairs)
def test_square_roots_of_squares_match(pair):
    x, fx = both(pair)
    assert_same(outcome(lambda v: (v * v).sqrt(), x), outcome(lambda v: (v * v).sqrt(), fx))


@given(pairs)
def test_division_by_zero_raises(pair):
    x, _ = both(pair)
    for zero in (Exact(0), 0, False, Fraction(0)):
        for fn in (lambda: x / zero, lambda: x / (x - x)):
            assert outcome(fn)[1] is ZeroDivisionError
    assert outcome(lambda: 1 / Exact(0))[1] is ZeroDivisionError
    assert outcome(lambda: Exact(0) ** -1)[1] is ZeroDivisionError


@given(pairs, pairs)
def test_equal_values_have_equal_ints(p, q):
    x, _ = both(p)
    y, _ = both(q)
    same = [(x + y) - y, x * 2 / 2, Exact(x.a, x.b), x * 1]
    if y:
        same += [(x * y) / y, x / y * y]
    for v in same:
        assert (v.A, v.B, v.D) == (x.A, x.B, x.D)


@given(pairs)
def test_hash_of_rationals_is_the_fraction_hash(pair):
    x = Exact(pair[0])
    # the constructor's shortcut for a rational value gives the canonical ints
    y = Exact(pair[0], Fraction(0))
    assert (x.A, x.B, x.D) == (y.A, y.B, y.D)
    assert hash(x) == hash(pair[0])
    assert x == pair[0] and pair[0] == x


@given(pairs)
def test_json_form_matches(pair):
    x, fx = both(pair)
    expect = str(fx.a) if fx.b == 0 else [str(fx.a), str(fx.b)]
    assert encode_value(x, RATIONAL) == expect
    back = decode_value(expect, RATIONAL)
    assert (back.A, back.B, back.D) == (x.A, x.B, x.D)


def test_root2_powers_match():
    for k in range(-90, 91):
        x, fx = Exact.root2_power(k), FractionExact.root2_power(k)
        assert (x.a, x.b) == (fx.a, fx.b)
        assert_canonical(x)


def test_reciprocal_is_canonical():
    for n in (1, 2, 3, 12, 1 << 40):
        r = reciprocal(n, RATIONAL)
        assert r == Fraction(1, n)
        assert_canonical(r)
        assert reciprocal(n, "float64") == 1.0 / n
