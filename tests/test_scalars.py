import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dyadicops import StepFunction
from dyadicops.scalars import (
    FLOAT64,
    RATIONAL,
    Exact,
    check_mode,
    coerce,
    decode_value,
    encode_value,
    float_sqrt,
    one,
    root2_power,
    scalar_sqrt,
    zero,
)

fracs = st.fractions(min_value=-60, max_value=60, max_denominator=12)
exacts = st.builds(Exact, fracs, fracs)


def test_mode_validation():
    check_mode(RATIONAL)
    check_mode(FLOAT64)
    with pytest.raises(ValueError):
        check_mode("decimal")


class TestExactField:
    @given(exacts, exacts, exacts)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(exacts)
    def test_additive_inverse(self, x):
        assert x + (-x) == Exact(0)
        assert x - x == Exact(0)

    @given(exacts)
    def test_multiplicative_inverse(self, x):
        if x == Exact(0):
            with pytest.raises(ZeroDivisionError):
                Exact(1) / x
        else:
            assert x * (Exact(1) / x) == Exact(1)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (0.1, 0, "float values are not allowed"),
            (1, 0.25, "float values are not allowed"),
            (Fraction(1, 2), 0.5, "float values are not allowed"),
            (True, 0, "bool is not a scalar"),
            (1, False, "bool is not a scalar"),
            (Fraction(1, 2), True, "bool is not a scalar"),
        ],
    )
    def test_parts_are_rationals(self, a, b, message):
        # the rule of rational-mode inputs: no part is read as a float's
        # binary fraction or as a bool's 0 or 1
        with pytest.raises(TypeError, match=message):
            Exact(a, b)

    def test_sqrt2_squares_to_two(self):
        r = Exact(0, 1)
        assert r * r == Exact(2)
        assert float(r) == pytest.approx(math.sqrt(2))

    def test_root2_power_table(self):
        assert Exact.root2_power(0) == Exact(1)
        assert Exact.root2_power(1) == Exact(0, 1)
        assert Exact.root2_power(2) == Exact(2)
        assert Exact.root2_power(3) == Exact(0, 2)
        assert Exact.root2_power(-1) == Exact(0, Fraction(1, 2))
        assert Exact.root2_power(-2) == Exact(Fraction(1, 2))

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_root2_power_is_homomorphism(self, j, k):
        assert Exact.root2_power(j) * Exact.root2_power(k) == Exact.root2_power(j + k)

    @given(exacts, st.integers(0, 6))
    def test_pow_matches_repeated_product(self, x, n):
        expect = Exact(1)
        for _ in range(n):
            expect = expect * x
        assert x**n == expect
        # an integer exponent given as a float, as power_mean passes it
        assert x ** float(n) == expect

    def test_non_integer_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            Exact(2) ** 0.5

    @given(exacts)
    def test_sign_matches_float(self, x):
        fx = float(x)
        if abs(fx) > 1e-9:
            assert x.sign() == (1 if fx > 0 else -1)
        if x.sign() > 0:
            assert x > Exact(0)
        elif x.sign() < 0:
            assert x < Exact(0)
        else:
            assert x == Exact(0)

    @given(exacts, exacts)
    def test_ordering_consistent_with_subtraction(self, x, y):
        assert (x < y) == ((y - x).sign() > 0)
        assert (x <= y) == ((y - x).sign() >= 0)

    @given(exacts)
    def test_abs_nonnegative(self, x):
        assert abs(x) >= Exact(0)
        assert abs(x) == abs(-x)

    @given(fracs)
    def test_rational_embedding(self, q):
        x = Exact(q)
        assert x.is_rational
        assert x.as_fraction() == q
        assert hash(x) == hash(Exact(q, 0))

    def test_as_fraction_rejects_irrational(self):
        with pytest.raises(ValueError):
            Exact(1, 1).as_fraction()

    @given(exacts)
    def test_sqrt_of_square_recovers_abs(self, x):
        s = (x * x).sqrt()
        assert s is not None
        assert s == abs(x)

    def test_sqrt_detects_irrational(self):
        assert Exact(3).sqrt() is None
        # sqrt(sqrt2) solves c^2+2d^2=0, 2cd=1: impossible in the field
        assert Exact(0, 1).sqrt() is None
        assert Exact(2).sqrt() == Exact(0, 1)
        assert Exact(3, 2).sqrt() == Exact(1, 1)  # (1+sqrt2)^2 = 3+2*sqrt2

    def test_sqrt_of_negative_is_none(self):
        assert Exact(-1).sqrt() is None
        assert Exact(0, -1).sqrt() is None

    def test_mixed_arithmetic_with_int_and_fraction(self):
        x = Exact(1, 1)
        assert x + 1 == Exact(2, 1)
        assert 1 + x == Exact(2, 1)
        assert x * Fraction(1, 2) == Exact(Fraction(1, 2), Fraction(1, 2))
        assert Fraction(3, 2) - x == Exact(Fraction(1, 2), -1)
        assert x / 2 == Exact(Fraction(1, 2), Fraction(1, 2))

    def test_float_operands_rejected(self):
        with pytest.raises(TypeError):
            Exact(1) + 0.5  # type: ignore[operator]


def decimal_value(x: Exact) -> float:
    """x rounded to a float from its value at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        return float((Decimal(x.A) + Decimal(x.B) * Decimal(2).sqrt()) / x.D)


def ulps_apart(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(y)


class TestFloat:
    @pytest.mark.parametrize("n", range(1, 61))
    def test_powers_of_root2_plus_and_minus_one(self, n):
        # (sqrt2 - 1)**n cancels to about 2.4**-n between terms of 2.4**n
        for base in (Exact(-1, 1), Exact(1, 1)):
            x = base**n
            got, want = float(x), decimal_value(x)
            assert math.copysign(1.0, got) == math.copysign(1.0, want)
            assert ulps_apart(got, want) <= 1.0, (n, base)

    def test_cancelling_terms_keep_their_sign(self):
        x = Exact(-1, 1) ** 40
        assert float(x) == pytest.approx(4.886e-16, rel=1e-3)
        assert float(Exact(1023286908188737, -723573111879672)) > 0

    def test_a_sum_in_range_of_terms_past_it(self):
        # -1e308 + 1.5e308 * sqrt2: the second term alone is past the range
        x = Exact(-(10**308), 15 * 10**307)
        assert ulps_apart(float(x), decimal_value(x)) <= 1.0
        assert float(x) == pytest.approx(1.1213e308, rel=1e-4)

    def test_only_values_past_the_range_overflow(self):
        for x in (Exact(0, 15 * 10**307), Exact(10**308, 15 * 10**307), -Exact(0, 15 * 10**307)):
            with pytest.raises(OverflowError):
                float(x)
        # so float_sqrt takes its rescaled route: sqrt(1.5e308 * sqrt2)
        root = float_sqrt(Exact(0, 15 * 10**307))
        assert root == pytest.approx(1.4564753151219705e154, rel=1e-15)

    @given(exacts)
    def test_rational_and_one_signed_values_keep_their_bits(self, x):
        if not x.B or not x.A or (x.A < 0) == (x.B < 0):
            assert float(x) == x.A / x.D + x.B / x.D * math.sqrt(2.0)


class TestModeHelpers:
    def test_zero_one(self):
        assert zero(RATIONAL) == Exact(0)
        assert one(RATIONAL) == Exact(1)
        assert zero(FLOAT64) == 0.0
        assert one(FLOAT64) == 1.0

    def test_root2_power_float_mode(self):
        assert root2_power(3, FLOAT64) == pytest.approx(2 * math.sqrt(2))
        assert root2_power(3, RATIONAL) == Exact(0, 2)

    def test_coerce(self):
        assert coerce(Fraction(1, 3), RATIONAL) == Exact(Fraction(1, 3))
        assert coerce(2, FLOAT64) == 2.0
        assert coerce(0.25, FLOAT64) == 0.25
        with pytest.raises(TypeError):
            coerce(0.25, RATIONAL)

    def test_scalar_sqrt_exact_and_fallback(self):
        assert scalar_sqrt(Exact(Fraction(9, 4)), RATIONAL) == Exact(Fraction(3, 2))
        v = scalar_sqrt(Exact(3), RATIONAL)
        assert isinstance(v, float) and v == pytest.approx(math.sqrt(3))
        assert scalar_sqrt(2.25, FLOAT64) == 1.5
        with pytest.raises(ValueError):
            scalar_sqrt(Exact(-1), RATIONAL)


class TestValueCodec:
    @given(fracs)
    def test_rational_round_trip(self, q):
        enc = encode_value(Exact(q), RATIONAL)
        assert isinstance(enc, str)
        assert decode_value(enc, RATIONAL) == Exact(q)

    @given(fracs, fracs)
    def test_irrational_round_trip(self, a, b):
        x = Exact(a, b)
        enc = encode_value(x, RATIONAL)
        assert decode_value(enc, RATIONAL) == x
        if b != 0:
            assert isinstance(enc, list) and len(enc) == 2

    def test_rational_text_is_the_fraction_text(self):
        # written from the canonical ints, with no Fraction built
        rng = random.Random(20)
        values = [Exact(0), Exact(-7), Exact(Fraction(-3, 4)), Exact(10**30 + 1)]
        for _ in range(500):
            num = rng.randint(-10**rng.randint(1, 25), 10**rng.randint(1, 25))
            x = Exact(Fraction(num, rng.choice((1, 2, 3, 7, 12, 10**9 + 7))))
            # and values that come out of arithmetic, where gcds cancel
            values += [x, x * Exact(Fraction(rng.randint(1, 9), rng.randint(1, 9))) - 1]
        assert any(x.D == 1 for x in values) and any(x.D > 1 for x in values)
        for x in values:
            assert encode_value(x, RATIONAL) == str(x.a), x
        assert encode_value(Exact(0), RATIONAL) == "0"
        assert encode_value(Fraction(-6, 4), RATIONAL) == "-3/2"
        assert encode_value(Exact(Fraction(1, 3), -2), RATIONAL) == ["1/3", "-2"]

    def test_float_round_trip(self):
        assert decode_value(encode_value(0.375, FLOAT64), FLOAT64) == 0.375

    def test_float64_file_reads_a_root2_pair(self):
        # a + b sqrt(2), each entry a fraction text, rounded as float64
        want = 0.5 + -3.0 * math.sqrt(2.0)
        assert decode_value(["1/2", "-3"], FLOAT64) == want
        obj = {"depth": 1, "mode": "float64", "values": [["1/2", "-3"], 2.0]}
        assert StepFunction.from_json_dict(obj).values == (want, 2.0)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    @pytest.mark.parametrize("pair", [["1", True], [False, "2"]])
    def test_a_pair_entry_is_not_a_bool(self, pair, mode):
        with pytest.raises(TypeError, match="^bool is not a scalar$"):
            decode_value(pair, mode)

    @pytest.mark.parametrize("pair", [["1/2", 0.5], [0.0, "1"]])
    def test_a_rational_pair_entry_is_not_a_float(self, pair):
        # as a bare float is not: a pair does not read a float exactly
        for value in (pair, 0.5):
            with pytest.raises(TypeError, match="not allowed in rational mode"):
                decode_value(value, RATIONAL)

    @pytest.mark.parametrize("a, b", [("1/2", "-3"), (7, "2/9"), ("0", 5), (-4, 0)])
    def test_a_pair_is_its_entries_read_alone(self, a, b):
        x = decode_value([a, b], RATIONAL)
        assert x == decode_value(a, RATIONAL) + decode_value(b, RATIONAL) * Exact(0, 1)
        assert x == Exact(Fraction(a), Fraction(b))
        want = decode_value(a, FLOAT64) + decode_value(b, FLOAT64) * math.sqrt(2.0)
        assert decode_value([a, b], FLOAT64) == want

    def test_decode_rejects_garbage(self):
        with pytest.raises((ValueError, TypeError)):
            decode_value({"bad": 1}, RATIONAL)
