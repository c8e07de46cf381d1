import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import (
    UNIVERSE,
    DyadicInterval,
    Exact,
    HaarSpectrum,
    StepFunction,
    analyze,
    haar_eval,
    inner_product,
    interval_family,
    lp_norm,
    lp_norm_pow,
    pairing,
    pointwise_product,
    synthesize,
    weak_lp_quasinorm,
    weak_lp_quasinorm_pow,
)
from dyadicops import core
from dyadicops.core import (
    SupportView,
    _weak_candidates,
    average_table,
    block_runs,
    coefficient_table,
    forest,
    interval_at,
    interval_integrals,
    power_mean,
    tree,
    tree_count,
    weak_power_mean,
)
from dyadicops.errors import ResolutionError, ShapeError
from dyadicops.scalars import FLOAT64, RATIONAL, ExactRow, coerce

from oracles import (
    candidate_weak_lr,
    close_to_rational,
    divided_inner_product,
    divided_lp_norm_pow,
    divided_pairing,
    loop_inner_product,
    naive_average,
    naive_coefficient,
    naive_haar,
    naive_integral,
    naive_weak_lr,
    pow_power_mean,
    random_rationals,
)

small_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def step_functions(depth):
    return st.lists(small_fracs, min_size=1 << depth, max_size=1 << depth).map(
        lambda vs: StepFunction.from_values(vs)
    )


class TestDyadicInterval:
    def test_universe(self):
        assert UNIVERSE == DyadicInterval(0, 0)
        assert UNIVERSE.is_universe
        assert UNIVERSE.parent() is None
        assert UNIVERSE.length == Fraction(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0)
        with pytest.raises(ValueError):
            DyadicInterval(1, 2)
        with pytest.raises(ValueError):
            DyadicInterval(0, 1)

    def test_children_and_parent(self):
        i = DyadicInterval(2, 1)
        assert i.left_child() == DyadicInterval(3, 2)
        assert i.right_child() == DyadicInterval(3, 3)
        assert i.children() == (i.left_child(), i.right_child())
        assert i.left_child().parent() == i
        assert i.right_child().parent() == i
        assert i.left_child().sibling() == i.right_child()
        assert not i.left_child().is_right_half()
        assert i.right_child().is_right_half()

    def test_length_and_str(self):
        assert DyadicInterval(3, 5).length == Fraction(1, 8)
        assert str(DyadicInterval(3, 5)) == "(3,5)"

    def test_containment(self):
        big = DyadicInterval(1, 1)
        small = DyadicInterval(3, 5)
        assert big.contains(small)
        assert big.strictly_contains(small)
        assert big.contains(big)
        assert not big.strictly_contains(big)
        assert not small.contains(big)
        assert not DyadicInterval(1, 0).contains(small)

    def test_ancestors(self):
        i = DyadicInterval(3, 5)
        chain = list(i.ancestors())
        assert chain[0] == i.parent()
        assert chain[-1] == UNIVERSE
        assert list(i.ancestors(include_self=True))[0] == i
        assert all(a.strictly_contains(i) for a in chain)

    def test_leaf_span(self):
        assert list(DyadicInterval(1, 1).leaf_span(3)) == [4, 5, 6, 7]
        assert list(UNIVERSE.leaf_span(2)) == [0, 1, 2, 3]
        i = DyadicInterval(2, 1)
        assert i.contains_leaf(2, 3) and i.contains_leaf(3, 3)
        assert not i.contains_leaf(1, 3)

    def test_interval_family_order_and_count(self):
        fam = interval_family(3)
        assert len(fam) == 1 + 2 + 4
        assert fam[0] == UNIVERSE
        assert fam[1:3] == [DyadicInterval(1, 0), DyadicInterval(1, 1)]
        assert fam == sorted(fam)

    def test_interval_at_indexes_the_family(self):
        for depth in range(1, 13):
            assert [interval_at(k) for k in range((1 << depth) - 1)] == interval_family(depth)
        with pytest.raises(ValueError):
            interval_at(-1)

    def test_ordering(self):
        assert DyadicInterval(1, 0) < DyadicInterval(1, 1) < DyadicInterval(2, 0)


class TestHaarFunctions:
    def test_matches_oracle_everywhere(self):
        depth = 4
        for i in interval_family(depth):
            for leaf in range(1 << depth):
                assert haar_eval(i, leaf, depth) == naive_haar(i, leaf, depth)

    def test_sign_convention(self):
        # negative on the left half, positive on the right
        assert haar_eval(UNIVERSE, 0, 1) == Exact(-1)
        assert haar_eval(UNIVERSE, 1, 1) == Exact(1)
        assert haar_eval(DyadicInterval(1, 0), 0, 2) == Exact(0, -1)
        assert haar_eval(DyadicInterval(1, 0), 1, 2) == Exact(0, 1)
        assert haar_eval(DyadicInterval(1, 0), 2, 2) == Exact(0)

    def test_orthonormality_exact(self):
        depth = 4
        fam = interval_family(depth)
        hs = [StepFunction.haar(i, depth) for i in fam]
        for a, f in zip(fam, hs):
            for b, g in zip(fam, hs):
                expect = Exact(1) if a == b else Exact(0)
                assert inner_product(f, g) == expect

    def test_mean_zero(self):
        depth = 5
        for i in interval_family(depth):
            h = StepFunction.haar(i, depth)
            assert naive_integral(h, UNIVERSE) == Exact(0)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            haar_eval(DyadicInterval(2, 0), 0, 2)
        with pytest.raises(ResolutionError):
            StepFunction.haar(DyadicInterval(2, 0), 2)


class TestStepFunction:
    def test_constructors(self):
        f = StepFunction.from_values([1, Fraction(1, 2), 0, -1])
        assert f.depth == 2 and f.mode == RATIONAL
        assert f.values[1] == Exact(Fraction(1, 2))
        assert StepFunction.constant(3, 2).values == (Exact(3),) * 4
        assert StepFunction.zeros(2).is_zero()
        ind = StepFunction.indicator(DyadicInterval(1, 1), 2)
        assert list(ind.values) == [Exact(0), Exact(0), Exact(1), Exact(1)]

    def test_from_values_shape_check(self):
        with pytest.raises(ShapeError):
            StepFunction.from_values([1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_values_rejected(self, bad):
        with pytest.raises(ValueError):
            StepFunction.from_values([1.0, bad], mode=FLOAT64)
        with pytest.raises(ValueError):
            StepFunction.from_json_dict(
                {"depth": 1, "mode": FLOAT64, "values": [1.0, bad]}
            )
        with pytest.raises(ValueError):
            HaarSpectrum(1, bad, [[0.0]], FLOAT64)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError):
            StepFunction.from_json_dict({"depth": 1, "values": ["1", "1/0"]})
        with pytest.raises(ValueError):
            StepFunction.from_json_dict(
                {"depth": 1, "mode": FLOAT64, "values": ["1", "1/0"]}
            )

    def test_mode_mixing_rejected(self):
        f = StepFunction.from_values([1, 2])
        g = f.as_float64()
        with pytest.raises(ShapeError):
            f + g
        with pytest.raises(ShapeError):
            pointwise_product([f, g])

    def test_depth_mixing_rejected(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.zeros(2)
        with pytest.raises(ShapeError):
            f - g

    def test_arithmetic(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([3, -1])
        assert (f + g).values == (Exact(4), Exact(1))
        assert (f - g).values == (Exact(-2), Exact(3))
        assert (-f).values == (Exact(-1), Exact(-2))
        assert (f * g).values == (Exact(3), Exact(-2))
        assert (f * 2).values == (Exact(2), Exact(4))
        assert (2 * f).values == (Exact(2), Exact(4))
        assert f.scale(Fraction(1, 2)).values == (Exact(Fraction(1, 2)), Exact(1))
        assert f.abs().values == (Exact(1), Exact(2))
        assert StepFunction.from_values([-3, 1]).abs().values == (Exact(3), Exact(1))

    def test_pointwise_product(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([3, 4])
        assert pointwise_product([f, g]) == StepFunction.from_values([3, 8])
        assert pointwise_product([f, StepFunction.constant(1, 1)]) == f
        sign = StepFunction.from_values([-1, 1])
        assert pointwise_product([sign, sign, sign]) == sign

    def test_restrict_and_vanishes(self):
        f = StepFunction.from_values([1, 2, 3, 4])
        r = f.restrict(DyadicInterval(1, 0))
        assert r.values == (Exact(1), Exact(2), Exact(0), Exact(0))
        assert r.vanishes_outside(DyadicInterval(1, 0))
        assert not f.vanishes_outside(DyadicInterval(1, 0))

    def test_as_float64(self):
        f = StepFunction.from_values([Fraction(1, 4), 3])
        g = f.as_float64()
        assert g.mode == FLOAT64 and g.values == (0.25, 3.0)


class TestAnalysis:
    def test_frozen_example_step(self):
        # f = 1 on [1/2,1): mean 1/2, only the root coefficient survives
        spec = analyze(StepFunction.from_values([0, 0, 1, 1]))
        assert spec.mean == Exact(Fraction(1, 2))
        assert spec.coefficient(UNIVERSE) == Exact(Fraction(1, 2))
        assert spec.coefficient(DyadicInterval(1, 0)) == Exact(0)
        assert spec.coefficient(DyadicInterval(1, 1)) == Exact(0)

    def test_frozen_example_spike(self):
        # f = 1 on [1/4,1/2): mixes both levels, odd level brings sqrt2
        spec = analyze(StepFunction.from_values([0, 1, 0, 0]))
        assert spec.mean == Exact(Fraction(1, 4))
        assert spec.coefficient(UNIVERSE) == Exact(Fraction(-1, 4))
        assert spec.coefficient(DyadicInterval(1, 0)) == Exact(0, Fraction(1, 4))
        assert spec.coefficient(DyadicInterval(1, 1)) == Exact(0)

    def test_constant_is_haar_orthogonal(self):
        spec = analyze(StepFunction.constant(1, 2))
        assert spec.mean == Exact(1)
        assert all(spec.coefficient(i) == Exact(0) for i in interval_family(2))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000))
    def test_float64_transforms_match_rational(self, depth, seed):
        rng = random.Random(seed)
        f = StepFunction.from_values(random_rationals(rng, 1 << depth))
        spec, got = analyze(f), analyze(f.as_float64())
        assert close_to_rational(
            [got.mean, *chain(*got.coeffs)], [spec.mean, *chain(*spec.coeffs)]
        )
        # coefficients with an irrational part, as analyze gives at odd levels
        rows = [[Exact(*random_rationals(rng, 2)) for _ in range(1 << k)]
                for k in range(depth)]
        spec = HaarSpectrum(depth, spec.mean, rows, RATIONAL)
        floats = [[float(c) for c in row] for row in rows]
        got = synthesize(HaarSpectrum(depth, float(spec.mean), floats, FLOAT64))
        assert close_to_rational(got.values, synthesize(spec).values)

    def test_tables_match_oracle(self):
        rng = random.Random(7)
        depth = 3
        f = StepFunction.from_values(random_rationals(rng, 1 << depth))
        integ = interval_integrals(f)
        avgs = average_table(f)
        coeffs = coefficient_table(f)
        # built once and kept on f
        assert average_table(f) is avgs and coefficient_table(f) is coeffs
        for lvl in range(depth + 1):
            for pos in range(1 << lvl):
                i = DyadicInterval(lvl, pos)
                assert integ[lvl][pos] == naive_integral(f, i)
                assert avgs[lvl][pos] == naive_average(f, i)
                if lvl < depth:
                    assert coeffs[lvl][pos] == naive_coefficient(f, i)

    @settings(max_examples=40)
    @given(step_functions(3))
    def test_round_trip_exact(self, f):
        assert synthesize(analyze(f)) == f

    @settings(max_examples=40)
    @given(step_functions(3))
    def test_parseval_exact(self, f):
        spec = analyze(f)
        total = spec.mean * spec.mean
        for i in interval_family(f.depth):
            c = spec.coefficient(i)
            total = total + c * c
        assert total == lp_norm_pow(f, 2)

    def test_synthesize_from_coeff_rows(self):
        spec = HaarSpectrum(
            depth=2,
            mode=RATIONAL,
            mean=Fraction(1, 4),
            coeffs=[[Fraction(-1, 4)], [Exact(0, Fraction(1, 4)), 0]],
        )
        assert synthesize(spec) == StepFunction.from_values([0, 1, 0, 0])

    def test_synthesize_trivial_spectra(self):
        flat = HaarSpectrum(depth=2, mode=RATIONAL, mean=1, coeffs=[[0], [0, 0]])
        assert synthesize(flat) == StepFunction.constant(1, 2)
        root = HaarSpectrum(depth=1, mode=RATIONAL, mean=0, coeffs=[[1]])
        assert synthesize(root) == StepFunction.from_values([-1, 1])

    def test_spectrum_guards(self):
        with pytest.raises(ResolutionError):
            HaarSpectrum.from_json_dict(
                {"depth": 1, "mean": "0", "coeffs": [{"level": 1, "pos": 0, "value": "1"}]}
            )
        # one row per level, row ``level`` holding 2**level coefficients
        for depth, rows in [(1, [[0], [1, 0]]), (1, [[0, 0]]), (1, []), (2, [[0], [1]])]:
            with pytest.raises(ShapeError):
                HaarSpectrum(depth=depth, mode=RATIONAL, mean=0, coeffs=rows)
        spec = analyze(StepFunction.from_values([0, 1]))
        with pytest.raises(ResolutionError):
            spec.coefficient(DyadicInterval(1, 0))


class TestPairing:
    def test_frozen_step(self):
        f = StepFunction.from_values([0, 1])
        assert pairing(f, UNIVERSE, 1) == Exact(Fraction(1, 2))
        assert pairing(f, UNIVERSE, 0) == Exact(Fraction(1, 2))

    def test_matches_oracle(self):
        rng = random.Random(11)
        depth = 3
        f = StepFunction.from_values(random_rationals(rng, 1 << depth))
        for i in interval_family(depth):
            assert pairing(f, i, 0) == naive_coefficient(f, i)
            assert pairing(f, i, 1) == naive_average(f, i)
        leaf = DyadicInterval(depth, 2)
        assert pairing(f, leaf, 1) == f.values[2]
        with pytest.raises(ResolutionError):
            pairing(f, leaf, 0)
        with pytest.raises(ValueError):
            pairing(f, UNIVERSE, 2)

    def test_inner_product(self):
        f = StepFunction.from_values([1, 3])
        g = StepFunction.from_values([2, -2])
        assert inner_product(f, g) == Exact(-2)  # (1*2 + 3*(-2)) / 2
        ones = StepFunction.constant(1, 1)
        h = StepFunction.from_values([-1, 1])
        assert inner_product(ones, h) == Exact(0)
        assert inner_product(StepFunction.from_values([2, 4]), ones) == Exact(3)
        assert inner_product(h, h) == Exact(1)

    def test_rational_inner_product_is_the_leaf_sum(self):
        # one int row per input against one Exact per leaf, on sqrt(2)
        # parts, large coprime denominators, views with constant and leaf
        # blocks, and forests, whose trees all add into one value
        rng = random.Random(12)
        primes = (2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1)
        draws = {
            "small": lambda: Exact(Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
            "root2": lambda: Exact(*random_rationals(rng, 2)),
            "sqrt2 only": lambda: Exact(0, Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
            "coprime": lambda: Exact(
                Fraction(rng.randint(-10**12, 10**12), rng.choice(primes)),
                Fraction(rng.randint(-9, 9), rng.choice(primes)) if rng.random() < 0.3 else 0,
            ),
        }

        def view(depth, value):
            level = rng.randint(1, depth)
            blocks = tuple(
                value() if rng.random() < 0.5
                else tuple(value() for _ in range(1 << (depth - k - 1)))
                for k in range(level)
            )
            values = tuple(value() for _ in range(1 << (depth - level)))
            support = DyadicInterval(level, rng.randrange(1 << level))
            return SupportView(depth, support, values, blocks, RATIONAL)

        for depth in range(1, 7):
            for x, y in product(draws.values(), repeat=2):
                for trees in (1, 2, 3):
                    f, g = (
                        StepFunction._raw(depth, [v() for _ in range(trees << depth)], RATIONAL)
                        for v in (x, y)
                    )
                    assert inner_product(f, g) == loop_inner_product(f, g)
                f, g = view(depth, x), view(depth, y)
                for pair in ((f, g), (f, g.expand()), (f.expand(), f)):
                    assert inner_product(*pair) == loop_inner_product(*pair)


class TestNorms:
    def test_frozen_values(self):
        f = StepFunction.from_values([1, -2, 0, 4])
        assert lp_norm(f, 1) == Exact(Fraction(7, 4))
        assert lp_norm_pow(f, 2) == Exact(Fraction(21, 4))
        assert lp_norm(f, math.inf) == Exact(4)
        assert lp_norm_pow(f, math.inf) == Exact(4)
        assert lp_norm(StepFunction.from_values([-2, 2]), 2) == Exact(2)
        assert lp_norm(StepFunction.from_values([1, 0, 0, 0]), 1) == Exact(Fraction(1, 4))
        const = StepFunction.constant(Fraction(-5, 3), 2)
        assert lp_norm(const, 1) == Exact(Fraction(5, 3))
        assert lp_norm(const, 3) == pytest.approx(5 / 3)

    def test_l2_exact_when_perfect_square(self):
        f = StepFunction.from_values([3, 3, -3, 3])
        assert lp_norm(f, 2) == Exact(3)

    def test_l2_float_fallback(self):
        f = StepFunction.from_values([1, 2])
        v = lp_norm(f, 2)
        assert isinstance(v, float) and v == pytest.approx((2.5) ** 0.5)

    def test_fractional_p_float_fallback(self):
        f = StepFunction.from_values([1, 2])
        v = lp_norm(f, Fraction(3, 2))
        expect = ((1 + 2 ** 1.5) / 2) ** (2 / 3)
        assert v == pytest.approx(expect)

    @pytest.mark.parametrize("p", [700, 10**300])
    @pytest.mark.parametrize("mode", ["rational", "float64"])
    def test_large_p_is_scaled_by_the_max(self, p, mode):
        # 3.0 ** 700 overflows a float; 3 ** 10**300 has no room anywhere
        values = [1, -3, 2, Fraction(1, 2)]
        f = StepFunction.from_values(values, mode=mode)
        top = 3.0
        mean = sum((abs(float(v)) / top) ** float(p) for v in values) / 4
        expect = top * mean ** (1.0 / float(p))
        assert lp_norm(f, p) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(10**300)])
    def test_power_mean_below_one_and_past_the_float_range(self, r):
        values = [1.0, -3.0, 2.0, 0.5]
        f = StepFunction.from_values(values, mode="float64")
        mean = sum((abs(v) / 3.0) ** float(r) for v in values) / 4
        expect = 3.0 * mean ** (1 / float(r))
        assert power_mean(f, r) == pytest.approx(expect, rel=1e-12)

    def test_underflowing_power_sum_is_scaled(self):
        f = StepFunction.from_values([0.5, 0.25], mode="float64")
        expect = 0.5 * ((1 + 0.5**2000) / 2) ** (1 / 2000)
        assert lp_norm(f, 2000) == pytest.approx(expect, rel=1e-12)

    def test_power_mean_sums_floats_correctly_rounded(self):
        # added left to right, 1.0 + 1e-16 + 1e-16 stays 1.0
        values = [1.0, 1e-16, 1e-16, 0.0]
        f = StepFunction.from_values(values, mode="float64")
        assert power_mean(f, Fraction(1)) == math.fsum(values) / 4

    def test_float64_divisions_by_powers_of_two(self):
        # multiplying by an exact 2**-k rounds as dividing by 2**k does,
        # subnormal results included
        rng = random.Random(9)
        for depth in range(1, 7):
            for scale in (1e-310, 1e-5, 1.0, 1e5, 1e100):
                f, g = (
                    StepFunction.from_values(
                        [rng.uniform(-1, 1) * scale for _ in range(1 << depth)],
                        mode="float64",
                    )
                    for _ in range(2)
                )
                leaves = [DyadicInterval(depth, k) for k in range(1 << depth)]
                for i in interval_family(depth) + leaves:
                    assert pairing(f, i, 1) == divided_pairing(f, i, 1), i
                    if i.level < depth:
                        assert pairing(f, i, 0) == divided_pairing(f, i, 0), i
                assert inner_product(f, g) == divided_inner_product(f, g)
                for k in (1, 2, 3):
                    assert lp_norm_pow(f, k) == divided_lp_norm_pow(f, k)

    def test_p_validation(self):
        f = StepFunction.from_values([1, 2])
        with pytest.raises(ValueError):
            lp_norm(f, Fraction(1, 2))
        with pytest.raises(ValueError):
            lp_norm_pow(f, 0)

    def test_fractional_p(self):
        # float64: the correctly rounded mean of the libm powers; rational
        # mode has no exact fractional power
        vals = [0.25, -1.5, 3.0, -0.75, 1e-3, 2.5, -0.5, 7.0]
        f = StepFunction.from_values(vals, mode=FLOAT64)
        want = math.fsum(abs(v) ** 1.5 for v in vals) * (1.0 / 8)
        assert lp_norm_pow(f, Fraction(3, 2)).hex() == want.hex()
        with pytest.raises(
            ValueError, match="^exact p-th powers need an integer exponent, got 3/2$"
        ):
            lp_norm_pow(StepFunction.from_values([1, 2]), Fraction(3, 2))

    def test_weak_p_validation(self):
        f = StepFunction.from_values([1, 2])
        with pytest.raises(ValueError, match="^weak quasinorm needs a finite exponent$"):
            weak_lp_quasinorm(f, math.inf)
        with pytest.raises(
            ValueError, match="^exact weak quasinorm powers need an integer p, got 3/2$"
        ):
            weak_lp_quasinorm_pow(f, Fraction(3, 2))

    def test_weak_frozen(self):
        # distribution of |f|: value 4 on 1/4, value 2 on 1/2, value 1 on 3/4
        f = StepFunction.from_values([1, 2, -2, 4])
        assert weak_lp_quasinorm(f, 1) == Exact(Fraction(3, 2))
        assert weak_lp_quasinorm_pow(f, 2) == Exact(4)
        assert weak_lp_quasinorm(StepFunction.constant(1, 1), 1) == Exact(1)
        # max(3 * 1/4, 1 * 3/4) over the two distinct heights
        assert weak_lp_quasinorm(StepFunction.from_values([3, 1, 0, 0]), 1) == Exact(
            Fraction(3, 4)
        )
        assert weak_lp_quasinorm(StepFunction.constant(0, 2), 1) == Exact(0)

    @settings(max_examples=40)
    @given(step_functions(3), st.integers(1, 3))
    def test_weak_below_strong_exact(self, f, p):
        assert weak_lp_quasinorm_pow(f, p) <= lp_norm_pow(f, p)

    def test_weak_of_indicator_equals_lp(self):
        ind = StepFunction.indicator(DyadicInterval(2, 1), 3)
        assert weak_lp_quasinorm(ind, 1) == lp_norm(ind, 1) == Exact(Fraction(1, 4))

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_weak_candidates_kept_on_the_function(self, mode):
        vals = random_rationals(random.Random(3), 16)
        vals[5] = vals[9] = -vals[2]
        f = StepFunction.from_values(vals, mode=mode)
        assert _weak_candidates(f) is _weak_candidates(f)
        for p in (1, 2, 3):
            fresh = StepFunction.from_values(vals, mode=mode)
            assert weak_lp_quasinorm(f, p) == weak_lp_quasinorm(fresh, p)
            assert float(weak_lp_quasinorm(f, p)) == pytest.approx(
                naive_weak_lr(f, p), rel=1e-12
            )
        assert weak_lp_quasinorm(f, 1) == max(
            abs(v) * Fraction(sum(abs(w) >= abs(v) for w in vals), 16) for v in vals
        )


def hexes(got) -> list:
    """The bits of a float or of a forest's list of floats."""
    return [v.hex() for v in (got if isinstance(got, list) else [got])]


# a magnitude of each kind of size; "zeros" gives +0.0 and -0.0
SIZES = {
    "plain": lambda rng: rng.random(),
    "random": lambda rng: rng.random() * 10.0 ** rng.randint(-300, 300),
    "subnormal": lambda rng: rng.random() * sys.float_info.min,
    "zeros": lambda rng: 0.0,
    "huge": lambda rng: rng.uniform(0.5, 1.5) * 1e300,
    "tiny": lambda rng: rng.uniform(0.5, 1.5) * 1e-300,
    "past-square": lambda rng: rng.uniform(0.5, 1.5) * 1e160,  # v * v is inf
    "below-square": lambda rng: rng.uniform(0.5, 1.5) * 1e-170,  # v * v is 0
    "tied": lambda rng: rng.choice((0.0, 0.5, 1.0, 2.0)),  # ties and zeros
}


def sized_values(rng, n, kind):
    """n float64 leaf values of one kind of size, with random signs."""
    size = SIZES[kind]
    return [rng.choice((-1.0, 1.0)) * size(rng) for _ in range(n)]


def random_view(rng, depth, kind):
    """A float64 SupportView on a random interval below the universe whose
    blocks mix constants and leaf tuples."""
    level = rng.randint(1, depth)
    support = DyadicInterval(level, rng.randrange(1 << level))
    blocks = []
    for k in range(level):
        width = 1 << (depth - k - 1)
        if rng.random() < 0.5:
            blocks.append(sized_values(rng, 1, kind)[0])
        else:
            blocks.append(tuple(sized_values(rng, width, kind)))
    values = sized_values(rng, 1 << (depth - level), kind)
    return SupportView(depth, support, tuple(values), tuple(blocks), FLOAT64)


KINDS_OF_SIZE = ("plain", "random", "subnormal", "zeros", "huge", "tiny")


class TestFloatPowerSums:
    """At p = 1 a float64 power is |v| and at p = 2 it is v * v; the
    oracle takes a libm pow for every power."""

    @pytest.mark.parametrize("kind", KINDS_OF_SIZE)
    def test_l1_keeps_the_pow_bits(self, kind):
        rng = random.Random(kind)
        for depth in range(1, 8):
            trees = [
                StepFunction.from_values(sized_values(rng, 1 << depth, kind), FLOAT64)
                for _ in range(rng.randint(1, 4))
            ]
            functions = [*trees, forest(trees), random_view(rng, depth, kind)]
            for f in functions:
                want = [pow_power_mean(tree(f, k), 1) for k in range(tree_count(f))]
                for got in (lp_norm(f, 1), power_mean(f, Fraction(1))):
                    assert hexes(got) == hexes(want), (kind, depth)

    @pytest.mark.parametrize("kind", ("plain", "random", "huge", "tiny"))
    def test_l2_sums_the_products(self, kind):
        rng = random.Random(kind)
        for depth in range(1, 8):
            for f in (
                StepFunction.from_values(sized_values(rng, 1 << depth, kind), FLOAT64),
                random_view(rng, depth, kind),
            ):
                got = lp_norm(f, 2)
                terms = [v * v for v in f.values]
                terms += [v * v * c for v, c in block_runs(f)]
                mean = math.fsum(terms) / (1 << depth)
                if sys.float_info.min <= mean < math.inf:
                    assert got.hex() == (mean ** 0.5).hex()
                want = pow_power_mean(f, 2)
                assert abs(got - want) <= math.ulp(want), (kind, depth)

    def test_squares_are_the_products(self):
        # each draw whose libm pow(|v|, 2.0) is not v * v, where this
        # platform's pow rounds so, alone among zeros, then plain draws
        rng = random.Random(2)
        draws = [rng.uniform(-1.0, 1.0) for _ in range(20_000)]
        odd = [v for v in draws if v * v != abs(v) ** 2.0]
        for depth in range(1, 5):
            n = 1 << depth
            rows = [[v] + [0.0] * (n - 1) for v in odd]
            rows += [draws[start:start + n] for start in range(0, 40 * n, n)]
            for row in rows:
                f = StepFunction.from_values(row, FLOAT64)
                want = math.fsum(v * v for v in row) / n
                assert lp_norm_pow(f, 2).hex() == want.hex()
                assert power_mean(f, Fraction(2)).hex() == (want ** 0.5).hex()

    @pytest.mark.parametrize("kind", ("past-square", "below-square"))
    def test_squares_past_the_float_range_take_the_fallback(self, kind):
        rng = random.Random(kind)
        for depth in range(1, 8):
            f = StepFunction.from_values(sized_values(rng, 1 << depth, kind), FLOAT64)
            mean = math.fsum(v * v for v in f.values) / (1 << depth)
            assert mean == math.inf or mean < sys.float_info.min
            for q in (2, 3, 4):
                assert lp_norm(f, q).hex() == pow_power_mean(f, q).hex(), (depth, q)
            view = random_view(rng, depth, kind)
            assert lp_norm(view, 2).hex() == pow_power_mean(view, 2).hex()

    @pytest.mark.parametrize("kind", ("past-square", "below-square"))
    def test_one_tree_past_the_range_among_plain_ones(self, kind):
        rng = random.Random(kind)
        for depth in range(1, 7):
            trees = [
                StepFunction.from_values(sized_values(rng, 1 << depth, size), FLOAT64)
                for size in ("plain", kind, "plain", "zeros")
            ]
            for q in (1, 2, Fraction(5, 2), 3):
                got = power_mean(forest(trees), q)
                assert hexes(got) == hexes([power_mean(t, q) for t in trees])
            assert power_mean(trees[1], 2).hex() == pow_power_mean(trees[1], 2).hex()

    def test_lp_norm_pow_refuses_squares_past_the_float_range(self):
        f = StepFunction.from_values([1e160, -2e160], FLOAT64)
        with pytest.raises(OverflowError):
            lp_norm_pow(f, 2)
        with pytest.raises(OverflowError):
            lp_norm_pow(f, 3)
        assert lp_norm_pow(f, 1) == 1.5e160


WEAK_EXPONENTS = (Fraction(2, 3), 1, Fraction(3, 2), 2, 3)


class TestWeakPowerMean:
    """``weak_power_mean`` sorts each tree's |values| and multiplies them by
    the steps (k / n) ** (1/q); the oracle counts the leaves at or above
    each distinct |value|.  They give the same bits."""

    @pytest.mark.parametrize("kind", (*KINDS_OF_SIZE, "tied"))
    def test_forests_and_views_match_the_distinct_values(self, kind):
        rng = random.Random(f"weak:{kind}")
        for depth in range(1, 8):
            trees = [
                StepFunction.from_values(sized_values(rng, 1 << depth, kind), FLOAT64)
                for _ in range(rng.randint(1, 4))
            ]
            trees.insert(rng.randint(0, len(trees)), StepFunction.zeros(depth, FLOAT64))
            view = random_view(rng, depth, kind)
            for q in WEAK_EXPONENTS:
                for f in (*trees, forest(trees), view):
                    want = [candidate_weak_lr(tree(f, k), q) for k in range(tree_count(f))]
                    assert hexes(weak_power_mean(f, q)) == hexes(want), (kind, depth, q)
                    if q >= 1:
                        assert hexes(weak_lp_quasinorm(f, q)) == hexes(want)
                got = weak_power_mean(view, q)
                assert got.hex() == weak_power_mean(view.expand(), q).hex()

    def test_signed_zeros_and_ties(self):
        f = StepFunction.from_values([-0.0, 0.0, 2.0, -2.0, 1.0, -0.0, 2.0, 0.5], FLOAT64)
        for q in WEAK_EXPONENTS:
            # 2 on 3/8 of the leaves, 1 on 1/2 and 0.5 on 5/8
            want = max(2.0 * (3 / 8) ** (1 / float(q)), 1.0 * 0.5 ** (1 / float(q)),
                       0.5 * (5 / 8) ** (1 / float(q)))
            assert weak_power_mean(f, q) == want
        zeros = forest([StepFunction.from_values([-0.0, 0.0], FLOAT64)] * 3)
        assert hexes(weak_power_mean(zeros, 2)) == [(0.0).hex()] * 3

    def test_rational_functions_go_through_their_floats(self):
        rng = random.Random(18)
        for depth in range(1, 7):
            n = 1 << depth
            trees = [
                StepFunction.from_values(random_rationals(rng, n, numer=3, denom=2))
                for _ in range(3)
            ]
            level = rng.randint(1, depth)
            view = SupportView(
                depth,
                DyadicInterval(level, rng.randrange(1 << level)),
                tuple(coerce(v, RATIONAL) for v in random_rationals(rng, n >> level, 3, 2)),
                tuple(coerce(Fraction(rng.randint(-3, 3), 2), RATIONAL) for _ in range(level)),
                RATIONAL,
            )
            floats = forest([t.as_float64() for t in trees])
            for q in WEAK_EXPONENTS:
                for f in (*trees, forest(trees), view):
                    want = [candidate_weak_lr(tree(f, k), q) for k in range(tree_count(f))]
                    assert hexes(weak_power_mean(f, q)) == hexes(want), (depth, q)
                    if q > 1:
                        assert hexes(weak_lp_quasinorm(f, q)) == hexes(want)
                got = weak_power_mean(forest(trees), q)
                assert hexes(weak_power_mean(floats, q)) == hexes(got)

    def test_a_second_exponent_reads_the_kept_magnitudes(self, monkeypatch):
        """|f| is sorted on the first call and kept on f: the next exponents
        sort nothing and give the bits of a fresh f."""
        rng = random.Random(19)
        depth = 6
        floats = [
            StepFunction.from_values(sized_values(rng, 1 << depth, "random"), FLOAT64)
            for _ in range(3)
        ]
        # a rational file, read the way ``norms`` reads it
        text = json.dumps({
            "depth": depth, "mode": "rational",
            "values": [str(v) for v in random_rationals(rng, 1 << depth, numer=3, denom=2)],
        })
        cases = [
            (lambda: forest(floats), weak_power_mean),
            (lambda: random_view(random.Random(5), depth, "random"), weak_power_mean),
            (lambda: StepFunction.from_json_dict(json.loads(text)), weak_lp_quasinorm),
        ]
        sorts = []
        monkeypatch.setattr(core, "sorted", lambda *a, **k: sorts.append(1) or sorted(*a, **k),
                            raising=False)
        for build, measure in cases:
            f = build()
            kept = None
            for q in (1, Fraction(3, 2), 2, 3):
                if measure is weak_lp_quasinorm and q == 1:
                    continue  # the exact rational p = 1 rule
                sorts.clear()
                got = measure(f, q)
                assert bool(sorts) == (kept is None)
                kept = kept or f.__dict__["_sorted_magnitudes"]
                assert f.__dict__["_sorted_magnitudes"] is kept
                assert hexes(got) == hexes(measure(build(), q)), q
                want = [candidate_weak_lr(tree(f, k), q) for k in range(tree_count(f))]
                assert hexes(got) == hexes(want), q


class TestJsonFormats:
    def test_function_round_trip_bytes(self):
        f = StepFunction.from_values([Fraction(1, 3), -2, 0, Fraction(7, 2)])
        d = f.to_json_dict()
        blob = json.dumps(d, indent=2, sort_keys=True)
        assert StepFunction.from_json_dict(json.loads(blob)) == f
        assert json.dumps(StepFunction.from_json_dict(json.loads(blob)).to_json_dict(),
                          indent=2, sort_keys=True) == blob

    def test_function_with_root_values(self):
        f = StepFunction.haar(DyadicInterval(1, 0), 2)
        d = f.to_json_dict()
        assert d["values"][0] == ["0", "-1"]
        assert StepFunction.from_json_dict(d) == f

    def test_spectrum_round_trip_and_order(self):
        f = StepFunction.from_values([0, 1, 0, 0])
        spec = analyze(f)
        d = spec.to_json_dict()
        assert [(c["level"], c["pos"]) for c in d["coeffs"]] == [(0, 0), (1, 0)]
        assert HaarSpectrum.from_json_dict(d) == spec

    def test_spectrum_strips_zeros(self):
        spec = analyze(StepFunction.from_values([0, 0, 1, 1]))
        assert len(spec.to_json_dict()["coeffs"]) == 1

    def test_float_mode_round_trip(self):
        f = StepFunction.from_values([0.5, -1.25, 0.0, 3.0], mode=FLOAT64)
        assert StepFunction.from_json_dict(f.to_json_dict()) == f

    def test_readers_build_mode_scalars(self):
        # each value decoded once, to the type the constructor coerces to
        f = StepFunction.from_json_dict(
            {"depth": 2, "mode": "rational", "values": [3, "1/3", ["1", "-2"], "0"]}
        )
        assert f == StepFunction(2, (3, Fraction(1, 3), Exact(1, -2), 0))
        assert type(f.values) is ExactRow and {type(v) for v in f.values} == {Exact}
        g = StepFunction.from_json_dict(
            {"depth": 1, "mode": "float64", "values": [3, "1/4"]}
        )
        assert g.values == (3.0, 0.25) and {type(v) for v in g.values} == {float}
        spec = HaarSpectrum.from_json_dict({
            "depth": 2, "mode": "rational", "mean": 2,
            "coeffs": [{"level": 1, "pos": 1, "value": ["0", "3/2"]}],
        })
        assert spec == HaarSpectrum(2, 2, ((0,), (0, Exact(0, Fraction(3, 2)))))
        assert type(spec.coeffs) is tuple
        assert all(type(row) is tuple for row in spec.coeffs)
        assert type(spec.mean) is Exact
