import gc
import json
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import (
    UNIVERSE,
    AlphaVector,
    CZDecomposition,
    DyadicInterval,
    Exact,
    ExponentTuple,
    OperatorDescriptor,
    StepFunction,
    SymbolSequence,
    bmo2_via_haar,
    bmo2_via_haar_sq,
    bmo_norm,
    bmo_norm_pow,
    bstar_seminorm,
    cz_decompose,
    inner_product,
    interval_family,
    lp_norm_pow,
    maximal,
    sharp_forms,
    square_function,
    square_function_sq,
)
from dyadicops import scalars, sublinear
from dyadicops.core import average_table
from dyadicops.errors import RootExceedsHeight, ShapeError
from dyadicops.normlab import multiplier_sharp_forms, pi_sharp_forms
from dyadicops.scalars import FLOAT64, RATIONAL
from dyadicops.sublinear import (
    _bstar_table,
    _mean_oscillation,
    _pairwise_means,
    _square_terms,
    _unit_scaled,
    _variance_table,
)

from oracles import (
    full_bmo1,
    l1_oscillation_table,
    naive_bmo_pow,
    naive_coefficient,
    naive_maximal,
    naive_oscillation_pow,
    naive_square_sq,
    random_rationals,
)

small_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def step_functions(depth):
    return st.lists(small_fracs, min_size=1 << depth, max_size=1 << depth).map(
        StepFunction.from_values
    )


class TestMaximal:
    def test_frozen_spike(self):
        f = StepFunction.from_values([4, 0, 0, 0])
        assert maximal(f) == StepFunction.from_values([4, 2, 1, 1])

    def test_frozen_step(self):
        f = StepFunction.from_values([0, 1])
        assert maximal(f) == StepFunction.from_values([Fraction(1, 2), 1])

    @settings(max_examples=25)
    @given(step_functions(3))
    def test_matches_oracle(self, f):
        assert maximal(f) == naive_maximal(f)

    @settings(max_examples=25)
    @given(step_functions(3))
    def test_dominates_function_and_mean(self, f):
        m = maximal(f)
        mean = sum(f.abs().values, Exact(0)) / (1 << f.depth)
        for leaf in range(1 << f.depth):
            assert m.values[leaf] >= abs(f.values[leaf])
            assert m.values[leaf] >= mean

    def test_float_mode(self):
        f = StepFunction.from_values([4.0, 0.0, 0.0, 0.0], mode=FLOAT64)
        assert maximal(f).values == (4.0, 2.0, 1.0, 1.0)


class TestSquareFunction:
    def test_frozen_step(self):
        f = StepFunction.from_values([0, 1])
        assert square_function_sq(f) == StepFunction.from_values(
            [Fraction(1, 4), Fraction(1, 4)]
        )
        assert square_function(f) == StepFunction.from_values(
            [Fraction(1, 2), Fraction(1, 2)]
        )

    def test_frozen_two_level_step(self):
        # only the root coefficient 1/2 is nonzero, so S is flat
        f = StepFunction.from_values([0, 0, 1, 1])
        assert square_function(f) == StepFunction.constant(Fraction(1, 2), 2)

    @settings(max_examples=25)
    @given(step_functions(3))
    def test_matches_oracle(self, f):
        assert square_function_sq(f) == naive_square_sq(f)

    @settings(max_examples=25)
    @given(step_functions(3))
    def test_l2_identity_exact(self, f):
        # ||Sf||_2^2 = ||f||_2^2 - <f>^2, via the exact squared route
        mean = sum(f.values, Exact(0)) / (1 << f.depth)
        sq = square_function_sq(f)
        total = sum(sq.values, Exact(0)) / (1 << f.depth)
        assert total == lp_norm_pow(f, 2) - mean * mean

    def test_irrational_values_flip_to_float(self):
        f = StepFunction.from_values([0, 1, 0, 0])
        s = square_function(f)
        assert s.mode == FLOAT64
        expect = Fraction(5, 16) ** 0.5  # (1/4)^2 + (sqrt2/4)^2 * 2
        assert s.values[0] == pytest.approx(expect)

    def test_float_fallback_rounds_as_float64_mode(self):
        # leaf 0 of Sf**2 is 8432393/16, which has no square root in
        # Q(sqrt 2); float(v) ** 0.5 gives 725.9645738601849, one ulp
        # below math.sqrt(float(v)), which float64 mode takes
        f = StepFunction.from_values([604, -700, 752, 429])
        sq = square_function_sq(f)
        assert sq.values[0] == Exact(Fraction(8432393, 16))
        s = square_function(f)
        assert s.mode == FLOAT64
        assert s.values == tuple(math.sqrt(float(v)) for v in sq.values)
        assert s == square_function(f.as_float64())

    def test_haar_input_stays_exact(self):
        h = StepFunction.haar(UNIVERSE, 2)
        assert square_function(h) == StepFunction.from_values([1, 1, 1, 1])


class TestBmo:
    def test_frozen_spike(self):
        b = StepFunction.from_values([2, 0, 0, 0])
        assert bmo_norm(b, 1) == Exact(1)
        assert bmo_norm(b, 2) == Exact(1)
        assert bmo2_via_haar(b) == Exact(1)
        assert bstar_seminorm(b) == Exact(1)

    def test_haar_function_norms(self):
        b = StepFunction.haar(DyadicInterval(1, 0), 2)
        assert bmo2_via_haar(b) == Exact(0, 1)  # sqrt(2)
        assert bmo_norm(b, 2) == Exact(0, 1)
        assert bstar_seminorm(b) == Exact(0, 1)

    def test_frozen_root_oscillation(self):
        assert bmo_norm(StepFunction.from_values([1, -1]), 1) == Exact(1)
        # single root coefficient 1/2 over |U| = 1
        assert bstar_seminorm(StepFunction.from_values([0, 1])) == Exact(Fraction(1, 2))

    @settings(max_examples=20)
    @given(step_functions(3))
    def test_matches_oracle(self, b):
        assert bmo_norm_pow(b, 1) == naive_bmo_pow(b, 1)
        assert bmo_norm_pow(b, 2) == naive_bmo_pow(b, 2)

    @settings(max_examples=30)
    @given(step_functions(3))
    def test_orderings_exact(self, b):
        one = bmo_norm_pow(b, 1)
        two = bmo_norm_pow(b, 2)
        assert one * one <= two  # Cauchy-Schwarz on each interval
        star = bstar_seminorm(b)
        assert star * star <= two

    @settings(max_examples=30)
    @given(step_functions(3))
    def test_haar_route_agrees(self, b):
        assert bmo2_via_haar_sq(b) == bmo_norm_pow(b, 2)

    def test_constants_have_zero_norm(self):
        c = StepFunction.constant(Fraction(7, 3), 3)
        assert bmo_norm_pow(c, 1) == Exact(0)
        assert bmo_norm_pow(c, 2) == Exact(0)
        assert bstar_seminorm(c) == Exact(0)

    def test_r_validation(self):
        b = StepFunction.from_values([1, 0])
        with pytest.raises(ValueError):
            bmo_norm_pow(b, 3)
        with pytest.raises(ValueError):
            bmo_norm(b, 0)

    def test_shift_invariance(self):
        b = StepFunction.from_values([3, -1, 2, 5])
        shifted = b + StepFunction.constant(Fraction(9, 7), 2)
        assert bmo_norm_pow(b, 2) == bmo_norm_pow(shifted, 2)
        assert bstar_seminorm(b) == bstar_seminorm(shifted)


class TestFloatBmo:
    """float64 BMO norms and square functions against the exact ones."""

    @pytest.mark.parametrize("offset", [1e8, 1e12, -3e5, 0.0])
    def test_bmo2_of_offset_data(self, offset):
        # <b**2>_I - <b>_I**2 cancelled every digit here: at 1e8 it gave
        # 2.0 for an exact 6.7e-4, at 1e12 16384
        for seed in range(20):
            rng = random.Random(seed)
            vals = [offset + rng.uniform(-1e-3, 1e-3) for _ in range(64)]
            exact = StepFunction(6, [Fraction(v) for v in vals], RATIONAL)
            got = bmo_norm(StepFunction(6, vals, FLOAT64), 2)
            assert got == pytest.approx(float(bmo_norm(exact, 2)), rel=1e-12), seed

    def test_bmo2_table_matches_rational(self):
        rng = random.Random(4)
        for depth in range(1, 7):
            vals = [rng.uniform(-5, 5) for _ in range(1 << depth)]
            exact = StepFunction(depth, [Fraction(v) for v in vals], RATIONAL)
            got = bmo_norm_pow(StepFunction(depth, vals, FLOAT64), 2)
            assert got == pytest.approx(float(bmo_norm_pow(exact, 2)), rel=1e-12)

    @pytest.mark.parametrize("power", [600, 1000, -550, -600, -1000])
    def test_scaling_by_a_power_of_two_is_exact(self, power):
        # past 2**500 the squares would overflow, and below 2**-500 they
        # would underflow, so the functions work on f / 2**e: the results
        # scale with f, bit for bit
        rng = random.Random(power)
        f = StepFunction(4, [rng.uniform(-1, 1) for _ in range(16)], FLOAT64)
        big = f.scale(2.0**power)
        for r in (1, 2):
            assert bmo_norm(big, r) == bmo_norm(f, r) * 2.0**power
        assert bmo2_via_haar(big) == bmo2_via_haar(f) * 2.0**power
        assert square_function(big) == square_function(f).scale(2.0**power)

    def test_values_below_the_limit_keep_the_plain_roots(self):
        rng = random.Random(8)
        f = StepFunction(5, [rng.uniform(-1e150, 1e150) for _ in range(32)], FLOAT64)
        assert bmo_norm(f, 2) == math.sqrt(bmo_norm_pow(f, 2))
        assert bmo2_via_haar(f) == math.sqrt(bmo2_via_haar_sq(f))
        roots = [math.sqrt(v) for v in square_function_sq(f).values]
        assert square_function(f).values == tuple(roots)


class TestSharedTables:
    """The per-interval BMO tables that the norms, the square function and
    the sharp forms all read."""

    @pytest.mark.parametrize("depth", range(1, 6))
    def test_tables_match_the_oracles_exactly(self, depth):
        rng = random.Random(depth)
        for _ in range(3):
            b = StepFunction.from_values(random_rationals(rng, 1 << depth))
            one, two = l1_oscillation_table(b), _variance_table(b)
            haar = _pairwise_means(_square_terms(b), RATIONAL)
            star = _bstar_table(b)
            avgs = average_table(b)
            for i in interval_family(depth):
                width = 1 << (depth - i.level)
                leaves = b.values[i.position * width:(i.position + 1) * width]
                # the search evaluates an entry of the full table
                mean = avgs[i.level][i.position]
                assert _mean_oscillation(leaves, mean, RATIONAL) == one[i.level][i.position]
            for level in range(depth + 1):
                for pos in range(1 << level):
                    i = DyadicInterval(level, pos)
                    assert one[level][pos] == naive_oscillation_pow(b, i, 1)
                    assert two[level][pos] == naive_oscillation_pow(b, i, 2)
                    assert haar[level][pos] == two[level][pos]
                    if level < depth:
                        # |c_I| / sqrt(|I|), sqrt(|I|) = 2**(-level/2)
                        root = Exact.root2_power(-level)
                        assert star[level][pos] == abs(naive_coefficient(b, i)) / root

    @pytest.mark.parametrize(
        "alpha, slot, p, r", [("01", 2, "2,2", 1), ("00", 1, "4,4", 2)]
    )
    def test_case_two_commutator_forms_reach_the_bmo_norm(self, alpha, slot, p, r):
        # with eps = 1, the case-II form at I is the L^r oscillation of b
        # on I, so the largest form is the BMO_r norm
        exponents = ExponentTuple.from_string(p)
        assert exponents.r == r
        eps = SymbolSequence.constant(1)
        for depth in range(1, 9):
            rng = random.Random(depth)
            b = StepFunction(
                depth, [rng.uniform(-1, 1) for _ in range(1 << depth)], FLOAT64
            )
            d = OperatorDescriptor(
                "commutator", AlphaVector.from_string(alpha), b, eps, slot
            )
            forms = sharp_forms(d, exponents, depth)
            assert max(forms) == pytest.approx(bmo_norm(b, r), rel=1e-12), depth
            if r == 1:
                # both add the same |b - <b>_I| with fsum over each interval
                one = l1_oscillation_table(b)
                weights = multiplier_sharp_forms(eps, depth)
                for k, i in enumerate(interval_family(depth)):
                    assert forms[k] == weights[k] * one[i.level][i.position], (depth, i)

    def test_pi_forms_are_the_bstar_table(self):
        rng = random.Random(13)
        for depth in range(1, 7):
            b = StepFunction(
                depth, [rng.uniform(-1, 1) for _ in range(1 << depth)], FLOAT64
            )
            forms = pi_sharp_forms(b)
            assert forms == [v for row in _bstar_table(b) for v in row]
            assert bstar_seminorm(b) == max(forms)


def float_families(rng, n):
    """(name, leaf values) of float64 data that strain the BMO1 search's
    bound: offsets larger than the oscillation, ties, constants, data near
    the bottom of the float range or scaled far from 1, and the dyadic
    logarithm."""
    uniform = [rng.uniform(-1, 1) for _ in range(n)]
    yield "uniform", uniform
    yield "offset 1e8", [1e8 + v * 1e-3 for v in uniform]
    yield "offset 1e12", [1e12 + v * 1e-3 for v in uniform]
    yield "integers", [float(rng.randint(-3, 3)) for _ in range(n)]
    yield "constant", [2.5] * n
    yield "two-valued", [rng.choice((0.0, 1.0)) for _ in range(n)]
    yield "+-1e-300", [rng.choice((-1e-300, 1e-300)) for _ in range(n)]
    yield "subnormal", [rng.randint(-5, 5) * 5e-324 for _ in range(n)]
    yield "below 1e-310", [v * 1e-310 for v in uniform]
    yield "times 2**600", [v * 2.0**600 for v in uniform]
    yield "times 2**-600", [v * 2.0**-600 for v in uniform]
    yield "1e150 + 3e152", [1e150 * v + 3e152 for v in uniform]
    yield "dyadic log", [-math.log2((k + 0.5) / n) for k in range(n)]


def rational_families(rng, n):
    yield "rationals", random_rationals(rng, n)
    yield "constant", [Fraction(5, 3)] * n
    yield "two-valued", [rng.choice((0, 1)) for _ in range(n)]
    yield "Q(sqrt 2)", [Exact(rng.randint(-4, 4), Fraction(rng.randint(-4, 4), 3)) for _ in range(n)]


def four_bumps(rng, depth):
    """Small noise plus one tall bump of 16 leaves in each quarter, as in
    the benchmark's data files."""
    n = 1 << depth
    vals = [rng.uniform(-0.05, 0.05) for _ in range(n)]
    for quarter in range(4):
        start = quarter * (n // 4) + rng.randrange(n // 64) * 16
        sign = rng.choice((-1, 1))
        for leaf in range(start, start + 16):
            vals[leaf] = sign * rng.uniform(2.5, 3.5)
    return StepFunction(depth, vals, FLOAT64)


class TestBMO1Search:
    """BMO1 evaluates |b - <b>_I| only on the intervals whose L2
    oscillation, read from the kept variance table, can reach the running
    sup; the result is the full table's sup."""

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_the_search_is_the_full_table_sup_bit_for_bit(self, depth):
        rng = random.Random(depth)
        for _ in range(2):
            for name, vals in float_families(rng, 1 << depth):
                b = StepFunction(depth, vals, FLOAT64)
                # repr tells the sign of a zero apart
                assert repr(bmo_norm_pow(b, 1)) == repr(full_bmo1(b)), name
            for name, vals in rational_families(rng, 1 << depth):
                b = StepFunction(depth, vals)
                assert bmo_norm_pow(b, 1) == full_bmo1(b), name

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_no_interval_lies_above_its_skip_bound(self, depth):
        # an interval is skipped when its M2 lies below the floor of the
        # running best, so none may lie below the floor of its own value
        rng = random.Random(100 + depth)
        n = 1 << depth
        cases = [StepFunction(depth, vals, FLOAT64) for _, vals in float_families(rng, n)]
        cases += [StepFunction(depth, vals) for _, vals in rational_families(rng, n)]
        for b in cases:
            self.assert_within_bounds(b)

    def test_the_float_floor_covers_the_underflow_of_deep_averages(self):
        # at depth 16 the averages of a constant subnormal b are off by up
        # to 2**(16 - 1075), above a fixed 2**-1060, while its M2 is 0
        self.assert_within_bounds(StepFunction(16, [3.3e-310] * (1 << 16), FLOAT64))

    @staticmethod
    def assert_within_bounds(b):
        scaled, e = _unit_scaled(b)
        floor = scalars.jensen_floor(scaled.values, e, b.depth)
        one = l1_oscillation_table(b)
        bounds = _variance_table(scaled)
        for level in range(b.depth):
            for pos in range(1 << level):
                assert not bounds[level][pos] < floor(one[level][pos]), (level, pos)

    def count_evaluations(self, monkeypatch):
        """The list of the values the search evaluates, in its order."""
        calls = []
        evaluate = sublinear._mean_oscillation

        def counted(*args):
            calls.append(evaluate(*args))
            return calls[-1]

        monkeypatch.setattr(sublinear, "_mean_oscillation", counted)
        return calls

    def test_tall_bumps_are_found_with_a_handful_of_evaluations(self, monkeypatch):
        calls = self.count_evaluations(monkeypatch)
        for seed in range(3):
            b = four_bumps(random.Random(seed), 12)
            del calls[:]
            got = bmo_norm_pow(b, 1)
            assert len(calls) <= 4, seed
            assert got == full_bmo1(b)

    def test_offset_data_evaluates_every_interval(self, monkeypatch):
        # 2**-40 of 1e12 is above the oscillation, so nothing is skipped
        calls = self.count_evaluations(monkeypatch)
        rng = random.Random(4)
        b = StepFunction(8, [1e12 + rng.uniform(-1e-3, 1e-3) for _ in range(256)], FLOAT64)
        assert bmo_norm_pow(b, 1) == full_bmo1(b)
        # each interval once, with the value of its entry in the full table
        entries = [v for row in l1_oscillation_table(b)[:-1] for v in row]
        assert sorted(calls) == sorted(entries)

    def test_bmo2_after_bmo1_builds_no_table(self, monkeypatch):
        b = four_bumps(random.Random(5), 8)
        want = bmo_norm(StepFunction(b.depth, b.values, FLOAT64), 2)
        bmo_norm(b, 1)
        # BMO2 reads the variance table that the BMO1 search kept on b
        monkeypatch.setattr(sublinear, "_pairwise_means", None)
        assert bmo_norm(b, 2) == want

    def test_bmo2_after_bmo1_builds_no_table_on_scaled_data(self, monkeypatch):
        # past 2**500 the norms work on f / 2**e, which is kept on f with
        # the variance table the BMO1 search kept on it
        b = four_bumps(random.Random(5), 10).scale(2.0**600)
        want = bmo_norm(StepFunction(b.depth, b.values, FLOAT64), 2)
        bmo_norm(b, 1)
        monkeypatch.setattr(sublinear, "_pairwise_means", None)
        assert bmo_norm(b, 2) == want

    @pytest.mark.parametrize("scale", [1.0, 2.0**600])
    def test_a_function_is_freed_by_reference_counting(self, scale):
        # no value kept on b may hold b: a cycle would free b, and every
        # table kept on it, only at a full collection
        b = four_bumps(random.Random(6), 10).scale(scale)
        ref = weakref.ref(b)
        gc.disable()
        try:
            bmo_norm(b, 1)
            bmo_norm(b, 2)
            bmo2_via_haar(b)
            square_function(b)
            del b
            assert ref() is None
        finally:
            gc.enable()


class TestCZDecomposition:
    def test_frozen_example(self):
        f = StepFunction.from_values([2, 0, 0, 0])
        d = cz_decompose(f, Fraction(3, 2))
        assert d.intervals == (DyadicInterval(2, 0),)
        assert d.good == StepFunction.from_values([2, 0, 0, 0])
        assert d.parts[0][1].is_zero()

    def test_frozen_spike_two_heights(self):
        f = StepFunction.from_values([4, 0, 0, 0])
        d = cz_decompose(f, Fraction(3, 2))
        # <|f|>_U = 1 stays under, [0,1/2) jumps to 2
        assert d.intervals == (DyadicInterval(1, 0),)
        assert d.good == StepFunction.from_values([2, 2, 0, 0])
        assert d.parts[0][1] == StepFunction.from_values([2, -2, 0, 0])
        deeper = cz_decompose(f, 2)
        # parent average exactly 2 is not above the height; the leaf is
        assert deeper.intervals == (DyadicInterval(2, 0),)
        assert deeper.good == f
        assert deeper.parts[0][1].is_zero()
        calm = cz_decompose(f, 5)
        assert calm.intervals == () and calm.good == f and calm.parts == ()

    def test_frozen_selection_at_level_one(self):
        f = StepFunction.from_values([4, 2, 0, 0])
        d = cz_decompose(f, 2)
        # <|f|> on [0,1/2) is 3 > 2, selected there; right half untouched
        assert d.intervals == (DyadicInterval(1, 0),)
        assert d.good == StepFunction.from_values([3, 3, 0, 0])
        assert d.parts[0][1] == StepFunction.from_values([1, -1, 0, 0])

    def test_tie_not_selected(self):
        f = StepFunction.from_values([2, 0, 0, 0])
        d = cz_decompose(f, Fraction(1, 2))
        # averages: level1 = (1, 0), level2 leaf = 2. 1 > 1/2 selects (1,0).
        assert d.intervals == (DyadicInterval(1, 0),)
        d2 = cz_decompose(f, 1)
        # the level-1 average exactly equals the height: not selected, recurse
        assert d2.intervals == (DyadicInterval(2, 0),)

    def test_root_exceeds_height(self):
        f = StepFunction.from_values([4, 4, 4, 4])
        with pytest.raises(RootExceedsHeight):
            cz_decompose(f, 2)
        with pytest.raises(ValueError):
            cz_decompose(f, 0)

    @settings(max_examples=40)
    @given(step_functions(3), st.fractions(min_value=1, max_value=4, max_denominator=3))
    def test_invariants(self, f, factor):
        mean = sum(f.abs().values, Exact(0)) / (1 << f.depth)
        height = mean * factor
        if not height > Exact(0):
            height = Exact(factor)
        d = cz_decompose(f, height.as_fraction())
        intervals = d.intervals
        # disjointness
        for a in intervals:
            for b in intervals:
                if a != b:
                    assert not a.contains(b) and not b.contains(a)
        # reconstruction
        assert d.reconstruct() == f
        # good part bounded by 2 * height
        assert all(abs(v) <= 2 * d.height for v in d.good.values)
        # each selected average strictly exceeds the height, parent does not
        from dyadicops.core import average_table

        avgs = average_table(f.abs())
        for i in intervals:
            assert avgs[i.level][i.position] > d.height
            p = i.parent()
            assert avgs[p.level][p.position] <= d.height
        # parts are zero-mean and supported on their intervals
        for i, b in d.parts:
            assert inner_product(b, StepFunction.constant(1, f.depth)) == Exact(0)
            assert b.vanishes_outside(i)
        # good equals f off the selected set
        for leaf in range(1 << f.depth):
            if not any(i.contains_leaf(leaf, f.depth) for i in intervals):
                assert d.good.values[leaf] == f.values[leaf]

    def test_json_round_trip(self):
        f = StepFunction.from_values([4, 2, 0, 0])
        d = cz_decompose(f, 2)
        blob = json.dumps(d.to_json_dict(), indent=2, sort_keys=True)
        back = CZDecomposition.from_json_dict(json.loads(blob))
        assert back.height == d.height
        assert back.good == d.good
        assert back.parts == d.parts

    @pytest.mark.parametrize("key", ["level", "pos"])
    @pytest.mark.parametrize("value", [1.9, "1", True, None])
    def test_json_interval_is_read_strictly(self, key, value):
        obj = cz_decompose(StepFunction.from_values([4, 2, 0, 0]), 2).to_json_dict()
        obj["parts"][0]["interval"][key] = value
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            CZDecomposition.from_json_dict(obj)

    def test_json_part_nonzero_outside_its_interval_is_refused(self):
        # reconstruct() would add the stray value to good and return another f
        obj = cz_decompose(StepFunction.from_values([4, 2, 0, 0]), 2).to_json_dict()
        assert obj["parts"][0]["interval"] == {"level": 1, "pos": 0}
        obj["parts"][0]["b"] = StepFunction.from_values([1, -1, 0, 5]).to_json_dict()
        with pytest.raises(ValueError, match=r"^the part on \(1,0\) is nonzero outside it$"):
            CZDecomposition.from_json_dict(obj)

    @pytest.mark.parametrize("other", [(1, 0), (2, 1), (0, 0)])
    def test_json_parts_that_overlap_are_refused(self, other):
        # the same interval twice, or one holding the other: f's leaves there
        # would be counted twice
        obj = cz_decompose(StepFunction.from_values([4, 2, 0, 0]), 2).to_json_dict()
        level, pos = other
        zero = StepFunction.zeros(2, "rational").to_json_dict()
        obj["parts"].append({"interval": {"level": level, "pos": pos}, "b": zero})
        with pytest.raises(ValueError, match="overlaps another part$"):
            CZDecomposition.from_json_dict(obj)
        # in either order
        obj["parts"].reverse()
        with pytest.raises(ValueError, match="overlaps another part$"):
            CZDecomposition.from_json_dict(obj)

    def test_json_disjoint_parts_are_read(self):
        f = StepFunction.from_values([9, -3, 0, 1, 0, 0, 8, 0])
        d = cz_decompose(f, 3)
        assert d.intervals == (DyadicInterval(1, 0), DyadicInterval(2, 3))
        back = CZDecomposition.from_json_dict(d.to_json_dict())
        assert back.parts == d.parts and back.reconstruct() == f

    @pytest.mark.parametrize(
        "b, message",
        [
            (StepFunction.from_values([1, -1] + [0] * 6), "depth mismatch: 2 vs 3"),
            (StepFunction.from_values([1, -1, 0, 0], "float64"),
             "mode mismatch: rational vs float64"),
        ],
    )
    def test_json_part_of_another_grid_is_refused(self, b, message):
        obj = cz_decompose(StepFunction.from_values([4, 2, 0, 0]), 2).to_json_dict()
        obj["parts"][0]["b"] = b.to_json_dict()
        with pytest.raises(ShapeError) as info:
            CZDecomposition.from_json_dict(obj)
        assert str(info.value) == message
