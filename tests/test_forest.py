"""Forests: several functions of one grid laid side by side.

An experiment measures its random trials a block at a time: the inputs of
the block's trials, slot by slot, form one forest (``core.forest``), which
the tables, the operators and the float64 norms take in one pass.  These
tests hold that pass to the one-function path: each operator's output and
each adjoint on a forest of K functions is the forest of its outputs on
each of them, ``==`` in rational mode and the same bits in float64, and a
forest's norms are its trees' norms, the over- and underflow fallbacks
included.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import (
    UNIVERSE,
    OperatorDescriptor,
    StepFunction,
    SymbolSequence,
    commutator,
    inner_product,
    interval_family,
    lp_norm,
    lp_norm_pow,
    multilinear_multiplier,
    pairing,
    paraproduct,
    pi_paraproduct,
    weak_lp_quasinorm,
    weak_lp_quasinorm_pow,
)
from dyadicops.core import (
    average_table,
    coefficient_table,
    forest,
    power_mean,
    tree,
    tree_count,
)
from dyadicops.errors import ShapeError
from dyadicops.normlab import _weak_lr_quasinorm
from dyadicops.scalars import FLOAT64, RATIONAL

from oracles import random_rationals


def random_function(rng, depth, mode):
    n = 1 << depth
    if mode == RATIONAL:
        return StepFunction.from_values(random_rationals(rng, n, numer=6, denom=4))
    return StepFunction.from_values([rng.uniform(-1.0, 1.0) for _ in range(n)], FLOAT64)


def random_symbol(rng, depth):
    entries = {
        i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for i in interval_family(depth)
        if rng.random() < 0.7
    }
    return SymbolSequence(default=Fraction(rng.randint(-3, 3), 2), entries=entries)


def random_operators(rng, depth, mode):
    """The arity and (name, operator) of the four kinds, with a random
    alpha, slot, b and symbol; the all-ones alpha of the paraproduct (a
    constant) comes up too."""
    m = rng.randint(1, 3)
    bits = tuple(rng.randint(0, 1) for _ in range(m))
    haar_bits = bits if 0 in bits else bits[:-1] + (0,)
    slot = rng.randint(1, m)
    b = random_function(rng, depth, mode)
    eps = random_symbol(rng, depth)
    return m, [
        ("paraproduct", lambda fs: paraproduct(bits, fs)),
        ("pi_paraproduct", lambda fs: pi_paraproduct(bits, b, fs)),
        ("multilinear_multiplier", lambda fs: multilinear_multiplier(eps, haar_bits, fs)),
        ("commutator", lambda fs: commutator(slot, b, eps, haar_bits, fs)),
    ]


def same(got: list, want: list, mode: str) -> bool:
    """== in rational mode; the same bits, signed zeros included, in float64."""
    if mode == RATIONAL:
        return got == want
    return [v.hex() for v in got] == [v.hex() for v in want]


class TestOperatorsOnForests:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_output_is_the_outputs_side_by_side(self, mode, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 6)
        m, operators = random_operators(rng, depth, mode)
        k = rng.randint(1, 5)
        tuples = [[random_function(rng, depth, mode) for _ in range(m)] for _ in range(k)]
        forests = [forest(slot) for slot in zip(*tuples)]
        assert {tree_count(f) for f in forests} == {k}
        for name, op in operators:
            got = op(forests)
            want = [v for fs in tuples for v in op(fs).values]
            assert tree_count(got) == k, name
            assert same(list(got.values), want, mode), name

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_all_ones_paraproduct_sums_each_tree_alone(self, mode):
        # sigma = 0: each tree's output is one constant, its own terms' sum
        rng = random.Random(11)
        for depth in range(1, 7):
            for bits in ((1,), (1, 1), (1, 1, 1)):
                tuples = [
                    [random_function(rng, depth, mode) for _ in bits] for _ in range(4)
                ]
                got = paraproduct(bits, [forest(slot) for slot in zip(*tuples)])
                want = [v for fs in tuples for v in paraproduct(bits, fs).values]
                assert same(list(got.values), want, mode), (depth, bits)

    def test_tables_are_the_trees_tables_side_by_side(self):
        rng = random.Random(5)
        for depth in range(1, 7):
            fs = [random_function(rng, depth, RATIONAL) for _ in range(3)]
            f = forest(fs)
            for table in (average_table, coefficient_table):
                assert table(f) == [
                    [v for row in rows for v in row] for rows in zip(*map(table, fs))
                ]
            assert [tree(f, k) for k in range(3)] == fs

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_restrict_and_vanishes_outside_read_every_tree(self, mode):
        h = StepFunction.from_values([1, -1, 0, 0], mode)
        g = forest([h, h])
        left = interval_family(2)[1]
        assert g.restrict(left) == g and g.vanishes_outside(left)
        rng = random.Random(8)
        for depth in range(1, 5):
            fs = [random_function(rng, depth, mode) for _ in range(3)]
            fs[1] = fs[1].restrict(interval_family(depth)[-1])
            f = forest(fs)
            for interval in interval_family(depth):
                got = f.restrict(interval)
                assert tree_count(got) == 3
                assert got == forest([t.restrict(interval) for t in fs])
                assert got.vanishes_outside(interval)
                want = all(t.vanishes_outside(interval) for t in fs)
                assert f.vanishes_outside(interval) == want

    def test_a_forest_of_one_is_the_function(self):
        f = random_function(random.Random(1), 3, FLOAT64)
        assert forest([f]) is f and tree(f, 0) is f and tree_count(f) == 1

    def test_forests_of_different_sizes_are_refused(self):
        rng = random.Random(2)
        two = forest([random_function(rng, 2, FLOAT64) for _ in range(2)])
        three = forest([random_function(rng, 2, FLOAT64) for _ in range(3)])
        with pytest.raises(ShapeError):
            paraproduct((0, 1), [two, three])


class TestAdjointsOnForests:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_adjoint_is_the_adjoints_side_by_side(self, mode):
        """Each kind's adjoint in each slot, a commutator's for each of its
        slots, with g and the fixed slots forests of K trees: b is tiled
        once per tree, as the commutator itself tiles it."""
        rng = random.Random(f"adjoint:{mode}")
        for k in range(1, 6):
            for _ in range(3):
                depth = rng.randint(1, 4)
                m = rng.randint(1, 3)
                bits = tuple(rng.randint(0, 1) for _ in range(m))
                haar_bits = bits if 0 in bits else bits[:-1] + (0,)
                b = random_function(rng, depth, mode)
                eps = random_symbol(rng, depth)
                descriptors = [
                    OperatorDescriptor("paraproduct", haar_bits),
                    OperatorDescriptor("pi_paraproduct", bits, b=b),
                    OperatorDescriptor("multilinear_multiplier", haar_bits, symbol=eps),
                ] + [
                    OperatorDescriptor("commutator", haar_bits, b=b, symbol=eps, slot=i)
                    for i in range(1, m + 1)
                ]
                tuples = [[random_function(rng, depth, mode) for _ in range(m)]
                          for _ in range(k)]
                gs = [random_function(rng, depth, mode) for _ in range(k)]
                fs, g = [forest(slot) for slot in zip(*tuples)], forest(gs)
                for d in descriptors:
                    for slot in range(1, m + 1):
                        got = d.adjoint(slot, fs, g)
                        want = [
                            v for ts, h in zip(tuples, gs)
                            for v in d.adjoint(slot, ts, h).values
                        ]
                        assert tree_count(got) == k, (d.kind, slot)
                        assert same(list(got.values), want, mode), (d.kind, d.slot, slot)


class TestPointwiseAlgebraOfForests:
    """``+``, ``-``, ``*`` and ``inner_product`` take two functions of as
    many trees, and refuse a one-tree function against a forest; ``pairing``
    refuses a forest."""

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_one_tree_against_a_forest_is_refused(self, mode):
        rng = random.Random(6)
        for depth in range(1, 5):
            b = random_function(rng, depth, mode)
            f = forest([random_function(rng, depth, mode) for _ in range(3)])
            for op in (
                lambda: b * f, lambda: f * b, lambda: f + b, lambda: b + f,
                lambda: f - b, lambda: b - f,
                lambda: inner_product(f, b), lambda: inner_product(b, f),
                # a single query reads one tree
                lambda: pairing(f, UNIVERSE, 0), lambda: pairing(f, UNIVERSE, 1),
            ):
                with pytest.raises(ShapeError, match="forests of"):
                    op()

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_forests_of_as_many_trees_combine_tree_by_tree(self, mode):
        rng = random.Random(7)
        for depth in range(1, 5):
            fs = [random_function(rng, depth, mode) for _ in range(3)]
            gs = [random_function(rng, depth, mode) for _ in range(3)]
            f, g = forest(fs), forest(gs)
            for got, want in (
                (f * g, [x * y for x, y in zip(fs, gs)]),
                (f + g, [x + y for x, y in zip(fs, gs)]),
                (f - g, [x - y for x, y in zip(fs, gs)]),
            ):
                assert got == forest(want)


def scaled_function(rng, depth, scale):
    return StepFunction.from_values(
        [scale * rng.uniform(-1.0, 1.0) for _ in range(1 << depth)], FLOAT64
    )


EXPONENTS = (Fraction(1, 3), Fraction(2, 3), 1, Fraction(3, 2), 2, 3, 4)


class TestNormsOfForests:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_power_means_are_the_trees_power_means(self, seed):
        """Trees of every size from 1e-200 to 1e200, zero trees among them:
        a power or the mean of one tree may overflow or underflow, and each
        tree still gets the bits it gets alone."""
        rng = random.Random(seed)
        depth = rng.randint(1, 6)
        scales = [
            rng.choice((0.0, 1e-200, 1e-20, 1.0, 1e20, 1e200))
            for _ in range(rng.randint(2, 5))
        ]
        trees = [scaled_function(rng, depth, s) for s in scales]
        f = forest(trees)
        for q in EXPONENTS:
            want = [power_mean(t, q) for t in trees]
            assert same(power_mean(f, q), want, FLOAT64), (scales, q)
            weak = [_weak_lr_quasinorm(t, q) for t in trees]
            assert same(_weak_lr_quasinorm(f, q), weak, FLOAT64)
            if q >= 1:
                assert same(lp_norm(f, q), [lp_norm(t, q) for t in trees], FLOAT64)

    def test_one_overflowing_tree_leaves_the_others_their_plain_means(self):
        rng = random.Random(3)
        small = scaled_function(rng, 5, 1.0)
        huge = scaled_function(rng, 5, 1e200)
        for q in (2, 4, Fraction(5, 2)):
            with pytest.raises(OverflowError):
                [abs(v) ** float(q) for v in huge.values]
            got = power_mean(forest([small, huge, small]), q)
            assert same(got, [power_mean(t, q) for t in (small, huge, small)], FLOAT64)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_every_norm_reads_a_forest_tree_by_tree(self, mode):
        """Strong p in {1, 2, 3, inf} and weak p in {1, 2}, exact routes
        included: each tree's value is its value alone."""
        rng = random.Random(f"norms:{mode}")
        for _ in range(20):
            depth = rng.randint(1, 4)
            trees = [random_function(rng, depth, mode) for _ in range(rng.randint(2, 4))]
            f = forest(trees)
            norms = [
                (lp_norm, p) for p in (1, 2, 3, math.inf)
            ] + [
                (lp_norm_pow, p) for p in (1, 2, 3, math.inf)
            ] + [
                (norm, p)
                for norm in (weak_lp_quasinorm, weak_lp_quasinorm_pow) for p in (1, 2)
            ]
            for norm, p in norms:
                want = [norm(t, p) for t in trees]
                assert same(norm(f, p), want, mode), (norm.__name__, p)

    def test_two_trees_are_measured_apart(self):
        f = forest([StepFunction.from_values([1, 2]), StepFunction.from_values([3, -5])])
        assert lp_norm(f, math.inf) == [2, 5]
        assert lp_norm(f, 1) == [Fraction(3, 2), 4]
        assert weak_lp_quasinorm(f, 1) == [1, 3]
        assert weak_lp_quasinorm_pow(f, 1) == [1, 3]
