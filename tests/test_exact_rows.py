"""Rational mode on integer rows against the per-value ``Exact`` path.

The tables (``interval_integrals``, ``average_table``,
``coefficient_table``), the engine and every operator keep each rational
row as ints over one denominator (``scalars.ExactRow``) and build an
``Exact`` only where a value leaves a pass.  Each must equal
``tests/oracles.py``'s per-value path value by value: on inputs with
sqrt(2) parts and with large coprime denominators, on views
(``SupportView.restrict``) and on forests of 2-3 trees, for every kind,
every alpha with m <= 3 (the all-ones paraproduct included) and every
commutator slot.
"""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import (
    DyadicInterval,
    Exact,
    StepFunction,
    SymbolSequence,
    analyze,
    commutator,
    interval_family,
    multilinear_multiplier,
    paraproduct,
    pi_paraproduct,
    synthesize,
)
from dyadicops.cli import SUITES, main
from dyadicops import scalars
from dyadicops.core import (
    SupportView,
    average_table,
    coefficient_table,
    forest,
    interval_integrals,
    tree,
    tree_count,
)
from dyadicops.normlab import random_rational_step
from dyadicops.scalars import RATIONAL, ExactRow, as_row

from oracles import (
    fraction_rational_step,
    value_average_table,
    value_coefficient_table,
    value_commutator,
    value_interval_integrals,
    value_multiplier,
    value_paraproduct,
    value_pi_paraproduct,
)

# primes near 2**31, 2**61 and 10**9: denominators no table shares by luck
LARGE_PRIMES = (2147483647, 2305843009213693951, 1000000007, 998244353, 1000000009)
FLAVOURS = ("small", "root2", "large")


def random_value(rng, flavour):
    """A rational, a value with a sqrt(2) part, or one over a large prime."""
    def part():
        if flavour == "large":
            return Fraction(rng.randint(-10**9, 10**9), rng.choice(LARGE_PRIMES))
        return Fraction(rng.randint(-24, 24), rng.randint(1, 12))
    return Exact(part(), part() if flavour != "small" and rng.random() < 0.7 else 0)


def random_function(rng, depth, flavour, support=None):
    """A rational function, zero outside ``support`` when one is given."""
    vals = [Exact(0)] * (1 << depth)
    span = range(1 << depth) if support is None else support.leaf_span(depth)
    for leaf in span:
        vals[leaf] = random_value(rng, flavour)
    return StepFunction(depth, tuple(vals))


def random_symbol(rng, depth, flavour):
    entries = {
        i: random_value(rng, flavour) for i in interval_family(depth) if rng.random() < 0.8
    }
    return SymbolSequence(default=random_value(rng, flavour), entries=entries)


def alphas(m):
    return [bits for bits in product((0, 1), repeat=m)]


def assert_same_output(got, want):
    assert type(got) is type(want)
    assert got.support == want.support
    assert list(got.values) == list(want.values)
    assert list(got.blocks) == list(want.blocks)


def draw_case(seed):
    """(rng, depth, flavour, support, trees) of one case: a view in a third
    of the cases, a forest of 2-3 trees in another third."""
    rng = random.Random(seed)
    depth = rng.randint(1, 7)
    flavour = rng.choice(FLAVOURS)
    shape = rng.choice(("full", "view", "forest"))
    support = None
    if shape == "view":
        level = rng.randint(1, depth)
        support = DyadicInterval(level, rng.randrange(1 << level))
    trees = rng.randint(2, 3) if shape == "forest" else 1
    return rng, depth, flavour, support, trees


def inputs(rng, depth, flavour, support, trees, m):
    """m inputs: StepFunctions, views of ``support`` or forests."""
    if trees > 1:
        return [
            forest([random_function(rng, depth, flavour) for _ in range(trees)])
            for _ in range(m)
        ]
    fs = [random_function(rng, depth, flavour, support) for _ in range(m)]
    return fs if support is None else [SupportView.restrict(f, support) for f in fs]


class TestTables:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_tables_equal_the_per_value_tables(self, seed):
        rng, depth, flavour, support, trees = draw_case(seed)
        (f,) = inputs(rng, depth, flavour, support, trees, 1)
        for rows, values in (
            (interval_integrals(f), value_interval_integrals(f)),
            (average_table(f), value_average_table(f)),
            (coefficient_table(f), value_coefficient_table(f)),
        ):
            assert all(type(row) is ExactRow for row in rows)
            assert rows == values
            # the readers outside the passes: an entry, an iteration
            for row, want in zip(rows, values):
                assert [row[k] for k in range(len(row))] == want
                assert all(type(v) is Exact for v in row)

    def test_a_row_reads_like_a_sequence(self):
        row = ExactRow([1, 0, -6], [0, 2, 0], 4)
        quarter, half = Fraction(1, 4), Fraction(1, 2)
        assert list(row) == [Exact(quarter), Exact(0, half), Exact(Fraction(-3, 2))]
        assert row[1:] == [Exact(0, half), Exact(Fraction(-3, 2))]
        assert len(row * 2) == 6 and list(row * 2) == list(row) * 2
        assert row == as_row(list(row), RATIONAL)
        # a row of rational values over one denominator keeps no sqrt(2) part
        assert as_row([Exact(Fraction(1, 3)), Exact(2)], RATIONAL).B is None


class TestOperators:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_every_operator_equals_the_per_value_path(self, seed):
        rng, depth, flavour, support, trees = draw_case(seed)
        m = rng.randint(1, 3)
        fs = inputs(rng, depth, flavour, support, trees, m)
        b = random_function(rng, depth, flavour)
        eps = random_symbol(rng, depth, flavour)
        for bits in alphas(m):
            assert_same_output(paraproduct(bits, fs), value_paraproduct(bits, fs))
            assert_same_output(pi_paraproduct(bits, b, fs), value_pi_paraproduct(bits, b, fs))
            if 0 not in bits:
                continue
            assert_same_output(
                multilinear_multiplier(eps, bits, fs), value_multiplier(eps, bits, fs)
            )
            for slot in range(1, m + 1):
                assert_same_output(
                    commutator(slot, b, eps, bits, fs),
                    value_commutator(slot, b, eps, bits, fs),
                )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_synthesis_inverts_analysis(self, seed):
        rng = random.Random(seed)
        f = random_function(rng, rng.randint(1, 7), rng.choice(FLAVOURS))
        assert synthesize(analyze(f)) == f


def distinct_primes(count):
    """The first ``count`` primes."""
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def test_denominators_grow_without_loss():
    """A depth-9 multiplier and a pi paraproduct whose leaves have 1,024
    distinct prime denominators, so every row's common denominator is
    large (thousands of bits in the outputs): each equals the per-value
    path."""
    depth = 9
    n = 1 << depth
    primes = distinct_primes(2 * n)
    rng = random.Random(9)

    def function(ps):
        return StepFunction(depth, tuple(Fraction(rng.randint(-50, 50), p) for p in ps))

    f, g = function(primes[:n]), function(primes[n:])
    eps = random_symbol(rng, depth, "small")
    got = multilinear_multiplier(eps, (0, 1), [f, g])
    assert_same_output(got, value_multiplier(eps, (0, 1), [f, g]))
    assert max(v.D for v in got.values).bit_length() > 1000
    assert_same_output(pi_paraproduct((0,), f, [g]), value_pi_paraproduct((0,), f, [g]))


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_holds_at_depth_8(suite, m, capsys):
    """Past the property tests' depth 7, where the rows' denominators are
    largest, every verify suite still finds no failure."""
    argv = ["verify", suite, "--m", str(m), "--depth", "8", "--trials", "1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0


# -- the storage of a rational function ------------------------------------------


def assert_stored(f, want):
    """f's leaves are one ExactRow equal to ``want``, the per-value path,
    and ``==``, ``hash`` and ``repr`` read it as the tuple of its values."""
    row, want = f.values, tuple(want)
    assert type(row) is ExactRow and all(type(v) is Exact for v in row)
    assert row == want and list(row) == list(want) and len(row) == len(want)
    assert hash(row) == hash(want) and repr(row) == repr(want)
    if isinstance(f, StepFunction):
        if tree_count(f) == 1:
            assert f == StepFunction(f.depth, want)
        assert hash(f) == hash((f.depth, want, RATIONAL))
        assert repr(f) == f"StepFunction(depth={f.depth}, values={want!r}, mode='rational')"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_every_rational_function_holds_one_row(seed):
    rng = random.Random(seed)
    depth = rng.randint(1, 6)
    flavour = rng.choice(FLAVOURS)
    vals = [random_value(rng, flavour) for _ in range(1 << depth)]
    f = StepFunction(depth, tuple(vals))
    assert_stored(f, vals)
    assert_stored(StepFunction.from_json_dict(f.to_json_dict()), vals)
    g = random_function(rng, depth, flavour)
    assert_stored(f + g, [x + y for x, y in zip(f.values, g.values)])
    assert_stored(f - g, [x - y for x, y in zip(f.values, g.values)])
    assert_stored(f * g, [x * y for x, y in zip(f.values, g.values)])
    s = random_value(rng, flavour)
    assert_stored(f.scale(s), [s * v for v in vals])
    assert_stored(f.abs(), [abs(v) for v in vals])
    assert_stored(-f, [-v for v in vals])
    level = rng.randint(0, depth)
    interval = DyadicInterval(level, rng.randrange(1 << level))
    span = interval.leaf_span(depth)
    inside = [v if leaf in span else Exact(0) for leaf, v in enumerate(vals)]
    assert_stored(f.restrict(interval), inside)
    view = SupportView.restrict(f.restrict(interval), interval)
    assert_stored(view, vals[span.start:span.stop])
    assert_stored(view.expand(), inside)
    assert_stored(forest([f, g]), [*vals, *g.values])
    assert_stored(tree(forest([f, g]), 1), list(g.values))
    bits = tuple(rng.randint(0, 1) for _ in range(2))
    out, want = paraproduct(bits, [f, g]), value_paraproduct(bits, [f, g])
    assert_stored(out, want.values)
    assert_stored(synthesize(analyze(f)), vals)


def test_a_drawn_function_holds_one_row():
    for seed in range(5):
        for depth in (1, 4, 9):
            got = random_rational_step(random.Random(seed), depth)
            want = fraction_rational_step(random.Random(seed), depth)
            assert_stored(got, want.values)


def test_a_function_read_from_json_keeps_the_decoded_values(monkeypatch):
    decoded = []

    def decode(obj, mode, real=scalars.decode_value):
        decoded.append(real(obj, mode))
        return decoded[-1]

    monkeypatch.setattr(scalars, "decode_value", decode)
    f = StepFunction.from_json_dict(
        {"depth": 2, "mode": "rational", "values": ["1/3", ["1", "-2/5"], "7", "-1/6"]}
    )
    assert len(decoded) == 4 and all(v is w for v, w in zip(f.values, decoded))
    # a slice keeps them too: a view, a restriction or a tree reads them
    view = SupportView.restrict(f.restrict(DyadicInterval(1, 1)), DyadicInterval(1, 1))
    assert all(v is w for v, w in zip(view.values, decoded[2:]))


def test_large_denominators_survive_storage():
    """PR 23's depth-9 leaves over 1,024 distinct primes: a JSON round
    trip, the expansion of a view and ``restrict`` keep every value."""
    depth = 9
    n = 1 << depth
    primes = distinct_primes(2 * n)
    rng = random.Random(9)
    for ps in (primes[:n], primes[n:]):
        fractions = [Fraction(rng.randint(-50, 50) or 1, p) for p in ps]
        f = StepFunction(depth, tuple(fractions))
        assert f.values.D.bit_length() > 1000
        assert_stored(f, map(Exact, fractions))
        assert_stored(StepFunction.from_json_dict(f.to_json_dict()), f.values)
        for interval in (DyadicInterval(1, 1), DyadicInterval(5, 17), DyadicInterval(9, 300)):
            span = interval.leaf_span(depth)
            want = [v if leaf in span else Exact(0) for leaf, v in enumerate(f.values)]
            assert_stored(f.restrict(interval), want)
            view = SupportView.restrict(f.restrict(interval), interval)
            assert_stored(view.expand(), want)
            assert [v.as_fraction() for v in view.values] == fractions[span.start:span.stop]
