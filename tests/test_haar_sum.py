"""The one top-down Haar-sum pass against the leaf loops it replaced.

``scalars.haar_sum`` builds the engine's output below the support, the
inverse Haar transform, the squared square function and the
rademacher-haar draws.  Each must equal the per-leaf accumulation kept in
``tests/oracles.py``: ``repr`` for ``repr`` in float64, signed zeros
included, and ``==`` in rational mode.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dyadicops import (
    DyadicInterval,
    Exact,
    ExponentTuple,
    HaarSpectrum,
    OperatorDescriptor,
    SamplerSpec,
    StepFunction,
    square_function_sq,
    synthesize,
)
from dyadicops.paraproducts import _engine
from dyadicops.scalars import FLOAT64, RATIONAL, as_row, haar_sum

from oracles import (
    loop_engine,
    loop_rademacher_haar,
    loop_square_sq,
    loop_synthesize,
)

FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
EXACTS = st.one_of(
    st.just(Exact(0)),
    st.builds(Exact, FRACTIONS, st.sampled_from([Fraction(0), Fraction(1, 2), -1])),
)
MODES = st.sampled_from([FLOAT64, RATIONAL])


def values(mode):
    return FLOATS if mode == FLOAT64 else EXACTS


def same(got, want, mode):
    if mode == FLOAT64:
        return repr(got) == repr(want)
    return got == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_haar_sum_matches_definition(data):
    depth = data.draw(st.integers(0, 4))
    odd = data.draw(st.booleans())
    start = data.draw(FRACTIONS)
    terms = [data.draw(st.lists(FRACTIONS, min_size=1 << k, max_size=1 << k))
             for k in range(depth)]
    got = haar_sum(start, terms, odd)
    assert len(got) == 1 << depth
    for leaf, value in enumerate(got):
        want = start
        for level in range(depth):
            t = terms[level][leaf >> (depth - level)]
            right = (leaf >> (depth - level - 1)) & 1
            want += t if right or not odd else -t
        assert value == want


@settings(max_examples=120, deadline=None)
@given(st.data(), MODES)
def test_engine_matches_leaf_loop(data, mode):
    depth = data.draw(st.integers(1, 5))
    bits = tuple(data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    top = data.draw(st.integers(0, depth))
    support = DyadicInterval(top, data.draw(st.integers(0, (1 << top) - 1)))
    sizes = [1 if level < top else 1 << (level - top) for level in range(depth)]

    def table():
        return [data.draw(st.lists(values(mode), min_size=n, max_size=n))
                for n in sizes]

    tables = [table() for _ in bits]
    symbol = table() if data.draw(st.booleans()) else None
    factors = tables if symbol is None else [*tables, symbol]
    rows = [[as_row(row, mode) for row in t] for t in factors]
    got = _engine(bits.count(0), rows, depth, mode, support)
    want = loop_engine(bits, tables, depth, mode, symbol, support)
    assert same((got.values, got.blocks), (want.values, want.blocks), mode)


def test_zero_terms_keep_a_signed_zero():
    # -0.0 + 0.0 is 0.0: a zero term must be skipped, not added
    assert repr(haar_sum(-0.0, [[0.0], [-0.0, 0.0]], True)) == repr([-0.0] * 4)
    spectrum = HaarSpectrum(2, -0.0, [[0.0], [0.0, 0.5]], FLOAT64)
    got = synthesize(spectrum).values
    assert repr(got) == repr(loop_synthesize(spectrum).values)
    assert repr(got[:2]) == repr((-0.0, -0.0))


@settings(max_examples=60, deadline=None)
@given(st.data(), MODES)
def test_synthesize_matches_leaf_loop(data, mode):
    depth = data.draw(st.integers(1, 5))
    mean = data.draw(values(mode))
    coeffs = [data.draw(st.lists(values(mode), min_size=1 << k, max_size=1 << k))
              for k in range(depth)]
    spectrum = HaarSpectrum(depth, mean, coeffs, mode)
    got = synthesize(spectrum)
    assert same(got.values, loop_synthesize(spectrum).values, mode)


@settings(max_examples=60, deadline=None)
@given(st.data(), MODES)
def test_square_function_sq_matches_leaf_loop(data, mode):
    depth = data.draw(st.integers(1, 5))
    vals = data.draw(st.lists(values(mode), min_size=1 << depth, max_size=1 << depth))
    f = StepFunction(depth, tuple(vals), mode)
    assert same(square_function_sq(f).values, loop_square_sq(f).values, mode)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rademacher_haar_matches_leaf_loop(data):
    depth = data.draw(st.integers(1, 6))
    cap = data.draw(st.one_of(st.none(), st.just(0), st.integers(0, depth - 1)))
    m = data.draw(st.integers(1, 3))
    sampler = SamplerSpec("rademacher-haar", depth, data.draw(st.integers(0, 99)), cap)
    trial = data.draw(st.integers(0, 99))
    descriptor = OperatorDescriptor("paraproduct", (0,) * m)
    got = sampler.draw_tuple(trial, descriptor, ExponentTuple((2,) * m))
    want = loop_rademacher_haar(sampler, trial, m)
    assert repr([f.values for f in got]) == repr([f.values for f in want])
