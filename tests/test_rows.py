"""One row pass for both modes.

The tables, the engine, synthesis, the square function and the identity
residuals build every row through the row functions of ``scalars``, which
take a float64 row (the floats themselves) or a rational one (an
``ExactRow``).  A float64 row function rounds as a loop over its entries
does: a signed zero stays signed, and a sum folds left to right from 0.0,
not with the builtin ``sum``, which compensates from CPython 3.12 on.  On
dyadic rationals, where float64 arithmetic is exact, each function gives
``float`` of its rational result.  No pass compares a mode or names the
rational row type: ``scalars`` alone knows how a row is stored.
"""

import ast
import inspect
import math
import random
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import StepFunction, core, interval_family, multipliers, paraproducts, sublinear
from dyadicops.core import SupportView
from dyadicops.multipliers import SymbolSequence
from dyadicops.scalars import (
    FLOAT64,
    RATIONAL,
    Exact,
    as_row,
    column,
    row_difference,
    row_haar_sum,
    row_pair_differences,
    row_pair_sums,
    row_product,
    row_root2_scaled,
    row_running_totals,
    row_sum,
    row_total,
    signed_root2_powers,
)

from oracles import loop_engine


def same(got, want):
    """Float lists equal repr for repr, signed zeros included."""
    return repr([float(v) for v in got]) == repr([float(v) for v in want])


class TestSignedZeros:
    def test_a_negative_zero_stays_negative(self):
        z = [-0.0]
        assert same(row_product(z, [1.0]), z)
        for k in (0, 1, 2, -3):
            assert same(row_root2_scaled(z, k), z)
        assert same(row_pair_sums([-0.0, -0.0]), z)
        assert same(row_pair_differences([0.0, -0.0]), z)
        assert same(column([[1.0], z], [0, 0]), [1.0, -0.0])
        assert same(row_sum([z, z, z]), z)
        assert same(row_difference(z, [0.0]), z)
        assert same(row_haar_sum(-0.0, [[0.0], [-0.0, 0.0]], True), [-0.0] * 4)

    def test_a_sum_starts_from_positive_zero(self):
        # as a loop that starts from 0.0 does: 0.0 + -0.0 is 0.0
        assert same([row_total([-0.0, -0.0])], [0.0])
        assert same(row_running_totals([-0.0]), [0.0, 0.0])


class TestFloatSums:
    TERMS = [1e16, 1.0, -1e16]

    def test_a_sum_folds_left_to_right(self):
        # 1e16 + 1.0 rounds to 1e16; a compensated sum would give 1.0
        assert math.fsum(self.TERMS) == 1.0
        assert row_total(self.TERMS) == 0.0
        assert row_running_totals(self.TERMS) == [0.0, 1e16, 1e16, 0.0]
        assert row_sum([[t] for t in self.TERMS]) == [0.0]

    def test_the_inner_product_folds_its_leaf_products(self):
        f = StepFunction.from_values([*self.TERMS, 0.0], FLOAT64)
        g = StepFunction.from_values([1.0] * 4, FLOAT64)
        assert core.inner_product(f, g) == 0.0


def dyadic(rng):
    """A dyadic rational small enough that float64 sums and products of a
    few of them are exact."""
    return Fraction(rng.randint(-2**10, 2**10), 2 ** rng.randint(0, 10))


def rows_of(values):
    """The same values as a rational row and as a float64 row."""
    return as_row([Exact(v) for v in values], RATIONAL), as_row(list(map(float, values)), FLOAT64)


def agrees(got_rational, got_float):
    """The float64 result is ``float`` of the rational one, entry for entry
    (a rational zero has no sign)."""
    if isinstance(got_rational, Exact):
        return float(got_rational) == got_float
    want = [float(v) for v in got_rational]
    return list(got_float) == want and all(type(v) is float for v in got_float)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_each_row_function_is_float_of_its_rational_result(seed):
    rng = random.Random(seed)
    n = 4 * rng.randint(1, 4)
    (xr, xf), (yr, yf), (zr, zf) = (rows_of([dyadic(rng) for _ in range(n)]) for _ in range(3))
    k = 2 * rng.randint(-4, 4)  # an even k scales by a power of two
    ks, signs = [2 * rng.randint(0, 4) for _ in range(n)], [rng.choice((-1, 1)) for _ in range(n)]
    picks = [rng.randrange(n) for _ in range(3)]
    cases = [
        (row_product(xr, yr), row_product(xf, yf)),
        (row_root2_scaled(xr, k), row_root2_scaled(xf, k)),
        (signed_root2_powers(ks, signs, RATIONAL), signed_root2_powers(ks, signs, FLOAT64)),
        (row_pair_sums(xr), row_pair_sums(xf)),
        (row_pair_differences(xr), row_pair_differences(xf)),
        (column([xr, yr, zr], picks), column([xf, yf, zf], picks)),
        (row_sum([xr, yr, zr]), row_sum([xf, yf, zf])),
        (row_difference(xr, yr), row_difference(xf, yf)),
        (row_total(xr), row_total(xf)),
        (row_running_totals(xr), row_running_totals(xf)),
    ]
    start, odd = dyadic(rng), rng.random() < 0.5
    cases.append((
        row_haar_sum(Exact(start), [xr[:1], yr[:2], zr[:4]], odd),
        row_haar_sum(float(start), [xf[:1], yf[:2], zf[:4]], odd),
    ))
    for got_rational, got_float in cases:
        assert agrees(got_rational, got_float)


@pytest.mark.parametrize("mode", [FLOAT64, RATIONAL])
@pytest.mark.parametrize("bits", [(0,), (0, 1), (1, 0), (0, 0), (0, 1, 1), (1, 1)])
def test_a_slot_that_vanishes_at_the_ancestors_adds_no_ancestor_terms(mode, bits):
    """h_I has no coefficient or average at the ancestors of I, so the
    engine skips their terms; the output is still the leaf loop's, bit for
    bit in float64, and equal in rational mode.  An all-ones alpha has no
    h_I slot, so the ancestors' terms are summed."""
    depth = 4
    for interval in interval_family(depth)[1:]:
        fs = [
            (SupportView.haar if bit == 0 else SupportView.indicator)(interval, interval, depth, mode)
            for bit in bits
        ]
        tables = [
            (core.coefficient_table if bit == 0 else core.average_table)(f)
            for bit, f in zip(bits, fs)
        ]
        got = paraproducts._engine(bits.count(0), tables, depth, mode, interval)
        want = loop_engine(bits, tables, depth, mode, None, interval)
        assert repr((got.values, got.blocks)) == repr((want.values, want.blocks))


# every pass that exists once for both modes, with the helpers that
# ``_engine`` is split into, and the BMO1 search, whose one mode rule is
# ``scalars.jensen_floor``
ONE_PASS = [
    core.interval_integrals,
    core.average_table,
    core.coefficient_table,
    core.synthesize,
    core.HaarSpectrum._raw,
    core.inner_product,
    StepFunction._leafwise,
    paraproducts._engine,
    paraproducts._row_pass,
    paraproducts._ancestor_terms,
    paraproducts.product_decomposition_residual,
    paraproducts.localized_average_residual,
    SymbolSequence.table,
    multipliers.commutator,
    sublinear._square_terms,
    sublinear.square_function_sq,
    sublinear._bmo1_search,
    sublinear._mean_oscillation,
]

# what a fork on the mode would read: the mode names and their texts, and
# the rational scalar and row types
MODE_NAMES = {"RATIONAL", "FLOAT64", "MODES", "Exact", "ExactRow"}
MODE_TEXTS = {"rational", "float64"}


@pytest.mark.parametrize("fn", ONE_PASS, ids=lambda fn: fn.__qualname__)
def test_no_pass_forks_on_the_mode(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    named = [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    texts = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in MODE_TEXTS
    ]
    assert not MODE_NAMES.intersection(named) and not texts


# the names of the rational row type and of the leaf storage rule that
# ``scalars.as_row`` replaced
STORAGE_NAMES = {"ExactRow", "leaf_row"}
PACKAGE = Path(core.__file__).parent


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "scalars.py"),
    ids=lambda p: p.stem,
)
def test_only_scalars_knows_how_a_row_is_stored(path):
    """Every other module makes its rows with ``scalars.as_row`` and the
    row functions, so none names the row type, as a name, an attribute
    or an import."""
    tree = ast.parse(path.read_text())
    named = {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    assert not STORAGE_NAMES.intersection(named)
