"""The support-aware evaluation of sharp tuples against the dense path.

Every input of a sharp tuple vanishes outside one dyadic interval, so the
harness builds and evaluates it on that interval (``SupportView``) instead
of the full grid.  These tests hold that path to the dense one: exactly (``==``) in
rational mode, and within 1e-12 relative for the float64 ratios that the
experiment reports, against the dense ``measure(extremal_tuple(...))`` in
``tests/oracles.py``.  The experiment runs only the sharp jobs whose closed
forms rank at the top; its report must equal (``==``) the full sweep's, the
first largest of every interval's ``sharp_ratio``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import (
    AlphaVector,
    DyadicInterval,
    ExponentTuple,
    OperatorDescriptor,
    SamplerSpec,
    StepFunction,
    SymbolSequence,
    UNIVERSE,
    analyze,
    bmo2_via_haar_sq,
    bmo_norm_pow,
    bstar_seminorm,
    commutator,
    estimate_operator_norm,
    extremal_tuple,
    inner_product,
    interval_family,
    lp_norm,
    lp_norm_pow,
    maximal,
    multilinear_multiplier,
    pairing,
    paraproduct,
    pi_paraproduct,
    sharp_ratio,
    square_function_sq,
    weak_lp_quasinorm,
    weak_type_ratio,
)
from dyadicops.core import (
    SupportView,
    average_table,
    coefficient_table,
    interval_integrals,
    power_mean,
    support_layout,
)
from dyadicops.errors import ResolutionError, ShapeError
from dyadicops.normlab import KINDS
from dyadicops.paraproducts import _engine, _slot_tables
from dyadicops.scalars import FLOAT64, RATIONAL, as_row

from oracles import dense_sharp_ratio, naive_haar, naive_indicator, random_rationals

REL_TOL = 1e-12
EXPONENTS = (1, Fraction(3, 2), 2, 3)
# b of the sharp experiments: uniform, integer-valued (many ties), constant
# (every closed form is 0) and offset (1e8 + uniform(-1e-3, 1e-3))
B_KINDS = ("uniform", "integer", "constant", "offset")


def float_function(rng, depth, kind="uniform"):
    n = 1 << depth
    if kind == "integer":
        vals = [float(rng.randint(-2, 2)) for _ in range(n)]
    elif kind == "constant":
        vals = [rng.uniform(-1.0, 1.0)] * n
    elif kind == "offset":
        vals = [1e8 + rng.uniform(-1e-3, 1e-3) for _ in range(n)]
    else:
        vals = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    return StepFunction(depth, tuple(vals), FLOAT64)


def random_symbol(rng, depth):
    entries = {
        i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for i in interval_family(depth)
        if rng.random() < 0.7
    }
    return SymbolSequence(default=Fraction(rng.randint(-3, 3), 2), entries=entries)


def make_descriptor(kind, bits, slot, rng, depth, b_kind="uniform"):
    alpha = AlphaVector(bits)
    if kind == "paraproduct":
        return OperatorDescriptor(kind, alpha)
    if kind == "pi_paraproduct":
        return OperatorDescriptor(kind, alpha, b=float_function(rng, depth, b_kind))
    if kind == "multilinear_multiplier":
        return OperatorDescriptor(kind, alpha, symbol=random_symbol(rng, depth))
    return OperatorDescriptor(
        kind, alpha, b=float_function(rng, depth, b_kind),
        symbol=random_symbol(rng, depth), slot=slot,
    )


def assert_matches_dense(desc, exps, depth, weak, seed):
    """Each interval's sharp ratio against the dense oracle, and the report,
    which runs only the jobs whose closed forms rank near the top, against
    the full sweep: the first largest of those ratios."""
    runner = weak_type_ratio if weak else estimate_operator_norm
    report = runner(desc, exps, SamplerSpec("random-step", depth, seed=seed), trials=1)
    intervals = interval_family(depth)
    ratios = []
    for interval in intervals:
        want = dense_sharp_ratio(desc, exps, interval, depth, weak)
        ratio = sharp_ratio(desc, exps, interval, depth, weak)
        if want is None:
            assert ratio is None, (interval, ratio)
        else:
            assert ratio == pytest.approx(want, rel=REL_TOL, abs=1e-300), interval
        ratios.append(ratio)
    got = dict(report.trial_ratios)
    for k, ratio in enumerate(ratios):
        # every evaluated job gives its sharp ratio; a job with no tuple is
        # listed, as None
        if ratio is None or 1 + k in got:
            assert got[1 + k] == ratio, intervals[k]
    assert report.skipped_jobs == sum(r is None for r in got.values())
    found = [k for k, ratio in enumerate(ratios) if ratio is not None]
    if found:
        best = max(found, key=lambda k: (ratios[k], -k))
        assert report.extremal_lower_bound == ratios[best]
        assert report.extremal_interval == intervals[best]
        assert report.best_ratio >= report.extremal_lower_bound
    else:
        assert report.extremal_lower_bound is None
        assert report.extremal_interval is None


@st.composite
def sharp_experiments(draw):
    depth = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(KINDS))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    if kind in ("multilinear_multiplier", "commutator") and 0 not in bits:
        bits = bits[:-1] + (0,)
    slot = draw(st.integers(1, m))
    ps = draw(st.lists(st.sampled_from(EXPONENTS), min_size=m, max_size=m))
    weak = draw(st.booleans())
    if weak and 1 not in ps:
        ps[draw(st.integers(0, m - 1))] = 1
    b_kind = draw(st.sampled_from(B_KINDS))
    seed = draw(st.integers(0, 10_000))
    desc = make_descriptor(kind, bits, slot, random.Random(seed), depth, b_kind)
    return desc, ExponentTuple(tuple(ps)), depth, weak, seed


class TestSharpRatios:
    @settings(max_examples=80, deadline=None)
    @given(sharp_experiments())
    def test_support_path_matches_dense_oracle(self, case):
        assert_matches_dense(*case)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("weak", [False, True])
    def test_every_alpha_and_slot(self, kind, weak):
        """Every alpha with m <= 3 and every commutator slot, so case I and
        case II both run, at depths 1, 3 and 5, b taking each of B_KINDS in
        turn; drawn p, then every p = 1, so that r = 1/m."""
        rng = random.Random(f"{kind}:{weak}")
        b_kinds = itertools.cycle(B_KINDS)
        for ones, depth, m in itertools.product((False, True), (1, 3, 5), (1, 2, 3)):
            for code in range(1 << m):
                bits = tuple((code >> j) & 1 for j in range(m))
                if kind in ("multilinear_multiplier", "commutator") and 0 not in bits:
                    continue
                slots = range(1, m + 1) if kind == "commutator" else [None]
                for slot in slots:
                    desc = make_descriptor(kind, bits, slot, rng, depth, next(b_kinds))
                    ps = [1 if ones else rng.choice(EXPONENTS) for _ in range(m)]
                    if weak:
                        ps[0] = 1
                    assert_matches_dense(desc, ExponentTuple(tuple(ps)), depth, weak, 0)

    def test_support_is_the_parent_for_case_one(self):
        b = StepFunction.from_values([1.0, 0.0, 2.0, 0.5, 0.0, 1.0, 3.0, 2.0], mode=FLOAT64)
        eps = SymbolSequence.constant(1)
        exps = ExponentTuple((2, 2))
        one = OperatorDescriptor("commutator", (0, 1), b=b, symbol=eps, slot=1)
        two = OperatorDescriptor("commutator", (0, 1), b=b, symbol=eps, slot=2)
        i = DyadicInterval(2, 3)
        for desc, support in (
            (one, DyadicInterval(1, 1)),
            (two, i),
            (OperatorDescriptor("paraproduct", (0, 1)), i),
            (OperatorDescriptor("pi_paraproduct", (0, 1), b=b), i),
        ):
            views = extremal_tuple(desc, exps, i, 3)
            assert {v.support for v in views} == {support}
            assert len(views[0].values) == len(support.leaf_span(3))

    @pytest.mark.parametrize("kind", KINDS)
    def test_views_expand_to_the_full_grid_family(self, kind):
        """The sharp inputs, built on their support, are the functions that
        the full-grid constructors give."""
        rng = random.Random(kind)
        depth = 4
        for bits in ((0,), (1, 0), (0, 0, 1), (0, 1, 1)):
            for slot in range(1, len(bits) + 1):
                desc = make_descriptor(kind, bits, slot, rng, depth)
                exps = ExponentTuple(tuple(rng.choice(EXPONENTS) for _ in bits))
                for i in interval_family(depth):
                    views = extremal_tuple(desc, exps, i, depth)
                    want = reference_family(desc, exps, i, depth)
                    if want is None:
                        assert views is None
                        continue
                    assert [v.expand().values for v in views] == want


def reference_family(desc, exps, interval, depth):
    """The leaf values of the sharp tuple, written leaf by leaf from the
    definitions in ``tests/oracles.py``; None where the job is skipped."""
    leaves = range(1 << depth)

    def haar(i, scale=1.0):
        return tuple(naive_haar(i, leaf, depth, FLOAT64) * scale for leaf in leaves)

    def ind(i, scale=1.0):
        return tuple(naive_indicator(i, leaf, depth, FLOAT64) * scale for leaf in leaves)

    bits = desc.alpha.bits
    if desc.kind == "pi_paraproduct":
        level = interval.level
        return [
            haar(interval, 2.0 ** float(-level * (Fraction(1, 2) - 1 / p)))
            if bit == 0
            else ind(interval, 2.0 ** float(Fraction(level) / p))
            for bit, p in zip(bits, exps.p)
        ]
    if desc.kind == "commutator" and bits[desc.slot - 1] == 0 and bits.count(0) == 1:
        if interval.level == 0 or len(bits) < 2:
            return None
        out = [haar(interval.parent())] * len(bits)
        out[desc.slot - 1] = ind(interval)
        return out
    return [haar(interval) if bit == 0 else ind(interval) for bit in bits]


def vanishing_outside(rng, support, depth):
    """A rational function with random values on support, zero elsewhere."""
    vals = [Fraction(0)] * (1 << depth)
    span = support.leaf_span(depth)
    vals[span.start:span.stop] = random_rationals(rng, len(span), numer=6, denom=4)
    return StepFunction.from_values(vals)


def random_support(rng, depth):
    level = rng.randint(0, depth)
    return DyadicInterval(level, rng.randrange(1 << level))


class TestExactOnSupport:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_engine_on_support_equals_dense(self, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 4)
        m = rng.randint(1, 3)
        bits = tuple(rng.randint(0, 1) for _ in range(m))
        support = random_support(rng, depth)
        fs = [vanishing_outside(rng, support, depth) for _ in range(m)]
        symbol = random_symbol(rng, depth).table(depth, RATIONAL) if rng.random() < 0.5 else None
        extra = [] if symbol is None else [[as_row(row, RATIONAL) for row in symbol]]
        dense = _engine(bits.count(0), _slot_tables(bits, fs) + extra, depth, RATIONAL)
        views = [SupportView.restrict(f, support) for f in fs]
        local = _engine(
            bits.count(0),
            _slot_tables(bits, views) + [support_layout(t, support) for t in extra],
            depth,
            RATIONAL,
            support,
        )
        assert len(local.values) == len(support.leaf_span(depth))
        assert len(local.blocks) == support.level
        assert local.expand() == dense.expand()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_float_engine_on_support_is_bit_identical(self, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 6)
        m = rng.randint(1, 3)
        bits = tuple(rng.randint(0, 1) for _ in range(m))
        support = random_support(rng, depth)
        span = support.leaf_span(depth)
        fs = []
        for _ in range(m):
            vals = [0.0] * (1 << depth)
            vals[span.start:span.stop] = [rng.uniform(-1.0, 1.0) for _ in span]
            fs.append(StepFunction(depth, tuple(vals), FLOAT64))
        symbol = random_symbol(rng, depth).table(depth, FLOAT64)
        dense = _engine(bits.count(0), [*_slot_tables(bits, fs), symbol], depth, FLOAT64)
        views = [SupportView.restrict(f, support) for f in fs]
        local = _engine(
            bits.count(0), [*_slot_tables(bits, views), support_layout(symbol, support)],
            depth, FLOAT64, support,
        )
        assert local.expand().values == dense.expand().values

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_tables_of_a_view_are_the_full_tables_cut_down(self, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 5)
        support = random_support(rng, depth)
        f = vanishing_outside(rng, support, depth)
        view = SupportView.restrict(f, support)
        for table in (interval_integrals, average_table, coefficient_table):
            assert table(view) == support_layout(table(f), support)
        assert view.expand() == f

    def test_tables_refuse_a_view_that_does_not_vanish_off_support(self):
        view = SupportView(2, DyadicInterval(1, 0), (1.0, 2.0), (3.0,), FLOAT64)
        with pytest.raises(ValueError):
            coefficient_table(view)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_commutator_on_support_equals_dense(self, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 4)
        m = rng.randint(1, 3)
        bits = tuple(rng.randint(0, 1) for _ in range(m))
        if 0 not in bits:
            bits = bits[:-1] + (0,)
        slot = rng.randint(1, m)
        support = random_support(rng, depth)
        b = StepFunction.from_values(random_rationals(rng, 1 << depth, numer=6, denom=4))
        eps = random_symbol(rng, depth)
        fs = [vanishing_outside(rng, support, depth) for _ in range(m)]
        views = [SupportView.restrict(f, support) for f in fs]
        local = commutator(slot, b, eps, bits, views)
        assert local.support == support
        assert local.expand() == commutator(slot, b, eps, bits, fs)

    def test_commutator_expands_blocks_where_t_is_nonzero(self):
        # inputs with nonzero mean on the support give T a nonzero constant
        # on every block, so b * T(fs) varies there leaf by leaf
        depth = 3
        support = DyadicInterval(2, 1)
        rng = random.Random(4)
        b = StepFunction.from_values(random_rationals(rng, 1 << depth))
        eps = SymbolSequence.constant(1)
        f = StepFunction.from_values([0, 0, 1, 3, 0, 0, 0, 0])
        g = StepFunction.from_values([0, 0, 2, 1, 0, 0, 0, 0])
        views = [SupportView.restrict(h, support) for h in (f, g)]
        local = commutator(2, b, eps, (0, 1), views)
        assert any(type(block) is tuple for block in local.blocks)
        assert local.expand() == commutator(2, b, eps, (0, 1), [f, g])


class TestOperatorsOnViews:
    """Each operator takes StepFunctions or SupportViews of one support;
    views give the output seen from the support."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_every_operator_on_views_equals_dense(self, seed):
        rng = random.Random(seed)
        depth = rng.randint(1, 4)
        m = rng.randint(1, 3)
        bits = tuple(rng.randint(0, 1) for _ in range(m))
        support = random_support(rng, depth)
        fs = [vanishing_outside(rng, support, depth) for _ in range(m)]
        views = [SupportView.restrict(f, support) for f in fs]
        b = StepFunction.from_values(random_rationals(rng, 1 << depth, numer=6, denom=4))
        ops = [
            lambda gs: paraproduct(bits, gs),
            lambda gs: pi_paraproduct(bits, b, gs),
        ]
        if 0 in bits:
            eps = random_symbol(rng, depth)
            ops.append(lambda gs: multilinear_multiplier(eps, bits, gs))
        for op in ops:
            local = op(views)
            assert local.support == support
            assert local.expand() == op(fs)

    def test_inputs_must_share_one_support(self):
        f = StepFunction.from_values([0, 0, 1, 2])
        left = SupportView.restrict(StepFunction.from_values([1, 2, 0, 0]), DyadicInterval(1, 0))
        right = SupportView.restrict(f, DyadicInterval(1, 1))
        with pytest.raises(ShapeError):
            paraproduct((0, 1), [left, right])
        with pytest.raises(ShapeError):
            paraproduct((0, 1), [right, f])
        # a StepFunction is the view of the universe, so it mixes with one
        universe = SupportView(2, UNIVERSE, f.values, (), f.mode)
        out = paraproduct((0, 1), [universe, f])
        assert type(out) is StepFunction and out == paraproduct((0, 1), [f, f])


def rational_sharp_outputs(depth, rng):
    """(name, output) for every operator kind on its rational sharp family
    at every interval that supports it: views with blocks, StepFunctions on
    the universe."""
    b = StepFunction.from_values(random_rationals(rng, 1 << depth, numer=6, denom=4))
    eps = random_symbol(rng, depth)
    exps = ExponentTuple((1, 2, 2))
    for bits in ((0,), (0, 1), (1, 0), (0, 0, 1)):
        m = len(bits)
        ps = ExponentTuple(exps.p[:m])
        para = OperatorDescriptor("paraproduct", bits)
        pi = OperatorDescriptor("pi_paraproduct", bits, b=b)
        comms = [
            OperatorDescriptor("commutator", bits, b=b, symbol=eps, slot=slot)
            for slot in range(1, m + 1)
        ]
        for i in interval_family(depth):
            fam = extremal_tuple(para, ps, i, depth, RATIONAL)
            yield "paraproduct", paraproduct(bits, fam)
            yield "multiplier", multilinear_multiplier(eps, bits, fam)
            pi_fam = extremal_tuple(pi, ps, i, depth, RATIONAL)
            yield "pi_paraproduct", pi_paraproduct(bits, b, pi_fam)
            for comm in comms:
                fs = extremal_tuple(comm, ps, i, depth, RATIONAL)
                if fs is not None:
                    yield "commutator", commutator(comm.slot, b, eps, bits, fs)


class TestFunctionsOfViews:
    """Norms, pairings, transforms and the sublinear functions read a view,
    blocks included, as the function it expands to."""

    def test_every_function_of_an_operator_output_equals_its_expansion(self):
        depth = 3
        b = StepFunction.from_values(random_rationals(random.Random(1), 1 << depth))
        seen_kinds = set()
        for name, out in rational_sharp_outputs(depth, random.Random(0)):
            full = out.expand()
            if out.support != UNIVERSE:
                seen_kinds.add(name)
            for p in (1, 2, 3, math.inf):
                assert lp_norm(out, p) == lp_norm(full, p), (name, p)
            assert lp_norm_pow(out, 3) == lp_norm_pow(full, 3), name
            assert lp_norm(out, Fraction(3, 2)) == pytest.approx(
                lp_norm(full, Fraction(3, 2)), rel=REL_TOL
            ), name
            assert weak_lp_quasinorm(out, 1) == weak_lp_quasinorm(full, 1), name
            for i in interval_family(depth):
                for alpha in (0, 1):
                    assert pairing(out, i, alpha) == pairing(full, i, alpha), (name, i)
            assert inner_product(out, b) == inner_product(full, b), name
            assert inner_product(b, out) == inner_product(b, full), name
            assert analyze(out) == analyze(full), name
            assert maximal(out) == maximal(full), name
            assert square_function_sq(out) == square_function_sq(full), name
            for r in (1, 2):
                assert bmo_norm_pow(out, r) == bmo_norm_pow(full, r), name
            assert bmo2_via_haar_sq(out) == bmo2_via_haar_sq(full), name
            assert bstar_seminorm(out) == bstar_seminorm(full), name
        assert seen_kinds == {"paraproduct", "multiplier", "pi_paraproduct", "commutator"}

    def test_float_norms_of_a_view_with_blocks(self):
        # each block run counts a power of two leaves, and float power
        # sums are correctly rounded, so a view's norms are its
        # expansion's floats
        rng = random.Random(4)
        # the tuple never reads the descriptor's b
        desc = OperatorDescriptor("pi_paraproduct", (1,), b=StepFunction.zeros(3, FLOAT64))
        fs = extremal_tuple(desc, ExponentTuple((2,)), DyadicInterval(2, 1), 3)
        for _ in range(30):
            b = StepFunction.from_values(
                [rng.uniform(-3, 3) for _ in range(8)], mode=FLOAT64
            )
            out = pi_paraproduct((1,), b, fs)
            assert any(out.blocks)
            full = out.expand()
            for q in (Fraction(1, 3), Fraction(6, 11), 1, Fraction(3, 2), 2, 3):
                assert power_mean(out, Fraction(q)) == power_mean(full, Fraction(q)), q
            for p in (1, Fraction(3, 2), 2, math.inf):
                assert lp_norm(out, p) == lp_norm(full, p), p


class TestConstructors:
    """The Haar function and the indicator of an interval, built on the
    full grid or seen from any support that contains the interval, against
    their leaf-by-leaf definitions."""

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_full_grid_constructors_match_the_definitions(self, mode):
        for depth in range(1, 6):
            leaves = range(1 << depth)
            for level in range(depth + 1):
                for pos in range(1 << level):
                    i = DyadicInterval(level, pos)
                    ind = [naive_indicator(i, x, depth, mode) for x in leaves]
                    assert StepFunction.indicator(i, depth, mode) == StepFunction(
                        depth, tuple(ind), mode
                    )
                    if level == depth:
                        continue
                    h = [naive_haar(i, x, depth, mode) for x in leaves]
                    assert StepFunction.haar(i, depth, mode) == StepFunction(
                        depth, tuple(h), mode
                    )

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_views_of_every_containing_support_expand_to_them(self, mode):
        for depth in range(1, 6):
            for level in range(depth + 1):
                for pos in range(1 << level):
                    i = DyadicInterval(level, pos)
                    for s in i.ancestors(include_self=True):
                        ind = SupportView.indicator(i, s, depth, mode)
                        assert ind.support == s
                        assert ind.expand() == StepFunction.indicator(i, depth, mode)
                        if level == depth:
                            continue
                        h = SupportView.haar(i, s, depth, mode)
                        assert h.support == s
                        assert h.expand() == StepFunction.haar(i, depth, mode)

    def test_the_universe_is_seen_as_a_step_function(self):
        i = DyadicInterval(1, 1)
        f = SupportView.haar(i, UNIVERSE, 2, FLOAT64)
        assert type(f) is StepFunction and f.expand() is f
        assert f.support == UNIVERSE and f.blocks == ()
        assert type(SupportView.restrict(f, UNIVERSE)) is StepFunction
        # support and blocks are not fields: equality and JSON ignore them
        assert f == StepFunction.from_values([0.0, 0.0, -2 ** 0.5, 2 ** 0.5], FLOAT64)
        assert set(f.to_json_dict()) == {"depth", "mode", "values"}
        with pytest.raises(ResolutionError):
            SupportView.haar(DyadicInterval(2, 0), UNIVERSE, 2, FLOAT64)
