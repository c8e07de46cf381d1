import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from dyadicops import (
    UNIVERSE,
    AlphaVector,
    DyadicInterval,
    Exact,
    OperatorDescriptor,
    StepFunction,
    SymbolSequence,
    admissible_alphas,
    adjoint_residual,
    inner_product,
    interval_family,
    localized_average_residual,
    paraproduct,
    pi_paraproduct,
    pointwise_product,
    product_decomposition_residual,
)
from dyadicops.core import SupportView
from dyadicops.errors import ResolutionError, ShapeError
from dyadicops.paraproducts import _engine, alpha_at
from dyadicops.scalars import FLOAT64, RATIONAL, as_row, one, zero

from oracles import (
    close_to_rational,
    matrix_adjoint,
    naive_paraproduct,
    random_rationals,
    recursive_alphas,
)

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def step_functions(depth):
    return st.lists(small_fracs, min_size=1 << depth, max_size=1 << depth).map(
        StepFunction.from_values
    )


def random_tuple(rng, m, depth):
    return [
        StepFunction.from_values(random_rationals(rng, 1 << depth)) for _ in range(m)
    ]


class TestAlphaVector:
    def test_construction(self):
        a = AlphaVector((0, 1))
        assert a.bits == (0, 1)
        assert a.m == 2 and a.zero_count == 1
        assert AlphaVector([1, 0]).bits == (1, 0)
        assert AlphaVector.from_string("011").bits == (0, 1, 1)
        assert str(a) == "01"
        assert list(a) == [0, 1] and len(a) == 2 and a[1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaVector((0, 2))
        with pytest.raises(ValueError):
            AlphaVector(())

    def test_admissibility(self):
        assert AlphaVector((0, 1)).is_admissible
        assert not AlphaVector((1, 1)).is_admissible

    def test_enumeration_order_m2(self):
        assert [a.bits for a in admissible_alphas(1)] == [(0,)]
        assert [a.bits for a in admissible_alphas(2)] == [(0, 1), (0, 0), (1, 0)]

    def test_enumeration_order_m3(self):
        expect = [
            (0, 1, 1),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 0),
            (0, 0, 0),
            (1, 0, 0),
            (1, 1, 0),
        ]
        assert [a.bits for a in admissible_alphas(3)] == expect

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_enumeration_count_and_admissibility(self, m):
        alphas = admissible_alphas(m)
        assert len(alphas) == 2**m - 1
        assert len(set(alphas)) == len(alphas)
        assert all(a.is_admissible and a.m == m for a in alphas)

    def test_alpha_at_is_the_enumeration(self):
        for m in range(1, 12):
            want = recursive_alphas(m)
            assert [alpha_at(m, i) for i in range((1 << m) - 1)] == want
            assert admissible_alphas(m) == want
        assert alpha_at(40, (1 << 40) - 2) == AlphaVector((1,) * 39 + (0,))
        for m in (0, -1):
            with pytest.raises(ValueError, match=f"^arity must be >= 1, got {m}$"):
                alpha_at(m, 0)
            with pytest.raises(ValueError, match=f"^arity must be >= 1, got {m}$"):
                admissible_alphas(m)
        for m, index in ((1, 1), (3, -1), (3, 7)):
            with pytest.raises(IndexError):
                alpha_at(m, index)


def haar_power(interval, sigma, depth):
    """h_I**sigma as the engine sums it: a single unit product at I, with
    sigma Haar slots (one average slot for sigma = 0)."""
    unit = [
        as_row([one(RATIONAL) if (level, pos) == (interval.level, interval.position)
                else zero(RATIONAL) for pos in range(1 << level)], RATIONAL)
        for level in range(depth)
    ]
    ones = [as_row([one(RATIONAL)] * (1 << level), RATIONAL) for level in range(depth)]
    bits = (0,) * sigma or (1,)
    tables = [unit] + [ones] * (len(bits) - 1)
    return _engine(sigma, tables, depth, RATIONAL).expand()


class TestHaarPower:
    def test_power_zero_is_one(self):
        assert haar_power(DyadicInterval(1, 0), 0, 2) == StepFunction.constant(1, 2)

    def test_frozen_even_power(self):
        assert haar_power(DyadicInterval(1, 0), 2, 2) == StepFunction.from_values(
            [2, 2, 0, 0]
        )

    def test_frozen_depth_one_powers(self):
        assert haar_power(UNIVERSE, 2, 1) == StepFunction.constant(1, 1)
        assert haar_power(UNIVERSE, 3, 1) == StepFunction.from_values([-1, 1])
        assert haar_power(DyadicInterval(1, 1), 2, 2) == StepFunction.from_values(
            [0, 0, 2, 2]
        )

    def test_frozen_odd_powers(self):
        h = haar_power(DyadicInterval(1, 1), 1, 2)
        assert h == StepFunction.haar(DyadicInterval(1, 1), 2)
        cube = haar_power(DyadicInterval(1, 1), 3, 2)
        w = Exact.root2_power(3)
        assert cube.values == (Exact(0), Exact(0), -w, w)

    @pytest.mark.parametrize("sigma", [1, 2, 3, 4])
    def test_matches_repeated_product(self, sigma):
        depth = 3
        for i in [UNIVERSE, DyadicInterval(1, 1), DyadicInterval(2, 2)]:
            h = StepFunction.haar(i, depth)
            assert haar_power(i, sigma, depth) == pointwise_product([h] * sigma)


class TestParaproduct:
    def test_frozen_bilinear_averages(self):
        # alpha = (1,1): sum over I of <f>_I <g>_I h_I^0 = constants piling up
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([1, -1])
        # only I = U: <f> = 3/2, <g> = 0, h^0 = 1 -> zero... use richer g
        g2 = StepFunction.from_values([1, 3])
        out = paraproduct((1, 1), [f, g2])
        assert out == StepFunction.constant(3, 1)

    def test_frozen_two_coefficients(self):
        # alpha = (0,0) at depth 1: coefficient product times h^2
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([1, 3])
        # f^ = 1/2, g^ = 1 on U; h_U^2 = 1 -> constant 1/2
        assert paraproduct((0, 0), [f, g]) == StepFunction.constant(Fraction(1, 2), 1)

    def test_frozen_mixed(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([1, 3])
        # alpha = (0,1): f^_U * <g>_U * h_U = 1/2 * 2 * (-1, 1)
        assert paraproduct((0, 1), [f, g]) == StepFunction.from_values([-1, 1])
        # alpha = (1,0): <f>_U * g^_U * h_U = 3/2 * 1 * (-1, 1)
        assert paraproduct((1, 0), [f, g]) == StepFunction.from_values(
            [Fraction(-3, 2), Fraction(3, 2)]
        )

    def test_frozen_classic_pair(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([3, 4])
        assert paraproduct((0, 0), [f, g]) == StepFunction.constant(Fraction(1, 4), 1)
        assert paraproduct((0, 1), [f, g]) == StepFunction.from_values(
            [Fraction(-7, 4), Fraction(7, 4)]
        )
        assert paraproduct((1, 0), [f, g]) == StepFunction.from_values(
            [Fraction(-3, 4), Fraction(3, 4)]
        )
        assert product_decomposition_residual([f, g]).is_zero()
        assert localized_average_residual(DyadicInterval(1, 0), [f, g]).is_zero()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_oracle_all_alphas(self, seed):
        rng = random.Random(seed)
        m, depth = rng.choice([(2, 2), (2, 3), (3, 2)])
        fs = random_tuple(rng, m, depth)
        for alpha in admissible_alphas(m):
            assert paraproduct(alpha, fs) == naive_paraproduct(alpha.bits, fs)

    def test_multilinearity(self):
        rng = random.Random(5)
        f1, f2, g = random_tuple(rng, 3, 2)
        c = Fraction(3, 7)
        for alpha in admissible_alphas(2):
            left = paraproduct(alpha, [f1 + g.scale(c), f2])
            right = paraproduct(alpha, [f1, f2]) + paraproduct(alpha, [g, f2]).scale(c)
            assert left == right

    def test_slot_permutation_symmetry(self):
        rng = random.Random(9)
        fs = random_tuple(rng, 3, 2)
        alpha = (0, 1, 0)
        base = paraproduct(alpha, fs)
        for perm in permutations(range(3)):
            palpha = tuple(alpha[p] for p in perm)
            pfs = [fs[p] for p in perm]
            assert paraproduct(palpha, pfs) == base

    def test_shape_checks(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([1, 2, 3, 4])
        with pytest.raises(ShapeError):
            paraproduct((0, 1), [f, g])
        with pytest.raises(ShapeError):
            paraproduct((0, 1), [f])
        with pytest.raises(ShapeError):
            paraproduct((0, 1), [f, g.as_float64()])

    def test_float_mode(self):
        f = StepFunction.from_values([1.0, 2.0], mode=FLOAT64)
        g = StepFunction.from_values([1.0, 3.0], mode=FLOAT64)
        out = paraproduct((0, 1), [f, g])
        assert out.mode == FLOAT64
        assert out.values == pytest.approx((-1.0, 1.0))


class TestPiParaproduct:
    def test_is_paraproduct_with_symbol_in_front(self):
        rng = random.Random(3)
        b, f, g = random_tuple(rng, 3, 3)
        for alpha in [(1, 1), (0, 1), (1, 0), (0, 0)]:
            assert pi_paraproduct(alpha, b, [f, g]) == paraproduct(
                (0,) + alpha, [b, f, g]
            )

    def test_frozen_classical_forms(self):
        b = StepFunction.from_values([0, 1])
        f = StepFunction.from_values([2, 4])
        # b^ = 1/2, <f> = 3, so 3/2 h_U in every variant below
        expect = StepFunction.from_values([Fraction(-3, 2), Fraction(3, 2)])
        assert pi_paraproduct((1,), b, [f]) == expect
        ones = StepFunction.constant(1, 1)
        assert pi_paraproduct((1, 1), b, [f, ones]) == expect
        h = StepFunction.from_values([-1, 1])
        assert pi_paraproduct((0, 0), b, [h, h]) == StepFunction.from_values(
            [Fraction(-1, 2), Fraction(1, 2)]
        )

    def test_all_ones_alpha_allowed(self):
        # the symbol slot supplies the Haar pairing, so (1,...,1) is fine
        b = StepFunction.from_values([1, 0])
        f = StepFunction.from_values([2, 4])
        out = pi_paraproduct((1,), b, [f])
        # I = U: b^ = -1/2, <f> = 3, h_U -> 3 * (-1/2) * (-1, 1)
        assert out == StepFunction.from_values([Fraction(3, 2), Fraction(-3, 2)])

    def test_depth_mismatch_rejected(self):
        b = StepFunction.from_values([1, 0])
        f = StepFunction.from_values([1, 2, 3, 4])
        with pytest.raises(ShapeError):
            pi_paraproduct((1,), b, [f])


class TestDecompositions:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_product_residual_zero(self, seed):
        rng = random.Random(seed)
        m, depth = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
        fs = random_tuple(rng, m, depth)
        assert product_decomposition_residual(fs).is_zero()

    def test_product_residual_needs_two(self):
        with pytest.raises(ShapeError):
            product_decomposition_residual([StepFunction.from_values([1, 2])])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_localized_residual_zero_every_interval(self, seed):
        rng = random.Random(seed)
        m, depth = rng.choice([(2, 3), (3, 2)])
        fs = random_tuple(rng, m, depth)
        for level in range(1, depth + 1):
            for pos in range(1 << level):
                j = DyadicInterval(level, pos)
                assert localized_average_residual(j, fs).is_zero()

    def test_localized_validation(self):
        fs = [StepFunction.from_values([1, 2]), StepFunction.from_values([0, 1])]
        with pytest.raises(ValueError):
            localized_average_residual(UNIVERSE, fs)
        with pytest.raises(ResolutionError):
            localized_average_residual(DyadicInterval(2, 0), fs)

    def test_multiplication_special_case(self):
        rng = random.Random(17)
        b, f = random_tuple(rng, 2, 3)
        assert product_decomposition_residual([b, f]).is_zero()
        assert product_decomposition_residual(
            [StepFunction.from_values([1, 2]), StepFunction.from_values([3, 4])]
        ).is_zero()
        assert (
            pointwise_product([b, f])
            - paraproduct((0, 1), [b, f])
            - paraproduct((0, 0), [b, f])
            - paraproduct((1, 0), [b, f])
        ) == StepFunction.constant(
            inner_product(b, StepFunction.constant(1, 3))
            * inner_product(f, StepFunction.constant(1, 3)),
            3,
        )

    def test_residuals_of_views(self):
        # the views from (1,1) of [0,0,1,3] and [0,0,2,5] read as their
        # expansions
        support = DyadicInterval(1, 1)
        fs = [StepFunction.from_values([0, 0, 1, 3]), StepFunction.from_values([0, 0, 2, 5])]
        views = [SupportView.restrict(f, support) for f in fs]
        zero_fn = StepFunction.zeros(2)
        assert product_decomposition_residual(views) == zero_fn
        for j in (DyadicInterval(1, 0), DyadicInterval(2, 3), DyadicInterval(2, 2)):
            assert localized_average_residual(j, views) == zero_fn

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    @pytest.mark.parametrize("seed", range(4))
    def test_residuals_of_views_match_their_expansions(self, mode, seed):
        rng = random.Random(seed)
        depth = 3
        level = rng.randint(1, 2)
        support = DyadicInterval(level, rng.randrange(1 << level))
        span = support.leaf_span(depth)
        views = []
        for _ in range(rng.choice((2, 3))):
            vals = [Fraction(0)] * (1 << depth)
            vals[span.start:span.stop] = random_rationals(rng, len(span))
            f = StepFunction.from_values(vals)
            views.append(SupportView.restrict(f if mode == RATIONAL else f.as_float64(), support))
        full = [v.expand() for v in views]
        assert product_decomposition_residual(views) == product_decomposition_residual(full)
        for level in range(1, depth + 1):
            j = DyadicInterval(level, rng.randrange(1 << level))
            assert localized_average_residual(j, views) == localized_average_residual(j, full)


def para(bits):
    return OperatorDescriptor("paraproduct", bits)


def pi(bits, b):
    return OperatorDescriptor("pi_paraproduct", bits, b=b)


def every_descriptor(m, rng, depth):
    """One descriptor of each kind for every alpha of arity m, a commutator
    for every slot; the pi paraproduct also with the all-ones alpha."""
    b, = random_tuple(rng, 1, depth)
    entries = {
        i: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for i in interval_family(depth)
    }
    eps = SymbolSequence(0, entries)
    for bits in product((0, 1), repeat=m):
        yield pi(bits, b)
        if 0 not in bits:
            continue
        yield para(bits)
        yield OperatorDescriptor("multilinear_multiplier", bits, symbol=eps)
        for i in range(1, m + 1):
            yield OperatorDescriptor("commutator", bits, b=b, symbol=eps, slot=i)


class TestDuality:
    def test_adjoint_frozen(self):
        f1 = StepFunction.from_values([1, 0])
        f2 = StepFunction.from_values([2, 4])
        g = StepFunction.from_values([1, 3])
        # <P^{(0,1)}(f1,f2), g> with f1^ = -1/2, <f2> = 3: term -3/2 h_U
        # <h_U, g> = 1, so lhs = -3/2
        lhs = inner_product(paraproduct((0, 1), [f1, f2]), g)
        assert lhs == Exact(Fraction(-3, 2))
        rhs = inner_product(f2, paraproduct((0, 0), [f1, g]))
        assert rhs == lhs
        # sigma = 1 is odd, so slot 2 turns into a Haar slot
        assert para((0, 1)).adjoint(2, [f1, f2], g) == paraproduct((0, 0), [f1, g])
        assert adjoint_residual(para((0, 1)), 2, [f1, f2], g) == Exact(0)

    def test_adjoint_frozen_positive_pair(self):
        f1 = StepFunction.from_values([0, 1])
        f2 = StepFunction.from_values([2, 4])
        g = StepFunction.from_values([-1, 1])
        lhs = inner_product(pi_paraproduct((1,), f1, [f2]), g)
        assert lhs == Exact(Fraction(3, 2))  # (1/2) * 3 * 1
        assert inner_product(f2, paraproduct((0, 0), [f1, g])) == lhs
        assert adjoint_residual(para((0, 1)), 2, [f1, f2], g) == Exact(0)
        assert adjoint_residual(pi((1,), f1), 1, [f2], g) == Exact(0)

    @settings(max_examples=20, deadline=None)
    @given(step_functions(3), step_functions(3), step_functions(3))
    def test_adjoint_zero(self, f1, f2, g):
        assert adjoint_residual(para((0, 1)), 2, [f1, f2], g) == Exact(0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_transpose_zero(self, seed):
        rng = random.Random(seed)
        m, depth = rng.choice([(1, 3), (2, 2), (3, 2)])
        b, g, *fs = random_tuple(rng, m + 2, depth)
        alpha = AlphaVector((0,) + (1,) * (m - 1)) if m > 1 else AlphaVector((0,))
        assert adjoint_residual(pi(alpha, b), 1, fs, g) == Exact(0)

    def test_transpose_frozen(self):
        b = StepFunction.from_values([1, 0])
        f = StepFunction.from_values([2, 4])
        g = StepFunction.from_values([1, 3])
        lhs = inner_product(pi_paraproduct((0,), b, [f]), g)
        rhs = inner_product(pi_paraproduct((1,), b, [g]), f)
        assert lhs == rhs
        # sigma = 2 with b's slot, so slot 1 turns into an average slot
        assert pi((0,), b).adjoint(1, [f], g) == pi_paraproduct((1,), b, [g])
        assert adjoint_residual(pi((0,), b), 1, [f], g) == Exact(0)

    def test_transpose_frozen_bilinear(self):
        b = StepFunction.from_values([0, 1])
        f1 = StepFunction.from_values([-1, 1])
        f2 = StepFunction.constant(1, 1)
        g = StepFunction.from_values([2, 4])
        lhs = inner_product(pi_paraproduct((0, 1), b, [f1, f2]), g)
        assert lhs == Exact(Fraction(3, 2))  # (1/2) * 1 * 1 * 3
        assert inner_product(pi_paraproduct((1, 1), b, [g, f2]), f1) == lhs
        assert adjoint_residual(pi((0, 1), b), 1, [f1, f2], g) == Exact(0)

    def test_transpose_validation(self):
        f = StepFunction.from_values([2, 4])
        g = StepFunction.from_values([1, 3])
        # the all-ones paraproduct is a constant: no adjoint of its shape
        with pytest.raises(ValueError, match="all-ones"):
            para((1, 1)).adjoint(1, [f, f], g)
        for slot in (0, 3):
            with pytest.raises(ValueError, match="slot must lie in 1..2"):
                para((0, 1)).adjoint(slot, [f, f], g)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_every_kind_alpha_and_slot(self, depth):
        rng = random.Random(depth)
        for m in (1, 2, 3):
            fs = random_tuple(rng, m, depth)
            g, = random_tuple(rng, 1, depth)
            for desc in every_descriptor(m, rng, depth):
                for slot in range(1, m + 1):
                    assert adjoint_residual(desc, slot, fs, g) == Exact(0), (
                        desc.kind, str(desc.alpha), desc.slot, slot
                    )

    @pytest.mark.parametrize("depth", [1, 3])
    def test_adjoint_is_the_matrix_transpose(self, depth):
        rng = random.Random(100 + depth)
        for m in (1, 2, 3):
            fs = random_tuple(rng, m, depth)
            g, = random_tuple(rng, 1, depth)
            for desc in every_descriptor(m, rng, depth):
                for slot in range(1, m + 1):
                    assert desc.adjoint(slot, fs, g) == matrix_adjoint(
                        desc, slot, fs, g
                    ), (desc.kind, str(desc.alpha), desc.slot, slot)


def commutator_terms(desc, fs) -> list:
    """The leaf values of T(.., b*f_i, ..) and b*T(fs), the two terms whose
    difference is the commutator [b, T]_i."""
    t = OperatorDescriptor("multilinear_multiplier", desc.alpha, symbol=desc.symbol)
    moved = list(fs)
    moved[desc.slot - 1] = desc.b * fs[desc.slot - 1]
    return [*t.apply(moved).values, *(desc.b * t.apply(fs)).values]


class TestCrossMode:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000))
    # [b, T]_3 with alpha 001 is exactly 0 here while its two terms reach
    # 170.7, and float64 gives 2.8e-14: too far from 0 for a tolerance
    # relative to the output
    @example(depth=1, seed=245)
    def test_float64_matches_rational(self, depth, seed):
        # every kind, every alpha of arity <= 3 and every commutator slot,
        # in float64 on the float64 inputs against float() of the exact
        # result; a commutator's tolerance is relative to its two terms
        rng = random.Random(seed)
        for m in (1, 2, 3):
            fs = random_tuple(rng, m, depth)
            floats = [f.as_float64() for f in fs]
            for desc in every_descriptor(m, rng, depth):
                got = desc.as_float64().apply(floats)
                assert got.mode == FLOAT64
                scale = commutator_terms(desc, fs) if desc.kind == "commutator" else None
                assert close_to_rational(got.values, desc.apply(fs).values, scale), (
                    desc.kind, str(desc.alpha), desc.slot
                )
