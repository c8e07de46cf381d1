import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyadicops import (
    COMMUTATOR_CONVENTION,
    UNIVERSE,
    DyadicInterval,
    Exact,
    StepFunction,
    SymbolSequence,
    admissible_alphas,
    analyze,
    commutator,
    interval_family,
    lp_norm,
    multilinear_multiplier,
    pairing,
    paraproduct,
)
from dyadicops.errors import ShapeError
from dyadicops.scalars import FLOAT64, RATIONAL, ExactRow, decode_value

from oracles import cell_symbol_table, naive_paraproduct, random_rationals

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def step_functions(depth):
    return st.lists(small_fracs, min_size=1 << depth, max_size=1 << depth).map(
        StepFunction.from_values
    )


def random_tuple(rng, m, depth):
    return [
        StepFunction.from_values(random_rationals(rng, 1 << depth)) for _ in range(m)
    ]


def random_symbol(rng, depth):
    return SymbolSequence(
        default=Fraction(rng.randint(-3, 3)),
        entries={
            i: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for i in interval_family(depth)
            if rng.random() < 0.7
        },
    )


class TestSymbolSequence:
    def test_constant(self):
        eps = SymbolSequence.constant(Fraction(1, 2))
        assert eps.value(UNIVERSE) == Fraction(1, 2)
        assert eps.value(DyadicInterval(3, 5)) == Fraction(1, 2)

    def test_entries_override_default(self):
        eps = SymbolSequence(default=1, entries={DyadicInterval(1, 0): Fraction(-3, 2)})
        assert eps.value(DyadicInterval(1, 0)) == Fraction(-3, 2)
        assert eps.value(DyadicInterval(1, 1)) == 1

    def test_table(self):
        eps = SymbolSequence(default=2, entries={DyadicInterval(1, 1): -1})
        t = eps.table(2, "rational")
        assert t[0][0] == Exact(2)
        assert t[1][1] == Exact(-1)
        assert t[1][0] == Exact(2)

    def test_json_round_trip(self):
        eps = SymbolSequence(default=Fraction(1, 3), entries={DyadicInterval(2, 3): Fraction(-5, 2)})
        blob = json.dumps(eps.to_json_dict(), indent=2, sort_keys=True)
        assert SymbolSequence.from_json_dict(json.loads(blob)) == eps

    def test_table_built_once(self, monkeypatch):
        eps = SymbolSequence(default=2, entries={DyadicInterval(1, 1): -1})
        first = eps.table(3, "rational")
        calls = []
        monkeypatch.setattr(SymbolSequence, "value", lambda self, i: calls.append(i) or 0)
        assert eps.table(3, "rational") is first
        assert calls == []
        # another (depth, mode) gets its own table, and the first is kept
        assert eps.table(3, "float64") == ((2.0,), (2.0, -1.0), (2.0,) * 4)
        assert eps.table(3, "rational") is first

    def test_kept_tables_do_not_change_equality_or_json(self):
        fresh = SymbolSequence(default=Fraction(1, 3), entries={DyadicInterval(2, 3): 5})
        used = SymbolSequence(default=Fraction(1, 3), entries={DyadicInterval(2, 3): 5})
        used.table(4, "float64")
        used.table(3, "rational")
        assert used == fresh
        assert used.to_json_dict() == fresh.to_json_dict()
        back = SymbolSequence.from_json_dict(json.loads(json.dumps(used.to_json_dict())))
        assert back == used
        assert "_tables" not in repr(used)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT64])
    def test_table_matches_the_cell_rule(self, mode):
        """Rows of the coerced default with the entries written in give the
        values and scalar types of coercing each cell's value."""
        rng = random.Random(f"table:{mode}")
        row_type = ExactRow if mode == RATIONAL else tuple
        values = [3, -2, 0, Fraction(-5, 3), Fraction(4, 2), Exact(Fraction(7, 2)),
                  Exact(1, -1), Exact(0, Fraction(1, 2))]
        if mode == FLOAT64:
            values += [0.25, -1.5e-3, 2.0]
        for depth in range(1, 11):
            symbols = [SymbolSequence.constant(v) for v in values]
            for density in (0.05, 0.5, 1.0):
                # entries as deep as depth + 1, one level past the grid
                entries = {
                    i: rng.choice(values)
                    for i in interval_family(depth + 2)
                    if rng.random() < density
                }
                symbols.append(SymbolSequence(rng.choice(values), entries))
            for eps in symbols:
                got, want = eps.table(depth, mode), cell_symbol_table(eps, depth, mode)
                assert got == want
                assert [list(map(type, row)) for row in got] == [
                    list(map(type, row)) for row in want
                ]
                # one row (``scalars.as_row``) per level
                assert type(got) is tuple and all(type(row) is row_type for row in got)

    def test_entries_it_cannot_use_are_refused(self):
        with pytest.raises(TypeError, match="DyadicInterval"):
            SymbolSequence(default=1, entries={(1, 0): 5})
        with pytest.raises(TypeError, match="bool"):
            SymbolSequence(default=True)
        with pytest.raises(TypeError, match="bool"):
            SymbolSequence(entries={DyadicInterval(1, 0): False})

    def test_repeated_value_texts_decode_to_equal_values(self):
        texts = ["1/3", "-2", ["1", "1/2"], "2/6", 4, 0.5, ["1", "1/2"], "-2"]
        family = interval_family(4)
        obj = {
            "default": "1/3",
            "entries": [
                {"level": i.level, "pos": i.position, "value": texts[k % len(texts)]}
                for k, i in reversed(list(enumerate(family)))
            ],
        }
        eps = SymbolSequence.from_json_dict(json.loads(json.dumps(obj)))
        for k, i in enumerate(family):
            text = texts[k % len(texts)]
            want = text if type(text) in (int, float) else decode_value(text, RATIONAL)
            assert eps.value(i) == want and type(eps.value(i)) is type(want)
        assert eps.default == Exact(Fraction(1, 3))
        # written back in (level, position) order, each value in its lowest terms
        back = eps.to_json_dict()
        assert [(e["level"], e["pos"]) for e in back["entries"]] == [
            (i.level, i.position) for i in family
        ]
        assert [e["value"] for e in back["entries"][:8]] == [
            "1/3", "-2", ["1", "1/2"], "1/3", "4", 0.5, ["1", "1/2"], "-2"
        ]
        assert SymbolSequence.from_json_dict(back) == eps

    def test_an_interval_listed_twice_is_refused(self):
        # the last value won silently
        entry = {"level": 1, "pos": 0, "value": "1/2"}
        obj = {"default": 1, "entries": [entry, {**entry, "value": "3"}]}
        with pytest.raises(ValueError, match="lists some interval more than once"):
            SymbolSequence.from_json_dict(obj)
        obj["entries"][1] = {**entry, "pos": 1}
        assert SymbolSequence.from_json_dict(obj).value(DyadicInterval(1, 1)) == Exact(
            Fraction(1, 2)
        )

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            SymbolSequence(default=float("nan"))
        with pytest.raises(ValueError):
            SymbolSequence(entries={DyadicInterval(1, 0): float("inf")})
        with pytest.raises(ValueError):
            SymbolSequence.from_json_dict({"default": float("nan")})


class TestLinearMultiplier:
    def test_frozen_sign_flip(self):
        f = StepFunction.from_values([0, 1])
        # f = 1/2 + 1/2 h_U; flipping the sign of the Haar part
        out = multilinear_multiplier(SymbolSequence.constant(-1), (0,), [f])
        assert out == StepFunction.from_values([Fraction(1, 2), Fraction(-1, 2)])

    def test_frozen_scaling(self):
        f = StepFunction.from_values([0, 1])
        out = multilinear_multiplier(SymbolSequence.constant(5), (0,), [f])
        assert out == StepFunction.from_values([Fraction(-5, 2), Fraction(5, 2)])

    def test_mean_is_dropped(self):
        f = StepFunction.constant(Fraction(7, 2), 2)
        assert multilinear_multiplier(SymbolSequence.constant(1), (0,), [f]).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(step_functions(3), st.integers(0, 10_000))
    def test_coefficient_law(self, f, seed):
        rng = random.Random(seed)
        eps = random_symbol(rng, 3)
        out = multilinear_multiplier(eps, (0,), [f])
        spec = analyze(f)
        for i in interval_family(3):
            assert pairing(out, i, 0) == Exact(eps.value(i)) * spec.coefficient(i)

    def test_identity_symbol_recovers_mean_free_part(self):
        f = StepFunction.from_values([1, 5, 2, 0])
        out = multilinear_multiplier(SymbolSequence.constant(1), (0,), [f])
        assert out == f - StepFunction.constant(2, 2)
        step = StepFunction.from_values([0, 1])
        assert multilinear_multiplier(SymbolSequence.constant(1), (0,), [step]) == (
            StepFunction.from_values([Fraction(-1, 2), Fraction(1, 2)])
        )


class TestMultilinearMultiplier:
    def test_all_ones_rejected(self):
        f = StepFunction.from_values([1, 2])
        with pytest.raises(ValueError):
            multilinear_multiplier(SymbolSequence.constant(1), (1, 1), [f, f])

    def test_unit_symbol_is_paraproduct(self):
        rng = random.Random(2)
        fs = random_tuple(rng, 3, 3)
        for alpha in admissible_alphas(3):
            assert multilinear_multiplier(
                SymbolSequence.constant(1), alpha, fs
            ) == paraproduct(alpha, fs)

    def test_frozen_example(self):
        f = StepFunction.from_values([1, 2])
        g = StepFunction.from_values([1, 3])
        eps = SymbolSequence.constant(10)
        # P^{(0,1)}(f,g) = (-1, 1), scaled by 10
        assert multilinear_multiplier(eps, (0, 1), [f, g]) == StepFunction.from_values(
            [-10, 10]
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        m, depth = rng.choice([(2, 2), (2, 3), (3, 2)])
        fs = random_tuple(rng, m, depth)
        eps = random_symbol(rng, depth)

        def eps_value(i):
            return Exact(eps.value(i))

        for alpha in admissible_alphas(m):
            got = multilinear_multiplier(eps, alpha, fs)
            assert got == naive_paraproduct(alpha.bits, fs, eps_value)

    def test_symbol_localization(self):
        # symbol supported on one interval only: output lives inside it
        rng = random.Random(8)
        fs = random_tuple(rng, 2, 3)
        target = DyadicInterval(1, 1)
        eps = SymbolSequence(default=0, entries={DyadicInterval(1, 1): 1})
        for alpha in admissible_alphas(2):
            out = multilinear_multiplier(eps, alpha, fs)
            assert out.vanishes_outside(target)


class TestCommutator:
    def test_convention_constant_documented(self):
        assert COMMUTATOR_CONVENTION == "T(f_1,...,b*f_i,...,f_m) - b*T(f_1,...,f_m)"

    def test_frozen_example(self):
        b = StepFunction.from_values([1, 0])
        f = StepFunction.from_values([2, 4])
        g = StepFunction.from_values([1, 1])
        out = commutator(1, b, SymbolSequence.constant(1), (0, 1), [f, g])
        # T(bf,g) = -h_U = (1,-1); b*T(f,g) = b*(-1,1) = (-1,0)
        assert out == StepFunction.from_values([2, -1])

    def test_frozen_both_slots(self):
        b = StepFunction.from_values([0, 2])
        f = StepFunction.from_values([-1, 1])
        g = StepFunction.constant(1, 1)
        unit = SymbolSequence.constant(1)
        expect = StepFunction.from_values([-1, -1])
        # either slot: T with b folded in gives h_U, b*T(f,g) = (0,2)
        assert commutator(1, b, unit, (0, 1), [f, g]) == expect
        assert commutator(2, b, unit, (0, 1), [f, g]) == expect
        assert commutator(1, b, unit, (0,), [f]) == expect

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_constant_symbol_function_gives_zero(self, seed):
        rng = random.Random(seed)
        m, depth = rng.choice([(2, 2), (3, 2)])
        fs = random_tuple(rng, m, depth)
        b = StepFunction.constant(Fraction(rng.randint(-5, 5)), depth)
        eps = random_symbol(rng, depth)
        alpha = rng.choice(admissible_alphas(m))
        slot = rng.randint(1, m)
        assert commutator(slot, b, eps, alpha, fs).is_zero()

    def test_definition_unrolled(self):
        rng = random.Random(4)
        b, f, g = random_tuple(rng, 3, 2)
        eps = random_symbol(rng, 2)
        alpha = (0, 1)
        got = commutator(2, b, eps, alpha, [f, g])
        expect = multilinear_multiplier(eps, alpha, [f, b * g]) - b * (
            multilinear_multiplier(eps, alpha, [f, g])
        )
        assert got == expect

    def test_slot_validation(self):
        b = StepFunction.from_values([1, 0])
        f = StepFunction.from_values([2, 4])
        with pytest.raises(ValueError):
            commutator(0, b, SymbolSequence.constant(1), (0,), [f])
        with pytest.raises(ValueError):
            commutator(2, b, SymbolSequence.constant(1), (0,), [f])

    def test_linear_wrapper(self):
        rng = random.Random(6)
        b, f = random_tuple(rng, 2, 3)
        eps = random_symbol(rng, 3)
        expect = multilinear_multiplier(eps, (0,), [b * f]) - b * (
            multilinear_multiplier(eps, (0,), [f])
        )
        assert commutator(1, b, eps, (0,), [f]) == expect

    def test_case_two_closed_form(self):
        # alpha puts a coefficient pairing in the commutator slot: the
        # bracket collapses to -(b - <b>_I) h_I^sigma for f_j built from I
        depth = 3
        i0 = DyadicInterval(1, 1)
        rng = random.Random(12)
        b = StepFunction.from_values(random_rationals(rng, 1 << depth))
        alpha = (0, 0, 1)
        fs = [
            StepFunction.haar(i0, depth),
            StepFunction.haar(i0, depth),
            StepFunction.indicator(i0, depth),
        ]
        got = commutator(1, b, SymbolSequence.constant(1), alpha, fs)
        avg = pairing(b, i0, 1)
        osc = b - StepFunction.constant(avg, depth)
        h_squared = StepFunction.indicator(i0, depth).scale(1 << i0.level)
        expect = -(osc * h_squared)
        assert got == expect

    def test_float_mode(self):
        b = StepFunction.from_values([1.0, 0.0], mode=FLOAT64)
        f = StepFunction.from_values([2.0, 4.0], mode=FLOAT64)
        g = StepFunction.from_values([1.0, 1.0], mode=FLOAT64)
        out = commutator(1, b, SymbolSequence.constant(1), (0, 1), [f, g])
        assert out.values == pytest.approx((2.0, -1.0))
