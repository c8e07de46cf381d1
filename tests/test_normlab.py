import json
import math
import random
from fractions import Fraction

import pytest

from dyadicops import (
    UNIVERSE,
    AlphaVector,
    DyadicInterval,
    ExperimentReport,
    ExponentTuple,
    OperatorDescriptor,
    SamplerSpec,
    StepFunction,
    SymbolSequence,
    admissible_alphas,
    estimate_operator_norm,
    extremal_tuple,
    interval_family,
    lp_norm,
    necessity_case,
    pairing,
    sharp_forms,
    sharp_ratio,
    weak_type_ratio,
)
from dyadicops import cli, normlab
from dyadicops.core import MAX_DEPTH
from dyadicops.errors import ResolutionError, ShapeError
from dyadicops.normlab import (
    FAMILIES,
    KINDS,
    _lr_quasinorm,
    _sign_indices,
    draws_below,
    random_rational_step,
)
from dyadicops.scalars import FLOAT64, RATIONAL, Exact, _canonical

from oracles import (
    fraction_rational_step,
    randint_fractions,
    randint_symbol,
    oscillation_forms,
    loop_rademacher_haar,
    scaled_indicator_draw,
    uniform_random_step,
)


class TestExponentTuple:
    def test_construction(self):
        e = ExponentTuple((2, 2))
        assert e.m == 2
        assert e.r == Fraction(1)
        assert ExponentTuple.from_string("2,3").p == (Fraction(2), Fraction(3))
        assert ExponentTuple((Fraction(3, 2),)).r == Fraction(3, 2)

    def test_holder_exponent(self):
        assert ExponentTuple((1, 1)).r == Fraction(1, 2)
        assert ExponentTuple((1, 2)).r == Fraction(2, 3)
        assert ExponentTuple((4, 4, 4)).r == Fraction(4, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentTuple((Fraction(1, 2), 2))
        with pytest.raises(ValueError):
            ExponentTuple(())

    def test_json(self):
        e = ExponentTuple((1, Fraction(3, 2)))
        assert e.to_json_dict() == {"p": ["1", "3/2"], "r": "3/5"}


# a sharp tuple never reads b, so any b will do
ANY_B = StepFunction.zeros(4, FLOAT64)
EPS = SymbolSequence.constant(1)


class TestOperatorDescriptor:
    def test_paraproduct_rejects_extras(self):
        with pytest.raises(ValueError):
            OperatorDescriptor("paraproduct", (0, 1), b=StepFunction.zeros(2))
        OperatorDescriptor("paraproduct", (0, 1))

    def test_pi_needs_b(self):
        with pytest.raises(ValueError):
            OperatorDescriptor("pi_paraproduct", (0, 1))

    def test_multiplier_needs_symbol_and_admissible_alpha(self):
        with pytest.raises(ValueError):
            OperatorDescriptor("multilinear_multiplier", (0, 1))
        with pytest.raises(ValueError):
            OperatorDescriptor(
                "multilinear_multiplier", (1, 1), symbol=SymbolSequence.constant(1)
            )

    def test_commutator_needs_everything(self):
        b = StepFunction.from_values([1, 0])
        eps = SymbolSequence.constant(1)
        with pytest.raises(ValueError):
            OperatorDescriptor("commutator", (0, 1), b=b, symbol=eps)
        with pytest.raises(ValueError):
            OperatorDescriptor("commutator", (0, 1), b=b, symbol=eps, slot=3)
        d = OperatorDescriptor("commutator", (0, 1), b=b, symbol=eps, slot=1)
        assert d.arity == 2

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("pi_paraproduct", {}, "pi_paraproduct descriptors need b"),
            ("multilinear_multiplier", {}, "multiplier descriptors need symbol"),
            ("commutator", {"b": ANY_B, "symbol": EPS}, "commutator descriptors need slot"),
            ("commutator", {"symbol": EPS}, "commutator descriptors need b and slot"),
        ],
    )
    def test_a_missing_field_is_named(self, kind, fields, message):
        with pytest.raises(ValueError) as info:
            OperatorDescriptor(kind, (0, 1), **fields)
        assert str(info.value) == message

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OperatorDescriptor("fourier", (0, 1))

    def test_apply_dispatch(self):
        f = StepFunction.from_values([1.0, 2.0], mode=FLOAT64)
        g = StepFunction.from_values([1.0, 3.0], mode=FLOAT64)
        d = OperatorDescriptor("paraproduct", (0, 1))
        assert d.apply([f, g]).values == pytest.approx((-1.0, 1.0))

    def test_json_round_trip(self):
        b = StepFunction.from_values([1, 0])
        eps = SymbolSequence.constant(Fraction(1, 2))
        d = OperatorDescriptor("commutator", (0, 1), b=b, symbol=eps, slot=2)
        blob = json.dumps(d.to_json_dict(), indent=2, sort_keys=True)
        back = OperatorDescriptor.from_json_dict(json.loads(blob))
        assert back.kind == d.kind and back.alpha == d.alpha and back.slot == 2
        assert back.symbol == d.symbol and back.b == d.b


class TestSampler:
    def test_family_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec("gaussian", 3)
        with pytest.raises(ValueError):
            SamplerSpec("random-step", 0)
        with pytest.raises(ValueError):
            SamplerSpec("rademacher-haar", 3, level_cap=3)

    def test_depth_cap(self):
        SamplerSpec("random-step", MAX_DEPTH)
        with pytest.raises(ValueError):
            SamplerSpec("random-step", MAX_DEPTH + 1)

    def test_trial_determinism(self):
        spec = SamplerSpec("random-step", 3, seed=42)
        d = OperatorDescriptor("paraproduct", (0, 1))
        e = ExponentTuple((2, 2))
        a = spec.draw_tuple(7, d, e)
        b = spec.draw_tuple(7, d, e)
        assert a == b
        c = spec.draw_tuple(8, d, e)
        assert a != c

    def test_random_step_shape(self):
        spec = SamplerSpec("random-step", 2, seed=0)
        d = OperatorDescriptor("paraproduct", (0, 1, 1))
        fs = spec.draw_tuple(0, d, ExponentTuple((2, 2, 2)))
        assert len(fs) == 3
        assert all(f.depth == 2 and f.mode == FLOAT64 for f in fs)
        assert all(-1.0 <= v <= 1.0 for f in fs for v in f.values)

    def test_rademacher_haar_mean_zero_and_cap(self):
        spec = SamplerSpec("rademacher-haar", 4, seed=3, level_cap=1)
        d = OperatorDescriptor("paraproduct", (0, 1))
        fs = spec.draw_tuple(0, d, ExponentTuple((2, 2)))
        for f in fs:
            assert sum(f.values) == pytest.approx(0.0)
            # constant on quarters: no contribution below level 1
            for k in range(0, 16, 4):
                assert len({f.values[k + j] for j in range(4)}) == 1

    def test_indicator_family_is_normalized(self):
        spec = SamplerSpec("indicator", 4, seed=5)
        e = ExponentTuple((1, 3))
        d = OperatorDescriptor("paraproduct", (0, 1))
        for trial in range(10):
            fs = spec.draw_tuple(trial, d, e)
            for f, p in zip(fs, e.p):
                assert lp_norm(f, p) == pytest.approx(1.0)


class TestSamplerStreams:
    """The samplers draw into mode scalars directly, the same values from
    the same rng stream as the library calls they stand for; the
    rademacher-haar signs take the stream's words in one batch."""

    def test_sign_indices_are_rng_choice(self):
        # 892 of these 50,000 draws come up short and draw again
        for seed in range(50):
            rng = random.Random(seed)
            want = [rng.choice((0, 1)) for _ in range(1000)]
            for count in range(1, 1001):
                got = _sign_indices(random.Random(seed), count)
                assert list(got) == want[:count], (seed, count)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_rademacher_haar_is_the_choice_draw(self, depth):
        # 200 trials for each m, which take every level cap in turn
        caps = (None, *range(depth))
        specs = [SamplerSpec("rademacher-haar", depth, depth, cap) for cap in caps]
        for m in (1, 2, 3):
            d = OperatorDescriptor("paraproduct", (0,) + (1,) * (m - 1))
            e = ExponentTuple((3,) * m)
            for trial in range(200):
                spec = specs[trial % len(specs)]
                got = spec.draw_tuple(trial, d, e)
                want = loop_rademacher_haar(spec, trial, m)
                assert got == want, (spec.level_cap, m, trial)
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_indicator_is_the_scaled_indicator(self, depth):
        spec = SamplerSpec("indicator", depth, seed=depth)
        for p in ("1", "3/2,2", "1,3,7/3"):
            e = ExponentTuple.from_string(p)
            d = OperatorDescriptor("paraproduct", (0,) + (1,) * (e.m - 1))
            for trial in range(200):
                got = spec.draw_tuple(trial, d, e)
                want = scaled_indicator_draw(spec, trial, e)
                assert got == want and repr(got) == repr(want), (p, trial)

    @pytest.mark.parametrize("depth,m", [(1, 1), (3, 2), (6, 3)])
    def test_random_step_is_rng_uniform(self, depth, m):
        spec = SamplerSpec("random-step", depth, seed=depth)
        d = OperatorDescriptor("paraproduct", (0,) + (1,) * (m - 1))
        e = ExponentTuple((2,) * m)
        for trial in range(20):
            got = spec.draw_tuple(trial, d, e)
            want = uniform_random_step(spec, trial, m)
            assert [f.values for f in got] == [f.values for f in want]

    def test_each_leaf_is_the_fraction(self):
        # every value a leaf can take: n in -24..24 over d in 1..12
        for n in range(-24, 25):
            for d in range(1, 13):
                got, want = _canonical(n, 0, d), Exact(Fraction(n, d))
                assert (got.A, got.B, got.D) == (want.A, want.B, want.D)

    @pytest.mark.parametrize("depth", range(1, 10))
    def test_random_rational_step_is_the_fraction_draw(self, depth):
        for seed in range(40):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_rational_step(got_rng, depth)
            want = fraction_rational_step(want_rng, depth)
            assert got == want
            assert [(v.A, v.B, v.D) for v in got.values] == [
                (v.A, v.B, v.D) for v in want.values
            ]
            assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("depth", range(1, 10))
    def test_verify_symbol_and_constant_are_the_randint_draws(self, depth):
        for seed in range(40):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got, want = cli._random_symbol(got_rng, depth), randint_symbol(want_rng, depth)
            # the same entries in the same order: repr is what a suite's
            # frozen digest reads
            assert repr(got) == repr(want)
            assert cli._random_fractions(got_rng, 3) == randint_fractions(want_rng, 3)
            assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("m", range(1, 11))
    def test_verify_alpha_is_the_choice_draw(self, m):
        alphas = admissible_alphas(m)
        for seed in range(60):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert cli._random_alpha(got_rng, m) == want_rng.choice(alphas)
            assert got_rng.getstate() == want_rng.getstate()

    def test_draws_below_are_randrange(self):
        # one bit, bounds just past a power of two, and bounds of more
        # than one 32-bit word
        bounds = [1, 2, 3, 6, 12, 25, 49, 255, 256, 257, (1 << 32) - 1, 1 << 32,
                  (1 << 32) + 1, (1 << 40) - 1, 10**20 + 7]
        for seed in range(30):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            order = random.Random(-seed).sample(bounds * 3, 3 * len(bounds))
            assert draws_below(got_rng, order) == [want_rng.randrange(n) for n in order]
            assert got_rng.getstate() == want_rng.getstate()


def descriptors_of(kind, bits):
    """A float64 descriptor of ``kind`` with alpha ``bits``, one per slot
    for a commutator."""
    if kind == "paraproduct":
        return [OperatorDescriptor(kind, bits)]
    if kind == "pi_paraproduct":
        return [OperatorDescriptor(kind, bits, b=ANY_B)]
    eps = SymbolSequence.constant(1)
    if kind == "multilinear_multiplier":
        return [OperatorDescriptor(kind, bits, symbol=eps)]
    return [
        OperatorDescriptor(kind, bits, b=ANY_B, symbol=eps, slot=slot)
        for slot in range(1, len(bits) + 1)
    ]


class TestExtremalFamilies:
    def test_multiplier_family_layout(self):
        i = DyadicInterval(2, 1)
        (d,) = descriptors_of("multilinear_multiplier", (0, 1, 0))
        fs = extremal_tuple(d, ExponentTuple((2, 2, 2)), i, 4)
        assert fs[0].expand() == StepFunction.haar(i, 4, FLOAT64)
        assert fs[1].expand() == StepFunction.indicator(i, 4, FLOAT64)
        assert fs[2] == fs[0]

    def test_pi_family_normalized(self):
        e = ExponentTuple((2, 3, Fraction(3, 2)))
        (d,) = descriptors_of("pi_paraproduct", (0, 0, 1))
        for i in [UNIVERSE, DyadicInterval(1, 1), DyadicInterval(3, 5)]:
            fs = extremal_tuple(d, e, i, 4)
            for f, p in zip(fs, e.p):
                assert lp_norm(f, p) == pytest.approx(1.0)

    def test_necessity_case_dispatch(self):
        assert necessity_case((0, 1), 1) == "I"
        assert necessity_case((0, 1), 2) == "II"
        assert necessity_case((0, 0), 1) == "II"
        assert necessity_case((1, 0), 2) == "I"

    def test_case_one_layout(self):
        i = DyadicInterval(2, 2)
        d = descriptors_of("commutator", (1, 0))[1]
        fs = extremal_tuple(d, ExponentTuple((2, 2)), i, 4)
        assert fs[0].expand() == StepFunction.haar(i.parent(), 4, FLOAT64)
        assert fs[1].expand() == StepFunction.indicator(i, 4, FLOAT64)

    @pytest.mark.parametrize("kind", KINDS)
    def test_exponents_must_match_the_arity(self, kind):
        # an extra exponent would silently change r, and a missing one the
        # input norms
        for d in descriptors_of(kind, (0, 1)):
            for ps in ((2,), (2, 2, 2)):
                with pytest.raises(
                    ShapeError, match=rf"^descriptor arity 2 vs {len(ps)} exponents$"
                ):
                    sharp_ratio(d, ExponentTuple(ps), DyadicInterval(1, 0), 4)
            assert sharp_ratio(d, ExponentTuple((2, 2)), DyadicInterval(1, 0), 4) is not None

    @pytest.mark.parametrize("kind", KINDS)
    def test_leaf_interval_has_no_tuple(self, kind):
        # a leaf carries no Haar function, and in case I (alpha 01, slot 1)
        # no Haar sum of b
        for d in descriptors_of(kind, (0, 1)):
            case_one = kind == "commutator" and d.slot == 1
            message = "leaves no Haar sum" if case_one else "no Haar function"
            with pytest.raises(ResolutionError, match=message):
                sharp_ratio(d, ExponentTuple((2, 2)), DyadicInterval(4, 3), 4)

    def test_rational_pi_family_needs_half_integer_powers(self):
        # the scales 2**(level (1/2 - 1/p)) and 2**(level / p) are exact
        # in Q(sqrt 2) only where twice the power is an integer
        (d,) = descriptors_of("pi_paraproduct", (0, 1))
        i = DyadicInterval(1, 0)
        fs = extremal_tuple(d, ExponentTuple((2, 2)), i, 4, RATIONAL)
        assert fs[1].expand() == StepFunction.indicator(i, 4).scale(Exact(0, 1))
        with pytest.raises(
            ValueError, match=r"^2\*\*-1/6 is not exactly representable in rational mode$"
        ):
            extremal_tuple(d, ExponentTuple((3, 3)), i, 4, RATIONAL)

    def test_case_one_needs_parent(self):
        assert extremal_tuple(
            OperatorDescriptor(
                "commutator",
                (0, 1),
                b=StepFunction.from_values([1.0, 0.0], mode=FLOAT64),
                symbol=SymbolSequence.constant(1),
                slot=1,
            ),
            ExponentTuple((2, 2)),
            UNIVERSE,
            3,
        ) is None


class TestExperiments:
    def make_multiplier(self, value=5):
        eps = SymbolSequence(
            default=1, entries={DyadicInterval(1, 0): Fraction(value)}
        )
        return OperatorDescriptor("multilinear_multiplier", (0, 1), symbol=eps)

    def test_extremal_bound_and_best(self):
        d = self.make_multiplier()
        report = estimate_operator_norm(
            d, ExponentTuple((2, 2)), SamplerSpec("random-step", 3, seed=1), trials=20
        )
        assert report.extremal_lower_bound == pytest.approx(5.0)
        assert report.best_ratio >= report.extremal_lower_bound
        assert report.trials == 20
        # extremal jobs land after the random trials
        assert report.best_trial >= 20

    def test_a_form_past_the_float_range_runs_every_sharp_job(self, monkeypatch):
        # a closed form of inf ranks nothing, so each of the 2^depth - 1
        # sharp jobs runs, as with no closed form at all
        d, e, depth, trials = self.make_multiplier(), ExponentTuple((2, 2)), 3, 2
        sampler = SamplerSpec("random-step", depth)
        ranked = estimate_operator_norm(d, e, sampler, trials)
        assert len(ranked.trial_ratios) == trials + 1
        real = normlab.sharp_forms

        def one_infinite(*args):
            forms = real(*args)
            forms[3] = math.inf
            return forms

        monkeypatch.setattr(normlab, "sharp_forms", one_infinite)
        report = estimate_operator_norm(d, e, sampler, trials)
        assert report.trial_ratios[:trials] == ranked.trial_ratios[:trials]
        assert report.trial_ratios[trials:] == tuple(
            (trials + k, sharp_ratio(d.as_float64(), e, interval, depth))
            for k, interval in enumerate(interval_family(depth))
        )
        assert report.extremal_lower_bound == ranked.extremal_lower_bound

    def test_report_names_the_extremal_interval(self):
        d = self.make_multiplier()
        report = estimate_operator_norm(
            d, ExponentTuple((2, 2)), SamplerSpec("random-step", 3, seed=1), trials=20
        )
        obj = report.to_json_dict()
        assert obj["extremal_lower_bound"] == pytest.approx(5.0)
        assert obj["extremal_interval"] == {"level": 1, "pos": 0}
        assert report.extremal_interval == DyadicInterval(1, 0)
        assert obj["skipped_jobs"] == 0

    def test_reports_byte_identical(self):
        d = self.make_multiplier()
        e = ExponentTuple((2, 2))
        s = SamplerSpec("rademacher-haar", 3, seed=9)
        a = estimate_operator_norm(d, e, s, trials=30)
        b = estimate_operator_norm(d, e, s, trials=30)
        assert a.to_json() == b.to_json()

    def test_report_fields(self):
        b = StepFunction.from_values([1, 0, 0, 0])
        d = OperatorDescriptor("pi_paraproduct", (1,), b=b)
        report = estimate_operator_norm(
            d, ExponentTuple((2,)), SamplerSpec("random-step", 2, seed=0), trials=5
        )
        obj = report.to_json_dict()
        assert obj["grid"] == {"depth": 2}
        assert set(obj["b_norms"]) == {"bmo1", "bmo2", "bstar"}
        assert obj["mode"] == "float64"
        assert "artifact_version" in obj

    def test_trials_csv(self):
        d = self.make_multiplier()
        report = estimate_operator_norm(
            d, ExponentTuple((2, 2)), SamplerSpec("random-step", 2, seed=3), trials=4
        )
        lines = report.trials_csv().strip().splitlines()
        assert lines[0] == "trial,ratio"
        assert len(lines) >= 5

    def test_arity_mismatch(self):
        d = self.make_multiplier()
        with pytest.raises(ShapeError):
            estimate_operator_norm(
                d, ExponentTuple((2,)), SamplerSpec("random-step", 3), trials=2
            )

    def test_b_depth_mismatch(self):
        b = StepFunction.from_values([1, 0])
        d = OperatorDescriptor("pi_paraproduct", (1, 1), b=b)
        with pytest.raises(ShapeError):
            estimate_operator_norm(
                d, ExponentTuple((2, 2)), SamplerSpec("random-step", 3), trials=2
            )

    def test_weak_needs_an_endpoint(self):
        d = self.make_multiplier()
        with pytest.raises(ValueError):
            weak_type_ratio(
                d, ExponentTuple((2, 2)), SamplerSpec("random-step", 3), trials=2
            )
        report = weak_type_ratio(
            d, ExponentTuple((1, 2)), SamplerSpec("random-step", 3, seed=4), trials=5
        )
        assert report.weak_type is True
        assert report.best_ratio > 0

    def test_zero_input_trials_skipped(self):
        # indicator slots at level 0 for a commutator Case I family do not
        # exist; those extremal jobs must be skipped, not crash
        b = StepFunction.from_values([1.0, 0.0, 0.0, 0.0], mode=FLOAT64)
        d = OperatorDescriptor(
            "commutator",
            (0, 1),
            b=b,
            symbol=SymbolSequence.constant(1),
            slot=1,
        )
        report = estimate_operator_norm(
            d, ExponentTuple((2, 2)), SamplerSpec("random-step", 2, seed=0), trials=3
        )
        ratios = dict(report.trial_ratios)
        assert ratios[3] is None  # universe-level extremal job skipped
        assert report.best_ratio > 0
        assert report.skipped_jobs == sum(r is None for _, r in report.trial_ratios)
        assert report.to_json_dict()["skipped_jobs"] >= 1

    def test_no_ratio_no_interval(self):
        # b = 0: every commutator output vanishes, so each job has ratio 0
        # and the first interval attains the bound; with all inputs
        # skipped nothing does
        b = StepFunction.zeros(2, FLOAT64)
        d = OperatorDescriptor(
            "commutator", (0, 1), b=b, symbol=SymbolSequence.constant(1), slot=1
        )
        report = estimate_operator_norm(
            d, ExponentTuple((2, 2)), SamplerSpec("random-step", 2, seed=0), trials=2
        )
        assert report.extremal_lower_bound == 0.0
        assert report.extremal_interval == DyadicInterval(1, 0)
        empty = ExperimentReport(
            descriptor=d, exponents=ExponentTuple((2, 2)),
            sampler=SamplerSpec("random-step", 2), trials=1, best_ratio=0.0,
            best_trial=None, extremal_lower_bound=None, weak_type=False,
            b_norms=None, mode=FLOAT64,
        )
        assert empty.to_json_dict()["extremal_interval"] is None


class TestClosedFormRatios:
    def test_multiplier_ratio_is_symbol_value(self):
        depth = 4
        eps = SymbolSequence(
            default=Fraction(1, 3),
            entries={DyadicInterval(2, 1): Fraction(-7, 2)},
        )
        d = OperatorDescriptor("multilinear_multiplier", (0, 1), symbol=eps)
        e = ExponentTuple((2, 2))
        for i in [UNIVERSE, DyadicInterval(2, 1), DyadicInterval(3, 4)]:
            fs = extremal_tuple(d.as_float64(), e, i, depth)
            out = d.as_float64().apply(fs)
            ratio = _lr_quasinorm(out, e.r)
            for f, p in zip(fs, e.p):
                ratio /= lp_norm(f, p)
            assert ratio == pytest.approx(abs(float(eps.value(i))), abs=1e-9)

    def test_pi_ratio_is_haar_coefficient(self):
        depth = 4
        b = StepFunction.from_values(
            [0.5, -1.0, 2.0, 0.25, 0.0, 1.0, -0.5, 0.75,
             1.5, -2.0, 0.0, 0.5, 1.0, -1.0, 0.25, 2.0], mode=FLOAT64
        )
        d = OperatorDescriptor("pi_paraproduct", (0, 1), b=b)
        e = ExponentTuple((2, 2))
        for i in interval_family(depth):
            fs = extremal_tuple(d, e, i, depth)
            out = d.apply(fs)
            ratio = _lr_quasinorm(out, e.r)
            expect = abs(float(pairing(b, i, 0))) * math.sqrt(float(1 << i.level))
            assert ratio == pytest.approx(expect, abs=1e-9)


# alpha, slot and exponents of commutators in case II and in case I; the
# strong forms at r < 1 are None
COMMUTATOR_FORMS = (
    ("01", 2, "2,2"), ("00", 1, "4,4"), ("011", 3, "3,3,3"),
    ("01", 1, "3,3/2"), ("10", 2, "2,3"), ("011", 1, "2,4,4"), ("01", 1, "1,2"),
)

# b's leaf values: uniform, integer-valued (ties and zeros on intervals),
# and sizes whose squares overflow or underflow
B_VALUES = {
    "uniform": lambda rng: rng.uniform(-1, 1),
    "integer": lambda rng: float(rng.randint(-3, 3)),
    "huge": lambda rng: rng.uniform(-1, 1) * 1e200,
    "tiny": lambda rng: rng.uniform(-1, 1) * 1e-170,
}


class TestCommutatorForms:
    """The commutator's closed forms are the power means and weak
    quasinorms of forests of centered rows; ``oscillation_forms`` takes
    each interval's oscillation scaled by its largest |value|."""

    @pytest.mark.parametrize("data", sorted(B_VALUES))
    def test_forms_match_the_scaled_oscillations(self, data):
        rng = random.Random(f"forms:{data}")
        for depth in range(1, 10):
            b = StepFunction._raw(
                depth, [B_VALUES[data](rng) for _ in range(1 << depth)], FLOAT64
            )
            eps = SymbolSequence(Fraction(1, 2), {
                i: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                for i in interval_family(depth)
                if rng.random() < 0.8
            })
            for alpha, slot, p in COMMUTATOR_FORMS:
                d = OperatorDescriptor(
                    "commutator", AlphaVector.from_string(alpha), b, eps, slot
                )
                exps = ExponentTuple.from_string(p)
                weak = sharp_forms(d, exps, depth, True)
                assert weak == oscillation_forms(d, exps, True), (depth, alpha, slot)
                got, want = sharp_forms(d, exps, depth), oscillation_forms(d, exps, False)
                assert [g is None for g in got] == [w is None for w in want]
                top = max((w for w in want if w is not None), default=0.0)
                # a plain power mean raises its mean to the float 1/r, whose
                # rounding error grows with |ln mean| for a fractional r:
                # 3.5e-15 of the form at r = 6/5 and |b| near 1e200
                plain = exps.r.denominator == 1 or data in ("uniform", "integer")
                tol = (1e-15 if plain else 1e-14) * top
                for g, w in zip(got, want):
                    if w is not None:
                        assert math.isfinite(g) and abs(g - w) <= tol, (depth, p)


def block_sizes_agree(monkeypatch, desc, exps, sampler, trials, weak):
    """The report, its trials CSV and its skipped jobs with blocks of one
    trial, of three and of the default ``BLOCK_LEAVES``."""
    default = normlab.BLOCK_LEAVES
    outs = []
    for leaves in (1 << sampler.depth, 3 << sampler.depth, default):
        monkeypatch.setattr(normlab, "BLOCK_LEAVES", leaves)
        report = normlab._run_experiment(desc, exps, sampler, trials, weak)
        outs.append((report.to_json(), report.trials_csv(), report.skipped_jobs))
    assert outs[0] == outs[1] == outs[2]
    return report


class TestBlocks:
    """The random trials are measured a block of ``BLOCK_LEAVES`` leaves per
    slot at a time; the report does not depend on the block size.  At depth
    4 the default block holds 64 trials, so 10 trials are one block of it
    and blocks of 1, 3, 3, 3 of the others."""

    DEPTH = 4
    TRIALS = 10

    def descriptor(self, kind, bits, b_scale=1.0):
        rng = random.Random(kind)
        n = 1 << self.DEPTH
        b = StepFunction.from_values(
            [b_scale * rng.uniform(-1.0, 1.0) for _ in range(n)], FLOAT64
        )
        eps = SymbolSequence(
            default=Fraction(1, 2),
            entries={i: Fraction(rng.randint(-9, 9), 4) for i in interval_family(self.DEPTH)},
        )
        if kind == "paraproduct":
            return OperatorDescriptor(kind, bits)
        if kind == "pi_paraproduct":
            return OperatorDescriptor(kind, bits, b=b)
        if kind == "multilinear_multiplier":
            return OperatorDescriptor(kind, bits, symbol=eps)
        # slot 1 is the only Haar slot: case I, so the extremal family has
        # no tuple at the universe
        return OperatorDescriptor(kind, bits, b=b, symbol=eps, slot=1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("weak", [False, True])
    def test_every_kind_and_family(self, monkeypatch, kind, family, weak):
        desc = self.descriptor(kind, (0, 1))
        exps = ExponentTuple((1, 2) if weak else (2, 3))
        sampler = SamplerSpec(family, self.DEPTH, seed=5)
        report = block_sizes_agree(monkeypatch, desc, exps, sampler, self.TRIALS, weak)
        if family == "extremal" and kind == "commutator":
            assert any(ratio is None for _, ratio in report.trial_ratios[: self.TRIALS])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_strong_quasinorm_below_one(self, monkeypatch, family):
        desc = self.descriptor("multilinear_multiplier", (0, 0, 1))
        exps = ExponentTuple((1, 3, 2))
        assert exps.r < 1
        sampler = SamplerSpec(family, self.DEPTH, seed=6)
        block_sizes_agree(monkeypatch, desc, exps, sampler, 7, False)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("weak", [False, True])
    def test_all_ones_paraproduct(self, monkeypatch, family, weak):
        # sigma = 0: each trial's output is one constant
        desc = self.descriptor("paraproduct", (1, 1))
        exps = ExponentTuple((1, 2) if weak else (2, 2))
        sampler = SamplerSpec(family, self.DEPTH, seed=7)
        block_sizes_agree(monkeypatch, desc, exps, sampler, self.TRIALS, weak)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_output_powers_past_the_float_range(self, monkeypatch, family):
        # |b| near 1e200 at p = 4,4: the fourth powers of the output
        # overflow, so each tree takes the scaled power mean on its own
        desc = self.descriptor("pi_paraproduct", (0, 1), b_scale=1e200)
        exps = ExponentTuple((4, 4))
        sampler = SamplerSpec(family, self.DEPTH, seed=8)
        report = block_sizes_agree(monkeypatch, desc, exps, sampler, self.TRIALS, False)
        assert math.isfinite(report.best_ratio) and report.best_ratio > 1e150
