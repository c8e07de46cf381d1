"""Acceptance suite: one test per shipping criterion.

Each test name carries its criterion number so a verbose run prints one
pass/fail line per criterion.  Exact checks compare scalars with ==; the
float-mode checks pin their tolerances as constants here.
"""

import math
import random
from fractions import Fraction

import pytest

from dyadicops import (
    UNIVERSE,
    DyadicInterval,
    Exact,
    ExponentTuple,
    OperatorDescriptor,
    SamplerSpec,
    StepFunction,
    SymbolSequence,
    admissible_alphas,
    adjoint_residual,
    analyze,
    bmo2_via_haar_sq,
    bmo_norm_pow,
    bstar_seminorm,
    commutator,
    cz_decompose,
    estimate_operator_norm,
    extremal_tuple,
    inner_product,
    interval_family,
    localized_average_residual,
    lp_norm,
    lp_norm_pow,
    maximal,
    multilinear_multiplier,
    pairing,
    paraproduct,
    pi_paraproduct,
    product_decomposition_residual,
    sharp_forms,
    sharp_ratio,
    square_function,
    synthesize,
)
from dyadicops.core import average_table, coefficient_table
from dyadicops.normlab import _lr_quasinorm
from dyadicops.scalars import FLOAT64

FLOAT_TOL = 1e-9
SLACK_TOL = -1e-12


def random_step(rng, depth, numer=12, denom=8):
    return StepFunction.from_values(
        [
            Fraction(rng.randint(-numer, numer), rng.randint(1, denom))
            for _ in range(1 << depth)
        ]
    )


def random_float_step(rng, depth):
    return StepFunction._raw(
        depth, [rng.uniform(-1.0, 1.0) for _ in range(1 << depth)], FLOAT64
    )


def test_criterion_01_exact_decomposition():
    rng = random.Random(101)
    for m in (2, 3, 4):
        for depth in range(2, 7):
            for _ in range(100):
                fs = [random_step(rng, depth, numer=6, denom=4) for _ in range(m)]
                assert product_decomposition_residual(fs).is_zero()
                level = rng.randint(1, depth)
                j = DyadicInterval(level, rng.randrange(1 << level))
                assert localized_average_residual(j, fs).is_zero()


def test_criterion_02_haar_algebra():
    rng = random.Random(202)
    for depth in range(1, 7):
        for _ in range(10):
            f = random_step(rng, depth)
            spec = analyze(f)
            assert synthesize(spec) == f
            total = spec.mean * spec.mean
            for i in interval_family(depth):
                c = spec.coefficient(i)
                total = total + c * c
            assert total == lp_norm_pow(f, 2)
    # orthonormality: analyze(h_J) has a single unit coefficient at J
    for depth in range(1, 7):
        for j in interval_family(depth):
            spec = analyze(StepFunction.haar(j, depth))
            assert spec.mean == Exact(0)
            for i in interval_family(depth):
                expect = Exact(1) if i == j else Exact(0)
                assert spec.coefficient(i) == expect
    # pairwise inner products, full table at moderate depth
    depth = 4
    hs = {i: StepFunction.haar(i, depth) for i in interval_family(depth)}
    for a, f in hs.items():
        for b, g in hs.items():
            assert inner_product(f, g) == (Exact(1) if a == b else Exact(0))


def test_criterion_03_multiplier_coefficient_law():
    rng = random.Random(303)
    for depth in range(1, 7):
        fam = interval_family(depth)
        for _ in range(50):
            f = random_step(rng, depth)
            eps = SymbolSequence(
                default=0,
                entries={
                    i: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for i in fam
                },
            )
            out_spec = analyze(multilinear_multiplier(eps, (0,), [f]))
            in_spec = analyze(f)
            for i in fam:
                assert out_spec.coefficient(i) == Exact(
                    eps.value(i)
                ) * in_spec.coefficient(i)


def test_criterion_04a_pi_extremal_ratio():
    depth = 5
    rng = random.Random(404)
    b = random_float_step(rng, depth)
    alpha = (0, 0, 1)  # two Haar slots: sigma(alpha) > 1
    exps = ExponentTuple((2, 3, 2))
    desc = OperatorDescriptor("pi_paraproduct", alpha, b=b)
    for j in interval_family(depth):
        fs = extremal_tuple(desc, exps, j, depth)
        out = pi_paraproduct(alpha, b, fs)
        got = _lr_quasinorm(out, exps.r)
        expect = abs(pairing(b, j, 0)) * math.sqrt(float(1 << j.level))
        assert got == pytest.approx(expect, abs=FLOAT_TOL)


def test_criterion_04b_multiplier_extremal_ratio():
    depth = 5
    rng = random.Random(414)
    eps = SymbolSequence(
        default=Fraction(1, 2),
        entries={
            i: Fraction(rng.randint(-40, 40), rng.randint(1, 8))
            for i in interval_family(depth)
        },
    )
    for alpha, exps in [
        ((0, 1), ExponentTuple((2, 2))),
        ((0, 0, 1), ExponentTuple((1, 3, 2))),
    ]:
        desc = OperatorDescriptor("multilinear_multiplier", alpha, symbol=eps)
        for i in interval_family(depth):
            fs = extremal_tuple(desc, exps, i, depth)
            out = multilinear_multiplier(eps, alpha, fs)
            ratio = _lr_quasinorm(out, exps.r)
            for f, p in zip(fs, exps.p):
                ratio /= lp_norm(f, p)
            assert ratio == pytest.approx(abs(float(eps.value(i))), abs=FLOAT_TOL)


def test_criterion_04c_commutator_case_two_ratio():
    depth = 5
    rng = random.Random(424)
    b = random_float_step(rng, depth)
    ones = SymbolSequence.constant(1)
    cases = [
        ((0, 1), 2, ExponentTuple((2, 2))),   # average slot
        ((0, 0), 1, ExponentTuple((2, 4))),   # haar slot, sigma = 2
        ((0, 0, 1), 3, ExponentTuple((2, 2, 2))),
    ]
    for alpha, slot, exps in cases:
        r = exps.r
        desc = OperatorDescriptor("commutator", alpha, b=b, symbol=ones, slot=slot)
        for i in interval_family(depth):
            fs = extremal_tuple(desc, exps, i, depth)
            out = commutator(slot, b, ones, alpha, fs)
            ratio = _lr_quasinorm(out, r)
            for f, p in zip(fs, exps.p):
                ratio /= lp_norm(f, p)
            avg = pairing(b, i, 1)
            osc = (b - StepFunction.constant(avg, depth, FLOAT64)).restrict(i)
            expect = _lr_quasinorm(osc, r) * (1 << i.level) ** (1.0 / float(r))
            assert ratio == pytest.approx(expect, abs=FLOAT_TOL)


def test_criterion_04d_commutator_case_one_exact():
    depth = 5
    rng = random.Random(434)
    b = random_step(rng, depth)
    spec = analyze(b)
    ones = SymbolSequence.constant(1)
    for alpha, slot in [((0, 1), 1), ((1, 0), 2), ((1, 0, 1), 2)]:
        m = len(alpha)
        for level in (1, 2, 4):
            for pos in (0, (1 << level) - 1):
                i0 = DyadicInterval(level, pos)
                parent = i0.parent()
                h_parent = StepFunction.haar(parent, depth)
                fs = [h_parent] * m
                fs[slot - 1] = StepFunction.indicator(i0, depth)
                # the plain operator vanishes identically
                assert multilinear_multiplier(ones, alpha, fs).is_zero()
                got = commutator(slot, b, ones, alpha, fs)
                # documented sign: + when I0 is the right half of its parent
                k = 1 if i0.is_right_half() else -1
                weight = (Exact(k) * Exact.root2_power(parent.level)) ** (m - 1)
                expect = StepFunction.zeros(depth)
                for i in interval_family(depth):
                    if i0.contains(i):
                        c = spec.coefficient(i)
                        if c != Exact(0):
                            expect = expect + StepFunction.haar(i, depth).scale(
                                weight * c
                            )
                assert got == expect


# (alpha, slot, p) per sharp family; r < 1 where every p is 1 and m > 1
SHARP_CASES = {
    "pi": [((0, 1), None, (2, 3)), ((0, 0, 1), None, (2, 3, 2)), ((1, 0), None, (1, 1))],
    "multiplier": [((0, 1), None, (2, 2)), ((0, 0, 1), None, (1, 3, 2))],
    "commutator-II": [
        ((0, 1), 2, (2, 2)), ((0, 0), 1, (2, 4)), ((0, 0, 1), 3, (2, 2, 2)),
        ((0, 1), 2, (1, 1)),
    ],
    "commutator-I": [
        ((0, 1), 1, (2, 2)), ((1, 0), 2, (Fraction(3, 2), 3)), ((1, 0, 1), 2, (1, 1, 1)),
    ],
}


@pytest.mark.parametrize("weak", [False, True])
@pytest.mark.parametrize("family", sorted(SHARP_CASES))
def test_criterion_04e_closed_forms_rank_the_sharp_jobs(family, weak):
    """The closed forms that rank the sharp jobs (``sharp_forms``: the
    ratios of criteria 04a-04d, with a non-constant symbol) against each
    job's evaluated ratio, at every interval: within FLOAT_TOL times the
    largest closed form, at depths 1-6, for uniform and integer-valued b."""
    rng = random.Random(f"04e:{family}:{weak}")
    for depth in range(1, 7):
        n = 1 << depth
        eps = SymbolSequence(
            default=Fraction(1, 2),
            entries={
                i: Fraction(rng.randint(-40, 40), rng.randint(1, 8))
                for i in interval_family(depth)
                if rng.random() < 0.8
            },
        )
        for b in (
            random_float_step(rng, depth),
            StepFunction._raw(depth, [float(rng.randint(-2, 2)) for _ in range(n)], FLOAT64),
        ):
            for alpha, slot, ps in SHARP_CASES[family]:
                if family == "pi":
                    desc = OperatorDescriptor("pi_paraproduct", alpha, b=b)
                elif family == "multiplier":
                    desc = OperatorDescriptor("multilinear_multiplier", alpha, symbol=eps)
                else:
                    desc = OperatorDescriptor("commutator", alpha, b=b, symbol=eps, slot=slot)
                exps = ExponentTuple((1, *ps[1:]) if weak else ps)
                forms = sharp_forms(desc, exps, depth, weak)
                if family.startswith("commutator") and exps.r < 1 and not weak:
                    # not Lipschitz at 0: no closed form ranks these jobs
                    assert forms == [None] * len(forms)
                    continue
                top = max((form for form in forms if form is not None), default=0.0)
                for i, form in zip(interval_family(depth), forms):
                    ratio = sharp_ratio(desc, exps, i, depth, weak)
                    if form is None:
                        # case I at the universe: no tuple
                        assert ratio is None and i == UNIVERSE and family == "commutator-I"
                        continue
                    assert abs(ratio - form) <= FLOAT_TOL * top, (alpha, slot, i)


def test_criterion_04e_no_closed_form_runs_every_sharp_job():
    """Paraproducts, whose sharp ratios are all 1, and pi with b's slot its
    only Haar slot have no closed form: every sharp job runs."""
    depth = 4
    b = random_float_step(random.Random(444), depth)
    exps = ExponentTuple((2, 2))
    for desc in (
        OperatorDescriptor("paraproduct", (0, 1)),
        OperatorDescriptor("paraproduct", (1, 1)),
        OperatorDescriptor("pi_paraproduct", (1, 1), b=b),
    ):
        assert sharp_forms(desc, exps, depth) == [None] * ((1 << depth) - 1)
        report = estimate_operator_norm(desc, exps, SamplerSpec("random-step", depth), trials=1)
        assert [k for k, _ in report.trial_ratios] == list(range(1 << depth))


def test_criterion_05_pointwise_dominations():
    rng = random.Random(505)
    # bilinear Cauchy-Schwarz bound at the deepest grid
    for _ in range(100):
        depth = rng.randint(4, 8)
        f = random_float_step(rng, depth)
        g = random_float_step(rng, depth)
        cf, cg = coefficient_table(f), coefficient_table(g)
        sf, sg = square_function(f), square_function(g)
        lhs = [0.0] * (1 << depth)
        for level in range(depth):
            for pos in range(1 << level):
                term = abs(cf[level][pos]) * abs(cg[level][pos]) * (1 << level)
                width = 1 << (depth - level)
                for leaf in range(pos * width, (pos + 1) * width):
                    lhs[leaf] += term
        for leaf in range(1 << depth):
            slack = sf.values[leaf] * sg.values[leaf] - lhs[leaf]
            assert slack >= SLACK_TOL
    # sigma >= 2 domination by maximal and square functions
    alphas = [(0, 0), (0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 1, 0, 0)]
    for trial in range(100):
        alpha = alphas[trial % len(alphas)]
        m = len(alpha)
        depth = rng.randint(3, 8 - m // 2)
        fs = [random_float_step(rng, depth) for _ in range(m)]
        out = paraproduct(alpha, fs)
        zeros = [j for j, bit in enumerate(alpha) if bit == 0]
        j1, j2 = zeros[0], zeros[1]
        parts = []
        for j in range(m):
            parts.append(
                square_function(fs[j]) if j in (j1, j2) else maximal(fs[j])
            )
        for leaf in range(1 << depth):
            bound = 1.0
            for part in parts:
                bound *= part.values[leaf]
            assert bound - abs(out.values[leaf]) >= SLACK_TOL


def test_criterion_06_bmo_suite():
    rng = random.Random(606)
    for _ in range(1000):
        depth = rng.randint(1, 4)
        b = random_step(rng, depth, numer=8, denom=5)
        one = bmo_norm_pow(b, 1)
        two = bmo_norm_pow(b, 2)
        assert bmo2_via_haar_sq(b) == two
        assert one * one <= two
        star = bstar_seminorm(b)
        assert star * star <= two
    for depth in (1, 3):
        c = StepFunction.constant(Fraction(-13, 7), depth)
        assert bmo_norm_pow(c, 1) == Exact(0)
        assert bmo_norm_pow(c, 2) == Exact(0)
        assert bstar_seminorm(c) == Exact(0)


def test_criterion_07_cz_suite():
    rng = random.Random(707)
    checked = 0
    while checked < 500:
        depth = rng.randint(2, 5)
        f = random_step(rng, depth, numer=10, denom=6)
        mean = sum(f.abs().values, Exact(0)) / (1 << depth)
        factor = Fraction(rng.randint(1, 40), rng.randint(1, 10))
        if factor < 1:
            factor = 1 / factor
        height = mean * factor
        if not height > Exact(0):
            continue
        d = cz_decompose(f, height.as_fraction())
        avgs = average_table(f.abs())
        # 1: reconstruction
        assert d.reconstruct() == f
        # 2: zero means
        one = StepFunction.constant(1, depth)
        for _, part in d.parts:
            assert inner_product(part, one) == Exact(0)
        # 3: support
        for i, part in d.parts:
            assert part.vanishes_outside(i)
        # 4: disjoint maximality
        for i in d.intervals:
            assert avgs[i.level][i.position] > d.height
            p = i.parent()
            assert avgs[p.level][p.position] <= d.height
            for j in d.intervals:
                if i != j:
                    assert not i.contains(j)
        # 5: total selected measure <= ||f||_1 / height
        total = sum((i.length for i in d.intervals), Fraction(0))
        assert Exact(total) * d.height <= lp_norm(f, 1)
        # 6: good part bounded by twice the height
        assert all(abs(v) <= 2 * d.height for v in d.good.values)
        checked += 1


def test_criterion_08_support_vanishing():
    rng = random.Random(808)
    for depth in (3, 6):
        for m in (1, 2, 3, 4):
            all_alphas = [tuple(a.bits) for a in admissible_alphas(m)]
            for alpha in all_alphas:
                for slot in range(m):
                    level = rng.randint(1, depth - 1)
                    i0 = DyadicInterval(level, rng.randrange(1 << level))
                    fs = [random_step(rng, depth, numer=5, denom=3) for _ in range(m)]
                    fs[slot] = StepFunction.haar(i0, depth)
                    assert paraproduct(alpha, fs).vanishes_outside(i0)
                    b = random_step(rng, depth, numer=5, denom=3)
                    assert pi_paraproduct(alpha, b, fs).vanishes_outside(i0)
            # the symbol paraproduct also allows the all-average alpha
            alpha = (1,) * m
            for slot in range(m):
                level = rng.randint(1, depth - 1)
                i0 = DyadicInterval(level, rng.randrange(1 << level))
                fs = [random_step(rng, depth, numer=5, denom=3) for _ in range(m)]
                fs[slot] = StepFunction.haar(i0, depth)
                b = random_step(rng, depth, numer=5, denom=3)
                assert pi_paraproduct(alpha, b, fs).vanishes_outside(i0)


def test_criterion_09_commutator_sanity():
    rng = random.Random(909)
    # constant symbol functions commute exactly
    for _ in range(25):
        m = rng.choice((2, 3))
        depth = rng.randint(2, 4)
        fs = [random_step(rng, depth) for _ in range(m)]
        eps = SymbolSequence(
            default=1,
            entries={
                i: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for i in interval_family(depth)
                if rng.random() < 0.5
            },
        )
        b = StepFunction.constant(Fraction(rng.randint(-9, 9), 2), depth)
        alpha = rng.choice(admissible_alphas(m))
        slot = rng.randint(1, m)
        assert commutator(slot, b, eps, alpha, fs).is_zero()
    # permutation symmetry
    for _ in range(25):
        m = rng.choice((2, 3))
        depth = rng.randint(2, 4)
        fs = [random_step(rng, depth) for _ in range(m)]
        alpha = tuple(rng.choice(admissible_alphas(m)).bits)
        base = paraproduct(alpha, fs)
        perm = list(range(m))
        rng.shuffle(perm)
        assert paraproduct(
            tuple(alpha[p] for p in perm), [fs[p] for p in perm]
        ) == base
    # adjoint and transpose dualities
    for _ in range(25):
        depth = rng.randint(2, 4)
        f1, f2, g = (random_step(rng, depth) for _ in range(3))
        para = OperatorDescriptor("paraproduct", (0, 1))
        assert adjoint_residual(para, 2, [f1, f2], g) == Exact(0)
        m = rng.choice((1, 2, 3))
        b = random_step(rng, depth)
        fs = [random_step(rng, depth) for _ in range(m)]
        alpha = (0,) + (1,) * (m - 1)
        pi = OperatorDescriptor("pi_paraproduct", alpha, b=b)
        assert adjoint_residual(pi, 1, fs, g) == Exact(0)


def test_criterion_10_reproducibility():
    b = StepFunction.from_values([1, 0, 2, -1, 0, 0, 1, 3])
    descriptors = [
        OperatorDescriptor("paraproduct", (0, 1)),
        OperatorDescriptor("pi_paraproduct", (0, 1), b=b),
        OperatorDescriptor(
            "multilinear_multiplier",
            (0, 1),
            symbol=SymbolSequence(default=1, entries={DyadicInterval(1, 1): 4}),
        ),
        OperatorDescriptor(
            "commutator", (0, 1), b=b, symbol=SymbolSequence.constant(1), slot=1
        ),
    ]
    exps = ExponentTuple((2, 2))
    for d in descriptors:
        for family in ("random-step", "rademacher-haar", "extremal"):
            sampler = SamplerSpec(family, 3, seed=17)
            first = estimate_operator_norm(d, exps, sampler, trials=20)
            second = estimate_operator_norm(d, exps, sampler, trials=20)
            assert first.to_json() == second.to_json()
            if first.extremal_lower_bound is not None:
                assert first.best_ratio >= first.extremal_lower_bound
