"""Independent reference implementations used to cross-check the library.

Everything here evaluates the literal defining formulas with per-leaf
loops, deliberately avoiding the bottom-up tables and span accumulation
the package uses, so agreement is meaningful.
"""

import math
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, islice

from dyadicops import (
    UNIVERSE,
    AlphaVector,
    DyadicInterval,
    Exact,
    StepFunction,
    SymbolSequence,
    extremal_tuple,
    interval_family,
    multilinear_multiplier,
    necessity_case,
)
from dyadicops import scalars
from dyadicops.core import SupportView, block_runs, coefficient_table, seen
from dyadicops.normlab import multiplier_sharp_forms
from dyadicops.paraproducts import _check_call, _grid_rows
from dyadicops.sublinear import _centered_rows
from dyadicops.scalars import FLOAT64, RATIONAL, frac_sqrt
from dyadicops.scalars import one as scalar_one, zero as scalar_zero


def recursive_alphas(m: int) -> list[AlphaVector]:
    """The admissible alphas of arity m by the recursion itself: those of
    arity m - 1 with 1 appended, then with 0 appended, then (1, ..., 1, 0)."""
    if m == 1:
        return [AlphaVector((0,))]
    prev = recursive_alphas(m - 1)
    out = [AlphaVector(a.bits + (1,)) for a in prev]
    out += [AlphaVector(a.bits + (0,)) for a in prev]
    out.append(AlphaVector((1,) * (m - 1) + (0,)))
    return out


def leaf_interval(leaf: int, depth: int) -> DyadicInterval:
    return DyadicInterval(depth, leaf)


def naive_haar(interval: DyadicInterval, leaf: int, depth: int, mode=RATIONAL):
    """Literal piecewise definition of the Haar function on one leaf."""
    width = 1 << (depth - interval.level)
    start = interval.position * width
    if not start <= leaf < start + width:
        return scalar_zero(mode)
    if mode == RATIONAL:
        mag = Exact.root2_power(interval.level)
    else:
        mag = 2.0 ** (interval.level / 2)
    return mag if leaf >= start + width // 2 else -mag


def naive_indicator(interval: DyadicInterval, leaf: int, depth: int, mode=RATIONAL):
    """Literal definition of the indicator of an interval on one leaf."""
    width = 1 << (depth - interval.level)
    start = interval.position * width
    return scalar_one(mode) if start <= leaf < start + width else scalar_zero(mode)


def naive_integral(f: StepFunction, interval: DyadicInterval):
    acc = scalar_zero(f.mode)
    for leaf in interval.leaf_span(f.depth):
        acc = acc + f.values[leaf]
    if f.mode == RATIONAL:
        return acc * Fraction(1, 1 << f.depth)
    return acc / (1 << f.depth)


def naive_average(f: StepFunction, interval: DyadicInterval):
    if f.mode == RATIONAL:
        return naive_integral(f, interval) * (1 << interval.level)
    return naive_integral(f, interval) * float(1 << interval.level)


def naive_coefficient(f: StepFunction, interval: DyadicInterval):
    """<f, h_I> summed leaf by leaf."""
    acc = scalar_zero(f.mode)
    for leaf in range(1 << f.depth):
        acc = acc + f.values[leaf] * naive_haar(interval, leaf, f.depth, f.mode)
    if f.mode == RATIONAL:
        return acc * Fraction(1, 1 << f.depth)
    return acc / (1 << f.depth)


def naive_pairing(f: StepFunction, interval: DyadicInterval, bit: int):
    return naive_coefficient(f, interval) if bit == 0 else naive_average(f, interval)


def divided_pairing(f: StepFunction, interval: DyadicInterval, bit: int) -> float:
    """Float64 ``pairing`` by the division formulas: the leaf sum over I
    divided by its leaf count for bit 1; for bit 0 the right half's sum
    minus the left half's, times 2.0 ** (level / 2 - depth)."""
    span = interval.leaf_span(f.depth)
    half = len(span) // 2
    acc = 0.0
    for i, leaf in enumerate(span):
        if bit == 1 or i >= half:
            acc = acc + f.values[leaf]
        else:
            acc = acc - f.values[leaf]
    if bit == 1:
        return acc / len(span)
    return acc * (2.0 ** (interval.level / 2.0 - f.depth))


def divided_inner_product(f: StepFunction, g: StepFunction) -> float:
    """Float64 ``inner_product``: the leaf sum of f*g divided by 2**depth."""
    acc = 0.0
    for x, y in zip(f.values, g.values):
        acc = acc + x * y
    return acc / (1 << f.depth)


def divided_lp_norm_pow(f: StepFunction, k: int) -> float:
    """Float64 ``lp_norm_pow`` for an int k: the correctly rounded sum of
    |v| ** k over the expanded leaves, divided by 2**depth."""
    return math.fsum(abs(v) ** k for v in f.expand().values) / (1 << f.depth)


def pow_power_mean(f, q) -> float:
    """Float64 ``power_mean`` of one tree with a libm ``pow`` for every
    power: the correctly rounded mean of |v| ** q over the leaves and the
    block runs of f, to the power 1/q, and M * (mean of (|v| / M) ** q)
    ** (1/q) with M = max |f| when a power overflows or the mean leaves
    the normal floats."""
    pf = float(q)
    sizes = [(abs(v), 1) for v in f.values] + [(abs(v), c) for v, c in block_runs(f)]

    def mean(top):
        return math.fsum((v / top) ** pf * c for v, c in sizes) / (1 << f.depth)

    try:
        plain = mean(1.0)
    except OverflowError:
        plain = math.inf
    if sys.float_info.min <= plain < math.inf:
        return plain ** (1.0 / pf)
    top = max(v for v, _ in sizes)
    return top * mean(top) ** (1.0 / pf) if top else 0.0


def naive_haar_power_value(interval, leaf, sigma, depth, mode=RATIONAL):
    if sigma == 0:
        return scalar_one(mode)
    v = scalar_one(mode)
    h = naive_haar(interval, leaf, depth, mode)
    for _ in range(sigma):
        v = v * h
    return v


def naive_paraproduct(bits, fs, eps_value=None) -> StepFunction:
    """Triple loop over intervals and leaves, straight from the definition."""
    depth, mode = fs[0].depth, fs[0].mode
    sigma = list(bits).count(0)
    vals = [scalar_zero(mode)] * (1 << depth)
    for interval in interval_family(depth):
        t = scalar_one(mode)
        for bit, f in zip(bits, fs):
            t = t * naive_pairing(f, interval, bit)
        if eps_value is not None:
            t = t * eps_value(interval)
        for leaf in range(1 << depth):
            vals[leaf] = vals[leaf] + t * naive_haar_power_value(
                interval, leaf, sigma, depth, mode
            )
    return StepFunction(depth, tuple(vals), mode)


def _leafwise_product(f: StepFunction, g: StepFunction) -> StepFunction:
    values = tuple(x * y for x, y in zip(f.values, g.values))
    return StepFunction(f.depth, values, f.mode)


def naive_operator(descriptor, fs) -> StepFunction:
    """The descriptor's operator on full-grid inputs, through
    ``naive_paraproduct``; the commutator from its definition, leaf by
    leaf."""
    bits = descriptor.alpha.bits
    if descriptor.kind == "paraproduct":
        return naive_paraproduct(bits, fs)
    if descriptor.kind == "pi_paraproduct":
        return naive_paraproduct((0, *bits), [descriptor.b, *fs])
    mode = fs[0].mode

    def eps_value(interval):
        return scalars.coerce(descriptor.symbol.value(interval), mode)

    if descriptor.kind == "multilinear_multiplier":
        return naive_paraproduct(bits, fs, eps_value)
    b, i = descriptor.b, descriptor.slot
    moved = list(fs)
    moved[i - 1] = _leafwise_product(b, fs[i - 1])
    inside = naive_paraproduct(bits, moved, eps_value)
    outside = naive_paraproduct(bits, fs, eps_value)
    values = (x - c * y for x, c, y in zip(inside.values, b.values, outside.values))
    return StepFunction(b.depth, tuple(values), mode)


def matrix_adjoint(descriptor, slot: int, fs, g) -> StepFunction:
    """The transpose of the slot-``slot`` operator's N x N matrix, other
    slots fixed by fs, applied to g.

    Column k is ``naive_operator`` with the indicator of leaf k in the
    slot.  Both sides of <T f, g> = <f, T* g> carry the same 1/N, so the
    adjoint's matrix is the plain transpose."""
    depth, mode = g.depth, g.mode
    n = 1 << depth
    columns = []
    for k in range(n):
        unit = [scalar_zero(mode)] * n
        unit[k] = scalar_one(mode)
        moved = list(fs)
        moved[slot - 1] = StepFunction(depth, tuple(unit), mode)
        columns.append(naive_operator(descriptor, moved).values)
    out = []
    for column in columns:
        acc = scalar_zero(mode)
        for x, y in zip(column, g.values):
            acc = acc + x * y
        out.append(acc)
    return StepFunction(depth, tuple(out), mode)


def naive_maximal(f: StepFunction) -> StepFunction:
    absf = f.abs()
    vals = []
    for leaf in range(1 << f.depth):
        chain = [DyadicInterval(lvl, leaf >> (f.depth - lvl)) for lvl in range(f.depth + 1)]
        vals.append(max(naive_average(absf, i) for i in chain))
    return StepFunction(f.depth, tuple(vals), f.mode)


def naive_square_sq(f: StepFunction) -> StepFunction:
    vals = []
    for leaf in range(1 << f.depth):
        acc = scalar_zero(f.mode)
        for lvl in range(f.depth):
            i = DyadicInterval(lvl, leaf >> (f.depth - lvl))
            c = naive_coefficient(f, i)
            acc = acc + c * c * (1 << lvl)
        vals.append(acc)
    return StepFunction(f.depth, tuple(vals), f.mode)


def naive_oscillation_pow(b: StepFunction, interval: DyadicInterval, r: int):
    """The average over the interval of |b - <b>_I|**r, leaf by leaf."""
    m = naive_average(b, interval)
    acc = scalar_zero(b.mode)
    for leaf in interval.leaf_span(b.depth):
        d = abs(b.values[leaf] - m)
        acc = acc + (d if r == 1 else d * d)
    width = len(interval.leaf_span(b.depth))
    return acc * Fraction(1, width) if b.mode == RATIONAL else acc / width


def l1_oscillation_table(b: StepFunction) -> list[list]:
    """table[level][pos] = average over the interval of |b - <b>_I|, every
    interval of b summed: each level's row of b - <b>_I
    (``_centered_rows``) cut into its intervals, |.| totalled with
    ``scalars.total`` and scaled by 1/|I|; the leaf row, where <b>_I is b,
    is zero.  The full table that the BMO1 search of ``bmo_norm_pow``
    replaces, and its reference: each entry is the value the search would
    evaluate there."""
    table = []
    # zip stops before the leaf row, which is not built
    for level, row in zip(range(b.depth), _centered_rows(b)):
        width = 1 << (b.depth - level)
        scale = scalars.reciprocal(width, b.mode)
        mags = map(abs, row)  # each interval takes the next width leaves
        table.append([
            scalars.total(islice(mags, width), b.mode) * scale
            for _ in range(1 << level)
        ])
    table.append([scalar_zero(b.mode)] * (1 << b.depth))
    return table


def full_bmo1(b: StepFunction):
    """The largest entry of ``l1_oscillation_table``, zero if none: the
    full-table BMO1 sup."""
    return max((v for row in l1_oscillation_table(b) for v in row), default=scalar_zero(b.mode))


def naive_bmo_pow(b: StepFunction, r: int):
    best = scalar_zero(b.mode)
    for lvl in range(b.depth + 1):
        for pos in range(1 << lvl):
            val = naive_oscillation_pow(b, DyadicInterval(lvl, pos), r)
            if val > best:
                best = val
    return best


def cell_symbol_table(symbol, depth: int, mode: str) -> tuple:
    """The symbol's coerced value at every (level, pos) cell of a
    depth-``depth`` grid, one interval at a time."""
    return tuple(
        tuple(
            scalars.coerce(symbol.value(DyadicInterval(level, pos)), mode)
            for pos in range(1 << level)
        )
        for level in range(depth)
    )


def random_rationals(rng, count, numer=16, denom=8):
    return [Fraction(rng.randint(-numer, numer), rng.randint(1, denom)) for _ in range(count)]


def naive_lr(f: StepFunction, r) -> float:
    """(mean over leaves of |f|**r) ** (1/r), leaf by leaf."""
    rf = float(r)
    total = 0.0
    for v in f.values:
        total += abs(float(v)) ** rf
    return (total / (1 << f.depth)) ** (1.0 / rf)


def naive_weak_lr(f: StepFunction, r) -> float:
    """max over the leaf values v != 0 of |v| * |{|f| >= |v|}| ** (1/r),
    counting leaves for each candidate."""
    rf = float(r)
    mags = [abs(float(v)) for v in f.values]
    best = 0.0
    for v in mags:
        if v:
            share = sum(1 for w in mags if w >= v) / len(mags)
            best = max(best, v * share ** (1.0 / rf))
    return best


def candidate_weak_lr(f, r) -> float:
    """The weak-L^r quasinorm of one tree from the distinct nonzero |values|
    of f, in its own scalars: the largest float(v) times (t / n) ** (1/r),
    t counting the leaves of the values and block runs where |f| >= v."""
    n = 1 << f.depth
    counts = Counter(map(abs, f.values))
    for v, c in block_runs(f):
        counts[abs(v)] += c
    counts.pop(scalar_zero(f.mode), None)
    mags = sorted(counts, reverse=True)
    totals = accumulate(map(counts.__getitem__, mags))
    inv = 1.0 / float(r)
    return max((float(v) * (t / n) ** inv for v, t in zip(mags, totals)), default=0.0)


def scaled_oscillations(values: list, width: int, r: float, weak: bool) -> list:
    """For each run of ``width`` values, in order: their L^r power mean
    scaled by the largest |value| M, M * (mean of (|v| / M) ** r) ** (1/r),
    or, when ``weak``, the largest of their |values| sorted largest first
    times the steps (k / width) ** (1/r); 0.0 for a run of zeros."""
    inv = 1.0 / r
    steps = [(k / width) ** inv for k in range(1, width + 1)]
    out = []
    for start in range(0, len(values), width):
        mags = [abs(v) for v in values[start:start + width]]
        top = max(mags)
        if not top:
            out.append(0.0)
        elif weak:
            mags.sort(reverse=True)
            out.append(max(v * step for v, step in zip(mags, steps)))
        else:
            powers = [(v / top) ** r for v in mags]
            out.append(top * (math.fsum(powers) / width) ** inv)
    return out


def oscillation_forms(descriptor, exponents, weak: bool) -> list:
    """``commutator_sharp_forms`` with each interval's oscillation taken by
    ``scaled_oscillations`` from the same centered rows and weights."""
    b, slot, r = descriptor.b, descriptor.slot, float(exponents.r)
    depth = b.depth
    n = 1 << depth
    case = necessity_case(descriptor.alpha, slot)
    if (r < 1 and not weak) or (case == "I" and descriptor.arity < 2):
        return [None] * (n - 1)
    if case == "II":
        f, weights = b, multiplier_sharp_forms(descriptor.symbol, depth)
    else:
        f = multilinear_multiplier(descriptor.symbol, (0,), [b])
        others = sum(1 / p for j, p in enumerate(exponents.p) if j != slot - 1)
        weights = [None] + [2.0 ** -float(others)] * (n - 2)
    forms = []
    for level, row in zip(range(depth), _centered_rows(f)):
        forms += scaled_oscillations(list(row), n >> level, r, weak)
    return [None if w is None else w * o for w, o in zip(weights, forms)]


def dense_sharp_ratio(descriptor, exponents, interval, depth, weak=False):
    """The ratio of the sharp job at ``interval`` measured on the full grid:
    the dense ``measure(extremal_tuple(...))`` that the support-aware path
    of the experiment harness must reproduce.  None when the job is
    skipped."""
    fs = extremal_tuple(descriptor, exponents, interval, depth)
    if fs is None:
        return None
    fs = [f.expand() for f in fs]
    norms = [naive_lr(f, p) for f, p in zip(fs, exponents.p)]
    if any(n == 0.0 for n in norms):
        return None
    value = (naive_weak_lr if weak else naive_lr)(descriptor.apply(fs), exponents.r)
    for n in norms:
        value /= n
    return value


# -- leaf-loop forms of the top-down pass -----------------------------------------
#
# The library builds every Haar sum in one top-down pass (``scalars.haar_sum``).
# These are the earlier forms, which add each term to every leaf under its
# interval, level by level; float64 results must match them bit for bit.


def loop_engine(bits, tables, depth, mode, symbol_table=None, support=UNIVERSE):
    """The paraproduct engine with a per-leaf accumulation below the
    support; tables in the support layout, as ``paraproducts._engine``."""
    sigma = bits.count(0)
    top = support.level
    z = scalars.zero(mode)
    const_acc = z
    odd = sigma % 2 == 1
    above = z
    blocks = []
    for level in range(top):
        t = tables[0][level][0]
        for tab in tables[1:]:
            t = t * tab[level][0]
        if symbol_table is not None:
            t = t * symbol_table[level][0]
        if t and sigma == 0:
            const_acc = const_acc + t
        elif t:
            tw = t * scalars.root2_power(level * sigma, mode)
            right = (support.position >> (support.level - level - 1)) & 1
            if odd and not right:
                tw = -tw
            blocks.append(above - tw if odd else above + tw)
            above = above + tw
            continue
        blocks.append(above)
    out = [above] * (1 << (depth - top))
    for level in range(top, depth):
        w = scalars.root2_power(level * sigma, mode)
        width = 1 << (depth - level)
        half = width >> 1
        row0 = tables[0][level]
        for pos in range(len(row0)):
            t = row0[pos]
            for tab in tables[1:]:
                t = t * tab[level][pos]
            if symbol_table is not None:
                t = t * symbol_table[level][pos]
            if not t:
                continue
            if sigma == 0:
                const_acc = const_acc + t
                continue
            tw = t * w
            start = pos * width
            if odd:
                for leaf in range(start, start + half):
                    out[leaf] = out[leaf] - tw
                for leaf in range(start + half, start + width):
                    out[leaf] = out[leaf] + tw
            else:
                for leaf in range(start, start + width):
                    out[leaf] = out[leaf] + tw
    if sigma == 0 and const_acc:
        out = [v + const_acc for v in out]
        blocks = [v + const_acc for v in blocks]
    return SupportView(depth, support, tuple(out), tuple(blocks), mode)


def loop_synthesize(spectrum) -> StepFunction:
    """Inverse Haar transform adding each nonzero coeff * h_I leaf by leaf,
    in the (level, pos) order of the rows of ``spectrum.coeffs``."""
    depth, mode = spectrum.depth, spectrum.mode
    vals = [spectrum.mean] * (1 << depth)
    for level, row in enumerate(spectrum.coeffs):
        for pos, c in enumerate(row):
            if not c:
                continue
            term = c * scalars.root2_power(level, mode)
            span = DyadicInterval(level, pos).leaf_span(depth)
            half = len(span) // 2
            for i, leaf in enumerate(span):
                vals[leaf] = vals[leaf] + (term if i >= half else -term)
    return StepFunction._raw(depth, vals, mode)


def loop_square_sq(f: StepFunction) -> StepFunction:
    """Squared square function from the coefficient table, leaf by leaf."""
    coeffs = coefficient_table(f)
    acc = [scalars.zero(f.mode)] * (1 << f.depth)
    for level in range(f.depth):
        width = 1 << (f.depth - level)
        for k, c in enumerate(coeffs[level]):
            if not c:
                continue
            term = c * c * (1 << level)
            for leaf in range(k * width, (k + 1) * width):
                acc[leaf] = acc[leaf] + term
    return StepFunction._raw(f.depth, acc, f.mode)


def loop_rademacher_haar(sampler, trial: int, m: int) -> list:
    """The rademacher-haar draw of ``SamplerSpec.draw_tuple`` one sign at a
    time: an ``rng.choice`` per +-1 Haar term in (function, level, pos)
    order, the stream that the batched draw keeps, each term added leaf by
    leaf."""
    rng = sampler._rng(trial)
    depth = sampler.depth
    cap = sampler.level_cap if sampler.level_cap is not None else depth - 1
    out = []
    for _ in range(m):
        vals = [0.0] * (1 << depth)
        for level in range(cap + 1):
            mag = 2.0 ** (level / 2.0)
            width = 1 << (depth - level)
            half = width >> 1
            for pos in range(1 << level):
                c = rng.choice((-1.0, 1.0)) * mag
                start = pos * width
                for leaf in range(start, start + half):
                    vals[leaf] -= c
                for leaf in range(start + half, start + width):
                    vals[leaf] += c
        out.append(StepFunction._raw(depth, vals, FLOAT64))
    return out


def scaled_indicator_draw(sampler, trial: int, exponents) -> list:
    """The indicator draw of ``SamplerSpec.draw_tuple`` as it was built: a
    random interval per slot, its indicator scaled to unit L^p norm with
    ``StepFunction.indicator(...).scale(...)``."""
    rng = sampler._rng(trial)
    out = []
    for p in exponents.p:
        level = rng.randrange(sampler.depth)
        interval = DyadicInterval(level, rng.randrange(1 << level))
        scale = 2.0 ** (interval.level / float(p))
        out.append(
            StepFunction.indicator(interval, sampler.depth, FLOAT64).scale(scale)
        )
    return out


def fraction_rational_step(rng, depth: int) -> StepFunction:
    """The draw of ``random_rational_step``: the same two randints per
    leaf, each value built as a Fraction and coerced by the constructor."""
    vals = [
        Fraction(rng.randint(-24, 24), rng.randint(1, 12))
        for _ in range(1 << depth)
    ]
    return StepFunction(depth, tuple(vals), RATIONAL)


def randint_fractions(rng, count: int) -> list:
    """The symbol and constant draws of ``verify``: Fraction(n, d) with n
    from ``rng.randint(-12, 12)``, then d from ``rng.randint(1, 6)``."""
    return [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(count)]


def randint_symbol(rng, depth: int) -> SymbolSequence:
    """The symbol draw of ``verify``: one randint fraction per interval of
    ``interval_family(depth)``, in its order."""
    return SymbolSequence(default=0, entries={
        i: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        for i in interval_family(depth)
    })


def loop_inner_product(f, g):
    """``inner_product`` by one scalar operation per leaf: the sum of x*y
    over every leaf of every tree, divided by 2**depth."""
    f, g = f.expand(), g.expand()
    acc = scalar_zero(f.mode)
    for x, y in zip(f.values, g.values):
        acc = acc + x * y
    return acc * scalars.reciprocal(1 << f.depth, f.mode)


def uniform_random_step(sampler, trial: int, m: int) -> list:
    """The random-step draw of ``SamplerSpec.draw_tuple``: one
    ``rng.uniform(-1.0, 1.0)`` per leaf, function by function."""
    rng = sampler._rng(trial)
    n = 1 << sampler.depth
    return [
        StepFunction(sampler.depth, [rng.uniform(-1.0, 1.0) for _ in range(n)], FLOAT64)
        for _ in range(m)
    ]


_SQRT2 = math.sqrt(2.0)


class FractionExact:
    """An element ``a + b*sqrt(2)`` of the quadratic field Q(sqrt 2), held
    as two Fractions: the representation ``Exact`` had before it moved to
    canonical ints, kept as the reference for ``Exact``'s differential
    tests.  Its repr spells ``Exact(...)`` so the two can be compared.

    Closed under +, -, *, / and integer powers; comparisons and abs are
    exact.  Mixing with floats is rejected so exactness cannot silently
    leak away.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction) -> "FractionExact":
        x = object.__new__(cls)
        x.a = a
        x.b = b
        return x

    @classmethod
    def root2_power(cls, k: int) -> "FractionExact":
        """2**(k/2) for any integer k, possibly negative."""
        q, r = divmod(k, 2)
        if r == 0:
            return cls._make(Fraction(2) ** q, _F0)
        return cls._make(_F0, Fraction(2) ** q)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _lift(other):
        if type(other) is FractionExact:
            return other
        if isinstance(other, int):
            return FractionExact._make(Fraction(other), _F0)
        if isinstance(other, Fraction):
            return FractionExact._make(other, _F0)
        if isinstance(other, FractionExact):
            return other
        return None

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionExact._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionExact._make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionExact._make(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return FractionExact._make(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def _inverse(self) -> "FractionExact":
        den = self.a * self.a - 2 * self.b * self.b
        if den == 0:
            raise ZeroDivisionError("division by zero Exact value")
        return FractionExact._make(self.a / den, -self.b / den)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        out = _FRACTION_EXACT_ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return FractionExact._make(-self.a, -self.b)

    def __pos__(self):
        return self

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: a + b*sqrt(2) has the sign of a iff a*a > 2*b*b
        s = 1 if a > 0 else -1
        return s if a * a > 2 * b * b else -s

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a or self.b)

    # -- conversions ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} has an irrational sqrt(2) part")
        return self.a

    def sqrt(self) -> "FractionExact | None":
        """Exact square root within Q(sqrt 2), or None if there is none."""
        if self.sign() < 0:
            return None
        a, b = self.a, self.b
        if b == 0:
            c = frac_sqrt(a)
            if c is not None:
                return FractionExact._make(c, _F0)
            d = frac_sqrt(a / 2)
            if d is not None:
                return FractionExact._make(_F0, d)
            return None
        # want (c + d*sqrt2)^2 = a + b*sqrt2: c^2 + 2d^2 = a, 2cd = b.
        # c^2 solves t^2 - a t + b^2/2 = 0.
        disc = frac_sqrt(a * a - 2 * b * b)
        if disc is None:
            return None
        for t in ((a + disc) / 2, (a - disc) / 2):
            c = frac_sqrt(t)
            if c is not None and c != 0:
                d = b / (2 * c)
                root = FractionExact._make(c, d)
                if root.sign() < 0:
                    root = -root
                if root * root == self:
                    return root
        return None

    def __float__(self):
        a, b = self.a, self.b
        if a and b and (a < 0) != (b < 0):
            # the two terms cancel: round the value from 100 digits
            return decimal_float(a, b)
        return float(a) + float(b) * _SQRT2

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{abs(self.b)}*sqrt2"

    def __repr__(self):
        return f"Exact({self.a!r}, {self.b!r})"


def decimal_float(a: Fraction, b: Fraction) -> float:
    """a + b*sqrt(2) rounded to a float from its value at 100 digits."""
    with localcontext() as ctx:
        ctx.prec = 100
        value = (
            Decimal(a.numerator) / a.denominator
            + Decimal(b.numerator) / b.denominator * Decimal(2).sqrt()
        )
    return float(value)


_F0 = Fraction(0)
_FRACTION_EXACT_ONE = FractionExact._make(Fraction(1), _F0)


def close_to_rational(got, want, scale=None) -> bool:
    """float64 values ``got`` within 1e-12 * max |float(w)| + 1e-15 of the
    rational values ``want``, one for one.  The float path rounds each
    input, term and partial sum, which at depth <= 5 and arity <= 3 stays
    below 1e-14 of the largest value (measured: 4.8e-15 over 40 seeds of
    every operator).  A difference of two larger terms, such as a
    commutator, rounds relative to them: pass their values as ``scale``,
    and max |float(s)| over them replaces max |float(w)|."""
    want = [float(v) for v in want]
    top = want if scale is None else [float(v) for v in scale]
    tol = 1e-12 * max(map(abs, top), default=0.0) + 1e-15
    return all(abs(g - w) <= tol for g, w in zip(got, want, strict=True))


# -- the per-value Exact path ---------------------------------------------------
# The tables and the engine as they were before rational mode moved to
# integer rows (``scalars.ExactRow``): one ``Exact`` object per entry,
# product and partial sum.  The row pass must equal them value by value.


def value_interval_integrals(f) -> list[list]:
    """table[level][pos] = integral of f over that interval, in the support
    layout for a SupportView, one scalar per entry."""
    top = f.support.level
    w = scalars.reciprocal(1 << f.depth, f.mode)
    level = [v * w for v in f.values]
    table = [level]
    for _ in range(f.depth - top):
        level = [x + y for x, y in zip(level[0::2], level[1::2])]
        table.append(level)
    table += [list(level) for _ in range(top)]
    table.reverse()
    return table


def value_average_table(f) -> list[list]:
    return [
        [v * (1 << level) for v in row]
        for level, row in enumerate(value_interval_integrals(f))
    ]


def value_coefficient_table(f) -> list[list]:
    ints = value_interval_integrals(f)
    top = f.support.level
    out = []
    for level in range(f.depth):
        mag = scalars.root2_power(level, f.mode)
        below = ints[level + 1]
        if level < top:
            side = below[0]
            right = (f.support.position >> (top - level - 1)) & 1
            out.append([mag * side if right else mag * -side])
            continue
        out.append([mag * (y - x) for x, y in zip(below[0::2], below[1::2])])
    return out


def value_engine(sigma, tables, depth, mode, support=UNIVERSE):
    """``paraproducts._engine`` with one scalar per product and partial
    sum: the sum over intervals of the tables' product times h_I**sigma,
    the tables in the support layout."""
    top = support.level
    z = scalars.zero(mode)
    first, *factors = tables
    const = z
    odd = sigma % 2 == 1
    above = z
    blocks = []
    for level in range(top):
        t = first[level][0]
        for tab in factors:
            t = t * tab[level][0]
        if t and sigma == 0:
            const = const + t
        elif t:
            tw = t * scalars.root2_power(level * sigma, mode)
            if odd and not (support.position >> (top - level - 1)) & 1:
                tw = -tw
            blocks.append(above - tw if odd else above + tw)
            above = above + tw
            continue
        blocks.append(above)
    terms = []
    for level in range(top, depth):
        w = scalars.root2_power(level * sigma, mode)
        row = list(first[level])
        for tab in factors:
            row = [x * y for x, y in zip(row, tab[level])]
        terms.append([t * w if t else t for t in row])
    if sigma == 0:
        width = 1 << (depth - top)
        values = []
        for k in range(len(terms[0]) if terms else 1):
            total = const
            for i, row in enumerate(terms):
                for t in row[k << i:(k + 1) << i]:
                    if t:
                        total = total + t
            values += [total] * width
        return seen(depth, support, values, (total,) * top, mode)
    vals = [above] * (len(terms[0]) if terms else 1)
    for row in terms:
        children = []
        for v, t in zip(vals, row):
            children += [v - t, v + t] if odd else [v + t, v + t]
        vals = children
    return seen(depth, support, vals, blocks, mode)


def _value_slot_tables(bits, fs):
    return [
        value_coefficient_table(f) if bit == 0 else value_average_table(f)
        for bit, f in zip(bits, fs)
    ]


def value_paraproduct(alpha, fs):
    a, depth, mode, support, _ = _check_call(alpha, fs)
    return value_engine(a.zero_count, _value_slot_tables(a.bits, fs), depth, mode, support)


def value_pi_paraproduct(alpha, b, fs):
    a, depth, mode, support, trees = _check_call(alpha, fs, b)
    b_rows = _grid_rows(value_coefficient_table(b), support, trees)
    tables = [b_rows, *_value_slot_tables(a.bits, fs)]
    return value_engine(a.zero_count + 1, tables, depth, mode, support)


def value_multiplier(eps, alpha, fs):
    a, depth, mode, support, trees = _check_call(alpha, fs)
    symbol = _grid_rows(eps.table(depth, mode), support, trees)
    tables = [*_value_slot_tables(a.bits, fs), symbol]
    return value_engine(a.zero_count, tables, depth, mode, support)


def value_commutator(slot, b, eps, alpha, fs):
    """[b, T]_slot(fs) as ``multipliers.commutator`` forms it, on the
    per-value multiplier."""
    _, depth, mode, support, trees = _check_call(alpha, fs, b)
    f = fs[slot - 1]
    span = support.leaf_span(depth)
    b_on = b.values[span.start:span.stop] * trees
    modified = list(fs)
    modified[slot - 1] = seen(
        depth, support, [x * y for x, y in zip(b_on, f.values)], f.blocks, mode
    )
    inside = value_multiplier(eps, alpha, modified)
    outside = value_multiplier(eps, alpha, fs)
    values = [x - c * y for x, c, y in zip(inside.values, b_on, outside.values)]
    blocks = []
    for k, (x, y) in enumerate(zip(inside.blocks, outside.blocks)):
        if y:
            span = outside.block_span(k)
            x = tuple(x - c * y for c in b.values[span.start:span.stop])
        blocks.append(x)
    return seen(depth, support, values, blocks, mode)
