"""Sublinear companions: maximal function, square function, BMO, and the
stopping-time decomposition at a given height."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import sub

from . import scalars
from .core import (
    DyadicInterval,
    StepFunction,
    _kept,
    average_table,
    check_grid,
    coefficient_table,
    level_position,
    one_grid,
)
from .errors import RootExceedsHeight
from .scalars import FLOAT64, RATIONAL


# a float64 square overflows past 2**512 and underflows below 2**-512:
# where max |f| lies past 2**_SQUARE_EXP or below 2**-_SQUARE_EXP, the BMO
# norms and the square function work on f / 2**e with max |f / 2**e| just
# below 2**_SQUARE_EXP, whose squares and their sums fit, and scale their
# results back by 2**e
_SQUARE_EXP = 500


@_kept
def _square_exponent(f: StepFunction) -> int:
    """The exponent e of ``_unit_scaled``, kept on f: 0 unless f is float64
    with max |f| past 2**_SQUARE_EXP or below 2**-_SQUARE_EXP, and then
    the e that puts max |f / 2**e| just below 2**_SQUARE_EXP."""
    if f.mode != FLOAT64:
        return 0
    top = max(map(abs, f.values))
    if not top or 2.0**-_SQUARE_EXP <= top < 2.0**_SQUARE_EXP:
        return 0
    return math.frexp(top)[1] - _SQUARE_EXP


@_kept
def _scaled_copy(f: StepFunction) -> StepFunction:
    """f / 2**e for f's ``_square_exponent`` e, kept on f, so the tables
    kept on the copy serve every later call."""
    e = _square_exponent(f)
    return StepFunction._raw(f.depth, [math.ldexp(v, -e) for v in f.values], FLOAT64)


def _unit_scaled(f: StepFunction) -> tuple[StepFunction, int]:
    """(f / 2**e, e) for f's ``_square_exponent`` e, f itself when e = 0;
    not kept, since a kept (f, 0) would make f hold itself.  Scaling by a
    power of two is exact unless it makes a value subnormal, so scaling
    small data up always is."""
    e = _square_exponent(f)
    return (_scaled_copy(f) if e else f), e


def _sup(table: list[list], mode: str):
    """The largest entry of a table of nonnegative values, zero if none."""
    return max(map(max, table), default=scalars.zero(mode))


def maximal(f: StepFunction) -> StepFunction:
    """Dyadic maximal function: at each point, the largest average of |f|
    over the containing intervals (universe through leaf)."""
    f = f.expand()
    avgs = average_table(f.abs())
    best = avgs[0]
    for level in range(1, f.depth + 1):
        row = avgs[level]
        best = [max(best[k >> 1], row[k]) for k in range(len(row))]
    return StepFunction._raw(f.depth, best, f.mode)


def _square_terms(f: StepFunction) -> list:
    """terms[level][pos] = c_I**2 / |I| with c_I = <f, h_I>, read from f's
    kept coefficient table as rows: the terms of the square function and
    of the Haar route to BMO2."""
    return [
        scalars.row_scaled_product([row, row], 2 * level)
        for level, row in enumerate(coefficient_table(f))  # 1/|I| = 2**level
    ]


def square_function_sq(f: StepFunction) -> StepFunction:
    """Pointwise square of the Haar square function; exact in rational mode."""
    f = f.expand()
    leaves = scalars.row_haar_sum(scalars.zero(f.mode), _square_terms(f), False)
    return StepFunction._raw(f.depth, leaves, f.mode)


def square_function(f: StepFunction) -> StepFunction:
    """Haar square function Sf.

    In rational mode the result stays exact when every leaf value has an
    exact square root; otherwise the whole result is returned in float64
    mode.
    """
    f, e = _unit_scaled(f.expand())
    sq = square_function_sq(f)
    if f.mode == FLOAT64:
        try:
            roots = [math.ldexp(math.sqrt(v), e) for v in sq.values]
        except OverflowError:
            raise ValueError("the square function exceeds the float64 range") from None
        return StepFunction._raw(f.depth, roots, FLOAT64)
    roots = [v.sqrt() for v in sq.values]
    if all(r is not None for r in roots):
        return StepFunction._raw(f.depth, roots, RATIONAL)
    return StepFunction._raw(
        f.depth, [scalars.float_sqrt(v) for v in sq.values], FLOAT64
    )


def _centered_rows(f: StepFunction):
    """For each level 0..depth, an iterator over the leaf values of
    f - <f>_I, I the interval of that level holding the leaf, read from f's
    kept average table: no row is kept."""
    n = 1 << f.depth
    for level, avgs in enumerate(average_table(f)):
        spread = chain.from_iterable(map(repeat, avgs, repeat(n >> level)))
        yield map(sub, f.values, spread)


def _pairwise_means(terms: list[list], mode: str) -> list[list]:
    """table[level][pos] = M(I), levels 0..len(terms), built bottom-up by
    M(I) = (M(L) + M(R))/2 + terms[level][pos] with M = 0 on a leaf."""
    half = scalars.reciprocal(2, mode)
    row = [scalars.zero(mode)] * (1 << len(terms))
    table = [row]
    for t in reversed(terms):
        row = [(x + y) * half + d for x, y, d in zip(row[0::2], row[1::2], t)]
        table.append(row)
    table.reverse()
    return table


@_kept
def _variance_table(b: StepFunction) -> list[list]:
    """table[level][pos] = M2(I), the average over I of |b - <b>_I|**2,
    kept on b: the table of BMO2 and the bound of the BMO1 search.

    The table follows the pairwise rule of Chan, Golub & LeVeque (1979),
    M2(I) = (M2(L) + M2(R))/2 + ((<b>_R - <b>_L)/2)**2: no large terms
    cancel, and it is exact in rational mode.  A float64 b is first shifted
    by its mean, so that its averages carry no digits of a common offset.
    """
    if b.mode == FLOAT64:
        mean = average_table(b)[0][0]
        b = StepFunction._raw(b.depth, [v - mean for v in b.values], FLOAT64)
    half = scalars.reciprocal(2, b.mode)
    terms = []
    for avgs in average_table(b)[1:]:
        gaps = [d * half for d in map(sub, avgs[1::2], avgs[0::2])]
        terms.append([d * d for d in gaps])
    return _pairwise_means(terms, b.mode)


def _mean_oscillation(leaves, mean, mode: str):
    """The average of |v - mean| over ``leaves``, the leaf values of an
    interval I, with mean = <b>_I: the total of the terms
    (``scalars.total``) times 1/|I|."""
    terms = map(abs, map(sub, leaves, repeat(mean)))
    return scalars.total(terms, mode) * scalars.reciprocal(len(leaves), mode)


def _bmo1_search(b: StepFunction):
    """The largest ``_mean_oscillation`` of b on an interval above the
    leaves (on a leaf it is zero), found from b's variance table, whose
    rows above the leaves, laid end to end, are in ``interval_family``
    order.

    By Jensen's inequality the L1 oscillation on I is at most sqrt(M2(I)),
    so an interval whose M2 lies below ``scalars.jensen_floor`` of the best
    value so far cannot reach it.  The search evaluates the interval of
    largest M2, then, in decreasing order of M2, each interval that the
    floor of the running best does not skip, and stops at the first that
    it skips.  When the bound separates nothing (data whose offset makes
    the float64 margin larger than the oscillation, or ties) every interval
    is evaluated.  Each value evaluated is the one a table of every
    interval would hold, so the sup keeps its bits.

    The float64 bound.  With b_s = b / 2**e (``_unit_scaled``), T =
    max |b_s|, M2_s b_s's table, u = 2**-53 and depth d <= 20, the computed
    L1 oscillation on I of level l is at most
    2**e ((1 + 2**-48) sqrt(M2_s(I)) + 2**-45 T) + 2**(d - 1074):
    <b>_I is off by at most d u max |b| + 2**(d - 1075) (pairwise sums
    of leaf integrals, each of which may underflow by 2**-1075), each term
    |v - <b>_I| and the correctly rounded sum add a factor 1 + u, and the
    scale by 2**(l - d) may underflow by 2**-1075.  The mean shift moves
    each leaf of b_s by at most 2 u T, so sqrt of the exact M2 of the
    shifted b_s is off by at most 2 u T (Minkowski); each half gap is off
    by at most (2d + 2) u T, and the gaps of the at most d levels below I
    move sqrt(M2) by at most sqrt(d) (2d + 2) u T, again by Minkowski; the
    nonnegative pairwise means and their squares round by a factor of at
    most (1 + u)**(2d + 3), and the square root by one more 1 + u.  With
    max |b| = 2**e T these give at most 211 u T + 25 u sqrt(M2_s) at
    d = 20, inside 2**-45 T and 2**-48 sqrt(M2_s).  Scaling is exact
    except where a leaf of b_s becomes subnormal, by at most 2**-1075, far
    below u T.
    """
    scaled, e = _unit_scaled(b)
    bounds = list(chain.from_iterable(_variance_table(scaled)[:-1]))
    floor = scalars.jensen_floor(scaled.values, e, b.depth)
    avgs, values = average_table(b), b.values

    def oscillation(k: int):
        level, pos = level_position(k)
        width = len(values) >> level
        leaves = values[pos * width:(pos + 1) * width]
        return _mean_oscillation(leaves, avgs[level][pos], b.mode)

    first = bounds.index(max(bounds))
    best = oscillation(first)
    cut = floor(best)
    rest = [k for k, bound in enumerate(bounds) if bound >= cut and k != first]
    rest.sort(key=bounds.__getitem__, reverse=True)
    for k in rest:
        if bounds[k] < cut:
            break
        value = oscillation(k)
        if value > best:
            best, cut = value, floor(value)
    return best


def bmo_norm_pow(b: StepFunction, r: int):
    """sup over intervals of the r-th power mean oscillation, r in {1, 2}.

    Exact in rational mode; this is ||b||_{BMO_r} ** r.  BMO2 is the
    largest entry of b's kept variance table; BMO1 is its bounded search
    (``_bmo1_search``).
    """
    if r not in (1, 2):
        raise ValueError(f"BMO exponent must be 1 or 2, got {r}")
    [b] = one_grid([b])
    if r == 1:
        return _bmo1_search(b)
    return _sup(_variance_table(b), b.mode)


def bmo_norm(b: StepFunction, r: int):
    """Dyadic BMO norm with r-th power means, r in {1, 2}.

    For r = 2 in rational mode the value is exact when the square root
    exists in the scalar field and a float otherwise; use bmo_norm_pow for
    guaranteed-exact comparisons.
    """
    [b] = one_grid([b])
    b, e = _unit_scaled(b)
    top = bmo_norm_pow(b, r)
    if r == 2:
        top = scalars.scalar_sqrt(top, b.mode)
    return math.ldexp(top, e) if e else top


def bmo2_via_haar_sq(b: StepFunction):
    """sup over intervals I of |I|**-1 * sum of squared Haar coefficients of
    the subintervals of I; exact in rational mode."""
    [b] = one_grid([b])
    return _sup(_pairwise_means(_square_terms(b), b.mode), b.mode)


def bmo2_via_haar(b: StepFunction):
    """Same value as bmo_norm(b, 2), computed from Haar coefficients."""
    [b] = one_grid([b])
    b, e = _unit_scaled(b)
    root = scalars.scalar_sqrt(bmo2_via_haar_sq(b), b.mode)
    return math.ldexp(root, e) if e else root


def _bstar_table(b: StepFunction) -> list[list]:
    """table[level][pos] = |<b, h_I>| / sqrt(|I|), read from b's kept
    coefficient table."""
    table = []
    for level, row in enumerate(coefficient_table(b)):
        mag = scalars.root2_power(level, b.mode)
        table.append([abs(c) * mag for c in row])
    return table


def bstar_seminorm(b: StepFunction):
    """sup over intervals of |<b, h_I>| / sqrt(|I|); exact in rational mode."""
    [b] = one_grid([b])
    return _sup(_bstar_table(b), b.mode)


@dataclass(frozen=True)
class CZDecomposition:
    """Split of f at a height: a bounded part plus localized zero-mean parts.

    ``good`` equals f outside the selected intervals and the average of f on
    each of them; each part is (interval, b_j) with b_j = (f - <f>_I) 1_I.
    """

    height: object
    good: StepFunction
    parts: tuple

    @property
    def intervals(self) -> tuple[DyadicInterval, ...]:
        return tuple(i for i, _ in self.parts)

    def bad(self) -> StepFunction:
        out = StepFunction.zeros(self.good.depth, self.good.mode)
        for _, b in self.parts:
            out = out + b
        return out

    def reconstruct(self) -> StepFunction:
        return self.good + self.bad()

    def to_json_dict(self) -> dict:
        return {
            "height": scalars.encode_value(self.height, self.good.mode),
            "good": self.good.to_json_dict(),
            "parts": [
                {
                    "interval": {"level": i.level, "pos": i.position},
                    "b": b.to_json_dict(),
                }
                for i, b in self.parts
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CZDecomposition":
        """The decomposition a file holds; each part must be zero off its
        interval and the intervals disjoint, or ``reconstruct`` would not
        give back f."""
        good = StepFunction.from_json_dict(obj["good"])
        json_int = scalars._json_int
        parts = []
        covered = bytearray(1 << good.depth)
        for p in obj.get("parts", []):
            i = p["interval"]
            interval = DyadicInterval(json_int(i, "level"), json_int(i, "pos"))
            b = StepFunction.from_json_dict(p["b"])
            # a part of another depth or mode would not add to good
            check_grid(b, good.depth, good.mode)
            if not b.vanishes_outside(interval):
                raise ValueError(f"the part on {interval} is nonzero outside it")
            span = interval.leaf_span(good.depth)
            if any(covered[span.start:span.stop]):
                raise ValueError(f"the part on {interval} overlaps another part")
            covered[span.start:span.stop] = b"\1" * len(span)
            parts.append((interval, b))
        return cls(scalars.decode_value(obj["height"], good.mode), good, tuple(parts))


def cz_decompose(f: StepFunction, height) -> CZDecomposition:
    """Stopping-time decomposition at the given height.

    Selects the maximal intervals whose |f|-average strictly exceeds the
    height (ties are not selected).  Requires the global average of |f| to
    be at most the height.  f must be one tree (``one_grid``).
    """
    [f] = one_grid([f])
    h = scalars.coerce(height, f.mode)
    if not h > scalars.zero(f.mode):
        raise ValueError("height must be positive")
    avgs = average_table(f.abs())
    if avgs[0][0] > h:
        raise RootExceedsHeight(
            "the global average of |f| already exceeds the height"
        )
    signed = average_table(f)

    # a depth-first walk, left to right, from the universe (never selected):
    # from each interval taken off the stack, down its left edge while the
    # average stays at most h, each right sibling left on the stack
    selected: list[DyadicInterval] = []
    depth, stack = f.depth, [(0, 0)]
    while stack:
        level, pos = stack.pop()
        while avgs[level][pos] <= h:
            if level == depth:
                break
            level, pos = level + 1, 2 * pos
            stack.append((level, pos + 1))
        else:
            selected.append(DyadicInterval(level, pos))

    good_vals = list(f.values)
    parts = []
    z = scalars.zero(f.mode)
    for interval in selected:
        m = signed[interval.level][interval.position]
        b_vals = [z] * (1 << f.depth)
        for leaf in interval.leaf_span(f.depth):
            b_vals[leaf] = f.values[leaf] - m
            good_vals[leaf] = m
        parts.append((interval, StepFunction._raw(f.depth, b_vals, f.mode)))

    good = StepFunction._raw(f.depth, good_vals, f.mode)
    return CZDecomposition(h, good, tuple(parts))
