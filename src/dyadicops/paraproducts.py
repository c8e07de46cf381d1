"""Multilinear paraproducts on a finite dyadic grid.

An m-linear paraproduct is indexed by a 0/1 vector alpha: slot j pairs its
function with the Haar function when alpha_j = 0 and takes the interval
average when alpha_j = 1.  Each interval contributes the product of its
slot values times the appropriate power of its Haar function, where the
power is the number of zero bits.

On a finite grid the pointwise product of the inputs equals the sum of the
paraproducts over every alpha with at least one zero bit plus the constant
``prod_j <f_j>`` coming from the global means; the residual helpers below
return the difference, which is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from . import scalars
from .core import (
    UNIVERSE,
    DyadicInterval,
    StepFunction,
    SupportView,
    _right_of,
    average_table,
    check_grid,
    coefficient_table,
    haar_sum,
    pointwise_product,
    seen,
    support_layout,
    tree_count,
)
from .errors import ShapeError


@dataclass(frozen=True)
class AlphaVector:
    """A vector of 0/1 slot markers: 0 = Haar pairing, 1 = average.

    ``bits`` is given as a string over 0/1, such as "011", or as any
    iterable of the ints 0 and 1; ``__post_init__`` is the one alpha parser.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        bits = self.bits
        if isinstance(bits, str):
            if not bits or any(ch not in "01" for ch in bits):
                raise ValueError(
                    f"alpha string must be nonempty over 0/1, got {bits!r}"
                )
            bits = map(int, bits)
        object.__setattr__(self, "bits", tuple(bits))
        if len(self.bits) < 1:
            raise ValueError("alpha needs at least one slot")
        # not a bool or a float: str(alpha) must read back by from_string
        if any(type(b) is not int or b not in (0, 1) for b in self.bits):
            raise ValueError(f"alpha bits must be 0 or 1, got {self.bits}")

    @classmethod
    def from_string(cls, s: str) -> "AlphaVector":
        return cls(s)

    @property
    def m(self) -> int:
        return len(self.bits)

    @property
    def zero_count(self) -> int:
        return self.bits.count(0)

    @property
    def is_admissible(self) -> bool:
        """True when at least one slot is a Haar pairing (not all ones)."""
        return 0 in self.bits

    def check_haar_slot(self):
        """Refuse an alpha with no Haar slot, which gives no Haar multiplier."""
        if not self.is_admissible:
            raise ValueError(f"alpha needs a Haar slot (a zero bit), got {self}")

    def __iter__(self):
        return iter(self.bits)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __str__(self):
        return "".join(str(b) for b in self.bits)


def _as_alpha(alpha) -> AlphaVector:
    return alpha if isinstance(alpha, AlphaVector) else AlphaVector(alpha)


def admissible_alphas(m: int) -> list[AlphaVector]:
    """All 0/1 vectors of length m except all-ones, in the recursion order:
    previous vectors with 1 appended, then with 0 appended, then the vector
    (1, ..., 1, 0)."""
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if m == 1:
        return [AlphaVector((0,))]
    prev = admissible_alphas(m - 1)
    out = [AlphaVector(a.bits + (1,)) for a in prev]
    out += [AlphaVector(a.bits + (0,)) for a in prev]
    out.append(AlphaVector((1,) * (m - 1) + (0,)))
    return out


def _check_call(alpha, fs: Sequence[StepFunction], b: StepFunction | None = None):
    """The operator-call contract: alpha as an AlphaVector, then the depth,
    mode, support and tree count that its m inputs share (``check_grid``),
    a StepFunction being seen from the universe.  ``b`` must be one tree
    seen from the universe, and the inputs must match its depth and mode.
    Forests must hold equally many trees."""
    a = _as_alpha(alpha)
    if len(fs) != a.m:
        raise ShapeError(f"alpha has {a.m} slots but got {len(fs)} functions")
    if b is not None:
        check_grid(b, b.depth, b.mode)
    first = fs[0] if b is None else b
    support, trees = fs[0].support, tree_count(fs[0])
    for f in fs:
        check_grid(f, first.depth, first.mode, support, trees)
    return a, first.depth, first.mode, support, trees


def _check_slot(slot, m: int):
    """A 1-based slot of an m-linear operator: an int, not a bool."""
    if not 1 <= scalars.check_int(slot, "slot") <= m:
        raise ValueError(f"slot must be in 1..{m}, got {slot}")


def _grid_rows(table, support: DyadicInterval, trees: int) -> list:
    """A full-grid table cut to the support layout, each row repeated once
    per tree: the table of one grid read by every tree of a forest."""
    rows = support_layout(table, support)
    return rows if trees == 1 else [row * trees for row in rows]


def _engine(
    sigma: int,
    tables: list,
    depth: int,
    mode: str,
    support: DyadicInterval = UNIVERSE,
) -> StepFunction | SupportView:
    """Accumulate sum over intervals of the factor tables' product * h_I^sigma.

    The product is taken in the order of ``tables``.  Every table, b's and
    the symbol's included, comes in the support layout of
    ``support`` (``core.support_layout``), which on the universe is the
    full layout.  The sum is exact when each product vanishes at the
    intervals that neither contain ``support`` nor lie inside it, as it
    does when some slot's input vanishes outside ``support``.  The output,
    built by ``core.seen``, is then its leaf values on ``support`` plus one
    constant on each sibling block along the ancestor chain.  ``depth``
    may equal ``support.level``: the output is then one value on
    ``support``, the sum of the terms of its strict ancestors.  Each value
    adds its terms from the coarsest level down, as the full-grid call
    does, so float64 results match it bit for bit.  Forest tables give the
    forest of their trees' outputs: each tree sums its own terms.
    """
    top = support.level
    z = scalars.zero(mode)
    first, *factors = tables
    # h_I**0 is 1 on the whole universe: for sigma = 0 the sum is one
    # constant
    const = z
    odd = sigma % 2 == 1
    # the ancestors: each Haar power is constant on the half that holds
    # the support and on the other half, where the next block begins
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
            if odd and not _right_of(support, level):
                tw = -tw
            blocks.append(above - tw if odd else above + tw)
            above = above + tw
            continue
        blocks.append(above)
    # at and below the support: each interval's term, its slot product
    # times |I|**(-sigma/2), summed top-down
    terms = []
    for level in range(top, depth):
        w = scalars.root2_power(level * sigma, mode)
        row = first[level]
        for tab in factors:
            row = map(mul, row, tab[level])
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
    return seen(depth, support, haar_sum(above, terms, odd), blocks, mode)


def _slot_tables(bits, fs):
    return [
        coefficient_table(f) if bit == 0 else average_table(f)
        for bit, f in zip(bits, fs)
    ]


def paraproduct(alpha, fs: Sequence[StepFunction]) -> StepFunction:
    """The paraproduct indexed by alpha applied to the tuple fs.

    Sum over every interval of the product of slot pairings times the
    sigma-th Haar power, sigma being the number of zero bits.  The all-ones
    alpha (sigma = 0) is accepted as plumbing; the operators the norm
    theory speaks about have sigma >= 1.

    Every operator takes StepFunctions or SupportViews of one support
    (``SupportView.restrict``) and returns the output seen from it; given
    forests of equally many trees (``core.forest``), it returns the forest
    of each tree's output.
    """
    a, depth, mode, support, _ = _check_call(alpha, fs)
    return _engine(a.zero_count, _slot_tables(a.bits, fs), depth, mode, support)


def pi_paraproduct(alpha, b: StepFunction, fs: Sequence[StepFunction]) -> StepFunction:
    """Paraproduct with symbol b: b always enters through its Haar
    coefficients, i.e. this is the (0, alpha) paraproduct of (b, fs).

    b itself need not vanish outside the inputs' support.
    """
    a, depth, mode, support, trees = _check_call(alpha, fs, b)
    b_rows = _grid_rows(coefficient_table(b), support, trees)
    tables = [b_rows, *_slot_tables(a.bits, fs)]
    return _engine(a.zero_count + 1, tables, depth, mode, support)


# -- identities ---------------------------------------------------------------


def product_decomposition_residual(fs: Sequence[StepFunction]) -> StepFunction:
    """prod(fs) minus the sum of all admissible paraproducts minus the
    global-mean constant; identically zero (exactly so in rational mode)."""
    m = len(fs)
    if m < 2:
        raise ShapeError(f"the decomposition needs at least 2 functions, got {m}")
    fs = [f.expand() for f in fs]
    # the product checks the tuple as the pointwise algebra does
    product = pointwise_product(fs)
    depth, mode = product.depth, product.mode
    total = StepFunction.zeros(depth, mode)
    for a in admissible_alphas(m):
        tables = _slot_tables(a.bits, fs)
        total = total + _engine(a.zero_count, tables, depth, mode).expand()
    corr = scalars.one(mode)
    for f in fs:
        corr = corr * average_table(f)[0][0]
    return product - total - StepFunction.constant(corr, depth, mode)


def localized_average_residual(
    interval: DyadicInterval, fs: Sequence[StepFunction]
) -> StepFunction:
    """Residual of the localized form of the decomposition on one interval.

    The product of the averages over J, viewed on J, equals the sum over
    the strict ancestors I of J of the paraproduct terms of I (restricted
    to J) plus the same global-mean constant.  Returns LHS - RHS, which is
    identically zero.  Each input is one tree (``check_grid``).
    """
    fs = [f.expand() for f in fs]
    if not fs:
        raise ShapeError("need at least one input function")
    depth, mode = fs[0].depth, fs[0].mode
    for f in fs:
        check_grid(f, depth, mode)
    if interval.level < 1:
        raise ValueError("localization needs a proper subinterval of the universe")
    interval.leaf_span(depth)  # refuses an interval finer than the grid
    atabs = [average_table(f) for f in fs]

    lhs = scalars.one(mode)
    corr = scalars.one(mode)
    for at in atabs:
        lhs = lhs * at[interval.level][interval.position]
        corr = corr * at[0][0]

    # the strict ancestors of J are the intervals of the depth-level(J)
    # grid that contain J: their paraproduct terms, seen from J, are one
    # value on J
    level = interval.level
    acc = scalars.zero(mode)
    for a in admissible_alphas(len(fs)):
        tables = [support_layout(t[:level], interval) for t in _slot_tables(a.bits, fs)]
        acc = acc + _engine(a.zero_count, tables, level, mode, interval).values[0]

    return StepFunction.constant(lhs - acc - corr, depth, mode).restrict(interval)
