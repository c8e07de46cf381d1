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
from functools import reduce
from itertools import chain, repeat
from typing import Sequence

from . import scalars
from .core import (
    UNIVERSE,
    DyadicInterval,
    StepFunction,
    SupportView,
    _ancestor_signs,
    average_table,
    check_alpha_bit,
    check_grid,
    coefficient_table,
    one_grid,
    seen,
    support_layout,
    tree_count,
)
from .errors import ShapeError
from .scalars import (
    as_row,
    column,
    row_difference,
    row_product,
    row_sum,
    row_total,
)


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
        scalars.check_range(len(self.bits), "arity", 1)
        for b in self.bits:
            check_alpha_bit(b)

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


def _alpha_count(m: int) -> int:
    """2**m - 1, the number of admissible alphas of arity m >= 1."""
    return (1 << scalars.check_range(m, "arity", 1)) - 1


def admissible_alphas(m: int) -> list[AlphaVector]:
    """All 0/1 vectors of length m except all-ones, in the order of
    ``alpha_at``."""
    return [alpha_at(m, index) for index in range(_alpha_count(m))]


def alpha_at(m: int, index: int) -> AlphaVector:
    """The admissible alpha of arity m at ``index`` in the recursion order,
    in O(m): the vectors of arity m - 1 with 1 appended, then with 0
    appended, then (1, ..., 1, 0); (0,) alone for m = 1.  Each step down
    the recursion reads whether index lies in the block with 1 appended,
    the block with 0 appended, or is the last vector."""
    if not 0 <= index < _alpha_count(m):
        raise IndexError(f"no admissible alpha of arity {m} at index {index}")
    tail = []
    while m > 1:
        block = (1 << (m - 1)) - 1
        if index == 2 * block:
            break
        tail.append(1 if index < block else 0)
        index %= block
        m -= 1
    head = (1,) * (m - 1) + (0,)
    return AlphaVector(head + tuple(reversed(tail)))


def _check_input_count(m: int, fs: Sequence):
    """One input per slot of an m-linear operator."""
    if len(fs) != m:
        raise ShapeError(f"alpha has {m} slots but got {len(fs)} functions")


def _check_call(alpha, fs: Sequence[StepFunction], b: StepFunction | None = None):
    """The operator-call contract: alpha as an AlphaVector, then the depth,
    mode, support and tree count that its m inputs share (``check_grid``),
    a StepFunction being seen from the universe.  ``b`` must be one tree
    seen from the universe, and the inputs must match its depth and mode.
    Forests, which are StepFunctions (a SupportView is one tree), must
    hold equally many trees."""
    a = _as_alpha(alpha)
    _check_input_count(a.m, fs)
    if b is not None:
        check_grid(b, b.depth, b.mode)
    first = fs[0] if b is None else b
    support, trees = fs[0].support, tree_count(fs[0])
    for f in fs:
        check_grid(f, first.depth, first.mode, support, trees)
    return a, first.depth, first.mode, support, trees


def _check_slot(slot, m: int):
    """A 1-based slot of an m-linear operator: an int, not a bool."""
    scalars.check_range(slot, "slot", 1, m)


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

    The product is taken in the order of ``tables``, each a list of rows
    (``scalars.as_row``), as the kept tables and the symbol's table
    are.  Every table, b's and the symbol's included, comes in the support
    layout of ``support`` (``core.support_layout``), which on the universe
    is the full layout.  The sum is exact when each product vanishes at the
    intervals that neither contain ``support`` nor lie inside it, as it
    does when some slot's input vanishes outside ``support``.  The output,
    built by ``core.seen``, is then its leaf values on ``support`` plus one
    constant on each sibling block along the ancestor chain.  ``depth``
    may equal ``support.level``: the output is then one value on
    ``support``, the sum of the terms of its strict ancestors.  Each value
    adds its terms from the coarsest level down, as the full-grid call
    does, so float64 results match it bit for bit.  Forest tables give the
    forest of their trees' outputs: each tree sums its own terms.

    The sum is one pass of rows (``_row_pass``) in both modes, and the
    output keeps its row of values.
    """
    values, blocks = _row_pass(sigma, tables, depth, mode, support)
    return seen(depth, support, values, blocks, mode)


def _row_pass(sigma: int, tables: list, depth: int, mode: str, support: DyadicInterval):
    """``_engine``'s sum as rows: its values on ``support`` as one row, and
    its blocks.  Each level's slot products, in table order, times its
    Haar power are one ``row_scaled_product``; the strict ancestors' terms
    are one row (``_ancestor_terms``), and the top-down sum is
    ``scalars.row_haar_sum``."""
    top = support.level
    terms = [
        scalars.row_scaled_product([tab[level] for tab in tables], level * sigma)
        for level in range(top, depth)
    ]
    ancestors = None
    if top:
        # in the support layout each ancestor's row holds its one entry; a
        # slot whose entries there all vanish, as h_I's do at the ancestors
        # of I, makes every ancestor's term zero, and only the sigma = 0
        # sum below reads them then
        columns = []
        for tab in tables:
            columns.append(column(tab[:top], repeat(0)))
            if sigma and scalars.row_is_zero(columns[-1]):
                break
        else:
            ancestors = _ancestor_terms(sigma, columns, support, mode)
    if sigma == 0:
        # h_I**0 is 1 on the whole universe: each tree's output is one
        # constant, its ancestors' terms and then its own summed level by
        # level
        width = 1 << (depth - top)
        totals = []
        for k in range(len(terms[0]) if terms else 1):
            spans = [range(k << i, (k + 1) << i) for i in range(len(terms))]
            rows = [ancestors] * top + [row for row, span in zip(terms, spans) for _ in span]
            totals.append(row_total(column(rows, [*range(top), *chain(*spans)])))
        values = as_row([t for t in totals for _ in range(width)], mode)
        return values, [totals[-1]] * top
    odd = sigma % 2 == 1
    above = scalars.zero(mode)
    blocks = [above] * top
    if ancestors is not None:
        # each sibling block takes the terms above it minus its own term
        # when sigma is odd, plus it (the next running total) when even
        sums = scalars.row_running_totals(ancestors)
        own = row_difference(sums[:-1], ancestors) if odd else sums[1:]
        blocks, above = own, sums[-1]
    return scalars.row_haar_sum(above, terms, odd), blocks


def _ancestor_terms(sigma: int, columns: list, support: DyadicInterval, mode: str):
    """The terms of the strict ancestors I of ``support``, one entry per
    level: the product of the slots' entries at I, one ``column`` per slot
    in table order, times h_I**sigma on the half of I that holds
    ``support``, which is 2**(level*sigma/2), negative on a left half when
    sigma is odd."""
    top = support.level
    signs = _ancestor_signs(support) if sigma % 2 else [1] * top
    weights = scalars.signed_root2_powers([level * sigma for level in range(top)], signs, mode)
    return scalars.row_scaled_product([*columns, weights], 0)


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
    global-mean constant; identically zero.  The product, the
    paraproducts' leaf rows (``_row_pass``) and the constant are summed as
    rows, and the residual keeps its row.  Each input is one tree
    (``one_grid``)."""
    m = len(fs)
    if m < 2:
        raise ShapeError(f"the decomposition needs at least 2 functions, got {m}")
    fs = one_grid(fs)
    depth, mode = fs[0].depth, fs[0].mode
    corr = scalars.one(mode)
    for f in fs:
        corr = corr * average_table(f)[0][0]
    outputs = [
        _row_pass(a.zero_count, _slot_tables(a.bits, fs), depth, mode, UNIVERSE)[0]
        for a in admissible_alphas(m)
    ]
    product = reduce(row_product, [f.values for f in fs])
    residual = row_difference(product, row_sum(outputs))
    residual = row_difference(residual, as_row([corr], mode) * (1 << depth))
    return StepFunction._raw(depth, residual, mode)


def localized_average_residual(
    interval: DyadicInterval, fs: Sequence[StepFunction]
) -> StepFunction:
    """Residual of the localized form of the decomposition on one interval.

    The product of the averages over J, viewed on J, equals the sum over
    the strict ancestors I of J of the paraproduct terms of I (restricted
    to J) plus the same global-mean constant.  Returns LHS - RHS, which is
    identically zero.  Each input is one tree (``one_grid``).
    """
    if not fs:
        raise ShapeError("need at least one input function")
    fs = one_grid(fs)
    depth, mode = fs[0].depth, fs[0].mode
    if interval.is_universe:
        raise ValueError("localization needs a proper subinterval of the universe")
    interval.leaf_span(depth)  # refuses an interval finer than the grid
    atabs = [average_table(f) for f in fs]

    lhs = scalars.one(mode)
    corr = scalars.one(mode)
    for at in atabs:
        lhs = lhs * at[interval.level][interval.position]
        corr = corr * at[0][0]

    # the strict ancestors of J: each slot table's entries there, gathered
    # once, then one row of ancestor terms per alpha (``_ancestor_terms``,
    # as ``_engine`` sums them on J), each alpha's total added in turn
    level, pos = interval.level, interval.position
    ancestry = [pos >> (level - k) for k in range(level)]
    columns = [
        [column(table(f)[:level], ancestry) for table in (coefficient_table, average_table)]
        for f in fs
    ]
    totals = [
        row_total(_ancestor_terms(
            a.zero_count, [columns[j][bit] for j, bit in enumerate(a.bits)], interval, mode
        ))
        for a in admissible_alphas(len(fs))
    ]
    acc = row_total(as_row(totals, mode))
    return StepFunction.constant(lhs - acc - corr, depth, mode).restrict(interval)
