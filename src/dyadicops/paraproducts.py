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
from itertools import accumulate
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
    exact_haar_sum,
    haar_sum,
    pointwise_product,
    seen,
    support_layout,
    tree_count,
)
from .errors import ShapeError
from .scalars import (
    ExactRow,
    _canonical,
    aligned,
    column,
    exact_rows,
    row_negated,
    row_product,
    row_root2_scaled,
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


def alpha_at(m: int, index: int) -> AlphaVector:
    """``admissible_alphas(m)[index]`` in O(m), without the list: each
    step down the recursion reads whether index lies in the block with 1
    appended, the block with 0 appended, or is the last vector."""
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    if not 0 <= index < (1 << m) - 1:
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

    In rational mode the pass runs on integer rows (``_exact_pass``), and
    each output value is canonicalised once.
    """
    if mode == scalars.RATIONAL:
        values, blocks = _exact_pass(sigma, tables, depth, support)
        return seen(depth, support, values.exacts(), blocks, mode)
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


def _ancestor_terms(sigma: int, columns: list, support: DyadicInterval) -> ExactRow:
    """The terms of the strict ancestors I of ``support``, one entry per
    level: the product of the slots' entries at I, one ``column`` per
    slot, times h_I**sigma on the half of I that holds ``support``, which
    is 2**(level*sigma/2), negative on a left half when sigma is odd."""
    top = support.level
    A, B = [0] * top, [0] * top
    for level in range(top):
        q, r = divmod(level * sigma, 2)
        sign = -1 if sigma % 2 and not _right_of(support, level) else 1
        (B if r else A)[level] = sign << q
    return reduce(row_product, columns, ExactRow(A, B if any(B) else None, 1))


def _exact_pass(sigma: int, tables: list, depth: int, support: DyadicInterval):
    """``_engine`` in rational mode on integer rows (``scalars.ExactRow``):
    the output's leaf values on ``support`` as one row, and its blocks as
    ``Exact`` values.  The slot products and the top-down sum
    (``core.exact_haar_sum``) are int list operations, and so is the sum
    of the ancestors' terms (``_ancestor_terms``)."""
    top = support.level
    tables = [exact_rows(tab) for tab in tables]
    terms = [
        row_root2_scaled(reduce(row_product, [tab[level] for tab in tables]), level * sigma)
        for level in range(top, depth)
    ]
    # in the support layout each ancestor's row holds its one entry
    columns = [column(tab[:top], [0] * top) for tab in tables]
    ancestors = _ancestor_terms(sigma, columns, support)
    if sigma == 0:
        # one constant per tree: its ancestors' terms and its own
        d, As, Bs = aligned([ancestors, *terms])
        roots, width = len(terms[0]) if terms else 1, 1 << (depth - top)
        A = [v for v in _tree_sums(As, roots) for _ in range(width)]
        B = [v for v in _tree_sums(Bs, roots) for _ in range(width)]
        values = ExactRow(A, B, d)
        return values, [values[-1]] * top
    # each sibling block takes the terms above it and its own term, the
    # latter negated when sigma is odd
    odd = sigma % 2 == 1
    d, (sa,), (sb,) = aligned([ancestors])
    blocks = [
        _canonical(pa - a if odd else pa + a, pb - b if odd else pb + b, d)
        for pa, a, pb, b in zip(accumulate(sa, initial=0), sa, accumulate(sb, initial=0), sb)
    ]
    above = _canonical(sum(sa), sum(sb), d)
    return exact_haar_sum(above, terms, odd), blocks


def _tree_sums(parts: list, roots: int) -> list:
    """For each of ``roots`` trees, the sum of the first part (the
    ancestors' terms) and of the tree's entries in every later part, the
    part i after the first holding 2**i entries per tree."""
    first, *rows = parts
    return [
        sum(first) + sum(sum(row[k << i:(k + 1) << i]) for i, row in enumerate(rows))
        for k in range(roots)
    ]


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
    global-mean constant; identically zero (exactly so in rational mode,
    where the product, the paraproducts' leaf rows and the constant are
    summed as integer rows and each leaf is canonicalised once).  Each
    input is one tree (``check_grid``)."""
    m = len(fs)
    if m < 2:
        raise ShapeError(f"the decomposition needs at least 2 functions, got {m}")
    fs = [f.expand() for f in fs]
    depth, mode = fs[0].depth, fs[0].mode
    for f in fs:
        check_grid(f, depth, mode)
    corr = scalars.one(mode)
    for f in fs:
        corr = corr * average_table(f)[0][0]
    if mode == scalars.RATIONAL:
        outputs = [
            _exact_pass(a.zero_count, _slot_tables(a.bits, fs), depth, UNIVERSE)[0]
            for a in admissible_alphas(m)
        ]
        product = reduce(row_product, [ExactRow.of(f.values) for f in fs])
        total = row_sum([*outputs, ExactRow.of([corr]) * (1 << depth)])
        residual = row_sum([product, row_negated(total)])
        return StepFunction._raw(depth, residual.exacts(), mode)
    product = pointwise_product(fs)
    total = StepFunction.zeros(depth, mode)
    for a in admissible_alphas(m):
        tables = _slot_tables(a.bits, fs)
        total = total + _engine(a.zero_count, tables, depth, mode).expand()
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
    level, pos = interval.level, interval.position
    alphas = admissible_alphas(len(fs))
    if mode == scalars.RATIONAL:
        # each slot table's entries at J's ancestors, gathered once; then
        # one row of ancestor terms per alpha, all summed as ints
        chain = [pos >> (level - k) for k in range(level)]
        columns = [
            [column(table(f)[:level], chain) for table in (coefficient_table, average_table)]
            for f in fs
        ]
        rows = [
            _ancestor_terms(
                a.zero_count, [columns[j][bit] for j, bit in enumerate(a.bits)], interval
            )
            for a in alphas
        ]
        acc = row_total(row_sum(rows))
    else:
        acc = scalars.zero(mode)
        for a in alphas:
            tables = [support_layout(t[:level], interval) for t in _slot_tables(a.bits, fs)]
            acc = acc + _engine(a.zero_count, tables, level, mode, interval).values[0]

    return StepFunction.constant(lhs - acc - corr, depth, mode).restrict(interval)
