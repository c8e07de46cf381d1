"""Dyadic grids on [0, 1): intervals, step functions, Haar transforms.

The universe is always [0, 1).  A grid of depth N has 2**N equal leaf
cells; a step function is constant on each leaf.  The Haar function of an
interval I is negative on the left half of I and positive on the right
half, with magnitude |I|**(-1/2).
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import accumulate, chain, repeat
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import scalars
from .errors import ResolutionError, ShapeError
from .scalars import FLOAT64, RATIONAL, check_mode


def check_interval(level: int, position: int):
    """Reject a (level, position) pair that names no dyadic interval: each
    must be an int (``scalars.check_int``), not a bool or a float.  Two
    ints, as every interval the library builds has, skip the two calls."""
    if type(level) is not int or type(position) is not int:
        scalars.check_int(level, "level")
        scalars.check_int(position, "position")
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if position < 0 or position >> level:
        raise ValueError(f"position {position} out of range for level {level}")


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The dyadic interval [position * 2**-level, (position+1) * 2**-level)."""

    level: int
    position: int

    def __post_init__(self):
        check_interval(self.level, self.position)

    @property
    def length(self) -> Fraction:
        return Fraction(1, 1 << self.level)

    @property
    def is_universe(self) -> bool:
        return self.level == 0

    def parent(self) -> "DyadicInterval | None":
        if self.level == 0:
            return None
        return DyadicInterval(self.level - 1, self.position >> 1)

    def left_child(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.position)

    def right_child(self) -> "DyadicInterval":
        return DyadicInterval(self.level + 1, 2 * self.position + 1)

    def children(self) -> tuple["DyadicInterval", "DyadicInterval"]:
        return self.left_child(), self.right_child()

    def sibling(self) -> "DyadicInterval":
        if self.level == 0:
            raise ValueError("the universe has no sibling")
        return DyadicInterval(self.level, self.position ^ 1)

    def is_right_half(self) -> bool:
        if self.level == 0:
            raise ValueError("the universe is not a half of anything")
        return bool(self.position & 1)

    def contains(self, other: "DyadicInterval") -> bool:
        """self contains other (possibly equal)."""
        if other.level < self.level:
            return False
        return (other.position >> (other.level - self.level)) == self.position

    def strictly_contains(self, other: "DyadicInterval") -> bool:
        return self.level < other.level and self.contains(other)

    def ancestors(self, include_self: bool = False) -> Iterator["DyadicInterval"]:
        """Walk upward toward the universe, strictly unless include_self."""
        cur = self if include_self else self.parent()
        while cur is not None:
            yield cur
            cur = cur.parent()

    def leaf_span(self, depth: int) -> range:
        """Indices of the leaves of a depth-``depth`` grid inside self."""
        if self.level > depth:
            raise ResolutionError(
                f"interval at level {self.level} is finer than depth {depth}"
            )
        width = 1 << (depth - self.level)
        return range(self.position * width, (self.position + 1) * width)

    def contains_leaf(self, leaf: int, depth: int) -> bool:
        scalars.check_int(leaf, "leaf")
        if not 0 <= leaf < (1 << depth):
            raise ValueError(f"leaf {leaf} out of range for depth {depth}")
        return leaf in self.leaf_span(depth)

    def __str__(self):
        return f"({self.level},{self.position})"


UNIVERSE = DyadicInterval(0, 0)

# The finest grid of any function, spectrum, interval family, sampler or
# verify suite: 2**20 leaves.
MAX_DEPTH = 20


def check_depth(depth: int) -> int:
    """Reject a grid depth that is not an int in 1..MAX_DEPTH before
    anything is allocated for it."""
    return scalars.check_range(depth, "depth", 1, MAX_DEPTH)


def check_haar_level(level: int, depth: int):
    """Reject a level that carries no Haar function on a depth-``depth``
    grid: only levels 0..depth-1 do, a leaf has no halves."""
    if level >= depth:
        raise ResolutionError(
            f"no Haar function at level {level} on a depth-{depth} grid"
        )


def check_alpha_bit(bit):
    """Refuse an alpha bit that is not the int 0 or 1: a bool or a float
    is not read as one, so that every alpha prints as it reads back.  The
    one bit rule of ``pairing`` and ``AlphaVector``."""
    if type(bit) is not int or bit not in (0, 1):
        raise ValueError(f"alpha bits must be 0 or 1, got {bit!r}")


def interval_family(depth: int) -> list[DyadicInterval]:
    """All intervals of levels 0..depth-1, i.e. those carrying a Haar
    function on a depth-``depth`` grid, in (level, position) order."""
    check_depth(depth)
    return [
        DyadicInterval(level, pos)
        for level in range(depth)
        for pos in range(1 << level)
    ]


def level_position(k: int) -> tuple[int, int]:
    """The (level, position) of the interval at index k of
    ``interval_family(depth)`` for any depth above its level: 2**level - 1
    intervals come before level ``level``."""
    level = (k + 1).bit_length() - 1
    return level, k + 1 - (1 << level)


def interval_at(k: int) -> DyadicInterval:
    """The interval at index k of ``interval_family`` (``level_position``)."""
    return DyadicInterval(*level_position(k))


def haar_eval(interval: DyadicInterval, leaf: int, depth: int, mode: str = RATIONAL):
    """Value of the Haar function of ``interval`` on one leaf.

    Negative (-2**(level/2)) on the left half, positive on the right half,
    zero outside.
    """
    check_depth(depth)
    check_mode(mode)
    check_haar_level(interval.level, depth)
    if not interval.contains_leaf(leaf, depth):
        return scalars.zero(mode)
    magnitude = scalars.root2_power(interval.level, mode)
    right = (leaf >> (depth - interval.level - 1)) & 1
    return magnitude if right else -magnitude


def _coerce_values(values: Iterable, mode: str) -> tuple:
    return tuple(scalars.coerce(v, mode) for v in values)


def _check_leaf_count(depth: int, values: Sequence, support: DyadicInterval = UNIVERSE):
    """Refuse values with a ShapeError unless they are the leaves of one
    tree on ``support``."""
    n = len(support.leaf_span(depth))
    if len(values) != n:
        where = f" on {support}" if support.level else ""
        raise ShapeError(
            f"expected {n} leaf values for depth {depth}{where}, got {len(values)}"
        )


@dataclass(frozen=True)
class StepFunction:
    """A function on [0, 1) constant on the 2**depth leaf cells.

    ``values`` is the row of leaves (``scalars.as_row``).  It is also the
    SupportView of the universe: ``support`` and ``blocks`` are class
    attributes, not fields, so equality and JSON ignore them.
    """

    depth: int
    values: tuple
    mode: str = RATIONAL

    support = UNIVERSE
    blocks = ()

    def __post_init__(self):
        check_mode(self.mode)
        check_depth(self.depth)
        _check_leaf_count(self.depth, self.values)
        values = _coerce_values(self.values, self.mode)
        object.__setattr__(self, "values", scalars.as_row(values, self.mode))

    @classmethod
    def _raw(cls, depth: int, values, mode: str) -> "StepFunction":
        """Internal constructor: values must already be mode scalars or a row."""
        f = object.__new__(cls)
        object.__setattr__(f, "depth", depth)
        object.__setattr__(f, "values", scalars.as_row(values, mode))
        object.__setattr__(f, "mode", mode)
        return f

    @classmethod
    def from_values(cls, values: Sequence, mode: str = RATIONAL) -> "StepFunction":
        n = len(values)
        depth = n.bit_length() - 1
        if n < 2 or (1 << depth) != n:
            raise ShapeError(f"value count {n} is not a power of two >= 2")
        return cls(depth, tuple(values), mode)

    @classmethod
    def constant(cls, value, depth: int, mode: str = RATIONAL) -> "StepFunction":
        check_depth(depth)
        v = scalars.coerce(value, mode)
        return cls._raw(depth, [v] * (1 << depth), mode)

    @classmethod
    def zeros(cls, depth: int, mode: str = RATIONAL) -> "StepFunction":
        return cls.constant(0, depth, mode)

    @classmethod
    def indicator(
        cls, interval: DyadicInterval, depth: int, mode: str = RATIONAL
    ) -> "StepFunction":
        return SupportView.indicator(interval, UNIVERSE, depth, mode)

    @classmethod
    def haar(
        cls, interval: DyadicInterval, depth: int, mode: str = RATIONAL
    ) -> "StepFunction":
        return SupportView.haar(interval, UNIVERSE, depth, mode)

    # -- pointwise algebra --------------------------------------------------

    def _leafwise(self, op, other: "StepFunction") -> "StepFunction":
        check_grid(other, self.depth, self.mode, trees=tree_count(self))
        return self._raw(self.depth, op(self.values, other.values), self.mode)

    def __add__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self._leafwise(lambda x, y: scalars.row_sum([x, y]), other)

    def __sub__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self._leafwise(scalars.row_difference, other)

    def __neg__(self):
        return StepFunction._raw(self.depth, [-x for x in self.values], self.mode)

    def __mul__(self, other):
        if isinstance(other, StepFunction):
            return self._leafwise(scalars.row_product, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, StepFunction):
            return NotImplemented
        return self.scale(other)

    def scale(self, scalar) -> "StepFunction":
        s = scalars.coerce(scalar, self.mode)
        return StepFunction._raw(self.depth, [s * x for x in self.values], self.mode)

    def abs(self) -> "StepFunction":
        return StepFunction._raw(self.depth, [abs(x) for x in self.values], self.mode)

    def restrict(self, interval: DyadicInterval) -> "StepFunction":
        """self times the indicator of ``interval``, each tree of a forest
        on its own."""
        span = interval.leaf_span(self.depth)
        z = scalars.zero(self.mode)
        vals = [z] * len(self.values)
        for start in range(0, len(vals), 1 << self.depth):
            leaves = slice(start + span.start, start + span.stop)
            vals[leaves] = self.values[leaves]
        return StepFunction._raw(self.depth, vals, self.mode)

    def is_zero(self) -> bool:
        return scalars.row_is_zero(self.values)

    def vanishes_outside(self, interval: DyadicInterval) -> bool:
        """Whether each tree is zero off ``interval``."""
        span = interval.leaf_span(self.depth)
        n = 1 << self.depth
        return all(
            not v for leaf, v in enumerate(self.values) if leaf % n not in span
        )

    def expand(self) -> "StepFunction":
        return self

    def as_float64(self) -> "StepFunction":
        if self.mode == FLOAT64:
            return self
        return StepFunction._raw(
            self.depth, [scalars.finite_float(v) for v in self.values], FLOAT64
        )

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "mode": self.mode,
            "values": [scalars.encode_value(v, self.mode) for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "StepFunction":
        mode = check_mode(obj.get("mode", RATIONAL))
        depth = check_depth(obj["depth"])
        values = [scalars.decode_value(v, mode) for v in obj["values"]]
        _check_leaf_count(depth, values)
        return cls._raw(depth, values, mode)


@dataclass(frozen=True)
class SupportView:
    """A step function seen from one dyadic interval S, its support.

    ``values`` holds the leaf values on S, one tree's row of them
    (``scalars.as_row``): a forest is a StepFunction.  Outside S the
    function is given block by block: ``blocks[k]`` is its one mode
    scalar on the sibling of S's ancestor at level k + 1 (the last block
    is S's own sibling), so S and its blocks tile [0, 1).  The view of the
    universe is the StepFunction itself: ``seen`` builds that, never a
    SupportView.

    Inputs that vanish outside S, and every operator output built from
    them, take O(|S| + level(S)) numbers this way.  The tables of a view
    (``interval_integrals`` and the two built on it) need it to vanish
    outside S and come in the support layout of ``support_layout``.
    The constructor checks the mode and the counts of blocks and values,
    in O(1): the blocks are not coerced.
    """

    depth: int
    support: DyadicInterval
    values: tuple
    blocks: tuple
    mode: str

    def __post_init__(self):
        check_mode(self.mode)
        if len(self.blocks) != self.support.level:
            raise ShapeError(
                f"a view of {self.support} needs {self.support.level} blocks, "
                f"got {len(self.blocks)}"
            )
        _check_leaf_count(self.depth, self.values, self.support)
        object.__setattr__(self, "values", scalars.as_row(self.values, self.mode))

    @staticmethod
    def restrict(f: StepFunction, support: DyadicInterval):
        """f seen from ``support``, every block zero.  f must vanish
        outside ``support`` (``StepFunction.vanishes_outside``), or a
        ValueError is raised."""
        if not f.vanishes_outside(support):
            raise ValueError(f"the function is nonzero outside {support}")
        span = support.leaf_span(f.depth)
        blocks = (scalars.zero(f.mode),) * support.level
        return seen(f.depth, support, f.values[span.start:span.stop], blocks, f.mode)

    @staticmethod
    def _halves(
        interval: DyadicInterval, support: DyadicInterval, depth: int,
        mode: str, left, right,
    ):
        """``left`` on the left half of ``interval``, ``right`` on its right
        half (all of it for a leaf), zero elsewhere, seen from ``support``."""
        check_depth(depth)
        if not support.contains(interval):
            raise ValueError(f"{support} does not contain {interval}")
        z = scalars.zero(mode)
        span = interval.leaf_span(depth)
        start = span.start - support.leaf_span(depth).start
        half = len(span) // 2
        vals = [z] * (1 << (depth - support.level))
        vals[start:start + half] = [left] * half
        vals[start + half:start + len(span)] = [right] * (len(span) - half)
        return seen(depth, support, vals, (z,) * support.level, mode)

    @classmethod
    def indicator(
        cls, interval: DyadicInterval, support: DyadicInterval, depth: int,
        mode: str = RATIONAL,
    ):
        """The indicator of ``interval`` seen from ``support``, which must
        contain it."""
        one = scalars.one(mode)
        return cls._halves(interval, support, depth, mode, one, one)

    @classmethod
    def haar(
        cls, interval: DyadicInterval, support: DyadicInterval, depth: int,
        mode: str = RATIONAL,
    ):
        """The Haar function of ``interval`` seen from ``support``, which
        must contain it."""
        check_haar_level(interval.level, check_depth(depth))
        mag = scalars.root2_power(interval.level, mode)
        return cls._halves(interval, support, depth, mode, -mag, mag)

    def scale(self, scalar) -> "SupportView":
        s = scalars.coerce(scalar, self.mode)
        return SupportView(
            self.depth, self.support, [s * x for x in self.values],
            tuple(s * block for block in self.blocks), self.mode,
        )

    def expand(self) -> StepFunction:
        """The function on the full grid: S's values, then each block from
        S's own sibling up, as wide as the leaves gathered so far."""
        vals = list(self.values)
        signs = _ancestor_signs(self.support)
        for block, sign in zip(reversed(self.blocks), reversed(signs)):
            run = [block] * len(vals)
            vals = run + vals if sign > 0 else vals + run
        return StepFunction._raw(self.depth, vals, self.mode)


def seen(depth: int, support: DyadicInterval, values, blocks, mode: str):
    """The function with ``values`` on ``support`` and ``blocks`` outside
    it: a StepFunction on the universe, a SupportView elsewhere."""
    if support.level == 0:
        return StepFunction._raw(depth, values, mode)
    return SupportView(depth, support, values, tuple(blocks), mode)


def tree_count(f: StepFunction | SupportView) -> int:
    """How many grids f lays side by side: 1 for every function built
    through a public constructor.  A forest of K trees is a StepFunction
    whose ``values`` hold K grids of leaves one after another, so that one
    pass of the tables, the operators and the float64 norms serves K
    functions; each tree is read as a function of its own.  A SupportView
    holds exactly one tree, so a forest is always a StepFunction."""
    return len(f.values) >> (f.depth - f.support.level)


def check_grid(
    f: StepFunction | SupportView, depth: int, mode: str,
    support: DyadicInterval = UNIVERSE, trees: int = 1,
):
    """Refuse f with a ShapeError unless it has this depth, mode, support
    and tree count, checked in that order: the one rule for functions that
    meet in the pointwise algebra, an inner product or an operator call."""
    if f.depth != depth:
        raise ShapeError(f"depth mismatch: {depth} vs {f.depth}")
    if f.mode != mode:
        raise ShapeError(f"mode mismatch: {mode} vs {f.mode}")
    if f.support != support:
        raise ShapeError(
            f"inputs are seen from different supports: {support} vs {f.support}"
        )
    if tree_count(f) != trees:
        raise ShapeError(f"inputs are forests of {trees} and {tree_count(f)} trees")


def one_grid(fs: Sequence[StepFunction | SupportView]) -> list[StepFunction]:
    """fs on the universe, each refused with a ShapeError unless it has the
    depth and mode of fs[0] and is one tree (``check_grid``): the one rule
    of a reader of one grid, whose value is a sum or a sup over the
    intervals of one tree."""
    fs = [f.expand() for f in fs]
    depth, mode = fs[0].depth, fs[0].mode
    for f in fs:
        check_grid(f, depth, mode)
    return fs


def forest(fs: Sequence[StepFunction]) -> StepFunction:
    """The StepFunctions fs, of one depth and mode, side by side as one
    forest; fs[0] itself when it is alone.

    The pointwise algebra (``+``, ``-``, ``*`` and ``inner_product``) takes
    two functions of as many trees and refuses any other pair with a
    ShapeError: a one-tree function is not tiled against a forest.  The
    operators tile b and their tables themselves.
    """
    if len(fs) == 1:
        return fs[0]
    values = list(chain.from_iterable(f.values for f in fs))
    return StepFunction._raw(fs[0].depth, values, fs[0].mode)


def tree(f: StepFunction | SupportView, k: int) -> StepFunction | SupportView:
    """Tree k of f as a function of its own; f itself when it has one."""
    if tree_count(f) == 1:
        return f
    n = 1 << f.depth
    return StepFunction._raw(f.depth, f.values[k * n:(k + 1) * n], f.mode)


def block_runs(f: StepFunction | SupportView) -> Iterator[tuple]:
    """The (value, leaf count) pairs of f outside ``f.values``: block k of
    a view and its 2**(depth - k - 1) leaves, nothing for a StepFunction.
    With ``f.values`` (one leaf each) they give the distribution of f,
    which is all that L^p norms and weak quasinorms read."""
    for k, block in enumerate(f.blocks):
        yield block, 1 << (f.depth - k - 1)


def _ancestor_signs(support: DyadicInterval) -> list:
    """For each strict ancestor I of ``support``, level by level, the sign
    of h_I on the half of I that holds ``support``: +1 on the right half,
    -1 on the left."""
    pos, top = support.position, support.level
    return [((pos >> (top - 1 - level)) & 1) * 2 - 1 for level in range(top)]


def support_layout(table: Sequence[Sequence], support: DyadicInterval) -> list:
    """The rows of a full (level, pos) table cut down to the intervals that
    contain ``support`` or lie inside it.

    A row above the support's level keeps its one ancestor entry; a row at
    or below it keeps the 2**(level - support.level) entries inside the
    support, in position order.  Tables of a SupportView, and the tables
    ``_engine`` takes on a support, use this layout; on the universe it is
    the full table itself.
    """
    top, pos = support.level, support.position
    if top == 0:
        return table
    return [
        row[pos >> (top - level):(pos >> (top - level)) + 1]
        if level < top
        else row[pos << (level - top):(pos + 1) << (level - top)]
        for level, row in enumerate(table)
    ]


@dataclass(frozen=True)
class HaarSpectrum:
    """Global mean plus the coefficient table: row ``level`` holds the
    2**level coefficients <f, h_I> of that level in position order, zeros
    included, the layout of ``coefficient_table``, as one row
    (``scalars.as_row``)."""

    depth: int
    mean: object
    coeffs: tuple
    mode: str = RATIONAL

    def __post_init__(self):
        check_mode(self.mode)
        check_depth(self.depth)
        object.__setattr__(self, "mean", scalars.coerce(self.mean, self.mode))
        shape = [len(row) for row in self.coeffs]
        if shape != [1 << level for level in range(self.depth)]:
            raise ShapeError(
                f"expected {self.depth} rows of 1, 2, 4, ... coefficients, "
                f"got rows of {shape}"
            )
        mode = self.mode
        coeffs = tuple(scalars.as_row(_coerce_values(row, mode), mode) for row in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _raw(cls, depth: int, mean, rows: list, mode: str) -> "HaarSpectrum":
        """Internal constructor: the mean and rows must already be mode
        scalars or rows, in the shape of a depth-``depth`` coefficient
        table."""
        s = object.__new__(cls)
        object.__setattr__(s, "depth", depth)
        object.__setattr__(s, "mean", mean)
        object.__setattr__(s, "coeffs", tuple(scalars.as_row(row, mode) for row in rows))
        object.__setattr__(s, "mode", mode)
        return s

    def coefficient(self, interval: DyadicInterval):
        check_haar_level(interval.level, self.depth)
        return self.coeffs[interval.level][interval.position]

    def to_json_dict(self) -> dict:
        entries = [
            {"level": level, "pos": pos, "value": scalars.encode_value(v, self.mode)}
            for level, row in enumerate(self.coeffs)
            for pos, v in enumerate(row)
            if v
        ]
        return {
            "depth": self.depth,
            "mode": self.mode,
            "mean": scalars.encode_value(self.mean, self.mode),
            "coeffs": entries,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HaarSpectrum":
        mode = check_mode(obj.get("mode", RATIONAL))
        depth = check_depth(obj["depth"])
        z = scalars.zero(mode)
        rows = [[z] * (1 << level) for level in range(depth)]
        for e in obj.get("coeffs", []):
            level, pos = scalars._json_int(e, "level"), scalars._json_int(e, "pos")
            check_interval(level, pos)
            if level >= depth:
                raise ResolutionError(
                    f"coefficient at level {level} does not fit a depth-{depth} grid"
                )
            rows[level][pos] = scalars.decode_value(e["value"], mode)
        return cls._raw(depth, scalars.decode_value(obj["mean"], mode), rows, mode)


def canonical_json(obj) -> str:
    """The canonical text of a report: one line with sorted keys, and no
    NaN or infinity.  Without ``indent``, ``json.dumps`` runs the C encoder."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


# -- integral tables ----------------------------------------------------------


def _support_level(f: StepFunction | SupportView) -> int:
    """f's support level, once its blocks are checked to be zero, as every
    table of a view assumes."""
    if any(f.blocks):
        raise ValueError("tables of a SupportView need it to vanish off its support")
    return f.support.level


def interval_integrals(f: StepFunction | SupportView) -> list:
    """table[level][pos] = integral of f over that interval, levels 0..depth.

    A SupportView, which must vanish outside its support, gets its table in
    the support layout, computed from its leaves on the support alone.  A
    forest's rows hold its trees' rows one after another, as do the tables
    built on this one.  Every table is a list of rows, built by the row
    functions of ``scalars`` in both modes, from f's row of leaves: in
    rational mode every level adds ints.
    """
    top = _support_level(f)
    level = scalars.row_root2_scaled(f.values, -2 * f.depth)
    table = [level]
    for _ in range(f.depth - top):
        level = scalars.row_pair_sums(level)
        table.append(level)
    # every ancestor of the support holds all of f
    table += [level] * top
    table.reverse()
    return table


def _kept(build):
    """The table ``build(f, *args)``, built on the first call for each args
    and kept on f under the builder's name, with the args after it when
    there are any: the values of f never change, and callers only read its
    tables.  A kept value must not hold f itself, which would make f and
    its tables a reference cycle that only the cyclic collector frees."""
    name = build.__name__

    @wraps(build)
    def table(f, *args):
        key = (name, *args) if args else name
        if key not in f.__dict__:
            f.__dict__[key] = build(f, *args)
        return f.__dict__[key]

    return table


@_kept
def average_table(f: StepFunction | SupportView) -> list:
    """table[level][pos] = average of f over that interval, levels 0..depth."""
    return [
        scalars.row_root2_scaled(row, 2 * level)
        for level, row in enumerate(interval_integrals(f))
    ]


@_kept
def coefficient_table(f: StepFunction | SupportView) -> list:
    """table[level][pos] = Haar coefficient <f, h_I>, levels 0..depth-1
    (in the support layout for a SupportView): 2**(level/2) times the
    integral of f over the right half of I less that over the left half."""
    ints = interval_integrals(f)
    top = _support_level(f)
    out = []
    if top:
        # the ancestors of the support: f, all of it, lives in one half
        weights = scalars.signed_root2_powers(range(top), _ancestor_signs(f.support), f.mode)
        sides = scalars.row_product(ints[top] * top, weights)
        out = [sides[level:level + 1] for level in range(top)]
    for level in range(top, f.depth):
        out.append(scalars.row_pair_differences(ints[level + 1], level))
    return out


# -- transforms ----------------------------------------------------------------


def analyze(f: StepFunction) -> HaarSpectrum:
    """Haar transform: global mean plus <f, h_I> for every interval of
    one tree (``one_grid``)."""
    [f] = one_grid([f])
    mean = interval_integrals(f)[0][0]
    return HaarSpectrum._raw(f.depth, mean, coefficient_table(f), f.mode)


def synthesize(spectrum: HaarSpectrum) -> StepFunction:
    """Inverse Haar transform: mean + sum of coeff * h_I, each leaf adding
    its terms from the coarsest level down (``scalars.row_haar_sum``)."""
    depth, mode = spectrum.depth, spectrum.mode
    terms = [
        scalars.row_root2_scaled(row, level) for level, row in enumerate(spectrum.coeffs)
    ]
    leaves = scalars.row_haar_sum(spectrum.mean, terms, True)
    return StepFunction._raw(depth, leaves, mode)


def pairing(f: StepFunction, interval: DyadicInterval, alpha: int):
    """The two ways a function enters a paraproduct slot.

    alpha = 0 pairs with the Haar function (<f, h_I>); alpha = 1 takes the
    average over the interval.  f must be one tree (``one_grid``).  One
    query sums the interval's leaves; a caller that wants every interval
    reads ``coefficient_table`` or ``average_table`` instead.
    """
    check_alpha_bit(alpha)
    [f] = one_grid([f])
    depth, mode = f.depth, f.mode
    if alpha == 0:
        check_haar_level(interval.level, depth)
    span = interval.leaf_span(depth)
    if alpha == 1:
        total = scalars.row_total(f.values[span.start:span.stop])
        return total * scalars.reciprocal(len(span), mode)
    half = len(span) // 2
    acc = scalars.zero(mode)
    for i, leaf in enumerate(span):
        acc = (acc + f.values[leaf]) if i >= half else (acc - f.values[leaf])
    return acc * scalars.root2_power(interval.level - 2 * depth, mode)


def inner_product(f: StepFunction, g: StepFunction):
    """Integral of f*g over [0, 1), every tree of a forest added in: the
    total of the row of leaf products, times 2**-depth.  In rational mode
    that row is ints over one denominator, made an ``Exact`` once."""
    f, g = f.expand(), g.expand()
    check_grid(g, f.depth, f.mode, trees=tree_count(f))
    total = scalars.row_total(scalars.row_product(f.values, g.values))
    return total * scalars.reciprocal(1 << f.depth, f.mode)


def pointwise_product(fs: Sequence[StepFunction]) -> StepFunction:
    if not fs:
        raise ShapeError("need at least one function")
    out = fs[0]
    for g in fs[1:]:
        out = out * g
    return out


# -- norms ---------------------------------------------------------------------


def _normalize_p(p) -> Fraction | None:
    """None encodes infinity."""
    if p == math.inf:
        return None
    return scalars.check_exponent(p)


def _by_tree(seq: Sequence, f: StepFunction | SupportView) -> list:
    """seq, laid out as f's values, cut into one run per tree of f; a
    forest has no blocks, so a view's block runs go with its one tree."""
    trees = tree_count(f)
    if trees == 1:
        return [seq]
    width = len(seq) // trees
    return [seq[start:start + width] for start in range(0, len(seq), width)]


def _per_tree(values: list):
    """A norm of f from its list of one value per tree: the value itself
    for one tree, the list for a forest (``tree_count``)."""
    return values if len(values) > 1 else values[0]


def _peak(f: StepFunction | SupportView):
    """max |v| over the values and blocks of each tree of f (``_per_tree``)."""
    blocks = [v for v, _ in block_runs(f)]
    return _per_tree([max(map(abs, chain(t, blocks))) for t in _by_tree(f.values, f)])


def _power_mean_pow(f: StepFunction | SupportView, k, top: float | None = None):
    """The mean of size(v) ** k over the leaves of each tree of f, summed
    over its values and then its block runs times their leaf counts, as a
    list with one mean per tree (``tree_count``); the powers are taken in
    one pass over all of f.

    size(v) is |v| in f's own scalars, so the mean is exact in rational
    mode for an integer k; with a ``top`` it is the float |v| / top.
    Without a ``top``, a power with k = 1 is |v|, and a float64 power with
    k = 2 is v * v, correctly rounded, which overflows to inf rather than
    raise; every other power is ``**``, a libm ``pow`` for a float.
    Floats add with ``scalars.total``, correctly rounded, so the mean does
    not depend on the interpreter, and a view's equals its expansion's:
    each run's leaf count is a power of two.
    """
    runs = list(block_runs(f))
    if top is None:
        mode = f.mode
        if k == 1:
            terms = list(map(abs, f.values))
            terms += [abs(v) * c for v, c in runs]
        elif mode == FLOAT64 and k == 2:
            terms = [v * v for v in f.values]
            terms += [v * v * c for v, c in runs]
        else:
            terms = [abs(v) ** k for v in f.values]
            terms += [abs(v) ** k * c for v, c in runs]
    else:
        mode = FLOAT64
        terms = [(abs(x) / top) ** k for x in map(float, f.values)]
        terms += [(abs(float(v)) / top) ** k * c for v, c in runs]
    w = scalars.reciprocal(1 << f.depth, mode)
    return [scalars.total(t, mode) * w for t in _by_tree(terms, f)]


def lp_norm_pow(f: StepFunction | SupportView, p):
    """||f||_p ** p, exact in rational mode for an integer p; max |f| for
    p = inf.  A forest gets the list of its trees' values."""
    q = _normalize_p(p)
    if q is None:
        return _peak(f)
    if q.denominator == 1:
        k = q.numerator
    elif f.mode == RATIONAL:
        raise ValueError(f"exact p-th powers need an integer exponent, got {q}")
    else:
        k = float(q)
    means = _power_mean_pow(f, k)
    if f.mode == FLOAT64 and math.inf in means:
        # v * v overflows to inf, where the libm pow of other powers raises
        raise OverflowError(f"|f| ** {k} exceeds the float64 range")
    return _per_tree(means)


# the largest integer p for which lp_norm averages |f|**p in f's own
# scalars, exactly in rational mode; a larger power's exact mean grows
# too large
_MAX_EXACT_POWER = 1024


def lp_norm(f: StepFunction | SupportView, p):
    """The L^p norm, p in [1, inf].

    Float mode always returns a float.  Rational mode is exact for p = 1
    and p = inf, exact for p = 2 whenever the square root exists in the
    scalar field, and falls back to a float otherwise.  Every other p takes
    the float ``power_mean``.  A forest of several trees gets the list of
    their norms.
    """
    q = _normalize_p(p)
    if q is None or (f.mode == RATIONAL and q == 1):
        return lp_norm_pow(f, p)
    if f.mode == RATIONAL and q == 2:
        return _per_tree([scalars.scalar_sqrt(m, f.mode) for m in _power_mean_pow(f, 2)])
    return power_mean(f, q)


def power_mean(f: StepFunction | SupportView, q: Fraction):
    """(mean of |f|**q) ** (1/q) as a float, for a finite q > 0: the L^q
    norm for q >= 1 and a quasinorm below; M * (mean of (|f|/M)**q)**(1/q)
    with M = max |f| when the mean over- or underflows a float.

    A forest of several trees (``tree_count``) gets the list of its trees'
    values, from one pass of powers over all of it.  Each tree takes the
    fallback on its own: a tree whose mean over- or underflows, and every
    tree, one at a time, when a power or the sum overflows.
    """
    pf = float(q)
    own = q.denominator == 1 and q.numerator <= _MAX_EXACT_POWER
    trees = tree_count(f)
    # a float64 f needs no top: (|x| / 1.0) ** k is |x| ** k
    plain = own or f.mode == FLOAT64
    try:
        means = [float(m) for m in _power_mean_pow(f, pf, None if plain else 1.0)]
    except OverflowError:
        if trees > 1:
            return [power_mean(tree(f, k), q) for k in range(trees)]
        means = [math.inf]
    out = []
    for k, mean in enumerate(means):
        if sys.float_info.min <= mean < math.inf:
            out.append(mean ** (1.0 / pf))
            continue
        t = tree(f, k)
        top = float(_peak(t))
        out.append(top * _power_mean_pow(t, pf, top)[0] ** (1.0 / pf) if top else 0.0)
    return _per_tree(out)


@_kept
def _sorted_magnitudes(f: StepFunction | SupportView) -> list:
    """|f| in floats, largest first: a list per tree, or a view's
    (magnitude, leaf count) runs when it has blocks.  Kept on f, so the
    weak quasinorms for several q sort |f| once."""
    values = f.values if f.mode == FLOAT64 else list(map(float, f.values))
    if f.blocks:
        blocks = [(abs(float(v)), c) for v, c in block_runs(f)]
        return sorted(chain(zip(map(abs, values), repeat(1)), blocks), reverse=True)
    return [sorted(map(abs, t), reverse=True) for t in _by_tree(values, f)]


def weak_power_mean(f: StepFunction | SupportView, q):
    """The weak-L^q quasinorm of each tree of f, max over t > 0 of
    t * |{|f| >= t}| ** (1/q), as a float for a finite q > 0; a forest of
    several trees (``tree_count``) gets the list of its trees' values.

    Each tree's |values|, in floats, sorted largest first
    (``_sorted_magnitudes``), give v * (k / n) ** (1/q) at rank k of n
    leaves, the last of a run of ties counting them all; the trees of a
    StepFunction share one table of these steps, and a view's block runs
    count their leaves.
    """
    inv = 1.0 / float(q)
    n = 1 << f.depth
    mags = _sorted_magnitudes(f)
    if f.blocks:
        ranks = accumulate(c for _, c in mags)
        return max(v * (k / n) ** inv for (v, _), k in zip(mags, ranks))
    steps = [(k / n) ** inv for k in range(1, n + 1)]
    return _per_tree([max(map(mul, tree, steps)) for tree in mags])


@_kept
def _weak_candidates(f: StepFunction | SupportView) -> list[list]:
    """For each tree of f, pairs (v, Fraction measure of {|f| >= v}) for
    its distinct nonzero |values|, largest v first; a SupportView is read
    from its runs.  Kept on f, so the exact weak quasinorms for several p
    sort |f| once."""
    n = 1 << f.depth
    out = []
    for values in _by_tree(f.values, f):
        counts = Counter(map(abs, values))
        for v, c in block_runs(f):
            counts[abs(v)] += c
        counts.pop(scalars.zero(f.mode), None)
        mags = sorted(counts, reverse=True)
        totals = accumulate(map(counts.__getitem__, mags))
        out.append([(v, Fraction(t, n)) for v, t in zip(mags, totals)])
    return out


def weak_lp_quasinorm(f: StepFunction, p):
    """sup over t > 0 of t * |{|f| > t}|**(1/p), attained at value jumps.

    Exact in rational mode for p = 1; otherwise the float
    ``weak_power_mean``.  A forest of several trees gets the list of their
    quasinorms.
    """
    q = _normalize_p(p)
    if q is None:
        raise ValueError("weak quasinorm needs a finite exponent")
    if f.mode == RATIONAL and q == 1:
        return weak_lp_quasinorm_pow(f, 1)
    return weak_power_mean(f, q)


def weak_lp_quasinorm_pow(f: StepFunction, p):
    """max over value jumps of v**p * |{|f| >= v}|, exact for integer p;
    a forest gets the list of its trees' values."""
    q = _normalize_p(p)
    if q is None or q.denominator != 1:
        raise ValueError(f"exact weak quasinorm powers need an integer p, got {p}")
    k, z = q.numerator, scalars.zero(f.mode)
    tops = [max((v ** k * m for v, m in c), default=z) for c in _weak_candidates(f)]
    return _per_tree(tops)
