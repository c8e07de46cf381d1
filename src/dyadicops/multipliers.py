"""Haar multipliers, their multilinear variants, and commutators with a
multiplying function.

Sign convention used throughout: the commutator in slot i is

    [b, T]_i(f_1, ..., f_m) = T(f_1, ..., b*f_i, ..., f_m) - b * T(f_1, ..., f_m)

(multiply inside first, then subtract b times the plain output).  Swapping
the convention only flips the sign of the result, so every norm statement
is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import scalars
from .core import DyadicInterval, StepFunction, _kept, seen
from .paraproducts import (
    _as_alpha, _check_call, _check_slot, _engine, _grid_rows, _slot_tables,
)
from .scalars import RATIONAL, row_difference, row_product

COMMUTATOR_CONVENTION = "T(f_1,...,b*f_i,...,f_m) - b*T(f_1,...,f_m)"


@dataclass(frozen=True)
class SymbolSequence:
    """A bounded family of numbers indexed by dyadic intervals.

    ``entries`` overrides ``default`` on the listed intervals, its keys
    ``DyadicInterval``s.  Values are stored as given (int, Fraction, Exact,
    or finite float; not bool) and coerced to the computation mode when
    the symbol is applied.  The coerced table is built once per (depth,
    mode) and kept (``core._kept``), so ``entries`` must not change after
    the first ``table`` call; equality, repr and JSON ignore the kept
    tables.
    """

    default: object = 0
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for interval in self.entries:
            if not isinstance(interval, DyadicInterval):
                raise TypeError(
                    f"symbol entries are keyed by DyadicInterval, got {interval!r}"
                )
        for v in (self.default, *self.entries.values()):
            scalars.check_scalar(v)

    @classmethod
    def constant(cls, value) -> "SymbolSequence":
        return cls(default=value)

    def value(self, interval: DyadicInterval):
        return self.entries.get(interval, self.default)

    @_kept
    def table(self, depth: int, mode: str) -> tuple:
        """Per-(level, pos) coerced values for a depth-``depth`` grid, one
        row (``scalars.as_row``) per level, as the engine reads its
        factors; kept for each (depth, mode).  Each level's row starts as
        the coerced default, and each entry of a level below ``depth`` is
        then written at its position."""
        default = scalars.coerce(self.default, mode)
        rows = [[default] * (1 << level) for level in range(depth)]
        for interval, v in self.entries.items():
            if interval.level < depth:
                rows[interval.level][interval.position] = scalars.coerce(v, mode)
        return tuple(scalars.as_row(row, mode) for row in rows)

    def to_json_dict(self) -> dict:
        def enc(v):
            if isinstance(v, float):
                return v
            return scalars.encode_value(v, RATIONAL)

        return {
            "default": enc(self.default),
            "entries": [
                {"level": i.level, "pos": i.position, "value": enc(v)}
                for i, v in sorted(
                    self.entries.items(),
                    key=lambda item: (item[0].level, item[0].position),
                )
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SymbolSequence":
        # each distinct value text is decoded once; Exact is immutable, so
        # the entries that share a text share its value
        decoded = {}

        def dec(v):
            # a JSON boolean goes to decode_value, which refuses it
            if type(v) in (float, int):
                return v
            key = repr(v)
            if key not in decoded:
                decoded[key] = scalars.decode_value(v, RATIONAL)
            return decoded[key]

        json_int = scalars._json_int
        listed = obj.get("entries", [])
        entries = {
            DyadicInterval(json_int(e, "level"), json_int(e, "pos")): dec(e["value"])
            for e in listed
        }
        if len(entries) < len(listed):
            raise ValueError("a symbol lists some interval more than once")
        return cls(dec(obj.get("default", 0)), entries)


def multilinear_multiplier(
    eps: SymbolSequence, alpha, fs: Sequence[StepFunction]
) -> StepFunction:
    """Haar multiplier with slot structure alpha: each interval's term is
    scaled by eps_I.  Alpha must have at least one zero bit.

    fs may also be SupportViews of one support; the output is then seen
    from it, and the kept symbol table is cut down to it.
    """
    a = _as_alpha(alpha)
    a.check_haar_slot()
    _, depth, mode, support, trees = _check_call(a, fs)
    symbol = _grid_rows(eps.table(depth, mode), support, trees)
    tables = [*_slot_tables(a.bits, fs), symbol]
    return _engine(a.zero_count, tables, depth, mode, support)


def commutator(
    slot: int,
    b: StepFunction,
    eps: SymbolSequence,
    alpha,
    fs: Sequence[StepFunction],
) -> StepFunction:
    """[b, T]_slot(fs) with T the alpha multiplier for eps; slot is 1-based.

    fs may also be SupportViews of one support S, which must vanish outside
    it.  b enters through its leaves on S, and the blocks of
    T(..., b*f_slot, ...) pass through: b * T(fs) vanishes off S, since
    T(fs) has zero blocks for every sharp tuple.  Where T(fs) has a
    nonzero block, as for inputs with a nonzero mean on S, the commutator
    runs on the expanded inputs and returns the full-grid function.
    """
    a = _as_alpha(alpha)
    _check_slot(slot, a.m)
    _, depth, mode, support, trees = _check_call(a, fs, b)
    outside = multilinear_multiplier(eps, a, fs)
    if any(outside.blocks):
        return commutator(slot, b, eps, a, [f.expand() for f in fs])
    f = fs[slot - 1]
    span = support.leaf_span(depth)
    b_on = b.values[span.start:span.stop] * trees
    modified = list(fs)
    modified[slot - 1] = seen(depth, support, row_product(b_on, f.values), f.blocks, mode)
    inside = multilinear_multiplier(eps, a, modified)
    values = row_difference(inside.values, row_product(b_on, outside.values))
    return seen(depth, support, values, inside.blocks, mode)
