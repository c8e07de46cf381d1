"""Scalar arithmetic for the two computation modes.

Mode ``"rational"`` works in the field of numbers ``a + b*sqrt(2)`` with
rational ``a``, ``b``.  That field is the smallest one containing both the
rationals and every Haar magnitude ``2**(level/2)``, so all identities the
library verifies (reconstruction, decompositions, adjoints, commutator
cancellations) hold with zero tolerance.  Mode ``"float64"`` uses plain
Python floats and is meant for norm experiments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from math import gcd
from operator import add, getitem, mul, sub
from typing import Sequence

RATIONAL = "rational"
FLOAT64 = "float64"
MODES = (RATIONAL, FLOAT64)

_SQRT2 = math.sqrt(2.0)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _sign(a: int, b: int) -> int:
    """The sign of a + b*sqrt(2) for ints a, b."""
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


class Exact:
    """An element ``a + b*sqrt(2)`` of the quadratic field Q(sqrt 2).

    Stored as three ints ``A``, ``B``, ``D`` meaning ``(A + B*sqrt(2)) / D``,
    with ``D > 0`` and ``gcd(A, B, D) = 1``, so every value has exactly one
    representation and ``==`` compares the ints.  ``a`` and ``b`` give the
    two rational parts as Fractions.  Closed under +, -, *, / and integer
    powers; comparisons and abs are exact.  Mixing with floats is rejected
    so exactness cannot silently leak away.
    """

    __slots__ = ("A", "B", "D")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            self.A, self.B, self.D = a, b, 1
            return
        a = a if type(a) is Fraction else Fraction(a)
        if type(b) is int and not b:
            self.A, self.B, self.D = a.numerator, 0, a.denominator
            return
        b = b if type(b) is Fraction else Fraction(b)
        da, db = a.denominator, b.denominator
        # over the lcm of two lowest-terms denominators no factor is common
        d = da // gcd(da, db) * db
        self.A = a.numerator * (d // da)
        self.B = b.numerator * (d // db)
        self.D = d

    @classmethod
    def root2_power(cls, k: int) -> "Exact":
        """2**(k/2) for any integer k, possibly negative."""
        q, r = divmod(k, 2)
        p = 1 << abs(q)
        num, den = (p, 1) if q >= 0 else (1, p)
        return _exact(0, num, den) if r else _exact(num, 0, den)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        d, e = self.D, o.D
        if d == e:
            return _canonical(self.A + o.A, self.B + o.B, d)
        return _canonical(self.A * e + o.A * d, self.B * e + o.B * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        d, e = self.D, o.D
        if d == e:
            return _canonical(self.A - o.A, self.B - o.B, d)
        return _canonical(self.A * e - o.A * d, self.B * e - o.B * d, d * e)

    def __rsub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is Exact:
            o = other
        elif type(other) is int:
            # an int factor, such as a table's 2**level, needs no Exact
            return _canonical(self.A * other, self.B * other, self.D)
        else:
            o = _lift(other)
            if o is None:
                return NotImplemented
        a, b, c, d = self.A, self.B, o.A, o.B
        return _canonical(a * c + 2 * b * d, a * d + b * c, self.D * o.D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        return _quotient(self, o)

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self)

    def __pow__(self, n):
        if type(n) is float and n.is_integer():
            n = int(n)  # an integer exponent that arrived as a float
        elif not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _quotient(_EXACT_ONE, self) ** (-n)
        if not self.B:
            # A and D are coprime, so their powers are too
            return _exact(self.A**n, 0, self.D**n)
        out = _EXACT_ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return _exact(-self.A, -self.B, self.D)

    def __pos__(self):
        return self

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.A, self.B)

    def _cmp(self, o: "Exact") -> int:
        """The sign of self - o."""
        d, e = self.D, o.D
        return _sign(self.A * e - o.A * d, self.B * e - o.B * d)

    def __abs__(self):
        return -self if _sign(self.A, self.B) < 0 else self

    def __eq__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        return self.A == o.A and self.B == o.B and self.D == o.D

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __lt__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = other if type(other) is Exact else _lift(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    def __hash__(self):
        # equal to hash(q) for a rational q, as the numeric types require
        if self.B == 0:
            return hash(self.A) if self.D == 1 else hash(Fraction(self.A, self.D))
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.A or self.B)

    # -- conversions ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    def as_fraction(self) -> Fraction:
        if self.B != 0:
            raise ValueError(f"{self} has an irrational sqrt(2) part")
        return self.a

    def sqrt(self) -> "Exact | None":
        """Exact square root within Q(sqrt 2), or None if there is none."""
        if self.sign() < 0:
            return None
        a, b = self.a, self.b
        if b == 0:
            c = frac_sqrt(a)
            if c is not None:
                return Exact(c)
            d = frac_sqrt(a / 2)
            if d is not None:
                return Exact(0, d)
            return None
        # want (c + d*sqrt2)^2 = a + b*sqrt2: c^2 + 2d^2 = a, 2cd = b.
        # c^2 solves t^2 - a t + b^2/2 = 0.
        disc = frac_sqrt(a * a - 2 * b * b)
        if disc is None:
            return None
        for t in ((a + disc) / 2, (a - disc) / 2):
            c = frac_sqrt(t)
            if c is not None and c != 0:
                root = Exact(c, b / (2 * c))
                if root.sign() < 0:
                    root = -root
                if root * root == self:
                    return root
        return None

    def __float__(self):
        A, B, D = self.A, self.B, self.D
        if not B:
            # int true division rounds A/D exactly as float(Fraction(A, D)) does
            return A / D
        if not A or (A < 0) == (B < 0):
            # two terms of one sign cannot cancel
            try:
                x = A / D + B / D * _SQRT2
            except OverflowError:
                x = math.inf
            if math.isfinite(x):
                return x
        return _rounded(A, B, D)

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*sqrt2"
        op = "+" if b > 0 else "-"
        return f"{a}{op}{abs(b)}*sqrt2"

    def __repr__(self):
        return f"Exact({self.a!r}, {self.b!r})"


_new = object.__new__


def _exact(A: int, B: int, D: int) -> Exact:
    """The Exact (A + B*sqrt(2)) / D of ints already in canonical form."""
    x = _new(Exact)
    x.A = A
    x.B = B
    x.D = D
    return x


def _canonical(A: int, B: int, D: int) -> Exact:
    """The Exact (A + B*sqrt(2)) / D for D > 0, divided by gcd(A, B, D)."""
    g = gcd(A, B, D)
    x = _new(Exact)
    if g == 1:
        x.A = A
        x.B = B
        x.D = D
    else:
        x.A = A // g
        x.B = B // g
        x.D = D // g
    return x


def _rounded(A: int, B: int, D: int) -> float:
    """(A + B*sqrt(2)) / D for B != 0, correctly rounded to a float; an
    OverflowError past the float range.

    With A and B of opposite signs the value is
    (A*A - 2*B*B) / (D * (A - B*sqrt(2))), whose denominator adds two
    terms of one sign, so nothing cancels.  |A| + |B|*sqrt(2) is bracketed
    by isqrt at growing precision until both ends of the bracket round to
    the same float, which the value, being irrational, then rounds to.
    """
    sign = -1 if A < 0 or (not A and B < 0) else 1
    mixed = A and (A < 0) != (B < 0)
    num = sign * (A * A - 2 * B * B)
    s = max(0, 80 - max(abs(A), abs(B)).bit_length())
    while True:
        lo = (abs(A) << s) + math.isqrt((2 * B * B) << (2 * s))
        ends = []
        for m in (lo, lo + 1):
            try:
                ends.append((num << s) / (D * m) if mixed else sign * m / (D << s))
            except OverflowError:
                ends.append(None)
        if ends[0] == ends[1]:
            if ends[0] is None:
                raise OverflowError("Exact value exceeds the float range")
            return ends[0]
        s += 64


def _quotient(x: Exact, y: Exact) -> Exact:
    """x / y, multiplying through by y's conjugate:
    1 / ((c + d*sqrt2)/e) = e * (c - d*sqrt2) / (c*c - 2*d*d)."""
    c, d = y.A, y.B
    n = c * c - 2 * d * d
    if not n:
        raise ZeroDivisionError("division by zero Exact value")
    a, b, e = x.A, x.B, y.D
    if n < 0:
        e = -e
        n = -n
    return _canonical((a * c - 2 * b * d) * e, (b * c - a * d) * e, x.D * n)


def _lift(other) -> Exact | None:
    """An int (bool included) or Fraction as an Exact; None for other types."""
    if isinstance(other, int):
        return _exact(int(other), 0, 1)
    if isinstance(other, Fraction):
        return _exact(other.numerator, 0, other.denominator)
    if isinstance(other, Exact):
        return other
    return None


_EXACT_ZERO = _exact(0, 0, 1)
_EXACT_ONE = _exact(1, 0, 1)


class ExactRow:
    """One row of a rational table or of a function's leaves as integers:
    entry k is ``(A[k] + B[k]*sqrt(2)) / D``, every entry over the one
    denominator ``D > 0``, which need not be the lowest.  ``A`` or ``B``
    (never both) is None where that part of every entry is zero.

    The passes add, subtract and multiply these int lists; a value becomes
    an ``Exact``, with one gcd, only where a reader takes it: ``row[k]`` and
    iteration give canonical ``Exact`` values, and iteration keeps them, as
    a row made ``of`` values or sliced from a row does.  ``==``, ``hash``
    and ``repr`` are those of the tuple of the values; ``==`` also takes a
    list.  A slice is a row, and ``row * n`` repeats the row n times.
    """

    __slots__ = ("A", "B", "D", "_exacts")

    def __init__(self, A: list | None, B: list | None, D: int, exacts: tuple | None = None):
        self.A, self.B, self.D = A, B, D
        self._exacts = exacts

    @classmethod
    def of(cls, values) -> "ExactRow":
        """The row of a sequence of ``Exact`` values, put over the lcm of
        their denominators, which keeps the values themselves."""
        d = math.lcm(*{v.D for v in values})
        A = [v.A * (d // v.D) for v in values]
        B = [v.B * (d // v.D) for v in values] if any(v.B for v in values) else None
        return cls(A, B, d, tuple(values))

    def _part(self, part: list | None) -> list:
        return [0] * len(self) if part is None else part

    def exacts(self) -> tuple:
        """The canonical ``Exact`` entries, built on the first call."""
        if self._exacts is None:
            self._exacts = tuple(
                map(_canonical, self._part(self.A), self._part(self.B), repeat(self.D))
            )
        return self._exacts

    def __len__(self):
        return len(self.A if self.A is not None else self.B)

    def __getitem__(self, k):
        A, B = self.A, self.B
        if isinstance(k, slice):
            kept = None if self._exacts is None else self._exacts[k]
            return ExactRow(None if A is None else A[k], None if B is None else B[k], self.D, kept)
        if self._exacts is not None:
            return self._exacts[k]
        return _canonical(0 if A is None else A[k], 0 if B is None else B[k], self.D)

    def __iter__(self):
        return iter(self.exacts())

    def __eq__(self, other):
        if isinstance(other, (ExactRow, list, tuple)):
            return self.exacts() == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.exacts())

    def __mul__(self, n: int) -> "ExactRow":
        A, B = self.A, self.B
        return ExactRow(None if A is None else A * n, None if B is None else B * n, self.D)

    __rmul__ = __mul__

    def __repr__(self):
        return repr(self.exacts())


# -- rows ---------------------------------------------------------------------
# A row is one row of a table: an ``ExactRow`` in rational mode, and the
# floats themselves, a list or a tuple, in float64.  The table passes build
# and combine rows only through the functions below, which take a row of
# either kind, so this module is the only one that knows how a row is
# stored.  A float64 row function rounds as a loop over the entries does:
# each product and scale once, rows added in the order given, and a row's
# entries totalled left to right from 0.0 (``row_total``).


def as_row(values, mode: str):
    """A sequence of ``mode`` scalars as a row: a row is kept as it is, and
    ``Exact`` values become an ``ExactRow`` that keeps them."""
    if mode != RATIONAL or type(values) is ExactRow:
        return values
    return ExactRow.of(values)


def leaf_row(values, mode: str):
    """The leaf values of a function as every constructor stores them: one
    row (``as_row``) in rational mode, a tuple of floats in float64."""
    return as_row(values, mode) if mode == RATIONAL else tuple(values)


def fraction_row(numerators: list, d: int) -> ExactRow:
    """The row of the rationals n / d for ints n over one d > 0."""
    return ExactRow(numerators, None, d)


def _times(part: list | None, k: int) -> list | None:
    return part if part is None or k == 1 else [a * k for a in part]


def row_product(x, y):
    """The entrywise product of two rows of one length:
    (a + b*sqrt2)(c + d*sqrt2) = (ac + 2bd) + (ad + bc)*sqrt2."""
    if type(x) is not ExactRow:
        return list(map(mul, x, y))
    a, b, c, d = x.A, x.B, y.A, y.B
    A = B = None
    if a is not None and c is not None:
        A = list(map(mul, a, c))
    if b is not None and d is not None:
        bd = [2 * p * q for p, q in zip(b, d)]
        A = bd if A is None else list(map(add, A, bd))
    if a is not None and d is not None:
        B = list(map(mul, a, d))
    if b is not None and c is not None:
        bc = list(map(mul, b, c))
        B = bc if B is None else list(map(add, B, bc))
    return ExactRow(A, B, x.D * y.D)


def row_scaled_product(rows: list, k: int):
    """The entrywise product of ``rows``, in their order, times 2**(k/2):
    ``row_product`` of each row in turn, then ``row_root2_scaled``, which
    a float64 row takes in one pass."""
    if type(rows[0]) is ExactRow:
        return row_root2_scaled(reduce(row_product, rows), k)
    first, *others = rows
    for row in others:
        first = map(mul, first, row)
    if not k:
        return list(first)
    w = root2_power(k, FLOAT64)
    return [v * w for v in first]


def row_root2_scaled(x, k: int):
    """x times 2**(k/2) for any integer k.  In rational mode an odd k moves
    each part to the other, (a + b*sqrt2)*sqrt2 = 2b + a*sqrt2, and a power
    of two comes off the denominator while it divides it, else onto the
    numerators; a float64 row is multiplied by ``root2_power(k)``."""
    if type(x) is not ExactRow:
        if not k:
            return x
        w = root2_power(k, FLOAT64)
        return [v * w for v in x]
    q, r = divmod(k, 2)
    A, B = x.A, x.B
    if r:
        A, B = _times(B, 2), A
    d = x.D
    if q > 0:
        # the power of two that divides d comes off it first
        z = min(q, (d & -d).bit_length() - 1)
        d >>= z
        A, B = _times(A, 1 << (q - z)), _times(B, 1 << (q - z))
    elif q < 0:
        d <<= -q
    return ExactRow(A, B, d)


def signed_root2_powers(ks, signs: list, mode: str):
    """The row of signs[i] * 2**(ks[i]/2), for ints ks[i] >= 0 and signs
    +-1, built from ints in rational mode."""
    if mode != RATIONAL:
        # root2_power(k, FLOAT64), one call less per entry
        return [s * 2.0 ** (k / 2.0) for k, s in zip(ks, signs)]
    A, B = [0] * len(ks), [0] * len(ks)
    for i, (k, s) in enumerate(zip(ks, signs)):
        q, r = divmod(k, 2)
        (B if r else A)[i] = s << q
    return ExactRow(A, B if any(B) else None, 1)


def _pairwise(op, part):
    """op(right, left) for each pair of neighbouring entries of a float row
    or of an int row part."""
    return None if part is None else list(map(op, part[1::2], part[0::2]))


def row_pair_sums(x):
    """The sum of each pair of neighbouring entries."""
    if type(x) is not ExactRow:
        return _pairwise(add, x)
    return ExactRow(_pairwise(add, x.A), _pairwise(add, x.B), x.D)


def row_pair_differences(x, k: int = 0):
    """right - left for each pair of neighbouring entries, times 2**(k/2)
    (``row_root2_scaled``), which a float64 row takes in one pass."""
    if type(x) is ExactRow:
        return row_root2_scaled(ExactRow(_pairwise(sub, x.A), _pairwise(sub, x.B), x.D), k)
    if not k:
        return _pairwise(sub, x)
    w = root2_power(k, FLOAT64)
    return [(r - left) * w for left, r in zip(x[0::2], x[1::2])]


def column(rows: list, indices):
    """Entry ``indices[i]`` of ``rows[i]`` for each i, as one row: in
    rational mode over the lcm of the rows' denominators.  ``rows`` must
    not be empty."""
    if type(rows[0]) is not ExactRow:
        return list(map(getitem, rows, indices))
    pairs = list(zip(rows, indices))
    d = math.lcm(*{row.D for row in rows})
    A = [(0 if r.A is None else r.A[k]) * (d // r.D) for r, k in pairs]
    if all(r.B is None for r in rows):
        return ExactRow(A, None, d)
    return ExactRow(A, [(0 if r.B is None else r.B[k]) * (d // r.D) for r, k in pairs], d)


def _aligned(rows: list) -> tuple[int, list, list]:
    """(d, As, Bs): the A and B parts of ``ExactRow``s over d, the lcm of
    their denominators, a part that a row lacks as a list of zeros."""
    d = math.lcm(*{row.D for row in rows})
    As = [row._part(_times(row.A, d // row.D)) for row in rows]
    Bs = [row._part(_times(row.B, d // row.D)) for row in rows]
    return d, As, Bs


def row_sum(rows: list):
    """The entrywise sum rows[0] + rows[1] + ... of rows of one length, a
    float64 entry added left to right; ``rows`` must not be empty."""
    if type(rows[0]) is not ExactRow:
        return reduce(lambda x, y: list(map(add, x, y)), rows)
    d, As, Bs = _aligned(rows)
    return ExactRow([sum(c) for c in zip(*As)], [sum(c) for c in zip(*Bs)], d)


def row_difference(x, y):
    """The entrywise difference x - y of two rows of one length."""
    if type(x) is not ExactRow:
        return list(map(sub, x, y))
    d, (a, c), (b, e) = _aligned([x, y])
    return ExactRow(list(map(sub, a, c)), list(map(sub, b, e)), d)


def row_is_zero(x) -> bool:
    """Whether every entry of the row is zero."""
    if type(x) is not ExactRow:
        return not any(x)
    return not any(x.A or ()) and not any(x.B or ())


def row_total(x):
    """The sum of a row's entries as one scalar.  A float64 row is added
    left to right from 0.0, as a plain loop rounds it, where the builtin
    ``sum`` compensates from CPython 3.12 on."""
    if type(x) is not ExactRow:
        return reduce(add, x, 0.0)
    return _canonical(sum(x._part(x.A)), sum(x._part(x.B)), x.D)


def _accumulated(part: list | None) -> list | None:
    return None if part is None else list(accumulate(part, initial=0))


def row_running_totals(x):
    """The row of the sums of x's first k entries, k = 0 .. len(x)."""
    if type(x) is not ExactRow:
        return list(accumulate(x, add, initial=0.0))
    return ExactRow(_accumulated(x.A), _accumulated(x.B), x.D)


def haar_sum(start, terms: Sequence[Sequence], odd: bool) -> list:
    """Leaf values of ``start + sum of terms[level][pos] * s_I`` in one
    top-down pass, I being the interval (level, pos) of a grid of depth
    ``len(terms)``, for numbers of one kind (floats, ints or ``Exact``s).
    s_I is the sign pattern of h_I (-1 on the left half of I, +1 on the
    right half) when ``odd`` and the indicator of I otherwise.  The pass
    starts from one root per entry of the first row, so a forest's terms
    give its trees' leaves one after another.

    Each child takes its parent's value plus or minus the parent's term, so
    every leaf adds its terms from the coarsest level down, and zero terms
    are skipped, which leaves a signed zero as it is.  A level's left and
    right children are filled row by row.
    """
    vals = [start] * len(terms[0]) if terms else [start]
    for row in terms:
        children = [None] * (2 * len(vals))
        if odd:
            children[0::2] = [v - t if t else v for v, t in zip(vals, row)]
            children[1::2] = [v + t if t else v for v, t in zip(vals, row)]
        else:
            children[0::2] = children[1::2] = [
                v + t if t else v for v, t in zip(vals, row)
            ]
        vals = children
    return vals


def row_haar_sum(start, terms: list, odd: bool):
    """``haar_sum`` of a ``mode`` scalar ``start`` and rows ``terms``, as
    one row of leaves.  In rational mode the rows are put over one common
    denominator and each part makes one int pass."""
    if type(start) is not Exact:
        return haar_sum(start, terms, odd)
    d, (sa, *As), (sb, *Bs) = _aligned([ExactRow.of([start]), *terms])
    return ExactRow(haar_sum(sa[0], As, odd), haar_sum(sb[0], Bs, odd), d)


def zero(mode: str):
    return _EXACT_ZERO if mode == RATIONAL else 0.0


def one(mode: str):
    return _EXACT_ONE if mode == RATIONAL else 1.0


def root2_power(k: int, mode: str):
    """2**(k/2) in the requested mode."""
    if mode == RATIONAL:
        return Exact.root2_power(k)
    return 2.0 ** (k / 2.0)


def reciprocal(n: int, mode: str):
    """1/n for a positive int n in the requested mode."""
    if mode == RATIONAL:
        return _exact(1, 0, n)
    return 1.0 / n


def total(terms: list, mode: str):
    """The sum of ``terms`` in the requested mode: exact in rational mode,
    and correctly rounded in float64 mode (``math.fsum``; Shewchuk 1997),
    so a float sum depends neither on the order of its terms nor on the
    interpreter, whose builtin ``sum`` changed in CPython 3.12."""
    if mode == RATIONAL:
        return sum(terms, _EXACT_ZERO)
    return math.fsum(terms)


def jensen_floor(values, e: int, depth: int):
    """The skip rule of ``sublinear``'s BMO1 search, for a function of
    depth ``depth`` whose leaves, divided by 2**e, are the row ``values``:
    the function ``floor(best)`` that gives the least mean square
    oscillation M2 of ``values`` on an interval at which the computed L1
    oscillation of the function there can still reach ``best``.  An
    interval whose M2 lies below ``floor(best)`` is skipped.

    In rational mode ``floor(best)`` is ``best**2``, exact, and e is 0: by
    Jensen's inequality the L1 oscillation is at most sqrt(M2).  In float64
    it inverts the bound that ``sublinear._bmo1_search`` proves,
    L1 <= 2**e ((1 + 2**-48) sqrt(M2) + 2**-45 T) + 2**(depth - 1074)
    with T = max |values|, with the wider margins 2**-40, 2**-40 and
    2**(depth - 1072).  The floor's own four roundings (best - tau, the
    difference, the quotient and the square; the scaling by 2**-e and
    2**-40 T are exact, or subnormal far below 2**-40 T) are relative
    2**-53 each, and best / 2**e <= 2.01 T, so they stay inside those
    margins: the computed floor never exceeds the exact inverse of the
    proved bound.  A floor of 0 skips nothing.
    """
    if type(values) is ExactRow:
        return lambda best: best * best
    slack = 2.0**-40 * max(map(abs, values))
    tau = 2.0 ** (depth - 1072)

    def floor(best: float) -> float:
        root = math.ldexp(best - tau, -e) - slack
        if root <= 0.0:
            return 0.0
        root /= 1.0 + 2.0**-40
        return root * root

    return floor


def parse_fraction(text) -> Fraction:
    """``Fraction(text)``, with a zero denominator ("1/0") reported as the
    ValueError of any other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_finite_fraction(text) -> Fraction:
    """``parse_fraction(text)`` for a number that fits a float64 value:
    "1e400" parses as the integer 10**400, which no float can hold."""
    q = parse_fraction(text)
    try:
        float(q)
    except OverflowError:
        raise ValueError(f"{text} is too large for a float64 value") from None
    return q


def check_int(value, name: str) -> int:
    """value, which must be an int: a float, a string or a bool is refused,
    not rounded or read as 0 or 1.  The one integer rule of slots, seeds,
    counts, depths and the integers of every JSON reader."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def check_scalar(value):
    """value, refused if it is a bool or a float that is not finite: the
    one scalar rule of ``coerce``, ``decode_value`` and ``SymbolSequence``."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"float64 values must be finite, got {value!r}")
    return value


def finite_float(value) -> float:
    """``float(value)``, rejecting NaN, the infinities, and numbers too
    large for a float."""
    try:
        x = float(value)
    except OverflowError:
        raise ValueError("number too large for a float64 value") from None
    return check_scalar(x)


def coerce(value, mode: str):
    """Convert a number to the scalar type of ``mode``.

    Rational mode accepts int, Fraction, Exact, and fraction strings but
    rejects floats; float64 mode accepts anything numeric and finite.
    Neither accepts a bool (``check_scalar``).
    """
    if mode == RATIONAL:
        if type(value) is Exact:
            return value
        if type(value) is Fraction:
            # already in lowest terms over a positive denominator
            return _exact(value.numerator, 0, value.denominator)
        if isinstance(value, float):
            raise TypeError(
                "float values are not allowed in rational mode; "
                "pass Fraction or Exact instead"
            )
        check_scalar(value)
        if isinstance(value, (int, Fraction)):
            return Exact(value)
        if isinstance(value, str):
            return Exact(parse_fraction(value))
        if isinstance(value, Exact):
            return value
        raise TypeError(f"cannot use {type(value).__name__} in rational mode")
    if mode == FLOAT64:
        if type(value) is float and math.isfinite(value):
            return value
        if isinstance(value, str):
            return finite_float(parse_fraction(value))
        return finite_float(check_scalar(value))
    raise ValueError(f"unknown mode {mode!r}")


def float_sqrt(value) -> float:
    """``math.sqrt`` of a nonnegative scalar of either mode, also past the
    float range, where sqrt(v) = 2**512 * sqrt(v / 2**1024)."""
    try:
        return math.sqrt(value)
    except OverflowError:
        return 2.0**512 * float_sqrt(value * Exact.root2_power(-2048))


def scalar_sqrt(value, mode: str):
    """Square root; exact in rational mode when one exists, else float."""
    if mode == RATIONAL:
        root = coerce(value, RATIONAL).sqrt()
        if root is not None:
            return root
    return float_sqrt(value)


def encode_value(value, mode: str):
    """JSON form of one scalar: number, "p/q" string, or [a, b] pair."""
    if mode == FLOAT64:
        return float(value)
    v = coerce(value, RATIONAL)
    if v.B:
        return [str(v.a), str(v.b)]
    # gcd(A, D) = 1 and D > 0: the text of str(Fraction(A, D))
    return str(v.A) if v.D == 1 else f"{v.A}/{v.D}"


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]``, which must be a JSON integer (``check_int``)."""
    return check_int(obj[key], key)


def _pair(obj: list) -> list:
    """The entries a, b of a value a + b*sqrt(2) written as a list."""
    if len(obj) != 2:
        raise TypeError(f"a value written as a list needs 2 entries, got {len(obj)}")
    return obj


def decode_value(obj, mode: str):
    """A scalar of ``mode`` from its JSON form; JSON booleans, NaN, the
    infinities (``check_scalar``) and lists that are not pairs are refused."""
    if type(obj) is float and mode == FLOAT64 and math.isfinite(obj):
        return obj
    check_scalar(obj)
    if mode == FLOAT64:
        if isinstance(obj, str):
            return finite_float(parse_fraction(obj))
        if isinstance(obj, list):
            a, b = _pair(obj)
            return finite_float(
                finite_float(parse_fraction(a))
                + finite_float(parse_fraction(b)) * _SQRT2
            )
        return finite_float(obj)
    if isinstance(obj, list):
        a, b = _pair(obj)
        return Exact(parse_fraction(a), parse_fraction(b))
    if isinstance(obj, str):
        return Exact(parse_fraction(obj))
    if isinstance(obj, int):
        return Exact(obj)
    raise TypeError(f"cannot decode {obj!r} as a rational-mode value")
