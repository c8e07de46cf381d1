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


class Exact:
    """An element ``a + b*sqrt(2)`` of the quadratic field Q(sqrt 2).

    Closed under +, -, *, / and integer powers; comparisons and abs are
    exact.  Mixing with floats is rejected so exactness cannot silently
    leak away.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    @classmethod
    def _make(cls, a: Fraction, b: Fraction) -> "Exact":
        x = object.__new__(cls)
        x.a = a
        x.b = b
        return x

    @classmethod
    def root2_power(cls, k: int) -> "Exact":
        """2**(k/2) for any integer k, possibly negative."""
        q, r = divmod(k, 2)
        if r == 0:
            return cls._make(Fraction(2) ** q, _F0)
        return cls._make(_F0, Fraction(2) ** q)

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _lift(other):
        if type(other) is Exact:
            return other
        if isinstance(other, int):
            return Exact._make(Fraction(other), _F0)
        if isinstance(other, Fraction):
            return Exact._make(other, _F0)
        if isinstance(other, Exact):
            return other
        return None

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Exact._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Exact._make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Exact._make(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return Exact._make(a * c + 2 * b * d, a * d + b * c)

    __rmul__ = __mul__

    def _inverse(self) -> "Exact":
        den = self.a * self.a - 2 * self.b * self.b
        if den == 0:
            raise ZeroDivisionError("division by zero Exact value")
        return Exact._make(self.a / den, -self.b / den)

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
        return Exact._make(-self.a, -self.b)

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

    def sqrt(self) -> "Exact | None":
        """Exact square root within Q(sqrt 2), or None if there is none."""
        if self.sign() < 0:
            return None
        a, b = self.a, self.b
        if b == 0:
            c = frac_sqrt(a)
            if c is not None:
                return Exact._make(c, _F0)
            d = frac_sqrt(a / 2)
            if d is not None:
                return Exact._make(_F0, d)
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
                root = Exact._make(c, d)
                if root.sign() < 0:
                    root = -root
                if root * root == self:
                    return root
        return None

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT2

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{abs(self.b)}*sqrt2"

    def __repr__(self):
        return f"Exact({self.a!r}, {self.b!r})"


_F0 = Fraction(0)
_EXACT_ZERO = Exact._make(_F0, _F0)
_EXACT_ONE = Exact._make(Fraction(1), _F0)
_EXACT_SQRT2 = Exact._make(_F0, Fraction(1))


def zero(mode: str):
    return _EXACT_ZERO if mode == RATIONAL else 0.0


def one(mode: str):
    return _EXACT_ONE if mode == RATIONAL else 1.0


def root2_power(k: int, mode: str):
    """2**(k/2) in the requested mode."""
    if mode == RATIONAL:
        return Exact.root2_power(k)
    return 2.0 ** (k / 2.0)


def parse_fraction(text) -> Fraction:
    """``Fraction(text)``, with a zero denominator ("1/0") reported as the
    ValueError of any other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def finite_float(value) -> float:
    """``float(value)``, rejecting NaN, the infinities, and numbers too
    large for a float.  ``coerce`` and ``decode_value`` repeat this inline:
    they run once per leaf of every float64 file."""
    try:
        x = float(value)
    except OverflowError:
        raise ValueError("number too large for a float64 value") from None
    if math.isfinite(x):
        return x
    raise ValueError(f"float64 values must be finite, got {x!r}")


def coerce(value, mode: str):
    """Convert a number to the scalar type of ``mode``.

    Rational mode accepts int, Fraction, Exact, and fraction strings but
    rejects floats; float64 mode accepts anything numeric and finite.
    """
    if mode == RATIONAL:
        if type(value) is Exact:
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, Fraction)):
            return Exact(value)
        if isinstance(value, str):
            return Exact(parse_fraction(value))
        if isinstance(value, Exact):
            return value
        if isinstance(value, float):
            raise TypeError(
                "float values are not allowed in rational mode; "
                "pass Fraction or Exact instead"
            )
        raise TypeError(f"cannot use {type(value).__name__} in rational mode")
    if mode == FLOAT64:
        if type(value) is not float:
            return finite_float(
                parse_fraction(value) if isinstance(value, str) else value
            )
        if math.isfinite(value):
            return value
        raise ValueError(f"float64 values must be finite, got {value!r}")
    raise ValueError(f"unknown mode {mode!r}")


def to_float(value) -> float:
    return float(value)


def scalar_sqrt(value, mode: str):
    """Square root; exact in rational mode when one exists, else float."""
    if mode == RATIONAL:
        root = coerce(value, RATIONAL).sqrt()
        if root is not None:
            return root
        return math.sqrt(float(value))
    return math.sqrt(value)


def encode_value(value, mode: str):
    """JSON form of one scalar: number, "p/q" string, or [a, b] pair."""
    if mode == FLOAT64:
        return float(value)
    v = coerce(value, RATIONAL)
    if v.is_rational:
        return str(v.a)
    return [str(v.a), str(v.b)]


def decode_value(obj, mode: str):
    if mode == FLOAT64:
        if type(obj) is float and math.isfinite(obj):
            return obj
        if isinstance(obj, str):
            return finite_float(parse_fraction(obj))
        if isinstance(obj, list):
            a, b = obj
            return finite_float(
                finite_float(parse_fraction(a))
                + finite_float(parse_fraction(b)) * _SQRT2
            )
        return finite_float(obj)
    if isinstance(obj, list):
        a, b = obj
        return Exact(parse_fraction(a), parse_fraction(b))
    if isinstance(obj, str):
        return Exact(parse_fraction(obj))
    if isinstance(obj, int):
        return Exact(obj)
    raise TypeError(f"cannot decode {obj!r} as a rational-mode value")
