"""Randomized lower-bound search for operator norms, with the sharp test
families from the boundedness proofs appended as dedicated trials.

Experiments run in float64 mode.  Every trial is seeded independently from
(seed, trial index), so reports are byte-identical across runs and
independent of evaluation order.  The random trials are measured in blocks
of ``BLOCK_LEAVES`` leaves per slot: the tuples of a block lie side by side
as one forest per slot (``core.forest``), which takes one operator pass and
one norm pass per function.  Every tree gets the floats it would get alone,
so reports do not depend on the block size; from depth 10 on a block is one
trial.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Sequence

from . import __version__, scalars
from .core import (
    DyadicInterval,
    StepFunction,
    SupportView,
    canonical_json,
    check_depth,
    check_grid,
    forest,
    inner_product,
    interval_at,
    lp_norm,
    power_mean,
    tree,
    tree_count,
    weak_power_mean,
)
from .errors import ResolutionError, ShapeError
from .multipliers import SymbolSequence, commutator, multilinear_multiplier
from .paraproducts import (
    AlphaVector, _as_alpha, _check_input_count, _check_slot, paraproduct,
    pi_paraproduct,
)
from .scalars import FLOAT64, RATIONAL
from .sublinear import _bstar_table, _centered_rows, bmo_norm, bstar_seminorm

# Each operator kind: the noun of its descriptor messages and the fields it
# reads besides alpha, in the order of FIELDS.  A kind that reads a symbol
# is a Haar multiplier, whose alpha must have a zero bit.
OPERATOR_KINDS = {
    "paraproduct": ("paraproduct", ()),
    "pi_paraproduct": ("pi_paraproduct", ("b",)),
    "multilinear_multiplier": ("multiplier", ("symbol",)),
    "commutator": ("commutator", ("b", "symbol", "slot")),
}
KINDS = tuple(OPERATOR_KINDS)
FIELDS = ("b", "symbol", "slot")
FAMILIES = ("random-step", "rademacher-haar", "indicator", "extremal")


@dataclass(frozen=True)
class ExponentTuple:
    """Input exponents p_1..p_m; the output exponent r solves
    1/r = sum of 1/p_j."""

    p: tuple[Fraction, ...]

    def __post_init__(self):
        ps = tuple(map(scalars.check_exponent, self.p))
        scalars.check_range(len(ps), "exponent count", 1)
        object.__setattr__(self, "p", ps)

    @classmethod
    def from_string(cls, s: str) -> "ExponentTuple":
        return cls(tuple(part.strip() for part in s.split(",")))

    @property
    def m(self) -> int:
        return len(self.p)

    @cached_property
    def r(self) -> Fraction:
        return 1 / sum(Fraction(1, 1) / x for x in self.p)

    def to_json_dict(self) -> dict:
        return {"p": [str(x) for x in self.p], "r": str(self.r)}


@dataclass(frozen=True)
class OperatorDescriptor:
    """Which operator a norm experiment drives.

    kind is a key of ``OPERATOR_KINDS``, whose row names the fields it
    reads besides alpha, the others being None: b is the symbol function
    (pi, commutator), symbol the multiplier sequence (multiplier,
    commutator), slot the 1-based commutator slot.
    """

    kind: str
    alpha: AlphaVector
    b: StepFunction | None = None
    symbol: SymbolSequence | None = None
    slot: int | None = None

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "alpha", _as_alpha(self.alpha))
        noun, fields = OPERATOR_KINDS[self.kind]
        missing = [name for name in fields if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{noun} descriptors need {' and '.join(missing)}")
        if "symbol" in fields:
            self.alpha.check_haar_slot()
        others = [name for name in FIELDS if name not in fields]
        if any(getattr(self, name) is not None for name in others):
            takes = f"no {'/'.join(others)}" if fields else "only alpha"
            raise ValueError(f"{noun} descriptors take {takes}")
        if self.slot is not None:
            _check_slot(self.slot, self.alpha.m)
        if self.b is not None:
            check_grid(self.b, self.b.depth, self.b.mode)

    @property
    def arity(self) -> int:
        return self.alpha.m

    def as_float64(self) -> "OperatorDescriptor":
        return self if self.b is None else replace(self, b=self.b.as_float64())

    def apply(self, fs: Sequence[StepFunction]) -> StepFunction:
        """The operator on fs: StepFunctions, or SupportViews of one
        support (a sharp family), whose output is then seen from that
        support too."""
        if self.kind == "paraproduct":
            return paraproduct(self.alpha, fs)
        if self.kind == "pi_paraproduct":
            return pi_paraproduct(self.alpha, self.b, fs)
        if self.kind == "multilinear_multiplier":
            return multilinear_multiplier(self.symbol, self.alpha, fs)
        return commutator(self.slot, self.b, self.symbol, self.alpha, fs)

    def adjoint(self, slot: int, fs: Sequence[StepFunction], g) -> StepFunction:
        """T*j(fs; g), the transpose in slot j = ``slot`` with the other slots
        fixed by fs: <T(fs), g> = <f_j, T*j(fs; g)>; f_j is not read.

        The duality rule: T*j is the same operator with g in slot j and bit
        j of alpha set to 1 - sigma % 2, sigma counting the zero bits (and
        b's Haar slot for pi).  g pairs with h_I**sigma, a power of |I| times
        h_I for an odd sigma and times 1_I/|I| for an even one, and the new
        bit pairs g the same way.  The all-ones paraproduct, a constant, has
        no such adjoint.  For [b, T]_i, with T*j from the multiplier T, it is
        b T*j(fs; g) - T*j(fs; b g) for j = i, else
        T*j(fs with b f_i in slot i; g) - T*j(fs; b g).
        """
        m = self.arity
        _check_slot(slot, m)
        # the commutator's branch reads fs before any operator checks it
        _check_input_count(m, fs)
        if self.kind == "commutator":
            t = replace(self, kind="multilinear_multiplier", b=None, slot=None)
            # b once per tree of a forest, as ``commutator`` tiles it
            b, i = forest([self.b] * tree_count(g)), self.slot
            t_bg = t.adjoint(slot, fs, b * g)
            if slot == i:
                return b * t.adjoint(slot, fs, g) - t_bg
            return t.adjoint(slot, [*fs[: i - 1], b * fs[i - 1], *fs[i:]], g) - t_bg
        sigma = self.alpha.zero_count + (self.kind == "pi_paraproduct")
        if sigma == 0:
            raise ValueError("the all-ones paraproduct is a constant: no adjoint")
        bits = (*self.alpha.bits[: slot - 1], 1 - sigma % 2, *self.alpha.bits[slot:])
        t = replace(self, alpha=AlphaVector(bits))
        return t.apply([*fs[: slot - 1], g, *fs[slot:]])

    def to_json_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "alpha": str(self.alpha),
            "sigma": self.alpha.zero_count,
        }
        if self.slot is not None:
            out["slot"] = self.slot
        if self.symbol is not None:
            out["symbol"] = self.symbol.to_json_dict()
        if self.b is not None:
            out["b"] = self.b.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "OperatorDescriptor":
        return cls(
            kind=obj["kind"],
            alpha=AlphaVector.from_string(obj["alpha"]),
            b=StepFunction.from_json_dict(obj["b"]) if "b" in obj else None,
            symbol=SymbolSequence.from_json_dict(obj["symbol"])
            if "symbol" in obj
            else None,
            slot=obj.get("slot"),
        )


def adjoint_residual(descriptor: OperatorDescriptor, slot: int, fs, g):
    """<T(fs), g> - <f_j, T*j(fs; g)> with j = ``slot``; exactly zero in
    rational mode (``OperatorDescriptor.adjoint``)."""
    lhs = inner_product(descriptor.apply(fs), g)
    return lhs - inner_product(fs[slot - 1], descriptor.adjoint(slot, fs, g))


# -- samplers -------------------------------------------------------------------


def draws_below(rng: random.Random, bounds) -> list[int]:
    """``[rng.randrange(n) for n in bounds]`` for positive ints n, by the
    rule of ``random.Random._randbelow`` without its call chain: k =
    n.bit_length() bits from ``getrandbits``, drawn again while they are
    >= n.  The values, and the rng state afterwards, are those of
    ``randrange(n)``, of ``randint(a, b)`` (a plus a draw below b - a + 1)
    and of ``choice(seq)`` (the entry at a draw below ``len(seq)``)."""
    getrandbits = rng.getrandbits
    out = []
    for n in bounds:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


def random_rational_step(rng: random.Random, depth: int) -> StepFunction:
    """A rational-mode function with small random fractions as leaf values:
    ``Exact(Fraction(n, d))`` for n drawn from -24..24, then d from 1..12,
    as ``rng.randint`` draws them, as one row over 27720 = lcm(1..12)."""
    draws = iter(draws_below(rng, (49, 12) * (1 << depth)))
    nums = [(n - 24) * (27720 // (d + 1)) for n, d in zip(draws, draws)]
    return StepFunction._raw(depth, scalars.fraction_row(nums, 27720), RATIONAL)


# random.choice over two entries takes getrandbits(2), the top two bits of
# one 32-bit word, until it is below 2: the word's top byte is then below
# 0x80 and its bit 6 is the index
_SIGN_INDEX = bytes((byte >> 6) & 1 for byte in range(256))
_REDRAWN = bytes(range(0x80, 0x100))


def _sign_indices(rng: random.Random, count: int) -> bytes:
    """The indices, 0 or 1, of ``[rng.choice(pair) for _ in range(count)]``
    for any two-entry pair, from one ``randbytes`` call as a rule.

    ``randbytes(4 * w)`` holds the next w words in the order drawn, each
    little end first, so every fourth byte from byte 3 is a word's top
    byte; ``translate`` deletes the top bytes of the words that ``choice``
    redraws and maps the others to their index.  A call draws about twice
    the words that ``count`` needs, and a short draw draws again, where the
    stream goes on exactly.  The rng is thus left past where ``choice``
    would leave it: the caller must read nothing more from it.
    """
    out = b""
    while len(out) < count:
        words = 2 * (count - len(out)) + 64
        out += rng.randbytes(4 * words)[3::4].translate(_SIGN_INDEX, _REDRAWN)
    return out[:count]


@dataclass(frozen=True)
class SamplerSpec:
    """How trial inputs are drawn.

    Families: random-step (uniform leaf values in [-1, 1]), rademacher-haar
    (unit +-1 Haar coefficients up to level_cap, zero mean), indicator
    (L^p-normalized indicator of a random interval), extremal (the sharp
    family for the operator at a random interval).
    """

    family: str
    depth: int
    seed: int = 0
    level_cap: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        check_depth(self.depth)
        scalars.check_int(self.seed, "seed")
        if self.level_cap is None:
            return
        if self.family != "rademacher-haar":
            raise ValueError(
                f"level_cap applies to the rademacher-haar family only, "
                f"not to {self.family}"
            )
        scalars.check_range(self.level_cap, "level_cap", 0, self.depth - 1)

    def _rng(self, trial: int) -> random.Random:
        # string seeding is stable across processes (no hash randomization)
        return random.Random(f"{self.seed}:{trial}")

    def _random_interval(self, rng: random.Random) -> DyadicInterval:
        level = rng.randrange(self.depth)
        return DyadicInterval(level, rng.randrange(1 << level))

    def draw_tuple(
        self,
        trial: int,
        descriptor: OperatorDescriptor,
        exponents: ExponentTuple,
    ) -> list[StepFunction] | None:
        """The input tuple for one trial; None when no draw applies."""
        rng = self._rng(trial)
        m = descriptor.arity
        n = 1 << self.depth
        if self.family == "random-step":
            # rng.uniform(-1.0, 1.0), which computes -1.0 + 2.0 * rng.random()
            draw = rng.random
            return [
                StepFunction._raw(
                    self.depth, [-1.0 + 2.0 * draw() for _ in range(n)], FLOAT64
                )
                for _ in range(m)
            ]
        if self.family == "rademacher-haar":
            cap = self.level_cap if self.level_cap is not None else self.depth - 1
            mags = [scalars.root2_power(level, FLOAT64) for level in range(cap + 1)]
            # rng.choice((-1.0, 1.0)) * mag is one of -mag and mag
            pairs = [(-mag, mag) for mag in mags]
            # every sign of the trial, slot by slot and level by level, from
            # one draw that over-draws: this trial's rng is not read again
            signs = iter(_sign_indices(rng, m * ((2 << cap) - 1)))
            rows = [[] for _ in pairs]
            for _ in range(m):
                for level, (row, pair) in enumerate(zip(rows, pairs)):
                    row += [pair[i] for i in islice(signs, 1 << level)]
            rows += [[0.0] * (m << level) for level in range(cap + 1, self.depth)]
            # the m functions as one forest: one scalars.haar_sum pass
            f = StepFunction._raw(self.depth, scalars.haar_sum(0.0, rows, True), FLOAT64)
            return [tree(f, k) for k in range(m)]
        if self.family == "indicator":
            out = []
            for j in range(m):
                interval = self._random_interval(rng)
                scale = 2.0 ** (interval.level / float(exponents.p[j]))
                span = interval.leaf_span(self.depth)
                # the indicator times scale > 0, whose scale * 0.0 is 0.0
                vals = [0.0] * n
                vals[span.start:span.stop] = [scale] * len(span)
                out.append(StepFunction._raw(self.depth, vals, FLOAT64))
            return out
        # extremal: the sharp family at a random interval, on the full grid
        interval = self._random_interval(rng)
        fs = extremal_tuple(descriptor, exponents, interval, self.depth)
        return None if fs is None else [f.expand() for f in fs]

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "depth": self.depth,
            "seed": self.seed,
            "level_cap": self.level_cap,
        }


# -- sharp families --------------------------------------------------------------


def _sharp_tuple(bits, interval: DyadicInterval, depth: int, mode: str) -> list:
    """h_I in the zero slots and 1_I in the others, seen from I."""
    h = SupportView.haar(interval, interval, depth, mode)
    ind = SupportView.indicator(interval, interval, depth, mode)
    return [h if bit == 0 else ind for bit in bits]


def multiplier_sharp_forms(symbol: SymbolSequence, depth: int) -> list[float]:
    """|eps_I| at each interval of ``interval_family(depth)``, in its order:
    the ratio of the multiplier family there, strong and weak alike."""
    return [abs(e) for row in symbol.table(depth, FLOAT64) for e in row]


def _scale_pow2(exponent: Fraction, mode: str):
    """2**exponent; exact in rational mode for half-integer exponents."""
    if mode == FLOAT64:
        return 2.0 ** float(exponent)
    doubled = exponent * 2
    if doubled.denominator != 1:
        raise ValueError(
            f"2**{exponent} is not exactly representable in rational mode"
        )
    return scalars.root2_power(doubled.numerator, RATIONAL)


def pi_sharp_forms(b: StepFunction) -> list[float]:
    """|<b, h_I>| / sqrt(|I|) at each interval of ``interval_family``, in its
    order: the ratio of the pi family there, strong and weak alike, when
    alpha has a zero bit: the b* table of ``bstar_seminorm``, read from b's
    kept coefficient table, the one the operator reads."""
    return [v for row in _bstar_table(b) for v in row]


def necessity_case(alpha, slot: int) -> str:
    """Which sharp commutator family applies: "I" when the slot is a Haar
    slot and it is the only one, else "II"."""
    a = _as_alpha(alpha)
    _check_slot(slot, a.m)
    return "I" if a.bits[slot - 1] == 0 and a.zero_count == 1 else "II"


def commutator_sharp_forms(
    descriptor: "OperatorDescriptor", exponents: ExponentTuple, weak: bool
) -> list:
    """The ratio of the commutator's sharp family at each interval of
    ``interval_family``, in its order; None where there is no tuple, and
    everywhere for an L^r quasinorm with r < 1.

    Case II: |eps_I| times the oscillation of b on I.  Case I: the output
    is +-2**((level - 1)(m - 1)/2) (B - <B>_I) 1_I with B = T_eps b, the
    one-slot multiplier, so the ratio is 2**(-sum of 1/p_j over the slots
    j other than i) times the oscillation of B on I.  The oscillation of f
    on I is |I|**(-1/r) times the (weak) L^r quasinorm of (f - <f>_I) 1_I,
    the ``power_mean`` (``weak_power_mean``) of f - <f>_I over I's leaves:
    a level's centered row (``_centered_rows``) is one forest of 2**level
    such trees of depth ``depth - level``.

    The L^r quasinorm with r < 1 is not Lipschitz at 0: where the operator
    leaves a rounding error in place of a zero, its ratio moved by up to
    1.8e-6 of the largest closed form (r = 1/3, integer-valued b), far past
    ``RANK_WINDOW``, so those runs keep every job.
    """
    b, slot, r = descriptor.b, descriptor.slot, exponents.r
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
        # the universe has no parent, so no case-I tuple
        weights = [None] + [2.0 ** -float(others)] * (n - 2)
    measure = weak_power_mean if weak else power_mean
    forms = []
    for level, row in zip(range(depth), _centered_rows(f)):
        value = measure(StepFunction._raw(depth - level, list(row), f.mode), r)
        forms += value if level else [value]
    return [None if w is None else w * o for w, o in zip(weights, forms)]


def _check_arity(descriptor: OperatorDescriptor, exponents: ExponentTuple) -> None:
    if exponents.m != descriptor.arity:
        raise ShapeError(
            f"descriptor arity {descriptor.arity} vs {exponents.m} exponents"
        )


def extremal_tuple(
    descriptor: OperatorDescriptor,
    exponents: ExponentTuple,
    interval: DyadicInterval,
    depth: int,
    mode: str = FLOAT64,
) -> list | None:
    """The sharp input tuple for the descriptor at interval I, built in
    ``mode``; None where I has no tuple.  The tuple never reads b.

    Paraproduct and multiplier: h_I in the zero slots of alpha and 1_I in
    the others; the multiplier's measured ratio is exactly |eps_I|.  Pi:
    that tuple scaled to unit L^{p_j} norm in slot j; when alpha has a zero
    bit, the measured L^r ratio is exactly |<b, h_I>| / sqrt(|I|).

    Commutator, case II of ``necessity_case`` (the slot is an average slot,
    or there are other Haar slots): the paraproduct's tuple; the ratio is
    |eps_I| times the oscillation of b on I.  Case I (the slot is the only
    Haar slot): 1_I in the slot and h of I's parent elsewhere, so I needs a
    parent and alpha two slots; the plain operator then vanishes and the
    commutator reduces to the Haar sum of b inside I, whose ratio
    ``commutator_sharp_forms`` states.

    Every input vanishes outside one interval, the tuple's support (I, or
    its parent in case I), and is seen from it, so that
    ``descriptor.apply`` and the norms work on the support alone; call
    ``.expand()`` for the full grid.
    """
    _check_arity(descriptor, exponents)
    alpha, slot = descriptor.alpha, descriptor.slot
    if descriptor.kind != "commutator" or necessity_case(alpha, slot) == "II":
        fs = _sharp_tuple(alpha.bits, interval, depth, mode)
        if descriptor.kind != "pi_paraproduct":
            return fs
        level = interval.level
        powers = [
            -level * (Fraction(1, 2) - 1 / p) if bit == 0 else Fraction(level) / p
            for bit, p in zip(alpha.bits, exponents.p)
        ]
        return [f.scale(_scale_pow2(e, mode)) for f, e in zip(fs, powers)]
    if interval.level < 1 or alpha.m < 2:
        return None
    if interval.level >= depth:
        raise ResolutionError(
            f"interval at level {interval.level} leaves no Haar sum on a "
            f"depth-{depth} grid"
        )
    parent = interval.parent()
    out = [SupportView.haar(parent, parent, depth, mode)] * alpha.m
    out[slot - 1] = SupportView.indicator(interval, parent, depth, mode)
    return out


def sharp_forms(
    descriptor: OperatorDescriptor,
    exponents: ExponentTuple,
    depth: int,
    weak: bool = False,
) -> list:
    """The closed-form ratio of the sharp job at each interval of
    ``interval_family(depth)``, in its order, for a float64 descriptor.

    An entry is None where no closed form ranks the job: for every
    paraproduct (all of its sharp ratios are 1 where alpha has a zero bit),
    for pi when b's slot is its only Haar slot, for commutators in an L^r
    quasinorm with r < 1, and where the job has no tuple.
    """
    kind = descriptor.kind
    if kind == "multilinear_multiplier":
        return multiplier_sharp_forms(descriptor.symbol, depth)
    if kind == "pi_paraproduct" and descriptor.alpha.is_admissible:
        return pi_sharp_forms(descriptor.b)
    if kind == "commutator":
        return commutator_sharp_forms(descriptor, exponents, weak)
    return [None] * ((1 << depth) - 1)


# -- experiments -----------------------------------------------------------------


def _lr_quasinorm(f: StepFunction | SupportView, r: Fraction):
    """(mean of |f|**r) ** (1/r), blocks included: the float64 ``lp_norm``
    for r >= 1, a quasinorm below; a forest's come as a list."""
    return power_mean(f, r)


def _weak_lr_quasinorm(f: StepFunction | SupportView, r: Fraction):
    """The weak-L^r quasinorm, r > 0; a forest's come as a list."""
    return weak_power_mean(f, r)


@dataclass(frozen=True)
class ExperimentReport:
    descriptor: OperatorDescriptor
    exponents: ExponentTuple
    sampler: SamplerSpec
    trials: int
    best_ratio: float
    best_trial: int | None
    extremal_lower_bound: float | None
    weak_type: bool
    b_norms: dict | None
    mode: str
    # (index, ratio) of every random trial, every evaluated sharp job and
    # every sharp job with no tuple (ratio None); the sharp job at interval
    # k of interval_family has index trials + k
    trial_ratios: tuple = field(default_factory=tuple, repr=False)
    # jobs whose ratio is None, and the first interval attaining
    # extremal_lower_bound (None when no sharp job produced a ratio)
    skipped_jobs: int = 0
    extremal_interval: DyadicInterval | None = None

    def to_json_dict(self) -> dict:
        return {
            "artifact_version": __version__,
            "grid": {"depth": self.sampler.depth},
            "descriptor": self.descriptor.to_json_dict(),
            "exponents": self.exponents.to_json_dict(),
            "sampler": self.sampler.to_json_dict(),
            "trials": self.trials,
            "best_ratio": self.best_ratio,
            "best_trial": self.best_trial,
            "extremal_lower_bound": self.extremal_lower_bound,
            "weak_type": self.weak_type,
            "b_norms": self.b_norms,
            "mode": self.mode,
            "skipped_jobs": self.skipped_jobs,
            "extremal_interval": None
            if self.extremal_interval is None
            else {
                "level": self.extremal_interval.level,
                "pos": self.extremal_interval.position,
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    def trials_csv(self) -> str:
        lines = ["trial,ratio"]
        for index, ratio in self.trial_ratios:
            if ratio is not None:
                lines.append(f"{index},{ratio!r}")
        return "\n".join(lines) + "\n"


def _first_largest(jobs: list) -> tuple | None:
    """The first (index, ratio) job whose ratio is the largest that is not
    None, or None."""
    best = None
    for job in jobs:
        if job[1] is not None and (best is None or job[1] > best[1]):
            best = job
    return best


# A sharp job runs when its closed form lies within this relative distance
# of the largest one.  Over 7,000 random runs at depths 1-6 an evaluated
# ratio differed from its closed form by at most 3.4e-15 of the largest, so
# every job that could attain the largest evaluated ratio runs.  (A
# commutator of b = 1e8 + uniform(-1e-3, 1e-3) cancels in T(b f) - b T(f):
# its case-II ratios carry up to 1.3e-4 of rounding, and near-ties at that
# level may rank differently from the full sweep.)
RANK_WINDOW = 1e-9


# The random trials of an experiment are measured in blocks of this many
# leaves per slot: 8 trials at depth 7, 2 at depth 9 and one from depth 10
# on, where a pass's per-call and per-level setup is small beside its
# leaves.  Reports do not depend on it.
BLOCK_LEAVES = 1 << 10


def _measure(desc, exponents, fs, weak: bool) -> list:
    """||T(f)|| / prod ||f_j||_{p_j} for each tree f of the forests fs, one
    per slot, the output in L^r or weak L^r; None for a tree with a
    zero-norm input.  The inputs' norms are divided out in slot order."""
    trees = tree_count(fs[0])

    def per_tree(value) -> list:
        return value if trees > 1 else [value]

    slot_norms = [per_tree(lp_norm(f, p)) for f, p in zip(fs, exponents.p)]
    norms = [None if 0.0 in ns else ns for ns in zip(*slot_norms)]
    if all(ns is None for ns in norms):
        return norms
    out_norm = _weak_lr_quasinorm if weak else _lr_quasinorm
    ratios = []
    for value, ns in zip(per_tree(out_norm(desc.apply(fs), exponents.r)), norms):
        if ns is None:
            value = None
        else:
            for n in ns:
                value /= n
        ratios.append(value)
    return ratios


def _random_jobs(desc, exponents, sampler: SamplerSpec, trials: int, weak: bool):
    """(trial, ratio) of each random trial, drawn one by one and measured a
    block at a time: the tuples of the block's trials, those that have one,
    side by side as one forest per slot."""
    size = max(1, BLOCK_LEAVES >> sampler.depth)
    jobs = []
    for start in range(0, trials, size):
        block = range(start, min(start + size, trials))
        drawn = [sampler.draw_tuple(trial, desc, exponents) for trial in block]
        tuples = [fs for fs in drawn if fs is not None]
        forests = [forest(slot) for slot in zip(*tuples)]
        ratios = iter(_measure(desc, exponents, forests, weak) if tuples else ())
        jobs += [(t, None if fs is None else next(ratios)) for t, fs in zip(block, drawn)]
    return jobs


def sharp_ratio(
    descriptor: OperatorDescriptor,
    exponents: ExponentTuple,
    interval: DyadicInterval,
    depth: int,
    weak: bool = False,
) -> float | None:
    """The ratio of the sharp job at ``interval`` for a float64 descriptor;
    None when the interval has no sharp tuple.  The tuple runs on its
    support: the inputs' norms are the same floats as on the full grid, the
    output's agree to rounding."""
    fs = extremal_tuple(descriptor, exponents, interval, depth)
    if fs is None:
        return None
    (ratio,) = _measure(descriptor, exponents, fs, weak)
    return ratio


def _run_experiment(
    descriptor: OperatorDescriptor,
    exponents: ExponentTuple,
    sampler: SamplerSpec,
    trials: int,
    weak: bool,
) -> ExperimentReport:
    scalars.check_range(trials, "trials", 1)
    _check_arity(descriptor, exponents)
    if weak and all(p != 1 for p in exponents.p):
        raise ValueError("weak-type experiments need some exponent equal to 1")
    desc = descriptor.as_float64()
    depth = sampler.depth
    if desc.b is not None and desc.b.depth != depth:
        raise ShapeError(
            f"b lives on depth {desc.b.depth} but the sampler uses "
            f"depth {depth}"
        )
    random_jobs = _random_jobs(desc, exponents, sampler, trials, weak)
    forms = sharp_forms(desc, exponents, depth, weak)

    def sweep(runs) -> list:
        return [
            (trials + k, sharp_ratio(desc, exponents, interval_at(k), depth, weak))
            for k, form in enumerate(forms)
            if runs(form)
        ]

    # run only the sharp jobs whose closed form ranks near the top; those
    # without one all run
    known = [form for form in forms if form is not None]
    top = max(known, default=0.0)
    floor = top - RANK_WINDOW * top
    sharp_jobs = sweep(lambda form: form is None or form >= floor)
    ranked = known + [ratio for _, ratio in sharp_jobs if ratio is not None]
    if not all(map(math.isfinite, ranked)):
        # a closed form or an operator past the float range: the ranking
        # says nothing, so every job runs
        sharp_jobs = sweep(lambda form: True)
    jobs = random_jobs + sharp_jobs
    best = _first_largest(jobs)
    best_sharp = _first_largest(sharp_jobs)

    b_norms = None
    if desc.b is not None:
        b_norms = {
            "bmo1": float(bmo_norm(desc.b, 1)),
            "bmo2": float(bmo_norm(desc.b, 2)),
            "bstar": float(bstar_seminorm(desc.b)),
        }

    return ExperimentReport(
        descriptor=desc,
        exponents=exponents,
        sampler=sampler,
        trials=trials,
        best_ratio=0.0 if best is None else best[1],
        best_trial=None if best is None else best[0],
        extremal_lower_bound=None if best_sharp is None else best_sharp[1],
        weak_type=weak,
        b_norms=b_norms,
        mode=FLOAT64,
        trial_ratios=tuple(jobs),
        skipped_jobs=sum(ratio is None for _, ratio in jobs),
        extremal_interval=None
        if best_sharp is None
        else interval_at(best_sharp[0] - trials),
    )


def estimate_operator_norm(
    descriptor: OperatorDescriptor,
    exponents: ExponentTuple,
    sampler: SamplerSpec,
    trials: int,
) -> ExperimentReport:
    """Monte-Carlo lower bound for the L^{p_1} x ... x L^{p_m} -> L^r
    operator norm; the sharp families at the intervals whose closed forms
    rank at the top (every interval where none applies) are appended as
    extra trials, so best_ratio >= extremal_lower_bound."""
    return _run_experiment(descriptor, exponents, sampler, trials, False)


def weak_type_ratio(
    descriptor: OperatorDescriptor,
    exponents: ExponentTuple,
    sampler: SamplerSpec,
    trials: int,
) -> ExperimentReport:
    """Same search against the weak-L^r quasinorm; needs some p_j = 1.

    With p_1 = ... = p_k = 1, the paper's weak endpoint q_k / (q_k + 1),
    where 1/q_k = (k - 1) + sum over j > k of 1/p_j, equals r."""
    return _run_experiment(descriptor, exponents, sampler, trials, True)
