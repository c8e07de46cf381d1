"""The operator-call contract: every operator checks its inputs the same way.

Each operator, called directly or through ``OperatorDescriptor.apply``,
refuses a tuple of the wrong arity, inputs of other depths, modes or
supports, forests of different tree counts and a b of another depth, with
the same exception type and message.  Slots and alpha bits are ints:
a bool or a float is refused before it can reach a report.

Each input rule is stated by one function (``core.check_grid``, with
``core.one_grid`` for a reader of one grid, ``scalars.check_int``,
``scalars.check_range`` for every bounded int, ``scalars.check_scalar``,
``scalars.check_exponent`` for every exponent, ``scalars.check_mode``,
``core.check_depth``, ``DyadicInterval.leaf_span`` with
``core.check_haar_level``, ``AlphaVector.__post_init__``,
``core.check_alpha_bit``, ``paraproducts._check_input_count`` and
``paraproducts._alpha_count``), and every caller reuses it.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

import dyadicops
from dyadicops import (
    AlphaVector,
    DyadicInterval,
    ExponentTuple,
    HaarSpectrum,
    OperatorDescriptor,
    SamplerSpec,
    StepFunction,
    SymbolSequence,
    bmo2_via_haar,
    bmo2_via_haar_sq,
    bmo_norm,
    bmo_norm_pow,
    bstar_seminorm,
    commutator,
    core,
    cz_decompose,
    estimate_operator_norm,
    interval_family,
    localized_average_residual,
    multilinear_multiplier,
    paraproduct,
    pi_paraproduct,
    product_decomposition_residual,
)
from dyadicops.cli import _parse_p, main
from dyadicops.core import (
    MAX_DEPTH, UNIVERSE, SupportView, forest, lp_norm, weak_lp_quasinorm,
)
from dyadicops.errors import ShapeError
from dyadicops.normlab import necessity_case
from dyadicops.paraproducts import admissible_alphas, alpha_at

ALPHA = "01"
F = StepFunction.from_values([1, 2, 3, 4])
B = StepFunction.from_values([2, -1, 0, 5])
EPS = SymbolSequence.constant(3)


def _views(f):
    """f on each half of [0, 1), seen from that half."""
    return [SupportView.restrict(f.restrict(half), half) for half in UNIVERSE.children()]


CALLS = {
    "paraproduct": lambda fs, b: paraproduct(ALPHA, fs),
    "pi_paraproduct": lambda fs, b: pi_paraproduct(ALPHA, b, fs),
    "multilinear_multiplier": lambda fs, b: multilinear_multiplier(EPS, ALPHA, fs),
    "commutator": lambda fs, b: commutator(1, b, EPS, ALPHA, fs),
    "apply paraproduct": lambda fs, b: OperatorDescriptor("paraproduct", ALPHA).apply(fs),
    "apply pi_paraproduct": lambda fs, b: OperatorDescriptor(
        "pi_paraproduct", ALPHA, b=b
    ).apply(fs),
    "apply multilinear_multiplier": lambda fs, b: OperatorDescriptor(
        "multilinear_multiplier", ALPHA, symbol=EPS
    ).apply(fs),
    "apply commutator": lambda fs, b: OperatorDescriptor(
        "commutator", ALPHA, b=b, symbol=EPS, slot=1
    ).apply(fs),
}

# (fs, b, message); every one is a ShapeError
CASES = {
    "arity": ([F], B, "alpha has 2 slots but got 1 functions"),
    "depth": ([F, StepFunction.from_values([1, 2])], B, "depth mismatch: 2 vs 1"),
    "mode": ([F, F.as_float64()], B, "mode mismatch: rational vs float64"),
    "supports": (
        _views(StepFunction.from_values([1, 0, 0, 0])),
        B,
        "inputs are seen from different supports: (1,0) vs (1,1)",
    ),
    "forests": (
        [forest([F] * 2), forest([F] * 3)], B, "inputs are forests of 2 and 3 trees"
    ),
    "b depth": ([F, F], StepFunction.from_values([1, 2]), "depth mismatch: 1 vs 2"),
}


TAKES_B = ("pi_paraproduct", "commutator")


@pytest.mark.parametrize(
    "call, case",
    [
        (call, case)
        for call in CALLS
        for case in CASES
        if case != "b depth" or call.endswith(TAKES_B)
    ],
)
def test_every_operator_refuses_a_bad_tuple_alike(call, case):
    fs, b, message = CASES[case]
    with pytest.raises(ShapeError) as info:
        CALLS[call](fs, b)
    assert str(info.value) == message


@pytest.mark.parametrize("slot", [True, 1.0])
def test_a_slot_that_is_not_an_int_is_refused(slot):
    with pytest.raises(TypeError, match="slot must be an integer"):
        OperatorDescriptor("commutator", ALPHA, b=B, symbol=EPS, slot=slot)
    with pytest.raises(TypeError, match="slot must be an integer"):
        commutator(slot, B, EPS, ALPHA, [F, F])
    with pytest.raises(TypeError, match="slot must be an integer"):
        necessity_case(ALPHA, slot)
    d = OperatorDescriptor("paraproduct", ALPHA)
    with pytest.raises(TypeError, match="slot must be an integer"):
        d.adjoint(slot, [F, F], F)


@pytest.mark.parametrize("bits", [(True, False), (1.0, 0), [True, 0], (0, 1.0)])
def test_alpha_bits_are_ints(bits):
    with pytest.raises(ValueError, match="alpha bits must be 0 or 1"):
        AlphaVector(bits)
    with pytest.raises(ValueError, match="alpha bits must be 0 or 1"):
        OperatorDescriptor("paraproduct", bits)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, 2])
def test_pairing_reads_an_alpha_bit_by_the_same_rule(bit):
    with pytest.raises(ValueError, match="alpha bits must be 0 or 1"):
        core.pairing(StepFunction.from_values([1, 2, 3, 4]), DyadicInterval(0, 0), bit)



# b must be one tree seen from the universe: a view of b, or a forest of
# b, is refused by the same rule as the inputs
B_CASES = {
    "view": (
        SupportView.restrict(StepFunction.from_values([0, 0, 1, 2]), DyadicInterval(1, 1)),
        "inputs are seen from different supports: (0,0) vs (1,1)",
    ),
    "forest": (forest([B, B]), "inputs are forests of 1 and 2 trees"),
}

B_CALLS = {
    "pi_paraproduct": lambda b: pi_paraproduct(ALPHA, b, [F, F]),
    "commutator": lambda b: commutator(1, b, EPS, ALPHA, [F, F]),
    "pi descriptor": lambda b: OperatorDescriptor("pi_paraproduct", ALPHA, b=b),
    "commutator descriptor": lambda b: OperatorDescriptor(
        "commutator", ALPHA, b=b, symbol=EPS, slot=1
    ),
}


@pytest.mark.parametrize("call", B_CALLS)
@pytest.mark.parametrize("case", B_CASES)
def test_b_is_one_tree_seen_from_the_universe(call, case):
    b, message = B_CASES[case]
    with pytest.raises(ShapeError) as info:
        B_CALLS[call](b)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: SamplerSpec("random-step", 3, seed=v), "seed"),
        (lambda v: SamplerSpec("rademacher-haar", 3, level_cap=v), "level_cap"),
        (
            lambda v: estimate_operator_norm(
                OperatorDescriptor("paraproduct", ALPHA),
                ExponentTuple.from_string("2,2"),
                SamplerSpec("random-step", 2),
                v,
            ),
            "trials",
        ),
    ],
)
@pytest.mark.parametrize("value", [True, 2.5])
def test_seeds_caps_and_trial_counts_are_ints(build, name, value):
    with pytest.raises(TypeError) as info:
        build(value)
    assert str(info.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize(
    "build",
    [
        lambda: StepFunction(1, (True, False), "float64"),
        lambda: StepFunction.constant(True, 2, "float64"),
    ],
)
def test_a_bool_is_not_a_float64_scalar(build):
    # as it is not a rational one
    with pytest.raises(TypeError, match="^bool is not a scalar$"):
        build()


@pytest.mark.parametrize("text", ["0x", "", "012"])
def test_an_alpha_string_has_one_rule(text):
    message = f"alpha string must be nonempty over 0/1, got {text!r}"
    for build in (AlphaVector, AlphaVector.from_string):
        with pytest.raises(ValueError) as info:
            build(text)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        OperatorDescriptor("paraproduct", text)
    assert str(info.value) == message


@pytest.mark.parametrize("forests", [(2, 2), (1, 2), (2, 1)])
def test_an_identity_residual_takes_one_tree(forests):
    # the residual reads each input's tables at one (level, position): a
    # forest would have only its first tree's identity checked
    fs = [forest([F] * k) for k in forests]
    with pytest.raises(ShapeError) as info:
        localized_average_residual(DyadicInterval(1, 1), fs)
    assert str(info.value) == "inputs are forests of 1 and 2 trees"
    with pytest.raises(ShapeError, match="^inputs are forests of [12] and [12] "):
        product_decomposition_residual(fs)


# every reader of one grid, whose value is a sum or a sup over the
# intervals of one tree, takes its inputs through ``core.one_grid``
ONE_GRID_READERS = {
    "analyze": core.analyze,
    "pairing": lambda f: core.pairing(f, DyadicInterval(1, 1), 0),
    "bmo_norm_pow": lambda f: bmo_norm_pow(f, 1),
    "bmo_norm": lambda f: bmo_norm(f, 2),
    "bmo2_via_haar_sq": bmo2_via_haar_sq,
    "bmo2_via_haar": bmo2_via_haar,
    "bstar_seminorm": bstar_seminorm,
    "cz_decompose": lambda f: cz_decompose(f, 4),
}


@pytest.mark.parametrize("reader", ONE_GRID_READERS)
def test_a_one_grid_reader_refuses_a_forest(reader):
    # analyze read the forest of [1, 2, 3, 4] and [5, 0, 0, 0] as one grid
    # of twice the leaves, and cz_decompose selected on it
    fs = forest([F, StepFunction.from_values([5, 0, 0, 0])])
    with pytest.raises(ShapeError) as info:
        ONE_GRID_READERS[reader](fs)
    assert str(info.value) == "inputs are forests of 1 and 2 trees"


@pytest.mark.parametrize("reader", ONE_GRID_READERS)
def test_a_one_grid_reader_reads_a_view_as_its_expansion(reader):
    f = StepFunction.from_values([0, 0, 8, 2])
    view = SupportView.restrict(f, DyadicInterval(1, 1))
    assert ONE_GRID_READERS[reader](view) == ONE_GRID_READERS[reader](f)


@pytest.mark.parametrize(
    "call",
    [
        lambda: multilinear_multiplier(EPS, "11", [F, F]),
        lambda: OperatorDescriptor("multilinear_multiplier", "11", symbol=EPS),
        lambda: OperatorDescriptor("commutator", "11", b=B, symbol=EPS, slot=1),
    ],
)
def test_a_haar_multiplier_needs_a_haar_slot(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == "alpha needs a Haar slot (a zero bit), got 11"


@pytest.mark.parametrize(
    "call",
    [
        lambda: core.haar_eval(dyadicops.UNIVERSE, 4, 2),
        lambda: DyadicInterval(1, 0).contains_leaf(-1, 2),
    ],
)
def test_a_leaf_past_the_grid_is_refused_alike(call):
    with pytest.raises(ValueError, match="^leaf -?[0-9]+ out of range for depth 2$"):
        call()


@pytest.mark.parametrize("leaf", [True, 1.5, 1.0, "1"])
@pytest.mark.parametrize(
    "call",
    [
        lambda leaf: core.haar_eval(DyadicInterval(1, 0), leaf, 2),
        lambda leaf: DyadicInterval(1, 0).contains_leaf(leaf, 2),
    ],
)
def test_a_leaf_that_is_not_an_int_is_refused(call, leaf):
    # True was read as leaf 1, 1.5 gave 0, and 1.0 failed on a shift
    with pytest.raises(TypeError) as info:
        call(leaf)
    assert str(info.value) == f"leaf must be an integer, got {leaf!r}"


def _refuse_allocation(*args):
    raise AssertionError("an interval was built before the depth was checked")


def grid_builds(depth):
    """Every way to build a grid of ``depth`` leaves, the shortcut
    constructors included."""
    universe = core.UNIVERSE
    return (
        lambda: StepFunction(depth, ()),
        lambda: HaarSpectrum(depth, 0, ()),
        lambda: interval_family(depth),
        lambda: StepFunction.constant(1, depth),
        lambda: StepFunction.zeros(depth, "float64"),
        lambda: StepFunction.indicator(universe, depth),
        lambda: StepFunction.haar(universe, depth),
        lambda: SupportView.indicator(universe, universe, depth),
        lambda: SupportView.haar(universe, universe, depth),
        lambda: core.haar_eval(universe, 0, depth),
    )


@pytest.mark.parametrize("depth", [0, MAX_DEPTH + 1])
def test_every_grid_checks_its_depth_first(depth, monkeypatch):
    message = f"depth must lie in 1..{MAX_DEPTH}, got {depth}"
    monkeypatch.setattr(core, "DyadicInterval", _refuse_allocation)
    for build in grid_builds(depth):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("depth", [True, 2.0])
def test_every_grid_refuses_a_depth_that_is_not_an_int(depth, monkeypatch):
    # True is not read as 1, nor 2.0 shifted as 2
    monkeypatch.setattr(core, "DyadicInterval", _refuse_allocation)
    for build in grid_builds(depth):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == f"depth must be an integer, got {depth!r}"


# each boundary message is written once, in the function that states the
# rule: a caller that copies a rule would copy its message too
RULE_MESSAGES = [
    "depth mismatch",
    "mode mismatch",
    "inputs are forests of",
    "must be an integer",
    "is finer than depth",
    "no Haar function at level",
    "bool is not a scalar",
    "alpha string must be",
    "must lie in {lo}..{hi}, got {value}",
    "must be >= {lo}, got {value}",
    "exponent must be >= 1",
    "not allowed in rational mode",
    "out of range for depth",
    "needs a Haar slot",
    "alpha bits must be 0 or 1",
    "unknown mode",
    "slots but got",
    "{self.support.level} blocks",
    "lists some interval more than once",
]


@pytest.mark.parametrize("message", RULE_MESSAGES)
def test_each_input_rule_is_stated_once(message):
    package = Path(dyadicops.__file__).parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    assert sum(text.count(message) for text in sources) == 1


# (build, message): each bounded int is refused by ``scalars.check_range``
RANGES = [
    (lambda: core.check_depth(0), f"depth must lie in 1..{MAX_DEPTH}, got 0"),
    (
        lambda: SamplerSpec("rademacher-haar", 3, level_cap=3),
        "level_cap must lie in 0..2, got 3",
    ),
    (
        lambda: OperatorDescriptor("paraproduct", ALPHA).adjoint(3, [F, F], F),
        "slot must lie in 1..2, got 3",
    ),
    (lambda: AlphaVector(()), "arity must be >= 1, got 0"),
    (lambda: admissible_alphas(0), "arity must be >= 1, got 0"),
    (lambda: alpha_at(-1, 0), "arity must be >= 1, got -1"),
    (lambda: ExponentTuple(()), "exponent count must be >= 1, got 0"),
    (
        lambda: estimate_operator_norm(
            OperatorDescriptor("paraproduct", ALPHA),
            ExponentTuple.from_string("2,2"),
            SamplerSpec("random-step", 2),
            0,
        ),
        "trials must be >= 1, got 0",
    ),
]


@pytest.mark.parametrize("build, message", RANGES)
def test_every_range_has_one_rule(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--trials", "0"], "--trials must be >= 1, got 0"),
        (["--m", "1"], "--m must be >= 2, got 1"),
        (["--depth", "1"], "--depth must be >= 2, got 1"),
    ],
)
def test_a_verify_count_has_the_same_rule(argv, message, capsys):
    assert main(["verify", "decomposition", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("build", [admissible_alphas, lambda m: alpha_at(m, 0)])
def test_an_arity_is_an_int(build):
    # True is not read as arity 1
    with pytest.raises(TypeError, match="^arity must be an integer, got True$"):
        build(True)


EXPONENT_READERS = {
    "lp_norm": lambda p: lp_norm(F, p),
    "weak_lp_quasinorm": lambda p: weak_lp_quasinorm(F, p),
    "float64 lp_norm": lambda p: lp_norm(F.as_float64(), p),
    "ExponentTuple": lambda p: ExponentTuple((p, 2)),
}
# the command line reads the text of p
TEXT_READERS = {**EXPONENT_READERS, "cli": lambda p: _parse_p(str(p))}


@pytest.mark.parametrize("read", EXPONENT_READERS.values(), ids=EXPONENT_READERS)
def test_a_bool_is_not_an_exponent(read):
    # True is not read as p = 1
    with pytest.raises(TypeError, match="^bool is not a scalar$"):
        read(True)


@pytest.mark.parametrize("read", EXPONENT_READERS.values(), ids=EXPONENT_READERS)
@pytest.mark.parametrize("p", [math.nan, -math.inf])
def test_a_float_exponent_must_be_finite(read, p):
    with pytest.raises(ValueError, match="^float64 values must be finite"):
        read(p)


def test_an_exponent_tuple_refuses_an_infinite_entry():
    # an infinity in a tuple is refused, not left to Fraction's OverflowError
    with pytest.raises(ValueError, match="^float64 values must be finite, got inf$"):
        ExponentTuple((math.inf, 2))


@pytest.mark.parametrize("read", TEXT_READERS.values(), ids=TEXT_READERS)
@pytest.mark.parametrize("p", [10**400, "1e400"], ids=["10**400", "1e400"])
def test_an_exponent_past_the_float_range_is_refused_alike(read, p):
    with pytest.raises(ValueError) as info:
        read(p)
    assert str(info.value) == f"{p} is too large for a float64 value"


@pytest.mark.parametrize("read", TEXT_READERS.values(), ids=TEXT_READERS)
@pytest.mark.parametrize("p", [Fraction(1, 2), 0, "-3", 0.75])
def test_an_exponent_below_one_is_refused_alike(read, p):
    with pytest.raises(ValueError) as info:
        read(p)
    assert str(info.value) == f"exponent must be >= 1, got {p}"


# the functions that state a bound on an int or an exponent
RULES = {"check_range", "check_exponent"}


def _refusals_of_one(tree):
    """(function, line) of each ``if`` that compares with 1 by ``<``,
    ``>=`` or ``1 <= ...`` and raises, outside ``RULES``."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name in RULES:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.If):
                continue
            if not any(isinstance(s, ast.Raise) for s in node.body):
                continue
            for cmp in ast.walk(node.test):
                if not isinstance(cmp, ast.Compare):
                    continue
                terms = [cmp.left, *cmp.comparators]
                for op, left, right in zip(cmp.ops, terms, terms[1:]):
                    if (
                        isinstance(op, (ast.Lt, ast.GtE))
                        and isinstance(right, ast.Constant)
                        and right.value == 1
                    ) or (
                        isinstance(op, ast.LtE)
                        and isinstance(left, ast.Constant)
                        and left.value == 1
                    ):
                        found.append((func.name, node.lineno))
    return found


def test_no_bound_of_one_is_restated():
    """A count, arity or exponent held to >= 1 goes through ``check_range``
    or ``check_exponent``; an ``if x < 1: raise`` elsewhere is a copy."""
    package = Path(dyadicops.__file__).parent
    found = [
        (path.name, *hit)
        for path in sorted(package.glob("*.py"))
        for hit in _refusals_of_one(ast.parse(path.read_text()))
    ]
    assert not found


def test_the_restatement_guard_sees_a_copy():
    copies = [
        "def f(n):\n    if n < 1:\n        raise ValueError(n)\n",
        "def f(n):\n    if not 1 <= n <= 4:\n        raise ValueError(n)\n",
        "def f(ps):\n    if any(p < 1 for p in ps):\n        raise ValueError(ps)\n",
        # a bound that only routes, as the sharp family's level test does
        "def f(n):\n    if n < 1:\n        return None\n",
    ]
    assert [len(_refusals_of_one(ast.parse(c))) for c in copies] == [1, 1, 1, 0]
