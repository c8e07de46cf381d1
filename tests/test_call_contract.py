"""The operator-call contract: every operator checks its inputs the same way.

Each operator, called directly or through ``OperatorDescriptor.apply``,
refuses a tuple of the wrong arity, inputs of other depths, modes or
supports, forests of different tree counts and a b of another depth, with
the same exception type and message.  Slots and alpha bits are ints:
a bool or a float is refused before it can reach a report.
"""

import pytest

from dyadicops import (
    AlphaVector,
    DyadicInterval,
    OperatorDescriptor,
    StepFunction,
    SymbolSequence,
    commutator,
    multilinear_multiplier,
    paraproduct,
    pi_paraproduct,
)
from dyadicops.core import SupportView, forest
from dyadicops.errors import ShapeError
from dyadicops.normlab import necessity_case

ALPHA = "01"
F = StepFunction.from_values([1, 2, 3, 4])
B = StepFunction.from_values([2, -1, 0, 5])
EPS = SymbolSequence.constant(3)


def _views(f):
    return [SupportView.restrict(f, DyadicInterval(1, k)) for k in (0, 1)]


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

