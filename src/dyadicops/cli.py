"""Command line front end.

One binary with subcommands; anything a subcommand produces can be written
to a file for archival reproduction.  Exit codes: 0 success, 1 a
verification suite found failures, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    DyadicInterval,
    HaarSpectrum,
    StepFunction,
    analyze,
    canonical_json,
    check_depth,
    coefficient_table,
    interval_family,
    lp_norm,
    synthesize,
    weak_lp_quasinorm,
)
from .errors import DyadicOpsError
from .multipliers import SymbolSequence, commutator, multilinear_multiplier
from .normlab import (
    KINDS,
    OPERATOR_KINDS,
    ExponentTuple,
    OperatorDescriptor,
    SamplerSpec,
    adjoint_residual,
    draws_below,
    estimate_operator_norm,
    random_rational_step,
    weak_type_ratio,
)
from .paraproducts import (
    AlphaVector,
    alpha_at,
    localized_average_residual,
    product_decomposition_residual,
)
from .scalars import (
    FLOAT64,
    RATIONAL,
    check_exponent,
    check_range,
    parse_fraction,
    row_difference,
    row_is_zero,
    row_product,
)
from .sublinear import (
    bmo2_via_haar,
    bmo_norm,
    bstar_seminorm,
    cz_decompose,
    maximal,
    square_function,
)

FLOAT_TOL = 1e-9

OP_ALIASES = {
    **{kind: kind for kind in KINDS},
    "para": "paraproduct",
    "pi": "pi_paraproduct",
    "mult": "multilinear_multiplier",
    "multiplier": "multilinear_multiplier",
}

def _emit(obj, output: str | None):
    text = canonical_json(obj)
    if output:
        Path(output).write_text(text)
    sys.stdout.write(text)


def _load(path: str, cls, kind: str):
    """``cls.from_json_dict`` of a JSON file; the error names the kind of
    file expected when the file holds something else: a missing key, or a
    value of the wrong type, such as an entry that is not an object."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{path} is not a {kind} file: expected a JSON object")
    try:
        return cls.from_json_dict(obj)
    except KeyError as exc:
        raise ValueError(
            f"{path} is not a {kind} file: missing key {exc.args[0]!r}"
        ) from None
    except TypeError as exc:
        raise ValueError(f"{path} is not a {kind} file: {exc}") from None


def _is_small(residual, mode: str) -> bool:
    """Whether a residual, a scalar or a StepFunction, is zero in rational
    mode, or has every value within FLOAT_TOL in float64."""
    values = residual.values if isinstance(residual, StepFunction) else (residual,)
    if mode == RATIONAL:
        return row_is_zero(values)
    return all(abs(v) <= FLOAT_TOL for v in values)


def _random_function(rng: random.Random, depth: int, mode: str) -> StepFunction:
    f = random_rational_step(rng, depth)
    return f if mode == RATIONAL else f.as_float64()


# -- verify suites -----------------------------------------------------------
# each yields the residuals it checks, every one zero when the identity holds


def _check_m_and_depth(args):
    """The decomposition suites need --m >= 2 and --depth >= 2."""
    for flag in ("m", "depth"):
        check_range(getattr(args, flag), f"--{flag}", 2)


def _suite_decomposition(args, rng):
    _check_m_and_depth(args)
    for _ in range(args.trials):
        fs = [_random_function(rng, args.depth, args.mode) for _ in range(args.m)]
        yield product_decomposition_residual(fs)


def _suite_localized(args, rng):
    _check_m_and_depth(args)
    for _ in range(args.trials):
        fs = [_random_function(rng, args.depth, args.mode) for _ in range(args.m)]
        for level in range(1, args.depth + 1):
            interval = DyadicInterval(level, rng.randrange(1 << level))
            yield localized_average_residual(interval, fs)


def _random_alpha(rng, m: int) -> AlphaVector:
    """``rng.choice(admissible_alphas(m))`` without listing the 2**m - 1
    alphas: the same draw and the same alpha."""
    return alpha_at(m, draws_below(rng, [(1 << m) - 1])[0])


def _suite_duality(args, rng):
    # <T(fs), g> = <f_j, T*j(fs; g)> for random kinds, alphas of arity --m, slots
    for _ in range(args.trials):
        kind = rng.choice(KINDS)
        alpha = _random_alpha(rng, args.m)
        slot = rng.randint(1, alpha.m)
        draws = {
            "b": lambda: _random_function(rng, args.depth, args.mode),
            "symbol": lambda: _random_symbol(rng, args.depth),
            "slot": lambda: rng.randint(1, alpha.m),
        }
        # the kind's fields, drawn in the order b, symbol, slot
        fields = {name: draws[name]() for name in OPERATOR_KINDS[kind][1]}
        descriptor = OperatorDescriptor(kind, alpha, **fields)
        fs = [_random_function(rng, args.depth, args.mode) for _ in range(alpha.m)]
        g = _random_function(rng, args.depth, args.mode)
        yield adjoint_residual(descriptor, slot, fs, g)


def _random_fractions(rng, count: int) -> list[Fraction]:
    """``count`` fractions n/d with n drawn from -12..12, then d from 1..6,
    as ``rng.randint`` draws them."""
    draws = iter(draws_below(rng, (25, 6) * count))
    return [Fraction(n - 12, d + 1) for n, d in zip(draws, draws)]


def _random_symbol(rng, depth: int) -> SymbolSequence:
    intervals = interval_family(depth)
    entries = dict(zip(intervals, _random_fractions(rng, len(intervals))))
    return SymbolSequence(default=0, entries=entries)


def _suite_multiplier_coeff(args, rng):
    # <T f, h_I> = eps_I <f, h_I> for every interval I, from the Haar
    # coefficient tables of f and T f: one residual row per level
    for _ in range(args.trials):
        eps = _random_symbol(rng, args.depth)
        f = _random_function(rng, args.depth, args.mode)
        out = multilinear_multiplier(eps, (0,), [f])
        rows = zip(eps.table(args.depth, args.mode), coefficient_table(f),
                   coefficient_table(out))
        for e, c, o in rows:
            yield from row_difference(o, row_product(e, c))


def _suite_commutator_constant(args, rng):
    for _ in range(args.trials):
        [c] = _random_fractions(rng, 1)
        b = StepFunction.constant(c, args.depth, args.mode)
        eps = _random_symbol(rng, args.depth)
        alpha = _random_alpha(rng, args.m)
        slot = rng.randint(1, alpha.m)
        fs = [_random_function(rng, args.depth, args.mode) for _ in range(alpha.m)]
        yield commutator(slot, b, eps, alpha, fs)


SUITES = {
    "decomposition": _suite_decomposition,
    "localized": _suite_localized,
    # "transpose" is the same suite, kept for existing scripts
    "adjoint": _suite_duality,
    "transpose": _suite_duality,
    "multiplier-coeff": _suite_multiplier_coeff,
    "commutator-constant": _suite_commutator_constant,
}


def cmd_verify(args) -> int:
    """Run a suite; each residual it yields that is not small is one
    failure."""
    check_range(args.trials, "--trials", 1)
    check_range(args.m, "--m", 1)
    check_depth(args.depth)
    rng = random.Random(f"verify:{args.suite}:{args.seed}")
    residuals = SUITES[args.suite](args, rng)
    failures = sum(not _is_small(r, args.mode) for r in residuals)
    _emit(
        {
            "suite": args.suite,
            "m": args.m,
            "depth": args.depth,
            "trials": args.trials,
            "seed": args.seed,
            "mode": args.mode,
            "failures": failures,
            "ok": failures == 0,
        },
        args.output,
    )
    return 0 if failures == 0 else 1


# -- data commands -------------------------------------------------------------


def cmd_transform(args) -> int:
    if args.direction == "analyze":
        out = analyze(_load(args.input, StepFunction, "step function"))
    else:
        out = synthesize(_load(args.input, HaarSpectrum, "Haar spectrum"))
    _emit(out.to_json_dict(), args.output)
    return 0


def _parse_p(text: str):
    p = text.strip()
    if p in ("inf", "oo", "infinity"):
        return math.inf
    return check_exponent(p)


def cmd_norms(args) -> int:
    f = _load(args.input, StepFunction, "step function")
    f.as_float64()  # every norm is reported as a float64, max |f| among them
    ps = [_parse_p(part) for part in args.p.split(",")]
    out = {
        "depth": f.depth,
        "mode": f.mode,
        "lp": {},
        "weak_lp": {},
        "bmo1": float(bmo_norm(f, 1)),
        "bmo2": float(bmo_norm(f, 2)),
        "bmo2_haar": float(bmo2_via_haar(f)),
        "bstar": float(bstar_seminorm(f)),
    }
    for p in ps:
        key = "inf" if p == math.inf else str(p)
        out["lp"][key] = float(lp_norm(f, p))
        if p != math.inf:
            out["weak_lp"][key] = float(weak_lp_quasinorm(f, p))
    if args.include_maximal:
        out["maximal"] = maximal(f).to_json_dict()
    if args.include_square:
        out["square"] = square_function(f).to_json_dict()
    _emit(out, args.output)
    return 0


def cmd_czd(args) -> int:
    f = _load(args.input, StepFunction, "step function")
    _emit(cz_decompose(f, parse_fraction(args.height)).to_json_dict(), args.output)
    return 0


# -- experiments -----------------------------------------------------------------


def _build_descriptor(args) -> OperatorDescriptor:
    kind = OP_ALIASES.get(args.op)
    if kind is None:
        raise ValueError(
            f"unknown operator {args.op!r}; choose from {sorted(set(OP_ALIASES))}"
        )
    alpha = AlphaVector.from_string(args.alpha)
    b = None
    if args.b is not None:
        b = _load(args.b, StepFunction, "step function")
    symbol = None
    if args.symbol is not None and args.symbol_const is not None:
        raise ValueError("give --symbol or --symbol-const, not both")
    if args.symbol is not None:
        symbol = _load(args.symbol, SymbolSequence, "symbol sequence")
    elif args.symbol_const is not None:
        symbol = SymbolSequence.constant(parse_fraction(args.symbol_const))
    elif "symbol" in OPERATOR_KINDS[kind][1]:
        symbol = SymbolSequence.constant(1)
    # the descriptor refuses a missing field and one its kind does not read
    return OperatorDescriptor(kind, alpha, b, symbol, args.slot)


def _run_experiment_cmd(args, weak: bool) -> int:
    descriptor = _build_descriptor(args)
    exponents = ExponentTuple.from_string(args.p)
    depth = args.depth
    if depth is None:
        if descriptor.b is not None:
            depth = descriptor.b.depth
        else:
            raise ValueError("--depth is required when no --b file sets the grid")
    sampler = SamplerSpec(
        family=args.family, depth=depth, seed=args.seed, level_cap=args.level_cap
    )
    runner = weak_type_ratio if weak else estimate_operator_norm
    report = runner(descriptor, exponents, sampler, args.trials)
    # the files before stdout: an unwritable CSV path exits 2 with no report
    # written or printed; an unwritable -o path, after the CSV is written
    if args.dump_trials:
        Path(args.dump_trials).write_text(report.trials_csv())
    _emit(report.to_json_dict(), args.output)
    return 0


def cmd_estimate(args) -> int:
    return _run_experiment_cmd(args, weak=False)


def cmd_weak(args) -> int:
    return _run_experiment_cmd(args, weak=True)


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing reads it
    and keeps each call's values on a new namespace."""
    parser = argparse.ArgumentParser(
        prog="dyadicops",
        description="Multilinear dyadic operators on finite grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run an exact identity suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--m", type=int, default=2, help="arity for tuple suites")
    v.add_argument("--depth", type=int, default=4)
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--mode", choices=(RATIONAL, FLOAT64), default=RATIONAL)
    v.add_argument("-o", "--output", default=None)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("transform", help="Haar analysis / synthesis of a file")
    t.add_argument("direction", choices=("analyze", "synthesize"))
    t.add_argument("input")
    t.add_argument("-o", "--output", default=None)
    t.set_defaults(func=cmd_transform)

    n = sub.add_parser("norms", help="norms and functionals of a function file")
    n.add_argument("input")
    n.add_argument("--p", default="1,2", help="comma list of exponents (inf ok)")
    n.add_argument("--include-maximal", action="store_true")
    n.add_argument("--include-square", action="store_true")
    n.add_argument("-o", "--output", default=None)
    n.set_defaults(func=cmd_norms)

    c = sub.add_parser("czd", help="stopping-time decomposition at a height")
    c.add_argument("input")
    c.add_argument("--height", required=True)
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_czd)

    for name, weak in (("estimate", False), ("weak", True)):
        e = sub.add_parser(
            name,
            help=(
                "weak-type ratio search" if weak else "operator norm lower bound"
            ),
        )
        e.add_argument("--op", required=True)
        e.add_argument("--alpha", required=True)
        e.add_argument("--slot", type=int, default=None)
        e.add_argument("--b", default=None, help="StepFunction JSON file")
        e.add_argument("--symbol", default=None, help="SymbolSequence JSON file")
        e.add_argument("--symbol-const", default=None)
        e.add_argument("--p", required=True, help="comma list of exponents")
        e.add_argument("--depth", type=int, default=None)
        e.add_argument("--trials", type=int, default=200)
        e.add_argument("--seed", type=int, default=0)
        e.add_argument("--family", default="random-step")
        e.add_argument("--level-cap", type=int, default=None)
        e.add_argument("--dump-trials", default=None)
        e.add_argument("-o", "--output", default=None)
        e.set_defaults(func=cmd_weak if weak else cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (DyadicOpsError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
