"""Seeded inputs and the closed-loop op list of each workload.

Every op is one ``dyadicops.cli.main(argv)`` call.  The workload seed
drives every random choice here: the input files written to the run's
temporary directory and the ``--seed`` values passed to the program.  The
program only ever sees those generated inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify-exact", "estimate-sweep", "estimate-random", "data-commands")

# suite, --m, --depth, --trials; trial counts keep each op under 0.1 s, so
# a run repeats every op often enough for its median time to be steady
VERIFY_SUITES = (
    ("decomposition", 4, 6, 1),
    ("localized", 3, 6, 1),
    ("commutator-constant", 3, 6, 3),
    ("multiplier-coeff", 2, 6, 5),
    ("transpose", 2, 7, 2),
    ("adjoint", 2, 7, 2),
)
VERIFY_SEEDS = 3

# depth 9 keeps a cycle near 4 s, so a run repeats each op several times
SWEEP_DEPTH = 9
# 8 random trials against 511 extremal intervals: the sweep is >98% of jobs
SWEEP_TRIALS = 8

RANDOM_DEPTH = 7
# 1300 random trials against 127 extremal intervals: the sweep is <9% of jobs
RANDOM_TRIALS = 1300

FLOAT_DATA_DEPTH = 14
RATIONAL_DATA_DEPTH = 9


@dataclass
class Op:
    """One closed-loop call: its argv, the units of work it completes, and
    what its checker needs to know."""

    argv: list[str]
    units: int
    kind: str
    meta: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _float_step(rng: random.Random, depth: int) -> list[float]:
    return [rng.uniform(-1.0, 1.0) for _ in range(1 << depth)]


def _rational_symbol(rng: random.Random, depth: int) -> dict:
    """A symbol with its own rational value on every interval."""
    return {
        (level, pos): Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        for level in range(depth)
        for pos in range(1 << level)
    }


def _symbol_json(symbol: dict) -> dict:
    return {
        "default": "0",
        "entries": [
            {"level": level, "pos": pos, "value": str(v)}
            for (level, pos), v in sorted(symbol.items())
        ],
    }


def _verify_ops(rng: random.Random, tmp: Path) -> list[Op]:
    # several seeds per suite, so a run's cost does not hang on the size of
    # the fractions one draw happens to produce
    ops = []
    for _ in range(VERIFY_SEEDS):
        for suite, m, depth, trials in VERIFY_SUITES:
            argv = [
                "verify", suite, "--m", str(m), "--depth", str(depth),
                "--trials", str(trials), "--seed", str(rng.randrange(1 << 31)),
            ]
            ops.append(Op(argv, trials, "verify", {"suite": suite, "trials": trials}))
    return ops


def _estimate_op(
    tmp: Path, index: int, command: str, args: list[str], trials: int,
    depth: int, seed: int, meta: dict,
) -> Op:
    out = str(tmp / f"report-{index}.json")
    argv = [command, *args, "--trials", str(trials), "--seed", str(seed), "-o", out]
    meta = dict(meta, trials=trials, depth=depth)
    return Op(argv, trials + (1 << depth) - 1, "estimate", meta, [out])


def _sweep_ops(rng: random.Random, tmp: Path) -> list[Op]:
    depth = SWEEP_DEPTH
    b = _float_step(rng, depth)
    symbol = _rational_symbol(rng, depth)
    b_path = _write_json(tmp / "b.json", {"depth": depth, "mode": "float64", "values": b})
    s_path = _write_json(tmp / "symbol.json", _symbol_json(symbol))
    specs = [
        ("estimate", ["--op", "commutator", "--alpha", "01", "--slot", "2",
                      "--b", b_path, "--p", "2,2"],
         {"form": "commutator-II", "b": b, "p": (2, 2)}),
        ("estimate", ["--op", "pi", "--alpha", "01", "--b", b_path, "--p", "2,2"],
         {"form": "pi", "b": b, "p": (2, 2)}),
        ("estimate", ["--op", "mult", "--alpha", "01", "--symbol", s_path,
                      "--depth", str(depth), "--p", "2,2"],
         {"form": "multiplier", "symbol": symbol, "p": (2, 2)}),
        ("weak", ["--op", "commutator", "--alpha", "01", "--slot", "1",
                  "--b", b_path, "--p", "1,2"],
         {"form": "commutator-I-weak", "b": b, "p": (1, 2)}),
    ]
    return [
        _estimate_op(tmp, i, cmd, args, SWEEP_TRIALS, depth, rng.randrange(1 << 31), meta)
        for i, (cmd, args, meta) in enumerate(specs)
    ]


def _random_ops(rng: random.Random, tmp: Path) -> list[Op]:
    depth = RANDOM_DEPTH
    b = _float_step(rng, depth)
    symbol = _rational_symbol(rng, depth)
    b_path = _write_json(tmp / "b.json", {"depth": depth, "mode": "float64", "values": b})
    s_path = _write_json(tmp / "symbol.json", _symbol_json(symbol))
    specs = [
        (["--op", "para", "--alpha", "01", "--depth", str(depth), "--p", "2,2",
          "--family", "random-step"],
         {"form": "paraproduct", "p": (2, 2)}),
        (["--op", "pi", "--alpha", "01", "--b", b_path, "--p", "2,2",
          "--family", "rademacher-haar"],
         {"form": "pi", "b": b, "p": (2, 2)}),
        (["--op", "mult", "--alpha", "001", "--symbol", s_path, "--depth", str(depth),
          "--p", "1,3,2", "--family", "indicator"],
         {"form": "multiplier", "symbol": symbol, "p": (1, 3, 2)}),
    ]
    return [
        _estimate_op(tmp, i, "estimate", args, RANDOM_TRIALS, depth,
                     rng.randrange(1 << 31), meta)
        for i, (args, meta) in enumerate(specs)
    ]


def _bumpy_values(rng: random.Random, depth: int, exact: bool) -> list:
    """Small noise plus one tall bump in each quarter of [0, 1).

    Each bump spans 16 leaves; its parent's |f|-average lies above the
    stopping height and its grandparent's below, so czd selects exactly
    one interval per bump and every seed does the same amount of work."""
    n = 1 << depth
    if exact:
        vals = [Fraction(rng.randint(-2, 2), 12) for _ in range(n)]
    else:
        vals = [rng.uniform(-0.05, 0.05) for _ in range(n)]
    width = 16
    for quarter in range(4):
        start = quarter * (n // 4) + rng.randrange(n // 4 // width) * width
        sign = rng.choice((-1, 1))
        for leaf in range(start, start + width):
            if exact:
                vals[leaf] = sign * Fraction(rng.randint(15, 21), 3)
            else:
                vals[leaf] = sign * rng.uniform(2.5, 3.5)
    return vals


def _data_ops(rng: random.Random, tmp: Path) -> list[Op]:
    ops = []
    for tag, depth, exact in (
        ("float", FLOAT_DATA_DEPTH, False),
        ("rational", RATIONAL_DATA_DEPTH, True),
    ):
        vals = _bumpy_values(rng, depth, exact)
        mode = "rational" if exact else "float64"
        encoded = [str(v) for v in vals] if exact else vals
        f_path = _write_json(tmp / f"{tag}.json", {"depth": depth, "mode": mode, "values": encoded})
        mean_abs = sum(abs(v) for v in vals) / len(vals)
        # above the global mean of |f| (else RootExceedsHeight), below the bumps
        height = Fraction(2) if exact else Fraction(1)
        if not height > mean_abs:
            raise ValueError(f"czd height {height} is not above mean |f| = {mean_abs}")
        meta = {"depth": depth, "mode": mode, "values": vals}
        n = 1 << depth
        spec = str(tmp / f"{tag}-spec.json")
        syn = str(tmp / f"{tag}-synth.json")
        norms = str(tmp / f"{tag}-norms.json")
        czd = str(tmp / f"{tag}-czd.json")
        ops += [
            Op(["transform", "analyze", f_path, "-o", spec], n, "analyze", meta, [spec]),
            Op(["transform", "synthesize", spec, "-o", syn], n, "synthesize", meta, [syn]),
            Op(["norms", f_path, "--p", "1,2,3,inf", "--include-maximal",
                "--include-square", "-o", norms], n, "norms", meta, [norms]),
            Op(["czd", f_path, "--height", str(height), "-o", czd], n, "czd",
               dict(meta, height=height), [czd]),
        ]
    return ops


_BUILDERS = {
    "verify-exact": _verify_ops,
    "estimate-sweep": _sweep_ops,
    "estimate-random": _random_ops,
    "data-commands": _data_ops,
}


def build_ops(workload: str, seed: int, tmp: Path) -> list[Op]:
    """Write the workload's inputs under ``tmp`` and return its op cycle."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, tmp)
