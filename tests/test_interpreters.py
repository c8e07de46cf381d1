"""Reports are the same bytes under every supported CPython.

Float norms add with ``math.fsum``, which rounds correctly, where the
builtin ``sum`` changed between CPython 3.11 and 3.12.  The samplers
draw as ``random`` does (``uniform``, ``choice``, ``randint``) without
calling it.  This runs three commands whose float sums used to differ,
three that draw through each sampler, and a strong run with r < 1 and a
weak commutator run whose trials are measured in blocks of 16, all under
every CPython 3.10+ that pyenv has installed, and skips when it finds
fewer than two; the closed forms that rank the sharp jobs are checked the
same way.  The rademacher-haar runs pin the word order of ``randbytes``,
whose bytes give the signs, and a ``norms`` run on data whose squares
overflow pins the fallback of the L^2 and L^3 means.  A weak commutator
run on integer-valued b, whose forms sort ties, and a ``norms`` run on a
rational file pin the one float weak rule, sorted |values| times
(rank / n) ** (1/p).  A multiplier run on a symbol file with repeated
value texts, a sqrt(2) pair and an entry below the grid pins the
row-built symbol table.  ``transform analyze`` of the float64 file and
``transform synthesize`` of a float64 spectrum pin the one row pass of
the tables and of synthesis.  The draws of ``verify``, which read raw bits by
the rule of ``random.Random._randbelow``, give the values and the rng
state of ``randint`` and ``choice`` under each of them.
"""

import json
import os
import random
import re
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def pyenv_root() -> Path:
    if shutil.which("pyenv"):
        done = subprocess.run(["pyenv", "root"], capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return Path(done.stdout.strip())
    return Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))


def cpythons() -> list[Path]:
    """Every pyenv CPython 3.10 or later: version directories named
    major.minor.patch (other implementations carry a prefix)."""
    found = []
    for python in sorted(pyenv_root().glob("versions/*/bin/python")):
        m = re.fullmatch(r"(\d+)\.(\d+)\.\d+", python.parents[1].name)
        if m and (int(m[1]), int(m[2])) >= (3, 10):
            found.append(python)
    return found


def run_everywhere(argv: list[str], dumped=()) -> dict:
    """The exit code, stdout, stderr and the bytes of the ``dumped`` files
    of ``python argv`` under each CPython, keyed by its version; fails
    unless the first one exits 0."""
    pythons = cpythons()
    if len(pythons) < 2:
        pytest.skip(f"needs two CPython 3.10+ under pyenv, found {len(pythons)}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    outputs = {}
    for python in pythons:
        done = subprocess.run(
            [str(python), *argv], capture_output=True, env=env, timeout=120
        )
        files = [Path(path).read_bytes() for path in dumped]
        outputs[python.parents[1].name] = (
            done.returncode, done.stdout, done.stderr, files
        )
    first = outputs[pythons[0].parents[1].name]
    assert first[0] == 0, first[2]
    return outputs


def test_reports_match_across_interpreters(tmp_path):
    rng = random.Random(10)
    f_path = tmp_path / "f.json"
    values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3) for _ in range(1 << 10)]
    f_path.write_text(json.dumps({"depth": 10, "mode": "float64", "values": values}))
    b_path = tmp_path / "b.json"
    b_values = [rng.uniform(-1, 1) for _ in range(1 << 6)]
    b_path.write_text(json.dumps({"depth": 6, "mode": "float64", "values": b_values}))
    # squares past the float range: the L^2 and L^3 means take the fallback
    big_path = tmp_path / "big.json"
    big = [rng.uniform(-1.5, 1.5) * 1e160 for _ in range(1 << 8)]
    big_path.write_text(json.dumps({"depth": 8, "mode": "float64", "values": big}))
    ties_path = tmp_path / "ties.json"
    ties = [float(rng.randint(-3, 3)) for _ in range(1 << 7)]
    ties_path.write_text(json.dumps({"depth": 7, "mode": "float64", "values": ties}))
    exact_path = tmp_path / "exact.json"
    exact = [str(Fraction(rng.randint(-40, 40), rng.randint(1, 12))) for _ in range(1 << 8)]
    exact_path.write_text(json.dumps({"depth": 8, "mode": "rational", "values": exact}))
    # twice the mean |f|: the global average stays below the height
    height = str(2 * sum(abs(Fraction(t)) for t in exact) / len(exact))
    # value texts that repeat, a + b*sqrt(2) as a pair, and an entry at
    # level 7, below the depth-6 grid
    texts = ["3/2", "-1", ["1", "-1/2"], "5/7", "3/2", "-2/3"]
    symbol_path = tmp_path / "symbol.json"
    symbol_path.write_text(json.dumps({
        "default": "1/2",
        "entries": [
            {"level": level, "pos": pos, "value": texts[rng.randrange(len(texts))]}
            for level in range(6) for pos in range(1 << level) if rng.random() < 0.6
        ] + [{"level": 7, "pos": 5, "value": "9"}],
    }))
    # a float64 spectrum: coefficients over six decades, a tenth of them zero
    spectrum_path = tmp_path / "spectrum.json"
    spectrum_path.write_text(json.dumps({
        "depth": 9, "mode": "float64", "mean": rng.uniform(-1, 1),
        "coeffs": [
            {"level": level, "pos": pos,
             "value": rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3)}
            for level in range(9) for pos in range(1 << level) if rng.random() < 0.9
        ],
    }))
    commands = [
        # the one table pass and the one top-down pass
        ["transform", "analyze", str(f_path)],
        ["transform", "synthesize", str(spectrum_path)],
        ["estimate", "--op", "mult", "--alpha", "001", "--symbol-const", "3/2",
         "--depth", "6", "--p", "1,3,2", "--family", "indicator", "--trials", "30"],
        # the square function and bmo2_haar add the same c_I**2 / |I| terms
        ["norms", str(f_path), "--p", "1,3/2,2,3", "--include-square"],
        ["verify", "adjoint", "--mode", "float64"],
        ["estimate", "--op", "para", "--alpha", "01", "--depth", "5", "--p", "2,2",
         "--family", "rademacher-haar", "--trials", "30", "--dump-trials",
         str(tmp_path / "haar.csv")],
        ["estimate", "--op", "pi", "--alpha", "01", "--b", str(f_path), "--p", "2,3",
         "--family", "random-step", "--trials", "30", "--dump-trials",
         str(tmp_path / "step.csv")],
        ["verify", "decomposition", "--m", "3", "--depth", "4", "--trials", "5"],
        # blocks of 16 trials at depth 6, the last one partial; r = 6/11
        ["estimate", "--op", "mult", "--alpha", "001", "--symbol-const", "3/2",
         "--depth", "6", "--p", "1,3,2", "--family", "indicator", "--trials", "40",
         "--seed", "2", "--dump-trials", str(tmp_path / "indicator.csv")],
        ["weak", "--op", "commutator", "--alpha", "01", "--slot", "1",
         "--b", str(b_path), "--symbol-const", "3/2", "--p", "1,2",
         "--family", "random-step", "--trials", "40", "--seed", "3",
         "--dump-trials", str(tmp_path / "weak.csv")],
        # the signs of a trial come from one randbytes call
        ["estimate", "--op", "para", "--alpha", "011", "--depth", "6",
         "--p", "2,3,6", "--family", "rademacher-haar", "--level-cap", "3",
         "--trials", "30", "--seed", "4", "--dump-trials", str(tmp_path / "capped.csv")],
        ["estimate", "--op", "pi", "--alpha", "01", "--b", str(b_path), "--p", "1,2",
         "--family", "indicator", "--trials", "30", "--seed", "5",
         "--dump-trials", str(tmp_path / "pi-indicator.csv")],
        ["norms", str(big_path), "--p", "1,2,3"],
        ["weak", "--op", "commutator", "--alpha", "01", "--slot", "1",
         "--b", str(ties_path), "--symbol-const", "1", "--p", "1,2",
         "--family", "rademacher-haar", "--trials", "20", "--seed", "6",
         "--dump-trials", str(tmp_path / "weak-ties.csv")],
        ["norms", str(exact_path), "--p", "1,3/2,3"],
        # both read the rational leaves through their row; czd prints each
        ["transform", "analyze", str(exact_path)],
        ["czd", str(exact_path), "--height", height],
        ["estimate", "--op", "mult", "--alpha", "01", "--symbol", str(symbol_path),
         "--depth", "6", "--p", "2,3", "--family", "random-step", "--trials", "20",
         "--seed", "7", "--dump-trials", str(tmp_path / "symbol.csv")],
    ]
    for argv in commands:
        dumped = [path for path in argv if path.endswith(".csv")]
        outputs = run_everywhere(["-m", "dyadicops.cli", *argv], dumped)
        first = next(iter(outputs.values()))
        assert all(out == first for out in outputs.values()), (argv[0], outputs)


# the closed forms that rank the sharp jobs: the strong ones add float powers
SHARP_FORMS = """
import random
from fractions import Fraction
from dyadicops import (
    AlphaVector, ExponentTuple, OperatorDescriptor, StepFunction, SymbolSequence,
    interval_family, necessity_case, sharp_forms,
)
for depth in (6, 9):
    rng = random.Random(depth)
    values = [rng.uniform(-1, 1) for _ in range(1 << depth)]
    b = StepFunction.from_values(values, "float64")
    eps = SymbolSequence(0, {
        i: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        for i in interval_family(depth)
    })
    for alpha, slot, p in (
        ("01", 2, "2,2"), ("00", 1, "4,4"), ("01", 1, "3,3/2"), ("10", 2, "2,3")
    ):
        d = OperatorDescriptor("commutator", AlphaVector.from_string(alpha), b, eps, slot)
        for weak in (False, True):
            forms = sharp_forms(d, ExponentTuple.from_string(p), depth, weak)
            print(necessity_case(alpha, slot), weak, forms)
"""


def test_sharp_forms_match_across_interpreters():
    outputs = run_everywhere(["-c", SHARP_FORMS])
    first = next(iter(outputs.values()))
    assert b"\nI False" in first[1] and b"II False" in first[1]
    assert all(out == first for out in outputs.values()), outputs


# the verify suites' draws from raw bits against randint and choice: the
# leaves, the symbol, the constant and the alpha, then the rng state
DRAWS = """
import hashlib
import random
from fractions import Fraction
from dyadicops import admissible_alphas, interval_family
from dyadicops.cli import _random_alpha, _random_fractions, _random_symbol
from dyadicops.normlab import random_rational_step

def raw_bits(rng, depth):
    return (
        [Fraction(v.A, v.D) for v in random_rational_step(rng, depth).values],
        list(_random_symbol(rng, depth).entries.values()),
        _random_fractions(rng, 1),
        _random_alpha(rng, depth + 1),
    )

def randint_and_choice(rng, depth):
    return (
        [Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(1 << depth)],
        [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in interval_family(depth)],
        [Fraction(rng.randint(-12, 12), rng.randint(1, 6))],
        rng.choice(admissible_alphas(depth + 1)),
    )

for draw in (raw_bits, randint_and_choice):
    digest = hashlib.sha256()
    for seed in range(20):
        rng = random.Random(f"draws:{seed}")
        for depth in range(1, 10):
            digest.update(repr(draw(rng, depth)).encode())
        digest.update(repr(rng.getstate()).encode())
    print(digest.hexdigest())
"""


def test_draws_match_randint_across_interpreters():
    outputs = run_everywhere(["-c", DRAWS])
    for version, (_, stdout, _, _) in outputs.items():
        raw, reference = stdout.split()
        assert raw == reference, version
    first = next(iter(outputs.values()))
    assert all(out == first for out in outputs.values()), outputs
