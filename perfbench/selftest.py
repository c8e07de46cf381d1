"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs small ops of every kind through ``dyadicops.cli.main``, requires each
checker to accept the real output, and then requires it to reject the
same output corrupted: one flipped leaf, a ``best_ratio`` perturbed by
1e-6, an ``extremal_lower_bound`` off its closed form, a repeated op whose
report changed, and a verify run whose residual is not zero.  Exits 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from checks import Result, check
from workloads import Op

FAILURES: list[str] = []


def expect(name: str, error: str | None, accepted: bool) -> None:
    ok = (error is None) == accepted
    verdict = "accepted" if error is None else f"rejected ({error})"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    if not ok:
        FAILURES.append(name)


def execute(cli, op: Op) -> Result:
    rc, stdout, stderr, _, error = run.invoke(cli, op)
    if error is not None:
        raise RuntimeError(f"{op.argv}: {error}")
    files = {path: Path(path).read_bytes() for path in op.outputs}
    return Result(rc, stdout, files)


def rewrite(result: Result, path: str, edit) -> Result:
    """The result with the JSON file at ``path`` passed through ``edit``."""
    obj = json.loads(result.files[path])
    edit(obj)
    files = dict(result.files, **{path: json.dumps(obj).encode()})
    return Result(result.rc, result.stdout, files)


def flip(values: list) -> None:
    """Negate the first nonzero leaf value."""
    leaf = next(i for i, v in enumerate(values) if Fraction(v) != 0)
    v = values[leaf]
    values[leaf] = str(-Fraction(v)) if isinstance(v, str) else -v


def data_cases(cli, tmp: Path) -> None:
    rng = random.Random(1)
    for mode, depth in (("rational", 5), ("float64", 6)):
        n = 1 << depth
        if mode == "rational":
            vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        else:
            vals = [rng.uniform(-3.0, 3.0) for _ in range(n)]
        vals[3] = Fraction(9) if mode == "rational" else 9.0  # a leaf the czd height selects
        encoded = [str(v) for v in vals] if mode == "rational" else vals
        f_path = tmp / f"{mode}.json"
        f_path.write_text(json.dumps({"depth": depth, "mode": mode, "values": encoded}))
        meta = {"depth": depth, "mode": mode, "values": vals}
        spec, syn, norms, czd = (str(tmp / f"{mode}-{k}.json") for k in ("spec", "syn", "norms", "czd"))
        ops = {
            "analyze": Op(["transform", "analyze", str(f_path), "-o", spec], n, "analyze", meta, [spec]),
            "synthesize": Op(["transform", "synthesize", spec, "-o", syn], n, "synthesize", meta, [syn]),
            "norms": Op(["norms", str(f_path), "--p", "1,2,3,inf", "--include-maximal",
                         "--include-square", "-o", norms], n, "norms", meta, [norms]),
            "czd": Op(["czd", str(f_path), "--height", "4", "-o", czd], n, "czd",
                      dict(meta, height=Fraction(4)), [czd]),
        }
        results = {}
        for kind, op in ops.items():
            results[kind] = execute(cli, op)
            expect(f"{mode} {kind}", check(kind, results[kind], op.meta, op.outputs), True)

        def shift_mean(obj):
            mean = obj["mean"]
            obj["mean"] = str(Fraction(mean) + 1) if isinstance(mean, str) else mean + 1e-6

        bad = rewrite(results["analyze"], spec, shift_mean)
        expect(f"{mode} analyze, mean shifted", check("analyze", bad, meta, [spec]), False)

        def flip_values(obj):
            flip(obj["values"])

        bad = rewrite(results["synthesize"], syn, flip_values)
        expect(f"{mode} synthesize, one flipped leaf", check("synthesize", bad, meta, [syn]), False)

        def flip_good(obj):
            flip(obj["good"]["values"])

        bad = rewrite(results["czd"], czd, flip_good)
        expect(f"{mode} czd, one flipped leaf of the good part", check("czd", bad, ops["czd"].meta, [czd]), False)

        def drop_maximal(obj):
            obj["maximal"]["values"][3] = 0 if mode == "float64" else "0"

        bad = rewrite(results["norms"], norms, drop_maximal)
        expect(f"{mode} norms, maximal below |f| at one leaf", check("norms", bad, meta, [norms]), False)


def estimate_cases(cli, tmp: Path) -> None:
    rng = random.Random(2)
    depth = 6
    b = [rng.uniform(-1.0, 1.0) for _ in range(1 << depth)]
    b_path = tmp / "b.json"
    b_path.write_text(json.dumps({"depth": depth, "mode": "float64", "values": b}))
    out = str(tmp / "report.json")
    op = Op(
        ["estimate", "--op", "commutator", "--alpha", "01", "--slot", "2", "--b", str(b_path),
         "--p", "2,2", "--trials", "2", "--seed", "3", "-o", out],
        2 + (1 << depth) - 1, "estimate",
        {"form": "commutator-II", "b": b, "p": (2, 2), "trials": 2, "depth": depth}, [out],
    )
    good = execute(cli, op)
    expect("estimate", check("estimate", good, op.meta, op.outputs), True)
    report = json.loads(good.stdout)
    if report["best_trial"] < report["trials"]:
        raise RuntimeError("the self-test report must have an extremal best trial")

    def with_report(edit) -> Result:
        obj = json.loads(good.stdout)
        edit(obj)
        text = json.dumps(obj)
        return Result(good.rc, text, {out: text.encode()})

    bad = with_report(lambda r: r.update(best_ratio=r["best_ratio"] * (1 - 1e-6)))
    expect("estimate, best_ratio perturbed by -1e-6", check("estimate", bad, op.meta, [out]), False)
    bad = with_report(lambda r: r.update(
        extremal_lower_bound=r["extremal_lower_bound"] * (1 + 1e-6),
        best_ratio=r["best_ratio"] * (1 + 1e-6),
    ))
    expect("estimate, both bounds perturbed by +1e-6", check("estimate", bad, op.meta, [out]), False)

    # a repeat whose report differs from the first run of the op
    loop = run.Loop(cli, [op])
    loop.run_op(0)
    expect("estimate, first run in a loop", None if loop.failed == 0 else "failed", True)
    Path(out).write_bytes(with_report(lambda r: r.update(best_ratio=r["best_ratio"] * (1 + 1e-6))).files[out])
    error = loop._check(0, op, good.rc, good.stdout, "")
    expect("estimate repeat, best_ratio perturbed by +1e-6", error, False)


def verify_cases(cli) -> None:
    op = Op(["verify", "decomposition", "--m", "2", "--depth", "3", "--trials", "3"], 3,
            "verify", {"suite": "decomposition", "trials": 3})
    expect("verify", check("verify", execute(cli, op), op.meta, []), True)
    real = cli.product_decomposition_residual

    def off_by_one_leaf(fs):
        residual = real(fs)
        values = list(residual.values)
        values[0] = values[0] + 1
        return type(residual)._raw(residual.depth, values, residual.mode)

    cli.product_decomposition_residual = off_by_one_leaf
    try:
        bad = execute(cli, op)
    finally:
        cli.product_decomposition_residual = real
    expect("verify, nonzero residual", check("verify", bad, op.meta, []), False)


def main() -> int:
    if not (run.SRC / "dyadicops" / "__init__.py").is_file():
        print(f"error: no dyadicops package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        data_cases(cli, tmp)
        estimate_cases(cli, tmp)
        verify_cases(cli)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failing cases" if FAILURES else "all cases behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
