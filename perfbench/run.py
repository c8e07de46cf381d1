"""Closed-loop benchmark of the dyadicops command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list-metrics

One run is one process with one client: it imports ``dyadicops`` from
``src/`` of the checkout this file sits in, writes the workload's seeded
inputs to a temporary directory, and then calls ``dyadicops.cli.main(argv)``
over the workload's op cycle, starting each op only after the previous one
returned.  Every output is checked (see ``checks.py``), and an op that
fails, raises or gives a wrong output counts as failed.

With ``--trace 0`` the loop runs whole op cycles until the next cycle
would end after ``--seconds``, and the last stdout line reports the
end-to-end metrics.  Every timed call (each op, and each set-up) is
scaled by a reference kernel timed before, during and after it, so that
the host's speed swings cancel (see ``reference.py``); an op's time is the
median of its scaled repetitions in the run (see ``op_times``).
With ``--trace 1`` the run alternates cycles without and with the tracer
installed and reports the per-layer metrics per traced cycle, so counts
repeat exactly between runs of the same seed.  Spans go to ``.perfbench_out/spans-*.jsonl``, one
JSON list ``[name, start, end, parent span index, op id]`` per line.
A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

SETUP_REPEATS = 11

# The layers each workload is meant to exercise: a traced run fails when
# one of these call counts is zero (a moved import or a renamed callable
# would otherwise drop the layer silently).
MUST_MOVE = {
    "verify-exact": (
        "scalars.exact_mul_calls", "scalars.exact_addsub_calls",
        "scalars.exact_test_calls", "core.tables_calls", "core.pairing_calls",
        "core.stepfn_calls", "paraproducts.engine_calls",
        "paraproducts.residual_calls",
    ),
    "estimate-sweep": (
        "core.tables_calls", "core.stepfn_calls", "paraproducts.engine_calls",
        "multipliers.symbol_table_calls", "multipliers.apply_calls",
        "normlab.extremal_calls", "normlab.apply_calls", "normlab.jobs",
    ),
    "estimate-random": (
        "core.norm_calls", "normlab.sample_calls", "normlab.jobs",
    ),
    "data-commands": (
        "core.transform_calls", "sublinear.calls",
    ),
}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """(Re-)import dyadicops from this checkout and return its cli module."""
    for name in [n for n in sys.modules if n == "dyadicops" or n.startswith("dyadicops.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("dyadicops")
    cli = importlib.import_module("dyadicops.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"dyadicops was imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int, tmp_root: Path):
    """Import the program and generate the inputs SETUP_REPEATS times;
    keep the last and return it with the median scaled set-up time."""
    times, raw = [], []
    for rep in range(SETUP_REPEATS):
        with reference.Gauge() as gauge:
            cli = import_program()
            tmp = tmp_root / f"setup-{rep}"
            tmp.mkdir()
            ops = build_ops(workload, seed, tmp)
        times.append(gauge.scaled)
        raw.append(gauge.raw)
    log(f"set-up: raw median {statistics.median(raw):.4f} s, scaled {statistics.median(times):.4f} s")
    return cli, ops, statistics.median(times)


def invoke(cli, op):
    """One timed ``main(argv)`` call with stdout and stderr captured:
    (exit code, stdout, stderr, its ``reference.Gauge``, exception text or
    None)."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with reference.Gauge() as gauge:
                rc = cli.main(list(op.argv))
    except Exception as exc:  # an escaping exception is a failed op
        error = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), gauge, error


class Loop:
    """Runs ops one after another, times each, and checks each output."""

    def __init__(self, cli, ops, tracer=None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.first_output: dict[int, tuple] = {}
        self.times: list[float] = []  # raw
        self.ok_times: list[list[float]] = [[] for _ in ops]  # scaled
        self.kernel_times: list[float] = []  # each op's median kernel run
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.errors: list[str] = []

    def run_op(self, index: int) -> None:
        op = self.ops[index]
        if self.tracer is not None:
            self.tracer.op = self.attempted
        rc, stdout, stderr, gauge, error = invoke(self.cli, op)
        self.attempted += 1
        self.times.append(gauge.raw)
        self.kernel_times.append(statistics.median(gauge.samples))
        if error is None:
            error = self._check(index, op, rc, stdout, stderr)
        if error is None:
            self.ok_times[index].append(gauge.scaled)
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {index} ({' '.join(op.argv[:2])}): {error}")

    def _check(self, index, op, rc, stdout, stderr) -> str | None:
        files = {}
        for path in op.outputs:
            try:
                files[path] = Path(path).read_bytes()
            except FileNotFoundError:
                return f"exit {rc}, no output file; stderr: {stderr.strip()[:200]}"
        self.bytes_written += len(stdout.encode()) + sum(len(b) for b in files.values())
        seen = self.first_output.get(index)
        if seen is not None:
            if (rc, stdout, files) != seen:
                return "output differs from the first run of this op"
            return None
        try:
            error = checks.check(op.kind, checks.Result(rc, stdout, files), op.meta, op.outputs)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            self.first_output[index] = (rc, stdout, files)
        elif rc != 0:
            error += f"; stderr: {stderr.strip()[:200]}"
        return error

    def run_cycle(self) -> None:
        for i in range(len(self.ops)):
            self.run_op(i)


def closed_loop(seconds: float, cycle) -> int:
    """Call ``cycle`` until the next call would end after ``seconds``,
    judged by the last call's duration; at least once.  Whole cycles keep
    the op mix the same in every run.  Returns the number of calls."""
    start = time.perf_counter()
    count, last = 0, 0.0
    while count == 0 or time.perf_counter() - start + last <= seconds:
        cycle_start = time.perf_counter()
        cycle()
        last = time.perf_counter() - cycle_start
        count += 1
    return count


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: its
    value, the percentile and the samples beyond.  Runs with 10 ops or
    fewer have no such percentile and report their maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def op_times(loop: Loop) -> tuple[list[float], int]:
    """Each op's median scaled time over its passing repetitions, and the
    units those ops do.

    Other tenants of the machine change its speed by up to a factor of two
    for seconds to minutes; raw op times follow, and scaled ones move by a
    few percent."""
    medians, units = [], 0
    for op, times in zip(loop.ops, loop.ok_times):
        if times:
            medians.append(statistics.median(times))
            units += op.units
    return medians, units


def units_per_s(loop: Loop) -> float:
    medians, units = op_times(loop)
    return units / sum(medians) if medians else 0.0


def end_to_end(loop: Loop, setup_s: float) -> dict:
    medians, _ = op_times(loop)
    raw_tail, pct, beyond = tail(loop.times)
    log(
        f"{loop.attempted} ops, {loop.attempted // len(loop.ops)} cycles of {len(loop.ops)}, "
        f"failed {loop.failed} (failed_ops_ratio {loop.failed / loop.attempted:.4f}); "
        f"raw op times: p50 {statistics.median(loop.times):.4f} s, "
        f"p{pct:.1f} {raw_tail:.4f} s with {beyond} of {len(loop.times)} beyond it"
    )
    log(
        f"reference kernel: median {statistics.median(loop.kernel_times) * 1e3:.4f} ms "
        f"during ops ({reference.REF_SECONDS * 1e3:g} ms by definition)"
    )
    log("median scaled time per op (s): " + " ".join(f"{t:.4f}" for t in medians))
    return {
        "units_per_s": units_per_s(loop),
        "op_p50_s": statistics.median(medians) if medians else 0.0,
        "op_tail_s": max(medians, default=0.0),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (loop.attempted - loop.failed) / loop.attempted,
    }


def traced(cli, ops, seconds: float, workload: str, seed: int):
    """Alternate untraced and traced cycles, so that both see the same
    machine, and report the traced cycles' layer metrics.  Layer self
    times are raw seconds and include the reference kernel's samples
    (about 2% of a call)."""
    tracer = tracing.Tracer()
    plain, loop = Loop(cli, ops), Loop(cli, ops, tracer)
    loop.first_output = plain.first_output

    def both():
        plain.run_cycle()
        tracer.install()
        try:
            loop.run_cycle()
        finally:
            tracer.uninstall()

    cycles = closed_loop(seconds, both)
    plain_rate, traced_rate = units_per_s(plain), units_per_s(loop)

    layers = tracer.layer_metrics(cycles, loop.bytes_written)
    layers["trace.overhead_ratio"] = plain_rate / traced_rate if traced_rate else 0.0
    problems = [
        f"{name} is 0 on {workload}" for name in MUST_MOVE[workload] if not layers[name]
    ]
    if tracer.missing:
        log("not found, so not traced: " + ", ".join(tracer.missing))
    log(
        f"traced {cycles} cycles ({tracer.bindings} bindings wrapped, "
        f"{len(tracer.spans)} spans); untraced {plain.attempted} ops"
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    log(f"spans written to {spans_path.relative_to(ROOT)}")

    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.errors = plain.errors + loop.errors
    return layers, loop, problems


def with_units(values: dict[str, float], kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if set(values) != {m["name"] for m in spec}:
        raise ValueError(f"metrics differ from the {kind} list in BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def list_metrics() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps({"machine": machine()}))
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            print(f"{kind} {m['name']} [{m['unit']}] {m['better']} is better")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)
    if args.list_metrics:
        return list_metrics()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "dyadicops" / "__init__.py").is_file():
        log(f"error: no dyadicops package under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    log(f"{args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}; {json.dumps(machine())}")

    OUT_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        cli, ops, setup_s = setup(args.workload, args.seed, tmp_root)
        if args.trace:
            values, loop, problems = traced(cli, ops, args.seconds, args.workload, args.seed)
            metrics = with_units(values, "per_layer")
        else:
            loop = Loop(cli, ops)
            closed_loop(args.seconds, loop.run_cycle)
            metrics, problems = with_units(end_to_end(loop, setup_s), "end_to_end"), []
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    for line in loop.errors + problems:
        log(f"FAIL {line}")
    print(json.dumps({
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
