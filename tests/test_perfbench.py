"""The benchmark's self-test: its output checkers read ``Exact`` values
through ``verify``, ``transform`` and ``norms``, and must accept the
program's real output and reject corrupted copies of it.  Its tracer must
still find a callable in every layer it times, and one traced cycle of
each workload must pass its checks and move every layer it guards, and
``scripts/same_outputs.py`` must find the same bytes in a checkout run
against itself."""

import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dyadicops

ROOT = Path(__file__).resolve().parents[1]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "all cases behave" in done.stdout


def test_every_traced_layer_keeps_a_target():
    """Each group of the benchmark's tracer wraps at least one callable that
    still exists, found by the tracer's own lookup: a change that deletes a
    layer's last traced name fails here, not only in a traced run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in pkgutil.iter_modules(dyadicops.__path__):
        importlib.import_module(f"dyadicops.{module.name}")
    lookup = tracing.Tracer()
    empty = [
        group
        for group, targets in tracing.SPAN_TARGETS.items()
        if not any(
            callable(lookup._resolve(f"dyadicops.{module}", path))
            for module, path in targets
        )
    ]
    assert not empty, f"traced layers with no callable left: {empty}"


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_one_traced_cycle_is_correct(workload):
    """One traced cycle checks every output of the workload and fails when
    a layer the workload must move records no call, as a rerouted norm
    call would."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr


def test_same_outputs_finds_no_difference_against_itself():
    """``scripts/same_outputs.py`` runs every op of a workload in both
    checkouts and exits 0 when none differs.  ``estimate-sweep`` takes its
    ``--dump-trials`` branch and the operators on support views."""
    done = subprocess.run(
        [sys.executable, "scripts/same_outputs.py", str(ROOT), str(ROOT),
         "--workloads", "verify-exact,estimate-sweep", "--seeds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "verify-exact seed 0", "estimate-sweep seed 0",
    ]
    assert all(line.endswith(" ops, all the same") for line in lines)
