"""No command leaves cyclic garbage.

A value that refers to itself, as a recursive closure does through its
cell, lives on after its command until the cyclic collector runs, and
holds everything it reaches: tables, inputs, results.  Each op of every
benchmark workload's seed-0 cycle runs through ``cli.main`` with the
collector off, and ``gc.collect()`` after it must find nothing to free.
"""

import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dyadicops import cli

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_no_op_leaves_cyclic_garbage(workload, tmp_path, capsys):
    ops = _workloads().build_ops(workload, 0, tmp_path)
    # the parser is built once per process, and kept
    cli.build_parser()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        left = {}
        for op in ops:
            assert cli.main(op.argv) == 0, op.argv
            capsys.readouterr()
            freed = gc.collect()
            if freed:
                left[" ".join(op.argv[:2])] = freed
    finally:
        if enabled:
            gc.enable()
    assert not left
