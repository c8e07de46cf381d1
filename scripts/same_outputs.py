"""Check that two checkouts give the same bytes on every benchmark op.

    python3 scripts/same_outputs.py PARENT CHANGE --seeds 0,1,2,3,11
    python3 scripts/same_outputs.py PARENT CHANGE --workloads verify-exact --seeds 0

For each workload and seed, each checkout builds the op cycle of its own
``perfbench/workloads.py::build_ops`` and runs every op through its own
``dyadicops.cli.main``, with ``--dump-trials`` added to each estimate or
weak op.  Both checkouts run in the same working directory, so paths that
reach an output are the same.  The script names every op whose exit code,
stdout, ``-o`` file or dump file differs, and exits 1 if any differs, 0
otherwise.  It uses the standard library only and reads nothing of a
checkout but ``perfbench/`` and ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("verify-exact", "estimate-sweep", "estimate-random", "data-commands")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_ops(checkout: Path, workload: str, seed: int, work: Path) -> list[dict]:
    """Every op of the workload's cycle run by ``checkout`` in ``work``: its
    argv, exit code (or the exception that escaped) and the digests of its
    stdout and of each file it wrote."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    from workloads import build_ops
    from dyadicops import cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout / "src"):
        raise ImportError(f"dyadicops was imported from {cli.__file__}, not {checkout}")
    results = []
    for index, op in enumerate(build_ops(workload, seed, work)):
        argv, outputs = list(op.argv), list(op.outputs)
        if argv[0] in ("estimate", "weak"):
            dump = str(work / f"dump-{index}.csv")
            argv += ["--dump-trials", dump]
            outputs.append(dump)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # an escaping exception is an outcome too
            rc = f"{type(exc).__name__}: {exc}"
        files = {}
        for path in outputs:
            p = Path(path)
            files[p.name] = _digest(p.read_bytes()) if p.exists() else None
        results.append({
            "argv": argv,
            "rc": rc,
            "stdout": _digest(out.getvalue().encode()),
            "files": files,
        })
    return results


def collect(checkout: Path, workload: str, seed: int, work: Path) -> list[dict]:
    """``run_ops`` in a fresh interpreter, on an emptied ``work``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    done = subprocess.run(
        [sys.executable, __file__, "--run", str(checkout), workload, str(seed), str(work)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout} failed on {workload} seed {seed}:\n{done.stderr}")
    return json.loads(done.stdout)


def differences(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per op whose outcome differs, naming what differs."""
    if [r["argv"] for r in parent] != [r["argv"] for r in change]:
        return ["the op cycles differ"]
    lines = []
    for index, (a, b) in enumerate(zip(parent, change)):
        what = [key for key in ("rc", "stdout") if a[key] != b[key]]
        what += [name for name in a["files"] if a["files"][name] != b["files"].get(name)]
        if what:
            lines.append(f"op {index} ({' '.join(a['argv'][:3])}): {', '.join(what)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="0,1,2,3,11")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        for workload in workloads:
            for seed in seeds:
                parent = collect(args.parent.resolve(), workload, seed, work)
                change = collect(args.change.resolve(), workload, seed, work)
                lines = differences(parent, change)
                differ = differ or bool(lines)
                verdict = f"{len(lines)} differ" if lines else "all the same"
                print(f"{workload} seed {seed}: {len(parent)} ops, {verdict}")
                for line in lines:
                    print(f"  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        checkout, workload, seed, work = sys.argv[2:]
        results = run_ops(Path(checkout), workload, int(seed), Path(work))
        print(json.dumps(results))
    else:
        sys.exit(main())
