#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 pxbench/run.py --workload eval-wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` runs the traced pass and
prints every per-layer metric instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Everything above it is a
readable table with sample counts and notes.  See ``pxbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eval-wide", "serve-mix", "serve-edit")
IMPORT_SETUPS = 7


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def warm_bytecode() -> None:
    """Import everything once in a child, so compiled bytecode exists
    before any set-up is timed (a fresh checkout has none)."""
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.service.frontend.aserver"],
        cwd=ROOT, env=_python_env(), check=True, timeout=120,
    )


def import_setups(count: int = IMPORT_SETUPS) -> list[float]:
    """Spawn-to-ready times of ``import repro`` in fresh interpreters."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", "import repro; print('ready', flush=True)"],
            cwd=ROOT, env=_python_env(), stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        times.append(time.perf_counter() - start)
        child.stdout.close()
        if child.wait(60) != 0 or line.strip() != "ready":
            raise RuntimeError("import repro failed in a fresh interpreter")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs the three workloads one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
            ).returncode
        return status
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import serve
    from measure import Metrics

    base = ROOT / ".pxbench_tmp" / f"{args.workload}-{os.getpid()}"
    base.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and of every child stay in the checkout.
    os.environ["TMPDIR"] = str(base)
    tempfile.tempdir = None
    warm_bytecode()
    metrics = Metrics()
    problems: list[str] = []
    started = time.perf_counter()
    try:
        if args.workload == "eval-wide":
            import eval_wide

            if args.trace:
                logs = [eval_wide.run_traced(args.seed, metrics)]
            else:
                setups = import_setups()
                logs = [eval_wide.run(args.seed, args.seconds, setups, metrics)]
        else:
            module = __import__(args.workload.replace("-", "_"))
            if args.trace:
                log, run_problems = serve.run_traced(module, args.seed, ROOT, base, metrics)
                logs = [log]
            else:
                log, probe_log, run_problems = serve.run(
                    module, args.seed, args.seconds, ROOT, base, metrics
                )
                logs = [log, probe_log]
            problems = run_problems.items
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run is using it

    key = "per_layer" if args.trace else "end_to_end"
    names = [row["name"] for row in spec[key]]
    if args.trace:
        units = {row["name"]: row["unit"] for row in spec[key]}
        layers.absent(metrics, names, units, "not on this workload's path")
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({time.perf_counter() - started:.1f} s)")
    print(metrics.table())
    ledger = json.loads((HERE / "ledger.json").read_text())
    for row in ledger["dropped"]:
        print(f"  dropped {row['name']}: {row['reason']}")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.result_metrics(names),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
