#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of hansenatlas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program in `src/` with no
install.  One run is a closed loop with one client: it starts operations one
after the other, each only once the previous one has exited, until S seconds
have passed (at least one operation).  An operation is one `hansenatlas` CLI
invocation in a fresh interpreter (perfbench/op.py), whose outputs are checked
after its timed interval.  Before the operations the run starts SETUPS
interpreters that only import `hansenatlas.cli`, to measure set-up time.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics: the end-to-end ones with --trace 0, the per-layer ones (see
tracer.py) with --trace 1.  Each metric is the median over the run's
operations.  The seed picks the samples of the checks (points, modes, keys);
the CLI arguments of a workload are fixed.  Artifacts and traces go to
`.perfbench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import METRICS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
OP = Path(__file__).resolve().parent / "op.py"
SETUPS = 6  # set-up-only interpreters per run, besides each operation's own
OP_TIMEOUT_S = 170

WORKLOADS = {
    "triple-5m2": ["zeros", "--task", "triple", "--order", "60", "--modes", "5,-2", "--jobs", "1"],
    "scan-triple": ["zeros", "--task", "triple", "--order", "30", "--mmax", "8", "--jobs", "2"],
    "curves-hires": [
        "zeros", "--task", "curves", "--order", "20", "--mmax", "8", "--grid", "2048", "--jobs", "1",
    ],
    "hansen-routes": [
        "bench", "--methods", "newcomb,wnuk,balmino",
        "--n", "0..8", "--m=-3..3", "--k", "0..10", "--order", "24",
    ],
}

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))


def _spawn(result: Path, extra: list) -> dict:
    """Run op.py to completion; its result, or {} if it left none."""
    cmd = [sys.executable, str(OP), "--result", str(result), "--spawned", repr(time.time())] + extra
    # its own process group, so that a timeout also ends the scan's workers
    with subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, start_new_session=True
    ) as proc:
        try:
            proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"{result.stem}: killed after {OP_TIMEOUT_S} s", file=sys.stderr)
    return json.loads(result.read_text()) if result.exists() else {}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    imports = [_spawn(work / f"setup{i}.json", ["--setup-only"]) for i in range(SETUPS)]
    if not all(imports):
        raise SystemExit("hansenatlas.cli could not be imported from src/")
    setups = [r["setup_s"] for r in imports]
    print(f"{workload}: seed {seed}, rational backend {imports[0]['backend']}")
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        i = len(ops)
        extra = ["--workload", workload, "--seed", str(seed * 1000 + i), "--trace", str(int(trace))]
        if WORKLOADS[workload][0] == "zeros":
            extra += ["--out", str(work / f"op{i}")]
        result = _spawn(work / f"op{i}.json", extra + ["--"] + WORKLOADS[workload])
        ops.append(result)
        status = "failed" if result.get("rc") != 0 else ("correct" if not result["failures"] else "WRONG")
        print(f"op {i}: {status}, solve {result.get('solve_s', float('nan')):.3f} s")
        for failure in result.get("failures", []):
            print(f"  check failed: {failure}")
    done = [r for r in ops if r.get("rc") == 0]
    measured = [r for r in ops if "solve_s" in r]
    summary = {
        "correct": all(not r["failures"] for r in done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
    }
    if not measured:
        raise SystemExit("no operation produced a measurement")
    if trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in measured), "unit": unit}
                   for name, unit in METRICS}
    else:
        setups += [r["setup_s"] for r in measured]
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name, unit in END_TO_END[1:]:
            metrics[name] = {"value": statistics.median(r[name] for r in measured), "unit": unit}
    summary["metrics"] = metrics
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (ROOT / "src" / "hansenatlas" / "cli.py").is_file():
        print(f"no hansenatlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    summary = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
