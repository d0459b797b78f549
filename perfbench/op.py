"""One benchmark operation: a single `hansenatlas` CLI invocation in this
fresh interpreter, then the correctness checks of its outputs.

run.py starts this script once per operation, so every operation pays the
imports and starts with cold caches, as a user's invocation does:

    python3 perfbench/op.py --result FILE --spawned T --workload W --seed S \
        --trace 0|1 [--out DIR] -- CLI ARGS...
    python3 perfbench/op.py --result FILE --spawned T --setup-only

`--spawned` is the wall-clock time at which run.py started this process; the
set-up time runs from there until `hansenatlas.cli` is imported.  The timed
interval is the call into `cli.main`; the checks run after it.  The result
file is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the reaped workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("cli_args", nargs="*")
    opts = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import hansenatlas.cli as cli

    imported = time.time()
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hansenatlas was imported from {cli.__file__}, not from {SRC}")
    from hansenatlas.exact import RATIONAL_BACKEND

    result = {"setup_s": imported - opts.spawned, "backend": RATIONAL_BACKEND}
    if opts.setup_only:
        Path(opts.result).write_text(json.dumps(result))
        return 0

    argv = list(opts.cli_args) + (["--out", opts.out] if opts.out else [])
    out_dir = Path(opts.out) if opts.out else None
    tracer = None
    if opts.trace:
        from tracer import Tracer

        trace_dir = Path(opts.result).with_suffix(".trace")
        tracer = Tracer(trace_dir)
        # by module object: the package namespace binds `hansen` to the function
        tracer.install({name: importlib.import_module(f"hansenatlas.{name}") for name in tracer.MODULES})

    stdout = io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv)
    solve_s = time.perf_counter() - t0
    result.update(
        rc=rc,
        solve_s=solve_s,
        cpu_s=_cpu_seconds() - cpu0,
        peak_rss_mib=_peak_rss_mib(),
    )
    if tracer is not None:
        jobs = cli.build_parser().parse_args(argv).__dict__.get("jobs") or 1
        result["layers"] = tracer.metrics(solve_s, jobs, out_dir)
        tracer.write(trace_dir / "spans.jsonl")
    if rc == 0:
        # imported only now: allocations made before the timed call would
        # change the heap layout and with it the operation's peak RSS
        import checks

        try:
            result["failures"] = checks.CHECKS[opts.workload](
                checks.Outcome(opts.cli_args, out_dir, stdout.getvalue(), opts.seed)
            )
        except Exception:  # a check that cannot run is a failed check
            result["failures"] = ["check raised:\n" + traceback.format_exc()]
    Path(opts.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
