"""Command-line interface.

Subcommands
-----------
hansen    exact Hansen coefficient series (single key or table layout)
fourier   exact coefficient matrix of f_{m,k}, optional numeric evaluation
tmk       asymptotic leading coefficient with its case label
zeros     zero-curve / double-zero / triple-zero atlases (CSV/JSON/SVG)
bench     cross-validated wall-clock comparison of the Hansen methods
spotcheck series value vs quadrature oracle at one (m,k,a,e)

Exit codes: 0 success (also when the reader of stdout closes it early, as
`| head` does), 2 usage error, 3 numerical-domain error,
4 cross-method disagreement.  A range or mode list that does not parse (the
message names its option), a negative truncation order or m, `zeros --mmax`
below 1, a mode given twice in `zeros --modes` and a `--jobs` that is not an
integer >= 1 are usage errors; a library `ValueError` becomes one, with its
message.  Only `zeros` writes files: --out DIR gets curves.csv, atlas.json,
atlas.svg and a manifest.json naming the inputs, orders and tool version; an
--out that a non-directory blocks is a usage error, raised before the scan.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import __version__
from .atlas import DEFAULT_GRID, PolyEval, scan_modes
from .fourier import Mode, coefficient_csv, fourier_coefficient, t_mk
from .hansen import (
    METHODS,
    HansenKey,
    clear_caches,
    hansen,
    hansen_table,
)
from .oracle import DomainError, oracle_fourier
from .report import atlas_json, curves_csv
from .svgplot import render_svg

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_DISAGREEMENT = 4


def _parse_range(text: str, option: str) -> List[int]:
    """'0..15' -> [0,...,15]; '4' -> [4]; other text and an empty range like
    '5..3' are errors that name `option`."""
    lo, dots, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(text)]
    except ValueError:
        raise ValueError(f"{option}: expected an integer or lo..hi, got {text!r}") from None
    if not values:
        raise ValueError(f"{option}: empty range {text!r}")
    return values


def _parse_modes(text: str) -> List[Mode]:
    """'5,-2;3,4' -> [Mode(5,-2), Mode(3,4)]; other text is an error naming --modes."""
    pairs = [chunk.split(",") for chunk in text.split(";")]
    try:
        if all(len(pair) == 2 for pair in pairs):
            return [Mode(int(m), int(k)) for m, k in pairs]
    except ValueError:
        pass
    raise ValueError(f"--modes: expected m,k pairs separated by ';', got {text!r}")


class _Outputs:
    """Writes artifacts into the --out directory and then the manifest."""

    def __init__(self, out_dir: str, command: str, args: Dict[str, object]):
        self.dir = Path(out_dir)
        self.command = command
        self.args = args
        self.written: List[str] = []
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, content: str) -> None:
        (self.dir / name).write_text(content)
        self.written.append(name)

    def finish(self) -> None:
        manifest = {
            "tool": "hansenatlas",
            "version": __version__,
            "command": self.command,
            "arguments": {k: self.args[k] for k in sorted(self.args)},
            "outputs": sorted(self.written),
        }
        (self.dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _worker_count(text: str) -> int:
    """A worker count: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"worker count must be an integer >= 1, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hansenatlas",
        description="Exact Hansen/Fourier series of the planar restricted "
        "three-body perturbing function and their zero curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hansen", help="Hansen coefficient series")
    p.add_argument("--n", required=True, help="radius exponent (int or lo..hi)")
    p.add_argument("--m", required=True, help="true-anomaly multiple (int or lo..hi)")
    p.add_argument("--k", type=int, required=True, help="mean-anomaly multiple")
    p.add_argument("--order", type=int, required=True, help="truncation order in e")
    p.add_argument("--method", default="wnuk", choices=METHODS)
    p.add_argument("--table", action="store_true", help="emit rows-n by columns-m table")

    p = sub.add_parser("fourier", help="Fourier coefficient matrix of f_{m,k}")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="a-order (and e-order default)")
    p.add_argument("--order-e", type=int, default=None)
    p.add_argument("--eval", nargs=2, type=float, metavar=("A", "E"), default=None)

    p = sub.add_parser("tmk", help="asymptotic leading coefficient t_{m,k}")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("zeros", help="zero-curve atlases")
    p.add_argument("--task", required=True, choices=("curves", "double", "triple"))
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--order-e", type=int, default=None)
    p.add_argument("--mmax", type=int, default=None, help="bound on |m|+|k|")
    p.add_argument("--modes", default=None, help="explicit list, e.g. '5,-2;3,4'")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--jobs", type=_worker_count, default=1)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="timing comparison of Hansen methods")
    p.add_argument("--methods", required=True, help="comma list of newcomb,wnuk,balmino,k0")
    p.add_argument("--n", default="0..8")
    p.add_argument("--m", default="-3..3")
    p.add_argument("--k", default="0..10")
    p.add_argument("--order", type=int, default=12)

    p = sub.add_parser("spotcheck", help="series vs quadrature oracle")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--e", type=float, required=True)
    p.add_argument("--order", type=int, default=30)
    p.add_argument("--order-e", type=int, default=None)
    p.add_argument("--samples", type=int, default=512)
    return parser


def _cmd_hansen(args: argparse.Namespace) -> int:
    n_values = _parse_range(args.n, "--n")
    m_values = _parse_range(args.m, "--m")
    if args.table:
        print(hansen_table(n_values, m_values, args.k, args.order, args.method), end="")
        return 0
    if len(n_values) != 1 or len(m_values) != 1:
        print("ranges require --table", file=sys.stderr)
        return EXIT_USAGE
    print(hansen(HansenKey(n_values[0], m_values[0], args.k), args.order, args.method).pretty())
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    order_e = args.order_e if args.order_e is not None else args.order
    series = fourier_coefficient(Mode(args.m, args.k), args.order, order_e)
    if args.eval is not None:
        value = PolyEval(series).at_point(args.eval[0], args.eval[1])
        print(repr(value))
    else:
        print(coefficient_csv(series), end="")
    return 0


def _cmd_tmk(args: argparse.Namespace) -> int:
    coeff = t_mk(Mode(args.m, args.k))
    print(f"{coeff.t_value} ({coeff.case_label})")
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    order_e = args.order_e if args.order_e is not None else args.order
    modes = _parse_modes(args.modes) if args.modes else None
    if args.out:  # a path that `mkdir -p` cannot make fails now, not after the scan
        path = Path(args.out)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ValueError(f"--out: {str(existing)!r} exists and is not a directory")
    report = scan_modes(
        (args.order, order_e),
        m_max=args.mmax,
        task=args.task,
        grid_n=args.grid,
        jobs=args.jobs,
        modes=modes,
    )
    if args.out:  # without --out nothing is rendered
        out = _Outputs(
            args.out,
            "zeros",
            {
                "task": args.task,
                "order": args.order,
                "order_e": order_e,
                "mmax": report.m_max,
                "modes": args.modes,
                "grid": args.grid,
            },
        )
        out.write("curves.csv", curves_csv(report.entries))
        out.write("atlas.json", atlas_json(report))
        title = f"task={args.task} order=({args.order},{order_e})"
        out.write("atlas.svg", render_svg(report, title))
        out.finish()
    print(f"task={args.task} order=({args.order},{order_e}) grid={args.grid}")
    print(f"modes scanned: {len(report.entries)}")
    print(f"total curves: {report.total_curves}")
    if args.task in ("double", "triple"):
        n_int = sum(len(e.intersections) for e in report.entries)
        print(f"intersections: {n_int}")
        md = report.min_distance
        print(f"min distance from origin: {md!r}" if md is not None else "min distance from origin: n/a")
    if args.task == "triple":
        areas = {
            str(e.mode): min((t.area for t in e.triangles), default=None)
            for e in report.entries
            if e.triangles
        }
        for mode_str in sorted(areas):
            print(f"min triangle area {mode_str}: {areas[mode_str]:.6e}")
        print(f"certified triple zeros: {len(report.certified)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print("empty method list", file=sys.stderr)
        return EXIT_USAGE
    for i, m in enumerate(methods):
        if m not in METHODS:
            print(f"unknown method {m!r}", file=sys.stderr)
            return EXIT_USAGE
        if m in methods[:i]:
            print(f"method {m!r} named twice", file=sys.stderr)
            return EXIT_USAGE
    keys = [
        (n, m, k)
        for n in _parse_range(args.n, "--n")
        for m in _parse_range(args.m, "--m")
        for k in _parse_range(args.k, "--k")
    ]
    if "k0" in methods:
        keys = [key for key in keys if key[2] == 0]
    if not keys:
        print("empty key set", file=sys.stderr)
        return EXIT_USAGE

    # One timed pass per method computes each key once; the check compares those results.
    results: Dict[str, list] = {}
    elapsed: Dict[str, float] = {}
    for meth in methods:
        clear_caches()  # passes start cold; per-pass memo sharing is the method's own
        start = time.perf_counter()
        results[meth] = [hansen(HansenKey(*key), args.order, meth) for key in keys]
        elapsed[meth] = time.perf_counter() - start
    for i, (n, m, k) in enumerate(keys):
        baseline = results[methods[0]][i]
        for meth in methods[1:]:
            series = results[meth][i]
            if series != baseline:
                print(
                    f"method disagreement at (n={n}, m={m}, k={k}):\n"
                    f"  {methods[0]}: {baseline.pretty()}\n"
                    f"  {meth}: {series.pretty()}",
                    file=sys.stderr,
                )
                return EXIT_DISAGREEMENT
    if len(methods) > 1:
        print(f"equality verified on {len(keys)} keys at order {args.order}")
    for meth in methods:
        t = elapsed[meth]
        print(f"{meth:>8}: {t:.3f} s ({1000.0 * t / len(keys):.2f} ms/key)")
    return 0


def _cmd_spotcheck(args: argparse.Namespace) -> int:
    order_e = args.order_e if args.order_e is not None else args.order
    series = fourier_coefficient(Mode(args.m, args.k), args.order, order_e)
    series_value = PolyEval(series).at_point(args.a, args.e)
    oracle_value = oracle_fourier(args.m, args.k, args.a, args.e, args.samples)
    print(f"series value : {series_value!r}")
    print(f"oracle value : {oracle_value!r}")
    print(f"abs diff     : {abs(series_value - oracle_value)!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    handlers = {
        "hansen": _cmd_hansen,
        "fourier": _cmd_fourier,
        "tmk": _cmd_tmk,
        "zeros": _cmd_zeros,
        "bench": _cmd_bench,
        "spotcheck": _cmd_spotcheck,
    }
    try:
        args = build_parser().parse_args(argv)
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone (`| head`): send what is left to /dev/null so
        # the flush at exit cannot fail again, and exit 0
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
