"""Command-line interface.

Subcommands
-----------
hansen    exact Hansen coefficient series (single key or table layout)
fourier   exact coefficient matrix of f_{m,k}, optional numeric evaluation
tmk       asymptotic leading coefficient with its case label
zeros     zero-curve / double-zero / triple-zero atlases (CSV/JSON/SVG)
bench     cross-validated wall-clock comparison of the Hansen methods
spotcheck series value vs quadrature oracle at one (m,k,a,e)

Exit codes: 0 success, 2 usage error, 3 numerical-domain error,
4 cross-method disagreement.  A `--config key=value` file supplies defaults
(command line wins); HANSENATLAS_JOBS sets the default worker count; with
--out DIR all artifacts land in DIR together with a manifest.json naming the
inputs, orders and tool version.
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
from .exact import rational_str
from .fourier import (
    Mode,
    coefficient_csv,
    coefficient_json_obj,
    fourier_coefficient,
    t_mk,
)
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


def _parse_range(text: str) -> List[int]:
    """'0..15' -> [0,...,15]; '4' -> [4]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _parse_modes(text: str) -> List[Mode]:
    """'5,-2;3,4' -> [Mode(5,-2), Mode(3,4)]."""
    modes = []
    for chunk in text.split(";"):
        m_str, k_str = chunk.split(",")
        modes.append(Mode(int(m_str), int(k_str)))
    return modes


class _Outputs:
    """Collects artifacts under --out and writes the manifest."""

    def __init__(self, out_dir: Optional[str], command: str, args: Dict[str, object]):
        self.dir = Path(out_dir) if out_dir else None
        self.command = command
        self.args = args
        self.written: List[str] = []
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, content: str) -> None:
        if self.dir is None:
            return
        (self.dir / name).write_text(content)
        self.written.append(name)

    def finish(self) -> None:
        if self.dir is None:
            return
        manifest = {
            "tool": "hansenatlas",
            "version": __version__,
            "command": self.command,
            "arguments": {k: self.args[k] for k in sorted(self.args)},
            "outputs": sorted(self.written),
        }
        (self.dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _apply_config(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    defaults: Dict[str, object] = getattr(args, "_defaults", {})
    overrides = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        overrides[key.strip()] = value.strip()
    for key, value in overrides.items():
        if not hasattr(args, key) or key not in defaults:
            continue
        if getattr(args, key) != defaults[key]:
            continue  # explicit command-line value wins
        if isinstance(defaults[key], bool):
            setattr(args, key, value.lower() in ("1", "true", "yes"))
        elif isinstance(defaults[key], int):
            setattr(args, key, int(value))
        elif isinstance(defaults[key], float):
            setattr(args, key, float(value))
        else:
            setattr(args, key, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hansenatlas",
        description="Exact Hansen/Fourier series of the planar restricted "
        "three-body perturbing function and their zero curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    default_jobs = int(os.environ.get("HANSENATLAS_JOBS", "1"))

    p = sub.add_parser("hansen", help="Hansen coefficient series")
    p.add_argument("--n", required=True, help="radius exponent (int or lo..hi)")
    p.add_argument("--m", required=True, help="true-anomaly multiple (int or lo..hi)")
    p.add_argument("--k", type=int, required=True, help="mean-anomaly multiple")
    p.add_argument("--order", type=int, required=True, help="truncation order in e")
    p.add_argument("--method", default="auto", choices=METHODS)
    p.add_argument("--table", action="store_true", help="emit rows-n by columns-m table")
    p.add_argument("--format", default="text", choices=("text", "csv"))
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("fourier", help="Fourier coefficient matrix of f_{m,k}")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True, help="a-order (and e-order default)")
    p.add_argument("--order-e", type=int, default=None)
    p.add_argument("--eval", nargs=2, type=float, metavar=("A", "E"), default=None)
    p.add_argument("--config")
    p.add_argument("--out")

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
    p.add_argument("--jobs", type=int, default=default_jobs)
    p.add_argument("--formats", default="csv,json,svg")
    p.add_argument("--config")
    p.add_argument("--out")

    p = sub.add_parser("bench", help="timing comparison of Hansen methods")
    p.add_argument("--methods", required=True, help="comma list of newcomb,wnuk,balmino,k0,k0rec")
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

    for command_parser in sub.choices.values():
        command_parser.set_defaults(
            _defaults={
                a.dest: a.default
                for a in command_parser._actions
                if a.dest not in ("help", "_defaults")
            }
        )
    return parser


def _cmd_hansen(args: argparse.Namespace) -> int:
    n_values = _parse_range(args.n)
    m_values = _parse_range(args.m)
    if args.table:
        text = hansen_table(n_values, m_values, args.k, args.order, args.method, args.format)
        print(text, end="")
        manifest_args = {"n": args.n, "m": args.m, "k": args.k, "order": args.order,
                         "method": args.method, "format": args.format}
        out = _Outputs(args.out, "hansen", manifest_args)
        out.write(f"hansen_table_k{args.k}.{args.format if args.format=='csv' else 'txt'}", text)
        out.finish()
        return 0
    if len(n_values) != 1 or len(m_values) != 1:
        print("ranges require --table", file=sys.stderr)
        return EXIT_USAGE
    print(hansen(HansenKey(n_values[0], m_values[0], args.k), args.order, args.method).pretty())
    return 0


def _cmd_fourier(args: argparse.Namespace) -> int:
    if args.m < 0:
        print(
            "m must be non-negative: coprime-set representatives have a positive "
            "first non-null component (use f_{m,k} = f_{-m,-k})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    order_e = args.order_e if args.order_e is not None else args.order
    mode = Mode(args.m, args.k)
    series = fourier_coefficient(mode, args.order, order_e)
    if mode.m_star > args.order:
        print(f"# warning: mode {mode} invisible at a-order {args.order} (needs {mode.m_star})")
    if args.eval is not None:
        value = PolyEval(series).at_point(args.eval[0], args.eval[1])
        print(repr(value))
    else:
        print(coefficient_csv(series), end="")
    out = _Outputs(
        args.out,
        "fourier",
        {"m": args.m, "k": args.k, "order": args.order, "order_e": order_e},
    )
    out.write(f"fourier_{args.m}_{args.k}.csv", coefficient_csv(series))
    out.write(
        f"fourier_{args.m}_{args.k}.json",
        json.dumps(coefficient_json_obj(mode, series), indent=2) + "\n",
    )
    out.finish()
    return 0


def _cmd_tmk(args: argparse.Namespace) -> int:
    if args.m < 0:
        print("m must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    coeff = t_mk(Mode(args.m, args.k))
    print(f"{rational_str(coeff.t_value)} ({coeff.case_label})")
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    order_e = args.order_e if args.order_e is not None else args.order
    modes = _parse_modes(args.modes) if args.modes else None
    report = scan_modes(
        (args.order, order_e),
        m_max=args.mmax,
        task=args.task,
        grid_n=args.grid,
        jobs=max(1, args.jobs),
        modes=modes,
    )
    formats = set(args.formats.split(","))
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
    if "csv" in formats:
        out.write("curves.csv", curves_csv(report.entries))
    if "json" in formats:
        out.write("atlas.json", atlas_json(report))
    if "svg" in formats:
        curves_by_j: Dict[int, list] = {}
        intersections = []
        for entry in report.entries:
            for j, cs in entry.curves:
                curves_by_j.setdefault(j, []).extend(cs)
            intersections.extend(entry.intersections)
        out.write(
            "atlas.svg",
            render_svg(
                curves_by_j,
                intersections,
                report.min_distance,
                title=f"task={args.task} order=({args.order},{order_e})",
            ),
        )
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
    valid = set(METHODS) - {"auto"}
    for m in methods:
        if m not in valid:
            print(f"unknown method {m!r}", file=sys.stderr)
            return EXIT_USAGE
    keys = [
        (n, m, k)
        for n in _parse_range(args.n)
        for m in _parse_range(args.m)
        for k in _parse_range(args.k)
    ]
    if any(m in ("k0", "k0rec") for m in methods):
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
    print(f"equality verified on {len(keys)} keys at order {args.order}")
    for meth in methods:
        t = elapsed[meth]
        print(f"{meth:>8}: {t:.3f} s ({1000.0 * t / len(keys):.2f} ms/key)")
    return 0


def _cmd_spotcheck(args: argparse.Namespace) -> int:
    order_e = args.order_e if args.order_e is not None else args.order
    if args.m < 0:
        print("m must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    series = fourier_coefficient(Mode(args.m, args.k), args.order, order_e)
    series_value = PolyEval(series).at_point(args.a, args.e)
    oracle_value = oracle_fourier(args.m, args.k, args.a, args.e, args.samples)
    print(f"series value : {series_value!r}")
    print(f"oracle value : {oracle_value!r}")
    print(f"abs diff     : {abs(series_value - oracle_value)!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config(args)
    handlers = {
        "hansen": _cmd_hansen,
        "fourier": _cmd_fourier,
        "tmk": _cmd_tmk,
        "zeros": _cmd_zeros,
        "bench": _cmd_bench,
        "spotcheck": _cmd_spotcheck,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
