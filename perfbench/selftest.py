"""Show that every check of the benchmark passes on real outputs and fails on
altered ones: a moved vertex or zero, a perturbed coefficient, a missing or
moved curve point, a dropped curve or mode, a wrong count.

    python3 perfbench/selftest.py

It runs the CLI in this process on small inputs (the order-60 (5,-2) triangle
is the one full-size workload, since the paper's bands apply only there),
writes under `.perfbench_out/selftest/`, prints one line per case and exits
non-zero if any case goes the wrong way.  About a minute on two cores.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from run import WORKLOADS  # noqa: E402
from hansenatlas import cli  # noqa: E402
from hansenatlas.fourier import Mode  # noqa: E402
from hansenatlas.series import SeriesAE, SeriesE  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"
SEED = 7
results = []


def produce(name: str, argv: list) -> checks.Outcome:
    out_dir = WORK / name if argv[0] == "zeros" else None
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(argv + (["--out", str(out_dir)] if out_dir else []))
    assert rc == 0, f"{argv} exited with {rc}"
    return checks.Outcome(argv, out_dir, stdout.getvalue(), SEED)


def altered(outcome: checks.Outcome, name: str, edit_file=None, edit=None, stdout=None) -> checks.Outcome:
    """A copy of `outcome` with one artifact (or the stdout) edited."""
    out_dir = outcome.out_dir
    if edit_file:
        out_dir = WORK / name
        shutil.rmtree(out_dir, ignore_errors=True)
        shutil.copytree(outcome.out_dir, out_dir)
        path = out_dir / edit_file
        path.write_text(edit(path.read_text()))
    stdout = outcome.stdout if stdout is None else stdout
    return checks.Outcome(outcome.cli_args, out_dir, stdout, outcome.seed)


def expect(case: str, failures: list, should_fail: bool, match: str = "") -> None:
    """Record whether `failures` is empty when it should be, and otherwise
    holds a failure naming `match` (the check meant to catch the change)."""
    ok = any(match in f for f in failures) if should_fail else not failures
    results.append(ok)
    verdict = "fails" if failures else "passes"
    detail = f": {failures[0]}" if failures else ""
    print(f"{'ok  ' if ok else 'BAD '} {case} {verdict}{detail[:160]}")


def edit_json(fn):
    def edit(text):
        obj = json.loads(text)
        fn(obj)
        return json.dumps(obj)

    return edit


def with_coefficient(series: SeriesAE, key, delta: Fraction) -> SeriesAE:
    terms = dict(series.c)
    terms[key] = terms.get(key, 0) + delta
    return SeriesAE(terms, series.trunc_a, series.trunc_e)


def drop_first_point(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = lines.index("a,e\n") + 1
    return "".join(lines[:first] + lines[first + 1:])


def move_first_point(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = lines.index("a,e\n") + 1
    a, e = lines[first].strip().split(",")
    lines[first] = f"{float(a) + 1e-3!r},{e}\n"
    return "".join(lines)


def drop_last_curve(text: str) -> str:
    blocks = text.split("\n\n")
    return "\n\n".join(blocks[:-2] + blocks[-1:])


def triple_cases() -> None:
    real = produce("triple", WORKLOADS["triple-5m2"])
    entry = real.atlas()["modes"][0]
    expect("triple-5m2: real outputs", checks.check_triple(real), False)

    def move_vertex(atlas):
        atlas["modes"][0]["triangles"][0]["vertices"][0]["a"] += 1e-7

    expect(
        "moved vertex",
        checks.check_triple(altered(real, "vertex", "atlas.json", edit_json(move_vertex))),
        True,
        "but the vertices give",
    )
    moved = json.loads(json.dumps(entry))
    moved["intersections"][0]["point"]["e"] += 1e-9
    expect("moved intersection", checks.check_zeros(moved, 60), True, "|fhat_")

    def claim_certificate(atlas):
        atlas["certified_triple_zeros"] = 1

    expect(
        "certified count",
        checks.check_triple(altered(real, "cert", "atlas.json", edit_json(claim_certificate))),
        True,
        "certified triple zeros",
    )
    shifted = json.loads(json.dumps(entry))
    shifted["triangles"][0]["incenter"]["a"] += 3e-3
    expect("paper band: incenter moved by 3e-3", checks.check_paper_triangle(shifted), True, "incenter")
    expect("paper band: real triangle", checks.check_paper_triangle(entry), False)
    dropped = altered(real, "curve", "curves.csv", drop_last_curve)
    expect("dropped curve", checks.check_triple(dropped), True, "curves.csv holds")

    mode = Mode(5, -2)
    lead = (mode.m_star, abs(mode.m - mode.k))
    bulk = (mode.m_star + 2, lead[1] + 2)

    series = checks.default_series(mode, 60)
    expect(
        "leading coefficient perturbed by 1e-30",
        checks.check_series(mode, with_coefficient(series, lead, Fraction(1, 10**30)), random.Random(SEED)),
        True,
        "coefficient of e^",
    )
    expect(
        "bulk coefficient perturbed by 1e-2",
        checks.check_series(mode, with_coefficient(series, bulk, Fraction(1, 100)), random.Random(SEED)),
        True,
        "|series - quadrature|",
    )


def scan_cases() -> None:
    real = produce("scan", ["zeros", "--task", "triple", "--order", "20", "--mmax", "5", "--jobs", "2"])
    expect("scan-triple (order 20, |m|+|k| <= 5): real outputs", checks.check_scan_triple(real), False)

    def drop_mode(atlas):
        atlas["modes"].pop()

    expect(
        "dropped mode",
        checks.check_scan_triple(altered(real, "mode", "atlas.json", edit_json(drop_mode))),
        True,
        "modes",
    )

    def shrink_triangle(atlas):
        tri = next(t for e in atlas["modes"] for t in e["triangles"])
        tri["area"] *= 0.999

    expect(
        "wrong area",
        checks.check_scan_triple(altered(real, "area", "atlas.json", edit_json(shrink_triangle))),
        True,
        "area",
    )


def curves_cases() -> None:
    real = produce(
        "curves", ["zeros", "--task", "curves", "--order", "12", "--mmax", "4", "--grid", "256", "--jobs", "1"]
    )
    expect("curves (order 12, grid 256): real outputs", checks.check_curves(real), False)
    expect(
        "missing curve point",
        checks.check_curves(altered(real, "missing", "curves.csv", drop_first_point)),
        True,
        "grid edges change sign",
    )
    expect(
        "curve point moved off the curve",
        checks.check_curves(altered(real, "moved", "curves.csv", move_first_point)),
        True,
        "|fhat|",
    )


def routes_cases() -> None:
    real = produce(
        "routes",
        ["bench", "--methods", "newcomb,wnuk,balmino", "--n", "0..3", "--m=-2..2", "--k", "0..4", "--order", "12"],
    )
    expect("hansen-routes (small key box): real outputs", checks.check_hansen_routes(real), False)
    wrong = real.stdout.replace("equality verified on 100 keys", "equality verified on 99 keys")
    assert wrong != real.stdout
    wrong_count = altered(real, "keys", stdout=wrong)
    expect("wrong key count", checks.check_hansen_routes(wrong_count), True, "keys of the key box")

    def bent(edit):
        def wnuk(n, m, k, trunc):
            series = checks.ROUTES["wnuk"](n, m, k, trunc)
            terms = dict(series.c)
            edit(terms, n, m, k)
            return SeriesE(terms, trunc)

        return dict(checks.ROUTES, wnuk=wnuk)

    def scale_lowest(terms, n, m, k):
        if terms:
            terms[min(terms)] *= Fraction(1001, 1000)

    def scale_second(terms, n, m, k):
        if len(terms) > 1:
            terms[sorted(terms)[1]] *= Fraction(1001, 1000)

    def add_low_term(terms, n, m, k):
        if abs(k - m) >= 2:
            terms[abs(k - m) - 2] = Fraction(1, 10**9)

    def break_symmetry(terms, n, m, k):
        if k > 0 and terms:
            terms[min(terms)] *= 2

    cases = (
        ("wnuk lowest coefficient off by 1e-3", scale_lowest, "at e = 0"),
        ("wnuk second coefficient off by 1e-3", scale_second, "|series - quadrature|"),
        ("wnuk term below e^|k-m|", add_low_term, "exponents"),
        ("wnuk X_k^(n,m) != X_-k^(n,-m)", break_symmetry, "X_-k^(n,-m)"),
    )
    for case, edit, match in cases:
        expect(case, checks.check_hansen_routes(real, bent(edit)), True, match)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    routes_cases()
    curves_cases()
    scan_cases()
    triple_cases()
    print(f"{sum(results)}/{len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
