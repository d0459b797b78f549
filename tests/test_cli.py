"""Command-line surface: flags, formats, exit codes, reproducibility."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hansenatlas import cli
from hansenatlas.fourier import Mode, coefficient_csv, fourier_coefficient
from hansenatlas.series import SeriesE

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- hansen ---------------------------------------------------------------


def test_hansen_single(capsys):
    code, out, _ = run(capsys, "hansen", "--n", "2", "--m", "2", "--k", "0", "--order", "7")
    assert code == 0
    assert out.strip() == "5/2 e^2"


def test_hansen_zero_series(capsys):
    code, out, _ = run(capsys, "hansen", "--n", "0", "--m", "0", "--k", "4", "--order", "7")
    assert code == 0
    assert out.strip() == "0"


def test_hansen_table_layout(capsys):
    code, out, _ = run(
        capsys, "hansen", "--table", "--k", "1", "--n", "0..15", "--m", "0..3", "--order", "7"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17  # header + 16 rows
    assert lines[1].startswith("0")
    assert "1 - e^2 + 7/64 e^4 - 5/288 e^6" in lines[1]


def test_hansen_method_mismatch_usage_error(capsys):
    code, _, err = run(capsys, "hansen", "--n", "2", "--m", "1", "--k", "3", "--order", "6", "--method", "k0")
    assert code == 2


def test_hansen_table_method_mismatch_usage_error(capsys):
    code, _, err = run(
        capsys, "hansen", "--table", "--method", "k0", "--k", "3", "--n", "0..1", "--m", "0..1",
        "--order", "6",
    )
    assert code == 2
    assert "needs k = 0" in err


@pytest.mark.parametrize("table", [["--table"], []], ids=["table", "single"])
def test_hansen_empty_range_usage_error(capsys, table):
    code, out, err = run(capsys, "hansen", *table, "--n", "5..3", "--m", "0", "--k", "0", "--order", "4")
    assert code == 2
    assert "empty range '5..3'" in err
    assert out == ""


def test_hansen_table_runs_the_requested_method(capsys, monkeypatch):
    import importlib

    hansen_module = importlib.import_module("hansenatlas.hansen")
    real = hansen_module.hansen_newcomb
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hansen_module, "hansen_newcomb", counted)
    code, out, _ = run(
        capsys, "hansen", "--table", "--method", "newcomb", "--k", "1", "--n", "0..3",
        "--m", "0..2", "--order", "7",
    )
    assert code == 0
    assert len(calls) == 12  # one per (n, m) cell
    assert "1 - e^2 + 7/64 e^4 - 5/288 e^6" in out.splitlines()[1]


# -- fourier -----------------------------------------------------------------


def test_fourier_matrix(capsys):
    code, out, _ = run(capsys, "fourier", "--m", "0", "--k", "0", "--order", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[3].split(",")[1] == "-1/4"


def test_fourier_eval(capsys):
    code, out, _ = run(
        capsys, "fourier", "--m", "2", "--k", "2", "--order", "2", "--eval", "0.1", "0.0"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(-0.0075, abs=1e-12)


@pytest.mark.parametrize(
    "extra, built",
    [((), 1), (("--eval", "0.1", "0.2"), 0)],
    ids=["matrix", "eval"],
)
def test_fourier_without_out_renders_no_artifact(capsys, monkeypatch, extra, built):
    calls = []
    real = cli.coefficient_csv
    monkeypatch.setattr(cli, "coefficient_csv", lambda series: calls.append(1) or real(series))
    code, _, _ = run(capsys, "fourier", "--m", "5", "--k", "-2", "--order", "12", *extra)
    assert code == 0
    assert len(calls) == built


def test_fourier_below_visibility_warns(capsys, caplog):
    # the warning goes to the `hansenatlas.fourier` logger; stdout stays CSV
    code, out, _ = run(capsys, "fourier", "--m", "1", "--k", "1", "--order", "2")
    assert code == 0
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert [r.name for r in warnings] == ["hansenatlas.fourier"]
    assert "mode (1,1) invisible at a-order 2 (needs 3)" in warnings[0].getMessage()
    assert out == coefficient_csv(fourier_coefficient(Mode(1, 1), 2, 2))
    rows = out.splitlines()[1:]
    assert all(cell == "0" for row in rows for cell in row.split(",")[1:])


def test_fourier_negative_m_usage_error(capsys):
    code, out, err = run(capsys, "fourier", "--m=-1", "--k", "2", "--order", "4")
    assert code == 2
    assert out == ""
    assert "usage error: fourier_coefficient needs m >= 0, got (-1,2)" in err
    assert "first non-null" in err and "f_{m,k} = f_{-m,-k}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tmk", "--m=-1", "--k", "2"], "t_mk needs m >= 0, got (-1,2)"),
        (["spotcheck", "--m=-1", "--k", "2", "--a", "0.1", "--e", "0.1", "--order", "4"],
         "fourier_coefficient needs m >= 0, got (-1,2)"),
    ],
    ids=["tmk", "spotcheck"],
)
def test_negative_m_usage_error_from_library(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"usage error: {message}" in err


def test_fourier_negative_order_usage_error(capsys):
    code, _, err = run(capsys, "fourier", "--m", "2", "--k", "2", "--order", "-3")
    assert code == 2
    assert "usage error: truncation orders must be non-negative" in err


# -- tmk ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,k,expected",
    [("2", "2", "-3/8 (A=)"), ("0", "0", "-1/4 (B=)"), ("2", "3", "-3/8 (A-)")],
)
def test_tmk_outputs(capsys, m, k, expected):
    code, out, _ = run(capsys, "tmk", "--m", m, "--k", k)
    assert code == 0
    assert out.strip() == expected


# -- zeros -----------------------------------------------------------------------


def test_zeros_writes_artifacts_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    code, out, _ = run(
        capsys,
        "zeros", "--task", "double", "--order", "16", "--modes", "1,2",
        "--grid", "64", "--out", str(out_dir),
    )
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "atlas.json", "atlas.svg", "curves.csv", "manifest.json"
    ]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "zeros"
    assert manifest["arguments"]["order"] == 16
    assert sorted(manifest["outputs"]) == ["atlas.json", "atlas.svg", "curves.csv"]
    atlas = json.loads((out_dir / "atlas.json").read_text())
    assert atlas["task"] == "double"


def test_zeros_byte_reproducible(tmp_path, capsys):
    dirs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code, _, _ = run(
            capsys,
            "zeros", "--task", "curves", "--order", "12", "--mmax", "3",
            "--grid", "64", "--out", str(out_dir),
        )
        assert code == 0
        dirs.append(out_dir)
    for name in ("curves.csv", "atlas.json", "atlas.svg"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


@pytest.mark.parametrize("orders", [("-1",), ("10", "--order-e", "-2")], ids=["a", "e"])
def test_zeros_negative_order_usage_error(tmp_path, capsys, orders):
    out_dir = tmp_path / "zz"
    code, _, err = run(
        capsys, "zeros", "--task", "curves", "--order", *orders, "--mmax", "2",
        "--out", str(out_dir),
    )
    assert code == 2
    assert "usage error: truncation orders must be non-negative" in err
    assert not out_dir.exists()


def _fail(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-file"])
def test_zeros_out_blocked_by_file_usage_error_before_scan(tmp_path, capsys, monkeypatch, below):
    # an --out that `mkdir -p` cannot make is refused before the scan runs
    monkeypatch.setattr(cli, "scan_modes", _fail)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    code, out, err = run(
        capsys, "zeros", "--task", "curves", "--order", "10", "--modes", "0,2", "--grid", "64",
        "--out", str(blocker.joinpath(*below)),
    )
    assert code == 2
    assert f"usage error: --out: {str(blocker)!r} exists and is not a directory" in err
    assert out == ""
    assert sorted(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory\n"


def test_zeros_without_out_renders_nothing(capsys, monkeypatch):
    for renderer in ("curves_csv", "atlas_json", "render_svg"):
        monkeypatch.setattr(cli, renderer, _fail)
    code, out, _ = run(
        capsys, "zeros", "--task", "curves", "--order", "10", "--mmax", "2", "--grid", "32"
    )
    assert code == 0
    assert out.splitlines()[0] == "task=curves order=(10,10) grid=32"


def test_zeros_explicit_mode_list(tmp_path, capsys):
    code, out, _ = run(
        capsys, "zeros", "--task", "curves", "--order", "20", "--modes", "2,5;1,2",
        "--grid", "64",
    )
    assert code == 0
    assert "modes scanned: 2" in out


def test_zeros_mmax_with_explicit_modes_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "zz"
    code, out, err = run(
        capsys, "zeros", "--task", "curves", "--order", "10", "--modes", "2,1", "--grid", "32",
        "--mmax", "1", "--out", str(out_dir),
    )
    assert code == 2
    assert "--mmax" in err and "--modes" in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("mmax", ["0", "-2"])
def test_zeros_mmax_below_one_usage_error(tmp_path, capsys, mmax):
    out_dir = tmp_path / "zz"
    code, out, err = run(
        capsys, "zeros", "--task", "curves", "--order", "10", "--grid", "32", "--mmax", mmax,
        "--out", str(out_dir),
    )
    assert code == 2
    assert f"usage error: m_max (--mmax) must be at least 1, got {mmax}" in err
    assert out == ""
    assert not out_dir.exists()


def test_zeros_repeated_mode_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "zz"
    code, out, err = run(
        capsys, "zeros", "--task", "curves", "--order", "10", "--grid", "32",
        "--modes", "1,2;2,1;1,2", "--out", str(out_dir),
    )
    assert code == 2
    assert "usage error: modes given more than once (--modes): (1,2)" in err
    assert out == ""
    assert not out_dir.exists()


# -- bench ------------------------------------------------------------------------


def test_bench_equality_and_timing(capsys):
    code, out, _ = run(
        capsys, "bench", "--methods", "newcomb,wnuk", "--n", "0..3", "--m", "0..2",
        "--k", "0..4", "--order", "8",
    )
    assert code == 0
    assert "equality verified on 60 keys" in out
    assert "newcomb:" in out and "wnuk:" in out


def test_bench_k0_methods(capsys):
    code, out, _ = run(
        capsys, "bench", "--methods", "k0,newcomb,wnuk", "--n", "0..15", "--m", "0..3",
        "--k", "0", "--order", "7",
    )
    assert code == 0
    assert "equality verified on 64 keys" in out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_bench_into_a_closed_pipe_exits_0_quietly(unbuffered):
    # the reader closes the pipe before anything is written, like `| head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "hansenatlas.cli", "bench", "--methods", "wnuk",
                "--n", "0..2", "--m", "0", "--k", "0", "--order", "4",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")


def test_bench_empty_methods_usage_error(capsys):
    code, _, _ = run(capsys, "bench", "--methods", "", "--n", "0..2")
    assert code == 2


def test_bench_disagreement_exit_code(capsys, monkeypatch):
    calls = {"count": 0}
    real = cli.hansen

    def tampered(key, trunc, method="wnuk"):
        series = real(key, trunc, method)
        if method == "wnuk":
            return series + SeriesE({0: 1}, series.trunc)
        return series

    monkeypatch.setattr(cli, "hansen", tampered)
    code, _, err = run(
        capsys, "bench", "--methods", "newcomb,wnuk", "--n", "1", "--m", "1",
        "--k", "2", "--order", "6",
    )
    assert code == 4
    assert "disagreement" in err


def test_bench_computes_each_key_once_per_method(capsys, monkeypatch):
    real = cli.hansen
    calls = []

    def counted(key, trunc, method="wnuk"):
        calls.append((key, method))
        return real(key, trunc, method)

    monkeypatch.setattr(cli, "hansen", counted)
    methods = ("newcomb", "wnuk", "balmino")
    code, out, _ = run(
        capsys, "bench", "--methods", ",".join(methods), "--n", "0..2", "--m", "0..1",
        "--k", "0..2", "--order", "6",
    )
    n_keys = 3 * 2 * 3
    assert code == 0
    assert f"equality verified on {n_keys} keys" in out
    assert len(calls) == n_keys * len(methods)
    assert len(set(calls)) == n_keys * len(methods)


def test_bench_method_named_twice_usage_error(capsys):
    code, out, err = run(
        capsys, "bench", "--methods", "wnuk,newcomb,wnuk", "--n", "1", "--m", "1", "--k", "2",
        "--order", "6",
    )
    assert code == 2
    assert "'wnuk' named twice" in err
    assert out == ""


def test_bench_single_method_claims_no_equality(capsys):
    code, out, _ = run(
        capsys, "bench", "--methods", "newcomb", "--n", "0..1", "--m", "0..1", "--k", "1",
        "--order", "6",
    )
    assert code == 0
    assert "equality" not in out
    assert out.splitlines()[0].startswith(" newcomb: ")


# -- spotcheck / misc ------------------------------------------------------------


def test_spotcheck_small_point(capsys):
    code, out, _ = run(
        capsys, "spotcheck", "--m", "2", "--k", "2", "--a", "0.05", "--e", "0.02",
        "--order", "16", "--samples", "128",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("series value")
    diff = float(lines[2].split(":")[1])
    assert diff < 1e-9


def test_spotcheck_domain_error_exit_code(capsys):
    code, _, err = run(
        capsys, "spotcheck", "--m", "1", "--k", "1", "--a", "0.9", "--e", "0.5",
        "--order", "8", "--samples", "64",
    )
    assert code == 3
    assert "domain error" in err


def test_spotcheck_no_samples_usage_error(capsys):
    code, out, err = run(
        capsys, "spotcheck", "--m", "1", "--k", "0", "--a", "0.1", "--e", "0.1",
        "--order", "4", "--samples", "0",
    )
    assert code == 2
    assert "samples must be at least 1" in err


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hansen", "--n", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["hansen", "--table", "--n", "0..1", "--m", "0", "--k", "0", "--order", "4",
         "--config", "CFG", "--out", "OUT"],
        ["fourier", "--m", "2", "--k", "2", "--order", "4", "--config", "CFG", "--out", "OUT"],
        ["zeros", "--task", "curves", "--order", "6", "--mmax", "2", "--grid", "16",
         "--config", "CFG", "--out", "OUT"],
        ["hansen", "--table", "--n", "0..1", "--m", "0", "--k", "0", "--order", "4",
         "--method", "k0rec", "--out", "OUT"],
        ["bench", "--methods", "k0,k0rec", "--n", "0..1", "--m", "0", "--k", "0", "--order", "4"],
        ["hansen", "--n", "2", "--m", "2", "--k", "0", "--order", "7", "--method", "auto"],
        ["zeros", "--task", "curves", "--order", "6", "--mmax", "2", "--grid", "16",
         "--formats", "csv", "--out", "OUT"],
        ["hansen", "--table", "--n", "0..1", "--m", "0", "--k", "0", "--order", "4",
         "--out", "OUT"],
        ["hansen", "--table", "--n", "0..1", "--m", "0", "--k", "0", "--order", "4",
         "--format", "csv"],
        ["hansen", "--n", "2", "--m", "2", "--k", "0", "--order", "7", "--out", "OUT"],
        ["hansen", "--n", "2", "--m", "2", "--k", "0", "--order", "7", "--format", "csv"],
        ["fourier", "--m", "2", "--k", "2", "--order", "4", "--out", "OUT"],
    ],
    ids=[
        "hansen-config", "fourier-config", "zeros-config", "hansen-k0rec", "bench-k0rec",
        "hansen-auto", "zeros-formats", "hansen-table-out", "hansen-table-format",
        "hansen-single-out", "hansen-single-format", "fourier-out",
    ],
)
def test_removed_options_usage_error(tmp_path, capsys, argv):
    # neither a config file, nor the k = 0 recursion, nor the `auto` method,
    # nor a choice of what `zeros --out` writes exists, and only `zeros`
    # writes files or has a layout option
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# no keys\n")
    out_dir = tmp_path / "out"
    argv = [{"CFG": str(cfg), "OUT": str(out_dir)}.get(word, word) for word in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["zeros", "--task", "curves", "--order", "6", "--modes", "5"],
         "--modes: expected m,k pairs separated by ';', got '5'"),
        (["zeros", "--task", "curves", "--order", "6", "--modes", "1,2;3,x"],
         "--modes: expected m,k pairs separated by ';', got '1,2;3,x'"),
        (["hansen", "--n", "2.5", "--m", "0", "--k", "0", "--order", "4"],
         "--n: expected an integer or lo..hi, got '2.5'"),
        (["hansen", "--table", "--n", "0", "--m", "0..b", "--k", "0", "--order", "4"],
         "--m: expected an integer or lo..hi, got '0..b'"),
        (["bench", "--methods", "k0", "--k", "x"], "--k: expected an integer or lo..hi, got 'x'"),
    ],
    ids=["modes-pair", "modes-int", "n", "m", "bench-k"],
)
def test_unparsable_text_names_its_option(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert f"usage error: {message}" in err
    assert out == ""


def test_jobs_environment_variable_is_not_read(monkeypatch, capsys):
    # no option of the CLI reads the environment: `--jobs` defaults to 1, and
    # commands without workers run whatever HANSENATLAS_JOBS holds
    monkeypatch.setenv("HANSENATLAS_JOBS", "x")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "tmk", "--m", "2", "--k", "3")
    assert code == 0
    assert out.strip() == "-3/8 (A-)"
    args = cli.build_parser().parse_args(["zeros", "--task", "curves", "--order", "8"])
    assert args.jobs == 1


@pytest.mark.parametrize("source", ["flag"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_usage_error(capsys, source, jobs):
    argv = ["zeros", "--task", "curves", "--order", "6", "--mmax", "2", "--grid", "16"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--jobs", jobs])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert "--jobs" in err
    assert f"'{jobs}'" in err
    assert out == ""


def test_zeros_byte_reproducible_across_processes(tmp_path):
    # cross-process determinism, including str-hash randomization
    import subprocess
    import sys

    outputs = []
    for seed, name in (("1", "p1"), ("31337", "p2")):
        out_dir = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=seed)
        # the subprocess does not see pytest's pythonpath setting
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "hansenatlas.cli",
                "zeros", "--task", "double", "--order", "14", "--modes", "1,2;2,3",
                "--grid", "64", "--out", str(out_dir),
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_dir)
    for name in ("curves.csv", "atlas.json", "atlas.svg", "manifest.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_zeros_curves_order5_svg_sparse(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    code, out, _ = run(
        capsys, "zeros", "--task", "curves", "--order", "5", "--grid", "64",
        "--out", str(out_dir),
    )
    assert code == 0
    svg = (out_dir / "atlas.svg").read_text()
    n_polylines = svg.count("<polyline") + svg.count("<polygon")
    assert 1 <= n_polylines <= 20  # sparse at low truncation


# SHA-256 of the artifacts of `zeros --jobs 1` runs, so that a refactor of
# the atlas pipeline cannot move a curve point, an intersection, a triangle or
# their serialization unnoticed.
ZEROS_DIGESTS = {
    "triple": (
        ("--task", "triple", "--modes", "3,4", "--order", "40", "--grid", "128"),
        {
            "curves.csv": "b4287926a329e70ab597472d0bde41cdf3c16e82358c773d82a6827dd47c4dfc",
            "atlas.json": "2d4716d4fce63f6bc53b80c7d2de6298ce68d75dcc979903d215f63992b491c0",
        },
    ),
    "double": (
        ("--task", "double", "--order", "14", "--mmax", "4", "--grid", "64"),
        {
            "curves.csv": "d118e82ba1054e2a370554886085cafaaeb7ee559c3a9d07ca02eaf500470a75",
            "atlas.json": "f1ecb1760b10a6dbc8324f3b07c944050ccd8480f5d9dc06f81d58918511abde",
        },
    ),
    "curves": (
        ("--task", "curves", "--order", "20", "--mmax", "8", "--grid", "300"),
        {
            "curves.csv": "5b564e44380c49d81cf25c69cb4703694940d15c0e4d6f6384931d24013e2910",
            "atlas.json": "94e53d1cd09904936363f368a93df86992124a05b63a2c568e381d0429bcb49c",
        },
    ),
    # drops 18 edge crossings above eps, so the tracer skips the cells around them
    "triple-dropped": (
        ("--task", "triple", "--modes", "3,-5", "--order", "60", "--grid", "128"),
        {
            "curves.csv": "ea5dd52eb4a83793b780809eb59bb5d1b36273c3f2e2f9c692e534e8652eddb0",
            "atlas.json": "e225c0c6faf67a67cc3cba97b823f59dc2b26353bee9804abf0d4522fa62723e",
        },
    ),
    # 269 Newton seeds: 231 converge in float, 35 stagnate, 3 find no descent
    "triple-scan": (
        ("--task", "triple", "--order", "20", "--mmax", "8", "--grid", "128"),
        {
            "curves.csv": "6efcf20f52654ef0f05b068128b894ce6419aa8504208bc2bea636298b7f0e90",
            "atlas.json": "d3bcb859f5a87f014f006bbe6cd4000dc93f6abc9ae7338c49ef28e87c7dcfec",
        },
    ),
    # the benchmark's curves-hires command: 44 surfaces on 4.2 M nodes each
    "curves-hires": (
        ("--task", "curves", "--order", "20", "--mmax", "8", "--grid", "2048"),
        {
            "curves.csv": "f4ee7241cfb38c85b397b2c0104e7e7296ad42b8215e8c32ee0fa1e1399c0de4",
            "atlas.json": "c7e1afdf90e47b051c8888951a6b8f2d9b20f47df47ae47e5d212bd61622f9e3",
        },
    ),
    # N_e = 140: the top powers e^q underflow on the grid's first columns
    "triple-order-e-140": (
        ("--task", "triple", "--order", "40", "--order-e", "140", "--modes", "5,-2"),
        {
            "curves.csv": "2270c3fb22da3e3432b71813052e72eb22f99a1950c27a272900655db5af5cb5",
            "atlas.json": "24637d2afe8b9a2f9c7fbc77efbe62ec987b8e9d1f9d105c3a7fa99e211b954e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(ZEROS_DIGESTS))
def test_zeros_artifact_digests(tmp_path, capsys, name):
    import hashlib

    argv, want = ZEROS_DIGESTS[name]
    code, _, _ = run(capsys, "zeros", *argv, "--jobs", "1", "--out", str(tmp_path))
    assert code == 0
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in want
    }
    assert digests == want


def test_zeros_triple_objects_name_their_entrys_mode(tmp_path, capsys):
    # the (2,3) intersections of (3,4) are zeros of f_{6,8} and f_{9,12}; each
    # object names the entry's mode, and `multiples` the j's
    code, _, _ = run(
        capsys, "zeros", "--task", "triple", "--modes", "3,4", "--order", "40",
        "--grid", "128", "--jobs", "1", "--out", str(tmp_path),
    )
    assert code == 0
    (entry,) = json.loads((tmp_path / "atlas.json").read_text())["modes"]
    assert [2, 3] in [rep["multiples"] for rep in entry["intersections"]]
    assert entry["triangles"]
    objects = entry["intersections"] + entry["triangles"] + entry["certificates"]
    assert all(obj["mode"] == entry["mode"] == {"m": 3, "k": 4} for obj in objects)
