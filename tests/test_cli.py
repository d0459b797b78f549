"""Command-line surface: flags, formats, exit codes, reproducibility."""
import json
import os

import pytest

from hansenatlas import cli
from hansenatlas.series import SeriesE


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


def test_hansen_k0rec_table_runs_the_recursion(capsys, monkeypatch):
    import importlib

    hansen_module = importlib.import_module("hansenatlas.hansen")
    real = hansen_module.hansen_k0_recursive
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hansen_module, "hansen_k0_recursive", counted)
    code, table, _ = run(
        capsys, "hansen", "--table", "--method", "k0rec", "--k", "0", "--n", "0..3",
        "--m", "0..2", "--order", "7", "--format", "csv",
    )
    assert code == 0
    assert len(calls) == 12
    rows = [line.split(",") for line in table.splitlines()[1:]]
    for n, row in enumerate(rows):
        for m, cell in enumerate(row[1:]):
            code, single, _ = run(
                capsys, "hansen", "--method", "k0", "--n", str(n), "--m", str(m), "--k", "0",
                "--order", "7",
            )
            assert code == 0
            assert cell == single.strip()
    code, _, err = run(
        capsys, "hansen", "--table", "--method", "k0rec", "--k", "2", "--n", "0..1", "--m", "0..1",
        "--order", "6",
    )
    assert code == 2
    assert "needs k = 0" in err


def test_hansen_table_manifest_records_method_and_format(tmp_path, capsys):
    out_dir = tmp_path / "table"
    code, _, _ = run(
        capsys, "hansen", "--table", "--method", "newcomb", "--k", "1", "--n", "0..1",
        "--m", "0..1", "--order", "4", "--format", "csv", "--out", str(out_dir),
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "hansen"
    assert manifest["arguments"] == {
        "format": "csv", "k": 1, "m": "0..1", "method": "newcomb", "n": "0..1", "order": 4,
    }
    assert manifest["outputs"] == ["hansen_table_k1.csv"]


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


def test_fourier_below_visibility_warns(capsys):
    code, out, _ = run(capsys, "fourier", "--m", "1", "--k", "1", "--order", "2")
    assert code == 0
    assert "warning" in out
    rows = [l for l in out.splitlines() if not l.startswith(("#", "a_exp"))]
    assert all(cell == "0" for row in rows for cell in row.split(",")[1:])


def test_fourier_negative_m_usage_error(capsys):
    code, _, err = run(capsys, "fourier", "--m=-1", "--k", "2", "--order", "4")
    assert code == 2
    assert "first non-null" in err


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
    for name in ("curves.csv", "atlas.json", "atlas.svg", "manifest.json"):
        assert (out_dir / name).exists(), name
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


def test_zeros_explicit_mode_list(tmp_path, capsys):
    code, out, _ = run(
        capsys, "zeros", "--task", "curves", "--order", "20", "--modes", "2,5;1,2",
        "--grid", "64",
    )
    assert code == 0
    assert "modes scanned: 2" in out


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
        capsys, "bench", "--methods", "k0,k0rec", "--n", "0..15", "--m", "0..3",
        "--k", "0", "--order", "7",
    )
    assert code == 0
    assert "equality verified on 64 keys" in out


def test_bench_empty_methods_usage_error(capsys):
    code, _, _ = run(capsys, "bench", "--methods", "", "--n", "0..2")
    assert code == 2


def test_bench_disagreement_exit_code(capsys, monkeypatch):
    calls = {"count": 0}
    real = cli.hansen

    def tampered(key, trunc, method="auto"):
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

    def counted(key, trunc, method="auto"):
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


# -- spotcheck / config / misc -----------------------------------------------------


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


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=64\n# comment\n")
    out_dir = tmp_path / "zz"
    code, out, _ = run(
        capsys, "zeros", "--task", "curves", "--order", "10", "--mmax", "2",
        "--config", str(cfg), "--out", str(out_dir),
    )
    assert code == 0
    assert "grid=64" in out


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hansen", "--n", "2"])
    assert exc.value.code == 2


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv("HANSENATLAS_JOBS", "3")
    parser = cli.build_parser()
    args = parser.parse_args(["zeros", "--task", "curves", "--order", "8"])
    assert args.jobs == 3


def test_zeros_byte_reproducible_across_processes(tmp_path):
    # cross-process determinism, including str-hash randomization
    import subprocess
    import sys

    outputs = []
    for seed, name in (("1", "p1"), ("31337", "p2")):
        out_dir = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=seed)
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


# SHA-256 of the artifacts of two `zeros --jobs 1` runs, so that a refactor of
# the atlas pipeline cannot move a curve point, an intersection, a triangle or
# their serialization unnoticed.
ZEROS_DIGESTS = {
    ("--task", "triple", "--modes", "3,4", "--order", "40", "--grid", "128"): {
        "curves.csv": "b4287926a329e70ab597472d0bde41cdf3c16e82358c773d82a6827dd47c4dfc",
        "atlas.json": "5a9ee6894471d361251d3ea195eba5f78a0862214ac2147a224e0aeff5d3ea55",
    },
    ("--task", "double", "--order", "14", "--mmax", "4", "--grid", "64"): {
        "curves.csv": "d118e82ba1054e2a370554886085cafaaeb7ee559c3a9d07ca02eaf500470a75",
        "atlas.json": "f1ecb1760b10a6dbc8324f3b07c944050ccd8480f5d9dc06f81d58918511abde",
    },
}


@pytest.mark.parametrize("argv", sorted(ZEROS_DIGESTS), ids=lambda argv: argv[1])
def test_zeros_artifact_digests(tmp_path, capsys, argv):
    import hashlib

    code, _, _ = run(capsys, "zeros", *argv, "--jobs", "1", "--out", str(tmp_path))
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ZEROS_DIGESTS[argv]
    }
    assert digests == ZEROS_DIGESTS[argv]
