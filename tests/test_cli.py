import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optiprecond
from optiprecond.cli import main
from optiprecond.fixtures import fixture_path

SRC = Path(optiprecond.__file__).resolve().parents[1]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_mtx(tmp_path, diag, name="m.mtx"):
    entries = [f"{i + 1} {i + 1} {v}" for i, v in enumerate(diag)]
    text = ("%%MatrixMarket matrix coordinate real general\n"
            f"{len(diag)} {len(diag)} {len(diag)}\n" + "\n".join(entries)
            + "\n")
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cond_diag(tmp_path, capsys):
    path = write_mtx(tmp_path, [4.0, 1.0])
    code, out, err = run_cli(["cond", "--input", str(path)], capsys)
    assert code == 0
    # kappa of the Gram matrix A^T A = diag(16, 1)
    assert json.loads(out)["kappa"] == pytest.approx(16.0, rel=1e-12)


def test_cond_identity(tmp_path, capsys):
    path = write_mtx(tmp_path, [1.0, 1.0, 1.0])
    code, out, err = run_cli(["cond", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["kappa"] == pytest.approx(1.0)


def test_cond_cap(tmp_path, capsys):
    path = write_mtx(tmp_path, [1e10, 1.0])
    code, out, err = run_cli(["cond", "--input", str(path), "--cap", "2.0"],
                             capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] <= 2.0000001
    assert payload["epsilon"] > 0


def test_cond_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n")
    code, out, err = run_cli(["cond", "--input", str(bad)], capsys)
    assert code == 2
    assert "input error" in err


def test_cond_missing_file_exit_2(tmp_path, capsys):
    code, out, err = run_cli(
        ["cond", "--input", str(tmp_path / "nope.mtx")], capsys)
    assert code == 2


def test_precond_jacobi_diagonal(tmp_path, capsys):
    path = write_mtx(tmp_path, [9.0, 1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "jacobi"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["kappa_after"] == pytest.approx(1.0, abs=1e-9)


def test_precond_unknown_method_exit_2(tmp_path, capsys):
    path = write_mtx(tmp_path, [1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "sorcery"], capsys)
    assert code == 2


def test_precond_emit_and_apply_roundtrip(tmp_path, capsys):
    path = write_mtx(tmp_path, [4.0, 2.0, 1.0])
    scaling_path = tmp_path / "scaling.csv"
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "optimal-right",
         "--emit-scaling", str(scaling_path)], capsys)
    assert code == 0
    kappa_after = json.loads(out)[0]["kappa_after"]
    code, out, err = run_cli(
        ["cond", "--input", str(path), "--apply", str(scaling_path)],
        capsys)
    assert code == 0
    assert json.loads(out)["kappa"] == pytest.approx(kappa_after, abs=1e-8)


def test_precond_optimal_right_fixture(tmp_path, capsys):
    code, out, err = run_cli(
        ["precond", "--input", str(fixture_path("trefethen_20b")),
         "--method", "optimal-right"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["kappa_before"] == pytest.approx(921.2, rel=1e-2)
    assert record["kappa_after"] < record["kappa_before"]


def test_precond_csv_output(tmp_path, capsys):
    path = write_mtx(tmp_path, [4.0, 1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "ruiz",
         "--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("matrix,method,kappa_before,kappa_after")


def test_pcg_bench_identity(tmp_path, capsys):
    path = write_mtx(tmp_path, [1.0, 1.0, 1.0])
    code, out, err = run_cli(
        ["pcg-bench", "--input", str(path)], capsys)
    assert code == 0
    records = json.loads(out)
    assert {r["method"] for r in records} == \
        {"pcg[none]", "pcg[jacobi]", "pcg[ruiz]", "pcg[optimal]"}
    assert all(r["iterations"] == 1 for r in records)


def test_pcg_bench_diagonal_fast(tmp_path, capsys):
    path = write_mtx(tmp_path, [5.0, 2.0, 1.0])
    code, out, err = run_cli(["pcg-bench", "--input", str(path)], capsys)
    assert code == 0
    records = json.loads(out)
    for r in records:
        if r["method"] != "pcg[none]":
            assert r["iterations"] <= 2


def test_sample_sweep_single_ratio(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 3))
    rows = [f"{i + 1} {j + 1} {float(a[i, j])!r}"
            for i in range(30) for j in range(3)]
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"30 3 {len(rows)}\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(
        ["sample-sweep", "--input", str(path), "--ratios", "1.0"], capsys)
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["extra"]["gram_gap"] == pytest.approx(0.0, abs=1e-9)


def test_sample_sweep_row_count(tmp_path, capsys):
    path = write_mtx(tmp_path, [4.0, 2.0, 1.0])
    code, out, err = run_cli(
        ["sample-sweep", "--input", str(path),
         "--ratios", "0.5,1.0"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 2


def test_sample_sweep_bad_ratio_exit_2(tmp_path, capsys):
    path = write_mtx(tmp_path, [1.0, 2.0])
    code, out, err = run_cli(
        ["sample-sweep", "--input", str(path), "--ratios", "abc"], capsys)
    assert code == 2


def test_concentration_deterministic(tmp_path, capsys):
    args = ["concentration", "--n-grid", "50,100", "--sigma-diag", "1,2",
            "--trials", "2", "--seed", "5"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    records = json.loads(out1)
    assert [r["extra"]["n"] for r in records] == [50, 100]


def test_precond_singular_gram_exit_3(tmp_path, capsys):
    # two identical columns: the Gram matrix is singular, a solver failure
    path = tmp_path / "rank1.csv"
    path.write_text("1.0,1.0\n2.0,2.0\n3.0,3.0\n")
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "optimal-right"],
        capsys)
    assert code == 3
    assert "solver failure" in err


def test_cond_reads_dense_csv(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("3.0,0.0\n0.0,1.0\n")
    code, out, err = run_cli(["cond", "--input", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["kappa"] == pytest.approx(9.0)


def test_version(capsys):
    code, out, err = run_cli(["version"], capsys)
    assert code == 0
    assert out.strip() == "0.1.0"


def test_console_script_installed():
    # the package under test, also from a checkout that is not installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "optiprecond.cli",
                           "version"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0


def test_out_file_written(tmp_path, capsys):
    path = write_mtx(tmp_path, [2.0, 1.0])
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "jacobi",
         "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())[0]["method"] == "jacobi"


def test_precond_side_with_one_sided_method_exit_2(tmp_path, capsys):
    path = write_mtx(tmp_path, [4.0, 1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "optimal-right",
         "--side", "left"], capsys)
    assert code == 2
    assert "--side" in err


def test_precond_side_selects_two_sided_solver(tmp_path, capsys):
    path = write_mtx(tmp_path, [4.0, 1.0])
    methods = []
    for side in ([], ["--side", "two"]):
        code, out, err = run_cli(
            ["precond", "--input", str(path), "--method",
             "optimal-two-sided", *side], capsys)
        assert code == 0
        methods.append(json.loads(out)[0]["method"])
    assert methods == ["alternate_two_sided", "bisect_two_sided"]


@pytest.mark.parametrize("argv", [
    ["cond", "--input", "m.mtx", "--seed", "1"],
    ["precond", "--input", "m.mtx", "--tol", "1e-8"],
    ["pcg-bench", "--input", "m.mtx", "--side", "left"],
    ["sample-sweep", "--input", "m.mtx", "--epsilon", "0.1"],
    ["concentration", "--cap", "2.0"],
])
def test_subcommand_rejects_flag_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
