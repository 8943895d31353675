import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

import optiprecond
from optiprecond import cli
from optiprecond.cli import _PRECOND_METHODS, _SUBCOMMANDS, main
from optiprecond.fixtures import fixture_path
from test_fixtures import REPORTED_OPTIMAL

SRC = Path(optiprecond.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_cond_out_keeps_old_file_when_rename_fails(tmp_path, capsys,
                                                   monkeypatch):
    path = write_mtx(tmp_path, [4.0, 1.0])
    out_path = tmp_path / "cond.json"
    out_path.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run_cli(
        ["cond", "--input", str(path), "--out", str(out_path)], capsys)
    assert code != 0
    assert out_path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_cond_eigensolver_failure_exit_3(tmp_path, capsys, monkeypatch):
    dsyevd = scipy.linalg.lapack.dsyevd

    def fail(*args, **kwargs):
        return (*dsyevd(*args, **kwargs)[:2], 1)
    monkeypatch.setattr(scipy.linalg.lapack, "dsyevd", fail)
    path = write_mtx(tmp_path, [4.0, 1.0])
    code, out, err = run_cli(["cond", "--input", str(path)], capsys)
    assert code == 3
    assert "solver failure" in err


def test_precond_jacobi_diagonal(tmp_path, capsys):
    path = write_mtx(tmp_path, [9.0, 1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "jacobi"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["kappa_after"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("method", ["sorcery", "subgrad",
                                    "optimal-two-sided-bisect"])
def test_precond_unknown_method_exit_2(method, tmp_path, capsys):
    path = write_mtx(tmp_path, [1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", method], capsys)
    assert code == 2
    assert "method must be one of" in err


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


def test_precond_emit_scaling_keeps_old_file_when_rename_fails(
        tmp_path, capsys, monkeypatch):
    path = write_mtx(tmp_path, [4.0, 2.0, 1.0])
    scaling_path = tmp_path / "scaling.csv"
    scaling_path.write_text("old\n")

    def fail(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "optimal-right",
         "--emit-scaling", str(scaling_path)], capsys)
    assert code != 0
    assert scaling_path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_precond_optimal_right_fixture(tmp_path, capsys):
    code, out, err = run_cli(
        ["precond", "--input", str(fixture_path("trefethen_20b")),
         "--method", "optimal-right"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["kappa_before"] == pytest.approx(921.2, rel=1e-2)
    assert record["kappa_after"] < record["kappa_before"]
    assert record["method"] == "optimal_right[dsdp]"
    assert record["extra"]["certified"]
    assert record["kappa_after"] <= 1.01 * REPORTED_OPTIMAL["trefethen_20b"]


def test_precond_epsilon_reaches_the_left_solve(capsys):
    # --epsilon is the certified gap at which the dsdp solve of
    # optimal-left and optimal-right stops; the report names it
    # gap_tolerance, as --cap writes its shift as epsilon
    path = str(fixture_path("trefethen_20b"))
    for method in ("optimal-left", "optimal-right"):
        records = []
        for flags in ([], ["--epsilon", "1e-6"]):
            code, out, err = run_cli(
                ["precond", "--input", path, "--method", method, *flags],
                capsys)
            assert code == 0
            records.append(json.loads(out)[0])
        default, tight = records
        assert default["extra"]["gap_tolerance"] == 1e-2
        assert tight["extra"]["gap_tolerance"] == 1e-6
        assert tight["extra"]["certified"]
        assert tight["extra"]["certified_gap"] <= 1e-6
        assert tight["iterations"] > default["iterations"]
        assert "epsilon" not in tight["extra"]


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


def test_pcg_bench_without_convergence_exits_0(capsys):
    # tol 0 is never met, so pcg stops at max_iters with converged False
    code, out, err = run_cli(
        ["pcg-bench", "--input", str(fixture_path("trefethen_20b")),
         "--tol", "0"], capsys)
    assert code == 0, err
    records = json.loads(out)
    assert all(type(r["extra"]["converged"]) is bool for r in records)


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
    # a Gram matrix that fails linalg's one full-rank rule is a solver
    # failure on every optimal method: two identical columns, then seed-0
    # 8x4 draws whose column 4 repeats column 3 or adds 1e-9 noise to it
    # (kappa about 1e16)
    path = tmp_path / "rank1.csv"
    path.write_text("1.0,1.0\n2.0,2.0\n3.0,3.0\n")
    rng = np.random.default_rng(0)
    repeat = rng.standard_normal((8, 4))
    repeat[:, 3] = repeat[:, 2]
    noisy = rng.standard_normal((8, 4))
    noisy[:, 3] = noisy[:, 2] + 1e-9 * rng.standard_normal(8)
    paths = [path, tmp_path / "repeat.csv", tmp_path / "noisy.csv"]
    np.savetxt(paths[1], repeat, delimiter=",")
    np.savetxt(paths[2], noisy, delimiter=",")
    for path in paths:
        for method in ("optimal-right", "optimal-left", "optimal-two-sided"):
            code, out, err = run_cli(
                ["precond", "--input", str(path), "--method", method],
                capsys)
            assert code == 3, (path.name, method, err)
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


def test_precond_side_selects_two_sided_solver(tmp_path, capsys):
    # optimal-two-sided runs the certified bisection
    path = write_mtx(tmp_path, [4.0, 1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", "optimal-two-sided"],
        capsys)
    assert code == 0
    report = json.loads(out)[0]
    assert report["method"] == "bisect_two_sided"
    assert report["extra"]["certified"]
    assert report["extra"]["gap_tolerance"] == 1e-2


_REPORTED_METHOD = {
    "jacobi": "jacobi",
    "colnorm": "colnorm",
    "ruiz": "ruiz",
    "optimal-right": "optimal_right[dsdp]",
    "optimal-left": "optimal_left[dsdp]",
    "optimal-two-sided": "bisect_two_sided",
}


@pytest.mark.parametrize("method", list(_PRECOND_METHODS))
def test_precond_method_table_runs_each_solver(method, tmp_path, capsys):
    side, on_gram, solve = _PRECOND_METHODS[method]
    a = optiprecond.RectMatrix(np.diag([4.0, 1.0]))
    scaling, _ = solve(optiprecond.gram_matrix(a) if on_gram else a,
                       optiprecond.OptimalRequest())
    assert scaling.side == side
    path = write_mtx(tmp_path, [4.0, 1.0])
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", method], capsys)
    assert code == 0
    assert json.loads(out)[0]["method"] == _REPORTED_METHOD[method]


@pytest.mark.parametrize("method", ["optimal-left", "optimal-two-sided"])
def test_precond_emit_scaling_refuses_other_sides(method, tmp_path, capsys):
    # cond --apply reads an emitted file as a right scaling; a left scaling
    # read that way gives kappa 2.03e7 here against optimal-left's 89.45
    a = np.random.default_rng(3).standard_normal((6, 6)) + 3.0 * np.eye(6)
    a[0] *= 20.0
    path = tmp_path / "a.csv"
    np.savetxt(path, a, delimiter=",")
    scaling_path = tmp_path / "scaling.csv"
    code, out, err = run_cli(
        ["precond", "--input", str(path), "--method", method,
         "--emit-scaling", str(scaling_path)], capsys)
    assert code == 2
    assert "--emit-scaling" in err
    assert not scaling_path.exists()


def test_precond_emit_scaling_refuses_before_solving(tmp_path, capsys,
                                                     monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the --emit-scaling check")

    monkeypatch.setattr(cli, "bisect_two_sided", must_not_run)
    monkeypatch.setattr(cli, "_load_matrix", must_not_run)
    code, out, err = run_cli(
        ["precond", "--input", str(fixture_path("trefethen_20")),
         "--method", "optimal-two-sided",
         "--emit-scaling", str(tmp_path / "scaling.csv")], capsys)
    assert code == 2
    assert "--emit-scaling" in err


@pytest.mark.parametrize("method", ["colnorm", "optimal-left",
                                    "optimal-two-sided"])
def test_precond_cap_refused_for_rectangular_methods(method, capsys,
                                                      monkeypatch):
    # --cap regularizes the Gram matrix, which these methods never read
    def must_not_run(*args, **kwargs):
        raise AssertionError("read the input before the --cap check")

    monkeypatch.setattr(cli, "_load_matrix", must_not_run)
    code, out, err = run_cli(
        ["precond", "--input", str(fixture_path("trefethen_20b")),
         "--method", method, "--cap", "50"], capsys)
    assert code == 2
    assert "--cap" in err


def test_precond_cap_reaches_gram_methods(capsys):
    code, out, err = run_cli(
        ["precond", "--input", str(fixture_path("trefethen_20b")),
         "--method", "jacobi", "--cap", "50"], capsys)
    assert code == 0
    report = json.loads(out)[0]
    assert report["kappa_before"] == pytest.approx(50.0)
    assert report["extra"]["epsilon"] > 0


def test_readme_lists_each_subcommands_flags():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S)
    assert block is not None
    listed = {}
    for line in block.group(1).splitlines():
        if line.startswith("optiprecond "):
            flags = listed.setdefault(line.split()[1], [])
        flags += re.findall(r"--([a-z-]+)", line)
    assert listed == {**{name: entry[2].split()
                         for name, entry in _SUBCOMMANDS.items()},
                      "version": []}


def test_readme_lists_the_precond_method_table():
    text = README.read_text(encoding="utf-8")
    listing = re.search(r"`precond` computes a scaling \(([^)]*)\)", text)
    assert listing is not None
    assert re.findall(r"`([^`]+)`", listing.group(1)) == \
        list(_PRECOND_METHODS)


@pytest.mark.parametrize("argv", [
    ["cond", "--input", "m.mtx", "--seed", "1"],
    ["precond", "--input", "m.mtx", "--tol", "1e-8"],
    ["pcg-bench", "--input", "m.mtx", "--side", "left"],
    ["pcg-bench", "--input", "m.mtx", "--epsilon", "0.1"],
    ["sample-sweep", "--input", "m.mtx", "--epsilon", "0.1"],
    ["concentration", "--cap", "2.0"],
    ["precond", "--input", "m.mtx", "--side", "two"],
])
def test_subcommand_rejects_flag_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
