import json

import numpy as np
import pytest

from optiprecond import (
    MatrixMarketError,
    RectMatrix,
    SolveReport,
    SymMatrix,
    condition_number,
    gram_matrix,
    read_matrix_market,
    regularize_cap,
    render_reports,
    sample_rows,
    write_report,
)
from conftest import random_spd


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_read_coordinate_general(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                           "2 2 2\n1 1 4\n2 2 1\n")
    a = read_matrix_market(path)
    assert np.allclose(a.mat, np.diag([4.0, 1.0]))


def test_read_coordinate_symmetric_mirrors(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n"
                           "2 2 3\n1 1 1\n2 1 0.5\n2 2 2\n")
    a = read_matrix_market(path)
    assert np.allclose(a.mat, [[1.0, 0.5], [0.5, 2.0]])


def test_read_array_column_major(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n"
                           "2 2\n1\n0.5\n0.5\n2\n")
    a = read_matrix_market(path)
    assert np.allclose(a.mat, [[1.0, 0.5], [0.5, 2.0]])


def test_read_rejects_pattern_and_complex_and_integer(tmp_path):
    for field in ("pattern", "complex", "integer"):
        path = write(tmp_path,
                     f"%%MatrixMarket matrix coordinate {field} general\n"
                     "1 1 1\n1 1 1\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)


def test_read_error_carries_line_number(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                           "2 2 1\n3 1 5.0\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 3
    assert "out of bounds" in str(err.value)


def test_read_malformed_header(tmp_path):
    path = write(tmp_path, "%MatrixMarket matrix coordinate real general\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 1


def test_read_comments_skipped(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                           "% a comment\n2 2 1\n% inline\n1 2 7\n")
    a = read_matrix_market(path)
    assert a.mat[0, 1] == 7.0


def test_gram_matrix_shapes():
    assert np.allclose(gram_matrix(RectMatrix(np.eye(3))).mat, np.eye(3))
    assert np.allclose(gram_matrix(RectMatrix([[1.0], [2.0]])).mat, [[5.0]])
    a = RectMatrix([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(gram_matrix(a).mat, [[2.0, 1.0], [1.0, 2.0]])


def test_gram_matrix_wide_transposes():
    wide = RectMatrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    g = gram_matrix(wide)
    assert g.order == 2
    assert np.allclose(g.mat, wide.mat @ wide.mat.T)


def test_gram_matrix_psd(rng):
    for _ in range(100):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 12))
        g = gram_matrix(RectMatrix(rng.standard_normal((m, n))))
        w = np.linalg.eigvalsh(g.mat)
        assert w[0] >= -1e-10 * max(w[-1], 1.0)


def test_regularize_cap_closed_form():
    spec = regularize_cap(SymMatrix(np.diag([1e10, 1.0])), 1e8)
    expect = (1e10 - 1e8) / (1e8 - 1)
    assert spec.epsilon == pytest.approx(expect, rel=1e-12)
    assert condition_number(spec.gram) <= 1e8 * (1 + 1e-6)


def test_regularize_cap_noop_cases(rng):
    m = random_spd(4, rng, cond=10.0)
    assert regularize_cap(m, 100.0).epsilon == 0.0
    assert regularize_cap(SymMatrix.identity(3), 2.0).epsilon == 0.0


def test_regularize_cap_idempotent(rng):
    m = random_spd(5, rng, cond=1e7)
    first = regularize_cap(m, 1e3)
    second = regularize_cap(first.gram, 1e3)
    assert second.epsilon <= 1e-12 * (1 + first.epsilon)


def test_sample_rows_full_is_identity(rng):
    a = RectMatrix(rng.standard_normal((5, 3)))
    for seed in (0, 1, 99):
        assert np.array_equal(sample_rows(a, 5, seed).mat, a.mat)


def test_sample_rows_subset_and_determinism(rng):
    a = RectMatrix(rng.standard_normal((10, 2)))
    s1 = sample_rows(a, 4, seed=7)
    s2 = sample_rows(a, 4, seed=7)
    assert np.array_equal(s1.mat, s2.mat)
    rows = {tuple(r) for r in a.mat}
    assert all(tuple(r) in rows for r in s1.mat)
    one = sample_rows(RectMatrix(np.array([[1.0], [2.0]])), 1, seed=3)
    assert one.mat.shape == (1, 1)


def test_sample_rows_preserves_order(rng):
    a = RectMatrix(np.arange(20.0).reshape(10, 2))
    sub = sample_rows(a, 6, seed=11)
    assert np.all(np.diff(sub.mat[:, 0]) > 0)


def test_sample_rows_range_errors(rng):
    a = RectMatrix(rng.standard_normal((4, 2)))
    with pytest.raises(ValueError):
        sample_rows(a, 0, seed=0)
    with pytest.raises(ValueError):
        sample_rows(a, 5, seed=0)


def make_report(**kw):
    base = dict(matrix="m", method="x", kappa_before=2.0, kappa_after=1.5,
                iterations=3, wall_time_seconds=0.25, extra={"a": 1})
    base.update(kw)
    return SolveReport(**base)


def test_write_report_empty(tmp_path):
    p = tmp_path / "r.json"
    write_report([], format="json", path=p)
    assert json.loads(p.read_text()) == []
    p2 = tmp_path / "r.csv"
    write_report([], format="csv", path=p2)
    assert p2.read_text().splitlines() == [
        "matrix,method,kappa_before,kappa_after,iterations,"
        "wall_time_seconds,extra"]


def test_write_report_roundtrip(tmp_path):
    p = tmp_path / "r.json"
    write_report([make_report()], format="json", path=p)
    records = json.loads(p.read_text())
    assert len(records) == 1
    rec = records[0]
    assert rec["matrix"] == "m"
    assert rec["kappa_before"] == 2.0
    assert rec["extra"] == {"a": 1}
    assert list(rec.keys()) == ["matrix", "method", "kappa_before",
                                "kappa_after", "iterations",
                                "wall_time_seconds", "extra"]


def test_render_csv_column_order():
    text = render_reports([make_report()], format="csv")
    lines = text.splitlines()
    assert lines[0].split(",")[:6] == ["matrix", "method", "kappa_before",
                                       "kappa_after", "iterations",
                                       "wall_time_seconds"]
    assert "2.0" in lines[1]


def test_float_shortest_roundtrip():
    value = 0.1 + 0.2
    text = render_reports([make_report(kappa_before=value)], format="json")
    assert json.loads(text)[0]["kappa_before"] == value


def test_render_pins_numpy_extras_text():
    # numpy scalars and arrays in extras render as plain JSON numbers/lists
    report = make_report(kappa_before=np.float64(0.1) + 0.2,
                         iterations=np.int64(4),
                         extra={"gap": np.float64(1e-3),
                                "steps": np.int64(7),
                                "path": np.array([0.5, 0.25]),
                                "nested": {"k": (np.int64(1), 2.5)}})
    assert render_reports([report], format="json") == (
        '[\n  {\n    "matrix": "m",\n    "method": "x",\n'
        '    "kappa_before": 0.30000000000000004,\n'
        '    "kappa_after": 1.5,\n    "iterations": 4,\n'
        '    "wall_time_seconds": 0.25,\n    "extra": {\n'
        '      "gap": 0.001,\n      "steps": 7,\n      "path": [\n'
        '        0.5,\n        0.25\n      ],\n      "nested": {\n'
        '        "k": [\n          1,\n          2.5\n        ]\n'
        '      }\n    }\n  }\n]')
    assert render_reports([report], format="csv") == (
        "matrix,method,kappa_before,kappa_after,iterations,"
        "wall_time_seconds,extra\n"
        'm,x,0.30000000000000004,1.5,4,0.25,"{""gap"": 0.001, '
        '""steps"": 7, ""path"": [0.5, 0.25], ""nested"": {""k"": '
        '[1, 2.5]}}"\n')


def test_render_booleans_load_back_as_booleans():
    report = make_report(extra={"certified": True,
                                "converged": np.bool_(False)})
    extra = json.loads(render_reports([report], format="json"))[0]["extra"]
    assert extra["certified"] is True and extra["converged"] is False
    row = render_reports([report], format="csv").splitlines()[1]
    assert row.endswith('"{""certified"": true, ""converged"": false}"')
