"""Toy generators and CSV ingestion."""

import math

import numpy as np
import pytest

from timeflow import Dataset, load_csv, toy2d
from timeflow.data import TOY_NAMES, TWO_GAUSSIANS_CENTERS


def test_toy_generators_deterministic():
    for name in TOY_NAMES:
        a = toy2d(name, 200, seed=5)
        b = toy2d(name, 200, seed=5)
        assert np.array_equal(a.rows, b.rows)
        assert a.rows.shape == (200, 2)


def test_two_gaussians_mean_clt_bound():
    n = 20000
    ds = toy2d("two_gaussians", n, seed=2)
    assert np.linalg.norm(ds.rows.mean(axis=0)) < 4 / math.sqrt(n)
    assert np.allclose(TWO_GAUSSIANS_CENTERS, [[2, 0], [-2, 0]])


def test_two_gaussians_is_bimodal():
    ds = toy2d("two_gaussians", 5000, seed=0)
    left = ds.rows[ds.rows[:, 0] < 0]
    right = ds.rows[ds.rows[:, 0] >= 0]
    assert abs(left[:, 0].mean() + 2.0) < 0.1
    assert abs(right[:, 0].mean() - 2.0) < 0.1


def test_single_row_dataset_no_crash():
    ds = toy2d("rings", 1, seed=0)
    assert ds.rows.shape == (1, 2)
    assert ds.train.shape[0] + ds.val.shape[0] + ds.test.shape[0] == 1


def test_unknown_toy_name_rejected():
    with pytest.raises(ValueError):
        toy2d("spiral", 10, seed=0)


def test_split_fractions():
    ds = toy2d("checkerboard", 1000, seed=1, split_fractions=(0.8, 0.1, 0.1))
    assert ds.train.shape[0] == 800
    assert ds.val.shape[0] == 100
    assert ds.test.shape[0] == 100


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError):
        Dataset("bad", np.array([[1.0, np.nan]]))


def test_load_csv_hand_checked_standardization(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("1,10\n2,20\n3,30\n")
    ds = load_csv(path, split_fractions=(1.0, 0.0, 0.0), seed=0)
    # population std of {1,2,3} is sqrt(2/3): standardized values +-sqrt(3/2), 0
    root = math.sqrt(3.0 / 2.0)
    assert sorted(ds.rows[:, 0]) == pytest.approx([-root, 0.0, root], abs=1e-12)
    assert sorted(ds.rows[:, 1]) == pytest.approx([-root, 0.0, root], abs=1e-12)
    assert ds.mean == pytest.approx([2.0, 20.0])
    assert ds.std == pytest.approx([math.sqrt(2.0 / 3.0), 10 * math.sqrt(2.0 / 3.0)])


def test_load_csv_header_skipped(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("alpha,beta\n1,2\n3,4\n5,6\n7,8\n")
    ds = load_csv(path, split_fractions=(1.0, 0.0, 0.0), seed=0)
    assert ds.rows.shape == (4, 2)


def test_load_csv_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n5,6\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_load_csv_header_after_blank_lines_skipped(tmp_path):
    # the first non-blank record is the header candidate, wherever it starts
    path = tmp_path / "blank_head.csv"
    path.write_text("\n\nx,y\n1,2\n3,4\n")
    ds = load_csv(path, split_fractions=(1.0, 0.0, 0.0), seed=0)
    assert ds.rows.shape == (2, 2)
    path.write_text("\nx,y\nu,v\n1,2\n")  # one header only
    with pytest.raises(ValueError, match="line 3: could not parse"):
        load_csv(path)


def test_load_csv_errors_name_the_file_line(tmp_path):
    # a quoted field spanning two lines makes record numbers lag file lines
    path = tmp_path / "multiline.csv"
    path.write_text('1,"2\n"\n3,4\n5,oops\n')
    with pytest.raises(ValueError, match="line 4: could not parse"):
        load_csv(path)
    path.write_text('1,"2\n"\n3,4\n5,6,7\n')
    with pytest.raises(ValueError, match="line 4: expected 2 columns"):
        load_csv(path)


def test_load_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_load_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no numeric rows"):
        load_csv(path)


def test_load_csv_constant_column_dropped_with_warning(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("1,7,2\n2,7,4\n3,7,6\n4,7,8\n")
    with pytest.warns(UserWarning, match="constant column"):
        ds = load_csv(path, split_fractions=(1.0, 0.0, 0.0), seed=0)
    assert ds.dropped_columns == (1,)
    assert ds.rows.shape == (4, 2)


def test_load_csv_shuffle_is_seeded(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(f"{i},{2 * i}" for i in range(50)) + "\n")
    a = load_csv(path, seed=3)
    b = load_csv(path, seed=3)
    c = load_csv(path, seed=4)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)
