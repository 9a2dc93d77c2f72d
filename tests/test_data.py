"""Tests for dataset generation, IDX/CSV serialization, and task splitting."""

import re
import struct

import numpy as np
import pytest

from splitbridge.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LabeledDataset,
    TaskRange,
    gen_glyph_images,
    gen_synthetic,
    load_csv,
    load_idx,
    save_csv,
    save_idx,
    split_tasks,
)

# default_rng(10562).permutation(8) happens to be the identity, which pins
# the class-to-task assignment exactly in the fixed-seed tests below
IDENTITY_PERM_SEED = 10562


class TestLabeledDataset:
    def test_length_and_dtype(self):
        ds = LabeledDataset(np.zeros((3, 2)), [0, 1, 0], 2)
        assert len(ds) == 3
        assert ds.x.dtype == np.float64
        assert ds.y.dtype == np.int64

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), [0, 1], 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), [0, 2], 2)

    def test_subset(self):
        ds = LabeledDataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], 2)
        sub = ds.subset(ds.y == 1)
        assert len(sub) == 2
        assert np.array_equal(sub.y, [1, 1])


class TestGenSynthetic:
    def test_counts_and_balance(self):
        train, test = gen_synthetic(4, 6, 50, 20, seed=7)
        assert train.x.shape == (200, 6)
        assert test.x.shape == (80, 6)
        for c in range(4):
            assert np.sum(train.y == c) == 50
            assert np.sum(test.y == c) == 20

    def test_deterministic(self):
        a_tr, a_te = gen_synthetic(3, 4, 30, 10, seed=5)
        b_tr, b_te = gen_synthetic(3, 4, 30, 10, seed=5)
        assert np.array_equal(a_tr.x, b_tr.x)
        assert np.array_equal(a_te.x, b_te.x)
        c_tr, _ = gen_synthetic(3, 4, 30, 10, seed=6)
        assert not np.array_equal(a_tr.x, c_tr.x)

    def test_cluster_means_on_sphere(self):
        train, _ = gen_synthetic(5, 8, 500, 10, seed=0, mean_radius=3.0)
        for c in range(5):
            mean = train.x[train.y == c].mean(axis=0)
            # sample mean of 500 unit-variance draws stays near the true mean
            assert abs(np.linalg.norm(mean) - 3.0) < 0.3

    def test_linear_probe_oracle(self):
        # well-separated clusters must be almost perfectly linearly separable;
        # least squares on one-hot targets is an independent closed-form probe
        train, test = gen_synthetic(4, 8, 200, 100, seed=1, mean_radius=4.0)
        onehot = np.eye(4)[train.y]
        xb = np.hstack([train.x, np.ones((len(train), 1))])
        w, *_ = np.linalg.lstsq(xb, onehot, rcond=None)
        pred = np.argmax(np.hstack([test.x, np.ones((len(test), 1))]) @ w, axis=1)
        assert np.mean(pred == test.y) >= 0.99

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            gen_synthetic(1, 4, 10, 10, seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(4, 1, 10, 10, seed=0)


class TestIdx:
    def _write_pair(self, tmp_path, pixels, labels, rows, cols, image_count=None):
        if image_count is None:
            image_count = len(pixels) // (rows * cols)
        ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
        with open(ip, "wb") as f:
            f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, image_count, rows, cols))
            f.write(bytes(pixels))
        with open(lp, "wb") as f:
            f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
            f.write(bytes(labels))
        return ip, lp

    def test_load_fixture_exact_values(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, [0, 255, 51, 102, 128, 64], [1, 0], 1, 3)
        ds = load_idx(ip, lp)
        assert ds.x.shape == (2, 3)
        assert np.array_equal(ds.y, [1, 0])
        expected = np.array([[0, 255, 51], [102, 128, 64]]) / 255.0
        assert np.array_equal(ds.x, expected)

    def test_round_trip(self, tmp_path):
        train, _ = gen_glyph_images(3, side=4, train_per_class=5, test_per_class=2, seed=9)
        ip, lp = tmp_path / "a.idx", tmp_path / "b.idx"
        save_idx(train, ip, lp, 4, 4)
        back = load_idx(ip, lp)
        assert np.array_equal(back.y, train.y)
        # quantization to uint8 bounds the reconstruction error at half a level
        assert np.max(np.abs(back.x - train.x)) <= 0.5 / 255.0 + 1e-12

    def test_bad_image_magic(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, [0], [0], 1, 1)
        with open(ip, "r+b") as f:
            f.write(struct.pack(">I", 0x00000802))
        with pytest.raises(ValueError, match="magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, [0], [0], 1, 1)
        with open(lp, "r+b") as f:
            f.write(struct.pack(">I", 0x00000999))
        with pytest.raises(ValueError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, [0, 1, 2], [0, 0], 1, 2, image_count=2)
        with pytest.raises(ValueError, match="truncated"):
            load_idx(ip, lp)

    def test_trailing_bytes(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, [0, 1, 2, 3, 9], [0, 0], 1, 2)
        with pytest.raises(ValueError, match="trailing"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = self._write_pair(tmp_path, [0, 1, 2, 3], [0, 0, 1], 1, 2)
        with pytest.raises(ValueError, match="count"):
            load_idx(ip, lp)

    def test_save_label_above_a_byte_raises_before_writing(self, tmp_path):
        # an IDX label file holds one byte per label: 256 would load back as 0
        ds = LabeledDataset(np.zeros((2, 1)), [1, 256], 257)
        with pytest.raises(ValueError, match="IDX label must be at most 255 .*got 256"):
            save_idx(ds, tmp_path / "a", tmp_path / "b", 1, 1)
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_save_wrong_shape(self, tmp_path):
        ds = LabeledDataset(np.zeros((2, 5)), [0, 1], 2)
        with pytest.raises(ValueError):
            save_idx(ds, tmp_path / "a", tmp_path / "b", 2, 2)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        train, _ = gen_synthetic(3, 4, 10, 5, seed=2)
        p = tmp_path / "data.csv"
        save_csv(train, p)
        back = load_csv(p)
        # repr() of a float round-trips exactly through float()
        assert np.array_equal(back.x, train.x)
        assert np.array_equal(back.y, train.y)

    def test_header(self, tmp_path):
        ds = LabeledDataset(np.zeros((1, 3)), [0], 1)
        p = tmp_path / "d.csv"
        save_csv(ds, p)
        assert open(p).readline().strip() == "label,f0,f1,f2"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(p)

    def test_empty_file_names_path(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty.csv: CSV header must start with 'label'"):
            load_csv(p)

    @pytest.mark.parametrize("bad_row, error", [
        ("1,0.5", ".* fields, header has 3"),
        ("1,0.5,0.25,0.125", ".* fields, header has 3"),
        ("", ".* fields, header has 3"),
        ("abc,0.5,0.25", "invalid literal for int"),
    ], ids=["1,0.5", "1,0.5,0.25,0.125", "", "abc,0.5,0.25"])
    def test_ragged_row_names_line(self, tmp_path, bad_row, error):
        p = tmp_path / "ragged.csv"
        p.write_text(f"label,f0,f1\n0,1.0,2.0\n{bad_row}\n1,3.0,4.0\n")
        with pytest.raises(ValueError, match=f"ragged.csv line 3: {error}"):
            load_csv(p)

    @pytest.mark.parametrize("value, error", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
        ("x1", "could not convert string to float: 'x1'"),
    ], ids=["nan", "inf", "-inf", "x1"])
    def test_non_finite_value_names_line(self, tmp_path, value, error):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n1,{value},4.0\n")
        with pytest.raises(ValueError, match=f"nonfinite.csv line 4: {error}"):
            load_csv(p)


class TestSplitTasks:
    def test_identity_seed_fixture(self):
        train, test = gen_synthetic(8, 4, 10, 5, seed=0)
        seq = split_tasks(train, test, 4, seed=IDENTITY_PERM_SEED)
        assert len(seq.tasks) == 4
        for t, task in enumerate(seq.tasks):
            assert task.classes == TaskRange(2 * t, 2 * t + 2)
            assert len(task.train) == 20
            assert len(task.test) == 10
        # identity permutation means labels survive remapping untouched
        for orig, new in seq.remap.items():
            assert orig == new

    def test_blocks_are_contiguous_and_owned(self):
        train, test = gen_synthetic(6, 4, 8, 4, seed=3)
        seq = split_tasks(train, test, 3, seed=11)
        for t, task in enumerate(seq.tasks):
            assert task.classes == TaskRange(2 * t, 2 * t + 2)
            owned = np.arange(task.classes.start, task.classes.stop)
            assert np.all(np.isin(task.train.y, owned))
            assert np.all(np.isin(task.test.y, owned))

    @pytest.mark.parametrize("make", [
        lambda: gen_synthetic(6, 4, 8, 4, seed=3),
        lambda: gen_glyph_images(6, side=4, train_per_class=8, test_per_class=4, seed=3),
    ], ids=["synthetic", "glyphs"])
    def test_subsets_equal_an_isin_selection(self, make):
        # the window's bounds select the same rows, in the same order, as
        # np.isin over the remapped labels and the task's class indices
        train, test = make()
        seq = split_tasks(train, test, 3, seed=11)
        for task in seq.tasks:
            owned = np.arange(task.classes.start, task.classes.stop)
            for got, full in ((task.train, train), (task.test, test)):
                y = np.array([seq.remap[int(v)] for v in full.y])
                sel = np.isin(y, owned)
                assert got.x.tobytes() == full.x[sel].tobytes()
                assert np.array_equal(got.y, y[sel])

    def test_class_window_mask_and_reversed_bounds(self):
        with pytest.raises(ValueError, match=r"invalid task range \[3, 1\)"):
            TaskRange(3, 1)
        assert TaskRange(2, 5).mask(np.arange(7)).tolist() == [0, 0, 1, 1, 1, 0, 0]

    def test_union_is_whole_dataset(self):
        train, test = gen_synthetic(6, 4, 8, 4, seed=3)
        seq = split_tasks(train, test, 3, seed=11)
        rows = np.vstack([t.train.x for t in seq.tasks])
        # sorting rows lexicographically gives a multiset comparison
        assert np.array_equal(
            np.sort(rows.view([("", rows.dtype)] * rows.shape[1]), axis=0),
            np.sort(train.x.view([("", train.x.dtype)] * train.x.shape[1]), axis=0),
        )
        assert sum(len(t.test) for t in seq.tasks) == len(test)

    def test_seed_changes_assignment(self):
        train, test = gen_synthetic(8, 4, 5, 3, seed=0)
        a = split_tasks(train, test, 4, seed=1)
        b = split_tasks(train, test, 4, seed=2)
        assert a.remap != b.remap
        c = split_tasks(train, test, 4, seed=1)
        assert a.remap == c.remap

    def test_indivisible(self):
        train, test = gen_synthetic(5, 4, 5, 3, seed=0)
        with pytest.raises(ValueError):
            split_tasks(train, test, 3, seed=0)

    @pytest.mark.parametrize("num_tasks", [0, -2])
    def test_non_positive_task_count(self, num_tasks):
        train, test = gen_synthetic(4, 4, 5, 3, seed=0)
        with pytest.raises(ValueError, match=f"num_tasks .* got {num_tasks}$"):
            split_tasks(train, test, num_tasks, seed=0)

    def test_task_without_test_rows_named(self):
        # every task needs test rows: one without them fails before any training,
        # naming the task, its class window and the data labels the window holds
        perm = np.random.default_rng(0).permutation(4)
        train, test = gen_synthetic(4, 3, 5, 0, seed=0)  # test_per_class 0
        with pytest.raises(ValueError, match=re.escape(
                f"test split has no rows of task 1, class window [0, 2) (data labels "
                f"{perm[0]}, {perm[1]})")):
            split_tasks(train, test, 2, seed=0)
        train, test = gen_synthetic(4, 3, 5, 2, seed=0)
        lacking = test.subset(np.isin(test.y, perm[:2]))  # a test file without task 2's classes
        with pytest.raises(ValueError, match=re.escape(
                f"test split has no rows of task 2, class window [2, 4) (data labels "
                f"{perm[2]}, {perm[3]})")):
            split_tasks(train, lacking, 2, seed=0)
        seq = split_tasks(train, test.subset(test.y != perm[3]), 2, seed=0)  # one class is enough
        assert [len(t.test) for t in seq.tasks] == [4, 2]

    def test_label_outside_train_classes_named(self):
        # the classes are the train split's; a test label past them is named, not a KeyError
        train, test = gen_synthetic(4, 3, 5, 2, seed=0)
        test = LabeledDataset(test.x, np.append(test.y[:-1], 5), 6)
        with pytest.raises(ValueError, match="^test label 5 is outside the train split's 4 classes$"):
            split_tasks(train, test, 2, seed=0)

    def test_train_split_missing_a_class_named(self):
        # labels 0, 2 and 3: class 1 would join a task with no training rows
        train, test = gen_synthetic(4, 3, 5, 2, seed=0)
        train = train.subset(train.y != 1)
        with pytest.raises(ValueError, match="^train split has no rows of class 1, one of its 4 "
                                             "classes$"):
            split_tasks(train, test, 2, seed=0)

    def test_sequence_properties(self):
        train, test = gen_synthetic(6, 7, 5, 3, seed=0)
        seq = split_tasks(train, test, 2, seed=4)
        assert seq.num_classes == 6
        assert seq.feature_dim == 7


class TestGlyphs:
    def test_deterministic_and_bounded(self):
        a_tr, a_te = gen_glyph_images(4, side=5, train_per_class=6, test_per_class=3, seed=1)
        b_tr, _ = gen_glyph_images(4, side=5, train_per_class=6, test_per_class=3, seed=1)
        assert np.array_equal(a_tr.x, b_tr.x)
        assert a_tr.x.shape == (24, 25)
        assert a_te.x.shape == (12, 25)
        assert a_tr.x.min() >= 0.0 and a_tr.x.max() <= 1.0
