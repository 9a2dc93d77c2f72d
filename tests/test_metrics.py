"""Tests for the five-way accuracy decomposition and the incremental average."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitbridge.data import LabeledDataset, Task, TaskRange
from splitbridge.metrics import average_incremental_accuracy, evaluate, report_from_predictions


def logits_for(preds, num_classes):
    """Logits whose argmax is exactly the given prediction per row."""
    out = np.zeros((len(preds), num_classes))
    for i, p in enumerate(preds):
        out[i, p] = 1.0
    return out


class TestReportFromPredictions:
    def test_perfect_classifier(self):
        labels = np.array([0, 1, 2, 3])
        rep = report_from_predictions(
            logits_for(labels, 4), labels,
            [TaskRange(0, 2), TaskRange(2, 4)], step=2,
        )
        assert rep["overall_acc"] == 1.0
        assert rep["old_acc"] == 1.0 and rep["new_acc"] == 1.0
        assert rep["intra_old_acc"] == 1.0 and rep["intra_new_acc"] == 1.0
        assert rep["per_task_acc"] == [1.0, 1.0]
        assert rep["n_old"] == 2 and rep["n_new"] == 2
        assert rep["block_confusion"] == [[2, 0], [0, 2]]

    def test_always_predicts_new(self):
        # classifier collapsed onto the newest class: old accuracy dies but
        # the block-restricted old accuracy is unaffected by that bias
        labels = np.array([0, 1, 2, 3])
        logits = logits_for([3, 3, 3, 3], 4)
        logits[0, 0] = 0.5
        logits[1, 1] = 0.5
        rep = report_from_predictions(
            logits, labels, [TaskRange(0, 2), TaskRange(2, 4)], step=2,
        )
        assert rep["old_acc"] == 0.0
        assert rep["new_acc"] == 0.5
        assert rep["intra_old_acc"] == 1.0
        assert rep["block_confusion"] == [[0, 2], [0, 2]]

    def test_hand_enumerated_fixture(self):
        # 10 samples, classes 0..3 in two tasks; predictions chosen so every
        # metric differs and can be counted by hand:
        # old samples (labels 0,0,1,1,1): global preds 0,2,1,1,3 -> old 3/5
        #   old-block argmax:             0,0,1,1,1             -> intra 5/5
        # new samples (labels 2,2,3,3,3): global preds 2,0,3,2,1 -> new 2/5
        #   new-block argmax:             2,3,3,2,3             -> intra 3/5
        labels = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3])
        logits = np.array([
            [3.0, 1.0, 2.0, 0.0],
            [1.0, 0.5, 2.0, 0.4],
            [0.0, 3.0, 1.0, 2.0],
            [0.2, 2.0, 1.0, 0.1],
            [1.0, 2.0, 0.0, 3.0],
            [0.0, 1.0, 4.0, 2.0],
            [5.0, 0.0, 1.0, 2.0],
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 3.0, 2.0],
            [2.0, 4.0, 1.0, 3.0],
        ])
        rep = report_from_predictions(
            logits, labels, [TaskRange(0, 2), TaskRange(2, 4)], step=2,
        )
        assert rep["old_acc"] == pytest.approx(3 / 5)
        assert rep["new_acc"] == pytest.approx(2 / 5)
        assert rep["overall_acc"] == pytest.approx(5 / 10)
        assert rep["intra_old_acc"] == pytest.approx(5 / 5)
        assert rep["intra_new_acc"] == pytest.approx(3 / 5)
        assert rep["per_task_acc"] == [pytest.approx(3 / 5), pytest.approx(2 / 5)]
        # old preds [0,2,1,1,3] land in the old block 3 times;
        # new preds [2,0,3,2,1] land there twice
        assert rep["block_confusion"] == [[3, 2], [2, 3]]

    def test_first_step_has_no_old_block(self):
        labels = np.array([0, 1, 1])
        rep = report_from_predictions(
            logits_for([0, 1, 0], 2), labels, [TaskRange(0, 2)], step=1,
        )
        assert rep["n_old"] == 0
        assert rep["old_acc"] == 0.0 and rep["intra_old_acc"] == 0.0
        assert rep["overall_acc"] == pytest.approx(2 / 3)
        assert rep["new_acc"] == pytest.approx(2 / 3)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_restriction_and_weighted_mean(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 6, size=40)
        logits = rng.standard_normal((40, 6))
        blocks = [TaskRange(0, 2), TaskRange(2, 4), TaskRange(4, 6)]
        rep = report_from_predictions(logits, labels, blocks, step=3)
        # restricted argmax can only help the block's own samples
        assert rep["intra_old_acc"] >= rep["old_acc"] - 1e-12
        assert rep["intra_new_acc"] >= rep["new_acc"] - 1e-12
        # overall accuracy is the sample-weighted mean of old and new
        n = rep["n_old"] + rep["n_new"]
        if n:
            weighted = (rep["n_old"] * rep["old_acc"] + rep["n_new"] * rep["new_acc"]) / n
            assert rep["overall_acc"] == pytest.approx(weighted)
        # confusion row sums recover the block sample counts
        assert sum(rep["block_confusion"][0]) == rep["n_old"]
        assert sum(rep["block_confusion"][1]) == rep["n_new"]


def task_with_test(classes, labels, num_classes=4):
    """A task owning the contiguous `classes` whose test set holds one zero
    row per label."""
    test = LabeledDataset(np.zeros((len(labels), 3)), labels, num_classes)
    return Task(TaskRange(classes[0], classes[-1] + 1), test, test)


class TestEvaluate:
    class _Net:
        def __init__(self, out):
            self.out = out

        def forward(self, x):
            return np.tile(self.out, (x.shape[0], 1))

    def test_wrong_number_of_test_sets(self):
        task = task_with_test([0, 1], [0, 1], 2)
        with pytest.raises(ValueError, match="test set"):
            evaluate(self._Net(np.zeros(2)), [task], step=2)

    @pytest.mark.parametrize("step", [0, -1])
    def test_step_below_1_names_step(self, step):
        with pytest.raises(ValueError, match=f"step must be at least 1, got {step}"):
            evaluate(self._Net(np.zeros(2)), [], step=step)

    def test_narrow_network(self):
        task = task_with_test([2, 3], [2, 3])
        with pytest.raises(ValueError, match="narrower"):
            evaluate(self._Net(np.zeros(2)), [task], step=1)

    def test_constant_predictor(self):
        old = task_with_test([0, 1], [0, 0, 1, 1])
        new = task_with_test([2, 3], [2, 2, 3, 3])
        rep = evaluate(self._Net(np.array([0.0, 1.0, 3.0, 2.0])), [old, new], step=2)
        assert rep["overall_acc"] == pytest.approx(2 / 8)
        assert rep["old_acc"] == 0.0
        assert rep["new_acc"] == pytest.approx(2 / 4)

    @pytest.mark.parametrize("present, out", [
        (3, [0.0, 0.0, 5.0, 1.0]),  # lowest class of the new task has no test rows
        (2, [0.0, 0.0, 1.0, 5.0]),  # highest class of the new task has no test rows
    ])
    def test_blocks_are_the_task_classes(self, present, out):
        # the new block is classes 2..3 whatever the test labels hold, so the
        # restricted argmax over it, and the prediction's block, are both wrong
        old = task_with_test([0, 1], [0, 1])
        new = task_with_test([2, 3], [present] * 3)
        rep = evaluate(self._Net(np.array(out)), [old, new], step=2)
        assert rep["intra_new_acc"] == 0.0
        assert rep["new_acc"] == 0.0
        assert rep["block_confusion"] == [[0, 2], [0, 3]]
        assert (rep["n_old"], rep["n_new"]) == (2, 3)

    def test_empty_test_set_names_the_task(self):
        old = task_with_test([0, 1], [0, 1])
        new = task_with_test([2, 3], [])
        with pytest.raises(ValueError, match="task 2 has an empty test set"):
            evaluate(self._Net(np.zeros(4)), [old, new], step=2)


class TestAverageIncrementalAccuracy:
    def _rep(self, step, acc):
        return {"step": step, "overall_acc": acc}

    def test_mean_over_later_steps(self):
        reports = [self._rep(1, 0.9), self._rep(2, 0.7), self._rep(3, 0.5)]
        assert average_incremental_accuracy(reports) == pytest.approx(0.6)

    def test_first_step_excluded(self):
        reports = [self._rep(1, 0.0), self._rep(2, 0.8)]
        assert average_incremental_accuracy(reports) == pytest.approx(0.8)

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            average_incremental_accuracy([self._rep(1, 1.0)])
