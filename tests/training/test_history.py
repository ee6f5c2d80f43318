"""Tests for history records."""

import pytest

from repro.training.history import EpochRecord, History


def rec(stage="s", epoch=0, loss=1.0, acc=0.5, val=None):
    return EpochRecord(stage=stage, epoch=epoch, train_loss=loss, train_accuracy=acc, val_accuracy=val)


class TestHistory:
    def test_stages_preserve_order(self):
        h = History()
        for s in ("a", "b", "a", "c"):
            h.add(rec(stage=s))
        assert h.stages() == ["a", "b", "c"]

    def test_for_stage(self):
        h = History()
        h.add(rec(stage="a", epoch=0))
        h.add(rec(stage="b", epoch=0))
        h.add(rec(stage="a", epoch=1))
        assert [r.epoch for r in h.for_stage("a")] == [0, 1]

    def test_final_loss(self):
        h = History()
        h.add(rec(loss=2.0))
        h.add(rec(loss=1.0))
        assert h.final_loss() == 1.0

    def test_final_loss_empty_raises(self):
        with pytest.raises(ValueError):
            History().final_loss()

    def test_best_val_accuracy(self):
        h = History()
        h.add(rec(val=0.8))
        h.add(rec(val=0.9))
        h.add(rec(val=None))
        assert h.best_val_accuracy() == 0.9

    def test_best_val_none_when_absent(self):
        h = History()
        h.add(rec())
        assert h.best_val_accuracy() is None

    def test_extend_and_len(self):
        a, b = History(), History()
        a.add(rec())
        b.add(rec())
        a.extend(b)
        assert len(a) == 2

    def test_to_dicts(self):
        h = History()
        h.add(rec(stage="x"))
        assert h.to_dicts()[0]["stage"] == "x"
