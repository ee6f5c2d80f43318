"""Tests for dataset container and batch loader."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.utils import make_rng


def toy_dataset(n=20) -> ArrayDataset:
    images = np.arange(n, dtype=float).reshape(n, 1, 1, 1)
    labels = np.arange(n) % 3
    return ArrayDataset(images, labels)


class TestArrayDataset:
    def test_len_and_getitem(self):
        ds = toy_dataset(10)
        assert len(ds) == 10
        x, y = ds[np.array([1, 3])]
        np.testing.assert_array_equal(x[:, 0, 0, 0], [1.0, 3.0])
        np.testing.assert_array_equal(y, [1, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(4, dtype=int))

    def test_split_partitions_everything(self, rng):
        ds = toy_dataset(20)
        a, b = ds.split(0.7, rng)
        assert len(a) == 14 and len(b) == 6
        together = sorted(np.concatenate([a.images, b.images]).ravel().tolist())
        assert together == sorted(ds.images.ravel().tolist())

    def test_split_fraction_bounds(self, rng):
        with pytest.raises(ValueError):
            toy_dataset().split(0.0, rng)
        with pytest.raises(ValueError):
            toy_dataset().split(1.0, rng)

    def test_split_requires_rng(self):
        with pytest.raises(TypeError):
            toy_dataset().split(0.5, 42)

    def test_subset(self):
        ds = toy_dataset(10)
        sub = ds.subset(np.array([0, 5]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.images[:, 0, 0, 0], [0.0, 5.0])


class TestDataLoader:
    def test_batch_shapes(self):
        loader = DataLoader(toy_dataset(10), batch_size=4)
        sizes = [len(y) for _, y in loader]
        assert sizes == [4, 4, 2]
        assert len(loader) == 3

    def test_no_shuffle_preserves_order(self):
        loader = DataLoader(toy_dataset(6), batch_size=3)
        first_batch = next(iter(loader))[0]
        np.testing.assert_array_equal(first_batch[:, 0, 0, 0], [0, 1, 2])

    def test_shuffle_covers_everything(self, rng):
        loader = DataLoader(toy_dataset(12), batch_size=5, shuffle=True, rng=rng)
        seen = np.concatenate([x[:, 0, 0, 0] for x, _ in loader])
        assert sorted(seen.tolist()) == list(range(12))

    def test_shuffle_differs_across_epochs(self):
        loader = DataLoader(toy_dataset(32), batch_size=32, shuffle=True, rng=make_rng(0))
        epoch1 = next(iter(loader))[0].ravel().copy()
        epoch2 = next(iter(loader))[0].ravel().copy()
        assert not np.array_equal(epoch1, epoch2)

    def test_shuffle_without_rng_rejected(self):
        with pytest.raises(TypeError):
            DataLoader(toy_dataset(), batch_size=2, shuffle=True)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(toy_dataset(), batch_size=0)
