"""Datasets, partitions, and the IDX reader."""

import re
import struct

import numpy as np
import pytest

import oracles
from gapsl.data import (
    Dataset,
    _shards,
    dirichlet_partition,
    iid_partition,
    load_idx,
    load_idx_dataset,
    synth_gaussian_mixture,
)
from gapsl.config import ExperimentConfig
from gapsl.errors import ConfigError, DataError, FormatError
from gapsl.orchestrator import TrainingEngine, build_dataset


def label_distribution(labels: np.ndarray, num_classes: int) -> np.ndarray:
    hist = np.bincount(labels, minlength=num_classes).astype(np.float64)
    return hist / max(1, len(labels))


def heterogeneity(dataset_labels: np.ndarray, partition: list[np.ndarray], num_classes: int) -> float:
    """Mean per-client total-variation distance from the global label distribution."""
    global_dist = label_distribution(dataset_labels, num_classes)
    tv = [
        0.5 * np.abs(label_distribution(dataset_labels[ix], num_classes) - global_dist).sum()
        for ix in partition
    ]
    return float(np.mean(tv))


def assert_valid_partition(partition, n):
    all_idx = np.concatenate(partition)
    assert len(all_idx) == n
    assert len(np.unique(all_idx)) == n  # disjoint
    assert set(all_idx.tolist()) == set(range(n))  # coverage
    assert all(len(ix) >= 1 for ix in partition)


class TestGaussianMixture:
    def test_zero_spread_gives_point_clusters(self):
        train, test = synth_gaussian_mixture(4, 8, 20, spread=0.0, seed=0)
        # nearest-centroid on the point clusters is perfect
        centroids = np.stack([train.inputs[train.labels == c].mean(axis=0) for c in range(4)])
        d = np.linalg.norm(test.inputs[:, None, :] - centroids[None], axis=2)
        assert np.all(d.argmin(axis=1) == test.labels)

    def test_seed_determinism(self):
        a_train, a_test = synth_gaussian_mixture(3, 5, 30, 0.5, seed=9)
        b_train, b_test = synth_gaussian_mixture(3, 5, 30, 0.5, seed=9)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_test.inputs, b_test.inputs)

    def test_per_class_train_counts(self):
        train, test = synth_gaussian_mixture(5, 4, 40, 0.3, seed=1)
        for c in range(5):
            assert int((train.labels == c).sum()) == 32  # 40 * 0.8
            assert int((test.labels == c).sum()) == 8


class TestDirichletPartition:
    def test_huge_alpha_approaches_global_proportions(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, 2000)
        part = dirichlet_partition(labels, 4, alpha=1e6, seed=3)
        global_dist = np.bincount(labels, minlength=5) / len(labels)
        for ix in part:
            dist = np.bincount(labels[ix], minlength=5) / len(ix)
            assert np.max(np.abs(dist - global_dist)) < 0.05

    def test_low_alpha_more_heterogeneous_than_high(self):
        # paper-default skew level vs a mild one, averaged over 5 seeds
        labels = np.repeat(np.arange(10), 100)
        h_low, h_high = [], []
        for seed in range(5):
            h_low.append(heterogeneity(labels, dirichlet_partition(labels, 10, 0.1, seed), 10))
            h_high.append(heterogeneity(labels, dirichlet_partition(labels, 10, 0.9, seed), 10))
        assert np.mean(h_low) > np.mean(h_high)

    def test_monotone_heterogeneity_in_alpha(self):
        labels = np.repeat(np.arange(8), 80)
        means = []
        for alpha in (0.1, 0.3, 0.5, 0.9):
            vals = [
                heterogeneity(labels, dirichlet_partition(labels, 10, alpha, seed), 8)
                for seed in range(6)
            ]
            means.append(np.mean(vals))
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_disjoint_coverage_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_classes = int(rng.integers(2, 6))
            n = int(rng.integers(20, 200))
            labels = rng.integers(0, n_classes, n)
            clients = int(rng.integers(2, 8))
            alpha = float(rng.uniform(0.05, 5.0))
            part = dirichlet_partition(labels, clients, alpha, int(rng.integers(1 << 30)))
            assert_valid_partition(part, n)

    def test_errors(self):
        with pytest.raises(DataError):
            dirichlet_partition(np.zeros(1, dtype=int), 2, 0.5, 0)
        with pytest.raises(DataError):
            dirichlet_partition(np.zeros(10, dtype=int), 0, 0.5, 0)

    def test_one_client_gets_every_index(self):
        # the config decides which strategies may run one client; the split is whole
        for part in (dirichlet_partition(np.arange(10) % 3, 1, 0.5, 0), iid_partition(np.zeros(10, dtype=int), 1, 0)):
            assert len(part) == 1 and np.array_equal(part[0], np.arange(10))


class TestIidPartition:
    def test_even_sizes(self):
        part = iid_partition(np.zeros(100, dtype=int), 10, seed=0)
        assert [len(ix) for ix in part] == [10] * 10
        assert_valid_partition(part, 100)

    def test_sizes_differ_by_at_most_one(self):
        part = iid_partition(np.zeros(103, dtype=int), 10, seed=0)
        sizes = [len(ix) for ix in part]
        assert max(sizes) - min(sizes) <= 1
        assert_valid_partition(part, 103)

    def test_class_histograms_near_global(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, 4000)
        part = iid_partition(labels, 4, seed=2)
        global_dist = np.bincount(labels, minlength=4) / len(labels)
        for ix in part:
            dist = np.bincount(labels[ix], minlength=4) / len(ix)
            assert np.max(np.abs(dist - global_dist)) < 0.05

    def test_determinism(self):
        labels = np.zeros(57, dtype=int)
        a = iid_partition(labels, 5, seed=11)
        b = iid_partition(labels, 5, seed=11)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPartitionOracle:
    """Both partitions equal the per-client loops of ``tests/oracles.py``,
    array for array, in values and dtype."""

    DESK_LABELS = synth_gaussian_mixture(8, 16, 400, 0.2, seed=1)[0].labels  # 2560 samples
    SEEDS = (0, 1, 7, 2**31 - 1)

    @staticmethod
    def label_sets(clients):
        # the desk labels, and as many samples as clients: every client ends
        # with one sample, so the empty-client repair moves many of them
        return TestPartitionOracle.DESK_LABELS, np.arange(clients) % 8

    @staticmethod
    def emptied(labels, clients, alpha, seed):
        """Clients the Dirichlet draws leave empty, before the repair."""
        rng, counts = np.random.default_rng(seed), 0
        for c in np.unique(labels):
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            counts = counts + oracles._largest_remainder(rng.dirichlet(np.full(clients, alpha)), len(idx))
        return int(np.count_nonzero(counts == 0))

    @pytest.mark.parametrize("clients", [1, 2, 10, 100, 1000])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 1.0, None], ids=["0.05", "0.1", "1.0", "iid"])
    def test_equals_the_per_client_loops(self, clients, alpha):
        for labels in self.label_sets(clients):
            for seed in self.SEEDS:
                if alpha is None:
                    got, want = iid_partition(labels, clients, seed), oracles.iid_partition(labels, clients, seed)
                else:
                    got = dirichlet_partition(labels, clients, alpha, seed)
                    want = oracles.dirichlet_partition(labels, clients, alpha, seed)
                assert len(got) == len(want) == clients
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("clients", [2, 10, 100, 1000])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 1.0])
    def test_every_dirichlet_case_above_runs_the_repair(self, clients, alpha):
        labels = self.label_sets(clients)[1]
        assert any(self.emptied(labels, clients, alpha, seed) for seed in self.SEEDS)


class TestEmptyClientRepair:
    """``_shards`` on hand-worked owners: each empty client, in ascending
    order, takes the smallest sample of the currently largest client."""

    @pytest.mark.parametrize("owner,clients,want", [
        ([0, 0, 0, 1, 1, 0], 4, [[2, 5], [3, 4], [0], [1]]),
        ([1, 1, 0, 0], 3, [[3], [0, 1], [2]]),
        ([1, 0, 1, 0, 1, 0], 4, [[3, 5], [2, 4], [1], [0]]),
        ([2, 0, 1, 0], 3, [[1, 3], [2], [0]]),
    ], ids=["one-donor-gives-twice", "a-tie-goes-to-the-smaller-id", "the-donor-moves-once-it-shrinks",
            "no-client-empty"])
    def test_each_empty_client_takes_the_largest_clients_smallest_sample(self, owner, clients, want):
        got = _shards(np.array(owner, dtype=np.int64), clients)
        assert [a.tolist() for a in got] == want
        assert all(a.dtype == np.int64 for a in got)


def idx_images_bytes(images):
    arr = np.asarray(images, dtype=np.uint8)
    head = struct.pack(">IIII", 0x00000803, *arr.shape)
    return head + arr.tobytes()


def idx_labels_bytes(labels):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(arr)) + arr.tobytes()


class TestLoadIdx:
    def test_two_image_fixture_decodes_exactly(self, tmp_path):
        pixels = [[[0, 51], [102, 153]], [[204, 255], [0, 128]]]
        path = tmp_path / "img.idx"
        path.write_bytes(idx_images_bytes(pixels))
        got = load_idx(str(path))
        want = np.asarray(pixels, dtype=np.float64) / 255.0
        assert got.shape == (2, 2, 2)
        assert np.array_equal(got, want)

    def test_label_fixture(self, tmp_path):
        path = tmp_path / "lab.idx"
        path.write_bytes(idx_labels_bytes([3, 1, 4]))
        got = load_idx(str(path))
        assert got.dtype == np.int64
        assert np.array_equal(got, [3, 1, 4])

    def test_truncated_file_is_format_error(self, tmp_path):
        blob = idx_images_bytes([[[1, 2], [3, 4]]])
        path = tmp_path / "trunc.idx"
        path.write_bytes(blob[:-2])
        with pytest.raises(FormatError) as e:
            load_idx(str(path))
        assert e.value.offset == len(blob) - 2

    def test_wrong_magic_names_expected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 16)
        with pytest.raises(FormatError, match="0x00000801"):
            load_idx(str(path))

    def test_dataset_assembly(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(idx_images_bytes(np.arange(24).reshape(6, 2, 2) % 256))
        lab.write_bytes(idx_labels_bytes([0, 1, 2, 0, 1, 2]))
        ds = load_idx_dataset(str(img), str(lab))
        assert ds.inputs.shape == (6, 4)
        assert ds.num_classes == 3
        assert ds.inputs.max() <= 1.0

    def test_dataset_length_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(idx_images_bytes(np.zeros((3, 2, 2))))
        lab.write_bytes(idx_labels_bytes([0, 1]))
        with pytest.raises(DataError):
            load_idx_dataset(str(img), str(lab))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2), (3, 2, 0)], ids=["no-images", "no-rows", "no-cols"])
    def test_a_set_without_pixels_is_a_data_error_naming_the_file(self, tmp_path, shape):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        img.write_bytes(idx_images_bytes(np.zeros(shape)))
        lab.write_bytes(idx_labels_bytes(np.arange(shape[0]) % 3))
        with pytest.raises(DataError, match=rf"{re.escape(str(img))}: no pixels to train on, "
                                            rf"images of shape {re.escape(str(shape))}"):
            load_idx_dataset(str(img), str(lab))

    @pytest.mark.parametrize(
        "which,fault", [(None, None), ("train", "label"), ("train", "width"), ("test", "label"), ("test", "width")]
    )
    def test_engine_rejects_a_set_that_does_not_fit_the_model(self, tmp_path, which, fault):
        # model_dims (4, 8, 3): 2x2 images, labels 0..2
        rng = np.random.default_rng(0)
        paths = {}
        for name, n in (("train", 24), ("test", 12)):
            shape = (n, 3, 2) if fault == "width" and name == which else (n, 2, 2)
            labels = np.arange(n) % 3
            if fault == "label" and name == which:
                labels[-5:] = 3
            paths[f"{name}_images"] = tmp_path / f"{name}-img.idx"
            paths[f"{name}_labels"] = tmp_path / f"{name}-lab.idx"
            paths[f"{name}_images"].write_bytes(idx_images_bytes(rng.integers(0, 256, shape)))
            paths[f"{name}_labels"].write_bytes(idx_labels_bytes(labels))
        cfg = ExperimentConfig(
            dataset="idx", clients=2, rounds=1, alpha=None, model_dims=(4, 8, 3), cut=1,
            **{k: str(v) for k, v in paths.items()},
        )
        if fault is None:
            assert TrainingEngine(cfg, 1).run()[-1].accuracy is not None
            return
        message = {
            "label": rf"{which} set holds label 3, but model_dims\[-1\] is 3",
            "width": rf"{which} set inputs have width 6, but model_dims\[0\] is 4",
        }[fault]
        # the coordinator's engine and a TCP client both build their sets here
        with pytest.raises(ConfigError, match=message):
            build_dataset(cfg, 1)
        with pytest.raises(ConfigError, match=message):
            TrainingEngine(cfg, 1)


class TestDatasetInvariants:
    def test_label_range_enforced(self):
        # the server's loss indexes by a dataset's labels unchecked
        inputs = np.zeros((4, 2), dtype=np.float32)
        for labels in ([0, 1, 2, 5], [0, 1, 2, -1], np.array([0, 1, 2, -7], dtype=np.int8)):
            with pytest.raises(DataError, match=r"labels out of range \[0, 3\)"):
                Dataset(inputs, np.asarray(labels), 3)
        with pytest.raises(DataError, match="labels must be integers, got dtype float64"):
            Dataset(inputs, np.array([0.0, 1.0, 2.0, 1.0]), 3)

    def test_minimum_size_enforced(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2), dtype=np.float32), np.array([0, 1]), 3)
