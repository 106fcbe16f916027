import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vflkit import cli, synth_data
from vflkit.data import (Dataset, PartitionSpec, _test_mask, concat_views,
                         load_csv, load_idx, mnist_column_split, normalize,
                         partition_vertical, ratio_split, sample_tiny,
                         train_test_split, write_idx)


def write_small_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestCsvLoader:
    def test_three_rows_two_features(self, tmp_path):
        p = tmp_path / "d.csv"
        write_small_csv(p, ["f1", "f2", "label"],
                        [[1.0, 2.0, 0], [3.0, 4.0, 1], [5.0, 6.0, 0]])
        ds = load_csv(p, "label")
        assert (ds.n, ds.d) == (3, 2)
        assert ds.feature_names == ["f1", "f2"]
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", "label")

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        write_small_csv(p, ["f1", "label"], [["abc", 0]])
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(p, "label")

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "d.csv"
        write_small_csv(p, ["f1", "label"], [])
        with pytest.raises(ValueError, match="no data"):
            load_csv(p, "label")

    def test_label_column_excluded_mid_table(self, tmp_path):
        p = tmp_path / "d.csv"
        write_small_csv(p, ["f1", "label", "f2"], [[1.0, 1, 2.0]])
        ds = load_csv(p, "label")
        assert ds.feature_names == ["f1", "f2"]
        np.testing.assert_array_equal(ds.features, [[1.0, 2.0]])

    def test_credit_like_shape_contract(self, tmp_path):
        # Generated stand-in honors the 30,000 x 23 shape contract.
        ds = synth_data.make_credit_like(n=500, seed=7)
        p = tmp_path / "credit.csv"
        synth_data.write_csv(ds, p)
        loaded = load_csv(p, "label")
        assert (loaded.n, loaded.d) == (500, 23)
        assert synth_data.CREDIT_N == 30_000 and synth_data.CREDIT_D == 23
        assert loaded.features.tobytes() == ds.features.tobytes()

    def test_vehicle_like_shape_contract(self, tmp_path):
        ds = synth_data.make_vehicle_like(seed=11)
        assert (ds.n, ds.d) == (946, 18)
        assert ds.n_classes == 4


class TestIdxLoader:
    def test_handcrafted_two_by_two(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 2, 2))
            fh.write(bytes([0, 255, 0, 255]))
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 1))
            fh.write(bytes([7]))
        ds = load_idx(img, lab)
        np.testing.assert_array_equal(ds.features, [[0.0, 1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(ds.labels, [7])

    def test_wrong_label_magic(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 1, 1))
            fh.write(bytes([1]))
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000999, 1))
            fh.write(bytes([0]))
        with pytest.raises(ValueError, match="magic"):
            load_idx(img, lab)

    def test_truncated_pixels(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(bytes([0] * 5))  # needs 8
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 2))
            fh.write(bytes([0, 1]))
        with pytest.raises(ValueError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 1, 1))
            fh.write(bytes([9]))
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 2))
            fh.write(bytes([0, 1]))
        with pytest.raises(ValueError, match="count"):
            load_idx(img, lab)

    def test_write_read_round_trip(self, tmp_path):
        ds = synth_data.make_digits_like(40, seed=3)
        write_idx(tmp_path / "i", tmp_path / "l", ds.features, ds.labels)
        loaded = load_idx(tmp_path / "i", tmp_path / "l")
        assert loaded.n == 40 and loaded.d == 784
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        # 8-bit quantization on write: within half a level.
        assert np.abs(loaded.features - ds.features).max() <= 0.5 / 255


class TestPartition:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionSpec([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="cover"):
            PartitionSpec([[0], [2]])
        with pytest.raises(ValueError, match="at least one"):
            PartitionSpec([[0], []])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 5))
        spec = PartitionSpec([[3, 0], [4, 1, 2]])
        views = partition_vertical(x, spec)
        np.testing.assert_array_equal(concat_views(views, spec), x)

    def test_identity_spec_returns_dataset(self):
        x = np.arange(12.0).reshape(3, 4)
        spec = PartitionSpec([[0, 1, 2, 3]])
        views = partition_vertical(x, spec)
        np.testing.assert_array_equal(views[0], x)

    def test_credit_split_13_10(self):
        spec = PartitionSpec([list(range(13)), list(range(13, 23))])
        views = partition_vertical(np.zeros((2, 23)), spec)
        assert views[0].shape[1] == 13 and views[1].shape[1] == 10

    def test_image_halves_are_392_each(self):
        spec = mnist_column_split(2)
        views = partition_vertical(np.zeros((1, 784)), spec)
        assert [v.shape[1] for v in views] == [392, 392]

    @given(st.integers(0, 2 ** 30), st.integers(2, 5), st.integers(4, 12))
    @settings(max_examples=30, deadline=None)
    def test_random_partitions_reassemble(self, seed, m, d):
        rng = np.random.default_rng(seed)
        if m > d:
            m = d
        cols = rng.permutation(d)
        cuts = sorted(rng.choice(np.arange(1, d), size=m - 1, replace=False)) \
            if m > 1 else []
        pieces = np.split(cols, cuts)
        spec = PartitionSpec([list(map(int, p)) for p in pieces])
        x = rng.standard_normal((3, d))
        np.testing.assert_array_equal(
            concat_views(partition_vertical(x, spec), spec), x)


class TestColumnSplits:
    def test_three_party_counts(self):
        spec = mnist_column_split(3)
        counts = [len(c) // 28 for c in spec.columns]
        assert counts == [11, 6, 11]
        # first participant gets the leftmost 11 image columns
        assert spec.columns[0][:11] == list(range(11))

    def test_five_party_counts(self):
        spec = mnist_column_split(5)
        assert [len(c) // 28 for c in spec.columns] == [8, 4, 4, 4, 8]
        assert spec.columns[0][:8] == list(range(8))

    def test_two_party_even(self):
        assert [len(c) // 28 for c in mnist_column_split(2).columns] == [14, 14]

    def test_unsupported_count(self):
        with pytest.raises(ValueError, match="unsupported"):
            mnist_column_split(4)


class TestRatioSplit:
    def test_even_ratio(self):
        spec = ratio_split(28, 1.0)
        assert [len(c) for c in spec.columns] == [14, 14]

    def test_ratio_2_11_gives_19_9(self):
        spec = ratio_split(28, 2.11)
        assert [len(c) for c in spec.columns] == [19, 9]

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ratio_split(2, 1e9)


class TestTinySample:
    def test_draws_h_rows(self):
        view = np.arange(100.0).reshape(50, 2)
        tiny = sample_tiny(view, 20, seed=3)
        assert tiny.rows.shape == (20, 2)
        assert len(set(tiny.source_indices)) == 20

    def test_whole_view_shuffled(self):
        view = np.arange(20.0).reshape(10, 2)
        tiny = sample_tiny(view, 10, seed=3)
        assert sorted(tiny.source_indices) == list(range(10))

    def test_seed_determinism(self):
        view = np.random.default_rng(1).standard_normal((30, 4))
        a = sample_tiny(view, 7, seed=42)
        b = sample_tiny(view, 7, seed=42)
        assert a.source_indices == b.source_indices

    def test_oversample_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            sample_tiny(np.zeros((5, 1)), 6, seed=0)


class TestNormalize:
    def test_constant_feature_floored(self):
        ds = Dataset(np.array([[1.0, 5.0], [2.0, 5.0]]), [0, 1], ["a", "b"])
        out = normalize(ds)
        np.testing.assert_array_equal(out.features[:, 1], [0.0, 0.0])
        assert out.norm_stats[1][1] == 1e-12

    def test_two_point_feature(self):
        ds = Dataset(np.array([[0.0], [2.0]]), [0, 1], ["a"])
        out = normalize(ds)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3)) * [1.0, 10.0, 0.01] + [5, -2, 0]
        ds = Dataset(x, np.zeros(40, dtype=int), list("abc"))
        out = normalize(ds)
        mean, std = out.norm_stats
        np.testing.assert_allclose(out.features * std + mean, x, atol=1e-10)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            normalize(Dataset(np.ones((1, 2)), [0], ["a", "b"]))


class TestTrainTestSplit:
    def test_stratified_and_deterministic(self):
        ds = synth_data.make_vehicle_like(seed=11)
        tr1, te1 = train_test_split(ds, 0.2, seed=9)
        tr2, te2 = train_test_split(ds, 0.2, seed=9)
        assert te1.features.tobytes() == te2.features.tobytes()
        for label in range(4):
            frac = (te1.labels == label).sum() / (ds.labels == label).sum()
            assert 0.1 < frac < 0.3


def _unique_mask(labels, test_fraction, seed):
    """``_test_mask`` as it was written with ``np.unique``: the oracle."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(labels.shape[0], dtype=bool)
    for label in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == label))
        mask[idx[:max(1, int(round(len(idx) * test_fraction)))]] = True
    return mask


class TestTestMask:
    """The stratified test mask loops over the labels present in sorted
    order without ``np.unique``, which imports ``numpy.ma``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_mask_as_the_unique_loop(self, seed):
        rng = np.random.default_rng(seed)
        # Labels drawn from a sparse set leave gaps, and 0 may be absent.
        present = np.sort(rng.choice(40, size=rng.integers(1, 8),
                                     replace=False))
        labels = rng.choice(present, size=int(rng.integers(1, 300)))
        for fraction in (0.05, 0.2, 0.5):
            got = _test_mask(labels, fraction, seed)
            assert got.tobytes() == \
                _unique_mask(labels, fraction, seed).tobytes()

    def test_digits_set_up_leaves_numpy_ma_unimported(self, tmp_path):
        doc = {"dataset": {"kind": "synthetic", "name": "digits", "n": 300},
               "partition": {"kind": "image_columns", "counts": [14, 14]}}
        config = tmp_path / "digits.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        run = (f"import sys; sys.path.insert(0, {src!r}); "
               "from vflkit import cli; "
               f"cli._prepared(cli.load_config({str(config)!r})); "
               "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", run],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
