"""Set-up gathers each party's views from the dataset in one copy.

``split_views`` gives the views and labels of
``partition_vertical(train_test_split(...))`` byte for byte, and
``cli._prepared`` holds at most the dataset and the views at once and keeps
neither the dataset nor anything of it once it returns. ``normalize`` and
``load_idx`` scale in place with the bytes of an allocating expression. The
split settings are checked, by key, before any data is loaded.
"""
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from vflkit import cli, synth_data
from vflkit.data import (PartitionSpec, _test_mask, load_idx,
                         mnist_column_split, normalize, partition_vertical,
                         ratio_split, split_views, train_test_split,
                         write_idx)

DIGITS_2500 = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "digits", "n": 2500,
                "test_fraction": 0.2, "split_seed": 1},
    "partition": {"kind": "image_columns", "counts": [14, 14],
                  "image_side": 28},
}


def _assert_same_split(ds, spec, fraction, seed):
    train, test = train_test_split(ds, fraction, seed=seed)
    want = (partition_vertical(train, spec), partition_vertical(test, spec),
            train.labels, test.labels)
    got = split_views(ds, spec, _test_mask(ds.labels, fraction, seed))
    for got_views, want_views in zip(got[:2], want[:2]):
        assert len(got_views) == len(want_views) == spec.n_participants
        for g, w in zip(got_views, want_views):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
            assert g.flags.c_contiguous
            assert not np.shares_memory(g, ds.features)
    for g, w in zip(got[2:], want[2:]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert not np.shares_memory(g, ds.labels)


class TestSameViewsAsSplitThenPartition:
    def test_credit_normalized_counts(self):
        ds = normalize(synth_data.make_credit_like(1200))
        spec = PartitionSpec([list(range(13)), list(range(13, 23))])
        _assert_same_split(ds, spec, 0.2, 1)

    @pytest.mark.parametrize("parties", [2, 3])
    def test_digits_image_columns(self, parties):
        ds = synth_data.make_digits_like(300)
        _assert_same_split(ds, mnist_column_split(parties), 0.25, 3)

    def test_ratio_partition(self):
        ds = normalize(synth_data.make_credit_like(500))
        _assert_same_split(ds, ratio_split(ds.d, 1.33), 0.3, 7)

    def test_idx_round_trip(self, tmp_path):
        digits = synth_data.make_digits_like(200)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, digits.features, digits.labels)
        _assert_same_split(load_idx(images, labels), mnist_column_split(2),
                           0.2, 1)

    def test_train_test_split_takes_the_mask(self):
        ds = synth_data.make_credit_like(400)
        mask = _test_mask(ds.labels, 0.2, 5)
        train, test = train_test_split(ds, 0.2, seed=5)
        assert test.features.tobytes() == ds.features[mask].tobytes()
        assert train.features.tobytes() == ds.features[~mask].tobytes()

    def test_partition_must_cover_the_columns(self):
        ds = synth_data.make_credit_like(100)
        with pytest.raises(ValueError, match="covers 2 columns"):
            split_views(ds, PartitionSpec([[0], [1]]),
                        _test_mask(ds.labels, 0.2, 1))


class TestPreparedMemory:
    @pytest.fixture(scope="class")
    def features_nbytes(self):
        # Loads the modules and renders once, so tracing counts data only.
        cli._prepared({**DIGITS_2500,
                       "dataset": {**DIGITS_2500["dataset"], "n": 50}})
        return 2500 * 28 * 28 * 8

    def test_peak_is_the_dataset_and_the_views(self, features_nbytes):
        tracemalloc.start()
        try:
            out = cli._prepared(DIGITS_2500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(v.nbytes for v in out[0] + out[1]) == features_nbytes
        assert peak <= 2.3 * features_nbytes

    def test_only_the_views_stay_held(self, features_nbytes):
        gc.collect()
        tracemalloc.start()
        try:
            out = cli._prepared(DIGITS_2500)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        views = sum(v.nbytes for v in out[0] + out[1])
        assert views <= held <= views + 0.1 * features_nbytes

    def test_nothing_pins_the_dataset(self, monkeypatch):
        loaded = []
        load = cli._load_dataset

        def recording(cfg):
            ds = load(cfg)
            loaded.append(weakref.ref(ds))
            return ds

        monkeypatch.setattr(cli, "_load_dataset", recording)
        doc = {**DIGITS_2500, "dataset": {**DIGITS_2500["dataset"], "n": 200}}
        out = cli._prepared(doc)
        gc.collect()
        assert len(loaded) == 1 and loaded[0]() is None
        assert out[5] is None

    def test_sixth_slot_is_the_normalization(self):
        doc = {"dataset": {"kind": "synthetic", "name": "credit", "n": 300},
               "partition": {"kind": "counts", "counts": [13, 10]}}
        mean, std = cli._prepared(doc)[5]
        want = normalize(synth_data.make_credit_like(300)).norm_stats
        assert mean.tobytes() == want[0].tobytes()
        assert std.tobytes() == want[1].tobytes()


class TestInPlaceScaling:
    def test_normalize_matches_the_allocating_oracle(self):
        ds = synth_data.make_credit_like(700)
        ds.features[:, 4] = 3.0       # a constant column, floored std
        before = ds.features.copy()
        mean = ds.features.mean(axis=0)
        std = ds.features.std(axis=0)
        std = np.where(std < 1e-12, 1e-12, std)
        want = (ds.features - mean) / std
        got = normalize(ds)
        assert got.features.tobytes() == want.tobytes()
        assert ds.features.tobytes() == before.tobytes()
        assert ds.norm_stats is None

    def test_load_idx_matches_the_allocating_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(30, 28 * 28)).astype(np.uint8)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, pixels / 255.0, rng.integers(0, 10, 30))
        raw = images.read_bytes()[16:]
        want = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
        got = load_idx(images, labels)
        assert got.features.tobytes() == want.tobytes()
        assert got.features.shape == (30, 28 * 28)


class TestSplitSettings:
    """A bad ``dataset.test_fraction`` or ``dataset.split_seed`` exits 1
    with a config error naming the key, before any data is loaded."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("key, value", [
        ("test_fraction", -0.2), ("test_fraction", 0), ("test_fraction", 1.0),
        ("test_fraction", 1.5), ("test_fraction", "x"),
        ("test_fraction", True), ("split_seed", -1), ("split_seed", 1.5),
        ("split_seed", True)])
    def test_exits_one_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                      command, key, value):
        loaded = []
        monkeypatch.setattr(cli, "_load_dataset", loaded.append)
        doc = {**DIGITS_2500,
               "dataset": {**DIGITS_2500["dataset"], key: value}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main([command, str(path), "--output-dir",
                         str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: dataset: {key} must be")
        assert repr(value) in err
        assert not loaded

    @pytest.mark.parametrize("fraction", [0.01, 0.5, 0.99])
    def test_fractions_inside_the_range_split(self, fraction):
        doc = {"dataset": {"kind": "synthetic", "name": "credit", "n": 300,
                           "test_fraction": fraction, "split_seed": 0},
               "partition": {"kind": "counts", "counts": [13, 10]}}
        train_views, test_views, ytr, yte, _, _ = cli._prepared(doc)
        assert ytr.size and yte.size and ytr.size + yte.size == 300


def test_cli_trains_and_synthesizes_on_idx_files(tmp_path, capsys):
    digits = synth_data.make_digits_like(300)
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx(images, labels, digits.features, digits.labels)
    doc = {"seed": 0,
           "dataset": {"kind": "idx", "images": str(images),
                       "labels": str(labels), "tiny_size": 5},
           "partition": {"kind": "image_columns", "participants": 2},
           "protocol": "splitnn",
           "model": {"local_hidden": [8], "top_hidden": [8]},
           "train": {"epochs": 1},
           "synthesis": {"max_rounds": 2, "inner_steps": 2, "n_inputs": 2}}
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", str(path), "--output-dir", str(out)]) == 0
    assert cli.main(["synthesize", str(path), "--output-dir", str(out),
                     "--checkpoint", str(out / "checkpoint.json")]) == 0
    assert (out / "candidates.jsonl").exists()
    assert "synthesize: success_rate=" in capsys.readouterr().out
