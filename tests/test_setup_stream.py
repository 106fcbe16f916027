"""Unnormalized image sources stream into the party views.

Synthetic digits and IDX files come out of ``cli._load_dataset`` as
``RowBlocks``. ``cli._prepared`` then fills the views from their blocks
with the bytes ``split_views`` gives of the materialized data set, so the
full feature matrix never exists next to the views. ``dataset.n`` is
checked before any data is loaded, and ``vflkit variance`` counts every
benign party.
"""
import json
import tracemalloc

import numpy as np
import pytest

from vflkit import cli, synth_data
from vflkit.data import (Dataset, RowBlocks, _test_mask, load_idx,
                         mnist_column_split, split_views, write_idx)
from vflkit.protocol import (load_system, save_system, system_from_dict,
                             system_to_dict)

DIGITS = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "digits", "n": 600,
                "test_fraction": 0.25, "split_seed": 3},
    "partition": {"kind": "image_columns", "participants": 2,
                  "image_side": 28},
}


def _with(doc, **dataset):
    return {**doc, "dataset": {**doc["dataset"], **dataset}}


def _assert_same_as_materialized(doc, ds, parties):
    got = cli._prepared(doc)
    spec = mnist_column_split(parties)
    want = split_views(ds, spec, _test_mask(ds.labels, 0.25, 3))
    views = got[0] + got[1]
    assert [len(got[0]), len(got[1])] == [parties, parties]
    for g, w in zip(views, want[0] + want[1]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    for g, w in zip(got[2:4], want[2:]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[4].columns == spec.columns and got[5] is None
    for i, view in enumerate(views):
        assert view.flags.c_contiguous and view.flags.owndata
        assert not any(np.shares_memory(view, other)
                       for other in views[i + 1:])


class TestStreamedEqualsMaterialized:
    @pytest.mark.parametrize("parties", [2, 3])
    def test_digits(self, parties):
        doc = {**DIGITS, "partition": {**DIGITS["partition"],
                                       "participants": parties}}
        assert isinstance(cli._load_dataset(doc), RowBlocks)
        _assert_same_as_materialized(doc, synth_data.make_digits_like(600),
                                     parties)

    def test_idx_round_trip(self, tmp_path):
        digits = synth_data.make_digits_like(1300, seed=2)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, digits.features, digits.labels)
        doc = _with(DIGITS, kind="idx", images=str(images),
                    labels=str(labels))
        assert isinstance(cli._load_dataset(doc), RowBlocks)
        _assert_same_as_materialized(doc, load_idx(images, labels), 2)

    def test_normalized_digits_stay_materialized(self):
        doc = _with(DIGITS, normalize=True)
        assert isinstance(cli._load_dataset(doc), Dataset)
        mean, std = cli._prepared(doc)[5]
        assert mean.shape == std.shape == (784,)


class TestRowBlocks:
    def test_blocks_read_twice_fill_no_views(self):
        rows = synth_data.digit_rows(30)
        spec = mnist_column_split(2)
        mask = _test_mask(rows.labels, 0.2, 1)
        split_views(rows, spec, mask)
        with pytest.raises(ValueError, match="hold 0 rows, expected 30"):
            split_views(rows, spec, mask)

    def test_blocks_missing_rows_are_refused(self):
        labels = np.arange(4) % 2
        blocks = iter([(slice(0, 3), np.ones((3, 2)))])
        with pytest.raises(ValueError, match="hold 3 rows, expected 4"):
            RowBlocks(labels, ["a", "b"], blocks).dataset()

    def test_truncated_idx_exits_two_before_any_pixel(self, tmp_path,
                                                      capsys):
        digits = synth_data.make_digits_like(20)
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx(images, labels, digits.features, digits.labels)
        images.write_bytes(images.read_bytes()[:-1])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_with(
            DIGITS, kind="idx", images=str(images), labels=str(labels))),
            encoding="utf-8")
        code = cli.main(["train", str(path), "--output-dir",
                         str(tmp_path / "out")])
        assert code == 2
        assert "truncated pixel data" in capsys.readouterr().err


def test_setup_peak_is_near_the_views():
    """On 2,500 digits the traced peak of ``_prepared`` is at most 1.6x the
    views' bytes: no (n, d) matrix exists next to them."""
    doc = _with(DIGITS, n=2500, test_fraction=0.2, split_seed=1)
    cli._prepared(_with(doc, n=50))          # loads the modules first
    tracemalloc.start()
    try:
        out = cli._prepared(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    views = sum(v.nbytes for v in out[0] + out[1])
    assert views == 2500 * 28 * 28 * 8
    assert peak <= 1.6 * views


class TestDatasetSize:
    """A ``dataset.n`` that is not a positive integer exits 1 naming the
    key, before any data is loaded, whether the data set streams or not."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("name", ["digits", "credit"])
    @pytest.mark.parametrize("value", [0, -5, True, 2.5])
    def test_exits_one_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                      command, name, value):
        loaded = []
        monkeypatch.setattr(cli, "_load_dataset", loaded.append)
        doc = _with(DIGITS, name=name, n=value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main([command, str(path), "--output-dir",
                         str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: dataset: n must be a positive "
                              f"integer, got {value!r}")
        assert not loaded

    def test_a_given_size_is_the_size(self):
        doc = {"dataset": {"kind": "synthetic", "name": "credit", "n": 300},
               "partition": {"kind": "counts", "counts": [13, 10]}}
        _, _, ytr, yte, _, _ = cli._prepared(doc)
        assert ytr.size + yte.size == 300


CREDIT = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "credit", "n": 1000,
                "test_fraction": 0.2, "split_seed": 1},
    "partition": {"kind": "counts", "counts": [13, 10]},
    "protocol": "heterolr",
    "train": {"epochs": 3},
    "variance": {"n_mc": 300, "k": 2},
}


def _split_benign_party(system, at: int):
    """The system with its benign party split after its ``at``-th column,
    the first-layer weights split the same way; the second half carries no
    bias, so every joint score is unchanged."""
    doc = system_to_dict(system)
    cols = doc["partition"][1]
    doc["partition"][1:] = [cols[:at], cols[at:]]
    entry = doc["participants"][1]
    layer = entry["model"]["layers"][0]
    halves = []
    for part, (start, stop) in enumerate([(0, at), (at, len(cols))]):
        weights = [row[start:stop] for row in layer["weights"]]
        bias = layer["bias"] if part == 0 else [0.0] * len(layer["bias"])
        halves.append({"id": f"{entry['id']}-{part}", "model": {
            **entry["model"], "layers": [{**layer, "in": stop - start,
                                          "weights": weights,
                                          "bias": bias}]}})
    doc["participants"][1:] = halves
    return system_from_dict(doc)


def test_variance_counts_every_benign_party(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CREDIT), encoding="utf-8")
    two = tmp_path / "two"
    assert cli.main(["train", str(path), "--output-dir", str(two)]) == 0
    assert cli.main(["variance", str(path), "--output-dir", str(two),
                     "--checkpoint", str(two / "checkpoint.json")]) == 0
    want = capsys.readouterr().out.splitlines()[-1]

    system = _split_benign_party(load_system(two / "checkpoint.json"), 5)
    three = tmp_path / "three"
    three.mkdir()
    save_system(system, three / "checkpoint.json")
    path.write_text(json.dumps(
        {**CREDIT, "partition": {"kind": "counts", "counts": [13, 5, 5]}}),
        encoding="utf-8")
    assert cli.main(["variance", str(path), "--output-dir", str(three),
                     "--checkpoint", str(three / "checkpoint.json")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == want
    rows = [json.loads(p.read_text(encoding="utf-8"))["rows"]
            for d in (two, three) for p in d.glob("variance-*.json")]
    assert len(rows) == 2 and rows[0] == rows[1]
