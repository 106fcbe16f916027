"""The class-means tables: ``make_vehicle_like`` and
``make_multimodal_like`` keep their contracts and their bytes."""
import json

import numpy as np
import pytest

from vflkit import cli, synth_data


def _vehicle_reference(n, seed):
    """``make_vehicle_like``'s body before the shared class-means table."""
    rng = np.random.default_rng(seed)
    mean_rng = np.random.default_rng(seed + 1)
    means = mean_rng.standard_normal((4, 18)) * 0.55
    labels = rng.integers(0, 4, size=n)
    x = means[labels] + rng.standard_normal((n, 18))
    return x, labels.astype(np.int64)


def _multimodal_reference(n, seed):
    """``make_multimodal_like``'s body before the shared class-means
    table."""
    rng = np.random.default_rng(seed)
    mean_rng = np.random.default_rng(seed + 1)
    means = mean_rng.standard_normal((10, 1634)) * 0.35
    labels = rng.integers(0, 10, size=n).astype(np.int64)
    x = means[labels] + rng.standard_normal((n, 1634))
    return x, labels


@pytest.mark.parametrize("make, reference", [
    (synth_data.make_vehicle_like, _vehicle_reference),
    (synth_data.make_multimodal_like, _multimodal_reference)])
@pytest.mark.parametrize("n, seed", [(946, 11), (50, 3), (1, 0)])
def test_same_bytes_as_the_reference(make, reference, n, seed):
    ds = make(n, seed)
    x, labels = reference(n, seed)
    assert ds.features.tobytes() == x.tobytes()
    assert ds.labels.dtype == np.int64
    assert ds.labels.tobytes() == labels.tobytes()


def test_multimodal_contract():
    ds = synth_data.make_multimodal_like(200)
    assert ds.features.shape == (200, 1634)
    assert ds.feature_names == [f"img{i:03d}" for i in range(634)] + \
        [f"txt{i:03d}" for i in range(1000)]
    assert ds.labels.min() >= 0 and ds.labels.max() < 10
    assert ds.n_classes == 10


def test_cli_trains_on_multimodal(tmp_path, capsys):
    doc = {"seed": 0,
           "dataset": {"kind": "synthetic", "name": "multimodal", "n": 300},
           "partition": {"kind": "counts", "counts": [634, 1000]},
           "protocol": "linear_softmax", "train": {"epochs": 2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", str(path), "--output-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("train: accuracy=")
    with open(out / "metrics.json", encoding="utf-8") as fh:
        metrics = json.load(fh)
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert np.isfinite(metrics["final_loss"])
