"""The trainers reject bad arguments, and a diverging fit still raises.

``_fit``, which all three trainers share, checks ``epochs``, ``batch``,
``lr`` and ``momentum`` before it builds anything, and raises ValueError
naming the field; ``vflkit train`` then exits 1. A fit whose parameters
blow up raises ValueError at its first non-finite output gradient.
"""
import json

import numpy as np
import pytest

from vflkit import cli
from vflkit.protocol import (splitnn_architecture, train_heterolr,
                             train_linear_joint, train_splitnn)

_X = np.random.default_rng(0).standard_normal((120, 6))
_Y2 = (_X[:, 0] - _X[:, 4] > 0).astype(np.int64)
_Y3 = np.random.default_rng(1).integers(0, 3, 120)
_VIEWS = [_X[:, :3], _X[:, 3:]]


def _heterolr(**kw):
    return train_heterolr(_VIEWS, _Y2, **kw)


def _softmax(**kw):
    return train_linear_joint(_VIEWS, _Y3, 3, **kw)


def _splitnn(**kw):
    dims, top = splitnn_architecture(_VIEWS, [4], [5], 3)
    return train_splitnn(_VIEWS, _Y3, dims, top, **kw)


_TRAINERS = {"heterolr": _heterolr, "softmax": _softmax, "splitnn": _splitnn}

_BAD = [
    ("epochs", -1),
    ("epochs", 2.5),
    ("epochs", "3"),
    ("epochs", True),
    ("batch", 0),
    ("batch", -5),
    ("batch", 2.5),
    ("batch", None),
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("lr", -0.1),
    ("lr", "0.1"),
    ("momentum", 1.0),
    ("momentum", -0.1),
    ("momentum", float("nan")),
]


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
@pytest.mark.parametrize("field, value", _BAD)
def test_bad_argument_names_its_field(trainer, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must"):
        _TRAINERS[trainer](**{"epochs": 1, field: value})


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
@pytest.mark.parametrize("rows", [119, 121])
def test_labels_must_match_the_rows(trainer, rows):
    # Extra labels used to be ignored, and missing ones raised IndexError.
    y = {"heterolr": _Y2, "softmax": _Y3, "splitnn": _Y3}[trainer]
    y = np.resize(y, rows)
    fit = {"heterolr": lambda: train_heterolr(_VIEWS, y, epochs=1),
           "softmax": lambda: train_linear_joint(_VIEWS, y, 3, epochs=1),
           "splitnn": lambda: train_splitnn(
               _VIEWS, y, *splitnn_architecture(_VIEWS, [4], [5], 3),
               epochs=1)}[trainer]
    with pytest.raises(ValueError, match=f"^{rows} labels for 120 rows"):
        fit()


def test_momentum_is_checked_when_lr_is_zero():
    with pytest.raises(ValueError, match="^momentum must"):
        _heterolr(epochs=1, lr=0.0, momentum=1.5)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch", 1), ("batch", 500), ("lr", 0.0),
    ("momentum", 0.0), ("epochs", np.int64(2)), ("lr", np.float64(0.01))])
def test_edge_values_train(field, value):
    system, history = _heterolr(**{"epochs": 1, field: value})
    assert len(history) == (value if field == "epochs" else 1)
    assert all(np.isfinite(history))


@pytest.mark.parametrize("train, field", [
    ({"batch": -5}, "batch"),
    ({"epochs": -1}, "epochs"),
    ({"lr": float("nan")}, "lr"),
    ({"batch": 2.5}, "batch"),
    ({"lr": 0.0, "momentum": 1.0}, "momentum"),
])
def test_cli_train_exits_one(tmp_path, capsys, train, field):
    doc = {
        "seed": 0,
        "dataset": {"kind": "synthetic", "name": "credit", "n": 300},
        "partition": {"kind": "counts", "counts": [13, 10]},
        "protocol": "heterolr",
        "train": {"epochs": 2, **train},
    }
    path = tmp_path / "train.json"
    # json.dumps writes NaN, which json.load reads back.
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["train", str(path), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: ValueError: {field} must")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "checkpoint.json").exists()


class TestDivergenceRaises:
    # The blow-up overflows on its way, which numpy would warn about.
    def test_heterolr_infinite_lr(self):
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
            train_heterolr(_VIEWS, _Y2, epochs=2, lr=np.inf)

    @pytest.mark.parametrize("lr", [1e200, np.inf])
    def test_splitnn(self, lr):
        with np.errstate(all="ignore"), pytest.raises(ValueError,
                                                      match="finite"):
            _splitnn(epochs=2, lr=lr)

    def test_heterolr_stops_at_the_output_gradient(self):
        # The logistic head has no top model to check its scores: 1e308
        # steps overflow the weights, and only the output gradient's check
        # stops the fit.
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^matrix entries must be finite"):
            train_heterolr(_VIEWS, _Y2, epochs=3, lr=1e308)
