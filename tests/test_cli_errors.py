"""The CLI's error contract: a bad config exits 1 with a ``config error:``
line, a missing data file exits 2 with a ``data error:`` line, and neither
prints a traceback. A bad ``fuzz.corpus``, ``dominance.*`` or
``variance.*`` value is named before any data set is loaded."""
import json

import pytest

from vflkit import cli

CREDIT = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "credit", "n": 300},
    "partition": {"kind": "counts", "counts": [13, 10]},
    "protocol": "heterolr",
    "train": {"epochs": 1},
}


def _main(tmp_path, text, command, *flags):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    return cli.main([command, str(path), "--output-dir",
                     str(tmp_path / "out"), *flags])


def _with(section, **keys):
    return json.dumps({**CREDIT, section: {**CREDIT.get(section, {}),
                                           **keys}})


_MISSING = "no-such-checkpoint.json"

# (config text, None for no file; command; flags; exit code; the start of
# the stderr line).
_CASES = {
    "dataset kind": (_with("dataset", kind="nope"), "train", (), 1,
                     "config error: unknown dataset kind 'nope'"),
    "synthetic name": (_with("dataset", name="nope"), "train", (), 1,
                       "config error: unknown synthetic dataset 'nope'"),
    "partition kind": (_with("partition", kind="nope"), "train", (), 1,
                       "config error: unknown partition kind 'nope'"),
    "protocol": (json.dumps({**CREDIT, "protocol": "nope"}), "train", (), 1,
                 "config error: unknown protocol 'nope'"),
    "sweep kind": (_with("sweep", kind="nope"), "sweep", (), 1,
                   "config error: unknown sweep kind 'nope'"),
    "counts sum": (_with("partition", counts=[13, 9]), "train", (), 1,
                   "config error: partition counts sum to 22, dataset has "
                   "23\n"),
    "negative count": (_with("partition", counts=[-1, 24]), "train", (), 1,
                       "config error: partition counts must be positive, "
                       "got [-1, 24]\n"),
    "zero count": (_with("partition", counts=[0, 23]), "train", (), 1,
                   "config error: partition counts must be positive"),
    "empty ratio party": (_with("partition", kind="ratio", ratio=0.01),
                          "train", (), 1, "config error: partition: ratio "
                          "0.01 leaves an empty partition for d=23\n"),
    "empty sweep ratio party": (_with("sweep", ratios=[1.0, 0.01]), "sweep",
                                (), 1, "config error: sweep.ratios: ratio "
                                "0.01 leaves an empty partition for d=23\n"),
    "no checkpoint": (json.dumps(CREDIT), "dominance", (), 1,
                      "config error: a checkpoint path is required"),
    "checkpoint not found": (json.dumps(CREDIT), "dominance",
                             ("--checkpoint", _MISSING), 2,
                             f"data error: checkpoint not found: {_MISSING}"),
    "config not found": (None, "train", (), 1,
                         "config error: config file not found: "),
    "malformed JSON": ("{", "train", (), 1,
                       "config error: malformed config JSON"),
    "not an object": ("[1]", "train", (), 1,
                      "config error: config must be a JSON object\n"),
    "section not an object": (json.dumps({**CREDIT, "dataset": 5}), "train",
                              (), 1, "config error: config key 'dataset' "
                                     "must be an object\n"),
    "top-level key": (json.dumps({**CREDIT, "nope": 1}), "train", (), 1,
                      "config error: unknown config key 'nope'\n"),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_error_branch(tmp_path, capsys, case):
    text, command, flags, code, line = _CASES[case]
    assert _main(tmp_path, text, command, *flags) == code
    err = capsys.readouterr().err
    assert err.startswith(line), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, section, key, value", [
    ("fuzz", "fuzz", "corpus", "sample:0"),
    ("fuzz", "fuzz", "corpus", "sample:-3"),
    ("fuzz", "fuzz", "corpus", "sample:abc"),
    ("fuzz", "fuzz", "corpus", "sample:"),
    ("fuzz", "fuzz", "corpus", "sample:1.5"),
    ("fuzz", "fuzz", "corpus", "rows"),
    ("fuzz", "fuzz", "corpus", 5),
    ("dominance", "dominance", "n_rows", 0),
    ("dominance", "dominance", "thresholds", []),
    ("dominance", "dominance", "thresholds", [1.5]),
    ("dominance", "dominance", "thresholds", [0]),
    ("dominance", "dominance", "thresholds", [0.5, True]),
    ("dominance", "dominance", "thresholds", ["0.5"]),
    ("dominance", "dominance", "thresholds", 0.95),
    ("variance", "variance", "n_mc", 0),
    ("variance", "variance", "n_mc", 1),
    ("variance", "variance", "n_mc", 2000.0),
    ("variance", "variance", "k", 0),
    ("variance", "variance", "k", "a"),
    ("variance", "variance", "k", True),
    ("variance", "variance", "em_seed", -1),
    ("variance", "variance", "em_seed", 0.5)])
def test_bad_attack_setting_before_loading(tmp_path, capsys, monkeypatch,
                                           command, section, key, value):
    loaded = []
    monkeypatch.setattr(cli, "_load_dataset", loaded.append)
    code = _main(tmp_path, _with(section, **{key: value}), command,
                 "--checkpoint", str(tmp_path / "checkpoint.json"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {section}: {key} must be"), err
    assert repr(value) in err
    assert not loaded
