"""Partition and attack settings are checked, not coerced, before any data
set loads: a bad one exits 1 with a ``config error:`` line naming its key,
and ``_load_dataset`` is never called."""
import json
from pathlib import Path

import pytest

from vflkit import cli

CREDIT = {
    "dataset": {"kind": "synthetic", "name": "credit", "n": 300},
    "partition": {"kind": "counts", "counts": [13, 10]},
    "protocol": "heterolr",
    "train": {"epochs": 1},
}

DIGITS = {
    "dataset": {"kind": "synthetic", "name": "digits", "n": 300},
    "partition": {"kind": "image_columns", "participants": 2},
    "protocol": "splitnn",
}


def _fails_before_loading(tmp_path, capsys, monkeypatch, command, doc,
                          start):
    loaded = []
    monkeypatch.setattr(cli, "_load_dataset", loaded.append)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main([command, str(path), "--output-dir",
                     str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {start}"), err
    assert "Traceback" not in err
    assert not loaded


@pytest.mark.parametrize("base, keys, start", [
    (CREDIT, {"counts": [13.9, "10"]}, "partition: counts must be"),
    (CREDIT, {"counts": [13.0, 10.0]}, "partition: counts must be"),
    (CREDIT, {"counts": [13, True]}, "partition: counts must be"),
    (CREDIT, {"counts": []}, "partition: counts must be"),
    (CREDIT, {"counts": 23}, "partition: counts must be"),
    (CREDIT, {"counts": [0, 23]}, "partition counts must be positive"),
    (CREDIT, {"kind": "ratio", "ratio": True}, "partition: ratio must be"),
    (CREDIT, {"kind": "ratio", "ratio": "2"}, "partition: ratio must be"),
    (CREDIT, {"kind": "ratio", "ratio": 0}, "partition: ratio must be"),
    (CREDIT, {"kind": "ratio", "ratio": float("inf")},
     "partition: ratio must be"),
    (CREDIT, {"kind": "nope"}, "unknown partition kind 'nope'"),
    (DIGITS, {"participants": 2.7}, "partition: participants must be"),
    (DIGITS, {"participants": 0}, "partition: participants must be"),
    (DIGITS, {"counts": [14.5, "14"]}, "partition: counts must be"),
    (DIGITS, {"counts": [-1, 29]}, "partition counts must be positive"),
    (DIGITS, {"image_side": 28.0}, "partition: image_side must be"),
    (DIGITS, {"image_side": 0}, "partition: image_side must be"),
    (DIGITS, {"counts": [14, 13]}, "partition: column counts must sum to 28"),
    (DIGITS, {"participants": 4}, "partition: unsupported participant count 4"),
    (DIGITS, {"image_side": 20}, "partition: column counts must sum to 20")])
def test_bad_partition_setting(tmp_path, capsys, monkeypatch, base, keys,
                               start):
    doc = {**base, "partition": {**base["partition"], **keys}}
    _fails_before_loading(tmp_path, capsys, monkeypatch, "train", doc, start)


# No checkpoint is given: the bad key, not the missing path, is reported.
@pytest.mark.parametrize("command, section, keys, start", [
    ("fuzz", "fuzz", {"energy": 0}, "fuzz: energy must be"),
    ("fuzz", "fuzz", {"mask_weight": 2}, "fuzz: mask_weight must be"),
    ("fuzz", "fuzz", {"bound_multiplier": 0},
     "fuzz: bound_multiplier must be"),
    ("fuzz", "fuzz", {"bound_multiplier": "2"},
     "fuzz: bound_multiplier must be"),
    ("synthesize", "synthesis", {"strategy": "nope"},
     "synthesis: unknown strategy 'nope'"),
    ("synthesize", "synthesis", {"momentum": 1.0},
     "synthesis: momentum must lie in"),
    ("synthesize", "synthesis", {"bound_multiplier": -1},
     "synthesis: bound_multiplier must be"),
    ("synthesize", "synthesis", {"strategy": "bounded",
                                 "bound_multiplier": True},
     "synthesis: bound_multiplier must be"),
    ("svd", "synthesis", {"max_rounds": -1},
     "synthesis: max_rounds must be"),
    ("svd", "synthesis", {"mode": "greybox"},
     "synthesis: unknown mode 'greybox'"),
    ("sweep", "sweep", {"synthesis": {"strategy": "nope"}},
     "sweep.synthesis: unknown strategy 'nope'"),
    ("sweep", "sweep", {"synthesis": {"bogus": 1}},
     "unknown config key sweep.synthesis.bogus"),
    ("sweep", "sweep", {"synthesis": {"bound_multiplier": 0}},
     "sweep.synthesis: bound_multiplier must be"),
    ("sweep", "sweep", {"synthesis": 5},
     "config key 'sweep.synthesis' must be an object"),
    ("sweep", "sweep", {"ratios": ["2"]}, "sweep: ratios must be"),
    ("sweep", "sweep", {"kind": "participants", "counts": [2.0]},
     "sweep: counts must be")])
def test_bad_attack_setting(tmp_path, capsys, monkeypatch, command, section,
                            keys, start):
    doc = {**CREDIT, section: keys}
    _fails_before_loading(tmp_path, capsys, monkeypatch, command, doc, start)


# A command creates its output directory only once every setting it reads
# has been checked.
@pytest.mark.parametrize("command, section, keys, start", [
    ("train", "partition", {"counts": [0, 23]},
     "partition counts must be positive"),
    ("dominance", "partition", {"counts": [0, 23]},
     "partition counts must be positive"),
    ("synthesize", "partition", {"counts": [0, 23]},
     "partition counts must be positive"),
    ("fuzz", "fuzz", {"energy": 0}, "fuzz: energy must be"),
    ("variance", "partition", {"counts": [0, 23]},
     "partition counts must be positive"),
    ("svd", "partition", {"counts": [0, 23]},
     "partition counts must be positive"),
    ("sweep", "sweep", {"n_synth": 0}, "sweep: n_synth must be")])
def test_bad_setting_leaves_no_output_dir(tmp_path, capsys, monkeypatch,
                                          command, section, keys, start):
    doc = {**CREDIT, section: {**CREDIT.get(section, {}), **keys}}
    _fails_before_loading(tmp_path, capsys, monkeypatch, command, doc, start)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "dominance", "synthesize",
                                     "fuzz", "variance", "svd", "sweep"])
def test_output_dir_in_the_way_stops_before_loading(tmp_path, capsys,
                                                    monkeypatch, command):
    # The directory is created before the data loads, so a file in its
    # place stops the command before any work.
    loaded = []
    monkeypatch.setattr(cli, "_load_dataset", loaded.append)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CREDIT), encoding="utf-8")
    (tmp_path / "out").write_text("", encoding="utf-8")
    code = cli.main([command, str(path), "--output-dir", str(tmp_path / "out"),
                     "--checkpoint", str(tmp_path / "checkpoint.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error: "), err
    assert not loaded


@pytest.mark.parametrize("name, d, widths", [
    ("fuzz-credit", 23, [13, 10]),
    ("whitebox-digits", 784, [392, 392]),
    ("blackbox-digits", 784, [392, 392])])
def test_bench_partitions_pass(name, d, widths):
    path = Path(__file__).parent.parent / "bench" / "configs" / f"{name}.json"
    cfg = json.loads(path.read_text(encoding="utf-8"))
    spec = cli._partition(cli._partition_settings(cfg), d)
    assert [len(cols) for cols in spec.columns] == widths
