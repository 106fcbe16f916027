"""Characterization tests for the command-line entry point.

Every subcommand runs in-process on a tiny config; its report rows and
candidate/campaign files are pinned to ``tests/golden/cli.json``.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
from vflkit import assessment, cli, synth_data
from vflkit.data import PartitionSpec, partition_vertical
from vflkit.protocol import train_splitnn

CREDIT = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "credit", "n": 1000,
                "test_fraction": 0.2, "split_seed": 1,
                "tiny_size": 10, "tiny_seed": 5},
    "partition": {"kind": "counts", "counts": [13, 10]},
    "protocol": "heterolr",
    "train": {"epochs": 5, "lr": 0.05, "batch": 64, "momentum": 0.9},
    "dominance": {"n_rows": 100},
    "synthesis": {"max_rounds": 10, "inner_steps": 3, "n_inputs": 4},
    "fuzz": {"corpus": "sample:3", "max_iter": 8, "energy": 2,
             "bound_multiplier": 3.0},
}

DIGITS = {
    "seed": 0,
    "dataset": {"kind": "synthetic", "name": "digits", "n": 400,
                "test_fraction": 0.2, "split_seed": 1,
                "tiny_size": 6, "tiny_seed": 5},
    "partition": {"kind": "image_columns", "counts": [14, 14],
                  "image_side": 28},
    "protocol": "splitnn",
    "model": {"local_hidden": [16], "top_hidden": [16]},
    "train": {"epochs": 5, "lr": 0.1, "batch": 32},
    "synthesis": {"max_rounds": 4, "inner_steps": 3, "inner_lr": 0.5,
                  "n_inputs": 2},
    "svd": {"h": 4, "ks": [1, 2], "target_offset": 3},
    "sweep": {"ratios": [1.0], "counts": [2, 3], "n_dominance": 30,
              "n_synth": 3,
              "synthesis": {"max_rounds": 6, "inner_steps": 3,
                            "inner_lr": 0.5}},
}


def _write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path)


def _run(tmp_path, doc, command, *flags):
    out = tmp_path / command
    cfg = _write_config(tmp_path / f"{command}.json", doc)
    code = cli.main([command, cfg, "--output-dir", str(out), *flags])
    return code, out


def _report(out, kind):
    """Rows, config and hash of the one report of ``kind`` in ``out``;
    report names carry a timestamp, hence the glob."""
    paths = sorted(out.glob(f"{kind}-*.json"))
    assert len(paths) == 1, paths
    with open(paths[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    return {key: doc[key] for key in
            ("kind", "config", "columns", "rows", "seed", "artifact_hash")}


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def credit_ckpt(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("credit")
    code, out = _run(tmp, CREDIT, "train")
    assert code == 0
    return out / "checkpoint.json"


@pytest.fixture(scope="module")
def digits_ckpt(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digits")
    code, out = _run(tmp, DIGITS, "train")
    assert code == 0
    return out / "checkpoint.json"


class TestCommands:
    def test_train(self, credit_ckpt, digits_ckpt):
        for name, ckpt in (("credit", credit_ckpt), ("digits", digits_ckpt)):
            with open(ckpt.parent / "metrics.json", encoding="utf-8") as fh:
                golden.check("cli", f"train-{name}", json.load(fh))

    def test_dominance(self, tmp_path, credit_ckpt):
        code, out = _run(tmp_path, CREDIT, "dominance",
                         "--checkpoint", str(credit_ckpt))
        assert code == 0
        golden.check("cli", "dominance", _report(out, "dominance"))

    @pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
    def test_synthesize(self, tmp_path, credit_ckpt, mode):
        code, out = _run(tmp_path, CREDIT, "synthesize",
                         "--checkpoint", str(credit_ckpt), "--mode", mode)
        assert code == 0
        golden.check("cli", f"synthesize-{mode}", {
            "report": _report(out, "synthesis"),
            "candidates": _jsonl(out / "candidates.jsonl")})

    def test_fuzz(self, tmp_path, credit_ckpt):
        code, out = _run(tmp_path, CREDIT, "fuzz",
                         "--checkpoint", str(credit_ckpt))
        assert code == 0
        golden.check("cli", "fuzz", {
            "adis": _jsonl(out / "adis.jsonl"),
            "log": _jsonl(out / "campaign_log.jsonl")})

    def test_fuzz_prints_distinct_rows(self, tmp_path, capsys, credit_ckpt):
        code, out = _run(tmp_path, CREDIT, "fuzz",
                         "--checkpoint", str(credit_ckpt))
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("fuzz: ")
        printed = dict(field.split("=") for field in line.split()[1:])
        adis = _jsonl(out / "adis.jsonl")
        for thr, key in ((0.95, "distinct_rows_at_95"),
                         (0.99, "distinct_rows_at_99")):
            rows = {json.dumps(a["base"]) for a in adis if a["r"] >= thr}
            assert int(printed[key]) == len(rows)
        assert int(printed["adis_found"]) == len(adis)
        # This campaign hits the same corpus row more than once.
        assert 0 < int(printed["distinct_rows_at_95"]) < len(adis)

    def test_variance_fixture(self, tmp_path):
        doc = {"seed": 3, "variance": {
            "n_mc": 2000, "fixture": {"weights": [0.4, 0.6],
                                      "mus": [-1.0, 0.5],
                                      "sigmas": [0.5, 1.5]}}}
        code, out = _run(tmp_path, doc, "variance")
        assert code == 0
        golden.check("cli", "variance", _report(out, "variance"))

    def test_svd(self, tmp_path, digits_ckpt):
        code, out = _run(tmp_path, DIGITS, "svd",
                         "--checkpoint", str(digits_ckpt))
        assert code == 0
        spectrum = np.loadtxt(out / "singular_values.csv", delimiter=",",
                              skiprows=1)
        golden.check("cli", "svd", {"report": _report(out, "svd"),
                                    "spectrum": spectrum})

    @pytest.mark.parametrize("kind", ["ratio", "participants"])
    def test_sweep(self, tmp_path, kind):
        doc = {**DIGITS, "sweep": {**DIGITS["sweep"], "kind": kind}}
        code, out = _run(tmp_path, doc, "sweep")
        assert code == 0
        golden.check("cli", f"sweep-{kind}",
                     _report(out, f"sweep-{kind}"))


class TestTrainingHistories:
    """The training loop of each protocol, through the CLI's trainer."""

    @staticmethod
    def _views(ds, n_a):
        spec = PartitionSpec([list(range(n_a)), list(range(n_a, ds.d))])
        return partition_vertical(ds, spec)

    def test_heterolr(self):
        ds = synth_data.make_credit_like(400)
        cfg = {"protocol": "heterolr", "train": {"epochs": 3, "batch": 50}}
        system, history = cli._train_system(cfg, self._views(ds, 13),
                                            ds.labels, 4)
        golden.check("cli", "history-heterolr", {
            "history": history, "bias": system.coordinator.bias})

    def test_linear_softmax(self):
        ds = synth_data.make_vehicle_like(300)
        cfg = {"protocol": "linear_softmax",
               "train": {"epochs": 3, "batch": 40, "lr": 0.1}}
        system, history = cli._train_system(cfg, self._views(ds, 9),
                                            ds.labels, 5)
        golden.check("cli", "history-linear-softmax", {
            "history": history, "bias": system.coordinator.bias})

    def test_splitnn(self):
        ds = synth_data.make_digits_like(200, seed=3)
        cfg = {"protocol": "splitnn", "train": {"epochs": 2, "batch": 32},
               "model": {"local_hidden": [8], "top_hidden": [8]}}
        system, history = cli._train_system(cfg, self._views(ds, 392),
                                            ds.labels, 6)
        top = system.coordinator.top_model.layers[0]
        golden.check("cli", "history-splitnn", {
            "history": history, "top_bias": top.bias})


def _bounded(doc, section="synthesis"):
    out = json.loads(json.dumps(doc))
    target = out["sweep"] if section == "sweep" else out
    target["synthesis"] = {**target["synthesis"], "strategy": "bounded",
                           "bound_multiplier": 0.5}
    return out


class TestBoundedStrategy:
    """A bounded strategy in the config gets the training-variance bound."""

    @pytest.mark.parametrize("flags", [(), ("--mode", "blackbox")])
    def test_synthesize_stays_inside_bound(self, tmp_path, credit_ckpt,
                                           flags):
        code, out = _run(tmp_path, _bounded(CREDIT), "synthesize",
                         "--checkpoint", str(credit_ckpt), *flags)
        assert code == 0
        bound = 0.5 * np.maximum(cli._prepared(CREDIT)[0][0].var(axis=0),
                                 1e-6)
        candidates = _jsonl(out / "candidates.jsonl")
        assert len(candidates) == CREDIT["synthesis"]["n_inputs"]
        for cand in candidates:
            assert cand["strategy"] == "bounded"
            assert np.all(np.abs(cand["v"]) <= bound + 1e-12)
        assert any(np.any(np.abs(c["v"]) > 0) for c in candidates)

    def test_mutation_flag_selects_bounded(self, tmp_path, credit_ckpt):
        code, out = _run(tmp_path, CREDIT, "synthesize", "--checkpoint",
                         str(credit_ckpt), "--mutation", "bounded")
        assert code == 0
        bound = np.maximum(cli._prepared(CREDIT)[0][0].var(axis=0), 1e-6)
        for cand in _jsonl(out / "candidates.jsonl"):
            assert cand["strategy"] == "bounded"
            assert np.all(np.abs(cand["v"]) <= bound + 1e-12)

    def test_svd(self, tmp_path, digits_ckpt):
        code, out = _run(tmp_path, _bounded(DIGITS), "svd",
                         "--checkpoint", str(digits_ckpt))
        assert code == 0
        assert _report(out, "svd")["rows"]

    @pytest.mark.parametrize("kind", ["ratio", "participants"])
    def test_sweep(self, tmp_path, kind):
        doc = _bounded(DIGITS, "sweep")
        doc["sweep"]["kind"] = kind
        code, out = _run(tmp_path, doc, "sweep")
        assert code == 0
        assert len(_report(out, f"sweep-{kind}")["rows"]) == \
            len(doc["sweep"]["ratios" if kind == "ratio" else "counts"])


class TestExitCodes:
    """Configuration errors exit 1 and data errors exit 2, both without a
    traceback."""

    @staticmethod
    def _fails(capsys, code, expected, prefix):
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith(prefix)
        assert "Traceback" not in err

    def test_unknown_strategy(self, tmp_path, capsys, credit_ckpt):
        doc = {**CREDIT, "synthesis": {**CREDIT["synthesis"],
                                       "strategy": "nope"}}
        code, _ = _run(tmp_path, doc, "synthesize",
                       "--checkpoint", str(credit_ckpt))
        self._fails(capsys, code, 1, "config error:")

    def test_unknown_synthesis_key(self, tmp_path, capsys, credit_ckpt):
        doc = {**CREDIT, "synthesis": {"max_round": 3}}
        code, _ = _run(tmp_path, doc, "synthesize",
                       "--checkpoint", str(credit_ckpt))
        self._fails(capsys, code, 1, "config error:")

    def test_unknown_sweep_synthesis_key(self, tmp_path, capsys):
        doc = {**DIGITS, "sweep": {**DIGITS["sweep"],
                                   "synthesis": {"max_round": 3}}}
        code, _ = _run(tmp_path, doc, "sweep")
        self._fails(capsys, code, 1, "config error:")

    def test_checkpoint_missing_key(self, tmp_path, capsys, credit_ckpt):
        with open(credit_ckpt, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["coordinator"]
        broken = tmp_path / "broken.json"
        _write_config(broken, doc)
        code, _ = _run(tmp_path, CREDIT, "dominance",
                       "--checkpoint", str(broken))
        self._fails(capsys, code, 2, "data error:")

    def test_dominance_threshold_outside_unit_interval(self, tmp_path,
                                                       capsys, credit_ckpt):
        doc = {**CREDIT, "dominance": {"n_rows": 100, "thresholds": [1.5]}}
        code, _ = _run(tmp_path, doc, "dominance",
                       "--checkpoint", str(credit_ckpt))
        self._fails(capsys, code, 1, "config error:")

    def test_any_dominance_threshold_in_unit_interval(self, tmp_path,
                                                      credit_ckpt):
        doc = {**CREDIT, "dominance": {"n_rows": 100, "thresholds": [0.9]}}
        code, out = _run(tmp_path, doc, "dominance",
                         "--checkpoint", str(credit_ckpt))
        assert code == 0
        rows = _report(out, "dominance")["rows"]
        assert [r["threshold"] for r in rows] == [0.9]
        assert 0.0 <= rows[0]["dominating_rate"] <= 1.0

    @pytest.mark.parametrize("key, value", [("energy", 0),
                                            ("mask_weight", 2)])
    def test_bad_fuzz_value(self, tmp_path, capsys, credit_ckpt, key, value):
        doc = {**CREDIT, "fuzz": {**CREDIT["fuzz"], key: value}}
        code, _ = _run(tmp_path, doc, "fuzz", "--checkpoint", str(credit_ckpt))
        self._fails(capsys, code, 1, "config error: fuzz:")

    @pytest.mark.parametrize("key, value", [
        ("noise_std_factor", float("nan")), ("noise_std_factor", float("inf")),
        ("noise_std_factor", -1), ("max_iter", 2.5), ("max_iter", True),
        ("energy", 1.5), ("budget_mins", -1), ("budget_mins", 0),
        ("budget_mins", float("nan"))])
    def test_bad_fuzz_number(self, tmp_path, capsys, credit_ckpt, key, value):
        doc = {**CREDIT, "fuzz": {**CREDIT["fuzz"], key: value}}
        code, _ = _run(tmp_path, doc, "fuzz", "--checkpoint", str(credit_ckpt))
        self._fails(capsys, code, 1, "config error: fuzz:")

    @pytest.mark.parametrize("key, value", [
        ("inner_steps", 1.5), ("inner_steps", "3"), ("inner_steps", None),
        ("inner_steps", True), ("max_rounds", "3"), ("max_rounds", -1),
        ("inner_lr", "x"), ("inner_lr", 0), ("n_inputs", 0),
        ("n_inputs", -1), ("n_inputs", "2"), ("fdm_step", float("nan")),
        ("alpha", float("inf"))])
    def test_bad_synthesis_value(self, tmp_path, capsys, credit_ckpt, key,
                                 value):
        doc = {**CREDIT, "synthesis": {**CREDIT["synthesis"], key: value}}
        code, _ = _run(tmp_path, doc, "synthesize",
                       "--checkpoint", str(credit_ckpt))
        self._fails(capsys, code, 1, "config error: synthesis:")


_FIXTURE = {"weights": [0.4, 0.6], "mus": [-1.0, 0.5], "sigmas": [0.5, 1.5]}


class TestBadConfigValues:
    """A config value of the wrong type or range that no key check catches
    still exits 1 with a ``config error:`` line and no traceback."""

    @pytest.mark.parametrize("command, section, key, value", [
        ("dominance", "dominance", "n_rows", "abc"),
        ("dominance", "dominance", "thresholds", "x"),
        ("fuzz", "fuzz", "corpus", "sample:abc"),
        ("fuzz", "fuzz", "corpus", [[0.0] * 13, [0.0] * 12]),
        ("fuzz", "fuzz", "corpus", [[0.0] * 12]),
        ("synthesize", "dataset", "tiny_size", 0),
        ("synthesize", "dataset", "tiny_size", "a"),
        ("train", "dataset", "n", "a"),
        ("train", "dataset", "test_fraction", 2.0),
        ("train", "train", "epochs", "a"),
        ("train", "train", "batch", 0),
        ("train", "partition", "counts", "ab"),
        ("variance", "variance", "n_mc", 0),
        ("variance", "variance", "fixture",
         {"weights": [0.4, 0.6], "sigmas": [0.5, 1.5]}),
        ("svd", "svd", "h", "a"),
    ])
    def test_exits_one(self, tmp_path, capsys, credit_ckpt, command, section,
                       key, value):
        doc = dict(CREDIT)
        if command == "variance":
            doc = {"seed": 0, "variance": {"n_mc": 2000, "fixture": _FIXTURE}}
        doc[section] = {**doc.get(section, {}), key: value}
        code, _ = _run(tmp_path, doc, command, "--checkpoint",
                       str(credit_ckpt))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:")
        assert "Traceback" not in err


def test_variance_runs_with_scipy_blocked(tmp_path):
    """``vflkit variance`` in an interpreter where importing scipy fails
    writes the rows of an in-process run."""
    doc = {"seed": 3, "variance": {"n_mc": 2000, "fixture": _FIXTURE}}
    code, out = _run(tmp_path, doc, "variance")
    assert code == 0
    blocked = tmp_path / "blocked"
    src = str(Path(cli.__file__).resolve().parents[1])
    run = ("import sys; sys.modules['scipy'] = None; sys.path.insert(0, "
           f"{src!r}); from vflkit import cli; sys.exit(cli.main(["
           f"'variance', {str(tmp_path / 'variance.json')!r}, "
           f"'--output-dir', {str(blocked)!r}]))")
    proc = subprocess.run([sys.executable, "-c", run], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert _report(blocked, "variance")["rows"] == \
        _report(out, "variance")["rows"]


@pytest.mark.parametrize("train, want", [({"momentum": 0.5}, 0.5), ({}, 0.9)])
def test_sweep_trains_with_the_configured_momentum(tmp_path, monkeypatch,
                                                   train, want):
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["momentum"])
        return train_splitnn(*args, **kwargs)

    monkeypatch.setattr(assessment, "train_splitnn", recording)
    doc = {**DIGITS, "train": {**DIGITS["train"], **train}}
    code, _ = _run(tmp_path, doc, "sweep")
    assert code == 0
    assert seen == [want]
