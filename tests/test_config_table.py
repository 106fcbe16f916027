"""The CLI's config table: the keys it accepts, the keys a kind needs, and
the defaults a run gets for the keys a config omits."""
import json

import pytest

from test_cli import CREDIT, DIGITS, _report, _run, credit_ckpt  # noqa: F401
from vflkit import assessment, cli
from vflkit.fuzzer import CampaignConfig
from vflkit.synthesis import SynthesisConfig


@pytest.mark.parametrize("section, spec, key", [
    ("dataset", {"kind": "csv"}, "dataset.path"),
    ("dataset", {"kind": "idx", "labels": "labels.idx"}, "dataset.images"),
    ("dataset", {"kind": "idx", "images": "images.idx"}, "dataset.labels"),
    ("partition", {"kind": "counts"}, "partition.counts"),
    ("partition", {"kind": "ratio"}, "partition.ratio"),
])
def test_missing_key_exits_one_and_names_it(tmp_path, capsys, section, spec,
                                            key):
    code, _ = _run(tmp_path, {**CREDIT, section: spec}, "train")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:")
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, key", [("dataset", "n_test"),
                                          ("svd", "synthesis")])
def test_key_nothing_reads_is_unknown(tmp_path, capsys, section, key):
    doc = {**CREDIT, section: {**CREDIT.get(section, {}), key: {}}}
    code, out = _run(tmp_path, doc, "train")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: unknown config key {section}.{key}")
    assert not out.exists()


def _spelled(doc):
    """``doc`` with every key it omits spelled out at its default: the
    table's, or, for a SynthesisConfig or CampaignConfig field the table
    leaves to the dataclass, the dataclass's."""
    fields = {"synthesis": SynthesisConfig(), "fuzz": CampaignConfig()}
    out = json.loads(json.dumps(doc))
    for name, default in cli._CONFIG.items():
        if not isinstance(default, dict):
            if default is not None:
                out.setdefault(name, default)
            continue
        section = out.setdefault(name, {})
        for key, value in default.items():
            if value is None and name in fields:
                value = getattr(fields[name], key, None)
            if value is not None:
                section.setdefault(key, value)
    return out


@pytest.mark.parametrize("command, flags", [
    ("dominance", ()), ("synthesize", ()),
    ("synthesize", ("--mode", "blackbox")), ("fuzz", ())])
def test_table_defaults_are_the_effective_ones(tmp_path, credit_ckpt,
                                               command, flags):
    reports, lines = {
        "dominance": (["dominance"], []),
        "synthesize": (["synthesis"], ["candidates.jsonl"]),
        "fuzz": ([], ["adis.jsonl", "campaign_log.jsonl"])}[command]
    outputs = []
    for form, doc in (("omitted", CREDIT), ("spelled", _spelled(CREDIT))):
        (tmp_path / form).mkdir()
        code, out = _run(tmp_path / form, doc, command, "--checkpoint",
                         str(credit_ckpt), *flags)
        assert code == 0
        got = {name: (out / name).read_bytes() for name in lines}
        for kind in reports:
            report = _report(out, kind)
            got[kind] = (report["rows"], report["artifact_hash"])
        outputs.append(got)
    assert outputs[0] == outputs[1]
    assert all(outputs[0].values())


def test_partition_ratio_sweep_measures_dominance_at_its_threshold(
        tmp_path, monkeypatch):
    """The sweep's dominating rates and synthesis success are taken at
    ``sweep.synthesis.threshold``."""
    seen = {"dominance": [], "success": []}
    dominating_rate, success_rate = (assessment.dominating_rate,
                                     assessment.success_rate)

    def dominance(system, adv_rows, benign, threshold, **kwargs):
        seen["dominance"].append(threshold)
        return dominating_rate(system, adv_rows, benign, threshold, **kwargs)

    def success(system, rows, cfg, tiny, benign, threshold):
        seen["success"].append((cfg.threshold, threshold))
        return success_rate(system, rows, cfg, tiny, benign, threshold)

    monkeypatch.setattr(assessment, "dominating_rate", dominance)
    monkeypatch.setattr(assessment, "success_rate", success)
    sweep = DIGITS["sweep"]
    doc = {**DIGITS, "sweep": {**sweep, "kind": "ratio", "synthesis": {
        **sweep["synthesis"], "threshold": 0.5}}}
    code, out = _run(tmp_path, doc, "sweep")
    assert code == 0
    assert seen == {"dominance": [0.5, 0.5], "success": [(0.5, 0.5)]}
    assert len(_report(out, "sweep-ratio")["rows"]) == 1
