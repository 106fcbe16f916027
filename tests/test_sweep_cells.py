"""``vflkit sweep`` runs the pipeline of ``train``, ``dominance`` and
``synthesize`` once per partition cell, on the config's own dataset split."""
import json

import pytest

from test_cli import CREDIT, DIGITS, _report, _run
from vflkit.synthesis import SynthesisConfig

# The partition section of each cell the sweeps below run.
_DIGITS_CELLS = {
    "ratio": [(1.0, {"kind": "image_columns", "image_side": 28,
                     "counts": [14, 14]})],
    "participants": [(m, {"kind": "image_columns", "image_side": 28,
                          "participants": m}) for m in (2, 3)],
}

CREDIT_SWEEP = {**CREDIT, "sweep": {
    "kind": "ratio", "ratios": [0.5, 2.0], "n_dominance": 60, "n_synth": 3,
    "synthesis": {"max_rounds": 10, "inner_steps": 3}}}


def _sweep_rows(tmp_path, doc):
    code, out = _run(tmp_path, doc, "sweep")
    assert code == 0
    return _report(out, f"sweep-{doc['sweep']['kind']}")["rows"]


def check_cells_match_separate_runs(tmp_path, doc, cells):
    """Each row of ``doc``'s sweep equals ``train``, ``dominance`` and
    ``synthesize`` run on ``doc`` with the cell's partition section, the
    sweep's row counts and the sweep's synthesis settings."""
    sweep = doc["sweep"]
    threshold = sweep["synthesis"].get("threshold",
                                       SynthesisConfig().threshold)
    rows = _sweep_rows(tmp_path, doc)
    assert len(rows) == len(cells)
    key, dom, success = {
        "ratio": ("ratio", "dominating_rate_adv", "synthesis_success"),
        "participants": ("participants", "dominating_rate",
                         "success_random")}[sweep["kind"]]
    for i, (row, (value, partition)) in enumerate(zip(rows, cells)):
        cell = {**doc, "partition": partition,
                "dominance": {"n_rows": sweep["n_dominance"],
                              "thresholds": [threshold]},
                "synthesis": {**sweep["synthesis"],
                              "n_inputs": sweep["n_synth"]}}
        cell_dir = tmp_path / f"cell{i}"
        cell_dir.mkdir()
        code, trained = _run(cell_dir, cell, "train")
        assert code == 0
        ckpt = ("--checkpoint", str(trained / "checkpoint.json"))
        with open(trained / "metrics.json", encoding="utf-8") as fh:
            metrics = json.load(fh)
        code, dominance = _run(cell_dir, cell, "dominance", *ckpt)
        assert code == 0
        code, synthesis = _run(cell_dir, cell, "synthesize", *ckpt)
        assert code == 0
        assert row[key] == value
        assert row["accuracy"] == metrics["accuracy"]
        assert row[dom] == \
            _report(dominance, "dominance")["rows"][0]["dominating_rate"]
        assert row[success] == \
            _report(synthesis, "synthesis")["rows"][0]["success_rate"]


@pytest.mark.parametrize("kind", ["ratio", "participants"])
def test_digits_cells_match_separate_runs(tmp_path, kind):
    doc = {**DIGITS, "sweep": {**DIGITS["sweep"], "kind": kind}}
    check_cells_match_separate_runs(tmp_path, doc, _DIGITS_CELLS[kind])


def test_tabular_ratio_cells_match_separate_runs(tmp_path):
    """A ratio sweep of a HeteroLR system on tabular data splits its
    columns, not image columns."""
    check_cells_match_separate_runs(
        tmp_path, CREDIT_SWEEP,
        [(r, {"kind": "ratio", "ratio": r}) for r in (0.5, 2.0)])


def test_heterolr_sweep_report_lists_no_splitnn_layers(tmp_path):
    code, out = _run(tmp_path, CREDIT_SWEEP, "sweep")
    assert code == 0
    assert _report(out, "sweep-ratio")["config"]["train"] == CREDIT["train"]


@pytest.mark.parametrize("key, value", [
    ("test_fraction", 0.3), ("split_seed", 2), ("tiny_size", 3),
    ("tiny_seed", 6)])
def test_sweep_honours_the_dataset_keys(tmp_path, key, value):
    doc = {**DIGITS, "sweep": {**DIGITS["sweep"], "kind": "participants"}}
    changed = {**doc, "dataset": {**doc["dataset"], key: value}}
    (tmp_path / "base").mkdir()
    (tmp_path / "changed").mkdir()
    assert _sweep_rows(tmp_path / "base", doc) != \
        _sweep_rows(tmp_path / "changed", changed)
