import json
from pathlib import Path

import pytest

import run
import workloads
from vflkit import cli

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_config_passes_cli_schema(name):
    with open(workloads.CONFIG_DIR / f"{name}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert cli.validate_config(doc) is doc
    assert workloads.load_config(name) == doc


def test_fuzz_config_is_fixed_work():
    fz = workloads.load_config("fuzz-credit")["fuzz"]
    assert "budget_mins" not in fz
    assert fz["corpus"].startswith("sample:")


def test_synthesis_workloads_differ_only_in_mode_and_size():
    white = workloads.load_config("whitebox-digits")
    black = workloads.load_config("blackbox-digits")
    assert white["synthesis"]["mode"] == "whitebox"
    assert black["synthesis"]["mode"] == "blackbox"
    for doc in (white, black):
        for key in ("mode", "n_inputs"):
            doc["synthesis"].pop(key)
    assert white == black
    # A threshold of 1.0 never stops early: every row gets max_rounds rounds.
    assert white["synthesis"]["threshold"] == 1.0


def test_benchmark_json_matches_runner():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in doc["end_to_end"])
