"""Characterization tests for the assessment studies, pinned to
``tests/golden/assessment.json``."""
import numpy as np

import golden
from vflkit import synth_data
from vflkit.assessment import (ExperimentReport, participants_sweep,
                               partition_ratio_sweep, report_filename,
                               reward_shares, _split_bound)
from vflkit.synthesis import SynthesisConfig, default_bound

TRAIN = {"local_hidden": [16], "top_hidden": [16], "epochs": 4, "lr": 0.1,
         "batch": 32}


def _rows(report):
    return {"config": report.config, "rows": report.rows}


def test_reward_shares_credit(credit_setup):
    views = [v[:200] for v in credit_setup["test_views"]]
    shares, degenerate = reward_shares(credit_setup["system"], views)
    golden.check("assessment", "reward-shares-credit",
                 {"shares": shares, "degenerate": degenerate})


def test_reward_shares_digits(digits_setup):
    views = [v[:200] for v in digits_setup["test_views"]]
    shares, degenerate = reward_shares(digits_setup["system"], views)
    golden.check("assessment", "reward-shares-digits",
                 {"shares": shares, "degenerate": degenerate})


def test_ratio_sweep_on_tabular_data_with_bounded_synthesis():
    ds = synth_data.make_vehicle_like(300)
    # The sweep replaces this bound by each split's own adversary bound.
    cfg = SynthesisConfig(strategy="bounded", bound=np.ones(1), max_rounds=4,
                          inner_steps=3, inner_lr=0.5)
    report = partition_ratio_sweep(ds.features, ds.labels, [0.5, 2.0], None,
                                   TRAIN, cfg, n_dominance=40, n_synth=3,
                                   seed=2)
    golden.check("assessment", "ratio-sweep-tabular-bounded", _rows(report))


def test_participants_sweep_with_both_strategies():
    ds = synth_data.make_digits_like(300, seed=21)
    random = SynthesisConfig(max_rounds=4, inner_steps=3, inner_lr=0.5)
    bounded = SynthesisConfig(strategy="bounded", bound=np.ones(1),
                              max_rounds=4, inner_steps=3, inner_lr=0.5)
    report = participants_sweep(ds.features, ds.labels, [2, 5], TRAIN,
                                random, bounded, n_dominance=40, n_synth=3,
                                seed=3)
    golden.check("assessment", "participants-sweep-both", _rows(report))


def test_split_bound_carries_the_multiplier():
    view = np.random.default_rng(4).standard_normal((50, 6))
    cfg = SynthesisConfig(strategy="bounded", bound=np.ones(1))
    for mult in (0.01, 1.0, 100.0):
        bound = _split_bound(cfg, view, mult).bound
        assert bound.tobytes() == default_bound(view, mult).tobytes()
    random = SynthesisConfig()
    assert _split_bound(random, view, 100.0) is random


def test_ratio_sweep_honours_the_bound_multiplier():
    ds = synth_data.make_vehicle_like(300)
    cfg = SynthesisConfig(strategy="bounded", bound=np.ones(1), max_rounds=4,
                          inner_steps=3, inner_lr=0.5)
    rows = {mult: partition_ratio_sweep(ds.features, ds.labels, [0.5, 2.0],
                                        None, TRAIN, cfg, n_dominance=40,
                                        n_synth=3, seed=2,
                                        bound_multiplier=mult).rows
            for mult in (0.01, 100.0)}
    assert rows[0.01] != rows[100.0]


def test_report_names_follow_kind_config_and_seed():
    def report(config, seed=3):
        return ExperimentReport("svd", config, ["k"], [{"k": 1}], seed,
                                wallclock_secs=seed / 7)

    first = report_filename("svd", report({"h": 2, "tiny": 5}), "csv")
    assert first == f"svd-3-{report({'h': 2, 'tiny': 5}).artifact_hash}.csv"
    # The same config gives the same name, whatever the wall time or the
    # order of the keys; any other config or seed gives another one.
    again = report({"tiny": 5, "h": 2})
    again.wallclock_secs = 99.0
    assert report_filename("svd", again, "csv") == first
    assert report_filename("svd", report({"h": 3, "tiny": 5}), "csv") != first
    assert report_filename("svd", report({"h": 2, "tiny": 5}, 4),
                           "csv").startswith("svd-4-")
