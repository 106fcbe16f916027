"""Characterization tests for the assessment studies, pinned to
``tests/golden/assessment.json``, and the CLI sweeps built on them."""
import golden
from test_cli import _report, _run
from test_sweep_cells import check_cells_match_separate_runs
from vflkit.assessment import ExperimentReport, report_filename, reward_shares

# A two-party split network on a small tabular dataset, swept over two
# column ratios with bounded synthesis.
VEHICLE_SWEEP = {
    "seed": 2,
    "dataset": {"kind": "synthetic", "name": "vehicle", "n": 300},
    "partition": {"kind": "ratio", "ratio": 1.0},
    "protocol": "splitnn",
    "model": {"local_hidden": [16], "top_hidden": [16]},
    "train": {"epochs": 4, "lr": 0.1, "batch": 32},
    "sweep": {"kind": "ratio", "ratios": [0.5, 2.0], "n_dominance": 40,
              "n_synth": 3,
              "synthesis": {"strategy": "bounded", "max_rounds": 4,
                            "inner_steps": 3, "inner_lr": 0.5}},
}


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


def test_ratio_sweep_on_tabular_data_with_bounded_synthesis(tmp_path):
    """Each cell is bounded by its own adversary train view, as
    ``synthesize`` bounds the cell's config."""
    check_cells_match_separate_runs(
        tmp_path, VEHICLE_SWEEP,
        [(r, {"kind": "ratio", "ratio": r}) for r in (0.5, 2.0)])


def test_ratio_sweep_honours_the_bound_multiplier(tmp_path):
    rows = {}
    for mult in (0.01, 100.0):
        doc = {**VEHICLE_SWEEP, "sweep": {**VEHICLE_SWEEP["sweep"]}}
        doc["sweep"]["synthesis"] = {**doc["sweep"]["synthesis"],
                                     "bound_multiplier": mult}
        (tmp_path / str(mult)).mkdir()
        code, out = _run(tmp_path / str(mult), doc, "sweep")
        assert code == 0
        rows[mult] = _report(out, "sweep-ratio")["rows"]
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
