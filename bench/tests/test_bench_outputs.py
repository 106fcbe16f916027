import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import vflkit
import workloads
from spans import Tracer
from vflkit.synthesis import AdiCandidate

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    prep, phases = workloads.set_up("fuzz-credit", 3,
                                    tmp_path_factory.mktemp("work"),
                                    time.perf_counter)
    return prep, phases, workloads.attack(prep)


def test_setup_reports_every_phase(fuzz_run):
    _, phases, _ = fuzz_run
    assert set(phases) == {"data_s", "train_s", "checkpoint_s", "calibrate_s"}
    assert all(v >= 0 for v in phases.values())


def test_outputs_pass_the_check(fuzz_run):
    prep, _, outcome = fuzz_run
    verdict = workloads.check(prep, outcome)
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.attempted == len(prep.rows)
    assert 0 < verdict.adis[0.99] <= verdict.adis[0.95] <= len(prep.rows)


def test_same_seed_same_digest_and_tracing_keeps_it(fuzz_run):
    prep, _, outcome = fuzz_run
    first = workloads.digest(outcome)
    assert workloads.digest(workloads.attack(prep)) == first
    with Tracer(vflkit) as tracer:
        traced = workloads.attack(prep)
    assert workloads.digest(traced) == first
    assert tracer.stats["fuzzer.mutate_saliency_aware"].calls == \
        outcome.mutations


def test_check_rejects_a_candidate_outside_the_bound(fuzz_run):
    prep, _, outcome = fuzz_run
    bad = outcome.candidates[0]
    broken = workloads.Outcome(
        [AdiCandidate(bad.base, bad.perturbation + 2 * prep.bound,
                                bad.target, bad.accuracy, bad.rounds,
                                bad.strategy, bad.mode, bad.provenance)]
        + outcome.candidates[1:], outcome.log, outcome.mutations)
    verdict = workloads.check(prep, broken)
    assert verdict.failed == 1
    assert "outside the bound box" in verdict.problems[0]


def test_check_rejects_an_accuracy_it_cannot_reproduce(fuzz_run):
    prep, _, outcome = fuzz_run
    cand = outcome.candidates[0]
    wrong = AdiCandidate(cand.base, cand.perturbation, cand.target,
                         cand.accuracy - 0.05, cand.rounds, cand.strategy,
                         cand.mode, cand.provenance)
    verdict = workloads.check(
        prep, workloads.Outcome([wrong], [], outcome.mutations))
    assert verdict.failed == 1
    assert "not reproduced" in verdict.problems[0]


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz-credit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
