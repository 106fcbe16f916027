"""The benchmark's three workloads: set-up, one attack, and the output check.

Each workload is a committed config in the CLI's JSON schema
(``bench/configs/<name>.json``). Set-up mirrors ``vflkit train`` followed by
``--checkpoint``: it calls the CLI's own data and training helpers, trains
with the config's own seed, and saves and loads the system back. The attack
mirrors ``vflkit synthesize`` or ``vflkit fuzz`` run with ``--seed``: the
benchmark seed picks the sampled adversary rows (or the fuzz corpus) and
seeds the campaign, through the same public functions and defaults the CLI
uses.
"""
from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vflkit import assessment, cli
from vflkit.data import sample_tiny
from vflkit.fuzzer import CampaignConfig, calibrate_saliency, fuzz_campaign
from vflkit.protocol import (joint_inference, load_system, predicted_labels,
                             save_system)
from vflkit.synthesis import default_bound

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
WORKLOADS = ("fuzz-credit", "whitebox-digits", "blackbox-digits")
# The ``speed.KERNELS`` entry whose slowdown tracks each attack's: fuzzing and
# whitebox steps are single-row calls from the interpreter, blackbox steps
# are matrix products over 393-row batches.
SPEED_KERNEL = {"fuzz-credit": "interpreted",
                "whitebox-digits": "interpreted",
                "blackbox-digits": "batched"}
THRESHOLDS = (0.95, 0.99)


def load_config(name: str) -> dict:
    """The committed config of one workload, checked against the CLI schema."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    with open(CONFIG_DIR / f"{name}.json", encoding="utf-8") as fh:
        return cli.validate_config(json.load(fh))


@dataclass
class Prepared:
    """Everything the attack needs, built by set-up."""

    kind: str                       # "fuzz" | "synthesis"
    system: object
    benign: list                    # full benign test views (verification)
    tiny: object                    # the adversary's benign sample
    rows: np.ndarray                # sampled adversary rows or fuzz corpus
    attack_cfg: object              # SynthesisConfig | CampaignConfig
    bound: np.ndarray | None        # mutation bound box, when bounded
    calibration: object = None


def set_up(name: str, seed: int, workdir: Path,
           clock) -> tuple[Prepared, dict]:
    """Build a trained system and the attack inputs for one workload.

    ``clock`` is a zero-argument timer. Returns the prepared attack and the
    duration of each set-up phase in seconds.
    """
    cfg = load_config(name)
    phases = {}
    t = clock()
    train_views, test_views, ytr, _, _, _ = cli._prepared(cfg)
    phases["data_s"], t = clock() - t, clock()
    system, _ = cli._train_system(cfg, train_views, ytr, cfg["seed"])
    phases["train_s"], t = clock() - t, clock()
    ckpt = workdir / f"{name}-checkpoint.json"
    save_system(system, ckpt)
    system = load_system(ckpt)
    phases["checkpoint_s"], t = clock() - t, clock()

    calibration = None
    if "fuzz" in cfg:
        calibration = calibrate_saliency(system, train_views)
    phases["calibrate_s"] = clock() - t

    dspec = cfg["dataset"]
    rng = np.random.default_rng(seed)
    n_test = test_views[0].shape[0]
    benign = test_views[1:]
    tiny_rows = np.concatenate(benign, axis=1)
    tiny = sample_tiny(tiny_rows, min(dspec.get("tiny_size", 20),
                                      tiny_rows.shape[0]),
                       seed=dspec.get("tiny_seed", 5))
    if "fuzz" in cfg:
        fz = cfg["fuzz"]
        n = int(fz.get("corpus", "sample:100").split(":", 1)[1])
        rows = test_views[0][rng.choice(n_test, size=min(n, n_test),
                                        replace=False)]
        # The CLI builds this inline in cmd_fuzz; same keys and defaults.
        bound = default_bound(train_views[0], fz.get("bound_multiplier", 1.0))
        attack_cfg = CampaignConfig(
            max_iter=fz.get("max_iter", 5000), energy=fz.get("energy", 20),
            mask_weight=fz.get("mask_weight", 0.2),
            stable_fraction=fz.get("stable_fraction", 1.0), bound=bound,
            noise_std_factor=fz.get("noise_std_factor", 0.1),
            budget_secs=None, seed=seed)
        kind = "fuzz"
    else:
        n = cfg.get("synthesis", {}).get("n_inputs", 50)
        attack_cfg = cli._synthesis_config(cfg, argparse.Namespace(),
                                           train_views[0])
        bound = attack_cfg.bound if attack_cfg.strategy == "bounded" else None
        rows = test_views[0][rng.choice(n_test, size=min(n, n_test),
                                        replace=False)]
        kind = "synthesis"
    return Prepared(kind, system, benign, tiny, rows, attack_cfg, bound,
                    calibration), phases


@dataclass
class Outcome:
    candidates: list                # AdiCandidate, in emission order
    log: list[dict]                 # fuzz campaign log (empty for synthesis)
    mutations: int                  # fuzz mutations, or synthesis rounds
    reported_rate: float | None = None


def attack(prep: Prepared) -> Outcome:
    """One attack at the workload's fixed size, as the CLI command runs it."""
    if prep.kind == "fuzz":
        result = fuzz_campaign(prep.rows, prep.system, [prep.tiny.rows],
                               prep.attack_cfg, prep.benign, prep.calibration)
        return Outcome(result.adis, result.log, result.n_mutations)
    rate, candidates = assessment.success_rate(
        prep.system, prep.rows, prep.attack_cfg, prep.tiny, prep.benign,
        prep.attack_cfg.threshold)
    return Outcome(candidates, [], sum(c.rounds for c in candidates), rate)


def digest(outcome: Outcome) -> str:
    """sha256 over the candidate and campaign-log lines the CLI would write."""
    h = hashlib.sha256()
    for cand in outcome.candidates:
        h.update((cand.to_json() + "\n").encode())
    for entry in outcome.log:
        h.update((json.dumps(entry, sort_keys=True) + "\n").encode())
    return h.hexdigest()


@dataclass
class Verdict:
    attempted: int                  # adversary rows (sample or corpus)
    failed: int                     # rows that raised or failed the check
    adis: dict[float, int]          # threshold -> distinct verified ADIs
    problems: list[str]


def _verified_accuracy(prep: Prepared, x: np.ndarray, target: int) -> float:
    n = prep.benign[0].shape[0]
    probs = joint_inference(prep.system,
                            [np.repeat(x[None, :], n, axis=0)] + prep.benign)
    return float(np.mean(predicted_labels(probs) == target))


def _problem(prep: Prepared, cand, n_view: int) -> tuple[str | None, float]:
    """Why a candidate fails the check (None when it passes), and its
    accuracy verified on the full benign view."""
    if not (np.all(np.isfinite(cand.input)) and np.isfinite(cand.accuracy)):
        return "non-finite input or accuracy", 0.0
    if prep.bound is not None and np.any(
            np.abs(cand.perturbation) > prep.bound + 1e-12):
        return "outside the bound box", 0.0
    if not 0 <= cand.target < prep.system.n_classes:
        return f"target {cand.target} out of range", 0.0
    acc = _verified_accuracy(prep, cand.input, cand.target)
    if abs(acc - cand.accuracy) > 1.0 / n_view + 1e-12:
        return f"accuracy {cand.accuracy} not reproduced ({acc})", acc
    if prep.kind == "fuzz" and cand.accuracy < THRESHOLDS[0]:
        return f"emitted below {THRESHOLDS[0]}", acc
    return None, acc


def check(prep: Prepared, outcome: Outcome) -> Verdict:
    """Re-verify every candidate with ``joint_inference`` on the full benign
    view: finite, inside the bound box when bounded, and its stored accuracy
    reproduced. Rows with any failing candidate count as failed.

    The accuracy may differ by one benign row: ``JointEvaluator`` runs the
    adversary row alone while ``joint_inference`` runs it in a batch, and the
    two matrix products may round a decision-boundary row differently.
    """
    n_view = prep.benign[0].shape[0]
    row_index = {row.tobytes(): i for i, row in enumerate(prep.rows)}
    bad_rows, problems = set(), []
    passed: dict[int, float] = {}
    if prep.kind == "synthesis" and len(outcome.candidates) != len(prep.rows):
        problems.append(f"{len(outcome.candidates)} candidates for "
                        f"{len(prep.rows)} rows")
        bad_rows.update(range(len(prep.rows)))
    for k, cand in enumerate(outcome.candidates):
        row = row_index.get(cand.base.tobytes())
        if row is None or (prep.kind == "synthesis" and row != k):
            row, (why, acc) = -1 - k, ("base is not an attempted row", 0.0)
        else:
            why, acc = _problem(prep, cand, n_view)
        if why is None:
            passed[row] = max(passed.get(row, 0.0), acc)
        else:
            problems.append(f"candidate {k}: {why}")
            bad_rows.add(row)
    if outcome.reported_rate is not None:
        thr = prep.attack_cfg.threshold
        expected = np.mean([c.accuracy >= thr for c in outcome.candidates])
        if abs(outcome.reported_rate - expected) > 1e-12:
            problems.append(f"reported success rate {outcome.reported_rate} "
                            f"!= candidate share {expected}")
    adis = {thr: sum(1 for r, acc in passed.items()
                     if r not in bad_rows and acc >= thr)
            for thr in THRESHOLDS}
    return Verdict(len(prep.rows), min(len(bad_rows), len(prep.rows)), adis,
                   problems)
