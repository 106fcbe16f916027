"""Quantitative studies: dominance baselines, synthesis campaigns, reward
shares, the perturbation-subspace analysis, and partition/participant sweeps.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (image_column_partition, mnist_column_split,
                   partition_vertical, ratio_split, sample_tiny)
from .model import as_matrix, as_vector
from .protocol import VFLSystem, evaluate, splitnn_architecture, train_splitnn
from .synthesis import (AdiCandidate, JointEvaluator, SynthesisConfig,
                        adi_generate, default_bound, spread_input_grads,
                        _as_benign_views, _synthesize_rows)


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    seed: int = 0
    wallclock_secs: float = 0.0

    @property
    def artifact_hash(self) -> str:
        blob = json.dumps({"kind": self.kind, "config": self.config,
                           "seed": self.seed}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def validate(self):
        for row in self.rows:
            for col in self.columns:
                value = row.get(col)
                if isinstance(value, float) and not np.isfinite(value):
                    raise ValueError(f"non-finite metric {col!r} in {self.kind}")

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "config": self.config, "columns": self.columns,
            "rows": self.rows, "seed": self.seed,
            "artifact_hash": self.artifact_hash,
            "wallclock_secs": self.wallclock_secs,
        }, sort_keys=True)

    def write_json(self, path):
        self.validate()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def write_csv(self, path):
        self.validate()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({c: row.get(c) for c in self.columns})


def report_filename(name: str, report: ExperimentReport, ext="json") -> str:
    """The same kind, config and seed give the same name."""
    return f"{name}-{report.seed}-{report.artifact_hash}.{ext}"


def dominating_rate(system: VFLSystem, adv_rows, benign_views,
                    threshold: float = 0.95, adv_index: int = 0) -> float:
    """Share of unperturbed rows already pinning their own majority label on
    at least ``threshold`` of the benign view."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    evaluator = JointEvaluator(system, benign_views, adv_index=adv_index)
    shares = np.array([evaluator.majority_label(row)[1]
                       for row in as_matrix(adv_rows)])
    return float(np.mean(shares >= threshold))


def success_rate(system: VFLSystem, adv_rows, cfg: SynthesisConfig,
                 tiny_benign, test_benign_views,
                 threshold: float = 0.95) -> tuple[float, list[AdiCandidate]]:
    """Share of sampled adversary rows perturbable into dominating inputs.

    Each row targets its own majority joint label; success is the practical
    assessment on the full benign test view. With a zero round budget this
    degenerates to the baseline dominating rate.

    All rows are synthesised in one lockstep call: they descend as one
    (R, d) block, and a row leaves it at the sweep where it dominates. Each
    candidate equals that row's own ``adi_generate`` candidate byte for
    byte.
    """
    adv_rows = as_matrix(adv_rows)
    if adv_rows.shape[0] < 1:
        raise ValueError("need at least one sampled row")
    full_eval = JointEvaluator(system, test_benign_views)
    targets = [full_eval.majority_label(row)[0] for row in adv_rows]
    candidates = _synthesize_rows(adv_rows, system, targets, cfg, tiny_benign,
                                  stop_benign=full_eval)
    hits = sum(cand.accuracy >= threshold for cand in candidates)
    return hits / adv_rows.shape[0], candidates


def reward_shares(system: VFLSystem, views) -> tuple[np.ndarray, bool]:
    """Per-participant contribution shares for a batch of joint inferences.

    The per-participant saliency map is the gradient of the output spread
    (``synthesis.spread_input_grads``) weighted by the input itself
    (|grad . input| elementwise); its L1 norm, normalized across
    participants, is the per-inference share. Returns the mean share vector
    and a flag set when any row's maps were all zero (that row falls back
    to uniform shares).
    """
    views = [as_matrix(v) for v in views]
    grads = spread_input_grads(system, views)
    norms = np.stack([np.abs(g * v).sum(axis=1)
                      for g, v in zip(grads, views)], axis=1)
    totals = norms.sum(axis=1, keepdims=True)
    degenerate = bool(np.any(totals[:, 0] == 0.0))
    m = len(views)
    shares = np.where(totals > 0, norms / np.maximum(totals, 1e-300), 1.0 / m)
    mean = shares.mean(axis=0)
    return mean / mean.sum(), degenerate


@dataclass
class PerturbationStudy:
    matrix: np.ndarray            # (d, h) unit-normalized perturbation columns
    mean_perturbation: np.ndarray
    base: np.ndarray
    target: int
    dropped: int = 0


def build_perturbation_matrix(system: VFLSystem, benign_rows, x_adv_star,
                              cfg: SynthesisConfig,
                              l_target: int | None = None) -> PerturbationStudy:
    """One single-benign-row synthesis pass per column, unit-normalized.

    Column i is the mutation found against benign row i alone; zero columns
    are dropped (counted in the result).
    """
    benign_views = _as_benign_views(system, benign_rows)
    h = benign_views[0].shape[0]
    if h < 2:
        raise ValueError("need at least two benign rows")
    base = as_vector(x_adv_star)
    if l_target is None:
        probe = JointEvaluator(system, benign_views)
        l_target, _ = probe.majority_label(base)
    cols = []
    raw = []
    dropped = 0
    for i in range(h):
        rows = [view[i:i + 1] for view in benign_views]
        cand = adi_generate(base, system, l_target, cfg, rows)
        norm = np.linalg.norm(cand.perturbation)
        if norm == 0.0:
            dropped += 1
            continue
        cols.append(cand.perturbation / norm)
        raw.append(cand.perturbation)
    if not cols:
        raise ValueError("every synthesis pass returned a zero perturbation")
    matrix = np.stack(cols, axis=1)
    mean_v = np.mean(raw, axis=0)
    return PerturbationStudy(matrix, mean_v, base, int(l_target), dropped)


def singular_spectrum(matrix) -> np.ndarray:
    matrix = as_matrix(matrix)
    return np.linalg.svd(matrix, compute_uv=False)


def random_unit_columns(d: int, h: int, seed: int = 0) -> np.ndarray:
    """Baseline matrix with columns uniform on the unit sphere."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, h))
    return cols / np.linalg.norm(cols, axis=0, keepdims=True)


def reconstruct_and_rate(study: PerturbationStudy, k: int, system: VFLSystem,
                         test_benign_views) -> float:
    """Dominating accuracy after projecting the mean mutation onto the top-k
    left singular directions of the perturbation matrix."""
    u, _, _ = np.linalg.svd(study.matrix, full_matrices=False)
    if not 1 <= k <= u.shape[1]:
        raise ValueError(f"k must lie in [1, {u.shape[1]}]")
    basis = u[:, :k]
    projected = basis @ (basis.T @ study.mean_perturbation)
    evaluator = JointEvaluator(system, test_benign_views)
    return evaluator.attack_accuracy(study.base + projected, study.target)


def _split_bound(cfg: SynthesisConfig, train_view_adv,
                 multiplier: float) -> SynthesisConfig:
    if cfg.strategy != "bounded":
        return cfg
    return replace(cfg, bound=default_bound(train_view_adv, multiplier))


def _sweep(features, labels, specs, train_seeds, train_cfg: dict,
           synth_cfgs, n_dominance: int, n_synth: int, test_fraction: float,
           seed: int, tiny_seed: int, threshold: float,
           bound_multiplier: float):
    """The skeleton both sweeps share.

    Splits the rows into train and test once. Then, per partition spec, it
    trains a split network with that spec's train seed and measures its
    test accuracy and the adversary's dominating rate. It samples adversary
    rows and a benign tiny sample and measures the synthesis success of each
    config; bounded configs get the bound of that split's adversary view,
    times ``bound_multiplier``.
    Yields (system, test views, accuracy, dominating rate, successes).
    """
    features = as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    rng = np.random.default_rng(seed)
    n = features.shape[0]
    n_test = int(round(n * test_fraction))
    order = rng.permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]
    n_classes = int(labels.max()) + 1
    for spec, train_seed in zip(specs, train_seeds):
        views = partition_vertical(features, spec)
        train_views = [v[train_idx] for v in views]
        test_views = [v[test_idx] for v in views]
        dims, top = splitnn_architecture(train_views, train_cfg["local_hidden"],
                                         train_cfg["top_hidden"], n_classes)
        system, _ = train_splitnn(train_views, labels[train_idx], dims, top,
                                  epochs=train_cfg.get("epochs", 10),
                                  lr=train_cfg.get("lr", 0.05),
                                  batch=train_cfg.get("batch", 64),
                                  seed=train_seed,
                                  momentum=train_cfg.get("momentum", 0.9))
        accuracy = evaluate(system, test_views, labels[test_idx])["accuracy"]
        benign = test_views[1:]
        dom = dominating_rate(system, test_views[0][:n_dominance], benign,
                              threshold)
        sample = test_views[0][rng.choice(n_test, size=min(n_synth, n_test),
                                          replace=False)]
        tiny = sample_tiny(np.concatenate(benign, axis=1), min(20, n_test),
                           seed=tiny_seed)
        successes = [success_rate(system, sample,
                                  _split_bound(cfg, train_views[0],
                                               bound_multiplier), tiny,
                                  benign, threshold)[0]
                     for cfg in synth_cfgs]
        yield system, test_views, accuracy, dom, successes


def partition_ratio_sweep(features, labels, ratios, image_side: int | None,
                          train_cfg: dict, synth_cfg: SynthesisConfig,
                          n_dominance: int = 300, n_synth: int = 40,
                          test_fraction: float = 0.2, seed: int = 0,
                          threshold: float = 0.95,
                          bound_multiplier: float = 1.0) -> ExperimentReport:
    """Accuracy, per-side dominance, and synthesis success across feature
    partition ratios. ``image_side`` switches to pixel-column partitioning.
    A bounded ``synth_cfg`` is bounded per split by the adversary view's
    feature variance times ``bound_multiplier``."""
    t0 = time.time()
    report = ExperimentReport(
        "partition-ratio-sweep",
        {"ratios": list(ratios), "train": train_cfg,
         "synth": {"strategy": synth_cfg.strategy, "mode": synth_cfg.mode},
         "n_dominance": n_dominance, "n_synth": n_synth},
        ["ratio", "accuracy", "dominating_rate_adv", "dominating_rate_benign",
         "synthesis_success"],
        seed=seed)
    specs = []
    for ratio in ratios:
        if image_side is not None:
            n_a = int(round(image_side * ratio / (1.0 + ratio)))
            specs.append(image_column_partition([n_a, image_side - n_a],
                                                image_side))
        else:
            specs.append(ratio_split(np.shape(features)[1], ratio))
    cells = _sweep(features, labels, specs,
                   [seed + int(ratio * 100) for ratio in ratios], train_cfg,
                   [synth_cfg], n_dominance, n_synth, test_fraction, seed,
                   seed + 1, threshold, bound_multiplier)
    for ratio, (system, test_views, accuracy, dom_a, successes) in \
            zip(ratios, cells):
        view_a, view_b = test_views
        dom_b = dominating_rate(system, view_b[:n_dominance], [view_a],
                                threshold, adv_index=1)
        report.rows.append({
            "ratio": float(ratio), "accuracy": accuracy,
            "dominating_rate_adv": dom_a, "dominating_rate_benign": dom_b,
            "synthesis_success": successes[0],
        })
    report.wallclock_secs = time.time() - t0
    report.validate()
    return report


def participants_sweep(features, labels, counts, train_cfg: dict,
                       synth_random: SynthesisConfig,
                       synth_bounded: SynthesisConfig | None = None,
                       n_dominance: int = 300, n_synth: int = 40,
                       test_fraction: float = 0.2, seed: int = 0,
                       threshold: float = 0.95,
                       bound_multiplier: float = 1.0) -> ExperimentReport:
    """Accuracy, dominance, and synthesis success for 2/3/5-party splits of
    28x28 image data. Bounded configs are bounded per split by the
    adversary view's feature variance times ``bound_multiplier``."""
    t0 = time.time()
    columns = ["participants", "accuracy", "dominating_rate",
               "success_random"]
    synth_cfgs = [synth_random]
    if synth_bounded is not None:
        columns.append("success_bounded")
        synth_cfgs.append(synth_bounded)
    report = ExperimentReport(
        "participants-sweep",
        {"counts": list(counts), "train": train_cfg,
         "n_dominance": n_dominance, "n_synth": n_synth},
        columns, seed=seed)
    cells = _sweep(features, labels, [mnist_column_split(m) for m in counts],
                   [seed + m for m in counts], train_cfg, synth_cfgs,
                   n_dominance, n_synth, test_fraction, seed, seed + 2,
                   threshold, bound_multiplier)
    for m, (_, _, accuracy, dom, successes) in zip(counts, cells):
        report.rows.append(dict(zip(columns,
                                    [int(m), accuracy, dom, *successes])))
    report.wallclock_secs = time.time() - t0
    report.validate()
    return report
