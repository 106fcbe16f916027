"""Quantitative studies: dominance baselines, synthesis campaigns, reward
shares, and the perturbation matrix of the subspace study, whose spectrum
and top-k reconstructions ``cli.cmd_svd`` takes with numpy. The
partition-ratio and party-count sweeps run these per partition cell from
``cli.cmd_sweep``.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .model import as_matrix, as_vector
from .protocol import VFLSystem
from .synthesis import (AdiCandidate, JointEvaluator, SynthesisConfig,
                        adi_generate, spread_input_grads, _as_benign_views,
                        _synthesize_rows)


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


def build_perturbation_matrix(system: VFLSystem, benign_rows, x_adv_star,
                              cfg: SynthesisConfig,
                              l_target: int) -> tuple[np.ndarray, np.ndarray]:
    """One single-benign-row synthesis pass per column, unit-normalized.

    Column i is the mutation found against benign row i alone. Returns the
    (d, h) matrix of unit columns and the mean of the raw mutations; a zero
    mutation is left out of both.
    """
    benign_views = _as_benign_views(system, benign_rows)
    h = benign_views[0].shape[0]
    if h < 2:
        raise ValueError("need at least two benign rows")
    base = as_vector(x_adv_star)
    cols = []
    raw = []
    for i in range(h):
        rows = [view[i:i + 1] for view in benign_views]
        cand = adi_generate(base, system, l_target, cfg, rows)
        norm = np.linalg.norm(cand.perturbation)
        if norm == 0.0:
            continue
        cols.append(cand.perturbation / norm)
        raw.append(cand.perturbation)
    if not cols:
        raise ValueError("every synthesis pass returned a zero perturbation")
    return np.stack(cols, axis=1), np.mean(raw, axis=0)
