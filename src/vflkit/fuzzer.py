"""Saliency-guided greybox fuzzing over the adversary's input space.

Instead of code coverage, the feedback signal is the benign side's saliency
score: a [0, 1] scalar each participant derives from the L1 norm of its own
input-saliency map and is willing to share. Mutated inputs that strictly
shrink the benign score are kept for further mutation; inputs that pin the
joint prediction across the hidden benign sample are emitted as dominating
inputs and re-verified against the full benign test view.

The adversary receives the joint labels, one calibrated saliency scalar per
benign party and the gradient at its own local output, and nothing of the
benign features; ``tests/test_fuzz_privacy.py`` checks this on the campaign
that runs.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import as_matrix, as_vector, _forward, _is_finite_real, \
    _is_integer
from .protocol import (VFLSystem, joint_forward, party_input_grads,
                       _JointTrace, _labels)
from .synthesis import (AdiCandidate, JointEvaluator, spread_grad,
                        spread_input_grads, _as_bound, _evaluator, _require)


@dataclass
class FuzzSeed:
    input: np.ndarray
    target: int
    best_score: float          # lowest mean benign saliency seen so far
    lineage_id: int
    origin: np.ndarray         # corpus row this seed descended from

    def __post_init__(self):
        self.input = as_vector(self.input)
        self.origin = as_vector(self.origin)


@dataclass
class CampaignConfig:
    max_iter: int = 5000
    energy: int = 20
    mask_weight: float = 0.2
    stable_fraction: float = 1.0
    bound: np.ndarray | None = None
    noise_std_factor: float = 0.1   # noise std = factor * sqrt(bound)
    threshold: float = 0.95         # full-view accuracy an ADI must reach
    budget_secs: float | None = None
    seed: int = 0

    def __post_init__(self):
        _require(self, ("max_iter", "energy"),
                 lambda v: _is_integer(v) and v >= 1, "an integer >= 1")
        _require(self, ("noise_std_factor",),
                 lambda v: _is_finite_real(v) and v >= 0, "finite and >= 0")
        _require(self, ("budget_secs",), lambda v: v is None or (
            _is_finite_real(v) and v > 0), "None or finite and > 0")
        _require(self, ("mask_weight",),
                 lambda v: _is_finite_real(v) and 0 <= v <= 1, "in [0, 1]")
        _require(self, ("stable_fraction", "threshold"),
                 lambda v: _is_finite_real(v) and 0 < v <= 1, "in (0, 1]")
        self.bound = _as_bound(self.bound)


@dataclass
class SaliencyCalibration:
    """Per-participant scale: the 99th percentile of saliency L1 norms over
    that participant's training rows."""

    scales: dict[str, float]


def participant_saliency_l1(system: VFLSystem, views) -> np.ndarray:
    """Row-wise saliency L1 per participant: (n, m) array."""
    grads = spread_input_grads(system, views)
    return np.stack([np.abs(g).sum(axis=1) for g in grads], axis=1)


def calibrate_saliency(system: VFLSystem, train_views) -> SaliencyCalibration:
    norms = participant_saliency_l1(system, train_views)
    scales = {}
    for part, col in zip(system.participants, norms.T):
        scale = float(np.percentile(col, 99.0))
        scales[part.id] = max(scale, 1e-12)
    return SaliencyCalibration(scales)


def _target_mask(system: VFLSystem, jt: _JointTrace, idx: int,
                 label: int) -> np.ndarray:
    """Absolute gradient of the label's logit on participant ``idx``'s first
    input row, rescaled by its max. Backpropagates into that participant's
    model only."""
    width = jt.probs.shape[1]
    if width == 1:
        glogit = np.ones((jt.probs.shape[0], 1))
    else:
        glogit = np.zeros_like(jt.probs)
        glogit[:, label] = 1.0
    grad = party_input_grads(system, jt, glogit, [idx], from_logits=True)[0]
    mask = np.abs(grad[0])
    peak = mask.max()
    return mask / peak if peak > 0 else mask


def _row_free_mask(evaluator: JointEvaluator, seed: FuzzSeed):
    """The adversary's target mask for ``seed.target`` when the system shows
    that it cannot depend on the row, else None; memoised per label in
    ``evaluator.memo``. A HeteroLR coordinator passes the logit gradient to
    the adversary unchanged, and a linear layer's input gradient reads no
    activation, so with linear layers only every row's ``_target_mask`` is
    this very array."""
    key = ("row_free_mask", seed.target)
    if key not in evaluator.memo:
        system = evaluator.system
        row_free = system.coordinator.kind == "heterolr" and all(
            layer.kind == "linear"
            for layer in system.participants[0].model.layers)
        evaluator.memo[key] = _target_mask(
            system, evaluator.row_trace(seed.origin, 0), 0,
            seed.target) if row_free else None
    return evaluator.memo[key]


def compute_mask(system: VFLSystem, views, participant_id: str,
                 label: int) -> np.ndarray:
    """Saliency mask in [0, 1] for one participant's single input row:
    absolute gradient of the given label's logit, rescaled by its max."""
    idx = [p.id for p in system.participants].index(participant_id)
    return _target_mask(system, joint_forward(system, views), idx, label)


def is_adi(x_adv, s_views, l_target: int, system: VFLSystem,
           stable_fraction: float = 1.0) -> bool:
    """True when at least stable_fraction of the benign sample is forced to
    the target label. ``s_views`` may be a JointEvaluator over the sample."""
    evaluator = _evaluator(system, s_views)
    return evaluator.attack_accuracy(x_adv, l_target) >= stable_fraction


def _benign_mean_score(system: VFLSystem, x_adv: np.ndarray, s_views,
                       calibration: SaliencyCalibration) -> float:
    """Benign parties' calibrated saliency of ``x_adv`` repeated against the
    sample, averaged; ``s_views`` may be a JointEvaluator over the sample.
    Backpropagates into the benign parties only. The caller checks
    ``x_adv``."""
    evaluator = _evaluator(system, s_views)
    out, _ = _forward(system.participants[0].model,
                      np.repeat(x_adv[None, :], evaluator.n, axis=0))
    jt = evaluator.join(out)
    grads = party_input_grads(system, jt, spread_grad(jt.probs),
                              range(1, len(system.participants)))
    return float(np.mean([
        np.clip(np.abs(g).sum(axis=1) / calibration.scales[part.id], 0.0, 1.0)
        for part, g in zip(system.participants[1:], grads)]))


def mutate_saliency_aware(seed: FuzzSeed, s_views, system: VFLSystem,
                          mask_weight: float, bound: np.ndarray,
                          rng: np.random.Generator,
                          noise_std_factor: float = 0.1) -> np.ndarray:
    """One mutation: bounded noise, then per-benign-row mask feedback.

    Pairings that already predict the target reinforce the current mask;
    pairings that do not weaken features the new mask stresses but the
    original input's mask ignores. The result stays within the bound box
    around the seed's lineage origin.

    Each benign row costs one forward of the adversary's model. Where the
    mask depends on the row (a SplitNN coordinator, or an activation layer
    in the adversary's model) it also costs one backward, and the origin's
    mask one more forward and backward per benign row. Under HeteroLR with
    linear layers only, the mask is the same array for every row, the
    origin's included, and is computed once per label; the two masks then
    agree, so a pairing that misses the target leaves the row as it is.
    ``s_views`` may be a JointEvaluator over the benign sample; its memo
    then keeps these masks from one call to the next. Only the seed, the
    bound and the returned row are checked, not each row's pass.
    """
    evaluator = _evaluator(system, s_views)
    bound = as_vector(bound, seed.input.shape[0])
    scale = np.sqrt(bound)
    x = seed.input + rng.standard_normal(seed.input.shape[0]) * (
        noise_std_factor * scale)
    shared = _row_free_mask(evaluator, seed)
    origin_masks = {} if shared is not None else evaluator.memo.setdefault(
        ("origin_mask", seed.origin.tobytes(), seed.target), {})
    for j in range(evaluator.n):
        jt = evaluator.row_trace(x, j)
        mask_new = shared if shared is not None else _target_mask(
            system, jt, 0, seed.target)
        if int(_labels(jt.probs)[0]) == seed.target:
            x = x + mask_weight * mask_new * scale
        elif shared is None:
            mask_orig = origin_masks.get(j)
            if mask_orig is None:
                mask_orig = origin_masks[j] = _target_mask(
                    system, evaluator.row_trace(seed.origin, j), 0,
                    seed.target)
            overshoot = np.maximum(mask_new - mask_orig, 0.0)
            x = x - mask_weight * overshoot * scale
    return as_vector(seed.origin + np.clip(x - seed.origin, -bound, bound))


def reduce_saliency(seed: FuzzSeed, x_new, system: VFLSystem, s_views,
                    calibration: SaliencyCalibration) -> tuple[bool, float]:
    """Whether the mutated input strictly lowered the benign side's mean
    saliency score versus the seed's recorded best. ``s_views`` may be a
    JointEvaluator over the benign sample."""
    x_new = as_vector(x_new, len(system.participants[0].columns))
    score = _benign_mean_score(system, x_new, s_views, calibration)
    return score < seed.best_score, score


@dataclass
class FuzzResult:
    adis: list[AdiCandidate]
    log: list[dict] = field(default_factory=list)
    n_mutations: int = 0
    n_iterations: int = 0


def fuzz_campaign(corpus, system: VFLSystem, s_benign, cfg: CampaignConfig,
                  test_benign_views,
                  calibration: SaliencyCalibration | None = None) -> FuzzResult:
    """Queue-driven campaign over a corpus of adversary rows.

    Each popped seed gets a fixed energy of mutations. Mutants that pin the
    hidden benign sample to the seed's target are verified against the full
    benign test view and recorded when they reach ``cfg.threshold``; mutants
    that merely reduce the benign saliency score re-enter the queue.
    Deterministic given (corpus, system, sample, config).

    Each lineage's origin row is made once and is read-only; every candidate
    of that lineage holds this one array as its ``base``.
    """
    if not isinstance(system, VFLSystem):
        raise TypeError("fuzz_campaign(corpus, system, ...): system must be a "
                        f"VFLSystem, got {type(system).__name__}")
    corpus = as_matrix(corpus)
    if corpus.shape[0] < 1:
        raise ValueError("corpus must be nonempty")
    if cfg.bound is None:
        raise ValueError("campaign requires a mutation bound")
    sample_eval = JointEvaluator(system, s_benign)
    if calibration is None:
        raise ValueError("campaign requires a saliency calibration")
    rng = np.random.default_rng(cfg.seed)
    full_eval = JointEvaluator(system, test_benign_views)
    t_start = time.monotonic()

    queue: deque[FuzzSeed] = deque()
    origins = []
    for lineage, row in enumerate(corpus):
        label, _ = sample_eval.majority_label(row)
        score = _benign_mean_score(system, row, sample_eval, calibration)
        origin = row.copy()
        origin.flags.writeable = False
        origins.append(origin)
        queue.append(FuzzSeed(row.copy(), label, score, lineage, origin))

    result = FuzzResult(adis=[])
    for iteration in range(cfg.max_iter):
        if not queue:
            break
        if cfg.budget_secs is not None and time.monotonic() - t_start > cfg.budget_secs:
            break
        seed = queue.popleft()
        outcome = "exhausted"
        for _ in range(cfg.energy):
            x_new = mutate_saliency_aware(seed, sample_eval, system,
                                          cfg.mask_weight, cfg.bound, rng,
                                          cfg.noise_std_factor)
            result.n_mutations += 1
            seed.input = x_new
            if is_adi(x_new, sample_eval, seed.target, system,
                      cfg.stable_fraction):
                r_full = full_eval.attack_accuracy(x_new, seed.target)
                if r_full >= cfg.threshold:
                    cand = AdiCandidate(origins[seed.lineage_id],
                                        x_new - seed.origin, seed.target,
                                        float(r_full), iteration + 1,
                                        "bounded", "greybox",
                                        provenance="fuzz")
                    result.adis.append(cand)
                    outcome = "adi"
            else:
                better, score = reduce_saliency(seed, x_new, system,
                                                sample_eval, calibration)
                if better:
                    requeued = FuzzSeed(x_new.copy(), seed.target, score,
                                        seed.lineage_id, seed.origin)
                    if not np.all(np.abs(requeued.input - requeued.origin)
                                  <= cfg.bound + 1e-12):
                        raise RuntimeError("requeued seed left the bound box")
                    queue.append(requeued)
                    seed.best_score = score
                    outcome = "requeued"
        result.log.append({
            "iteration": iteration, "lineage": seed.lineage_id,
            "score": seed.best_score, "outcome": outcome,
        })
        result.n_iterations = iteration + 1
    return result
