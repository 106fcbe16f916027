"""Saliency-guided greybox fuzzing over the adversary's input space.

Instead of code coverage, the feedback signal is the benign side's saliency
score: a [0, 1] scalar each participant derives from the L1 norm of its own
input-saliency map and is willing to share. Mutated inputs that strictly
shrink the benign score are kept for further mutation; inputs that pin the
joint prediction across the hidden benign sample are emitted as dominating
inputs and re-verified against the full benign test view.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import as_matrix, as_vector, backward as model_backward, \
    forward as model_forward, _forward, _is_finite_real, _is_integer
from .protocol import (ProtocolMessage, VFLSystem, audit_trace, AuditError,
                       coordinator_backward, joint_forward,
                       party_input_grads, _JointTrace, _labels)
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
    thresholds: tuple[float, float] = (0.95, 0.99)
    budget_secs: float | None = None
    seed: int = 0

    def __post_init__(self):
        _require(self, ("max_iter", "energy"),
                 lambda v: _is_integer(v) and v >= 1, "an integer >= 1")
        _require(self, ("noise_std_factor",),
                 lambda v: _is_finite_real(v) and v >= 0, "finite and >= 0")
        _require(self, ("budget_secs",), lambda v: v is None or (
            _is_finite_real(v) and v > 0), "None or finite and > 0")
        _require(self, ("thresholds",), lambda t: len(t) == 2 and all(
            map(_is_finite_real, t)) and 0 < t[0] <= t[1] <= 1,
                 "(low, high) with 0 < low <= high <= 1")
        _require(self, ("mask_weight",),
                 lambda v: _is_finite_real(v) and 0 <= v <= 1, "in [0, 1]")
        _require(self, ("stable_fraction",),
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


def calibrate_saliency(system: VFLSystem, train_views,
                       percentile: float = 99.0) -> SaliencyCalibration:
    norms = participant_saliency_l1(system, train_views)
    scales = {}
    for part, col in zip(system.participants, norms.T):
        scale = float(np.percentile(col, percentile))
        scales[part.id] = max(scale, 1e-12)
    return SaliencyCalibration(scales)


def saliency_score(system: VFLSystem, views, participant_id: str,
                   calibration: SaliencyCalibration | None) -> np.ndarray:
    """Clamped [0, 1] saliency scores for one participant, one per row."""
    if calibration is None or participant_id not in calibration.scales:
        raise ValueError(
            "missing saliency calibration; run calibrate_saliency on the "
            "training views first")
    idx = [p.id for p in system.participants].index(participant_id)
    norms = participant_saliency_l1(system, views)[:, idx]
    return np.clip(norms / calibration.scales[participant_id], 0.0, 1.0)


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

    Each benign row costs one forward and one backward of the adversary's
    model. ``s_views`` may be a JointEvaluator over the benign sample; its
    memo then keeps the origin's masks from one call to the next. Only the
    seed, the bound and the returned row are checked, not each row's pass.
    """
    evaluator = _evaluator(system, s_views)
    bound = as_vector(bound, seed.input.shape[0])
    scale = np.sqrt(bound)
    x = seed.input + rng.standard_normal(seed.input.shape[0]) * (
        noise_std_factor * scale)
    origin_masks = evaluator.memo.setdefault(
        ("origin_mask", seed.origin.tobytes(), seed.target), {})
    for j in range(evaluator.n):
        jt = evaluator.row_trace(x, j)
        mask_new = _target_mask(system, jt, 0, seed.target)
        if int(_labels(jt.probs)[0]) == seed.target:
            x = x + mask_weight * mask_new * scale
        else:
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
    benign test view and recorded when they reach the low dominating
    threshold; mutants that merely reduce the benign saliency score re-enter
    the queue. Deterministic given (corpus, system, sample, config).
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
    for lineage, row in enumerate(corpus):
        label, _ = sample_eval.majority_label(row)
        score = _benign_mean_score(system, row, sample_eval, calibration)
        queue.append(FuzzSeed(row.copy(), label, score, lineage, row.copy()))

    low = cfg.thresholds[0]
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
            seed = FuzzSeed(x_new, seed.target, seed.best_score,
                            seed.lineage_id, seed.origin)
            if is_adi(x_new, sample_eval, seed.target, system,
                      cfg.stable_fraction):
                r_full = full_eval.attack_accuracy(x_new, seed.target)
                if r_full >= low:
                    cand = AdiCandidate(seed.origin.copy(),
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
                    seed = FuzzSeed(x_new, seed.target, score,
                                    seed.lineage_id, seed.origin)
                    outcome = "requeued"
        result.log.append({
            "iteration": iteration, "lineage": seed.lineage_id,
            "score": seed.best_score, "outcome": outcome,
        })
        result.n_iterations = iteration + 1
    return result


# Cooperative multi-party fuzzing: the benign sample never leaves the benign
# side; only local outputs, gradients at the cut layer, saliency scores, and
# aggregate ratios cross party boundaries.

@dataclass
class CooperationConfig:
    n_noise: int = 8            # noised variants per round (step 2)
    n_inner: int = 5            # repeats of steps 3-10 per candidate
    n_outer: int = 50           # repeats of step 2 (candidate picks)
    mask_weight: float = 0.2
    bound: np.ndarray | None = None
    noise_std_factor: float = 0.1
    threshold: float = 0.95
    seed: int = 0

    def __post_init__(self):
        _require(self, ("n_noise", "n_inner", "n_outer"),
                 lambda v: _is_integer(v) and v >= 1, "an integer >= 1")
        _require(self, ("mask_weight",),
                 lambda v: _is_finite_real(v) and 0 <= v <= 1, "in [0, 1]")
        _require(self, ("noise_std_factor",),
                 lambda v: _is_finite_real(v) and v >= 0, "finite and >= 0")
        _require(self, ("threshold",),
                 lambda v: _is_finite_real(v) and 0 < v <= 1, "in (0, 1]")
        self.bound = _as_bound(self.bound)


@dataclass
class CooperationResult:
    found: list[AdiCandidate]
    messages: list[ProtocolMessage]
    ratio_log: list[dict]


def run_cooperative_session(system: VFLSystem, corpus, s_benign,
                            cfg: CooperationConfig) -> CooperationResult:
    """Fuzz with explicit participant/coordinator message passing.

    Follows the cooperation protocol steps 1-12: the adversary-side party
    submits noised local outputs, the coordinator returns joint outputs,
    cut-layer gradients, and attack-success rates, both sides report
    saliency scores, and the coordinator's score ratios decide which masked
    retry is kept. The full trace is audited for raw-feature leaks.
    """
    corpus = as_matrix(corpus)
    evaluator = JointEvaluator(system, s_benign)
    if cfg.bound is None:
        raise ValueError("cooperative session requires a mutation bound")
    bound = cfg.bound
    rng = np.random.default_rng(cfg.seed)
    adv = system.participants[0]
    messages: list[ProtocolMessage] = []
    ratio_log: list[dict] = []
    found: list[AdiCandidate] = []

    def send(step, sender, receiver, kind, payload):
        arr = None if payload is None else np.asarray(payload, dtype=np.float64)
        size = 0 if arr is None else arr.size
        messages.append(ProtocolMessage(step, sender, receiver, kind, size, arr))

    # Step 1: adversary picks index seeds; benign side ships local outputs.
    pending = list(range(corpus.shape[0]))
    store = {i: corpus[i].copy() for i in pending}
    for part, (out, _) in zip(system.participants[1:], evaluator.fixed()):
        send("1", part.id, "C", "local_output", out)

    def benign_scores(index_b, branch_grad_row):
        # Each benign party backpropagates through its own pass of the row.
        scores = []
        for part, (_, trace), g in zip(system.participants[1:],
                                       evaluator.fixed(index_b),
                                       branch_grad_row):
            _, ig = model_backward(part.model, trace, g[None, :],
                                   with_params=False)
            scores.append((part.id, float(np.abs(ig).sum())))
        return scores

    outer = 0
    cursor = 0
    while pending and outer < cfg.n_outer:
        outer += 1
        # Step 2: choose next index, noise it, submit noised local outputs.
        index_a = pending[cursor % len(pending)]
        cursor += 1
        x_current = store[index_a]
        origin = corpus[index_a]
        l_target, _ = evaluator.majority_label(origin)
        noise = rng.standard_normal((cfg.n_noise, x_current.shape[0])) * (
            cfg.noise_std_factor * np.sqrt(bound))
        noised = origin + np.clip(x_current + noise - origin, -bound, bound)
        noised_passes = [model_forward(adv.model, row[None, :])
                         for row in noised]
        noised_out = np.vstack([out for out, _ in noised_passes])
        send("2", adv.id, "C", "local_output", noised_out)

        solved = False
        for _ in range(cfg.n_inner):
            # Step 3: coordinator picks one benign row, returns outputs and
            # cut-layer gradients for every noised variant.
            index_b = int(rng.integers(evaluator.n))
            jt = evaluator.join(noised_out, j=index_b, batched=True)
            branch, _ = coordinator_backward(system, jt, spread_grad(jt.probs))
            send("3", "C", adv.id, "joint_output", jt.probs)
            send("3", "C", adv.id, "gradient_wrt_local_output", branch[0])
            for part, g in zip(system.participants[1:], branch[1:]):
                send("3", "C", part.id, "gradient_wrt_local_output", g)

            # Step 4: adversary reports its highest saliency score; benign
            # side reports its original scores.
            adv_grads = [model_backward(adv.model, trace, g[None, :],
                                        with_params=False)[1]
                         for (_, trace), g in zip(noised_passes, branch[0])]
            adv_scores = [float(np.abs(ig).sum()) for ig in adv_grads]
            best_idx = int(np.argmax(adv_scores))
            score_orig_a = adv_scores[best_idx]
            send("4", adv.id, "C", "saliency_score", [score_orig_a])
            per_benign = benign_scores(index_b, [g[best_idx] for g in branch[1:]])
            for pid, score in per_benign:
                send("4", pid, "C", "saliency_score", [score])
            score_orig_b = sum(s for _, s in per_benign)

            # Step 5: coordinator computes the attack-success rate.
            orig_acc = evaluator.attack_accuracy(noised[best_idx], l_target)
            send("5", "C", adv.id, "attack_success_rate", [orig_acc])

            # Step 6: adversary masks its best variant and resubmits.
            best_row = noised[best_idx]
            mask = np.abs(adv_grads[best_idx][0])
            peak = mask.max()
            if peak > 0:
                mask = mask / peak
            masked = best_row + cfg.mask_weight * mask * np.sqrt(bound)
            masked = origin + np.clip(masked - origin, -bound, bound)
            masked_local, masked_trace = model_forward(adv.model, masked[None, :])
            send("6", adv.id, "C", "local_output", masked_local)

            # Step 7: coordinator returns output, gradients, masked ASR.
            jt = evaluator.join(masked_local, j=index_b, batched=True)
            branch_m, _ = coordinator_backward(system, jt,
                                               spread_grad(jt.probs))
            masked_acc = evaluator.attack_accuracy(masked, l_target)
            send("7", "C", adv.id, "attack_success_rate", [masked_acc])
            send("7", "C", adv.id, "gradient_wrt_local_output", branch_m[0])
            for part, g in zip(system.participants[1:], branch_m[1:]):
                send("7", "C", part.id, "gradient_wrt_local_output", g)

            # Step 8: both sides report masked saliency scores.
            _, ig = model_backward(adv.model, masked_trace,
                                   branch_m[0][0][None, :], with_params=False)
            score_masked_a = float(np.abs(ig).sum())
            send("8", adv.id, "C", "saliency_score", [score_masked_a])
            per_benign_m = benign_scores(index_b, [g[0] for g in branch_m[1:]])
            for pid, score in per_benign_m:
                send("8", pid, "C", "saliency_score", [score])
            score_masked_b = sum(s for _, s in per_benign_m)

            # Step 9: coordinator publishes the masked/original score ratios.
            ratio_a = score_masked_a / max(score_orig_a, 1e-12)
            ratio_b = score_masked_b / max(score_orig_b, 1e-12)
            send("9", "C", adv.id, "saliency_ratio", [ratio_a, ratio_b])
            ratio_log.append({
                "outer": outer, "index_a": index_a,
                "score_orig_a": score_orig_a, "score_masked_a": score_masked_a,
                "score_orig_b": score_orig_b, "score_masked_b": score_masked_b,
                "ratio_a": ratio_a, "ratio_b": ratio_b,
            })

            # Step 10: keep the masked retry when it helps; emit on success.
            if masked_acc > orig_acc and ratio_a > ratio_b:
                store[index_a] = masked
            if masked_acc > cfg.threshold:
                found.append(AdiCandidate(origin.copy(), masked - origin,
                                          l_target, float(masked_acc), outer,
                                          "bounded", "greybox",
                                          provenance="cooperative-fuzz"))
                pending.remove(index_a)
                solved = True
                break
            # Step 11: repeat from step 3.
        if solved:
            continue
        # Step 12: move on to the next candidate (repeat from step 2).

    raw = {part.id: view for part, view in
           zip(system.participants[1:], evaluator.benign_views)}
    raw[adv.id] = corpus
    violations = audit_trace(messages, raw)
    if violations:
        raise AuditError("; ".join(violations))
    return CooperationResult(found, messages, ratio_log)
