"""The fuzzer's target mask is computed once per label where the system shows
it cannot depend on the row (HeteroLR with a linear adversary), and once per
benign row elsewhere; a lineage's candidates share one read-only origin."""
from collections import deque

import numpy as np
import pytest

from test_fuzzer import reference_mutation, three_class_linear
from vflkit import fuzzer
from vflkit.fuzzer import (CampaignConfig, FuzzSeed, calibrate_saliency,
                           fuzz_campaign, is_adi, mutate_saliency_aware,
                           reduce_saliency, _benign_mean_score)
from vflkit.model import LayerSpec, LocalModel
from vflkit.protocol import Coordinator, Participant, VFLSystem
from vflkit.synthesis import AdiCandidate, JointEvaluator, default_bound


@pytest.fixture
def mask_labels(monkeypatch):
    """The label of every ``fuzzer._target_mask`` call, in order."""
    labels = []
    original = fuzzer._target_mask

    def counted(system, jt, idx, label):
        labels.append(label)
        return original(system, jt, idx, label)

    monkeypatch.setattr(fuzzer, "_target_mask", counted)
    return labels


def _campaign_args(system, train_views, test_views, n_corpus=6, n_sample=20,
                   **overrides):
    rng = np.random.default_rng(3)
    idx = rng.choice(test_views[0].shape[0], size=n_corpus, replace=False)
    kwargs = {"max_iter": 10, "energy": 4, "seed": 4,
              "bound": default_bound(train_views[0], 6.0)}
    kwargs.update(overrides)
    return (test_views[0][idx], system, [test_views[1][:n_sample]],
            CampaignConfig(**kwargs), [test_views[1]],
            calibrate_saliency(system, train_views))


def reference_campaign(corpus, system, s_benign, cfg, test_benign_views,
                       calibration):
    """fuzz_campaign's loop with a fresh copy of the origin as every
    candidate's base."""
    sample_eval = JointEvaluator(system, s_benign)
    full_eval = JointEvaluator(system, test_benign_views)
    rng = np.random.default_rng(cfg.seed)
    queue = deque()
    for lineage, row in enumerate(corpus):
        label, _ = sample_eval.majority_label(row)
        score = _benign_mean_score(system, row, sample_eval, calibration)
        queue.append(FuzzSeed(row.copy(), label, score, lineage, row.copy()))
    adis, log = [], []
    for iteration in range(cfg.max_iter):
        if not queue:
            break
        seed = queue.popleft()
        outcome = "exhausted"
        for _ in range(cfg.energy):
            x_new = mutate_saliency_aware(seed, sample_eval, system,
                                          cfg.mask_weight, cfg.bound, rng,
                                          cfg.noise_std_factor)
            seed = FuzzSeed(x_new, seed.target, seed.best_score,
                            seed.lineage_id, seed.origin)
            if is_adi(x_new, sample_eval, seed.target, system,
                      cfg.stable_fraction):
                r_full = full_eval.attack_accuracy(x_new, seed.target)
                if r_full >= cfg.threshold:
                    adis.append(AdiCandidate(
                        seed.origin.copy(), x_new - seed.origin, seed.target,
                        float(r_full), iteration + 1, "bounded", "greybox",
                        provenance="fuzz"))
                    outcome = "adi"
            else:
                better, score = reduce_saliency(seed, x_new, system,
                                                sample_eval, calibration)
                if better:
                    queue.append(FuzzSeed(x_new.copy(), seed.target, score,
                                          seed.lineage_id, seed.origin))
                    seed = FuzzSeed(x_new, seed.target, score,
                                    seed.lineage_id, seed.origin)
                    outcome = "requeued"
        log.append({"iteration": iteration, "lineage": seed.lineage_id,
                    "score": seed.best_score, "outcome": outcome})
    return adis, log


class TestMaskCount:
    def test_binary_heterolr_once_per_label(self, credit_setup, mask_labels):
        args = _campaign_args(credit_setup["system"],
                              credit_setup["train_views"],
                              credit_setup["test_views"])
        res = fuzz_campaign(*args)
        assert res.n_mutations > 0 and mask_labels
        assert len(mask_labels) == len(set(mask_labels)) <= 2

    def test_softmax_heterolr_once_per_label(self, mask_labels):
        system, train_views, test_views = three_class_linear()
        res = fuzz_campaign(*_campaign_args(system, train_views, test_views))
        assert res.n_mutations > 0 and mask_labels
        assert len(mask_labels) == len(set(mask_labels)) <= 3

    def test_splitnn_once_per_row(self, digits_setup, mask_labels):
        n_corpus, n_sample = 3, 8
        res = fuzz_campaign(*_campaign_args(
            digits_setup["system"], digits_setup["train_views"],
            digits_setup["test_views"], n_corpus, n_sample, max_iter=3,
            energy=2))
        # One mask per row a mutation visits, plus at most one per origin
        # row and benign row for the disagreeing branch.
        visited = res.n_mutations * n_sample
        assert visited <= len(mask_labels) <= visited + n_corpus * n_sample


def relu_heterolr():
    """Binary HeteroLR whose adversary model has a ReLU layer, so its mask
    depends on the row even though the coordinator is linear."""
    rng = np.random.default_rng(5)
    m_a = LocalModel([
        LayerSpec("linear", 4, 6, rng.standard_normal((6, 4))),
        LayerSpec("relu", 6, 6),
        LayerSpec("linear", 6, 1, rng.standard_normal((1, 6)))])
    m_b = LocalModel([LayerSpec("linear", 3, 1, rng.standard_normal((1, 3)))])
    system = VFLSystem([Participant("A", [0, 1, 2, 3], m_a),
                        Participant("B1", [4, 5, 6], m_b)],
                       Coordinator("heterolr", bias=np.zeros(1)), 2)
    return system, rng.standard_normal((12, 4)), [rng.standard_normal((10, 3))]


def test_relu_adversary_takes_the_per_row_path(mask_labels):
    system, rows, s_views = relu_heterolr()
    bound = np.ones(4)
    ev = JointEvaluator(system, s_views)
    branches = [0, 0]
    n_calls = 0
    for i, x in enumerate(rows):
        target = i % 2
        seed = ref = FuzzSeed(x, target, 1.0, 0, x.copy())
        rng_ref, rng = np.random.default_rng(i), np.random.default_rng(i)
        for _ in range(3):
            out_ref, taken = reference_mutation(ref, s_views, system, 0.5,
                                                bound, rng_ref, 0.5)
            mask_labels.clear()
            out = mutate_saliency_aware(seed, ev, system, 0.5, bound, rng,
                                        0.5)
            assert out.tobytes() == out_ref.tobytes()
            n_calls += len(mask_labels)
            branches = [a + b for a, b in zip(branches, taken)]
            seed, ref = (FuzzSeed(o, target, 1.0, 0, x.copy())
                         for o in (out, out_ref))
    assert min(branches) > 0
    assert n_calls >= 3 * len(rows) * ev.n


def test_lineage_candidates_share_one_read_only_origin(credit_setup):
    args = _campaign_args(credit_setup["system"], credit_setup["train_views"],
                          credit_setup["test_views"], n_corpus=10)
    res = fuzz_campaign(*args)
    ref_adis, ref_log = reference_campaign(*args)
    assert [c.to_json() for c in res.adis] == [c.to_json() for c in ref_adis]
    assert res.log == ref_log
    by_row = {}
    for cand in res.adis:
        by_row.setdefault(cand.base.tobytes(), []).append(cand.base)
    assert any(len(bases) > 1 for bases in by_row.values())
    for bases in by_row.values():
        assert all(base is bases[0] for base in bases)
        assert not bases[0].flags.writeable
        with pytest.raises(ValueError):
            bases[0][0] = 0.0
