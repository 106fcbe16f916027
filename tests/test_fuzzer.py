import numpy as np
import pytest

from vflkit.fuzzer import (CampaignConfig, CooperationConfig, FuzzSeed,
                           SaliencyCalibration, calibrate_saliency,
                           compute_mask, fuzz_campaign, is_adi,
                           mutate_saliency_aware, participant_saliency_l1,
                           reduce_saliency, run_cooperative_session,
                           saliency_score)
from vflkit.model import LayerSpec, LocalModel
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             joint_forward, predicted_labels,
                             train_linear_joint)
from vflkit.synthesis import JointEvaluator, SynthesisConfig, adi_generate, \
    attack_accuracy, default_bound


def toy_logistic(theta_a=1.0, theta_b=1.0, bias=0.0):
    m_a = LocalModel([LayerSpec("linear", 1, 1, [[theta_a]])])
    m_b = LocalModel([LayerSpec("linear", 1, 1, [[theta_b]])])
    return VFLSystem([Participant("A", [0], m_a),
                      Participant("B1", [1], m_b)],
                     Coordinator("heterolr", bias=np.array([bias])), 2)


def diag_linear_system(weights_a, weights_b):
    """Two-party logistic system with diagonal-style single linear layers."""
    wa = np.atleast_2d(weights_a)
    wb = np.atleast_2d(weights_b)
    m_a = LocalModel([LayerSpec("linear", wa.shape[1], 1, wa)])
    m_b = LocalModel([LayerSpec("linear", wb.shape[1], 1, wb)])
    cols_a = list(range(wa.shape[1]))
    cols_b = list(range(wa.shape[1], wa.shape[1] + wb.shape[1]))
    return VFLSystem([Participant("A", cols_a, m_a),
                      Participant("B1", cols_b, m_b)],
                     Coordinator("heterolr", bias=np.zeros(1)), 2)


class TestMask:
    def test_zero_weights_zero_mask(self):
        system = toy_logistic(theta_a=0.0)
        views = [np.array([[0.4]]), np.array([[1.0]])]
        mask = compute_mask(system, views, "A", 1)
        np.testing.assert_array_equal(mask, [0.0])

    def test_single_feature_self_normalizes(self):
        system = toy_logistic(theta_a=2.0)
        views = [np.array([[0.4]]), np.array([[1.0]])]
        np.testing.assert_array_equal(compute_mask(system, views, "A", 1),
                                      [1.0])

    def test_peaks_follow_weight_magnitudes(self):
        system = diag_linear_system([[0.1, -2.0, 0.5]], [[1.0]])
        views = [np.array([[1.0, 1.0, 1.0]]), np.array([[0.0]])]
        mask = compute_mask(system, views, "A", 1)
        assert mask.argmax() == 1
        np.testing.assert_allclose(mask, [0.05, 1.0, 0.25])

    def test_values_in_unit_interval(self, digits_setup):
        system = digits_setup["system"]
        views = [v[:1] for v in digits_setup["test_views"]]
        mask = compute_mask(system, views, "A", 3)
        assert mask.min() >= 0.0 and mask.max() <= 1.0


class TestSaliencyScore:
    def test_missing_calibration_errors(self, toy_logistic_system):
        views = [np.ones((1, 1)), np.ones((1, 1))]
        with pytest.raises(ValueError, match="calibration"):
            saliency_score(toy_logistic_system, views, "B1", None)

    def test_zero_weight_participant_scores_zero(self):
        system = toy_logistic(theta_b=0.0)
        calib = SaliencyCalibration({"A": 1.0, "B1": 1.0})
        views = [np.ones((3, 1)), np.ones((3, 1))]
        np.testing.assert_array_equal(
            saliency_score(system, views, "B1", calib), [0.0, 0.0, 0.0])

    def test_calibration_row_clamps_to_one(self, credit_setup):
        system = credit_setup["system"]
        train_views = credit_setup["train_views"]
        calib = calibrate_saliency(system, train_views)
        scores = saliency_score(system, train_views, "B1", calib)
        assert scores.max() == 1.0
        assert np.mean(scores >= 1.0) <= 0.02  # 99th-percentile scale

    def test_monotone_in_weight_scale(self):
        # Doubling the benign weights cannot lower the pre-clamp score.
        base = diag_linear_system([[1.0]], [[0.5, 0.25]])
        double = diag_linear_system([[1.0]], [[1.0, 0.5]])
        views = [np.array([[0.3]]), np.array([[1.0, 1.0]])]
        l1_base = participant_saliency_l1(base, views)[0, 1]
        l1_double = participant_saliency_l1(double, views)[0, 1]
        assert l1_double >= l1_base


class TestIsAdi:
    def test_constant_system(self):
        system = toy_logistic(theta_a=0.0, theta_b=0.0, bias=4.0)
        s = [np.random.default_rng(0).standard_normal((10, 1))]
        assert is_adi([0.0], s, 1, system)
        assert not is_adi([0.0], s, 0, system)

    def test_echoing_system_fails_on_diverse_sample(self):
        system = toy_logistic(theta_a=0.0, theta_b=5.0)
        s = [np.array([[-2.0], [2.0]])]
        assert not is_adi([0.0], s, 1, system)

    def test_cross_module_consistency(self):
        system = toy_logistic()
        s_rows = np.linspace(-3, 3, 7)[:, None]
        cfg = SynthesisConfig(strategy="random", threshold=1.0,
                              max_rounds=200, inner_lr=0.5)
        cand = adi_generate(np.array([0.5]), system, 0, cfg, [s_rows])
        assert cand.accuracy == 1.0
        assert is_adi(cand.input, [s_rows], 0, system)

    def test_stable_fraction(self):
        system = toy_logistic()
        s = [np.array([[-1.0], [-2.0], [5.0]])]  # one disagreeing row
        assert not is_adi([-1.0], s, 0, system, stable_fraction=1.0)
        assert is_adi([-1.0], s, 0, system, stable_fraction=0.6)


class TestMutation:
    def make_seed(self, system, x, s_views, calib):
        ev = JointEvaluator(system, s_views)
        label, _ = ev.majority_label(x)
        from vflkit.fuzzer import _benign_mean_score
        score = _benign_mean_score(system, x, s_views, calib)
        return FuzzSeed(x, label, score, 0, x.copy())

    def test_zero_mask_weight_is_noise_plus_clamp(self, credit_setup):
        system = credit_setup["system"]
        s_views = [credit_setup["test_views"][1][:5]]
        bound = default_bound(credit_setup["train_views"][0])
        calib = calibrate_saliency(system, credit_setup["train_views"])
        x = credit_setup["test_views"][0][0]
        seed = self.make_seed(system, x, s_views, calib)
        rng1 = np.random.default_rng(5)
        out = mutate_saliency_aware(seed, s_views, system, 0.0, bound, rng1)
        rng2 = np.random.default_rng(5)
        noise = rng2.standard_normal(x.shape[0]) * (0.1 * np.sqrt(bound))
        np.testing.assert_allclose(
            out, x + np.clip(noise, -bound, bound), atol=1e-12)

    def test_all_agreeing_sample_augments(self):
        # Every pairing already predicts the target: the mask branch only
        # adds, so the mutation moves weakly-positive features upward.
        system = toy_logistic(theta_a=1.0, theta_b=0.2)
        s_views = [np.array([[0.5], [1.0]])]
        calib = SaliencyCalibration({"A": 1.0, "B1": 1.0})
        x = np.array([4.0])
        seed = self.make_seed(system, x, s_views, calib)
        bound = np.array([50.0])
        rng = np.random.default_rng(0)
        out = mutate_saliency_aware(seed, s_views, system, 0.3, bound, rng,
                                    noise_std_factor=0.0)
        # no noise, two agreeing rows, each adds 0.3 * mask * sqrt(bound)
        assert out[0] > x[0]

    def test_result_within_bound_of_origin(self, credit_setup):
        system = credit_setup["system"]
        s_views = [credit_setup["test_views"][1][:5]]
        bound = default_bound(credit_setup["train_views"][0])
        calib = calibrate_saliency(system, credit_setup["train_views"])
        x = credit_setup["test_views"][0][1]
        seed = self.make_seed(system, x, s_views, calib)
        rng = np.random.default_rng(1)
        cursor = seed
        for _ in range(8):
            out = mutate_saliency_aware(cursor, s_views, system, 0.5, bound,
                                        rng)
            assert np.all(np.abs(out - x) <= bound + 1e-12)
            cursor = FuzzSeed(out, seed.target, seed.best_score, 0, x.copy())


def reference_mutation(seed, s_views, system, mask_weight, bound, rng,
                       noise_std_factor=0.1):
    """mutate_saliency_aware written from joint_forward and compute_mask,
    one full-system pass per call. Also returns how many benign rows took
    the agreeing and the disagreeing branch."""
    scale = np.sqrt(bound)
    x = seed.input + rng.standard_normal(seed.input.shape[0]) * (
        noise_std_factor * scale)
    adv_id = system.participants[0].id
    branches = [0, 0]
    for rows in zip(*s_views):
        views_new = [x[None, :]] + [r[None, :] for r in rows]
        probs = joint_forward(system, views_new).probs
        mask_new = compute_mask(system, views_new, adv_id, seed.target)
        if int(predicted_labels(probs)[0]) == seed.target:
            branches[0] += 1
            x = x + mask_weight * mask_new * scale
        else:
            branches[1] += 1
            views_orig = [seed.origin[None, :]] + [r[None, :] for r in rows]
            mask_orig = compute_mask(system, views_orig, adv_id, seed.target)
            x = x - mask_weight * np.maximum(mask_new - mask_orig, 0.0) * scale
    return seed.origin + np.clip(x - seed.origin, -bound, bound), branches


def three_class_linear():
    """3-class HeteroLR (softmax head) on Gaussian blobs, 3 | 3 columns."""
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 3, size=600)
    means = np.random.default_rng(22).standard_normal((3, 6))
    x = means[labels] + rng.standard_normal((600, 6))
    system, _ = train_linear_joint([x[:, :3], x[:, 3:]], labels, 3,
                                   epochs=5, seed=3)
    return system, [x[:500, :3], x[:500, 3:]], [x[500:, :3], x[500:, 3:]]


class TestFusedStep:
    """mutate_saliency_aware and is_adi give the same bytes with plain views
    and with a JointEvaluator as the full-system reference."""

    def _check(self, system, s_views, x, target, bound, n_steps=3):
        ev = JointEvaluator(system, s_views)
        origin = x.copy()
        ref = plain = fused = FuzzSeed(x, target, 1.0, 0, origin)
        rngs = [np.random.default_rng(11) for _ in range(3)]
        branches = [0, 0]
        for _ in range(n_steps):
            out_ref, taken = reference_mutation(ref, s_views, system, 0.2,
                                                bound, rngs[0])
            out_plain = mutate_saliency_aware(plain, s_views, system, 0.2,
                                              bound, rngs[1])
            out_fused = mutate_saliency_aware(fused, ev, system, 0.2, bound,
                                              rngs[2])
            assert out_plain.tobytes() == out_ref.tobytes()
            assert out_fused.tobytes() == out_ref.tobytes()
            for frac in (1.0, 0.5):
                assert is_adi(out_ref, s_views, target, system, frac) == \
                    is_adi(out_ref, ev, target, system, frac)
            branches = [a + b for a, b in zip(branches, taken)]
            ref, plain, fused = (FuzzSeed(out, target, 1.0, 0, origin)
                                 for out in (out_ref, out_plain, out_fused))
        # Both feedback branches ran, the second one through the memo.
        assert min(branches) > 0

    @staticmethod
    def _contested(system, s_views, rows):
        """The adversary row whose majority label the sample agrees on
        least, and that label: both feedback branches then run."""
        ev = JointEvaluator(system, s_views)
        shares = [ev.majority_label(row) for row in rows]
        i = int(np.argmin([share for _, share in shares]))
        return rows[i], shares[i][0]

    def test_binary_heterolr(self, credit_setup):
        system = credit_setup["system"]
        s_views = [credit_setup["test_views"][1][:20]]
        bound = default_bound(credit_setup["train_views"][0], 6.0)
        x, target = self._contested(system, s_views,
                                    credit_setup["test_views"][0][:30])
        self._check(system, s_views, x, target, bound)

    def test_softmax_heterolr(self):
        system, train_views, test_views = three_class_linear()
        s_views = [test_views[1][:20]]
        bound = default_bound(train_views[0], 6.0)
        x, target = self._contested(system, s_views, test_views[0][:30])
        self._check(system, s_views, x, target, bound)

    def test_splitnn(self, digits_setup):
        system = digits_setup["system"]
        s_views = [digits_setup["test_views"][1][:12]]
        bound = default_bound(digits_setup["train_views"][0], 6.0)
        x, target = self._contested(system, s_views,
                                    digits_setup["test_views"][0][:30])
        self._check(system, s_views, x, target, bound, n_steps=2)

    def test_row_trace_matches_joint_forward(self, credit_setup, digits_setup):
        # Fixed rows use their own single-row local outputs; rows sliced from
        # a batched forward differ in the last bits on credit.
        for setup in (credit_setup, digits_setup):
            system = setup["system"]
            x = setup["test_views"][0][0]
            s_views = [setup["test_views"][1][:20]]
            ev = JointEvaluator(system, s_views)
            for j in range(20):
                jt = joint_forward(system,
                                   [x[None, :], s_views[0][j][None, :]])
                assert ev.row_trace(x, j).probs.tobytes() == jt.probs.tobytes()

    def test_foreign_evaluator_rejected(self, credit_setup):
        system = credit_setup["system"]
        s_views = [credit_setup["test_views"][1][:5]]
        other = toy_logistic()
        with pytest.raises(ValueError, match="evaluator"):
            is_adi(np.zeros(13), JointEvaluator(system, s_views), 0, other)


class TestReduceSaliency:
    def test_identical_input_not_a_reduction(self, credit_setup):
        system = credit_setup["system"]
        s_views = [credit_setup["test_views"][1][:5]]
        calib = calibrate_saliency(system, credit_setup["train_views"])
        x = credit_setup["test_views"][0][0]
        from vflkit.fuzzer import _benign_mean_score
        score = _benign_mean_score(system, x, s_views, calib)
        seed = FuzzSeed(x, 0, score, 0, x.copy())
        better, new_score = reduce_saliency(seed, x, system, s_views, calib)
        assert not better and new_score == score

    def test_zeroing_benign_pathway_reduces(self):
        # Constructed toy: moving the score deep negative shrinks the benign
        # side's sigmoid gradient.
        system = toy_logistic()
        s_views = [np.array([[0.1], [-0.2]])]
        calib = SaliencyCalibration({"A": 1.0, "B1": 1.0})
        from vflkit.fuzzer import _benign_mean_score
        x0 = np.array([0.0])
        seed = FuzzSeed(x0, 0, _benign_mean_score(system, x0, s_views, calib),
                        0, x0.copy())
        better, _ = reduce_saliency(seed, np.array([-8.0]), system, s_views,
                                    calib)
        assert better


class TestCampaign:
    def _setup(self, credit_setup, n_corpus=6, **overrides):
        system = credit_setup["system"]
        test_views = credit_setup["test_views"]
        bound = default_bound(credit_setup["train_views"][0])
        calib = calibrate_saliency(system, credit_setup["train_views"])
        rng = np.random.default_rng(3)
        idx = rng.choice(test_views[0].shape[0], size=n_corpus, replace=False)
        corpus = test_views[0][idx]
        kwargs = {"max_iter": 12, "energy": 5, "bound": bound, "seed": 4}
        kwargs.update(overrides)
        cfg = CampaignConfig(**kwargs)
        # fuzz_campaign's documented order: corpus first, then the system.
        return corpus, system, [test_views[1][:25]], cfg, [test_views[1]], calib

    def test_already_dominating_seed_found_quickly(self, credit_setup):
        system = credit_setup["system"]
        test_views = credit_setup["test_views"]
        ev = JointEvaluator(system, [test_views[1]])
        shares = [ev.majority_label(test_views[0][i])[1] for i in range(300)]
        strong = int(np.argmax(shares))
        assert shares[strong] >= 0.95
        bound = default_bound(credit_setup["train_views"][0])
        calib = calibrate_saliency(system, credit_setup["train_views"])
        cfg = CampaignConfig(max_iter=2, energy=3, bound=bound, seed=0)
        res = fuzz_campaign(test_views[0][strong][None, :], system,
                            [test_views[1][:25]], cfg, [test_views[1]], calib)
        assert len(res.adis) >= 1

    def test_mutation_budget_respected(self, credit_setup):
        args = self._setup(credit_setup)
        res = fuzz_campaign(*args)
        cfg = args[3]
        assert res.n_mutations <= cfg.max_iter * cfg.energy
        # With no time budget every popped seed gets exactly `energy` mutations.
        assert res.n_mutations == res.n_iterations * cfg.energy

    def test_deterministic_replay(self, credit_setup):
        args = self._setup(credit_setup)
        a = fuzz_campaign(*args)
        b = fuzz_campaign(*args)
        assert a.adis
        assert len(a.adis) == len(b.adis)
        for ca, cb in zip(a.adis, b.adis):
            assert ca.perturbation.tobytes() == cb.perturbation.tobytes()
        assert a.log == b.log

    def test_emitted_adis_verified_on_full_view(self, credit_setup):
        args = self._setup(credit_setup, n_corpus=10, max_iter=10)
        res = fuzz_campaign(*args)
        _, system, _, _, full_views, _ = args
        assert res.adis
        for cand in res.adis:
            r = attack_accuracy(cand.input, system, cand.target, full_views)
            assert r >= 0.95
            assert cand.provenance == "fuzz"

    def test_splitnn_campaign(self, digits_setup):
        system = digits_setup["system"]
        test_views = digits_setup["test_views"]
        bound = default_bound(digits_setup["train_views"][0], 6.0)
        calib = calibrate_saliency(system, digits_setup["train_views"])
        cfg = CampaignConfig(max_iter=3, energy=2, bound=bound, seed=1)
        args = (test_views[0][:3], system, [test_views[1][:10]], cfg,
                [test_views[1]], calib)
        a = fuzz_campaign(*args)
        b = fuzz_campaign(*args)
        assert a.adis
        assert a.log == b.log
        assert [c.to_json() for c in a.adis] == [c.to_json() for c in b.adis]
        for cand in a.adis:
            assert attack_accuracy(cand.input, system, cand.target,
                                   [test_views[1]]) == cand.accuracy

    def test_system_first_order_rejected(self, credit_setup):
        corpus, system, *rest = self._setup(credit_setup)
        with pytest.raises(TypeError, match=r"fuzz_campaign\(corpus, system"):
            fuzz_campaign(system, corpus, *rest)

    def test_campaign_requires_bound_and_calibration(self, credit_setup):
        system = credit_setup["system"]
        views = [credit_setup["test_views"][1][:5]]
        cfg = CampaignConfig(max_iter=1, energy=1,
                             bound=np.ones(13), seed=0)
        with pytest.raises(ValueError, match="calibration"):
            fuzz_campaign(np.zeros((1, 13)), system, views, cfg,
                          [credit_setup["test_views"][1]], None)
        cfg2 = CampaignConfig(max_iter=1, energy=1, seed=0)
        calib = calibrate_saliency(system, credit_setup["train_views"])
        with pytest.raises(ValueError, match="bound"):
            fuzz_campaign(np.zeros((1, 13)), system, views, cfg2,
                          [credit_setup["test_views"][1]], calib)


class TestCooperativeSession:
    def _run(self, credit_setup, n_outer=1, n_inner=1, n_corpus=2, seed=0):
        system = credit_setup["system"]
        test_views = credit_setup["test_views"]
        bound = default_bound(credit_setup["train_views"][0])
        corpus = test_views[0][:n_corpus]
        cfg = CooperationConfig(n_noise=4, n_inner=n_inner, n_outer=n_outer,
                                bound=bound, seed=seed)
        return run_cooperative_session(system, corpus,
                                       [test_views[1][:12]], cfg)

    def test_single_outer_iteration_step_order(self, credit_setup):
        result = self._run(credit_setup, n_outer=1, n_inner=1, n_corpus=1)
        steps = [m.step for m in result.messages]
        # step 1 appears first; 2..9 in order exactly once
        assert steps[0] == "1"
        core = [s for s in steps if s != "1"]
        assert [s for s in core if s in "23456789"] == \
            ["2", "3", "3", "3", "4", "4", "5", "6", "7", "7", "7", "8", "8",
             "9"]

    def test_benign_payload_kinds_restricted(self, credit_setup):
        result = self._run(credit_setup, n_outer=3, n_inner=2)
        benign_ids = {"B1"}
        kinds = {m.payload_kind for m in result.messages
                 if m.sender in benign_ids}
        assert kinds <= {"local_output", "saliency_score"}

    def test_ratio_log_recomputation(self, credit_setup):
        result = self._run(credit_setup, n_outer=2, n_inner=2)
        for entry in result.ratio_log:
            assert entry["ratio_a"] == pytest.approx(
                entry["score_masked_a"] / max(entry["score_orig_a"], 1e-12))
            assert entry["ratio_b"] == pytest.approx(
                entry["score_masked_b"] / max(entry["score_orig_b"], 1e-12))

    def test_found_candidates_dominate_sample(self, credit_setup):
        system = credit_setup["system"]
        result = self._run(credit_setup, n_outer=12, n_inner=4, n_corpus=6,
                           seed=2)
        for cand in result.found:
            assert cand.accuracy > 0.95
            assert cand.provenance == "cooperative-fuzz"


class TestCampaignConfig:
    @pytest.mark.parametrize("key, value", [
        ("max_iter", 2.5), ("max_iter", True), ("max_iter", 0),
        ("max_iter", "3"), ("energy", 1.5), ("energy", np.float64(2.0)),
        ("noise_std_factor", float("nan")), ("noise_std_factor", float("inf")),
        ("noise_std_factor", -0.1), ("noise_std_factor", "0.1"),
        ("budget_secs", 0), ("budget_secs", -60.0),
        ("budget_secs", float("nan")), ("budget_secs", float("inf")),
        ("thresholds", (0.0, 0.99)), ("thresholds", (0.99, 0.95)),
        ("thresholds", (0.95, 1.5)), ("thresholds", (float("nan"), 0.99)),
        ("thresholds", (0.95,))])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            CampaignConfig(**{key: value})

    def test_edge_values_accepted(self):
        cfg = CampaignConfig(max_iter=np.int64(1), energy=1,
                             noise_std_factor=0, budget_secs=0.5,
                             thresholds=(1.0, 1.0))
        assert cfg.max_iter == 1 and cfg.budget_secs == 0.5

    @pytest.mark.parametrize("key, value", [
        ("mask_weight", "a"), ("mask_weight", None), ("mask_weight", True),
        ("mask_weight", -0.1), ("mask_weight", 1.5),
        ("mask_weight", float("nan")), ("stable_fraction", None),
        ("stable_fraction", "1"), ("stable_fraction", 0),
        ("stable_fraction", 1.01), ("stable_fraction", float("inf"))])
    def test_fraction_rejected_with_its_name(self, key, value):
        with pytest.raises(ValueError, match=key):
            CampaignConfig(**{key: value})

    def test_fraction_edges_accepted(self):
        for mask_weight, stable_fraction in ((0, 1.0), (1.0, 1e-9),
                                             (np.float64(0.5), np.int64(1))):
            cfg = CampaignConfig(mask_weight=mask_weight,
                                 stable_fraction=stable_fraction)
            assert cfg.mask_weight == mask_weight


class TestCooperationConfig:
    @pytest.mark.parametrize("key, value", [
        ("n_noise", 0), ("n_noise", 2.0), ("n_inner", 2.5), ("n_inner", True),
        ("n_outer", -1), ("n_outer", "3"), ("mask_weight", -3),
        ("mask_weight", 1.5), ("mask_weight", float("nan")),
        ("noise_std_factor", -0.1), ("noise_std_factor", float("inf")),
        ("threshold", 1.5), ("threshold", 0.0), ("threshold", "0.9"),
        ("bound", [1.0, 0.0]), ("bound", [1.0, float("nan")])])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=key if key != "bound" else
                           "bound|finite"):
            CooperationConfig(**{key: value})

    def test_edge_values_accepted(self):
        cfg = CooperationConfig(n_noise=np.int64(1), n_inner=1, n_outer=1,
                                mask_weight=0, noise_std_factor=0,
                                threshold=1.0, bound=[0.5, 2.0])
        assert cfg.n_noise == 1 and cfg.bound.tolist() == [0.5, 2.0]
