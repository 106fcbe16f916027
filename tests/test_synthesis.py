import numpy as np
import pytest

from test_fuzzer import three_class_linear
from vflkit import data, synth_data, synthesis
from vflkit.model import LayerSpec, LocalModel, init_model
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             joint_backward, joint_forward, joint_inference,
                             train_splitnn)
from vflkit.synthesis import (AdiCandidate, JointEvaluator, SynthesisConfig,
                              adi_generate, default_bound,
                              fdm_gradient, read_candidates,
                              saliency_est, saliency_est_fdm, spread_grad,
                              write_candidates, _Blackbox, _inner_minimize,
                              _loss_rows, _Objective, _spread_rows,
                              _target_logit_grad, _Whitebox)


def toy_logistic(theta_a=1.0, theta_b=1.0, bias=0.0):
    m_a = LocalModel([LayerSpec("linear", 1, 1, [[theta_a]])])
    m_b = LocalModel([LayerSpec("linear", 1, 1, [[theta_b]])])
    return VFLSystem([Participant("A", [0], m_a),
                      Participant("B1", [1], m_b)],
                     Coordinator("heterolr", bias=np.array([bias])), 2)


class TestOutputSpread:
    def test_uniform_softmax_is_zero(self):
        assert _spread_rows(np.full((1, 10), 0.1))[0] == pytest.approx(0.0)

    def test_one_hot_variance(self):
        # Hand variance of {1, 0, ..., 0}: (C-1)/C^2.
        for c in (2, 5, 10):
            one_hot = np.zeros((1, c))
            one_hot[0, 0] = 1.0
            assert _spread_rows(one_hot)[0] == pytest.approx((c - 1) / c ** 2)

    def test_scalar_convention(self):
        assert _spread_rows(np.array([[0.73]]))[0] == 0.73


class TestSaliency:
    def test_zero_weight_benign_scores_zero(self):
        system = toy_logistic(theta_b=0.0)
        assert saliency_est([0.5], system, [np.array([1.0])]) == 0.0

    def test_matches_fdm_on_smooth_system(self, credit_setup):
        system = credit_setup["system"]
        x_a = credit_setup["test_views"][0][0]
        x_b = credit_setup["test_views"][1][0]
        analytic = saliency_est(x_a, system, [x_b])
        estimated = saliency_est_fdm(x_a, system, [x_b], delta=1e-5)
        assert estimated == pytest.approx(analytic, rel=1e-2)

    def test_matches_fdm_on_split_network(self, digits_setup):
        system = digits_setup["system"]
        x_a = digits_setup["test_views"][0][3]
        x_b = digits_setup["test_views"][1][3]
        analytic = saliency_est(x_a, system, [x_b])
        estimated = saliency_est_fdm(x_a, system, [x_b], delta=1e-5)
        assert estimated == pytest.approx(analytic, rel=1e-2)

    def test_decreases_over_successful_run(self):
        system = toy_logistic()
        s_rows = np.linspace(-1.0, 1.0, 5)[:, None]
        cfg = SynthesisConfig(strategy="random", max_rounds=60, inner_lr=0.5)
        cand = adi_generate(np.array([0.2]), system, 0, cfg, [s_rows])
        before = saliency_est(cand.base, system, [s_rows[0]])
        after = saliency_est(cand.input, system, [s_rows[0]])
        assert after < before


class TestFdmGradient:
    def test_exact_for_linear_functions(self):
        w = np.array([2.0, -3.0, 0.5])

        def fn(batch):
            return batch @ w

        grad = fdm_gradient(fn, np.array([1.0, 1.0, 1.0]), delta=0.1)
        np.testing.assert_allclose(grad, w, atol=1e-9)

    def test_forward_difference_arithmetic_on_square(self):
        # d/dx x^2 at 1 with delta 1e-3 -> ((1.001)^2 - 1)/1e-3 = 2.001.
        def fn(batch):
            return (batch ** 2).sum(axis=1)

        grad = fdm_gradient(fn, np.array([1.0]), delta=1e-3)
        assert grad[0] == pytest.approx(2.001, abs=1e-9)

    def test_evaluation_count_is_dim_plus_one(self):
        calls = {"rows": 0}

        def fn(batch):
            calls["rows"] += batch.shape[0]
            return np.zeros(batch.shape[0])

        fdm_gradient(fn, np.zeros(7), delta=1e-3)
        assert calls["rows"] == 8

    def test_fdm_saliency_query_count(self, credit_setup):
        # d2 + 1 joint inferences exactly.
        system = credit_setup["system"]
        from vflkit import protocol
        counter = {"rows": 0}
        original = protocol.forward

        x_a = credit_setup["test_views"][0][0]
        x_b = credit_setup["test_views"][1][0]

        import vflkit.protocol as protocol_mod
        real_joint_forward = protocol_mod.joint_forward

        def counting(system_, views):
            jt = real_joint_forward(system_, views)
            counter["rows"] += jt.probs.shape[0]
            return jt

        import vflkit.synthesis as synthesis_mod
        old = synthesis_mod.joint_forward
        synthesis_mod.joint_forward = counting
        try:
            saliency_est_fdm(x_a, system, [x_b], delta=1e-4)
        finally:
            synthesis_mod.joint_forward = old
        assert counter["rows"] == x_b.shape[0] + 1


class TestAttackAccuracy:
    def test_constant_system(self):
        system = toy_logistic(theta_a=0.0, theta_b=0.0, bias=5.0)
        rows = np.random.default_rng(0).standard_normal((30, 1))
        ev = JointEvaluator(system, [rows])
        assert ev.attack_accuracy([0.0], 1) == 1.0
        assert ev.attack_accuracy([0.0], 0) == 0.0

    def test_four_row_enumeration(self):
        # Brute-force oracle: sigma(x_a + x_b) >= 0.5 iff x_a + x_b >= 0.
        system = toy_logistic()
        rows = np.array([[-2.0], [-0.5], [0.5], [2.0]])
        x_a = 1.0
        expected = np.mean([x_a + v >= 0 for v in rows[:, 0]])
        assert JointEvaluator(system, [rows]).attack_accuracy(
            [x_a], 1) == expected

    def test_permutation_invariance(self, digits_setup):
        system = digits_setup["system"]
        rows = digits_setup["test_views"][1][:50]
        x_a = digits_setup["test_views"][0][0]
        perm = np.random.default_rng(1).permutation(50)
        a = JointEvaluator(system, [rows]).attack_accuracy(x_a, 3)
        b = JointEvaluator(system, [rows[perm]]).attack_accuracy(x_a, 3)
        assert a == b

    def test_evaluator_majority_label(self, toy_logistic_system):
        ev = JointEvaluator(toy_logistic_system,
                            [np.array([[-1.0], [-2.0], [3.0]])])
        label, share = ev.majority_label(np.array([0.5]))
        # scores: -0.5, -1.5, 3.5 -> labels 0,0,1
        assert label == 0 and share == pytest.approx(2 / 3)


class TestStopEvaluator:
    """adi_generate measures accuracy with a given evaluator only when it
    varies the adversary of the attacked system."""

    @pytest.mark.parametrize("case", ["other system", "other party"])
    def test_mismatched_evaluator_rejected(self, credit_setup, case):
        system = credit_setup["system"]
        views = credit_setup["test_views"]
        if case == "other system":
            evaluator = JointEvaluator(toy_logistic(), [views[1][:5, :1]])
        else:
            evaluator = JointEvaluator(system, [views[0][:5]], adv_index=1)
        with pytest.raises(ValueError, match="evaluator"):
            adi_generate(views[0][0], system, 0, SynthesisConfig(),
                         [views[1][:3]], stop_benign=evaluator)

    def test_matching_evaluator_accepted(self, credit_setup):
        system = credit_setup["system"]
        views = credit_setup["test_views"]
        cfg = SynthesisConfig(max_rounds=3, inner_steps=2)
        given = adi_generate(views[0][0], system, 0, cfg, [views[1][:3]],
                             stop_benign=JointEvaluator(system,
                                                        [views[1][:40]]))
        built = adi_generate(views[0][0], system, 0, cfg, [views[1][:3]],
                             stop_benign=[views[1][:40]])
        assert given.to_json() == built.to_json()


class TestDefaultBound:
    def test_constant_feature_floored(self):
        view = np.ones((10, 3))
        np.testing.assert_array_equal(default_bound(view), [1e-6] * 3)

    def test_two_point_feature(self):
        view = np.array([[0.0], [2.0]] * 5)
        assert default_bound(view)[0] == pytest.approx(1.0)

    def test_zscored_features_near_unit(self, credit_setup):
        bound = default_bound(credit_setup["train_views"][0])
        assert np.all(bound > 0.8) and np.all(bound < 1.2)

    def test_multiplier(self):
        view = np.array([[0.0], [2.0]])
        assert default_bound(view, multiplier=2.5)[0] == pytest.approx(2.5)


class TestAdiGeneration:
    def test_zero_round_budget_returns_base(self, credit_setup):
        system = credit_setup["system"]
        x = credit_setup["test_views"][0][0]
        cfg = SynthesisConfig(strategy="random", max_rounds=0)
        cand = adi_generate(x, system, 0, cfg,
                            [credit_setup["test_views"][1][:5]])
        np.testing.assert_array_equal(cand.perturbation, np.zeros_like(x))
        assert cand.rounds == 0

    def test_1d_toy_drives_deep_negative(self):
        # Brute-force oracle over an S grid in [-3, 3]: driving the score
        # deep negative dominates every pairing toward label 0.
        system = toy_logistic()
        s_rows = np.linspace(-3.0, 3.0, 7)[:, None]
        cfg = SynthesisConfig(strategy="random", threshold=1.0,
                              max_rounds=400, inner_lr=0.5)
        cand = adi_generate(np.array([0.5]), system, 0, cfg, [s_rows])
        assert cand.input[0] <= -10.0
        grid = np.linspace(-3.0, 3.0, 601)[:, None]
        assert JointEvaluator(system, [grid]).attack_accuracy(
            cand.input, 0) == 1.0

    def test_bounded_respects_bound_everywhere(self, credit_setup):
        system = credit_setup["system"]
        bound = default_bound(credit_setup["train_views"][0])
        cfg = SynthesisConfig(strategy="bounded", bound=bound, max_rounds=30)
        for i in range(4):
            x = credit_setup["test_views"][0][i]
            cand = adi_generate(x, system, 0, cfg,
                                [credit_setup["test_views"][1][:10]])
            assert np.all(np.abs(cand.perturbation) <= bound + 1e-12)

    def test_bounded_requires_bound(self):
        with pytest.raises(ValueError, match="bound"):
            SynthesisConfig(strategy="bounded")

    def test_invalid_target_rejected(self, credit_setup):
        cfg = SynthesisConfig()
        with pytest.raises(ValueError, match="target"):
            adi_generate(credit_setup["test_views"][0][0],
                         credit_setup["system"], 7, cfg,
                         [credit_setup["test_views"][1][:3]])

    def test_whitebox_blackbox_agree_on_credit(self, credit_setup):
        # Smooth system, identical schedules: final assessment within 0.05.
        system = credit_setup["system"]
        test_views = credit_setup["test_views"]
        full = JointEvaluator(system, [test_views[1]])
        s_rows = test_views[1][:15]
        gaps = []
        for i in range(6):
            x = test_views[0][i]
            target, _ = full.majority_label(x)
            r = {}
            for mode in ("whitebox", "blackbox"):
                cfg = SynthesisConfig(strategy="random", mode=mode,
                                      max_rounds=60)
                cand = adi_generate(x, system, target, cfg, [s_rows],
                                    stop_benign=full)
                r[mode] = cand.accuracy
            gaps.append(abs(r["whitebox"] - r["blackbox"]))
        assert max(gaps) <= 0.05

    def test_deterministic(self, credit_setup):
        system = credit_setup["system"]
        x = credit_setup["test_views"][0][2]
        cfg = SynthesisConfig(strategy="random", max_rounds=10)
        a = adi_generate(x, system, 0, cfg, [credit_setup["test_views"][1][:8]])
        b = adi_generate(x, system, 0, cfg, [credit_setup["test_views"][1][:8]])
        assert a.perturbation.tobytes() == b.perturbation.tobytes()


class TestCandidateSerialization:
    def test_json_lines_round_trip(self, tmp_path):
        cands = [AdiCandidate(np.array([1.0, 2.0]), np.array([0.1, -0.2]),
                              3, 0.97, 12, "bounded", "whitebox"),
                 AdiCandidate(np.array([0.0]), np.array([5.0]), 0, 1.0, 2,
                              "random", "blackbox", provenance="fuzz")]
        path = tmp_path / "c.jsonl"
        write_candidates(cands, path)
        loaded = read_candidates(path)
        assert len(loaded) == 2
        assert loaded[0].target == 3 and loaded[0].strategy == "bounded"
        assert loaded[1].provenance == "fuzz"
        np.testing.assert_array_equal(loaded[0].base, [1.0, 2.0])
        assert loaded[0].input.tolist() == [1.1, 1.8]


class ReferenceWhitebox(_Objective):
    """Whitebox gradients as full joint passes: every gradient is one
    joint_forward of single-row views and one joint_backward into every
    participant."""

    def _input_grads(self, x_adv, rows, head):
        views = [x_adv[None, :]] + [row[None, :] for row in rows]
        jt = joint_forward(self.system, views)
        grad, from_logits = head(jt.probs)
        grads, _, _ = joint_backward(self.system, jt, grad,
                                     from_logits=from_logits)
        return grads

    @staticmethod
    def _spread(probs):
        return spread_grad(probs), False

    def loss_grad(self, x_adv):
        def head(probs):
            return _target_logit_grad(probs[0], self.l_target), True
        return self._input_grads(x_adv, self.rows, head)[0][0]

    def _benign_spread_grad(self, x_adv):
        grads = self._input_grads(x_adv, self.rows, self._spread)
        return np.concatenate([g[0] for g in grads[1:]])

    def _adv_spread_grad(self, x_adv, rows):
        return self._input_grads(x_adv, rows, self._spread)[0][0]


class Compared:
    """Hands _inner_minimize the gradients of the objective under test after
    checking them byte for byte against the reference at the same x."""

    def __init__(self, fast, ref):
        self.fast = fast
        self.ref = ref
        self.calls = 0

    def _same(self, name, x):
        got = getattr(self.fast, name)(x)
        want = getattr(self.ref, name)(x)
        assert got.tobytes() == want.tobytes(), name
        self.calls += 1
        return got

    def saliency_grad(self, x):
        return self._same("saliency_grad", x)

    def loss_grad(self, x):
        return self._same("loss_grad", x)


def three_party_splitnn():
    train = synth_data.make_digits_like(600, seed=31)
    views = data.partition_vertical(train, data.mnist_column_split(3))
    dims = [[v.shape[1], 16, 8] for v in views]
    system, _ = train_splitnn(views, train.labels, dims, [24, 16, 10],
                              epochs=2, lr=0.05, batch=64, seed=5)
    return system, views


class TestWhiteboxPasses:
    """_Whitebox's cached one-party passes give the same bytes as full joint
    passes over a chain of inner steps."""

    @staticmethod
    def _chain(system, benign_views, x, target, n_rounds=3, **cfg_kw):
        cfg = SynthesisConfig(inner_steps=4, **cfg_kw)
        v = np.zeros_like(x)
        calls = 0
        for j in range(n_rounds):
            rows = [view[j] for view in benign_views]
            grads = Compared(_Whitebox(system, rows, target, cfg),
                             ReferenceWhitebox(system, rows, target, cfg))
            v = v + _inner_minimize(grads, x, v, cfg)
            calls += grads.calls
        per_step = (cfg.alpha > 0) + (cfg.beta > 0)
        assert calls == n_rounds * cfg.inner_steps * per_step
        assert np.any(v != 0)

    def test_binary_heterolr(self, credit_setup):
        system = credit_setup["system"]
        x = credit_setup["test_views"][0][0]
        benign = [credit_setup["test_views"][1][:3]]
        self._chain(system, benign, x, 1)
        # One objective term alone: the base pass is built by either.
        self._chain(system, benign, x, 0, alpha=0.0)
        self._chain(system, benign, x, 1, beta=0.0)

    def test_softmax_heterolr(self):
        system, _, test_views = three_class_linear()
        self._chain(system, [test_views[1][:3]], test_views[0][0], 2)

    def test_splitnn(self, digits_setup):
        system = digits_setup["system"]
        self._chain(system, [digits_setup["test_views"][1][:2]],
                    digits_setup["test_views"][0][0], 3, n_rounds=2)

    def test_three_parties(self):
        system, views = three_party_splitnn()
        self._chain(system, [views[1][:2], views[2][:2]], views[0][0], 4,
                    n_rounds=2)

    def test_flat_benign_direction(self):
        # A benign side with zero weight has no spread gradient, so the
        # saliency term is exactly zero.
        system = toy_logistic(theta_b=0.0)
        cfg = SynthesisConfig()
        x = np.array([0.5])
        fast = _Whitebox(system, [np.array([0.3])], 1, cfg)
        ref = ReferenceWhitebox(system, [np.array([0.3])], 1, cfg)
        assert np.all(fast._benign_spread_grad(x) == 0)
        got = Compared(fast, ref).saliency_grad(x)
        assert got.tobytes() == np.zeros(1).tobytes()


class TestClosedFormSaliency:
    """Binary HeteroLR: the saliency term's gradient on the adversary's row
    is ||theta_B||_1 * p(1-p)(1-2p) * theta_A, with p the joint output."""

    @staticmethod
    def _cases(credit_setup, n=40):
        system = credit_setup["system"]
        theta_a = system.participants[0].model.layers[0].weights[0]
        theta_b = system.participants[1].model.layers[0].weights[0]
        k = np.abs(theta_b).sum()
        rng = np.random.default_rng(8)
        for _ in range(n):
            x_a = 2.0 * rng.standard_normal(13)
            x_b = 2.0 * rng.standard_normal(10)
            p = joint_inference(system, [x_a[None, :], x_b[None, :]])[0, 0]
            exact = k * p * (1 - p) * (1 - 2 * p) * theta_a
            yield system, x_a, x_b, exact, theta_a, k

    def test_whitebox(self, credit_setup):
        cfg = SynthesisConfig()
        for system, x_a, x_b, exact, theta_a, k in self._cases(credit_setup):
            got = _Whitebox(system, [x_b], 0, cfg).saliency_grad(x_a)
            # A central difference with step h = _HVP_STEP = 1e-5 of
            # q = p(1-p) along the benign direction: truncation
            # (h^2/6) k^3 max|q'''| |theta_A| ~ 1e-10 |theta_A| for k ~ 4, and
            # rounding about eps/h ~ 2e-11 |theta_A|. The bound is ~100x both.
            atol = 1e-8 * k * np.abs(theta_a).max()
            np.testing.assert_allclose(got, exact, rtol=1e-6, atol=atol)

    def test_blackbox(self, credit_setup):
        cfg = SynthesisConfig()
        for system, x_a, x_b, exact, theta_a, k in self._cases(credit_setup):
            got = _Blackbox(system, [x_b], 0, cfg).saliency_grad(x_a)
            # The forward difference (step delta = fdm_step) of sigma(s) along
            # x_A,i carries the bias (delta/2) theta_A,i^2 sigma''(s). Along
            # the benign direction its derivative is
            # (delta/2) k theta_A,i^2 sigma'''(s), and |sigma'''| <= 1/8.
            # Rounding in the nested differences is ~2 eps/(delta h) ~ 4e-8.
            # Twice the bias plus 1e-6 covers both.
            atol = cfg.fdm_step * k * theta_a ** 2 / 8 + 1e-6
            assert np.all(np.abs(got - exact) <= atol)


def nonlinear_first_splitnn():
    """2-party SplitNN whose local models both open with a sigmoid, so no
    first layer is linear."""
    rng = np.random.default_rng(41)

    def local(d_in, d_out, seed):
        mlp = init_model([d_in, d_out], seed=seed)
        return LocalModel([LayerSpec("sigmoid", d_in, d_in)] + mlp.layers)

    top = init_model([7, 6, 3], head="softmax", seed=3)
    system = VFLSystem([Participant("A", list(range(5)), local(5, 4, 1)),
                        Participant("B1", list(range(5, 9)), local(4, 3, 2))],
                       Coordinator("splitnn", top_model=top), 3)
    views = [2.0 * rng.standard_normal((4, 5)),
             2.0 * rng.standard_normal((4, 4))]
    return system, views


def reference_fd(system, x_adv, rows, vary_adv, fn, delta):
    """fdm_gradient over joint_forward on the materialised batch, and the
    largest |fn| value it differenced."""
    widths = np.cumsum([r.shape[0] for r in rows])[:-1]
    seen = []

    def batch_fn(batch):
        m = batch.shape[0]
        if vary_adv:
            views = [batch] + [np.repeat(r[None, :], m, axis=0) for r in rows]
        else:
            views = [np.repeat(x_adv[None, :], m, axis=0)] + \
                np.split(batch, widths, axis=1)
        vals = fn(joint_forward(system, views).probs)
        seen.append(np.abs(vals).max())
        return vals

    base = x_adv if vary_adv else np.concatenate(rows)
    return fdm_gradient(batch_fn, base, delta), seen[0]


class TestBlackboxOracle:
    """_Blackbox answers each forward-difference batch from its structure;
    the gradients match fdm_gradient over joint_forward on the same rows to
    within rounding: 64 eps (1 + max|f|) / delta, f the differenced
    quantity."""

    @staticmethod
    def _check(system, adv_rows, benign_views, target, n_points=3):
        cfg = SynthesisConfig(mode="blackbox")
        delta = cfg.fdm_step
        eps = np.finfo(np.float64).eps
        for j in range(n_points):
            x = adv_rows[j]
            rows = [view[j] for view in benign_views]
            other = [view[j + 1] for view in benign_views]
            bb = _Blackbox(system, rows, target, cfg)
            cases = [
                (bb.loss_grad(x), rows, True,
                 lambda p: _loss_rows(p, target)),
                (bb._adv_spread_grad(x, other), other, True, _spread_rows),
                (bb._benign_spread_grad(x), rows, False, _spread_rows),
            ]
            for got, case_rows, vary_adv, fn in cases:
                want, f_max = reference_fd(system, x, case_rows, vary_adv,
                                           fn, delta)
                assert got.shape == want.shape
                tol = 64 * eps * (1 + f_max) / delta
                assert np.max(np.abs(got - want)) <= tol

    def test_binary_heterolr(self, credit_setup):
        views = credit_setup["test_views"]
        self._check(credit_setup["system"], views[0], [views[1]], 1)

    def test_softmax_heterolr(self):
        system, _, views = three_class_linear()
        self._check(system, views[0], [views[1]], 2)

    def test_splitnn(self, digits_setup):
        views = digits_setup["test_views"]
        self._check(digits_setup["system"], views[0], [views[1]], 3,
                    n_points=2)

    def test_three_parties(self):
        # The benign spread gradient varies both benign parties, each in its
        # own block of rows.
        system, views = three_party_splitnn()
        self._check(system, views[0], views[1:], 4, n_points=2)

    def test_nonlinear_first_layer(self):
        system, views = nonlinear_first_splitnn()
        self._check(system, views[0], views[1:], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_adversary_row(self, credit_setup, bad):
        views = credit_setup["test_views"]
        x = views[0][0].copy()
        x[3] = bad
        bb = _Blackbox(credit_setup["system"], [views[1][0]], 1,
                       SynthesisConfig(mode="blackbox"))
        for grad in (bb.loss_grad, bb._benign_spread_grad,
                     lambda x_: bb._adv_spread_grad(x_, bb.rows)):
            with pytest.raises(ValueError):
                grad(x)

    def test_adversary_row_length_checked(self, credit_setup):
        views = credit_setup["test_views"]
        bb = _Blackbox(credit_setup["system"], [views[1][0]], 1,
                       SynthesisConfig(mode="blackbox"))
        with pytest.raises(ValueError, match="length"):
            bb.loss_grad(views[0][0][:-1])


class TestBlackboxQueries:
    """The paper's cost unit: every blackbox gradient is d+1 joint
    inferences, counted where each one reaches the coordinator."""

    @staticmethod
    def _counter(monkeypatch):
        rows = []
        real = synthesis._coordinator_forward

        def counting(system, locals_):
            rows.append(locals_[0].shape[0])
            return real(system, locals_)

        monkeypatch.setattr(synthesis, "_coordinator_forward", counting)
        return rows

    def test_each_gradient(self, monkeypatch):
        system, views = three_party_splitnn()
        x = views[0][0]
        rows = [view[0] for view in views[1:]]
        d_a = x.shape[0]
        d_b = sum(r.shape[0] for r in rows)
        bb = _Blackbox(system, rows, 4, SynthesisConfig(mode="blackbox"))
        counted = self._counter(monkeypatch)
        bb.loss_grad(x)
        bb._adv_spread_grad(x, rows)
        bb._benign_spread_grad(x)
        assert counted == [d_a + 1, d_a + 1, d_b + 1]

    def test_inner_step(self, monkeypatch, credit_setup):
        views = credit_setup["test_views"]
        x = views[0][0]
        cfg = SynthesisConfig(mode="blackbox", inner_steps=1)
        bb = _Blackbox(credit_setup["system"], [views[1][0]], 1, cfg)
        counted = self._counter(monkeypatch)
        _inner_minimize(bb, x, np.zeros_like(x), cfg)
        d_a, d_b = views[0].shape[1], views[1].shape[1]
        assert len(counted) == 4
        assert sum(counted) == 3 * (d_a + 1) + (d_b + 1)
