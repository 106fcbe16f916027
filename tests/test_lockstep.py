"""Stacked passes and lockstep synthesis give the bytes of lone ones.

The local models and the coordinator take (R, m, d) stacks of m-row batches;
each batch must come out exactly as its own lone pass would, which a flat
(R*m, d) batch does not guarantee. ``success_rate`` synthesises all its rows
in one lockstep call; each candidate must equal that row's own
``adi_generate`` candidate.
"""
import numpy as np
import pytest

from test_fuzzer import three_class_linear
from test_synthesis import three_party_splitnn
from vflkit.assessment import success_rate
from vflkit.model import LayerSpec, LocalModel, backward, forward, init_model
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             coordinator_backward, _coordinator_forward,
                             _JointTrace)
from vflkit.synthesis import (AdiCandidate, JointEvaluator, SynthesisConfig,
                              adi_generate, default_bound, _inner_minimize,
                              _objective_grads)

R = 3


def _same(stacked, lone):
    assert stacked.shape[0] == len(lone)
    for got, want in zip(stacked, lone):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _every_layer_kind(d):
    """relu, sigmoid and softmax layers between linear ones."""
    mlp = init_model([d, 12, 5], "sigmoid", head="softmax", seed=4)
    relu = init_model([5, 7, 3], "relu", seed=5)
    return LocalModel(mlp.layers + [LayerSpec("relu", 5, 5)] + relu.layers)


def _local_models(digits_setup):
    return [digits_setup["system"].participants[0].model,
            digits_setup["system"].coordinator.top_model,
            _every_layer_kind(9)]


class TestModelStacks:
    @pytest.mark.parametrize("rows", ["one", "d+1"])
    def test_forward_and_backward(self, digits_setup, rows):
        rng = np.random.default_rng(3)
        for model in _local_models(digits_setup):
            d, k = model.input_dim, model.output_dim
            m = 1 if rows == "one" else d + 1
            x = rng.standard_normal((R, m, d))
            out, trace = forward(model, x)
            lone = [forward(model, x[i]) for i in range(R)]
            _same(out, [o for o, _ in lone])
            for layer in range(len(model.layers)):
                _same(trace.inputs[layer],
                      [t.inputs[layer] for _, t in lone])
            g = rng.standard_normal((R, m, k))
            _, grad = backward(model, trace, g, with_params=False)
            _same(grad, [backward(model, t, g[i], with_params=False)[1]
                         for i, (_, t) in enumerate(lone)])

    def test_backward_through_a_shared_batch(self, digits_setup):
        # The whitebox benign side: one forward pass, R output gradients.
        rng = np.random.default_rng(4)
        for model in _local_models(digits_setup):
            _, trace = forward(model, rng.standard_normal((1, model.input_dim)))
            g = rng.standard_normal((R, 1, model.output_dim))
            _, grad = backward(model, trace, g, with_params=False)
            _same(grad, [backward(model, trace, g[i], with_params=False)[1]
                         for i in range(R)])

    def test_parameter_gradients_need_a_batch(self):
        model = _every_layer_kind(4)
        _, trace = forward(model, np.ones((R, 1, 4)))
        with pytest.raises(ValueError, match="2-D"):
            backward(model, trace, np.ones((R, 1, 3)))

    def test_stack_input_checked(self):
        model = _every_layer_kind(4)
        with pytest.raises(ValueError, match="finite"):
            forward(model, np.full((R, 1, 4), np.nan))
        with pytest.raises(ValueError, match="columns"):
            forward(model, np.ones((R, 1, 5)))


def narrow_splitnn():
    """Untrained 2-party SplitNN with a 9-column adversary: its d+1 = 10-row
    batches reach top-model products that a flat batch rounds differently
    from its lone parts, where the 393-row ones of the digits system do
    not."""
    rng = np.random.default_rng(6)
    system = VFLSystem(
        [Participant("A", list(range(9)), init_model([9, 16], seed=1)),
         Participant("B1", list(range(9, 14)), init_model([5, 16], seed=2))],
        Coordinator("splitnn",
                    top_model=init_model([32, 32, 10], head="softmax",
                                         seed=3)), 10)
    return system, [rng.standard_normal((40, 9)),
                    rng.standard_normal((40, 5))]


def _systems(credit_setup, digits_setup):
    linear3, _, views3 = three_class_linear()
    party3, views_p3 = three_party_splitnn()
    return {
        "binary-heterolr": (credit_setup["system"],
                            credit_setup["test_views"]),
        "softmax-heterolr": (linear3, views3),
        "splitnn": (digits_setup["system"], digits_setup["test_views"]),
        "splitnn-3-party": (party3, views_p3),
        "splitnn-narrow": narrow_splitnn(),
    }


class TestCoordinatorStacks:
    @pytest.mark.parametrize("rows", ["one", "d+1"])
    def test_forward_and_backward(self, credit_setup, digits_setup, rows):
        rng = np.random.default_rng(5)
        for system, views in _systems(credit_setup, digits_setup).values():
            d = views[0].shape[1]
            m = 1 if rows == "one" else d + 1
            x = np.stack([views[0][rng.choice(len(views[0]), m)]
                          for _ in range(R)])
            locals_ = [forward(p.model, x)[0] if i == 0 else
                       np.stack([forward(p.model, v[rng.choice(len(v), m)])[0]
                                 for _ in range(R)])
                       for i, (p, v) in enumerate(
                           zip(system.participants, views))]
            probs, trace = _coordinator_forward(system, locals_)
            lone = [_coordinator_forward(system, [b[i] for b in locals_])
                    for i in range(R)]
            _same(probs, [p for p, _ in lone])
            g = rng.standard_normal((R,) + probs.shape[1:])
            for from_logits in (False, True):
                stacked, _ = coordinator_backward(
                    system, _JointTrace(None, locals_, trace, probs), g,
                    from_logits)
                for i, (p_i, t_i) in enumerate(lone):
                    want, _ = coordinator_backward(
                        system, _JointTrace(None, None, t_i, p_i), g[i],
                        from_logits)
                    for got_b, want_b in zip(stacked, want):
                        assert got_b[i].tobytes() == want_b.tobytes()


def _cfg(mode, strategy, train_adv, **kw):
    bound = default_bound(train_adv) if strategy == "bounded" else None
    return SynthesisConfig(mode=mode, strategy=strategy, bound=bound, **kw)


def lone_reference(x, system, l_target, cfg, tiny, full):
    """The round loop of one row on its own, with each round's objective
    and ``_inner_minimize`` on the lone 1-D row: the reference a lockstep
    block is compared against."""
    v = np.zeros_like(x)
    delta_prev = np.zeros_like(x)
    t = 1
    r = full.attack_accuracy(x, l_target)
    while r <= cfg.threshold and t <= cfg.max_rounds:
        for j in range(tiny[0].shape[0]):
            if t > cfg.max_rounds:
                break
            grads = _objective_grads(system, [view[j] for view in tiny],
                                     l_target, cfg)
            delta = cfg.momentum * delta_prev + _inner_minimize(grads, x, v,
                                                                cfg)
            if cfg.strategy == "bounded":
                delta = np.clip(v + delta, -cfg.bound, cfg.bound) - v
            v = v + delta
            delta_prev = delta
            t += 1
        r = full.attack_accuracy(x + v, l_target)
    return AdiCandidate(x, v, l_target, r, t - 1, cfg.strategy, cfg.mode)


class TestBlockObjectives:
    """One round's objective over an (R, d) block of adversary rows gives
    each row the gradients of that row's own objective. In whitebox mode
    the block runs as stacks against one benign row's shared locals."""

    @pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
    def test_rows_match_lone_rows(self, credit_setup, digits_setup, mode):
        cfg = SynthesisConfig(mode=mode)
        for system, views in _systems(credit_setup, digits_setup).values():
            block = views[0][:R]
            targets = np.arange(R) % system.n_classes
            rows = [view[0] for view in views[1:]]
            whole = _objective_grads(system, rows, targets, cfg)
            for name in ("saliency_grad", "loss_grad"):
                got = getattr(whole, name)(block)
                _same(got, [getattr(_objective_grads(system, rows, t, cfg),
                                    name)(x)
                            for x, t in zip(block, targets)])


class TestLockstepSuccessRate:
    """The candidates of one lockstep call equal, line for line, those of
    ``adi_generate`` and of the lone reference loop on each row. The cases
    use a threshold below 1, under which rows stop at different sweeps, and
    a round budget that is not a multiple of the sample size."""

    @staticmethod
    def _check(system, views, cfg, n_rows=4, n_tiny=3, threshold=0.9):
        rng = np.random.default_rng(9)
        adv = views[0][rng.choice(len(views[0]), n_rows, replace=False)]
        tiny = [v[:n_tiny] for v in views[1:]]
        test = [v[n_tiny:n_tiny + 60] for v in views[1:]]
        rate, cands = success_rate(system, adv, cfg, tiny, test, threshold)
        full = JointEvaluator(system, test)
        targets = [full.majority_label(x)[0] for x in adv]
        lines = [c.to_json() for c in cands]
        assert lines == [
            adi_generate(x, system, target, cfg, tiny,
                         stop_benign=full).to_json()
            for x, target in zip(adv, targets)]
        assert lines == [
            lone_reference(x, system, target, cfg, tiny, full).to_json()
            for x, target in zip(adv, targets)]
        assert rate == np.mean([c.accuracy >= threshold for c in cands])
        return cands

    @pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
    @pytest.mark.parametrize("strategy", ["random", "bounded"])
    @pytest.mark.parametrize("name", ["binary-heterolr", "softmax-heterolr",
                                      "splitnn", "splitnn-3-party"])
    def test_matches_lone_runs(self, credit_setup, digits_setup, mode,
                               strategy, name):
        system, views = _systems(credit_setup, digits_setup)[name]
        steps = 2 if name.startswith("splitnn") else 3
        cfg = _cfg(mode, strategy, views[0], max_rounds=7, inner_steps=steps,
                   threshold=0.8, inner_lr=0.5)
        self._check(system, views, cfg)

    def test_rows_stop_at_different_sweeps(self, credit_setup):
        views = credit_setup["test_views"]
        cfg = _cfg("whitebox", "random", views[0], max_rounds=20,
                   inner_steps=2, threshold=0.95, inner_lr=0.02)
        cands = self._check(credit_setup["system"], views, cfg, n_rows=8)
        rounds = {c.rounds for c in cands}
        # Dominating from the start, stopped after several different
        # sweeps, and cut by the budget.
        assert {0, 20} <= rounds and len(rounds) >= 5

    @pytest.mark.parametrize("mode", ["whitebox", "blackbox"])
    def test_zero_round_budget(self, credit_setup, mode):
        views = credit_setup["test_views"]
        cfg = _cfg(mode, "random", views[0], max_rounds=0)
        cands = self._check(credit_setup["system"], views, cfg)
        assert all(c.rounds == 0 and not np.any(c.perturbation)
                   for c in cands)
