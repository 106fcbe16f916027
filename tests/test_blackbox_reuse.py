"""Blackbox synthesis reuses its local blocks and keeps every byte.

``_Blackbox`` builds the adversary's forward-difference block once per row
per inner step and the benign rows' blocks once per round, and joins each
fixed party's single row as a broadcast view. ``RecomputingBlackbox`` below
is the objective without any of that reuse: every gradient rebuilds every
local block and copies the fixed rows into full batches, and a block of
rows is one such objective per row. Gradients and candidates must match it
byte for byte, and the coordinator must still answer the same batches,
except that within a round it is asked each distinct one once.
"""
import numpy as np
import pytest

from test_lockstep import _systems as lockstep_systems
from test_synthesis import nonlinear_first_splitnn, three_party_splitnn
from vflkit import synthesis
from vflkit.assessment import success_rate
from vflkit.model import forward
from vflkit.synthesis import (AdiCandidate, JointEvaluator, SynthesisConfig,
                              default_bound, _fd_local_outputs,
                              _inner_minimize, _loss_rows, _Objective,
                              _objective_grads, _spread_rows)

R = 3


class RecomputingBlackbox(_Objective):
    """One row's blackbox objective, rebuilding every block per gradient."""

    def _fd_grad(self, x_adv, rows, vary_adv: bool, fn):
        delta = self.cfg.fdm_step
        inputs = [x_adv] + list(rows)
        varying = [(i == 0) == vary_adv for i in range(len(inputs))]
        m = 1 + sum(x.shape[0] for x, v in zip(inputs, varying) if v)
        blocks = []
        offset = 1
        for part, x, vary in zip(self.system.participants, inputs, varying):
            if not vary:
                out = forward(part.model, x[None, :])[0]
                blocks.append(np.repeat(out, m, axis=0))
                continue
            out = _fd_local_outputs(part.model, x, delta)
            block = np.repeat(out[:1], m, axis=0)
            block[offset:offset + x.shape[0]] = out[1:]
            offset += x.shape[0]
            blocks.append(block)
        vals = fn(synthesis._coordinator_forward(self.system, blocks)[0])
        return (vals[1:] - vals[0]) / delta

    def loss_grad(self, x_adv):
        return self._fd_grad(x_adv, self.rows, True,
                             lambda probs: _loss_rows(probs, self.l_target))

    def _benign_spread_grad(self, x_adv):
        return self._fd_grad(x_adv, self.rows, False, _spread_rows)

    def _adv_spread_grad(self, x_adv, rows):
        return self._fd_grad(x_adv, rows, True, _spread_rows)


class EachRow:
    """A block's oracle objective: one recomputing objective per row."""

    def __init__(self, system, rows, targets, cfg):
        self.objectives = [RecomputingBlackbox(system, rows, t, cfg)
                           for t in targets]

    def saliency_grad(self, x_adv):
        return np.stack([obj.saliency_grad(x)
                         for obj, x in zip(self.objectives, x_adv)])

    def loss_grad(self, x_adv):
        return np.stack([obj.loss_grad(x)
                         for obj, x in zip(self.objectives, x_adv)])


def _systems(credit_setup, digits_setup):
    return {**lockstep_systems(credit_setup, digits_setup),
            "nonlinear-first-layer": nonlinear_first_splitnn()}


NAMES = ["binary-heterolr", "softmax-heterolr", "splitnn", "splitnn-3-party",
         "nonlinear-first-layer"]


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestGradientsMatchRecomputing:
    """Over several inner steps, so that the kept blocks are reused."""

    @staticmethod
    def _steps(system, views):
        rng = np.random.default_rng(17)
        block = views[0][:R]
        rows = [view[0] for view in views[1:]]
        targets = np.arange(R) % system.n_classes
        steps = [block + 0.05 * rng.standard_normal(block.shape)
                 for _ in range(3)]
        return rows, targets, steps

    @pytest.mark.parametrize("name", NAMES)
    def test_one_row(self, credit_setup, digits_setup, name):
        system, views = _systems(credit_setup, digits_setup)[name]
        rows, targets, steps = self._steps(system, views)
        cfg = SynthesisConfig(mode="blackbox")
        got = _objective_grads(system, rows, int(targets[1]), cfg)
        want = RecomputingBlackbox(system, rows, int(targets[1]), cfg)
        for x in steps:
            for grad in ("saliency_grad", "loss_grad"):
                _same_bytes(getattr(got, grad)(x[1]),
                            getattr(want, grad)(x[1]))

    @pytest.mark.parametrize("name", NAMES)
    def test_block(self, credit_setup, digits_setup, name):
        system, views = _systems(credit_setup, digits_setup)[name]
        rows, targets, steps = self._steps(system, views)
        cfg = SynthesisConfig(mode="blackbox")
        got = _objective_grads(system, rows, targets, cfg)
        want = EachRow(system, rows, targets, cfg)
        for x in steps:
            for grad in ("saliency_grad", "loss_grad"):
                _same_bytes(getattr(got, grad)(x), getattr(want, grad)(x))

    def test_row_changed_in_place(self, credit_setup):
        # The kept blocks are keyed on the row's value, not on the array.
        views = credit_setup["test_views"]
        cfg = SynthesisConfig(mode="blackbox")
        rows = [views[1][0]]
        got = _objective_grads(credit_setup["system"], rows, 1, cfg)
        x = views[0][0].copy()
        got.loss_grad(x)
        x[2] += 0.5
        _same_bytes(got.loss_grad(x),
                    RecomputingBlackbox(credit_setup["system"], rows, 1,
                                        cfg).loss_grad(x))


def lone_recomputing_run(x, system, l_target, cfg, tiny, full):
    """One row's synthesis loop, driven by the recomputing objective."""
    v = np.zeros_like(x)
    delta_prev = np.zeros_like(x)
    t = 1
    r = full.attack_accuracy(x, l_target)
    while r <= cfg.threshold and t <= cfg.max_rounds:
        for j in range(tiny[0].shape[0]):
            if t > cfg.max_rounds:
                break
            grads = RecomputingBlackbox(system, [view[j] for view in tiny],
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


class TestSuccessRateMatchesRecomputing:
    @pytest.mark.parametrize("strategy", ["random", "bounded"])
    @pytest.mark.parametrize("name", NAMES)
    def test_candidate_lines(self, credit_setup, digits_setup, strategy,
                             name):
        system, views = _systems(credit_setup, digits_setup)[name]
        n_tiny = 2 if name == "nonlinear-first-layer" else 3
        rng = np.random.default_rng(9)
        n_rows = min(4, len(views[0]))
        adv = views[0][rng.choice(len(views[0]), n_rows, replace=False)]
        tiny = [v[:n_tiny] for v in views[1:]]
        test = [v[n_tiny:n_tiny + 60] for v in views[1:]]
        bound = default_bound(views[0]) if strategy == "bounded" else None
        steps = 2 if name.startswith(("splitnn", "nonlinear")) else 3
        cfg = SynthesisConfig(mode="blackbox", strategy=strategy, bound=bound,
                              max_rounds=5, inner_steps=steps, threshold=0.8,
                              inner_lr=0.5)
        _, cands = success_rate(system, adv, cfg, tiny, test, 0.8)
        full = JointEvaluator(system, test)
        targets = [full.majority_label(x)[0] for x in adv]
        assert [c.to_json() for c in cands] == [
            lone_recomputing_run(x, system, t, cfg, tiny, full).to_json()
            for x, t in zip(adv, targets)]


def _count_blocks(monkeypatch):
    models = []
    real = synthesis._fd_local_outputs

    def counting(model, x, delta):
        models.append(model)
        return real(model, x, delta)

    monkeypatch.setattr(synthesis, "_fd_local_outputs", counting)
    return models


class TestWorkCount:
    @pytest.mark.parametrize("k", [1, 4])
    def test_one_round(self, monkeypatch, k):
        system, views = three_party_splitnn()
        block = views[0][:R]
        rows = [view[0] for view in views[1:]]
        cfg = SynthesisConfig(mode="blackbox", inner_steps=k)
        models = _count_blocks(monkeypatch)
        grads = _objective_grads(system, rows, np.arange(R) % 3, cfg)
        _inner_minimize(grads, block, np.zeros_like(block), cfg)
        parts = system.participants
        assert sum(m is parts[0].model for m in models) == R * k
        for part in parts[1:]:
            assert sum(m is part.model for m in models) == 1
        assert len(models) == R * k + len(parts) - 1
        # Only the last block's rows keep their adversary blocks.
        assert len(grads._adv) == R

    def test_same_coordinator_batches(self, monkeypatch):
        system, views = three_party_splitnn()
        block = views[0][:R]
        rows = [view[0] for view in views[1:]]
        targets = np.arange(R) % 3
        cfg = SynthesisConfig(mode="blackbox", inner_steps=2)
        shapes = []
        real = synthesis._coordinator_forward

        def counting(system, locals_):
            shapes.append([out.shape for out in locals_])
            return real(system, locals_)

        monkeypatch.setattr(synthesis, "_coordinator_forward", counting)
        batches = []
        for grads in (_objective_grads(system, rows, targets, cfg),
                      EachRow(system, rows, targets, cfg)):
            _inner_minimize(grads, block, np.zeros_like(block), cfg)
            batches.append(shapes[:])
            shapes.clear()
        assert batches[0] == batches[1]
        assert len(batches[0]) == 4 * R * cfg.inner_steps

    def test_lone_row(self, monkeypatch, credit_setup):
        views = credit_setup["test_views"]
        x = views[0][0]
        cfg = SynthesisConfig(mode="blackbox", inner_steps=3)
        models = _count_blocks(monkeypatch)
        grads = _objective_grads(credit_setup["system"], [views[1][0]], 1,
                                 cfg)
        _inner_minimize(grads, x, np.zeros_like(x), cfg)
        adv = credit_setup["system"].participants[0].model
        assert [m is adv for m in models] == [False, True, True, True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_after_a_kept_block(self, credit_setup, bad):
        views = credit_setup["test_views"]
        cfg = SynthesisConfig(mode="blackbox")
        grads = _objective_grads(credit_setup["system"], [views[1][0]],
                                 np.array([1, 0]), cfg)
        block = views[0][:2].copy()
        grads.saliency_grad(block)
        grads.loss_grad(block)
        block[1, 3] = bad
        for grad in (grads.saliency_grad, grads.loss_grad,
                     lambda x: grads._benign_spread_grad(x[1]),
                     lambda x: grads._adv_spread_grad(x[1], grads.rows)):
            with pytest.raises(ValueError):
                grad(block)


def _saturated_row(system, views):
    """An adversary row whose binary score sits far past the sigmoid's
    rounding edge: every forward difference is exactly zero, so towards
    label 0 its gradients vanish and it keeps its value step after step."""
    model = system.participants[0].model
    w = model.layers[0].weights[0]
    x = 2000.0 * w / (w @ w)
    assert np.all(JointEvaluator(system, views[1:]).probs_for(x) == 1.0)
    return x


def _batch_digests(monkeypatch):
    """The bytes of every batch the coordinator is asked, in order."""
    seen = []
    real = synthesis._coordinator_forward

    def recording(system, locals_):
        seen.append(b"".join(np.ascontiguousarray(out).tobytes()
                             for out in locals_))
        return real(system, locals_)

    monkeypatch.setattr(synthesis, "_coordinator_forward", recording)
    return seen


class TestRoundMemo:
    """Each distinct (row value, label) is answered once per round."""

    @staticmethod
    def _block(credit_setup):
        system = credit_setup["system"]
        views = credit_setup["test_views"]
        block = np.vstack([views[0][:2], _saturated_row(system, views)])
        return system, views, block, np.array([1, 0, 0])

    @pytest.mark.parametrize("strategy", ["random", "bounded"])
    def test_saturated_row_candidates(self, credit_setup, strategy):
        system, views, block, targets = self._block(credit_setup)
        tiny = [v[:2] for v in views[1:]]
        full = JointEvaluator(system, [v[2:62] for v in views[1:]])
        bound = default_bound(views[0]) if strategy == "bounded" else None
        cfg = SynthesisConfig(mode="blackbox", strategy=strategy, bound=bound,
                              max_rounds=4, inner_steps=3, threshold=0.8,
                              inner_lr=0.5)
        cands = synthesis._synthesize_rows(block, system, targets, cfg, tiny,
                                           full)
        assert [c.to_json() for c in cands] == [
            lone_recomputing_run(x, system, int(t), cfg, tiny, full).to_json()
            for x, t in zip(block, targets)]
        # The saturated row never moved and ran every round.
        assert not cands[2].perturbation.any()
        assert cands[2].rounds == cfg.max_rounds

    @pytest.mark.parametrize("k", [1, 4])
    def test_saturated_row_batches(self, monkeypatch, credit_setup, k):
        system, views, block, targets = self._block(credit_setup)
        rows = [views[1][0]]
        cfg = SynthesisConfig(mode="blackbox", inner_steps=k)
        seen = _batch_digests(monkeypatch)
        lone = RecomputingBlackbox(system, rows, 0, cfg)
        lone.saliency_grad(block[2])
        lone.loss_grad(block[2])
        per_step = len(seen)
        seen.clear()
        deltas, batches = [], []
        for grads in (_objective_grads(system, rows, targets, cfg),
                      EachRow(system, rows, targets, cfg)):
            deltas.append(_inner_minimize(grads, block, np.zeros_like(block),
                                          cfg))
            batches.append(seen[:])
            seen.clear()
        got, want = batches
        _same_bytes(deltas[0], deltas[1])
        assert per_step > 0
        assert len(want) - len(got) == (k - 1) * per_step
        # The oracle's batches, each asked once, in the order first asked.
        assert got == list(dict.fromkeys(want))

    @pytest.mark.parametrize("name", NAMES)
    def test_label_is_part_of_the_key(self, credit_setup, digits_setup,
                                      name):
        system, views = _systems(credit_setup, digits_setup)[name]
        rows = [view[0] for view in views[1:]]
        block = np.repeat(views[0][:1], 2, axis=0)
        targets = np.array([0, 1])
        cfg = SynthesisConfig(mode="blackbox")
        got = _objective_grads(system, rows, targets, cfg)
        want = EachRow(system, rows, targets, cfg)
        for _ in range(2):
            loss = got.loss_grad(block)
            _same_bytes(loss, want.loss_grad(block))
            _same_bytes(got.saliency_grad(block), want.saliency_grad(block))
            assert not np.array_equal(loss[0], loss[1])

    def test_memo_dies_with_the_objective(self, monkeypatch, credit_setup):
        system = credit_setup["system"]
        views = credit_setup["test_views"]
        rows = [views[1][0]]
        block = views[0][:2].copy()
        targets = np.array([1, 0])
        cfg = SynthesisConfig(mode="blackbox")
        seen = _batch_digests(monkeypatch)
        answers = []
        for fresh in (True, False, True):
            if fresh:
                grads = _objective_grads(system, rows, targets, cfg)
            answers.append((grads.saliency_grad(block),
                            grads.loss_grad(block), len(seen)))
            seen.clear()
        asked, again, fresh_asked = (n for _, _, n in answers)
        assert asked > 0 and again == 0 and fresh_asked == asked
        # Callers get copies: writing to one changes no later answer.
        sal, loss, _ = answers[-1]
        sal_bytes, loss_bytes = sal.tobytes(), loss.tobytes()
        sal += 1.0
        loss[0] = np.nan
        assert grads.saliency_grad(block).tobytes() == sal_bytes
        assert grads.loss_grad(block).tobytes() == loss_bytes
        assert not seen


@pytest.mark.parametrize("name", NAMES)
def test_saliency_is_asked_once_per_row_value(monkeypatch, credit_setup,
                                              digits_setup, name):
    # The saliency term does not depend on the label, so two equal rows
    # towards different targets share one set of saliency batches.
    system, views = _systems(credit_setup, digits_setup)[name]
    rows = [view[0] for view in views[1:]]
    block = np.repeat(views[0][:1], 2, axis=0)
    targets = np.array([0, 1])
    cfg = SynthesisConfig(mode="blackbox")
    seen = _batch_digests(monkeypatch)
    want = EachRow(system, rows, targets, cfg).saliency_grad(block)
    oracle = seen[:]
    seen.clear()
    got = _objective_grads(system, rows, targets, cfg).saliency_grad(block)
    _same_bytes(got, want)
    assert seen
    assert oracle == seen + seen
