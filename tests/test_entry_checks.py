"""Inputs are checked where they enter the package, not in its inner passes.

Every public entry point rejects NaN and Inf input with ValueError, while
the fuzzer's per-row passes run on arrays the package built itself, so the
work spent on validation does not grow with the benign sample.
"""
import numpy as np
import pytest

from vflkit.fuzzer import (CampaignConfig, FuzzSeed, SaliencyCalibration,
                           fuzz_campaign, is_adi, mutate_saliency_aware,
                           reduce_saliency)
from vflkit.model import LayerSpec, LocalModel, backward, forward, init_model
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             coordinator_backward, joint_forward,
                             joint_inference, predicted_labels)
from vflkit.synthesis import (JointEvaluator, SynthesisConfig, adi_generate,
                              fdm_gradient, saliency_est_fdm)


def _splitnn():
    return VFLSystem(
        [Participant("A", [0, 1, 2], init_model([3, 4, 2], seed=1)),
         Participant("B1", [3, 4], init_model([2, 4, 2], seed=2))],
        Coordinator("splitnn",
                    top_model=init_model([4, 5, 3], head="softmax", seed=3)),
        3)


def _heterolr(seed=0):
    rng = np.random.default_rng(seed)
    return VFLSystem(
        [Participant("A", [0, 1, 2],
                     LocalModel([LayerSpec("linear", 3, 1,
                                           rng.standard_normal((1, 3)))])),
         Participant("B1", [3, 4],
                     LocalModel([LayerSpec("linear", 2, 1,
                                           rng.standard_normal((1, 2)))]))],
        Coordinator("heterolr", bias=np.zeros(1)), 2)


def _bad(shape, value):
    arr = np.zeros(shape)
    arr.flat[-1] = value
    return arr


SYSTEM = _splitnn()
BENIGN = [np.random.default_rng(5).standard_normal((6, 2))]
ROW = np.array([0.3, -0.2, 0.5])
CALIB = SaliencyCalibration({"A": 1.0, "B1": 1.0})


def _seed(x=ROW):
    return FuzzSeed(x, 0, 1.0, 0, ROW)


def _joint_trace():
    return joint_forward(SYSTEM, [ROW[None, :], BENIGN[0][:1]])


def _model_backward(v):
    model = SYSTEM.participants[0].model
    _, trace = forward(model, ROW[None, :])
    return backward(model, trace, _bad((1, 2), v))


ENTRY_POINTS = {
    "forward": lambda v: forward(SYSTEM.participants[0].model, _bad(3, v)),
    "backward": _model_backward,
    "joint_inference": lambda v: joint_inference(
        SYSTEM, [_bad((1, 3), v), BENIGN[0][:1]]),
    "coordinator_backward": lambda v: coordinator_backward(
        SYSTEM, _joint_trace(), _bad((1, 3), v)),
    "predicted_labels": lambda v: predicted_labels(_bad((2, 3), v)),
    "JointEvaluator": lambda v: JointEvaluator(SYSTEM, [_bad((6, 2), v)]),
    "probs_for": lambda v: JointEvaluator(SYSTEM, BENIGN).probs_for(
        _bad(3, v)),
    "attack_accuracy": lambda v: JointEvaluator(
        SYSTEM, BENIGN).attack_accuracy(_bad(3, v), 0),
    "majority_label": lambda v: JointEvaluator(
        SYSTEM, BENIGN).majority_label(_bad(3, v)),
    "is_adi": lambda v: is_adi(_bad(3, v), BENIGN, 0, SYSTEM),
    "reduce_saliency": lambda v: reduce_saliency(
        _seed(), _bad(3, v), SYSTEM, BENIGN, CALIB),
    "mutate_saliency_aware bound": lambda v: mutate_saliency_aware(
        _seed(), BENIGN, SYSTEM, 0.2, _bad(3, v), np.random.default_rng(0)),
    "mutate_saliency_aware seed": lambda v: mutate_saliency_aware(
        _seed(_bad(3, v)), BENIGN, SYSTEM, 0.2, np.ones(3),
        np.random.default_rng(0)),
    "adi_generate": lambda v: adi_generate(
        _bad(3, v), SYSTEM, 0, SynthesisConfig(max_rounds=1, inner_steps=1),
        BENIGN),
    "fuzz_campaign corpus": lambda v: fuzz_campaign(
        _bad((2, 3), v), SYSTEM, BENIGN,
        CampaignConfig(max_iter=1, energy=1, bound=np.ones(3)), BENIGN,
        CALIB),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_input_rejected(entry, value):
    with pytest.raises(ValueError, match="finite"):
        ENTRY_POINTS[entry](value)


def test_non_finite_noise_never_leaves_a_mutation():
    # The per-row passes do not check; the returned row is checked once.
    system = _heterolr()
    with pytest.raises(ValueError, match="finite"):
        mutate_saliency_aware(_seed(), BENIGN, system, 0.2, np.ones(3),
                              np.random.default_rng(0), np.nan)


def _isfinite_calls(monkeypatch, n_rows):
    """np.isfinite calls made by a second mutation on a JointEvaluator over
    ``n_rows`` benign rows, after a first one has warmed its caches."""
    system = _heterolr(1)
    views = [np.random.default_rng(2).standard_normal((n_rows, 2))]
    ev = JointEvaluator(system, views)
    seed = _seed()
    bound = np.full(3, 0.5)
    mutate_saliency_aware(seed, ev, system, 0.2, bound,
                          np.random.default_rng(3))
    calls = [0]
    isfinite = np.isfinite

    def counting(*args, **kwargs):
        calls[0] += 1
        return isfinite(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    mutate_saliency_aware(seed, ev, system, 0.2, bound,
                          np.random.default_rng(4))
    monkeypatch.undo()
    return calls[0]


def test_mutation_validation_does_not_grow_with_sample(monkeypatch):
    small = _isfinite_calls(monkeypatch, 5)
    large = _isfinite_calls(monkeypatch, 20)
    assert small == large


def _row_sums(batch):
    return batch.sum(axis=1)


@pytest.mark.parametrize("delta", [0.0, -1e-3, np.nan, np.inf, "0.1", None])
def test_fdm_gradient_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        fdm_gradient(_row_sums, np.zeros(3), delta)


@pytest.mark.parametrize("x", [np.zeros((2, 3)), np.float64(1.0),
                               np.array([0.0, np.nan]),
                               np.array([np.inf, 0.0])])
def test_fdm_gradient_rejects_bad_rows(x):
    with pytest.raises(ValueError):
        fdm_gradient(_row_sums, x, 1e-3)


def test_fdm_gradient_takes_a_list_row():
    assert fdm_gradient(_row_sums, [1, 2, 3], 0.5).tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("delta", ["a", np.nan, 0, -1e-3])
def test_saliency_est_fdm_rejects_bad_delta(delta):
    # fdm_gradient checks the step, so a non-number raises ValueError too.
    with pytest.raises(ValueError, match="delta"):
        saliency_est_fdm(ROW, SYSTEM, [BENIGN[0][0]], delta)
