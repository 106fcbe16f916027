"""The fuzzer reads nothing of the benign parties but what they share.

A campaign's adversary receives the joint labels, one calibrated saliency
scalar per benign party and the gradient at its own local output. The test
builds a *negated twin* of a system: each benign party's layer-0 weights are
negated, and so is each benign view (calibration, sample and full test
views). The adversary sees the same things in both:

- ``(-x)(-w)`` rounds to exactly ``x*w``, so each benign local output keeps
  its bytes, and so do the joint labels and every gradient above them;
- ``g @ (-W)`` is exactly ``-(g @ W)``, so each benign input saliency only
  flips sign, and its L1 norm, the calibration and every clip keep their
  bytes.

Fuzz code that reads a benign feature, or the sign of a benign input
gradient, breaks the equality of the twins' calibration scales, candidates
and campaign log lines.
"""
import dataclasses
import json

import numpy as np
import pytest

from vflkit.fuzzer import CampaignConfig, calibrate_saliency, fuzz_campaign
from vflkit.model import LocalModel, init_model
from vflkit.protocol import Coordinator, Participant, VFLSystem
from vflkit.synthesis import default_bound


def negated_twin(system: VFLSystem, train_views, test_views):
    """The system and views with every benign party's layer-0 weights and
    feature columns negated; the adversary (party 0) is left as it is."""
    parts = [system.participants[0]]
    for part in system.participants[1:]:
        first, *rest = part.model.layers
        first = dataclasses.replace(first, weights=-first.weights)
        parts.append(Participant(part.id, part.columns,
                                 LocalModel([first, *rest])))
    twin = VFLSystem(parts, system.coordinator, system.n_classes)
    return (twin, [train_views[0], *(-v for v in train_views[1:])],
            [test_views[0], *(-v for v in test_views[1:])])


def untrained_three_party():
    """An untrained 3-party SplitNN over Gaussian views."""
    rng = np.random.default_rng(11)
    widths = [6, 5, 4]
    locals_ = [init_model([d, 8, 4], seed=i) for i, d in enumerate(widths)]
    top = init_model([12, 8, 3], head="softmax", seed=9)
    offsets = np.cumsum([0, *widths])
    system = VFLSystem(
        [Participant("A" if i == 0 else f"B{i}",
                     list(range(offsets[i], offsets[i + 1])), model)
         for i, model in enumerate(locals_)],
        Coordinator("splitnn", top_model=top), 3)
    train_views = [rng.standard_normal((200, d)) for d in widths]
    test_views = [rng.standard_normal((120, d)) for d in widths]
    return {"system": system, "train_views": train_views,
            "test_views": test_views}


def campaign(system, train_views, test_views, cfg, n_corpus, n_sample):
    """Calibration scales and the campaign's candidate and log lines."""
    calib = calibrate_saliency(system, train_views)
    benign = test_views[1:]
    res = fuzz_campaign(test_views[0][:n_corpus], system,
                        [v[:n_sample] for v in benign], cfg, benign, calib)
    lines = [c.to_json() for c in res.adis] + [
        json.dumps(entry, sort_keys=True) for entry in res.log]
    return calib.scales, lines, res


# fixture (None: the untrained 3-party system), corpus rows, sample rows,
# bound multiplier, max_iter, energy
CASES = {
    "heterolr": ("credit_setup", 12, 25, 1.0, 60, 5),
    "splitnn": ("digits_setup", 8, 10, 6.0, 20, 3),
    "splitnn-3": (None, 20, 10, 0.5, 40, 5),
}


@pytest.mark.parametrize("case", CASES)
def test_negated_benign_side_gives_the_same_campaign(request, case):
    fixture, n_corpus, n_sample, mult, max_iter, energy = CASES[case]
    setup = request.getfixturevalue(fixture) if fixture \
        else untrained_three_party()
    system, train_views, test_views = (setup["system"], setup["train_views"],
                                       setup["test_views"])
    cfg = CampaignConfig(max_iter=max_iter, energy=energy, seed=4,
                         bound=default_bound(train_views[0], mult))
    twin = negated_twin(system, train_views, test_views)
    assert all(np.any(a != b) for a, b in zip(test_views[1:], twin[2][1:]))

    scales, lines, res = campaign(system, train_views, test_views, cfg,
                                  n_corpus, n_sample)
    twin_scales, twin_lines, _ = campaign(*twin, cfg, n_corpus, n_sample)

    assert twin_scales == scales
    assert twin_lines == lines
    # The campaign both emits candidates and requeues seeds, so the
    # saliency score steers it.
    outcomes = {entry["outcome"] for entry in res.log}
    assert res.adis and {"adi", "requeued"} <= outcomes
