"""One joint-evaluation core: every joint inference goes through it.

``JointEvaluator`` and the fuzzer's benign saliency score both pair
adversary outputs with benign outputs through ``protocol._joint_trace``.
These tests pin what those paths produce: the evaluator's probabilities
against the coordinator's pass in party order, and the fuzzer's benign
score against its full-system formula. Benign views of different lengths
are rejected at every entry point.
"""
import numpy as np
import pytest

from test_synthesis import three_party_splitnn
from vflkit.fuzzer import (CampaignConfig, SaliencyCalibration,
                           calibrate_saliency, fuzz_campaign,
                           participant_saliency_l1, _benign_mean_score)
from vflkit.model import LayerSpec, LocalModel, forward
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             _coordinator_forward)
from vflkit.synthesis import JointEvaluator, SynthesisConfig, adi_generate


def three_party_heterolr():
    """Untrained binary HeteroLR over 4 | 3 | 5 columns, with 200 rows."""
    rng = np.random.default_rng(8)
    widths = [4, 3, 5]
    parts, offset = [], 0
    for i, w in enumerate(widths):
        model = LocalModel([LayerSpec("linear", w, 1,
                                      rng.standard_normal((1, w)),
                                      rng.standard_normal(1))])
        parts.append(Participant("A" if i == 0 else f"B{i}",
                                 list(range(offset, offset + w)), model))
        offset += w
    system = VFLSystem(parts, Coordinator("heterolr", bias=np.array([0.3])),
                       2)
    return system, [rng.standard_normal((200, w)) for w in widths]


class TestBenignRowCount:
    """Benign views of different lengths are rejected before any pass: the
    core would otherwise pair a one-row view's row with every row of the
    others."""

    @staticmethod
    def _ragged():
        system, views = three_party_heterolr()
        return system, views[0][:2], [views[1][:5], views[2][:1]]

    def test_joint_evaluator(self):
        system, _, benign = self._ragged()
        with pytest.raises(ValueError, match="row count"):
            JointEvaluator(system, benign)

    def test_adi_generate(self):
        system, corpus, benign = self._ragged()
        with pytest.raises(ValueError, match="row count"):
            adi_generate(corpus[0], system, 0,
                         SynthesisConfig(max_rounds=1, inner_steps=1), benign)

    def test_fuzz_campaign(self):
        system, corpus, benign = self._ragged()
        calib = SaliencyCalibration({"A": 1.0, "B1": 1.0, "B2": 1.0})
        cfg = CampaignConfig(max_iter=1, energy=1, bound=np.ones(4))
        with pytest.raises(ValueError, match="row count"):
            fuzz_campaign(corpus, system, benign, cfg,
                          [view[:5] for view in benign], calib)


class TestPartyOrder:
    def test_probs_for_is_the_coordinator_pass_in_party_order(self):
        # The coordinator sums (a + b1) + b2, as joint_forward does; summing
        # a + (b1 + b2) differs in the last bit on some rows.
        system, views = three_party_heterolr()
        evaluator = JointEvaluator(system, views[1:])
        benign = [forward(p.model, v)[0]
                  for p, v in zip(system.participants[1:], views[1:])]
        adv = system.participants[0].model
        for x in views[0][:20]:
            out = np.repeat(forward(adv, x[None, :])[0], 200, axis=0)
            probs, _ = _coordinator_forward(system, [out] + benign)
            assert evaluator.probs_for(x).tobytes() == probs.tobytes()


def _old_benign_mean_score(system, x_adv, s_views, calibration):
    """The benign score's full-system formula: saliency of every party on
    the adversary row repeated against the sample, benign columns kept."""
    n = s_views[0].shape[0]
    views = [np.repeat(x_adv[None, :], n, axis=0)] + list(s_views)
    norms = participant_saliency_l1(system, views)
    scores = [np.clip(norms[:, i] / calibration.scales[part.id], 0.0, 1.0)
              for i, part in enumerate(system.participants[1:], start=1)]
    return float(np.mean(scores))


class TestBenignMeanScore:
    @staticmethod
    def _check(system, train_views, test_views, n_sample):
        calib = calibrate_saliency(system, train_views)
        s_views = [view[:n_sample] for view in test_views[1:]]
        evaluator = JointEvaluator(system, s_views)
        for x in test_views[0][:10]:
            old = _old_benign_mean_score(system, x, s_views, calib)
            assert _benign_mean_score(system, x, evaluator, calib) == old
            assert _benign_mean_score(system, x, s_views, calib) == old

    def test_credit(self, credit_setup):
        self._check(credit_setup["system"], credit_setup["train_views"],
                    credit_setup["test_views"], 25)

    def test_digits(self, digits_setup):
        self._check(digits_setup["system"], digits_setup["train_views"],
                    digits_setup["test_views"], 10)

    def test_three_party(self):
        system, views = three_party_splitnn()
        self._check(system, views, [v[300:] for v in views], 10)
        system, views = three_party_heterolr()
        self._check(system, views, views, 25)
