"""A whole blackbox attack keeps the bytes of the traced coordinator pass.

Every blackbox query batch reaches the coordinator through
``protocol._coordinator_probs``, the untraced pass that answers a SplitNN
softmax batch of ``_CLASS_MAJOR_ROWS`` rows or more class-major. Here the
whole of ``_synthesize_rows`` runs twice: once as it is, and once with that
pass replaced by the traced ``protocol._coordinator_forward``. The
candidate lines must agree byte for byte.

The local models are one linear layer each, so each forward-difference
block is F-ordered, and the top model's first product must still see
C-ordered rows. Each system runs with the class-major threshold as it is
and lowered to one row, so that both kernels answer both batch sizes.
"""
import numpy as np
import pytest

from vflkit import protocol, synthesis
from vflkit.model import init_model
from vflkit.protocol import Coordinator, Participant, VFLSystem
from vflkit.synthesis import SynthesisConfig, _fd_local_outputs


def _system(widths, n_classes, seed=0):
    """Parties with one-layer local models, 32 outputs wide, under a ReLU
    top model with a softmax head."""
    parts, start = [], 0
    for i, w in enumerate(widths):
        parts.append(Participant(f"P{i}", list(range(start, start + w)),
                                 init_model([w, 32], seed=seed + i)))
        start += w
    top = init_model([32 * len(widths), 32, n_classes], head="softmax",
                     seed=seed + 9)
    return VFLSystem(parts, Coordinator("splitnn", top_model=top), n_classes)


def _traced_probs(system, locals_):
    return protocol._coordinator_forward(system, locals_)[0]


def _lines(system, widths, n_classes):
    rng = np.random.default_rng(list(widths))
    bases = rng.standard_normal((2, widths[0]))
    tiny = [rng.standard_normal((2, w)) for w in widths[1:]]
    cfg = SynthesisConfig(mode="blackbox", max_rounds=3, inner_steps=2,
                          threshold=1.0)
    targets = np.arange(bases.shape[0]) % n_classes
    return [cand.to_json() for cand in synthesis._synthesize_rows(
        bases, system, targets, cfg, tiny)]


# 13|10 on two classes asks 14- and 11-row batches; 200|30 on ten classes
# asks 201- and 31-row batches, on either side of the threshold.
@pytest.mark.parametrize("class_major_rows", [None, 1])
@pytest.mark.parametrize("widths, n_classes", [((13, 10), 2),
                                               ((200, 30), 10)])
def test_candidates_of_the_traced_pass(monkeypatch, widths, n_classes,
                                       class_major_rows):
    system = _system(widths, n_classes)
    block = _fd_local_outputs(system.participants[0].model,
                              np.ones(widths[0]), 1e-3)
    assert not block.flags.c_contiguous
    if class_major_rows is not None:
        monkeypatch.setattr(protocol, "_CLASS_MAJOR_ROWS", class_major_rows)
    got = _lines(system, widths, n_classes)
    monkeypatch.setattr(synthesis, "_coordinator_probs", _traced_probs)
    want = _lines(system, widths, n_classes)
    assert len(got) == 2
    assert got == want
