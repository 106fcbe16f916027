import inspect

import numpy as np
import pytest

import vflkit
from spans import Tracer, layer_functions, vflkit_modules
from vflkit import fuzzer, model, protocol, synthesis
from vflkit.model import init_model
from vflkit.protocol import Coordinator, Participant, VFLSystem


def _unwrapped_targets(targets):
    missed = []
    for mod in vflkit_modules(vflkit):
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and id(obj) in targets \
                    and targets[id(obj)][0] is obj:
                missed.append(f"{mod.__name__}.{attr}")
    return missed


def test_no_alias_missed_and_originals_restored():
    targets = layer_functions(vflkit)
    original_forward = model.forward
    with Tracer(vflkit):
        assert _unwrapped_targets(targets) == []
        assert fuzzer.model_forward.bench_span == "model.forward"
        assert fuzzer.model_backward.bench_span == "model.backward"
        assert synthesis.forward.bench_span == "model.forward"
        assert protocol.forward is synthesis.forward
        assert synthesis.JointEvaluator.probs_for.bench_span == \
            "synthesis.JointEvaluator.probs_for"
    assert model.forward is original_forward
    assert fuzzer.model_forward is original_forward
    for mod in vflkit_modules(vflkit):
        assert not any(hasattr(obj, "bench_span")
                       for obj in vars(mod).values())
    assert not hasattr(synthesis.JointEvaluator.__init__, "bench_span")


def test_self_time_excludes_children():
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    tracer = Tracer(vflkit, clock=lambda: now[0])
    inner = tracer.wrap(lambda: advance(0.06), "inner")
    outer = tracer.wrap(lambda: (advance(0.03), inner(), advance(0.01)),
                        "outer")
    outer()
    assert tracer.stats["inner"].calls == tracer.stats["outer"].calls == 1
    assert tracer.stats["inner"].self_s == pytest.approx(0.06)
    assert tracer.stats["outer"].self_s == pytest.approx(0.04)


def test_forward_split_by_model_identity_and_rows():
    top = init_model([4, 3], head="softmax", seed=1)
    system = VFLSystem(
        [Participant("A", [0, 1], init_model([2, 2], seed=2)),
         Participant("B1", [2, 3, 4], init_model([3, 2], seed=3))],
        Coordinator("splitnn", top_model=top), 3)
    views = [np.ones((5, 2)), np.ones((5, 3))]
    with Tracer(vflkit, [top]) as tracer:
        protocol.joint_forward(system, views)
    stats = tracer.stats
    assert stats["model.forward.local"].calls == 2
    assert stats["model.forward.local"].rows == 10
    assert stats["model.forward.top"].calls == 1
    assert stats["protocol.joint_forward"].rows == 5
