"""Set-up's two largest transients stay small and keep every byte.

``save_system`` writes ``json.dumps(system_to_dict(system),
sort_keys=True)`` without holding that text or the document's float lists,
and ``joint_inference`` runs ``joint_forward``'s layer passes without
keeping their layer inputs. Each is compared byte for byte with the form it
replaced, and its ``tracemalloc`` peak above the memory in use before the
call is bounded.
"""
import json
import tracemalloc

import numpy as np
import pytest

from test_lockstep import _systems as lockstep_systems
from vflkit.model import init_model
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             joint_forward, joint_inference, load_system,
                             save_system, system_to_dict)

NAMES = ["binary-heterolr", "softmax-heterolr", "splitnn", "splitnn-3-party"]


def _transient(fn):
    """``fn()`` and the bytes its call held above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _bench_sized_splitnn():
    """Two 392-column parties with [392, 64, 32] local models under a
    [64, 64, 32, 10] top model: the digits bench's architecture."""
    parts = [Participant(name, list(range(392 * i, 392 * (i + 1))),
                         init_model([392, 64, 32], seed=i + 1))
             for i, name in enumerate(["A", "B1"])]
    top = init_model([64, 64, 32, 10], head="softmax", seed=3)
    return VFLSystem(parts, Coordinator("splitnn", top_model=top), 10)


class TestCheckpointBytes:
    @pytest.mark.parametrize("name", NAMES)
    def test_file_is_sorted_dumps(self, credit_setup, digits_setup, tmp_path,
                                  name):
        system, _ = lockstep_systems(credit_setup, digits_setup)[name]
        path = tmp_path / "system.json"
        save_system(system, path)
        text = path.read_bytes()
        assert text == json.dumps(system_to_dict(system),
                                  sort_keys=True).encode("utf-8")
        again = tmp_path / "again.json"
        save_system(load_system(path), again)
        assert again.read_bytes() == text

    def test_transient_below_the_text(self, tmp_path):
        # The one-shot json.dumps held 6.9 MB for 1.33 MB of text here.
        system = _bench_sized_splitnn()
        path = tmp_path / "system.json"
        _, held = _transient(lambda: save_system(system, path))
        size = path.stat().st_size
        assert size > 1_000_000
        assert held < size / 4


class TestJointInference:
    @pytest.mark.parametrize("name", NAMES)
    def test_equals_joint_forward(self, credit_setup, digits_setup, name):
        system, views = lockstep_systems(credit_setup, digits_setup)[name]
        got = joint_inference(system, views)
        want = joint_forward(system, views).probs
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_keeps_no_layer_inputs(self):
        # joint_forward keeps every layer's input: about nine (n, 64)
        # arrays here. Without them, the widest layer's input and output
        # and the joined local outputs are all that is ever held.
        n = 2000
        rng = np.random.default_rng(0)
        system = _bench_sized_splitnn()
        views = [rng.random((n, 392)) for _ in system.participants]
        probs, held = _transient(lambda: joint_inference(system, views))
        assert probs.shape == (n, 10)
        assert held < 4 * n * 64 * 8
