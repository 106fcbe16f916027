"""Forward-only passes apply each ReLU in place and keep every byte.

``model._forward_untraced`` keeps no layer input, so each ReLU after its
first layer writes over the array the pass just made; the caller's input is
never written to. The blackbox synthesis asks the coordinator through
``protocol._coordinator_probs``, which runs the top model on that pass,
and ``_fd_local_outputs`` applies its ReLU layers in place on the (d+1)-row
block it builds. Each is compared byte for byte with the traced pass, or
with the expression it replaced.
"""
import numpy as np
import pytest

from test_lockstep import _systems as lockstep_systems
from vflkit import protocol, synthesis
from vflkit.model import (LayerSpec, LocalModel, as_vector, init_model,
                          _forward, _forward_untraced, _layer_forward)
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             joint_forward, joint_inference)

NAMES = ["binary-heterolr", "softmax-heterolr", "splitnn", "splitnn-3-party"]
R = 3


def _linear(d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    return LayerSpec("linear", d_in, d_out, rng.standard_normal((d_out, d_in)),
                     rng.standard_normal(d_out))


def _models(d):
    """Models whose first layer is a ReLU, a linear map or a softmax, each
    with ReLU layers further up, two of them back to back."""
    return {
        "relu-first": LocalModel([
            LayerSpec("relu", d, d), _linear(d, 16, 1),
            LayerSpec("relu", 16, 16), _linear(16, 4, 2),
            LayerSpec("softmax", 4, 4)]),
        "linear-first": init_model([d, 16, 8, 4], head="softmax", seed=3),
        "softmax-first": LocalModel([
            LayerSpec("softmax", d, d), _linear(d, 8, 4),
            LayerSpec("relu", 8, 8), LayerSpec("relu", 8, 8),
            _linear(8, 1, 5), LayerSpec("sigmoid", 1, 1)]),
    }


def _inputs(d, seed=7):
    """Half the entries negative, some exact zeros and negative zeros."""
    rng = np.random.default_rng(seed)
    out = {"one-row": rng.standard_normal((1, d)),
           "batch": rng.standard_normal((393, d)),
           "stack": rng.standard_normal((R, 5, d))}
    for x in out.values():
        x[..., 0] = 0.0
        x[..., 1] = -0.0
    return out


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestForwardUntraced:
    @pytest.mark.parametrize("case", ["one-row", "batch", "stack"])
    @pytest.mark.parametrize("name", ["relu-first", "linear-first",
                                      "softmax-first"])
    def test_bytes_of_forward_and_input_kept(self, name, case):
        d = 6
        model = _models(d)[name]
        x = _inputs(d)[case]
        before = x.tobytes()
        out = _forward_untraced(model, x)
        assert x.tobytes() == before
        _same_bytes(out, _forward(model, x)[0])

    @pytest.mark.parametrize("name", ["relu-first", "linear-first",
                                      "softmax-first"])
    def test_read_only_input(self, name):
        d = 6
        model = _models(d)[name]
        x = _inputs(d)["batch"]
        x.setflags(write=False)
        _same_bytes(_forward_untraced(model, x), _forward(model, x)[0])


class TestCoordinatorForward:
    """The blackbox query chokepoint answers each batch with the traced
    coordinator pass's probability bytes."""

    @pytest.mark.parametrize("name", NAMES)
    def test_probability_bytes(self, credit_setup, digits_setup, name):
        system, views = lockstep_systems(credit_setup, digits_setup)[name]
        parts = system.participants
        block = synthesis._fd_local_outputs(parts[0].model, views[0][0], 1e-3)
        m = block.shape[0]
        # As _Blackbox._fd_grad sends them: each single row broadcast to the
        # block's rows, a read-only view.
        locals_ = [np.broadcast_to(out, (m, out.shape[1])) for out in
                   [block] + [_forward(p.model, v[:1])[0]
                              for p, v in zip(parts[1:], views[1:])]]
        before = [out.tobytes() for out in locals_]
        got = synthesis._coordinator_probs(system, locals_)
        want = protocol._coordinator_forward(system, locals_)[0]
        _same_bytes(got, want)
        assert got.shape[0] == m
        assert [out.tobytes() for out in locals_] == before


def _relu_first_splitnn(seed=11):
    """Two parties whose local models, and the top model, open with a ReLU."""
    widths = [5, 4]
    parts, start = [], 0
    for i, w in enumerate(widths):
        model = LocalModel([LayerSpec("relu", w, w), _linear(w, 6, seed + i),
                            LayerSpec("relu", 6, 6), _linear(6, 3, seed + 5)])
        parts.append(Participant(f"P{i}", list(range(start, start + w)),
                                 model))
        start += w
    top = LocalModel([LayerSpec("relu", 6, 6), _linear(6, 4, seed + 9),
                      LayerSpec("softmax", 4, 4)])
    system = VFLSystem(parts, Coordinator("splitnn", top_model=top), 4)
    rng = np.random.default_rng(seed)
    views = [rng.standard_normal((40, w)) for w in widths]
    return system, views


class TestJointInference:
    def test_relu_first_views_kept(self):
        system, views = _relu_first_splitnn()
        before = [v.tobytes() for v in views]
        got = joint_inference(system, views)
        assert [v.tobytes() for v in views] == before
        _same_bytes(got, joint_forward(system, views).probs)


def _old_fd_local_outputs(model, x, delta):
    """``_fd_local_outputs`` before its ReLU layers ran in place, for a
    model with a linear first layer."""
    x = as_vector(x, model.input_dim)
    first = model.layers[0]
    h0 = x @ first.weights.T + first.bias
    z = np.vstack([h0, h0 + delta * first.weights.T])
    for layer in model.layers[1:]:
        z = _layer_forward(layer, z)
    return z


class TestFdLocalOutputs:
    @pytest.mark.parametrize("name", NAMES)
    def test_bytes_of_the_replaced_expression(self, credit_setup,
                                              digits_setup, name):
        system, views = lockstep_systems(credit_setup, digits_setup)[name]
        for part, view in zip(system.participants, views):
            for x in view[:3]:
                before = x.tobytes()
                got = synthesis._fd_local_outputs(part.model, x, 1e-3)
                assert x.tobytes() == before
                _same_bytes(got, _old_fd_local_outputs(part.model, x, 1e-3))

    @pytest.mark.parametrize("delta", [1e-3, 0.5])
    def test_relu_layers_after_a_linear_first_layer(self, delta):
        model = _models(6)["linear-first"]
        x = _inputs(6)["one-row"][0]
        _same_bytes(synthesis._fd_local_outputs(model, x, delta),
                    _old_fd_local_outputs(model, x, delta))
