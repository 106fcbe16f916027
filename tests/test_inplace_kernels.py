"""The linear and softmax kernels work in place on their own fresh arrays.

``_layer_forward`` adds a linear layer's bias into the matrix product it
just made, and ``_softmax`` exponentiates and normalises the shifted array
it just made. Both must give the bytes of the plain expressions, on every
exp kernel numpy dispatches to, and must never write to their input, which
a forward trace keeps.
"""
import numpy as np
import pytest

from vflkit.model import (LayerSpec, LocalModel, forward, init_model,
                          _layer_forward, _softmax)


def _plain_linear(layer, x):
    return x @ layer.weights.T + layer.bias


def _plain_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _linear(d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    return LayerSpec("linear", d_in, d_out, rng.standard_normal((d_out, d_in)),
                     rng.standard_normal(d_out))


def _saturated(shape, rng):
    # Gaps of hundreds put exp on its underflow edge and give exact 0 and 1.
    x = rng.standard_normal(shape)
    x[..., 0] += 800.0
    x[..., -1] -= 800.0
    return x


def _inputs(d, seed=3):
    rng = np.random.default_rng(seed)
    return {
        "batch": rng.standard_normal((393, d)),
        "stack": rng.standard_normal((4, 7, d)),
        "one-row": rng.standard_normal((1, d)),
        "vector": rng.standard_normal(d),
        "saturated": _saturated((9, d), rng),
        "saturated-stack": _saturated((3, 5, d), rng),
        "large": 1e6 * rng.standard_normal((6, d)),
    }


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(_inputs(1)))
@pytest.mark.parametrize("dims", [(64, 64), (392, 64), (10, 1), (1, 10)])
def test_linear_matches_plain_expression(case, dims):
    layer = _linear(*dims, seed=dims[0])
    x = _inputs(dims[0])[case]
    before = x.copy()
    _same_bytes(_layer_forward(layer, x), _plain_linear(layer, x))
    _same_bytes(x, before)


@pytest.mark.parametrize("case", sorted(_inputs(1)))
@pytest.mark.parametrize("width", [1, 2, 10])
def test_softmax_matches_plain_expression(case, width):
    x = _inputs(width)[case]
    before = x.copy()
    got = _softmax(x)
    _same_bytes(got, _plain_softmax(x))
    _same_bytes(x, before)
    if case.startswith("saturated") and width > 1:
        assert np.all(got[..., 0] == 1.0) and np.all(got[..., -1] == 0.0)


def test_softmax_of_a_read_only_view():
    x = np.broadcast_to(np.arange(5.0), (3, 5))
    _same_bytes(_softmax(x), _plain_softmax(x))
    assert not x.flags.writeable


def _models():
    return {"relu-softmax": init_model([10, 16, 8, 3], head="softmax",
                                       seed=4),
            "sigmoid-softmax-softmax": LocalModel([
                _linear(10, 6, 1), LayerSpec("sigmoid", 6, 6),
                _linear(6, 4, 2), LayerSpec("softmax", 4, 4),
                LayerSpec("softmax", 4, 4)]),
            "softmax-first": LocalModel([LayerSpec("softmax", 10, 10),
                                         _linear(10, 3, 5)])}


@pytest.mark.parametrize("name", sorted(_models()))
@pytest.mark.parametrize("shape", [(1, 10), (12, 10), (3, 5, 10)])
def test_trace_inputs_survive_later_layers(name, shape):
    model = _models()[name]
    x = 3.0 * np.random.default_rng(8).standard_normal(shape)
    before = x.copy()
    out, trace = forward(model, x)
    _same_bytes(x, before)
    # Each stored input, as the plain expressions make it.
    z = before
    for layer, stored in zip(model.layers, trace.inputs):
        _same_bytes(stored, z)
        if layer.kind == "linear":
            z = _plain_linear(layer, z)
        elif layer.kind == "softmax":
            z = _plain_softmax(z)
        else:
            z = _layer_forward(layer, z)
    _same_bytes(out, z)
    _same_bytes(trace.output, z)
