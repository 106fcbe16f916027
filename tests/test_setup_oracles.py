"""Set-up gives the bytes of the code it replaced.

Training runs its batches on the private cores, skips layer 0's input
gradient and updates the momentum velocity in place; the digit renderer
builds each stroke segment in two buffers and takes its maximum in place.
Each is compared, through ``tobytes()``, with a test-local copy of the
form it replaced: the batch loop on the public ``joint_forward`` and
``joint_backward`` with an allocating momentum step, and the renderer with
its allocating segment formula. The bytes depend on the BLAS and ``exp``
kernels in use, so nothing here compares against a stored hash.
"""
import numpy as np
import pytest

from vflkit import synth_data
from vflkit.model import (LayerSpec, LocalModel, SgdMomentum, forward,
                          init_model, _backward)
from vflkit.protocol import (Coordinator, Participant, VFLSystem,
                             joint_backward, joint_forward, splitnn_architecture,
                             train_heterolr, train_linear_joint, train_splitnn,
                             _check_views, _epoch_batches, _one_hot)


class _AllocatingMomentum:
    """Momentum SGD as it was: a fresh velocity array on every step."""

    def __init__(self, lr, momentum):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def step(self, model, param_grads):
        for i, (layer, pg) in enumerate(zip(model.layers, param_grads)):
            if pg is None:
                continue
            for name, param, grad in (("w", layer.weights, pg[0]),
                                      ("b", layer.bias, pg[1])):
                vel = self.velocity.get((i, name))
                if vel is None:
                    vel = np.zeros_like(param)
                vel = self.momentum * vel + grad
                self.velocity[(i, name)] = vel
                param -= self.lr * vel


def _oracle_fit(views, labels, local_dims, coord, n_classes, epochs, lr,
                batch, seed, momentum):
    """The training loop as it was: every batch through the public passes,
    which check their input, and the full backward."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    participants = []
    offset = 0
    for i, (view, dims) in enumerate(zip(views, local_dims)):
        width = np.shape(view)[1]
        model = init_model(dims, "relu", seed=seed + 1000 * (i + 1))
        participants.append(Participant("A" if i == 0 else f"B{i}",
                                        list(range(offset, offset + width)),
                                        model))
        offset += width
    system = VFLSystem(participants, coord, n_classes)
    views = _check_views(system, views)
    n = views[0].shape[0]
    scalar = coord.kind == "heterolr" and system.output_dim == 1
    rng = np.random.default_rng(seed)
    opts = ([_AllocatingMomentum(lr, momentum) for _ in participants]
            if lr > 0 else None)
    top_opt = (_AllocatingMomentum(lr, momentum)
               if lr > 0 and coord.kind == "splitnn" else None)
    history = []
    eps = 1e-12
    for _ in range(epochs):
        epoch_loss = 0.0
        for idx in _epoch_batches(n, batch, rng):
            y = labels[idx]
            jt = joint_forward(system, [v[idx] for v in views])
            p = jt.probs
            m = len(idx)
            if scalar:
                pc = np.clip(p[:, 0], eps, 1 - eps)
                epoch_loss -= float(np.sum(y * np.log(pc)
                                           + (1 - y) * np.log(1 - pc)))
                grad_score = ((p[:, 0] - y) / m)[:, None]
            else:
                pc = np.clip(p[np.arange(m), y], eps, 1.0)
                epoch_loss -= float(np.sum(np.log(pc)))
                grad_score = (p - _one_hot(y, p.shape[1])) / m
            if opts is None:
                continue
            _, param_grads, coord_grad = joint_backward(
                system, jt, grad_score, with_params=True, from_logits=True)
            for part, pg, opt in zip(participants, param_grads, opts):
                opt.step(part.model, pg)
            if top_opt is None:
                coord.bias -= lr * coord_grad
            else:
                top_opt.step(coord.top_model, coord_grad)
        history.append(epoch_loss / n)
    return system, history


# 203 rows: batches of 32 and 40 leave a shorter last batch.
_X = np.random.default_rng(0).standard_normal((203, 9))
_Y2 = (_X[:, 0] + _X[:, 5] > 0).astype(np.int64)
_Y4 = np.random.default_rng(1).integers(0, 4, 203)


def _heterolr(lr, momentum):
    views = [_X[:, :4], _X[:, 4:]]
    got = train_heterolr(views, _Y2, epochs=3, lr=lr, batch=32, seed=5,
                         momentum=momentum)
    want = _oracle_fit(views, _Y2, [[4, 1], [5, 1]],
                       Coordinator("heterolr", bias=np.zeros(1)), 2, 3, lr,
                       32, 5, momentum)
    return got, want


def _softmax(lr, momentum):
    views = [_X[:, :3], _X[:, 3:6], _X[:, 6:]]
    got = train_linear_joint(views, _Y4, 4, epochs=3, lr=lr, batch=32,
                             seed=5, momentum=momentum)
    want = _oracle_fit(views, _Y4, [[3, 4]] * 3,
                       Coordinator("heterolr", bias=np.zeros(4)), 4, 3, lr,
                       32, 5, momentum)
    return got, want


def _splitnn(parties):
    def build(lr, momentum):
        views = np.array_split(_X, parties, axis=1)
        local_dims, top_dims = splitnn_architecture(views, [6, 5], [7], 4)
        got = train_splitnn(views, _Y4, local_dims, top_dims, epochs=3, lr=lr,
                            batch=40, seed=5, momentum=momentum)
        top = init_model(top_dims, "relu", head="softmax", seed=5 + 7)
        want = _oracle_fit(views, _Y4, local_dims,
                           Coordinator("splitnn", top_model=top), 4, 3, lr, 40,
                           5, momentum)
        return got, want
    return build


_SYSTEMS = {
    "binary-heterolr": _heterolr,
    "softmax-heterolr": _softmax,
    "splitnn": _splitnn(2),
    "splitnn-3-party": _splitnn(3),
}


def _parameter_bytes(system):
    models = [part.model for part in system.participants]
    if system.coordinator.kind == "splitnn":
        models.append(system.coordinator.top_model)
    out = [layer.weights.tobytes() + layer.bias.tobytes()
           for model in models for layer in model.layers
           if layer.kind == "linear"]
    if system.coordinator.kind == "heterolr":
        out.append(system.coordinator.bias.tobytes())
    return out


class TestFitMatchesPublicPasses:
    @pytest.mark.parametrize("lr", [0.0, 0.05])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    def test_same_bytes(self, name, momentum, lr):
        (got, got_history), (want, want_history) = _SYSTEMS[name](lr,
                                                                  momentum)
        assert _parameter_bytes(got) == _parameter_bytes(want)
        assert (np.array(got_history).tobytes()
                == np.array(want_history).tobytes())
        assert len(got_history) == 3

    def test_trained_parameters_moved(self):
        (got, _), _ = _heterolr(0.05, 0.9)
        (untrained, _), _ = _heterolr(0.0, 0.9)
        assert _parameter_bytes(got) != _parameter_bytes(untrained)


def _models():
    rng = np.random.default_rng(4)
    return {
        "linear": init_model([6, 3], seed=1),
        "mlp": init_model([6, 5, 4], "relu", head="softmax", seed=2),
        "sigmoid-head": init_model([6, 5, 2], "relu", head="sigmoid", seed=3),
        # A model that starts with an activation has no layer-0 parameters.
        "activation-first": LocalModel([
            LayerSpec("relu", 6, 6),
            LayerSpec("linear", 6, 3, rng.standard_normal((3, 6)),
                      rng.standard_normal(3))]),
    }


class TestBackwardWithoutInputGrad:
    @pytest.mark.parametrize("name, n_skip_top", [
        ("linear", 0), ("mlp", 0), ("mlp", 1), ("sigmoid-head", 0),
        ("sigmoid-head", 1), ("activation-first", 0),
        ("activation-first", 1)])
    def test_parameter_gradients_unchanged(self, name, n_skip_top):
        model = _models()[name]
        rng = np.random.default_rng(9)
        _, trace = forward(model, rng.standard_normal((11, 6)))
        width = model.layers[len(model.layers) - 1 - n_skip_top].out_dim
        grad = rng.standard_normal((11, width))
        full, input_grad = _backward(model, trace, grad, n_skip_top)
        skipped, none = _backward(model, trace, grad, n_skip_top,
                                  input_grad=False)
        assert input_grad.shape == (11, 6)
        assert none is None
        assert len(skipped) == len(full)
        for a, b in zip(skipped, full):
            if b is None:
                assert a is None
            else:
                assert a[0].tobytes() == b[0].tobytes()
                assert a[1].tobytes() == b[1].tobytes()

    def test_default_keeps_the_input_gradient(self):
        model = _models()["mlp"]
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 6))
        _, trace = forward(model, x)
        grad = rng.standard_normal((5, 4))
        _, ig = _backward(model, trace, grad)
        _, ig_no_params = _backward(model, trace, grad, with_params=False)
        assert ig.tobytes() == ig_no_params.tobytes()


@pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
def test_momentum_step_matches_allocating_step(momentum):
    rng = np.random.default_rng(6)
    model = init_model([5, 4, 3], seed=1)
    twin = init_model([5, 4, 3], seed=1)
    opt, oracle = SgdMomentum(0.1, momentum), _AllocatingMomentum(0.1, momentum)
    for _ in range(4):
        grads = [None if layer.kind != "linear" else
                 (rng.standard_normal(layer.weights.shape),
                  rng.standard_normal(layer.bias.shape))
                 for layer in model.layers]
        opt.step(model, grads)
        oracle.step(twin, grads)
    for a, b in zip(model.layers, twin.layers):
        if a.kind == "linear":
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


def _old_segment_intensity(points, p1, p2, width):
    """The allocating form of the x/y-plane segment formula."""
    x, y = points[:, 0], points[:, 1]
    x1, y1 = p1[:, :1], p1[:, 1:]
    sx, sy = p2[:, :1] - x1, p2[:, 1:] - y1
    length2 = np.maximum(sx ** 2 + sy ** 2, 1e-9)
    t = np.clip(((x - x1) * sx + (y - y1) * sy) / length2, 0.0, 1.0)
    d2 = (x - (x1 + t * sx)) ** 2 + (y - (y1 + t * sy)) ** 2
    return np.exp(-d2 / (width ** 2))


def _old_render_digit_batch(digit, count, rng):
    """The renderer as it was: a fresh image array at every maximum."""
    sd = synth_data
    side = sd.DIGITS_SIDE
    ys, xs = np.mgrid[0:side, 0:side]
    points = np.stack([xs.ravel() + 0.5, ys.ravel() + 0.5], axis=1)
    sx = sd._GLYPH_X1 - sd._GLYPH_X0
    sy = sd._GLYPH_Y1 - sd._GLYPH_Y0
    scale = rng.uniform(0.78, 1.1, size=(count, 1, 1))
    shift_x = rng.uniform(-2.2, 2.2, size=(count, 1, 1))
    shift_y = rng.uniform(-1.8, 1.8, size=(count, 1, 1))
    shear = rng.uniform(-0.2, 0.2, size=(count, 1, 1))
    width = rng.uniform(0.8, 1.4, size=(count, 1))
    peak = rng.uniform(0.75, 1.0, size=(count, 1))
    img = np.zeros((count, side * side))
    for stroke in sd._GLYPHS[digit]:
        pts = np.asarray(stroke)
        jitter = rng.normal(0.0, 0.4, size=(count, pts.shape[0], 2))
        px = sd._GLYPH_X0 + pts[None, :, 0] * sx * scale[:, :, 0] \
            + jitter[:, :, 0]
        py = sd._GLYPH_Y0 + pts[None, :, 1] * sy * scale[:, :, 0] \
            + jitter[:, :, 1]
        px = px + shear[:, :, 0] * (py - py.mean(axis=1, keepdims=True))
        px = px + shift_x[:, :, 0]
        py = py + shift_y[:, :, 0]
        for a, b in zip(range(pts.shape[0] - 1), range(1, pts.shape[0])):
            p1 = np.stack([px[:, a], py[:, a]], axis=1)
            p2 = np.stack([px[:, b], py[:, b]], axis=1)
            img = np.maximum(img, _old_segment_intensity(points, p1, p2,
                                                         width))
    img = img * peak
    img += rng.normal(0.0, 0.07, size=img.shape)
    return np.clip(img, 0.0, 1.0)


class TestRenderer:
    # chunk 7 is smaller than one digit's count, and chunk 1 renders one
    # image per call.
    @pytest.mark.parametrize("n, seed, chunk", [
        (300, 13, 1000), (150, 3, 1000), (257, 99, 7), (40, 5, 1)])
    def test_make_digits_like_equals_old_renderer(self, monkeypatch, n, seed,
                                                  chunk):
        got = synth_data.make_digits_like(n, seed, chunk)
        monkeypatch.setattr(synth_data, "_render_digit_batch",
                            _old_render_digit_batch)
        want = synth_data.make_digits_like(n, seed, chunk)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.features.tobytes() == want.features.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_segment_intensity_equals_allocating_form(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        p1 = rng.uniform(-2.0, 30.0, size=(n, 2))
        p2 = rng.uniform(-2.0, 30.0, size=(n, 2))
        p2[:4] = p1[:4]                          # zero-length segments
        width = rng.uniform(0.8, 1.4, size=(n, 1))
        ys, xs = np.mgrid[0:synth_data.DIGITS_SIDE, 0:synth_data.DIGITS_SIDE]
        points = np.stack([xs.ravel() + 0.5, ys.ravel() + 0.5], axis=1)
        before = [a.copy() for a in (points, p1, p2, width)]
        got = synth_data._segment_intensity(points, p1, p2, width)
        want = _old_segment_intensity(points, p1, p2, width)
        assert got.tobytes() == want.tobytes()
        for a, b in zip((points, p1, p2, width), before):
            assert a.tobytes() == b.tobytes()
