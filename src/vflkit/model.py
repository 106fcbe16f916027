"""Minimal dense differentiable models.

Fixed layer vocabulary (linear / relu / sigmoid / softmax), float64
throughout. Supports gradients with respect to both parameters and inputs,
which is all the attack and analysis code needs; there is no general
autodiff graph.

The forward and input-gradient passes also take an (..., m, d) stack of
m-row batches and treat each batch as if it ran alone: every layer works on
the last axis, and numpy runs a stacked matrix product as one product per
batch, so each batch's result has the same bytes as its own lone pass. A
flat (R*m, d) batch would not: BLAS may block and round a taller product
differently. Parameter gradients take a 2-D batch only.

``forward`` and ``backward`` check their input (float64, finite, width),
then call the cores ``_forward`` and ``_backward``, which trust arrays the
package built itself and keep only the contiguity copy and shape checks.
``_forward`` keeps every layer's input for a backward pass, so no layer may
write over one. ``_forward_untraced``, for passes that only read the output,
keeps none, and applies each ReLU in place on an array the pass itself
made, never on the caller's input.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

LAYER_KINDS = ("linear", "relu", "sigmoid", "softmax")

CHECKPOINT_VERSION = 1


def as_matrix(data, cols: int | None = None,
              stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries.

    1-D input becomes a single row. ``cols`` optionally enforces the column
    count. With ``stack`` set, an (..., m, d) stack of batches is accepted
    as well and keeps its shape.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        raise ValueError(f"expected 1-D or 2-D data, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if cols is not None and arr.shape[-1] != cols:
        raise ValueError(f"expected {cols} columns, got {arr.shape[-1]}")
    return np.ascontiguousarray(arr)


def _split_widths(arr: np.ndarray, widths) -> list[np.ndarray]:
    """Views of consecutive last-axis blocks of ``arr``, one per width."""
    views = []
    offset = 0
    for width in widths:
        views.append(arr[..., offset:offset + width])
        offset += width
    return views


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def as_vector(data, size: int | None = None) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    if size is not None and arr.size != size:
        raise ValueError(f"expected length {size}, got {arr.size}")
    return arr


@dataclass
class LayerSpec:
    """One layer: a linear map with parameters, or a parameter-free activation."""

    kind: str
    in_dim: int
    out_dim: int
    weights: np.ndarray | None = None  # (out_dim, in_dim), linear only
    bias: np.ndarray | None = None     # (out_dim,), linear only

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        if self.kind == "linear":
            if self.weights is None:
                raise ValueError("linear layer requires weights")
            self.weights = as_matrix(self.weights)
            if self.weights.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"linear weights must be {(self.out_dim, self.in_dim)}, "
                    f"got {self.weights.shape}")
            if self.bias is None:
                self.bias = np.zeros(self.out_dim)
            self.bias = as_vector(self.bias, self.out_dim)
        else:
            if self.in_dim != self.out_dim:
                raise ValueError(f"{self.kind} layer must preserve dimension")
            if self.weights is not None or self.bias is not None:
                raise ValueError(f"{self.kind} layer takes no parameters")


@dataclass
class LocalModel:
    """Ordered layer stack owned by one party."""

    layers: list[LayerSpec]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass
class ForwardTrace:
    """Per-layer input activations recorded during one forward pass."""

    inputs: list[np.ndarray] = field(default_factory=list)
    output: np.ndarray | None = None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # -|x| is exactly -x where x >= 0 and x elsewhere, so each branch sees
    # the exponent a split by sign would give it, and exp never overflows.
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def _softmax(x: np.ndarray) -> np.ndarray:
    # The shifted array is fresh, so exp and the normalisation reuse it.
    ex = x - x.max(axis=-1, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


def _class_sums(t: np.ndarray) -> np.ndarray:
    """Sums over axis 0 of a (c, n) block, in the order numpy sums a
    contiguous last axis, so ``_class_sums(x.T)`` has the bytes of
    ``x.sum(axis=-1)`` for C-ordered or strided ``x``: under 8 terms one
    after the other; up to 128 in eight interleaved partial sums, combined
    as ((0+1)+(2+3))+((4+5)+(6+7)), then the terms left over one by one;
    beyond that, the halves split at a multiple of 8. Each step adds whole
    rows. Numpy's sum starts at +0.0, which can only turn a -0.0 sum into
    +0.0; the +0.0 added to the first terms does the same."""
    c = t.shape[0]
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _class_sums(t[:half]) + _class_sums(t[half:])
    if c < 8:
        total = t[0] + 0.0
        for row in t[1:]:
            total += row
        return total
    acc = t[:8] + 0.0
    whole = c - c % 8
    for start in range(8, whole, 8):
        acc += t[start:start + 8]
    pairs = acc[0::2] + acc[1::2]
    quads = pairs[0::2] + pairs[1::2]
    total = quads[0] + quads[1]
    for row in t[whole:]:
        total += row
    return total


def _softmax_classes(x: np.ndarray) -> np.ndarray:
    """``_softmax`` of (n, c) logits as a fresh class-major (c, n) block:
    its transpose has ``_softmax(x)``'s bytes. Every reduction runs over
    contiguous (n,) class rows rather than n short rows, which pays for the
    transposing copy once n is in the hundreds. ``x.T.copy()`` always
    copies; ``np.ascontiguousarray(x.T)`` would return a view of ``x`` for
    n = 1 or c = 1, and the kernel would write over the caller's logits."""
    t = x.T.copy()
    t -= t.max(axis=0)
    np.exp(t, out=t)
    t /= _class_sums(t)
    return t


def _layer_forward(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    if layer.kind == "linear":
        z = x @ layer.weights.T
        z += layer.bias
        return z
    if layer.kind == "relu":
        return np.maximum(x, 0.0)
    if layer.kind == "sigmoid":
        return _sigmoid(x)
    return _softmax(x)


def forward(model: LocalModel, x) -> tuple[np.ndarray, ForwardTrace]:
    """Run the layer stack on a batch of rows, or on an (..., m, d) stack of
    batches; returns (output, trace)."""
    return _forward(model, as_matrix(x, cols=model.input_dim, stack=True))


def _forward(model: LocalModel, x: np.ndarray):
    x = np.ascontiguousarray(x)
    trace = ForwardTrace()
    for layer in model.layers:
        trace.inputs.append(x)
        x = _layer_forward(layer, x)
    trace.output = x
    return x, trace


def _forward_untraced(model: LocalModel, x: np.ndarray):
    """``_forward``'s output bytes, keeping no layer input: (output, None).

    The first layer makes a fresh array, so every later ReLU runs in place
    on an array this pass made; the caller's ``x`` is never written to.
    """
    first = _layer_forward(model.layers[0], np.ascontiguousarray(x))
    return _forward_fresh(model.layers[1:], first), None


def _forward_fresh(layers, x: np.ndarray) -> np.ndarray:
    """``layers`` applied to ``x``, an array the caller made and gives up.
    Each ReLU writes over its input: the same ``np.maximum`` loop as
    ``_layer_forward``'s, so the same bytes."""
    for layer in layers:
        if layer.kind == "relu":
            np.maximum(x, 0.0, out=x)
        else:
            x = _layer_forward(layer, x)
    return x


def _linear_param_grads(x: np.ndarray, grad_out: np.ndarray):
    return grad_out.T @ x, grad_out.sum(axis=0)


def _layer_backward(layer: LayerSpec, x: np.ndarray, grad_out: np.ndarray,
                    with_params: bool):
    """Returns (grad_in, param_grads or None) for one layer."""
    if layer.kind == "linear":
        grad_in = grad_out @ layer.weights
        if not with_params:
            return grad_in, None
        return grad_in, _linear_param_grads(x, grad_out)
    if layer.kind == "relu":
        return grad_out * (x > 0), None
    y = _sigmoid(x) if layer.kind == "sigmoid" else _softmax(x)
    return _activation_grad(layer.kind, y, grad_out), None


def _activation_grad(kind: str, y: np.ndarray,
                     grad: np.ndarray) -> np.ndarray:
    """Gradient at the input of a sigmoid or softmax ``kind`` of layer,
    from its output ``y`` and the gradient ``grad`` at that output."""
    if kind == "sigmoid":
        return grad * y * (1.0 - y)
    dot = (grad * y).sum(axis=-1, keepdims=True)
    return y * (grad - dot)


def backward(model: LocalModel, trace: ForwardTrace, grad_output,
             n_skip_top: int = 0, with_params: bool = True):
    """Backpropagate an output gradient through the stack.

    Returns (param_grads, input_grad) where param_grads is a per-layer list
    of (grad_w, grad_b) tuples (None for activation layers, and for every
    layer when ``with_params`` is False). ``n_skip_top`` starts propagation
    below the top-most layers, which lets callers take gradients of
    pre-activation logits.

    ``grad_output`` may be an (..., m, k) stack of m-row gradients. The
    trace then holds the same stack, or one m-row batch that every
    gradient in the stack shares.
    """
    return _backward(model, trace, as_matrix(grad_output, stack=True),
                     n_skip_top, with_params)


def _backward(model: LocalModel, trace: ForwardTrace, grad: np.ndarray,
              n_skip_top: int = 0, with_params: bool = True,
              input_grad: bool = True):
    """``backward``'s core. With ``input_grad`` unset it stops at layer 0's
    parameter gradients and returns None for the input gradient, which
    training never reads."""
    start = len(model.layers) - 1 - n_skip_top
    expected = model.layers[start].out_dim
    if grad.shape[-2:] != (trace.inputs[0].shape[-2], expected):
        raise ValueError(
            f"gradient shape {grad.shape} does not match "
            f"({trace.inputs[0].shape[-2]}, {expected})")
    if with_params and grad.ndim != 2:
        raise ValueError("parameter gradients need a 2-D batch")
    grad = np.ascontiguousarray(grad)
    param_grads: list = [None] * len(model.layers)
    for i in range(start, -1 if input_grad else 0, -1):
        grad, pg = _layer_backward(model.layers[i], trace.inputs[i], grad,
                                   with_params)
        param_grads[i] = pg
    if input_grad:
        return param_grads, grad
    if with_params and model.layers[0].kind == "linear":
        param_grads[0] = _linear_param_grads(trace.inputs[0], grad)
    return param_grads, None


class SgdMomentum:
    """Momentum SGD with per-parameter velocity state."""

    def __init__(self, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        self._velocity: dict[tuple[int, str], np.ndarray] = {}

    def step(self, model: LocalModel, param_grads):
        """Apply one update in place: v <- m*v + g; p <- p - lr*v."""
        for i, (layer, pg) in enumerate(zip(model.layers, param_grads)):
            if pg is None:
                continue
            grad_w, grad_b = pg
            if grad_w.shape != layer.weights.shape or grad_b.shape != layer.bias.shape:
                raise ValueError("gradient shapes do not match parameters")
            for name, param, grad in (("w", layer.weights, grad_w),
                                      ("b", layer.bias, grad_b)):
                key = (i, name)
                vel = self._velocity.get(key)
                if vel is None:
                    vel = self._velocity[key] = np.zeros_like(param)
                # The ufuncs of m*v + g, in its order, on the velocity itself.
                vel *= self.momentum
                vel += grad
                param -= self.lr * vel


@dataclass
class GradCheckReport:
    max_rel_err_input: float
    max_rel_err_params: float
    n_checked: int
    n_indeterminate: int
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_rel_err_input, self.max_rel_err_params) <= self.tol


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / scale


def _relu_sign_flip(model: LocalModel, t_plus: ForwardTrace,
                    t_minus: ForwardTrace) -> bool:
    """True when a perturbation moved any ReLU pre-activation across zero."""
    for layer, xp, xm in zip(model.layers, t_plus.inputs, t_minus.inputs):
        if layer.kind == "relu" and np.any((xp > 0) != (xm > 0)):
            return True
    return False


def grad_check(model: LocalModel, x, step: float = 1e-5,
               tol: float = 1e-3) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Coordinates whose perturbation crosses a ReLU kink are reported as
    indeterminate and excluded from the error maxima.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = as_matrix(x, cols=model.input_dim)
    out, trace = forward(model, x)
    # Scalar probe: sum of outputs, so FD of the probe checks the full grad.
    probe_grad = np.ones_like(out)
    param_grads, input_grad = backward(model, trace, probe_grad)

    max_in = 0.0
    n_checked = 0
    n_indet = 0
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += step
        xm = x.copy(); xm[idx] -= step
        op, tp = forward(model, xp)
        om, tm = forward(model, xm)
        if _relu_sign_flip(model, tp, tm):
            n_indet += 1
            continue
        fd = (op.sum() - om.sum()) / (2 * step)
        max_in = max(max_in, _rel_err(fd, input_grad[idx]))
        n_checked += 1

    max_par = 0.0
    for li, layer in enumerate(model.layers):
        if layer.kind != "linear":
            continue
        grad_w, grad_b = param_grads[li]
        for name, param, analytic in (("w", layer.weights, grad_w),
                                      ("b", layer.bias, grad_b)):
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + step
                op, tp = forward(model, x)
                param[idx] = orig - step
                om, tm = forward(model, x)
                param[idx] = orig
                if _relu_sign_flip(model, tp, tm):
                    n_indet += 1
                    continue
                fd = (op.sum() - om.sum()) / (2 * step)
                max_par = max(max_par, _rel_err(fd, analytic[idx]))
                n_checked += 1

    return GradCheckReport(max_in, max_par, n_checked, n_indet, tol)


def init_model(dims: list[int], activation: str = "relu",
               head: str | None = None, seed: int = 0) -> LocalModel:
    """Build an MLP with uniform +/- sqrt(6/(in+out)) initial weights.

    ``dims`` lists layer widths, e.g. [784, 128, 10]. ``activation`` is
    inserted between linear layers; ``head`` optionally caps the stack
    (sigmoid or softmax).
    """
    rng = np.random.default_rng(seed)
    layers: list[LayerSpec] = []
    for i, (din, dout) in enumerate(zip(dims, dims[1:])):
        limit = np.sqrt(6.0 / (din + dout))
        w = rng.uniform(-limit, limit, size=(dout, din))
        layers.append(LayerSpec("linear", din, dout, w, np.zeros(dout)))
        if i < len(dims) - 2:
            layers.append(LayerSpec(activation, dout, dout))
    if head is not None:
        layers.append(LayerSpec(head, dims[-1], dims[-1]))
    return LocalModel(layers)


def identity_model(dim: int) -> LocalModel:
    return LocalModel([LayerSpec("linear", dim, dim, np.eye(dim), np.zeros(dim))])


def model_to_dict(model: LocalModel, protocol: str = "local",
                  arrays: bool = False) -> dict:
    """The model's checkpoint document; with ``arrays`` set, each weight
    and bias stays a numpy array instead of a list of floats."""
    layers = []
    for layer in model.layers:
        entry: dict = {"kind": layer.kind, "in": layer.in_dim, "out": layer.out_dim}
        if layer.kind == "linear":
            entry["weights"] = layer.weights if arrays else layer.weights.tolist()
            entry["bias"] = layer.bias if arrays else layer.bias.tolist()
        layers.append(entry)
    return {"version": CHECKPOINT_VERSION, "protocol": protocol, "layers": layers}


def model_from_dict(doc: dict) -> LocalModel:
    if not isinstance(doc, dict):
        raise ValueError(f"a model must be a JSON object, got {doc!r:.40}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    layers = []
    for entry in doc["layers"]:
        layers.append(LayerSpec(entry["kind"], entry["in"], entry["out"],
                                entry.get("weights"), entry.get("bias")))
    return LocalModel(layers)
