"""Two-to-m-participant VFL simulation: training and joint inference.

Two protocols are modeled. In the logistic protocol each participant holds a
linear score model and the coordinator applies a sigmoid (binary) or softmax
(multi-class head, used for multi-class tabular tasks) to the summed scores.
In the split protocol each participant runs a local network and the
coordinator's top model consumes the concatenated local outputs.

Intermediate payloads travel as plaintext, and training and the attacks
do not check what crosses a party boundary.

The coordinator's passes, like the local models' (see ``model``), also take
(..., m, k) stacks of local outputs; they join and split them on the last
axis.

Every joint inference runs ``_joint_trace``: the coordinator's pass over the
parties' local outputs in party order. A party's single row pairs with each
of the others' rows; the SplitNN head broadcasts it before concatenating,
the HeteroLR head's sum broadcasts it by itself.

As in ``model``, the public passes check their input (views, output
gradient, probabilities); the cores ``_coordinator_backward`` and
``_labels`` trust their caller, and so does ``party_input_grads``. The
coordinator's forward runs the SplitNN top model on ``model._forward``: its
input is joined from local outputs the package computed. Only
``joint_forward`` runs every model, the top one included, through the
public ``model.forward``, where the benchmark's span tracer counts them.
``joint_inference``, which only reads the probabilities, runs the same
layer passes on ``model._forward_untraced`` and keeps no layer input.

Training (``_fit``) checks its views once. Its batches then run on the
cores: ``_forward`` per party, ``_joint_trace``, ``_coordinator_backward``
and ``_backward`` without layer 0's input gradient, which no step reads.
The batch's output gradient keeps one finiteness check, so a diverging fit
raises ValueError before its update.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import PartitionSpec
from .model import (LocalModel, SgdMomentum, as_matrix, forward, init_model,
                    model_from_dict, model_to_dict, _activation_grad,
                    _backward, _forward, _forward_untraced, _is_finite_real,
                    _is_integer, _sigmoid, _softmax, _split_widths)

SYSTEM_CHECKPOINT_VERSION = 1


@dataclass
class Participant:
    id: str
    columns: list[int]
    model: LocalModel

    def __post_init__(self):
        if self.model.input_dim != len(self.columns):
            raise ValueError(
                f"participant {self.id}: model input dim {self.model.input_dim} "
                f"!= column count {len(self.columns)}")


@dataclass
class Coordinator:
    kind: str                       # "heterolr" | "splitnn"
    bias: np.ndarray | None = None  # heterolr: trained intercept over scores
    top_model: LocalModel | None = None

    def __post_init__(self):
        if self.kind == "heterolr":
            if self.bias is None:
                raise ValueError("logistic coordinator needs a bias vector")
            self.bias = np.asarray(self.bias, dtype=np.float64).ravel()
        elif self.kind == "splitnn":
            if self.top_model is None:
                raise ValueError("split coordinator needs a top model")
        else:
            raise ValueError(f"unknown protocol kind {self.kind!r}")


@dataclass
class VFLSystem:
    participants: list[Participant]
    coordinator: Coordinator
    n_classes: int

    def __post_init__(self):
        # Column lists of all participants must form a valid partition.
        self.spec = PartitionSpec([list(p.columns) for p in self.participants])
        dims = [p.model.output_dim for p in self.participants]
        if self.coordinator.kind == "heterolr":
            if any(d != self.output_dim for d in dims):
                raise ValueError("logistic participants must emit equal-width scores")
        else:
            if self.coordinator.top_model.input_dim != sum(dims):
                raise ValueError(
                    f"top model input {self.coordinator.top_model.input_dim} != "
                    f"sum of local output dims {sum(dims)}")

    @property
    def protocol(self) -> str:
        return self.coordinator.kind

    @property
    def output_dim(self) -> int:
        if self.coordinator.kind == "heterolr":
            return 1 if self.n_classes == 2 else self.n_classes
        return self.coordinator.top_model.output_dim


def _check_views(system: VFLSystem, views) -> list[np.ndarray]:
    if len(views) != len(system.participants):
        raise ValueError(f"expected {len(system.participants)} views")
    out = []
    n = None
    for part, view in zip(system.participants, views):
        v = as_matrix(view, cols=len(part.columns))
        if n is None:
            n = v.shape[0]
        elif v.shape[0] != n:
            raise ValueError("views disagree on row count")
        out.append(v)
    return out


@dataclass
class _JointTrace:
    local_traces: list
    local_outputs: list[np.ndarray]
    coord_trace: object          # ForwardTrace (splitnn) or summed scores
    probs: np.ndarray


def _coordinator_forward(system: VFLSystem, locals_: list[np.ndarray],
                         top_forward=_forward):
    coord = system.coordinator
    if coord.kind == "heterolr":
        score = sum(locals_) + coord.bias
        probs = _sigmoid(score) if system.output_dim == 1 else _softmax(score)
        return probs, score
    return top_forward(coord.top_model, np.concatenate(locals_, axis=-1))


def _joint_trace(system: VFLSystem, passes: list,
                 top_forward=_forward) -> _JointTrace:
    """Joint trace of the parties' local (output, trace) ``passes``, the
    trace None for a party not backpropagated into; see the module
    docstring."""
    outs = [out for out, _ in passes]
    if system.coordinator.kind == "splitnn":
        lead = max((out.shape[:-1] for out in outs), key=math.prod)
        joined = [out if out.shape[:-1] == lead else
                  np.broadcast_to(out, lead + out.shape[-1:]) for out in outs]
    else:
        joined = outs
    probs, coord_trace = _coordinator_forward(system, joined, top_forward)
    return _JointTrace([trace for _, trace in passes], outs, coord_trace,
                       probs)


def joint_forward(system: VFLSystem, views) -> _JointTrace:
    views = _check_views(system, views)
    return _joint_trace(system, [forward(part.model, view) for part, view
                                 in zip(system.participants, views)], forward)


def joint_inference(system: VFLSystem, views) -> np.ndarray:
    """Class probabilities: (n, 1) sigmoid output or (n, C) softmax rows.
    ``joint_forward``'s probabilities, from the same layer passes in the
    same order, but no layer input outlives its layer."""
    views = _check_views(system, views)
    return _joint_trace(system, [_forward_untraced(part.model, view)
                                 for part, view in zip(system.participants,
                                                       views)],
                        _forward_untraced).probs


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    return _labels(as_matrix(probs))


def _labels(probs: np.ndarray) -> np.ndarray:
    if probs.shape[1] == 1:
        return (probs[:, 0] >= 0.5).astype(np.int64)
    return probs.argmax(axis=1)


def coordinator_backward(system: VFLSystem, jt: _JointTrace, grad_probs,
                         from_logits: bool = False, with_params: bool = False):
    """Gradient at the local-output boundary: what the coordinator can send
    back to each participant without touching local models.

    Returns (branch_grads, coord_grad) where coord_grad is the bias gradient
    (logistic) or the top-model param grads (split), computed only when
    ``with_params`` is set and None otherwise. ``from_logits`` treats
    grad_probs as a gradient on pre-activation scores.
    """
    return _coordinator_backward(system, jt, as_matrix(grad_probs, stack=True),
                                 from_logits, with_params)


def _coordinator_backward(system: VFLSystem, jt: _JointTrace, grad: np.ndarray,
                          from_logits: bool = False, with_params: bool = False):
    coord = system.coordinator
    if coord.kind == "heterolr":
        grad_score = grad if from_logits else _activation_grad(
            "sigmoid" if system.output_dim == 1 else "softmax", jt.probs, grad)
        coord_grad = grad_score.sum(axis=0) if with_params else None
        branch_grads = [grad_score] * len(system.participants)
        return branch_grads, coord_grad
    skip = 1 if from_logits and coord.top_model.layers[-1].kind in (
        "softmax", "sigmoid") else 0
    top_params, grad_concat = _backward(coord.top_model, jt.coord_trace,
                                        grad, n_skip_top=skip,
                                        with_params=with_params)
    branch_grads = _split_widths(grad_concat, [p.model.output_dim
                                               for p in system.participants])
    return branch_grads, top_params if with_params else None


def joint_backward(system: VFLSystem, jt: _JointTrace, grad_probs,
                   with_params: bool = False, from_logits: bool = False):
    """Backpropagate from the joint output to every participant's input.

    Returns (input_grads, local_param_grads, coord_grad); parameter
    gradients are computed only when ``with_params`` is set and are None
    otherwise. See coordinator_backward for the coordinator-side split.
    """
    branch_grads, coord_grad = coordinator_backward(system, jt, grad_probs,
                                                    from_logits, with_params)
    input_grads = []
    local_param_grads = []
    for part, trace, bg in zip(system.participants, jt.local_traces, branch_grads):
        pg, ig = _backward(part.model, trace, bg, with_params=with_params)
        input_grads.append(ig)
        local_param_grads.append(pg if with_params else None)
    return input_grads, local_param_grads, coord_grad


def party_input_grads(system: VFLSystem, jt: _JointTrace, grad_probs,
                      parties, from_logits: bool = False) -> list[np.ndarray]:
    """Input gradients of the listed participants only: the coordinator's
    backward, then the local backward of each listed participant, with no
    parameter gradients. Only those participants need a trace in ``jt``.
    Each gradient equals the matching entry of ``joint_backward``'s. The
    caller checks ``grad_probs``, a finite float64 array."""
    branch_grads, _ = _coordinator_backward(system, jt, grad_probs,
                                            from_logits)
    return [_backward(system.participants[i].model, jt.local_traces[i],
                      branch_grads[i], with_params=False)[1] for i in parties]


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _epoch_batches(n: int, batch: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch):
        yield order[start:start + batch]


def _fit(views, labels, local_dims: list[list[int]], coord: Coordinator,
         n_classes: int, epochs: int, lr: float, batch: int, seed: int,
         momentum: float):
    """Fresh participants, one per view, trained with the coordinator by
    mini-batch momentum SGD on the joint cross-entropy.

    The protocols differ only in the coordinator's step: plain SGD on the
    logistic bias, momentum SGD on the split top model. Returns the system
    and the per-epoch mean loss.

    The arguments and views are checked here, once; see the module
    docstring for the batch loop.
    """
    if not (_is_integer(epochs) and epochs >= 0):
        raise ValueError(f"epochs must be a non-negative integer, "
                         f"got {epochs!r}")
    if not (_is_integer(batch) and batch >= 1):
        raise ValueError(f"batch must be a positive integer, got {batch!r}")
    if not (_is_finite_real(lr) and lr >= 0):
        raise ValueError(f"lr must be a finite number >= 0, got {lr!r}")
    if not (_is_finite_real(momentum) and 0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must lie in [0, 1), got {momentum!r}")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    views = [as_matrix(view) for view in views]
    widths = [view.shape[1] for view in views]
    participants = []
    for i, (width, cols, dims) in enumerate(zip(
            widths, _split_widths(np.arange(sum(widths)), widths), local_dims)):
        if dims[0] != width:
            raise ValueError(f"local model {i} input dim {dims[0]} != view width "
                             f"{width}")
        model = init_model(dims, "relu", seed=seed + 1000 * (i + 1))
        name = "A" if i == 0 else f"B{i}"
        participants.append(Participant(name, cols.tolist(), model))
    system = VFLSystem(participants, coord, n_classes)
    n = views[0].shape[0]
    if any(view.shape[0] != n for view in views):
        raise ValueError("views disagree on row count")
    if labels.shape[0] != n:
        raise ValueError(f"{labels.shape[0]} labels for {n} rows")
    scalar = coord.kind == "heterolr" and system.output_dim == 1
    rng = np.random.default_rng(seed)
    opts = [SgdMomentum(lr, momentum) for _ in participants] if lr > 0 else None
    top_opt = SgdMomentum(lr, momentum) \
        if lr > 0 and coord.kind == "splitnn" else None
    history = []
    eps = 1e-12
    for _ in range(epochs):
        epoch_loss = 0.0
        for idx in _epoch_batches(n, batch, rng):
            y = labels[idx]
            jt = _joint_trace(system, [_forward(part.model, v[idx]) for part, v
                                       in zip(participants, views)])
            p = jt.probs
            m = len(idx)
            if scalar:
                pc = np.clip(p[:, 0], eps, 1 - eps)
                epoch_loss -= float(np.sum(y * np.log(pc) + (1 - y) * np.log(1 - pc)))
                grad_score = ((p[:, 0] - y) / m)[:, None]
            else:
                pc = np.clip(p[np.arange(m), y], eps, 1.0)
                epoch_loss -= float(np.sum(np.log(pc)))
                # Softmax + CE collapse: gradient on the final logits.
                grad_score = (p - _one_hot(y, p.shape[1])) / m
            if opts is None:
                continue
            # A diverging fit stops here, before its update.
            if not np.all(np.isfinite(grad_score)):
                raise ValueError("matrix entries must be finite (no NaN/Inf)")
            branch_grads, coord_grad = _coordinator_backward(
                system, jt, grad_score, from_logits=True, with_params=True)
            for part, trace, bg, opt in zip(participants, jt.local_traces,
                                            branch_grads, opts):
                opt.step(part.model, _backward(part.model, trace, bg,
                                               input_grad=False)[0])
            if top_opt is None:
                coord.bias -= lr * coord_grad
            else:
                top_opt.step(coord.top_model, coord_grad)
        history.append(epoch_loss / n)
    return system, history


def _train_linear(views, labels, n_classes: int, epochs: int, lr: float,
                  batch: int, seed: int, momentum: float):
    if len(views) < 2:
        raise ValueError("need at least two participant views")
    out_dim = 1 if n_classes == 2 else n_classes
    return _fit(views, labels, [[np.shape(v)[-1], out_dim] for v in views],
                Coordinator("heterolr", bias=np.zeros(out_dim)), n_classes,
                epochs, lr, batch, seed, momentum)


def train_heterolr(views, labels, epochs: int = 30, lr: float = 0.05,
                   batch: int = 64, seed: int = 0, momentum: float = 0.9):
    """Binary vertical logistic regression over two or more feature views."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("logistic protocol requires binary {0,1} labels")
    return _train_linear(views, labels, 2, epochs, lr, batch, seed, momentum)


def train_linear_joint(views, labels, n_classes: int, epochs: int = 30,
                       lr: float = 0.05, batch: int = 64, seed: int = 0,
                       momentum: float = 0.9):
    """Multi-class variant: summed linear scores under a softmax head."""
    if n_classes < 3:
        raise ValueError("use train_heterolr for binary tasks")
    return _train_linear(views, labels, n_classes, epochs, lr, batch, seed,
                         momentum)


def splitnn_architecture(views, local_hidden: list[int],
                         top_hidden: list[int],
                         n_classes: int) -> tuple[list[list[int]], list[int]]:
    """Layer widths for train_splitnn: each party's MLP maps its view
    through ``local_hidden``; the top model maps their concatenated outputs
    through ``top_hidden`` to the classes."""
    local_dims = [[np.shape(v)[1]] + list(local_hidden) for v in views]
    top_dims = [sum(d[-1] for d in local_dims)] + list(top_hidden) + [n_classes]
    return local_dims, top_dims


def train_splitnn(views, labels, local_dims: list[list[int]],
                  top_dims: list[int], epochs: int = 10, lr: float = 0.01,
                  batch: int = 64, seed: int = 0, momentum: float = 0.9):
    """Split network: local MLPs feed a coordinator top model ending in softmax."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n_classes = int(labels.max()) + 1
    if len(views) != len(local_dims):
        raise ValueError("one architecture per participant view required")
    if top_dims[0] != sum(d[-1] for d in local_dims):
        raise ValueError("top model input must equal summed local output dims")
    if top_dims[-1] != n_classes:
        raise ValueError("top model output must equal the class count")
    top = init_model(top_dims, "relu", head="softmax", seed=seed + 7)
    return _fit(views, labels, local_dims, Coordinator("splitnn", top_model=top),
                n_classes, epochs, lr, batch, seed, momentum)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x``; each group of ties gets its average rank."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-statistic AUC (ties get average ranks)."""
    scores = np.asarray(scores).ravel()
    labels = np.asarray(labels).ravel()
    if scores.size != labels.size:
        raise ValueError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def evaluate(system: VFLSystem, views, labels) -> dict:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size == 0:
        raise ValueError("empty test set")
    probs = joint_inference(system, views)
    preds = predicted_labels(probs)
    metrics = {"accuracy": float(np.mean(preds == labels))}
    if probs.shape[1] == 1 and set(np.unique(labels)) <= {0, 1}:
        metrics["auc_roc"] = auc_roc(probs[:, 0], labels)
    return metrics


def system_to_dict(system: VFLSystem, arrays: bool = False) -> dict:
    """The system's checkpoint document; with ``arrays`` set, each
    parameter array stays a numpy array instead of a list of floats."""
    coord = system.coordinator
    doc = {
        "version": SYSTEM_CHECKPOINT_VERSION,
        "protocol": system.protocol,
        "classes": system.n_classes,
        "partition": [list(p.columns) for p in system.participants],
        "participants": [
            {"id": p.id, "model": model_to_dict(p.model, system.protocol,
                                                arrays)}
            for p in system.participants
        ],
    }
    if coord.kind == "heterolr":
        doc["coordinator"] = {"kind": coord.kind, "bias": coord.bias if arrays
                              else coord.bias.tolist()}
    else:
        doc["coordinator"] = {"kind": coord.kind,
                              "top_model": model_to_dict(coord.top_model,
                                                         system.protocol,
                                                         arrays)}
    return doc


def system_from_dict(doc: dict) -> VFLSystem:
    if not isinstance(doc, dict):
        raise ValueError(f"a checkpoint must be a JSON object, "
                         f"got {doc!r:.40}")
    if doc.get("version") != SYSTEM_CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    participants = [
        Participant(entry["id"], list(cols), model_from_dict(entry["model"]))
        for entry, cols in zip(doc["participants"], doc["partition"])
    ]
    cd = doc["coordinator"]
    if cd["kind"] == "heterolr":
        coord = Coordinator("heterolr", bias=np.asarray(cd["bias"]))
    else:
        coord = Coordinator("splitnn", top_model=model_from_dict(cd["top_model"]))
    return VFLSystem(participants, coord, doc["classes"])


def save_system(system: VFLSystem, path):
    """Write ``json.dumps(system_to_dict(system), sort_keys=True)`` to
    ``path`` without holding that text or the document's float lists:
    the document keeps its parameter arrays, and ``_write_json`` writes
    one array row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, system_to_dict(system, arrays=True))


def _write_json(fh, obj):
    """Write ``json.dumps(obj, sort_keys=True)``'s text piece by piece:
    dicts and lists item by item, a 1-d array as ``json.dumps`` of its
    list, a deeper array row by row."""
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(fh, obj[key])
        fh.write("}")
    elif isinstance(obj, list) or (isinstance(obj, np.ndarray)
                                   and obj.ndim > 1):
        fh.write("[")
        for i, item in enumerate(obj):
            if i:
                fh.write(", ")
            _write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(obj.tolist() if isinstance(obj, np.ndarray)
                            else obj))


def load_system(path) -> VFLSystem:
    with open(path, encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))
