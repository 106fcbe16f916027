"""Gradient-based synthesis of dominating inputs.

An adversary controlling one participant perturbs its own feature block so
the joint prediction locks onto a chosen label for (nearly) every input the
benign participants might supply. The perturbation is found by iterating a
small sample of benign rows and descending a weighted objective: the benign
side's saliency (its leverage on the output) plus the targeted prediction
loss, optionally with a norm penalty and a per-feature mutation bound.

Whitebox mode differentiates through the full system; blackbox mode
estimates every gradient from joint-inference outputs alone by forward
finite differences, d+1 joint inferences per gradient in d inputs. The
simulation answers each such batch from its structure (one perturbed
coordinate per row) rather than row by row; ``fdm_gradient`` over
``joint_forward`` is the reference estimator it is tested against. Every
such batch reaches the coordinator as one call of
``protocol._coordinator_probs``, the untraced one of its two passes, which
``joint_inference`` runs too (the whitebox backpropagates through the
traced ``_coordinator_forward``): no layer input is kept and each ReLU
runs in place. That call, under the name imported here, is the chokepoint
where the tests count and record the blackbox's queries.

Several adversary rows are synthesised in lockstep: at round t every row
descends against the same benign row, so each round's objective takes an
(R, d) block of rows with one target label each. The whitebox passes run
as (R, 1, d) stacks (see ``model``); blackbox mode answers each row's
batches in turn from local blocks built once: one adversary block per row
per inner step, the benign rows' once per round. A row value already
answered in a round sends the coordinator no further batch in it. Each
row's result has the same bytes as its own ``adi_generate`` run. A row
leaves the block at the sweep boundary where it dominates, as a lone run
would stop there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import (LocalModel, as_matrix, as_vector, forward, _class_sums,
                    _forward, _forward_fresh, _is_finite_real, _is_integer,
                    _split_widths)
from .protocol import (VFLSystem, joint_backward, joint_forward,
                       party_input_grads, _coordinator_probs, _joint_trace,
                       _JointTrace, _labels)

BOUND_FLOOR = 1e-6


def _require(cfg, names, test, want: str):
    """Raise ValueError naming the first field of ``cfg`` that fails."""
    for name in names:
        if not test(getattr(cfg, name)):
            raise ValueError(f"{name} must be {want}, "
                             f"got {getattr(cfg, name)!r}")


def _as_bound(bound) -> np.ndarray | None:
    """A config's per-feature mutation bound as a positive vector, or None."""
    if bound is not None:
        bound = as_vector(bound)
        if np.any(bound <= 0):
            raise ValueError("mutation bound must be positive per feature")
    return bound


@dataclass
class SynthesisConfig:
    strategy: str = "random"          # "random" | "bounded"
    mode: str = "whitebox"            # "whitebox" | "blackbox"
    alpha: float = 1.0                # saliency-term weight
    beta: float = 1.0                 # target-loss weight
    gamma: float = 0.1                # mutation-norm weight (bounded only)
    momentum: float = 0.9
    bound: np.ndarray | None = None   # per-feature mutation bound (bounded only)
    max_rounds: int = 400
    threshold: float = 0.95           # dominating threshold, fraction of rows
    inner_steps: int = 10
    inner_lr: float | None = None     # default 0.05 random / 0.01 bounded
    fdm_step: float = 1e-3            # blackbox finite-difference step

    def __post_init__(self):
        if self.strategy not in ("random", "bounded"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mode not in ("whitebox", "blackbox"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _require(self, ("max_rounds", "inner_steps"),
                 lambda v: _is_integer(v) and v >= 0, "a non-negative integer")
        _require(self, ("alpha", "beta", "gamma", "momentum", "threshold",
                        "fdm_step"), _is_finite_real,
                 "a finite number")
        _require(self, ("inner_lr",),
                 lambda v: v is None or _is_finite_real(v) and v > 0,
                 "a positive number")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("objective weights must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        if self.fdm_step <= 0:
            raise ValueError("fdm_step must be positive")
        self.bound = _as_bound(self.bound)
        if self.strategy == "bounded" and self.bound is None:
            raise ValueError("bounded strategy requires a mutation bound")

    @property
    def step_size(self) -> float:
        if self.inner_lr is not None:
            return self.inner_lr
        return 0.05 if self.strategy == "random" else 0.01


@dataclass
class AdiCandidate:
    """A found ADI: ``input`` is ``base + perturbation``. A fuzz lineage's
    candidates share one read-only origin row as their ``base``."""

    base: np.ndarray                  # adversary's original feature row
    perturbation: np.ndarray          # accumulated mutation
    target: int
    accuracy: float                   # share of the sample it dominates
    rounds: int
    strategy: str
    mode: str
    provenance: str = "gradient"

    @property
    def input(self) -> np.ndarray:
        return self.base + self.perturbation

    def to_json(self) -> str:
        return json.dumps({
            "base": self.base.tolist(), "v": self.perturbation.tolist(),
            "target": int(self.target), "r": self.accuracy,
            "rounds": self.rounds, "strategy": self.strategy,
            "mode": self.mode, "provenance": self.provenance,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "AdiCandidate":
        doc = json.loads(line)
        return cls(np.asarray(doc["base"]), np.asarray(doc["v"]),
                   doc["target"], doc["r"], doc["rounds"], doc["strategy"],
                   doc["mode"], doc.get("provenance", "gradient"))


def write_candidates(candidates, path):
    with open(path, "w", encoding="utf-8") as fh:
        for cand in candidates:
            fh.write(cand.to_json() + "\n")


def read_candidates(path) -> list[AdiCandidate]:
    with open(path, encoding="utf-8") as fh:
        return [AdiCandidate.from_json(line) for line in fh if line.strip()]


def _spread_rows(probs: np.ndarray) -> np.ndarray:
    """Each row's spread: component variance, or the scalar itself for
    one-dimensional outputs.

    The bytes of ``np.var(probs, axis=1)`` on C-ordered probabilities, for
    ``probs`` in any order. Large blackbox query batches come back as the
    transpose of a class-major block, and ``np.var`` would sum that
    F-ordered array's rows one term after another; their sums run over
    class rows of ``probs.T`` in ``_class_sums``, which takes numpy's order
    for a contiguous row. C-ordered probabilities keep ``np.var``, which
    is the faster of the two on batches of a few dozen rows.
    """
    c = probs.shape[1]
    if c == 1:
        return probs[:, 0]
    if probs.flags.c_contiguous:
        return np.var(probs, axis=1)
    dev = probs.T - _class_sums(probs.T) / c
    dev *= dev
    return _class_sums(dev) / c


def spread_grad(probs: np.ndarray) -> np.ndarray:
    """Row-wise gradient of the output spread on the joint output: ones for
    one-dimensional outputs, else (2/c)(p - mean p)."""
    c = probs.shape[-1]
    if c == 1:
        return np.ones_like(probs)
    return (2.0 / c) * (probs - probs.mean(axis=-1, keepdims=True))


def spread_input_grads(system: VFLSystem, views) -> list[np.ndarray]:
    """Row-wise gradient of the joint output's spread on every
    participant's input: the saliency maps all the attacks steer by."""
    jt = joint_forward(system, views)
    grads, _, _ = joint_backward(system, jt, spread_grad(jt.probs))
    return grads


def split_benign(system: VFLSystem, rows, adv_index: int = 0) -> list[np.ndarray]:
    """Split aggregated benign rows into per-benign-participant views."""
    rows = as_matrix(rows)
    widths = [len(p.columns) for i, p in enumerate(system.participants)
              if i != adv_index]
    if rows.shape[1] != sum(widths):
        raise ValueError(
            f"benign rows have {rows.shape[1]} columns, expected {sum(widths)}")
    return _split_widths(rows, widths)


def _as_benign_views(system: VFLSystem, benign,
                     adv_index: int = 0) -> list[np.ndarray]:
    if hasattr(benign, "rows"):        # TinyDataset
        benign = benign.rows
    if isinstance(benign, np.ndarray) or not isinstance(benign, (list, tuple)):
        return split_benign(system, benign, adv_index)
    views = [as_matrix(v) for v in benign]
    if len({v.shape[0] for v in views}) > 1:
        raise ValueError("benign views disagree on row count: "
                         f"{[v.shape[0] for v in views]}")
    return views


class JointEvaluator:
    """Joint inference of one varying row against fixed rows of the others.

    It holds the fixed parties' local passes over its fixed rows, so a
    query runs only the varying party's model and ``protocol._joint_trace``.
    (The synthesis objectives run each round's benign single-row passes
    themselves, in ``_Objective._benign_locals``.) Its two sets of passes
    are the batched pass over all fixed rows, run at construction, and each
    fixed row's own single-row pass, run on first use (rows sliced from the
    batched outputs can differ from it in the last bits). ``join``
    pairs a varying output with either: all fixed rows, or row ``j``.
    ``adv_index`` selects which participant varies (default: the first, the
    adversary-side party).
    ``memo`` holds values that callers derive from the fixed rows; it lives
    exactly as long as the evaluator.
    """

    def __init__(self, system: VFLSystem, benign_views, adv_index: int = 0):
        self.system = system
        self.adv_index = adv_index
        self.benign_views = _as_benign_views(system, benign_views, adv_index)
        if len(self.benign_views) != len(system.participants) - 1:
            raise ValueError("one view per benign participant required")
        self.n = self.benign_views[0].shape[0] if self.benign_views else 1
        self._varying = system.participants[adv_index]
        self._models = [p.model for i, p in enumerate(system.participants)
                        if i != adv_index]
        self._batched = [forward(m, v)
                         for m, v in zip(self._models, self.benign_views)]
        self._rows: dict[int, list] = {}
        self.memo: dict = {}

    def fixed(self, j: int | None = None) -> list:
        """The fixed parties' (output, trace) passes: batched, or row
        ``j``'s."""
        if j is None:
            return self._batched
        passes = self._rows.get(j)
        if passes is None:
            passes = self._rows[j] = [
                _forward(m, v[j][None, :])
                for m, v in zip(self._models, self.benign_views)]
        return passes

    def join(self, out, trace=None, j: int | None = None) -> _JointTrace:
        """Joint trace of the varying party's local output ``out`` (with its
        ``trace``, to backpropagate into it) and ``fixed(j)``. The caller
        checks ``out``."""
        passes = self.fixed(j)
        i = self.adv_index
        return _joint_trace(self.system,
                            passes[:i] + [(out, trace)] + passes[i:])

    def row_trace(self, x_adv, j: int) -> _JointTrace:
        """``joint_forward`` of the varying row and fixed row ``j``. The
        caller checks the row: a finite float64 vector of the party's width."""
        return self.join(*_forward(self._varying.model, x_adv[None, :]), j)

    def probs_for(self, x_adv) -> np.ndarray:
        x_adv = as_vector(x_adv, len(self._varying.columns))
        return self.join(_forward(self._varying.model, x_adv[None, :])[0]).probs

    def labels_for(self, x_adv) -> np.ndarray:
        return _labels(self.probs_for(x_adv))

    def attack_accuracy(self, x_adv, l_target: int) -> float:
        return float(np.mean(self.labels_for(x_adv) == l_target))

    def majority_label(self, x_adv) -> tuple[int, float]:
        labels = self.labels_for(x_adv)
        counts = np.bincount(labels, minlength=self.system.n_classes)
        label = int(counts.argmax())
        return label, float(counts[label] / labels.size)


def _evaluator(system: VFLSystem, benign) -> JointEvaluator:
    """The given JointEvaluator, or one built over the benign views. A given
    evaluator must vary the adversary (participant 0) of this system."""
    if not isinstance(benign, JointEvaluator):
        return JointEvaluator(system, benign)
    if benign.system is not system or benign.adv_index != 0:
        raise ValueError("evaluator must vary the adversary of this system")
    return benign


def default_bound(train_view_adv, multiplier: float = 1.0) -> np.ndarray:
    """Per-feature mutation bound: the feature's variance in training data."""
    view = as_matrix(train_view_adv)
    if view.shape[0] < 2:
        raise ValueError("need at least two rows")
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    var = view.var(axis=0)
    return np.maximum(var, BOUND_FLOOR) * multiplier


def _row_views(x_adv: np.ndarray, benign_rows: list[np.ndarray]):
    return [x_adv[None, :]] + [row[None, :] for row in benign_rows]


def saliency_est(x_adv, system: VFLSystem, benign_rows) -> float:
    """L1 norm of the joint-output spread's gradient against the benign
    features (analytic, full-system backward)."""
    x_adv = as_vector(x_adv)
    benign_rows = [as_vector(r) for r in _rows_of(benign_rows)]
    grads = spread_input_grads(system, _row_views(x_adv, benign_rows))
    return float(sum(np.abs(g).sum() for g in grads[1:]))


def _rows_of(benign_rows) -> list[np.ndarray]:
    if isinstance(benign_rows, np.ndarray) and benign_rows.ndim == 1:
        return [benign_rows]
    return list(benign_rows)


def fdm_gradient(fn_batch, x: np.ndarray, delta: float) -> np.ndarray:
    """Forward-difference gradient of a scalar function over rows.

    fn_batch maps a (m, d) batch to m scalars; the estimate costs d+1
    evaluations: the base point plus one unit-direction perturbation per
    dimension. This is the reference estimator: the blackbox synthesis
    answers the same d+1 queries without materialising the batch, and is
    tested against this function over ``joint_forward``.
    """
    if np.ndim(x) != 1:
        raise ValueError(f"x must be one row, got ndim={np.ndim(x)}")
    if not (_is_finite_real(delta) and delta > 0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    x = as_vector(x)
    vals = np.asarray(fn_batch(_fd_batch(x, delta)), dtype=np.float64).ravel()
    return (vals[1:] - vals[0]) / delta


def _fd_batch(x: np.ndarray, delta: float) -> np.ndarray:
    """The base row, then one step of ``delta`` along each coordinate."""
    d = x.shape[0]
    batch = np.repeat(x[None, :], d + 1, axis=0)
    batch[1:][np.diag_indices(d)] += delta
    return batch


def _benign_spread_fdm(system: VFLSystem, x_adv: np.ndarray,
                       benign_rows: list[np.ndarray],
                       delta: float) -> np.ndarray:
    """Forward-difference gradient of the output spread on the benign rows,
    flattened across benign participants."""
    widths = [r.shape[0] for r in benign_rows]

    def spread_batch(rows):
        views = [np.repeat(x_adv[None, :], rows.shape[0], axis=0)]
        return _spread_rows(joint_forward(
            system, views + _split_widths(rows, widths)).probs)

    return fdm_gradient(spread_batch, np.concatenate(benign_rows), delta)


def saliency_est_fdm(x_adv, system: VFLSystem, benign_rows,
                     delta: float) -> float:
    """Blackbox version of saliency_est: forward differences over the benign
    dimensions, d2 + 1 joint inferences total. A reference estimator: it
    runs ``fdm_gradient`` over ``joint_forward`` on the materialised
    batch."""
    benign_rows = [as_vector(r) for r in _rows_of(benign_rows)]
    grad = _benign_spread_fdm(system, as_vector(x_adv), benign_rows, delta)
    return float(np.abs(grad).sum())


# Probability floor for cross-entropy values. Kept at the float64 underflow
# edge: a larger floor flattens the loss in saturated regions, which would
# silently zero the finite-difference gradients the blackbox mode relies on.
_CE_FLOOR = 1e-300

# Step of the central difference that estimates the saliency term's gradient.
_HVP_STEP = 1e-5


def _target_logit_grad(probs: np.ndarray, l_target) -> np.ndarray:
    """Gradient of the targeted loss on the pre-activation scores.

    ``probs`` is one probability row (c,) with one label, or (R, c) rows
    with a label each; the result is (1, c) or (R, 1, c).
    """
    l_target = np.asarray(l_target)[..., None]
    if probs.shape[-1] == 1:
        p = np.clip(probs, _CE_FLOOR, 1 - 1e-16)
        return (p - l_target.astype(np.float64))[..., None, :]
    hot = np.arange(probs.shape[-1]) == l_target
    return (probs - hot)[..., None, :]


def _loss_rows(probs: np.ndarray, l_target: int) -> np.ndarray:
    if probs.shape[1] == 1:
        p = np.clip(probs[:, 0], _CE_FLOOR, 1 - 1e-16)
        y = float(l_target)
        return -(y * np.log(p) + (1 - y) * np.log(1 - p))
    return -np.log(np.clip(probs[:, l_target], _CE_FLOOR, 1.0))


class _Objective:
    """Objective gradients for one benign row, built once per round.

    The saliency term's gradient is a central difference of the adversary's
    spread gradient along the sign of the benign side's spread gradient;
    subclasses supply both spread gradients and the target-loss gradient.

    ``x_adv`` is one adversary row (d,) with one ``l_target``, or an (R, d)
    block of rows with an (R,) array of labels; gradients come back in the
    shape of ``x_adv``. Where a subclass's passes take stacks
    (``_Whitebox``), the benign rows passed to ``_adv_spread_grad`` are then
    one (R, w) block per benign participant.
    """

    def __init__(self, system: VFLSystem, benign_rows, l_target: int,
                 cfg: SynthesisConfig):
        self.system = system
        self.rows = [as_vector(r) for r in _rows_of(benign_rows)]
        self.l_target = l_target
        self.cfg = cfg

    def saliency_grad(self, x_adv):
        flat_dir = np.sign(self._benign_spread_grad(x_adv))
        flat = np.all(flat_dir == 0, axis=-1)
        if np.all(flat):
            return np.zeros_like(x_adv)
        h = _HVP_STEP
        dirs = _split_widths(flat_dir, [row.shape[0] for row in self.rows])
        gp = self._adv_spread_grad(x_adv, [row + h * d for row, d
                                           in zip(self.rows, dirs)])
        gm = self._adv_spread_grad(x_adv, [row - h * d for row, d
                                           in zip(self.rows, dirs)])
        return np.where(flat[..., None], 0.0, (gp - gm) / (2.0 * h))

    def _benign_locals(self, rows):
        return [_forward(p.model, row[..., None, :])
                for p, row in zip(self.system.participants[1:], rows)]


class _Whitebox(_Objective):
    """Analytic gradients, each backpropagated into one side only.

    The benign row's single-row local passes run once, when the round's
    objective is built. The adversary's local pass runs once per ``x_adv``
    (the last one is kept, keyed by identity, so ``x_adv`` must not change
    in place between calls). With the benign locals it gives the base joint
    trace, which the benign spread gradient and the target-loss gradient
    both backpropagate from. The +h and -h passes of the saliency term
    rerun only the benign locals and the coordinator. An inner step thus
    costs 1 adversary forward, 2 benign forwards, 3 coordinator forwards
    and 4 one-party backwards, and gives the same bytes as full
    ``joint_forward`` + ``joint_backward`` passes, which cost 4 of each.
    A block of R adversary rows runs each of these as one (R, 1, ·) stack;
    the round's benign locals are one row that the whole stack shares.
    """

    def __init__(self, system: VFLSystem, benign_rows, l_target: int,
                 cfg: SynthesisConfig):
        super().__init__(system, benign_rows, l_target, cfg)
        self._benign = self._benign_locals(self.rows)
        self._x = None
        self._jt = None

    def _base(self, x_adv) -> _JointTrace:
        if x_adv is not self._x:
            out, trace = _forward(self.system.participants[0].model,
                                  x_adv[..., None, :])
            self._x = x_adv
            # A block's rows share the round's single-row benign outputs.
            self._jt = _joint_trace(self.system,
                                    [(out, trace)] + self._benign)
        return self._jt

    def loss_grad(self, x_adv):
        jt = self._base(x_adv)
        glogit = _target_logit_grad(jt.probs[..., 0, :], self.l_target)
        return party_input_grads(self.system, jt, glogit, [0],
                                 from_logits=True)[0][..., 0, :]

    def _benign_spread_grad(self, x_adv):
        jt = self._base(x_adv)
        grads = party_input_grads(self.system, jt, spread_grad(jt.probs),
                                  range(1, len(self.system.participants)))
        return np.concatenate([g[..., 0, :] for g in grads], axis=-1)

    def _adv_spread_grad(self, x_adv, rows):
        base = self._base(x_adv)
        jt = _joint_trace(self.system, [(base.local_outputs[0],
                                         base.local_traces[0])]
                          + self._benign_locals(rows))
        return party_input_grads(self.system, jt, spread_grad(jt.probs),
                                 [0])[0][..., 0, :]


class _Blackbox(_Objective):
    """Forward-difference gradients from joint-inference outputs only.

    Every gradient is one batch of d+1 joint-inference queries: the base
    point, then one step of ``fdm_step`` along each input coordinate of the
    varying side (the adversary's row, or the benign rows end to end). The
    simulation answers a batch from its structure instead of running it
    row by row (``_fd_local_outputs``); the answers match ``fdm_gradient``
    over ``joint_forward`` on the same rows up to rounding.

    Each batch is one call of the untraced ``protocol._coordinator_probs``,
    which is where the tests count queries. Under a SplitNN softmax head,
    a batch of ``protocol._CLASS_MAJOR_ROWS`` rows or more (d+1 is 393 on
    digit halves) comes back as the transpose of a class-major (c, d+1)
    block, so that the softmax, the loss's class column and the spread's
    sums over classes each read contiguous class rows of d+1 entries
    rather than d+1 rows of c; the bytes are those of the row-major pass.

    Each local block is built once: the adversary's once per distinct row
    per inner step (keyed on its value) for the row's four batches, the
    benign rows' when the round's objective is built, for every row. Fixed
    parties' single-row outputs join a batch as broadcast views. An (R, d)
    block of rows with (R,) labels runs each row's batches in turn.

    Each distinct row value is answered once per round, its loss once per
    label: the gradients are kept beside its adversary block, so a row
    whose gradient came out zero, and which therefore returns with the same
    value, asks the coordinator nothing more. Callers get copies. A block
    call keeps only its own rows' entries, and all of them die with the
    objective at the end of the round.
    """

    def __init__(self, system: VFLSystem, benign_rows, l_target,
                 cfg: SynthesisConfig):
        super().__init__(system, benign_rows, l_target, cfg)
        self._adv: dict[bytes, dict] = {}
        self._fixed = self._outputs(self.rows)
        # Each benign party's perturbed rows fill its own block of rows.
        m = 1 + sum(row.shape[0] for row in self.rows)
        self._blocks = []
        offset = 1
        for part, row in zip(system.participants[1:], self.rows):
            out = _fd_local_outputs(part.model, row, cfg.fdm_step)
            block = np.repeat(out[:1], m, axis=0)
            block[offset:offset + row.shape[0]] = out[1:]
            offset += row.shape[0]
            self._blocks.append(block)

    def _each_row(self, kind: str, grad, x_adv):
        """``grad(row, label)`` for one row, or stacked over a block's rows,
        which alone keep their entries; each value runs it once (the loss
        once per label: the saliency term does not depend on it)."""
        rows = np.atleast_2d(x_adv)
        labels = np.atleast_1d(self.l_target).tolist()
        keys = [x.tobytes() for x in rows]
        self._adv = {k: self._adv.get(k, {}) for k in keys}
        grads = []
        for x, label, key in zip(rows, labels, keys):
            entry = self._adv[key]
            name = (kind, label) if kind == "loss" else kind
            if name not in entry:
                entry[name] = grad(x, label)
            grads.append(entry[name])
        out = np.stack(grads)
        return out[0] if x_adv.ndim == 1 else out

    def saliency_grad(self, x_adv):
        return self._each_row(
            "saliency", lambda x, _: _Objective.saliency_grad(self, x), x_adv)

    def loss_grad(self, x_adv):
        return self._each_row("loss", lambda x, label: self._fd_grad(
            [self._adv_block(x)] + self._fixed,
            lambda probs: _loss_rows(probs, label)), x_adv)

    def _benign_spread_grad(self, x_adv):
        out = forward(self.system.participants[0].model, x_adv[None, :])[0]
        return self._fd_grad([out] + self._blocks, _spread_rows)

    def _adv_spread_grad(self, x_adv, rows):
        return self._fd_grad([self._adv_block(x_adv)] + self._outputs(rows),
                             _spread_rows)

    def _adv_block(self, x):
        entry = self._adv.setdefault(x.tobytes(), {})
        if "block" not in entry:
            entry["block"] = _fd_local_outputs(
                self.system.participants[0].model, x, self.cfg.fdm_step)
        return entry["block"]

    def _outputs(self, rows):
        return [out for out, _ in self._benign_locals(rows)]

    def _fd_grad(self, outs, fn):
        """Forward-difference gradient of ``fn`` (joint output rows to
        scalars) from each party's (d+1)-row block or single row."""
        m = max(out.shape[0] for out in outs)
        vals = fn(_coordinator_probs(
            self.system, [np.broadcast_to(out, (m, out.shape[1]))
                          for out in outs]))
        return (vals[1:] - vals[0]) / self.cfg.fdm_step


def _fd_local_outputs(model: LocalModel, x, delta: float) -> np.ndarray:
    """Local outputs of ``x`` and of ``x + delta*e_i`` for each coordinate i,
    as d+1 rows.

    With a linear first layer, ``(x + delta*e_i) W^T = x W^T + delta*W[:, i]``,
    so the perturbed pre-activations are rank-one updates of the base row's
    and only the remaining layers run on d+1 rows, each ReLU in place on
    the block built here. Any other first layer runs the materialised
    batch.
    """
    x = as_vector(x, model.input_dim)
    first = model.layers[0]
    if first.kind != "linear":
        return forward(model, _fd_batch(x, delta))[0]
    h0 = x @ first.weights.T + first.bias
    return _forward_fresh(model.layers[1:],
                          np.vstack([h0, h0 + delta * first.weights.T]))


def _objective_grads(system, benign_rows, l_target, cfg):
    """The round's objective for one row (an int label) or for a block of
    rows (an array of labels)."""
    kind = _Whitebox if cfg.mode == "whitebox" else _Blackbox
    return kind(system, benign_rows, l_target, cfg)


def _inner_minimize(grads, base: np.ndarray, v: np.ndarray,
                    cfg: SynthesisConfig) -> np.ndarray:
    """Descend the round objective in the mutation delta, projected onto the
    bound box when the strategy is bounded. ``base`` and ``v`` are one row,
    or an (R, d) block of rows descending side by side."""
    delta = np.zeros_like(base)
    lr = cfg.step_size
    for _ in range(cfg.inner_steps):
        x = base + v + delta
        grad = np.zeros_like(delta)
        if cfg.alpha > 0:
            grad += cfg.alpha * grads.saliency_grad(x)
        if cfg.beta > 0:
            grad += cfg.beta * grads.loss_grad(x)
        if cfg.strategy == "bounded" and cfg.gamma > 0:
            # Each row's norm as np.linalg.norm takes it, sqrt(dot(d, d));
            # np.linalg.norm(delta, axis=-1) rounds differently.
            norm = np.sqrt(delta[..., None, :] @ delta[..., :, None])[..., 0]
            grad += np.divide(cfg.gamma * delta, norm,
                              out=np.zeros_like(delta), where=norm > 0)
        delta = delta - lr * grad
        if cfg.strategy == "bounded":
            delta = np.clip(v + delta, -cfg.bound, cfg.bound) - v
    return delta


def adi_generate(x_adv_star, system: VFLSystem, l_target: int,
                 cfg: SynthesisConfig, tiny_benign,
                 stop_benign=None) -> AdiCandidate:
    """Synthesize a dominating input from one adversarial base row.

    Sweeps the benign sample, each round descending the weighted objective
    for one benign row, blending consecutive mutations with momentum, and
    (bounded strategy) clamping the accumulated mutation to the per-feature
    bound. After each sweep the attack accuracy is re-measured and the loop
    stops once it exceeds the configured threshold or the round budget runs
    out. ``stop_benign`` supplies the rows the accuracy is measured on (the
    practical-assessment set); it defaults to the tiny sample itself. It may
    be a JointEvaluator, which must vary the adversary of ``system``.
    """
    base = as_vector(x_adv_star, len(system.participants[0].columns))
    return _synthesize_rows(base[None, :], system, [l_target], cfg,
                            tiny_benign, stop_benign)[0]


def _synthesize_rows(bases, system: VFLSystem, targets,
                     cfg: SynthesisConfig, tiny_benign,
                     stop_benign=None) -> list[AdiCandidate]:
    """``adi_generate`` for each row of ``bases`` towards its own target
    label, with all rows in lockstep.

    Every row starts at round 1 and descends against the same benign row at
    each round, so the rows still short of the threshold run as one block.
    After each sweep, the rows that now exceed it leave the block, at the
    round where their own run would stop. Each candidate equals that row's
    own ``adi_generate`` candidate byte for byte.
    """
    bases = as_matrix(bases, cols=len(system.participants[0].columns))
    benign_views = _as_benign_views(system, tiny_benign)
    if benign_views[0].shape[0] < 1:
        raise ValueError("benign sample must be nonempty")
    for l_target in targets:
        if not 0 <= l_target < system.n_classes:
            raise ValueError(f"target label {l_target} out of range")
    if cfg.strategy == "bounded" and cfg.bound.shape[0] != bases.shape[1]:
        raise ValueError("bound length must match the adversary's columns")
    stop_eval = _evaluator(system, benign_views if stop_benign is None
                           else stop_benign)

    targets = np.asarray(targets)
    v = np.zeros_like(bases)
    delta_prev = np.zeros_like(bases)
    rounds = np.zeros(bases.shape[0], dtype=np.int64)
    r = np.array([stop_eval.attack_accuracy(x, l_target)
                  for x, l_target in zip(bases, targets)])
    n_sample = benign_views[0].shape[0]
    t = 1
    active = np.flatnonzero(r <= cfg.threshold)
    while active.size and t <= cfg.max_rounds:
        base, v_act, prev = bases[active], v[active], delta_prev[active]
        for j in range(n_sample):
            if t > cfg.max_rounds:
                break
            rows = [view[j] for view in benign_views]
            grads = _objective_grads(system, rows, targets[active], cfg)
            delta = _inner_minimize(grads, base, v_act, cfg)
            delta = cfg.momentum * prev + delta
            if cfg.strategy == "bounded":
                delta = np.clip(v_act + delta, -cfg.bound, cfg.bound) - v_act
            v_act = v_act + delta
            prev = delta
            t += 1
        v[active], delta_prev[active], rounds[active] = v_act, prev, t - 1
        r[active] = [stop_eval.attack_accuracy(x + dv, l_target) for
                     x, dv, l_target in zip(base, v_act, targets[active])]
        active = active[r[active] <= cfg.threshold]
    if cfg.strategy == "bounded" and not np.all(
            np.abs(v) <= cfg.bound + 1e-12):
        raise RuntimeError("mutation bound violated")
    return [AdiCandidate(x, dv, int(l_target), float(acc), int(n_rounds),
                         cfg.strategy, cfg.mode)
            for x, dv, l_target, acc, n_rounds in
            zip(bases, v, targets, r, rounds)]
