"""Class-major reductions keep numpy's bytes.

The blackbox query chokepoint, ``synthesis._coordinator_forward``, runs a
SplitNN softmax head on a batch of 128 rows or more as
``model._softmax_classes``: the logits are copied into a (c, n) block and
every reduction runs over its contiguous class rows.
``model._class_sums`` adds those rows in the order numpy sums a contiguous
last axis (eight interleaved partial sums, split in halves past 128
terms), and ``synthesis._spread_rows`` takes the variance of probabilities
that are not C-ordered from those sums, so each result is compared byte
for byte with the row-major numpy expression it stands for. Those bytes depend on the kernels numpy
dispatches to, so the same cases must hold with and without AVX-512.
"""
import numpy as np
import pytest

from vflkit import protocol, synthesis
from vflkit.model import (LayerSpec, LocalModel, init_model, _class_sums,
                          _softmax, _softmax_classes)
from vflkit.protocol import Coordinator, Participant, VFLSystem

# Both sides of each switch in _class_sums's order: 7, 8 and 9 terms, 127,
# 128 and 129, and the splits past 128 (136, 257).
CLASSES = range(1, 301)
ROWS = (1, 2, 393)
MAGNITUDES = (1e-3, 1.0, 700.0)


def _logits(n, c, magnitude, layout, seed=0):
    """Signed entries of the given magnitude, C-ordered, or a strided view
    of every other column of a wider array."""
    rng = np.random.default_rng([seed, n, c])
    if layout == "strided":
        return rng.standard_normal((n, 2 * c))[:, ::2] * magnitude
    return rng.standard_normal((n, c)) * magnitude


def _same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["C", "strided"])
@pytest.mark.parametrize("n", ROWS)
def test_class_sums_bytes(n, layout):
    for c in CLASSES:
        for magnitude in MAGNITUDES:
            x = _logits(n, c, magnitude, layout)
            _same_bytes(_class_sums(x.T), x.sum(axis=-1))


@pytest.mark.parametrize("c", [1, 7, 8, 9, 136, 257])
def test_class_sums_of_negative_zeros(c):
    # Numpy's sum starts at +0.0, so a sum of -0.0 terms is +0.0.
    x = np.full((3, c), -0.0)
    _same_bytes(_class_sums(x.T), x.sum(axis=-1))


@pytest.mark.parametrize("layout", ["C", "strided"])
@pytest.mark.parametrize("n", ROWS)
def test_softmax_classes_bytes(n, layout):
    for c in CLASSES:
        for magnitude in MAGNITUDES:
            x = _logits(n, c, magnitude, layout)
            block = _softmax_classes(x)
            assert block.shape == (c, n) and block.flags.c_contiguous
            _same_bytes(block.T, _softmax(x))


@pytest.mark.parametrize("read_only", [False, True])
@pytest.mark.parametrize("shape", [(1, 10), (393, 1), (1, 1)])
def test_softmax_classes_keeps_its_input(shape, read_only):
    # For n = 1 or c = 1 the transpose of x is already contiguous, so only
    # an explicit copy keeps the kernel off the caller's array.
    x = _logits(*shape, 3.0, "C")
    before = x.tobytes()
    x.setflags(write=not read_only)
    block = _softmax_classes(x)
    assert x.tobytes() == before
    assert not np.shares_memory(block, x)
    _same_bytes(block.T, _softmax(x))


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("c", [2, 7, 8, 10, 129])
def test_spread_rows_bytes(n, c):
    # np.var of an F-ordered array sums each row one term after another,
    # so its bytes are those of np.var on the C-ordered probabilities that
    # the row-major softmax gives.
    probs = _softmax(_logits(n, c, 5.0, "C"))
    want = np.var(probs, axis=1)
    _same_bytes(synthesis._spread_rows(probs), want)
    _same_bytes(synthesis._spread_rows(np.asfortranarray(probs)), want)
    _same_bytes(synthesis._spread_rows(_softmax_classes(
        _logits(n, c, 5.0, "C")).T), want)
    strided = _logits(n, c, 5.0, "strided")
    _same_bytes(synthesis._spread_rows(strided),
                np.var(np.ascontiguousarray(strided), axis=1))


def _splitnn(seed=3):
    """Two parties feeding a ReLU top model with a 10-class softmax head."""
    widths = [6, 5]
    parts, start = [], 0
    for i, w in enumerate(widths):
        parts.append(Participant(f"P{i}", list(range(start, start + w)),
                                 init_model([w, 8, 4], seed=seed + i)))
        start += w
    top = init_model([8, 12, 10], head="softmax", seed=seed + 5)
    return VFLSystem(parts, Coordinator("splitnn", top_model=top), 10)


@pytest.mark.parametrize("m", [12, 127, 128, 393])
def test_chokepoint_goes_class_major_from_128_rows(m):
    # tests/test_untraced_forward.py pins the chokepoint's bytes; this pins
    # which kernel answers: the row-major softmax below _CLASS_MAJOR_ROWS,
    # the transpose of a class-major block from there on.
    system = _splitnn()
    rng = np.random.default_rng(m)
    locals_ = [rng.standard_normal((m, 4)),
               np.broadcast_to(rng.standard_normal((1, 4)), (m, 4))]
    probs = synthesis._coordinator_forward(system, locals_)[0]
    assert synthesis._CLASS_MAJOR_ROWS == 128
    assert probs.T.flags.c_contiguous == (m >= 128)
    assert probs.flags.c_contiguous == (m < 128)


@pytest.mark.parametrize("d", [13, 30, 392])
def test_chokepoint_bytes_for_f_ordered_block(monkeypatch, d):
    # A one-layer local model's forward-difference block is F-ordered, and
    # so is its concatenation with the fixed party's row; the top model's
    # first product must still see C-ordered rows. On few rows the BLAS
    # product's bytes depend on that layout, so the class-major kernel is
    # made to answer every batch here.
    monkeypatch.setattr(synthesis, "_CLASS_MAJOR_ROWS", 1)
    parts = [Participant("P0", list(range(d)), init_model([d, 32], seed=1)),
             Participant("P1", [d], init_model([1, 32], seed=2))]
    top = init_model([64, 32, 10], head="softmax", seed=3)
    system = VFLSystem(parts, Coordinator("splitnn", top_model=top), 10)
    rng = np.random.default_rng(d)
    block = synthesis._fd_local_outputs(parts[0].model,
                                        rng.standard_normal(d), 1e-3)
    assert block.shape == (d + 1, 32) and not block.flags.c_contiguous
    fixed = parts[1].model.layers[0]
    row = rng.standard_normal((1, 1)) @ fixed.weights.T + fixed.bias
    locals_ = [block, np.broadcast_to(row, (d + 1, 32))]
    probs = synthesis._coordinator_forward(system, locals_)[0]
    assert probs.T.flags.c_contiguous
    _same_bytes(probs, protocol._coordinator_forward(system, locals_)[0])


def test_chokepoint_head_without_hidden_layers():
    # A top model that is its softmax head alone softmaxes the joined
    # local outputs, which stay as they were.
    top = LocalModel([LayerSpec("softmax", 8, 8)])
    parts = [Participant(f"P{i}", [i], init_model([1, 4], seed=i))
             for i in range(2)]
    system = VFLSystem(parts, Coordinator("splitnn", top_model=top), 8)
    locals_ = [np.random.default_rng(i).standard_normal((128, 4))
               for i in range(2)]
    before = [out.tobytes() for out in locals_]
    probs = synthesis._coordinator_forward(system, locals_)[0]
    assert probs.T.flags.c_contiguous
    _same_bytes(probs, protocol._coordinator_forward(system, locals_)[0])
    assert [out.tobytes() for out in locals_] == before
