"""Synthetic stand-in datasets with the shape contracts of the evaluation
tasks: a 30,000 x 23 binary credit-risk table, a 946 x 18 four-class vehicle
table, a 28x28 ten-class digit image set, and a two-block multimodal-shaped
table (634 + 1000 features, 10 labels).

These generators exist so every pipeline (ingestion, training, synthesis,
fuzzing, sweeps) runs end to end from files on disk without redistributing
the original datasets. Shapes, label arities, and file formats match the
originals; the distributions are tuned so the trained protocols land in the
documented quality and dominance bands.
"""
from __future__ import annotations

import csv

import numpy as np

from .data import Dataset

CREDIT_N = 30_000
CREDIT_D = 23
CREDIT_D_A = 13          # leading columns held by the adversary-side party

VEHICLE_N = 946
VEHICLE_D = 18
VEHICLE_CLASSES = 4

DIGITS_SIDE = 28
DIGITS_N_TRAIN = 60_000
DIGITS_N_TEST = 10_000

MULTIMODAL_D_IMAGE = 634
MULTIMODAL_D_TEXT = 1000
MULTIMODAL_CLASSES = 10

# Credit-like score structure: the first-party block carries less score
# variance than the second-party block, and the intercept sets a ~23%
# positive rate. Tuned so a trained joint logistic model shows auc-roc near
# 0.75-0.80 with a moderate share of naturally dominating first-party rows.
_CREDIT_VAR_A = 0.65 ** 2
_CREDIT_VAR_B = 1.20 ** 2
_CREDIT_INTERCEPT = -1.5


def _coef_profile(n: int, total_var: float, rng: np.random.Generator) -> np.ndarray:
    """Signed coefficient vector with varied magnitudes and fixed L2 mass."""
    mags = rng.uniform(0.4, 1.0, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    coefs = mags * signs
    return coefs * np.sqrt(total_var / np.sum(coefs ** 2))


def make_credit_like(n: int = CREDIT_N, seed: int = 7) -> Dataset:
    rng = np.random.default_rng(seed)
    coef_rng = np.random.default_rng(seed + 1)
    c_a = _coef_profile(CREDIT_D_A, _CREDIT_VAR_A, coef_rng)
    c_b = _coef_profile(CREDIT_D - CREDIT_D_A, _CREDIT_VAR_B, coef_rng)
    coefs = np.concatenate([c_a, c_b])
    x = rng.standard_normal((n, CREDIT_D))
    score = x @ coefs + _CREDIT_INTERCEPT
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-score))).astype(np.int64)
    names = [f"x{i:02d}" for i in range(CREDIT_D)]
    return Dataset(x, y, names)


# Vehicle-like class separation, tuned for ~0.84 linear softmax accuracy.
_VEHICLE_SEP = 0.55


def make_vehicle_like(n: int = VEHICLE_N, seed: int = 11) -> Dataset:
    rng = np.random.default_rng(seed)
    mean_rng = np.random.default_rng(seed + 1)
    means = mean_rng.standard_normal((VEHICLE_CLASSES, VEHICLE_D)) * _VEHICLE_SEP
    labels = rng.integers(0, VEHICLE_CLASSES, size=n)
    x = means[labels] + rng.standard_normal((n, VEHICLE_D))
    names = [f"x{i:02d}" for i in range(VEHICLE_D)]
    return Dataset(x, labels.astype(np.int64), names)


def write_csv(ds: Dataset, path, label_name: str = "label"):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + [label_name])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


# Digit glyphs as polylines in a unit box (x right, y down). Curves are
# short polyline approximations; rendering jitters the control points, so
# strokes vary sample to sample.
_GLYPHS: dict[int, list[list[tuple[float, float]]]] = {
    0: [[(0.5, 0.05), (0.85, 0.2), (0.9, 0.5), (0.85, 0.8), (0.5, 0.95),
         (0.15, 0.8), (0.1, 0.5), (0.15, 0.2), (0.5, 0.05)]],
    1: [[(0.3, 0.25), (0.55, 0.05), (0.55, 0.95)],
        [(0.3, 0.95), (0.8, 0.95)]],
    2: [[(0.15, 0.25), (0.3, 0.07), (0.6, 0.05), (0.85, 0.2), (0.85, 0.4),
         (0.5, 0.6), (0.15, 0.95)],
        [(0.15, 0.95), (0.9, 0.95)]],
    3: [[(0.15, 0.1), (0.8, 0.1), (0.45, 0.45)],
        [(0.45, 0.45), (0.8, 0.6), (0.75, 0.87), (0.4, 0.97), (0.12, 0.85)]],
    4: [[(0.65, 0.95), (0.65, 0.05), (0.12, 0.68), (0.9, 0.68)]],
    5: [[(0.8, 0.07), (0.2, 0.07), (0.17, 0.45), (0.55, 0.4), (0.85, 0.55),
         (0.85, 0.78), (0.55, 0.95), (0.15, 0.87)]],
    6: [[(0.7, 0.05), (0.35, 0.3), (0.18, 0.6), (0.25, 0.87), (0.6, 0.95),
         (0.82, 0.78), (0.75, 0.55), (0.4, 0.52), (0.2, 0.65)]],
    7: [[(0.12, 0.07), (0.88, 0.07), (0.45, 0.95)],
        [(0.3, 0.5), (0.72, 0.5)]],
    8: [[(0.5, 0.05), (0.78, 0.17), (0.72, 0.4), (0.5, 0.48), (0.28, 0.4),
         (0.22, 0.17), (0.5, 0.05)],
        [(0.5, 0.48), (0.8, 0.62), (0.78, 0.85), (0.5, 0.95), (0.22, 0.85),
         (0.2, 0.62), (0.5, 0.48)]],
    9: [[(0.78, 0.45), (0.45, 0.5), (0.2, 0.35), (0.25, 0.1), (0.6, 0.04),
         (0.8, 0.2), (0.78, 0.45), (0.66, 0.95)]],
}

# Glyphs occupy image columns ~6..22 before jitter, so edge columns carry
# little ink: unbalanced vertical partitions starve the narrow side.
_GLYPH_X0, _GLYPH_X1 = 6.0, 22.0
_GLYPH_Y0, _GLYPH_Y1 = 4.0, 24.0


def _segment_intensity(points: np.ndarray, p1: np.ndarray,
                       p2: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Per-pixel intensity from distance to one segment, batched over
    samples: points (m, 2), p1/p2 (n, 2), width (n, 1). Runs on (n, m) x
    and y planes: ``a + b`` gives the bytes of a sum over an (n, m, 2) pair.

    The planes live in two (n, m) buffers that every step overwrites with
    ``out=``, running the ufuncs, in their operand order, of
    ``t = clip(((x - x1)*sx + (y - y1)*sy) / length2, 0, 1)`` and
    ``exp(-((x - (x1 + t*sx))**2 + (y - (y1 + t*sy))**2) / width**2)``, so
    the bytes are those of the allocating expressions."""
    x, y = points[:, 0], points[:, 1]                # (m,)
    x1, y1 = p1[:, :1], p1[:, 1:]                    # (n, 1)
    sx, sy = p2[:, :1] - x1, p2[:, 1:] - y1
    length2 = np.maximum(sx ** 2 + sy ** 2, 1e-9)
    a = np.subtract(x, x1)
    a *= sx
    b = np.subtract(y, y1)
    b *= sy
    a += b
    a /= length2
    t = np.clip(a, 0.0, 1.0, out=a)
    np.multiply(t, sx, out=b)
    np.add(x1, b, out=b)
    np.subtract(x, b, out=b)
    np.square(b, out=b)                              # x term of d2
    np.multiply(t, sy, out=a)                        # t is spent
    np.add(y1, a, out=a)
    np.subtract(y, a, out=a)
    np.square(a, out=a)
    np.add(b, a, out=a)                              # d2
    np.negative(a, out=a)
    a /= width ** 2
    return np.exp(a, out=a)


def _render_digit_batch(digit: int, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    side = DIGITS_SIDE
    ys, xs = np.mgrid[0:side, 0:side]
    points = np.stack([xs.ravel() + 0.5, ys.ravel() + 0.5], axis=1)

    strokes = _GLYPHS[digit]
    sx = _GLYPH_X1 - _GLYPH_X0
    sy = _GLYPH_Y1 - _GLYPH_Y0
    scale = rng.uniform(0.78, 1.1, size=(count, 1, 1))
    shift_x = rng.uniform(-2.2, 2.2, size=(count, 1, 1))
    shift_y = rng.uniform(-1.8, 1.8, size=(count, 1, 1))
    shear = rng.uniform(-0.2, 0.2, size=(count, 1, 1))
    width = rng.uniform(0.8, 1.4, size=(count, 1))
    peak = rng.uniform(0.75, 1.0, size=(count, 1))

    img = np.zeros((count, side * side))
    for stroke in strokes:
        pts = np.asarray(stroke)                     # (k, 2) unit coords
        jitter = rng.normal(0.0, 0.4, size=(count, pts.shape[0], 2))
        px = _GLYPH_X0 + pts[None, :, 0] * sx * scale[:, :, 0] + jitter[:, :, 0]
        py = _GLYPH_Y0 + pts[None, :, 1] * sy * scale[:, :, 0] + jitter[:, :, 1]
        px = px + shear[:, :, 0] * (py - py.mean(axis=1, keepdims=True))
        px = px + shift_x[:, :, 0]
        py = py + shift_y[:, :, 0]
        for a, b in zip(range(pts.shape[0] - 1), range(1, pts.shape[0])):
            p1 = np.stack([px[:, a], py[:, a]], axis=1)
            p2 = np.stack([px[:, b], py[:, b]], axis=1)
            np.maximum(img, _segment_intensity(points, p1, p2, width),
                       out=img)
    img *= peak
    img += rng.normal(0.0, 0.07, size=img.shape)
    return np.clip(img, 0.0, 1.0, out=img)


def make_digits_like(n: int, seed: int = 13,
                     chunk: int = 1000) -> Dataset:
    """Ten-class 28x28 digit images, pixel values in [0, 1]."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.int64)
    features = np.empty((n, DIGITS_SIDE * DIGITS_SIDE))
    for digit in range(10):
        idx = np.flatnonzero(labels == digit)
        for start in range(0, idx.size, chunk):
            block = idx[start:start + chunk]
            features[block] = _render_digit_batch(digit, block.size, rng)
    names = [f"px{r:02d}_{c:02d}" for r in range(DIGITS_SIDE)
             for c in range(DIGITS_SIDE)]
    return Dataset(features, labels, names)


def make_multimodal_like(n: int, seed: int = 17) -> Dataset:
    """Two-block (634 image-like + 1000 text-like features) ten-class table."""
    rng = np.random.default_rng(seed)
    mean_rng = np.random.default_rng(seed + 1)
    d = MULTIMODAL_D_IMAGE + MULTIMODAL_D_TEXT
    means = mean_rng.standard_normal((MULTIMODAL_CLASSES, d)) * 0.35
    labels = rng.integers(0, MULTIMODAL_CLASSES, size=n).astype(np.int64)
    x = means[labels] + rng.standard_normal((n, d))
    names = ([f"img{i:03d}" for i in range(MULTIMODAL_D_IMAGE)]
             + [f"txt{i:03d}" for i in range(MULTIMODAL_D_TEXT)])
    return Dataset(x, labels, names)
