"""Dataset ingestion, vertical feature partitioning, and tiny-sample drawing."""
from __future__ import annotations

import csv
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .model import as_matrix

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

STD_FLOOR = 1e-12

# Rows per block when a data set's rows are handed over in blocks.
BLOCK_ROWS = 1000


@dataclass
class Dataset:
    features: np.ndarray              # (n, d) float64
    labels: np.ndarray                # (n,) int class indices in [0, C)
    feature_names: list[str]
    norm_stats: tuple[np.ndarray, np.ndarray] | None = None  # (mean, std)

    def __post_init__(self):
        self.features = as_matrix(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels length must match row count")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("class indices must be non-negative")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def row_blocks(self):
        """(row slice, rows) pairs of ``BLOCK_ROWS`` rows, without copies."""
        for start in range(0, self.n, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            yield rows, self.features[rows]


@dataclass
class RowBlocks:
    """A data set whose feature rows come in blocks, so that its (n, d)
    feature matrix need never exist: the labels and feature names are known
    up front, and ``blocks`` yields (row indices, rows) pairs that cover
    each row once. The blocks can be read once; streamed data is not
    normalized."""

    labels: np.ndarray
    feature_names: list[str]
    blocks: Iterator[tuple[slice | np.ndarray, np.ndarray]]
    norm_stats = None

    @property
    def d(self) -> int:
        return len(self.feature_names)

    def row_blocks(self):
        return self.blocks

    def dataset(self) -> Dataset:
        """The rows gathered into one ``Dataset``."""
        features = np.empty((self.labels.shape[0], self.d))
        for rows, block in _covering(self):
            features[rows] = block
        return Dataset(features, self.labels, self.feature_names)


def _covering(source):
    """The (row indices, rows) blocks of ``source``; once they are spent,
    a ValueError unless they held as many rows as there are labels."""
    filled = 0
    for rows, block in source.row_blocks():
        filled += block.shape[0]
        yield rows, block
    if filled != source.labels.shape[0]:
        raise ValueError(f"row blocks hold {filled} rows, "
                         f"expected {source.labels.shape[0]}")


@dataclass
class PartitionSpec:
    """Per-participant ordered column-index lists; disjoint and covering."""

    columns: list[list[int]]

    def __post_init__(self):
        if not self.columns or any(not c for c in self.columns):
            raise ValueError("every participant needs at least one column")
        flat = [c for cols in self.columns for c in cols]
        if len(set(flat)) != len(flat):
            raise ValueError("participant column lists overlap")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("column lists must cover exactly [0, d)")

    @property
    def d(self) -> int:
        return sum(len(c) for c in self.columns)

    @property
    def n_participants(self) -> int:
        return len(self.columns)


@dataclass
class TinyDataset:
    """A small sample of one participant's test rows, as seen by the adversary."""

    rows: np.ndarray
    source_indices: list[int]

    def __post_init__(self):
        self.rows = as_matrix(self.rows)
        if self.rows.shape[0] < 1:
            raise ValueError("tiny dataset must hold at least one row")
        if len(self.source_indices) != self.rows.shape[0]:
            raise ValueError("source indices must match row count")


def load_csv(path, label_column: str) -> Dataset:
    """Read a numeric CSV with a header row; one column holds class labels."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        rows = []
        raw_labels = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: ragged row")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
            raw_labels.append(values.pop(label_idx))
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    raw = np.asarray(raw_labels)
    if not np.allclose(raw, np.round(raw)):
        raise ValueError(f"{path}: label column must hold integers")
    # Remap labels onto dense [0, C) in sorted order of observed values.
    uniq, labels = np.unique(raw.astype(np.int64), return_inverse=True)
    return Dataset(np.asarray(rows), labels, feature_names)


def _read_idx_header(fh, path, expected_magic: int, n_dims: int):
    head = fh.read(4 * (1 + n_dims))
    if len(head) != 4 * (1 + n_dims):
        raise ValueError(f"{path}: truncated header")
    fields = struct.unpack(f">{1 + n_dims}I", head)
    if fields[0] != expected_magic:
        raise ValueError(
            f"{path}: bad magic 0x{fields[0]:08x}, expected 0x{expected_magic:08x}")
    return fields[1:]


def idx_rows(images_path, labels_path) -> RowBlocks:
    """Big-endian IDX image and label files as ``RowBlocks``: the headers,
    the file sizes and the labels are read and checked up front, then each
    block of ``BLOCK_ROWS`` images is read and scaled to [0, 1] in turn."""
    with open(images_path, "rb") as fh:
        n, rows, cols = _read_idx_header(fh, images_path, IDX_IMAGES_MAGIC, 3)
        offset = fh.tell()
        if os.fstat(fh.fileno()).st_size - offset < n * rows * cols:
            raise ValueError(f"{images_path}: truncated pixel data")
    with open(labels_path, "rb") as fh:
        (n_labels,) = _read_idx_header(fh, labels_path, IDX_LABELS_MAGIC, 1)
        raw_labels = fh.read(n_labels)
        if len(raw_labels) != n_labels:
            raise ValueError(f"{labels_path}: truncated label data")
    if n_labels != n:
        raise ValueError(f"image count {n} != label count {n_labels}")
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    names = [f"px{r:02d}_{c:02d}" for r in range(rows) for c in range(cols)]
    return RowBlocks(labels, names,
                     _idx_blocks(images_path, offset, n, rows * cols))


def _idx_blocks(path, offset: int, n: int, d: int):
    with open(path, "rb") as fh:
        fh.seek(offset)
        for start in range(0, n, BLOCK_ROWS):
            count = min(BLOCK_ROWS, n - start)
            raw = fh.read(count * d)
            if len(raw) != count * d:
                raise ValueError(f"{path}: truncated pixel data")
            pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
            pixels /= 255.0
            yield slice(start, start + count), pixels.reshape(count, d)


def load_idx(images_path, labels_path) -> Dataset:
    """Read big-endian IDX image/label files; pixels scaled to [0, 1]."""
    return idx_rows(images_path, labels_path).dataset()


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray,
              rows: int = 28, cols: int = 28):
    """Write [0,1]-scaled image rows and labels in the IDX byte layout."""
    images = as_matrix(images, cols=rows * cols)
    labels = np.asarray(labels, dtype=np.uint8).ravel()
    if labels.shape[0] != images.shape[0]:
        raise ValueError("image/label count mismatch")
    pixels = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, images.shape[0], rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def _check_covers(spec: PartitionSpec, d: int):
    if spec.d != d:
        raise ValueError(f"partition covers {spec.d} columns, dataset has {d}")


def partition_vertical(ds_or_features, spec: PartitionSpec) -> list[np.ndarray]:
    """Split feature columns into per-participant views (order preserved)."""
    features = ds_or_features.features if isinstance(ds_or_features, Dataset) \
        else as_matrix(ds_or_features)
    _check_covers(spec, features.shape[1])
    return [features[:, cols] for cols in spec.columns]


def split_views(source, spec: PartitionSpec, test_mask: np.ndarray):
    """Each party's train and test views, then the train and test labels.

    ``source`` is a ``Dataset`` or ``RowBlocks``. ``test_mask`` marks the
    test rows; ``_test_mask`` gives the stratified split that
    ``train_test_split`` makes. The views and labels equal
    ``partition_vertical`` of that split. Each view is allocated once,
    C-ordered, and filled block by block from ``source.row_blocks()``, with
    no train or test ``Dataset`` in between, and none of them refers to
    ``source``: a streamed source's (n, d) matrix never exists.
    """
    _check_covers(spec, source.d)
    train_rows, test_rows = np.flatnonzero(~test_mask), np.flatnonzero(test_mask)
    # Each row's place in its own train or test view.
    place = np.empty(test_mask.shape[0], dtype=np.intp)
    place[train_rows] = np.arange(train_rows.size)
    place[test_rows] = np.arange(test_rows.size)
    train_views, test_views = (
        [np.empty((rows.size, len(cols))) for cols in spec.columns]
        for rows in (train_rows, test_rows))
    for rows, block in _covering(source):
        in_test, at = test_mask[rows], place[rows]
        for views, picked in ((train_views, ~in_test), (test_views, in_test)):
            for view, cols in zip(views, spec.columns):
                view[at[picked]] = block[np.ix_(picked, cols)]
    labels = source.labels
    return train_views, test_views, labels[train_rows], labels[test_rows]


def concat_views(views: list[np.ndarray], spec: PartitionSpec) -> np.ndarray:
    """Inverse of partition_vertical: reassemble original column order."""
    n = views[0].shape[0]
    out = np.empty((n, spec.d))
    for view, cols in zip(views, spec.columns):
        out[:, cols] = view
    return out


# Pixel-column allocations that balance ink across participants for
# 28x28 digit images (counts of image columns, left to right).
_IMAGE_COLUMN_SPLITS = {2: (14, 14), 3: (11, 6, 11), 5: (8, 4, 4, 4, 8)}


def image_column_partition(col_counts, side: int = 28) -> PartitionSpec:
    """Partition row-major side*side pixel features by image-column blocks."""
    if sum(col_counts) != side:
        raise ValueError(f"column counts must sum to {side}")
    specs = []
    start = 0
    for count in col_counts:
        cols = [r * side + c for r in range(side) for c in range(start, start + count)]
        specs.append(cols)
        start += count
    return PartitionSpec(specs)


def mnist_column_split(participants: int, side: int = 28) -> PartitionSpec:
    """Balanced vertical split of digit images for 2, 3, or 5 participants."""
    if participants not in _IMAGE_COLUMN_SPLITS:
        raise ValueError(f"unsupported participant count {participants}")
    return image_column_partition(_IMAGE_COLUMN_SPLITS[participants], side)


def ratio_split(d: int, ratio: float) -> PartitionSpec:
    """Two-party split where the first party holds ratio/(1+ratio) of d columns."""
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    n_a = int(round(d * ratio / (1.0 + ratio)))
    if n_a < 1 or n_a >= d:
        raise ValueError(f"ratio {ratio} leaves an empty partition for d={d}")
    return PartitionSpec([list(range(n_a)), list(range(n_a, d))])


def sample_tiny(view: np.ndarray, h: int, seed: int) -> TinyDataset:
    """Draw h distinct rows from a test view, reproducibly under the seed."""
    view = as_matrix(view)
    if h < 1:
        raise ValueError("h must be at least 1")
    if h > view.shape[0]:
        raise ValueError(f"h={h} exceeds available rows {view.shape[0]}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(view.shape[0], size=h, replace=False)
    return TinyDataset(view[idx], [int(i) for i in idx])


def normalize(ds: Dataset) -> Dataset:
    """Z-score features; constant columns map to zero with a floored std.

    The result holds one new feature array, divided in place, and ``ds`` is
    left as it was."""
    if ds.n < 2:
        raise ValueError("need at least two rows to normalize")
    mean = ds.features.mean(axis=0)
    std = ds.features.std(axis=0)
    std = np.where(std < STD_FLOOR, STD_FLOOR, std)
    features = ds.features - mean
    features /= std
    return replace(ds, features=features, norm_stats=(mean, std))


def _test_mask(labels: np.ndarray, test_fraction: float,
               seed: int) -> np.ndarray:
    """The stratified split's test rows, as a boolean mask over ``labels``.

    Label by label in sorted order, one generator seeded with ``seed``
    permutes the label's rows, and the first max(1, round(n * test_fraction))
    of them are test rows. ``labels`` are integers >= 0, as every loader
    gives them.
    """
    rng = np.random.default_rng(seed)
    mask = np.zeros(labels.shape[0], dtype=bool)
    # The labels present, in sorted order; np.unique would import numpy.ma.
    for label in np.flatnonzero(np.bincount(labels)):
        idx = rng.permutation(np.flatnonzero(labels == label))
        mask[idx[:max(1, int(round(len(idx) * test_fraction)))]] = True
    return mask


def train_test_split(ds: Dataset, test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified-by-label split with a fixed seed; the test rows are
    ``_test_mask``'s, as in ``split_views``."""
    mask = _test_mask(ds.labels, test_fraction, seed)
    train = Dataset(ds.features[~mask], ds.labels[~mask], ds.feature_names,
                    ds.norm_stats)
    test = Dataset(ds.features[mask], ds.labels[mask], ds.feature_names,
                   ds.norm_stats)
    return train, test
