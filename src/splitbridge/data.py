"""Datasets and task sequences: synthetic Gaussian-cluster benchmarks, IDX and
CSV loaders, and the seeded class-to-task split."""

from __future__ import annotations

import csv
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_finite(v) -> bool:  # a float or an int that a finite float64 holds; NaN fails the bound
    return (isinstance(v, (float, np.floating)) or _is_int(v)) and abs(v) <= sys.float_info.max


INT, NUM, POS, PATH, LIST, OBJECT = (  # the kinds check knows, each named by its message phrase
    "an integer", "a finite number", "a finite number > 0", "a path string",
    "a non-empty list of distinct values", "a JSON object")
_KINDS = {INT: _is_int, NUM: _is_finite, POS: lambda v: _is_finite(v) and v > 0,
          PATH: lambda v: isinstance(v, str), OBJECT: lambda v: isinstance(v, dict),
          LIST: lambda v: isinstance(v, list) and v != [] and all(
              x not in v[:i] for i, x in enumerate(v))}


def must_be(where: str, value, kind: str) -> ValueError:
    """The one shape of a bad input's error: `<where> must be <kind>, got <value!r>`."""
    return ValueError(f"{where} must be {kind}, got {value!r}")


def check(where: str, value, kind: str, low=None) -> None:
    """Raise must_be's ValueError unless value is of kind and, given low, >= low."""
    if not (_KINDS[kind](value) and (low is None or value >= low)):
        raise must_be(where, value, kind + f" >= {low}" * (low is not None))


@dataclass
class LabeledDataset:
    x: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64
    num_classes: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("samples and labels have different lengths")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")

    def __len__(self) -> int:
        return self.x.shape[0]

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(self.x[idx], self.y[idx], self.num_classes)


@dataclass(frozen=True)
class TaskRange:
    """Half-open class-index window [start, stop): the classes one task owns,
    or a step's old or new logits. An empty window raises ValueError."""

    start: int
    stop: int

    def __post_init__(self):
        if not (0 <= self.start < self.stop):
            raise ValueError(f"invalid task range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def slice(self) -> slice:
        return slice(self.start, self.stop)

    def mask(self, labels: np.ndarray) -> np.ndarray:
        """Boolean mask of the labels inside the window."""
        return (labels >= self.start) & (labels < self.stop)


@dataclass
class Task:
    """One incremental task: the window of global (remapped) class indices
    it owns, and its train/test data."""

    classes: TaskRange
    train: LabeledDataset
    test: LabeledDataset


@dataclass
class TaskSequence:
    tasks: list[Task]
    remap: dict[int, int] = field(default_factory=dict)  # original -> global label

    @property
    def num_classes(self) -> int:
        return sum(t.classes.size for t in self.tasks)

    @property
    def feature_dim(self) -> int:
        return self.tasks[0].train.x.shape[1]


def _sample(rng, centers: np.ndarray, per_class: int, noise: float = 1.0,
            clip: bool = False) -> LabeledDataset:
    """per_class rows of each center plus N(0, noise) noise, class by class,
    labelled by the center's index; clip keeps the rows in [0, 1]."""
    x = np.vstack([c + rng.normal(0.0, noise, size=(per_class, c.size)) for c in centers])
    y = np.repeat(np.arange(len(centers)), per_class)
    return LabeledDataset(np.clip(x, 0.0, 1.0) if clip else x, y, len(centers))


def gen_synthetic(
    num_classes: int,
    feature_dim: int,
    train_per_class: int,
    test_per_class: int,
    seed: int,
    mean_radius: float = 3.0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Isotropic unit-variance Gaussian clusters with seeded means.

    Class means are drawn on the hypersphere of the given radius; train and
    test samples come from disjoint draws of one seeded stream.
    """
    if feature_dim < 2:
        raise ValueError("feature_dim must be at least 2")
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(num_classes, feature_dim))
    means = mean_radius * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return _sample(rng, means, train_per_class), _sample(rng, means, test_per_class)


def read_exact(f, n: int, what: str) -> bytes:
    """Read exactly n bytes of `what` from the binary file f, or raise
    ValueError naming the offset; n is checked against the file size first."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise ValueError(f"truncated file {f.name}: needed {n} bytes for {what} "
                         f"at offset {f.tell()}")
    return f.read(n)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian, magic-checked).

    Pixels are scaled to [0, 1] float64 and flattened; image and label counts
    must agree.
    """
    with open(images_path, "rb") as f:
        magic, count = struct.unpack(">II", read_exact(f, 8, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(f"bad image magic 0x{magic:08x} at offset 0")
        rows, cols = struct.unpack(">II", read_exact(f, 8, "image dims"))
        raw = read_exact(f, count * rows * cols, "pixel data")
        if f.read(1):
            raise ValueError("trailing bytes after pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">II", read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(f"bad label magic 0x{magic:08x} at offset 0")
        labels = np.frombuffer(read_exact(f, lcount, "label data"), dtype=np.uint8)
        if f.read(1):
            raise ValueError("trailing bytes after label data")
    if count != lcount:
        raise ValueError(f"image count {count} != label count {lcount}")
    y = labels.astype(np.int64)
    return LabeledDataset(pixels / 255.0, y, int(y.max()) + 1 if y.size else 0)


def save_idx(ds: LabeledDataset, images_path, labels_path, rows: int, cols: int) -> None:
    """Write a dataset as an IDX pair; features must be [0,1] rows*cols vectors, labels bytes."""
    if ds.x.shape[1] != rows * cols:
        raise ValueError("feature dim does not match rows * cols")
    if np.any(ds.y > 255):  # before either file is opened
        raise must_be("an IDX label", int(ds.y.max()), "at most 255 (one byte)")
    pixels = np.clip(np.rint(ds.x * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(ds), rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(ds)))
        f.write(ds.y.astype(np.uint8).tobytes())


def save_csv(ds: LabeledDataset, path) -> None:
    d = ds.x.shape[1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["label"] + [f"f{i}" for i in range(d)])
        for label, row in zip(ds.y, ds.x):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_csv(path) -> LabeledDataset:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])     # an empty file has no header row
        if not header or header[0] != "label":
            raise ValueError(f"{path}: CSV header must start with 'label'")
        xs, ys = [], []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path} line {reader.line_num}: {len(row)} fields, "
                                 f"header has {len(header)}")
            try:
                ys.append(int(row[0]))
                xs.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            if not all(map(math.isfinite, xs[-1])):
                raise ValueError(f"{path} line {reader.line_num}: non-finite feature value")
    y = np.array(ys, dtype=np.int64)
    return LabeledDataset(np.array(xs), y, int(y.max()) + 1 if y.size else 0)


def split_tasks(
    train: LabeledDataset,
    test: LabeledDataset,
    num_tasks: int,
    seed: int,
) -> TaskSequence:
    """Permute classes by seed, chunk into equal groups, remap labels so task t
    owns the contiguous global block [t*k, (t+1)*k). The classes are the train
    split's; one without a train row, a task without a test row, a label outside
    them in either split, or a num_tasks that is not an integer (a bool neither)
    raises ValueError."""
    c = train.num_classes
    if not (_is_int(num_tasks) and num_tasks >= 1 and c % num_tasks == 0):
        raise ValueError(f"num_tasks must be a positive divisor of {c} classes, got {num_tasks!r}")
    missing = np.flatnonzero(np.bincount(train.y, minlength=c) == 0)
    if missing.size:
        raise ValueError(f"train split has no rows of class {missing[0]}, one of its {c} classes")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(c)
    remap = {int(orig): new for new, orig in enumerate(perm)}
    inverse = np.argsort(perm)       # inverse[orig] == remap[orig]
    per = c // num_tasks

    def remapped(ds: LabeledDataset, split: str) -> LabeledDataset:
        if ds.y.size and ds.y.max() >= c:  # LabeledDataset has already rejected labels < 0
            raise ValueError(f"{split} label {ds.y.max()} is outside the train split's {c} classes")
        return LabeledDataset(ds.x, inverse[ds.y], c)

    rtrain, rtest = remapped(train, "train"), remapped(test, "test")
    tasks = []
    for t in range(num_tasks):
        block = TaskRange(t * per, (t + 1) * per)
        tr = rtrain.subset(block.mask(rtrain.y))
        te = rtest.subset(block.mask(rtest.y))
        if not len(te):  # evaluate would fail on it, after training
            labels = ", ".join(map(str, perm[block.slice()]))
            raise ValueError(f"test split has no rows of task {t + 1}, class window "
                             f"[{block.start}, {block.stop}) (data labels {labels})")
        tasks.append(Task(block, tr, te))
    return TaskSequence(tasks, remap)


def gen_glyph_images(
    num_classes: int = 10,
    side: int = 8,
    train_per_class: int = 150,
    test_per_class: int = 60,
    seed: int = 0,
    noise: float = 0.15,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Small-image benchmark: one random binary glyph per class, plus pixel
    noise per sample. Serves as a desk-scale stand-in for 28x28 digit sets and
    round-trips through the IDX format."""
    rng = np.random.default_rng(seed)
    glyphs = (rng.random(size=(num_classes, side * side)) > 0.5).astype(np.float64)
    return (_sample(rng, glyphs, train_per_class, noise, clip=True),
            _sample(rng, glyphs, test_per_class, noise, clip=True))
