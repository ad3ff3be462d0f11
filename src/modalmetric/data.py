"""Two-modality datasets: synthetic generation, zero-shot splits, CSV I/O,
and the P-classes-by-K-samples batch sampler.

A dataset is four row-aligned columns: raw (un-normalized) features,
class labels, modalities and sample ids; normalization is the embedder's
job. The constructor enforces contiguous 0-based class labels and both
modalities in every class. `class_ids` tracks the original class
identity of each contiguous label across zero-shot splits, which the
evaluation-time disjointness guard compares.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fsutil import atomic_write_text

# modality m is tagged MODALITY_TAGS[m]: 0 = sketch, 1 = photo
MODALITY_TAGS = ("sketch", "photo")
CSV_MODALITY_TAGS = {tag: m for m, tag in enumerate(MODALITY_TAGS)}
# (2, 1) modality index that broadcasts against (P, 2, K) table picks
_MODALITY_COLUMN = np.arange(2).reshape(2, 1)
_SURROGATE = re.compile("[\udc80-\udcff]")


class Dataset:
    """Immutable collection of samples held as row-aligned columns.

    Args:
        features: (N, d_in) raw feature matrix, row i = sample i.
        labels: (N,) class labels, contiguous 0..n_classes-1.
        modalities: (N,) 0 = sketch, 1 = photo.
        ids: (N,) sample ids.
        class_ids: original class id per contiguous label (defaults to
            the identity mapping). Survives zero-shot splits so that
            disjointness can be checked after relabeling.

    `d_in` and `n_classes` are read off the columns.

    Raises:
        ValueError: if features is not 2-d, the columns differ in
            length, a modality is not 0 or 1, or class_ids does not have
            one entry per class.
        DataError: if the labels are not contiguous from 0 or a class
            lacks a modality.
    """

    def __init__(self, features, labels, modalities, ids, class_ids=None):
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.modalities = np.asarray(modalities, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(
                f"features must be 2-d, got shape {self.features.shape}"
            )
        n = len(self.features)
        if any(col.shape != (n,)
               for col in (self.labels, self.modalities, self.ids)):
            raise ValueError(
                "labels, modalities and ids need one entry per feature row"
            )
        if ((self.modalities != 0) & (self.modalities != 1)).any():
            raise ValueError("modalities must be 0 (sketch) or 1 (photo)")
        # cell 2c + m holds class c's rows of modality m; the cells are
        # 0..2n - 1 iff n contiguous labels each have both modalities
        cells = np.unique(2 * self.labels + self.modalities)
        complete = (cells.size % 2 == 0
                    and np.array_equal(cells, np.arange(cells.size)))
        self.n_classes = cells.size // 2
        if not complete:
            # labels past 2**62 wrap in the cells, so read the labels
            present = np.unique(self.labels)
            if not np.array_equal(present, np.arange(present.size)):
                raise DataError(f"labels must be contiguous 0..{present[-1]}, "
                                f"got {present.tolist()}")
            self.n_classes = present.size
        self.d_in = self.features.shape[1]
        if class_ids is None:
            class_ids = range(self.n_classes)
        if len(class_ids) != self.n_classes:
            raise ValueError("class_ids must have one entry per class")
        self.class_ids = [int(c) for c in class_ids]
        if not complete:
            missing = np.setdiff1d(np.arange(2 * self.n_classes), cells)
            c, m = divmod(int(missing[0]), 2)
            raise DataError(f"class {c} has no {MODALITY_TAGS[m]} samples")

    def __len__(self):
        return len(self.labels)


@dataclass
class SyntheticConfig:
    """Generator knobs for the synthetic two-modality dataset.

    Per class, a center is drawn uniformly on the unit sphere in d_in
    dimensions. Sketch samples are Gaussian around that center with
    per-coordinate spread `sigma`; photo samples are additionally shifted
    by one global offset vector of norm `offset_norm`, shared across all
    classes, so a single scalar controls the modality gap.
    """

    n_classes: int = 16
    samples_per_class_per_modality: int = 32
    d_in: int = 32
    sigma: float = 0.3
    offset_norm: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.samples_per_class_per_modality < 1:
            raise ValueError("samples_per_class_per_modality must be >= 1")
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.offset_norm < 0:
            raise ValueError("offset_norm must be non-negative")


def generate_synthetic(cfg):
    """Draw a deterministic synthetic dataset from `cfg`.

    Returns a Dataset whose samples are ordered class-major, sketches
    before photos within each class, with ids 0..N-1 in that order.
    Identical seeds give bit-identical datasets. Raises OverflowError if
    sigma and offset_norm put a feature past the float64 range.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_in
    centers = rng.standard_normal((cfg.n_classes, d))
    centers /= np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)

    direction = rng.standard_normal(d)
    direction /= max(np.linalg.norm(direction), 1e-12)
    offset = cfg.offset_norm * direction

    per = cfg.samples_per_class_per_modality
    # one draw, streamed as a (per, d) draw per class and modality; in
    # place, each feature is still sigma * noise + center (+ offset)
    features = rng.standard_normal((cfg.n_classes, 2, per, d))
    with np.errstate(over="ignore"):
        features *= cfg.sigma
        features[:, 0] += centers[:, None]
        features[:, 1] += (centers + offset)[:, None]
    if not np.isfinite(features).all():
        raise OverflowError("sigma and offset_norm put a feature past the "
                            "float64 range")
    return Dataset(
        features.reshape(-1, d),
        np.repeat(np.arange(cfg.n_classes), 2 * per),
        np.tile(np.repeat([0, 1], per), cfg.n_classes),
        np.arange(2 * per * cfg.n_classes),
    )


def zero_shot_split(ds, n_unseen, seed=0):
    """Partition `ds` by class into (train, test) with disjoint classes.

    The test set receives exactly `n_unseen` randomly chosen classes.
    Both halves keep the source's row order, are relabeled to contiguous
    0-based labels (in increasing order of the original label) and keep
    `class_ids` pointing back at the source dataset's class identities.
    """
    if not 1 <= n_unseen < ds.n_classes:
        raise ValueError(
            f"n_unseen must be in [1, {ds.n_classes - 1}], got {n_unseen}"
        )
    rng = np.random.default_rng(seed)
    unseen = np.zeros(ds.n_classes, dtype=bool)
    unseen[rng.choice(ds.n_classes, size=n_unseen, replace=False)] = True

    def build(in_split):
        remap = np.cumsum(in_split) - 1  # original label -> new label
        rows = in_split[ds.labels]
        return Dataset(
            ds.features[rows], remap[ds.labels[rows]], ds.modalities[rows],
            ds.ids[rows],
            class_ids=[ds.class_ids[c] for c in np.flatnonzero(in_split)],
        )

    return build(~unseen), build(unseen)


class PKSampler:
    """Draws batches of 2*P*K sample indices: P distinct classes, K sketch
    and K photo samples per class, all without replacement within a batch.

    The (class, modality) cells are the rows of one padded
    (n_classes, 2, max cell) table of dataset row indices, built with one
    stable argsort; `_pad` marks the slots past each cell's end. Each
    batch takes two calls on the caller's generator `rng`: one `choice`
    of the P classes, then one uniform key per table slot of those
    classes. Padding slots get +inf keys, and each cell keeps the rows
    under its K smallest keys. Classes are re-drawn independently for
    every batch. A training run that shares one generator between
    initialization and sampling stays reproducible; do not share one
    instance across threads.
    """

    def __init__(self, ds, P, K, rng):
        self.ds = ds
        self.P = P
        self.K = K
        self.rng = rng
        if P > ds.n_classes:
            raise DataError(
                f"P={P} exceeds the {ds.n_classes} available classes"
            )
        cell_id = 2 * ds.labels + ds.modalities
        counts = np.bincount(cell_id, minlength=2 * ds.n_classes)
        short = np.flatnonzero(counts < K)
        if short.size:
            c, m = divmod(int(short[0]), 2)
            raise DataError(
                f"class {c} has {counts[short[0]]} {MODALITY_TAGS[m]} "
                f"samples, need at least K={K}"
            )
        shape = (ds.n_classes, 2, counts.max())
        self._pad = (np.arange(shape[2]) >= counts[:, None]).reshape(shape)
        # ~_pad walks the slots cell by cell in row-major order, the
        # order in which the stable argsort lists each cell's rows
        self._cells = np.full(shape, -1, dtype=np.int64)
        self._cells[~self._pad] = np.argsort(cell_id, kind="stable")

    def layout(self):
        """(labels, modalities) of the rows of every batch `sample`
        draws, with class block i labelled i: two rows of a batch share
        a class exactly when they share a block, whichever classes were
        drawn.
        """
        labels = np.repeat(np.arange(self.P), 2 * self.K)
        modalities = np.tile(np.repeat(_MODALITY_COLUMN[:, 0], self.K),
                             self.P)
        return labels, modalities

    def sample(self):
        """Return one batch of 2*P*K distinct indices, class-major with
        the K sketches before the K photos inside each class block.

        Every cell's K rows are a uniform draw without replacement, listed
        in ascending row order: `argpartition` finds the K smallest keys
        but may order them differently on different CPUs, and the sort
        makes the batch depend on the generator's stream alone.
        """
        classes = self.rng.choice(self.ds.n_classes, size=self.P,
                                  replace=False)
        keys = self.rng.random((self.P,) + self._cells.shape[1:])
        keys[self._pad[classes]] = np.inf
        picks = np.argpartition(keys, self.K - 1, axis=2)[:, :, :self.K]
        rows = self._cells[classes[:, None, None], _MODALITY_COLUMN, picks]
        rows.sort(axis=2)
        return rows.ravel()


def write_dataset(ds, path):
    """Write `ds` as CSV: header `id,class,modality,f0..f{d-1}`, one
    sample per row, features at full round-trip precision."""
    header = "id,class,modality," + ",".join(f"f{i}" for i in range(ds.d_in))
    lines = [header]
    for sid, label, m, row in zip(ds.ids.tolist(), ds.labels.tolist(),
                                  ds.modalities.tolist(),
                                  ds.features.tolist()):
        feats = ",".join(map(repr, row))
        lines.append(f"{sid},{label},{MODALITY_TAGS[m]},{feats}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path):
    """Parse a CSV dataset written by `write_dataset`.

    Raises DataError naming the path (and the offending 1-based line
    number where there is one) on an unreadable file, bytes that are not
    UTF-8, malformed rows, unknown modality tags, ids or classes outside
    [0, 2**63), repeated sample ids, non-contiguous labels or a class
    missing from a modality.
    """
    try:
        # surrogateescape turns undecodable bytes into lone surrogates,
        # which valid UTF-8 never decodes to, so the check below can name
        # their line; blank lines are skipped but keep their place in the
        # numbering
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            lines = [(lineno, ln.rstrip("\n"))
                     for lineno, ln in enumerate(fh, start=1)
                     if ln.strip() != ""]
    except OSError as exc:
        raise DataError(
            f"{path}: cannot read dataset: {exc.strerror or exc}"
        ) from None
    for lineno, ln in lines:
        if not ln.isascii() and _SURROGATE.search(ln):
            raise DataError(f"{path}:{lineno}: not UTF-8 text")
    if not lines:
        raise DataError(f"{path}: no samples")
    header_line, header = lines[0][0], lines[0][1].split(",")
    if header[:3] != ["id", "class", "modality"]:
        raise DataError(
            f"{path}:{header_line}: header must start with id,class,modality"
        )
    d_in = len(header) - 3
    if d_in < 1:
        raise DataError(
            f"{path}:{header_line}: header declares no feature columns"
        )

    features = np.empty((len(lines) - 1, d_in))
    ids, labels, modalities = [], [], []
    first_line = {}
    for row, (lineno, raw) in zip(features, lines[1:]):
        fields = raw.split(",")
        if len(fields) != 3 + d_in:
            raise DataError(
                f"{path}:{lineno}: expected {3 + d_in} fields, got {len(fields)}"
            )
        try:
            sid = int(fields[0])
            label = int(fields[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        tag = fields[2].strip().lower()
        if tag not in CSV_MODALITY_TAGS:
            raise DataError(
                f"{path}:{lineno}: unknown modality {fields[2]!r} "
                "(expected sketch or photo)"
            )
        try:
            row[:] = [float(x) for x in fields[3:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(row).all():
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        if not (0 <= sid < 2**63 and 0 <= label < 2**63):
            raise DataError(
                f"{path}:{lineno}: id and class must be in [0, 2**63)"
            )
        if sid in first_line:
            raise DataError(
                f"{path}:{lineno}: duplicate id {sid} "
                f"(first on line {first_line[sid]})"
            )
        first_line[sid] = lineno
        ids.append(sid)
        labels.append(label)
        modalities.append(CSV_MODALITY_TAGS[tag])
    if not ids:
        raise DataError(f"{path}: no samples")
    try:
        return Dataset(features, labels, modalities, ids)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
