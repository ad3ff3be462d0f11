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

from .errors import ConfigError, DataError
from .fsutil import atomic_write_text

# modality m is tagged MODALITY_TAGS[m]: 0 = sketch, 1 = photo
MODALITY_TAGS = ("sketch", "photo")
CSV_MODALITY_TAGS = {tag: m for m, tag in enumerate(MODALITY_TAGS)}
# (2, 1) modality index that broadcasts against (P, 2, K) table picks
_MODALITY_COLUMN = np.arange(2).reshape(2, 1)
_SURROGATE = re.compile("[\udc80-\udcff]")
# rows that write_dataset formats and writes at a time
CSV_CHUNK_ROWS = 1024


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
        ValueError: if a float label, modality or id is not a whole
            number within int64, features is not 2-d, the columns differ
            in length, a modality is not 0 or 1, or class_ids does not
            have one entry per class.
        DataError: if the labels are not contiguous from 0 or a class
            lacks a modality.
    """

    def __init__(self, features, labels, modalities, ids, class_ids=None):
        self.features = np.asarray(features, dtype=np.float64)
        for name, col in (("labels", labels), ("modalities", modalities),
                          ("ids", ids)):
            col = np.asarray(col)
            # checked before the int64 cast would truncate it
            if col.dtype.kind == "f" and not (
                    (np.abs(col) < 2**63) & (col == np.floor(col))).all():
                raise ValueError(f"{name} must be whole numbers")
            setattr(self, name, np.asarray(col, dtype=np.int64))
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
        # cell 2c + m counts class c's rows of modality m
        counts = np.bincount(2 * self.labels + self.modalities,
                             minlength=2 * self.n_classes)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            c, m = divmod(int(empty[0]), 2)
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
            raise ConfigError("n_classes must be >= 2")
        if self.samples_per_class_per_modality < 1:
            raise ConfigError("samples_per_class_per_modality must be >= 1")
        if self.d_in < 1:
            raise ConfigError("d_in must be >= 1")
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")
        if self.offset_norm < 0:
            raise ConfigError("offset_norm must be non-negative")


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
    Raises ConfigError unless 1 <= n_unseen < ds.n_classes.
    """
    if not 1 <= n_unseen < ds.n_classes:
        raise ConfigError(
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
        if P < 1 or K < 1:
            raise ValueError(f"P and K must be >= 1, got P={P}, K={K}")
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


def _csv_pieces(ds):
    """The CSV text of `ds`: its header line, then one string per chunk
    of CSV_CHUNK_ROWS rows."""
    yield "id,class,modality," + ",".join(
        f"f{i}" for i in range(ds.d_in)) + "\n"
    for start in range(0, len(ds), CSV_CHUNK_ROWS):
        rows = slice(start, start + CSV_CHUNK_ROWS)
        yield "".join(
            f"{sid},{label},{MODALITY_TAGS[m]},{','.join(map(repr, row))}\n"
            for sid, label, m, row in zip(
                ds.ids[rows].tolist(), ds.labels[rows].tolist(),
                ds.modalities[rows].tolist(), ds.features[rows].tolist()))


def write_dataset(ds, path):
    """Write `ds` as CSV: header `id,class,modality,f0..f{d-1}`, one
    sample per row, features at full round-trip precision.

    The text is formatted and written CSV_CHUNK_ROWS rows at a time, so
    the memory taken beyond `ds` is one chunk's worth, O(chunk).
    """
    atomic_write_text(path, _csv_pieces(ds))


def read_dataset(path):
    """Parse a CSV dataset written by `write_dataset`.

    The file is read in two passes. The first checks every line for
    bytes that are not UTF-8 and counts the lines. The second parses the
    rows straight into one feature array, allocated once with a row for
    each line below the header, and the Dataset takes its filled rows.
    The file's lines are never held together: beyond the returned
    Dataset, the memory taken is one line of text, plus the line of each
    row that the duplicate and finiteness checks name. A source that
    cannot seek, such as a pipe, is refused.

    Raises DataError naming the path (and the offending 1-based line
    number where there is one) on an unreadable or unseekable file, bytes
    that are not UTF-8, a header too wide to allocate the features for,
    malformed rows, unknown modality tags, ids or classes outside
    [0, 2**63), repeated sample ids, non-contiguous labels, a class
    missing from a modality, or a file that grew between the passes. A
    byte that is not UTF-8 anywhere in the file wins over every other
    fault; otherwise the earliest line's fault is raised.
    """
    try:
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            # surrogateescape turns undecodable bytes into lone
            # surrogates, which valid UTF-8 never decodes to, so the check
            # can name their line
            n_lines = 0
            for n_lines, ln in enumerate(fh, start=1):
                if not ln.isascii() and _SURROGATE.search(ln):
                    raise DataError(f"{path}:{n_lines}: not UTF-8 text")
            fh.seek(0)
            return _parse_csv(fh, n_lines, path)
    except OSError as exc:
        raise DataError(
            f"{path}: cannot read dataset: {exc.strerror or exc}"
        ) from None


def _parse_csv(fh, n_lines, path):
    """The Dataset of the CSV at `path`, from the text lines of `fh`, of
    which read_dataset's first pass counted `n_lines`; read_dataset lists
    the faults it raises."""
    # blank lines keep their place in the numbering
    lines = ((lineno, ln.rstrip("\n"))
             for lineno, ln in enumerate(fh, start=1) if ln.strip() != "")
    header_line, header = next(lines, (None, None))
    if header is None:
        raise DataError(f"{path}: no samples")
    header = header.split(",")
    if header[:3] != ["id", "class", "modality"]:
        raise DataError(
            f"{path}:{header_line}: header must start with id,class,modality"
        )
    d_in = len(header) - 3
    if d_in < 1:
        raise DataError(
            f"{path}:{header_line}: header declares no feature columns"
        )
    rows = max(n_lines - header_line, 0)
    try:
        features = np.empty((rows, d_in))
    except (MemoryError, ValueError):  # ValueError: past int64
        raise DataError(f"{path}:{header_line}: {rows} rows of {d_in} "
                        "features are too large to allocate") from None
    linenos = []  # the line of each row of features
    filled = 0  # rows of features that are parsed
    ids, labels, modalities = [], [], []
    first_line = {}

    def check_finite():
        # one check for the rows parsed so far, the rows above the next
        # fault: a non-finite row among them comes first
        bad = ~np.isfinite(features[:filled]).all(axis=1)
        if bad.any():
            raise DataError(f"{path}:{linenos[bad.argmax()]}: "
                            "non-finite feature value")

    for lineno, raw in lines:
        try:
            if filled == rows:
                raise DataError(f"{path}:{lineno}: the file grew while it "
                                "was read")
            linenos.append(lineno)
            fields = raw.split(",")
            if len(fields) != 3 + d_in:
                raise DataError(f"{path}:{lineno}: expected {3 + d_in} "
                                f"fields, got {len(fields)}")
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
                # numpy converts each str through Python's float, so the
                # accepted spellings and the error text are float()'s
                features[filled] = fields[3:]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            filled += 1
            if not (0 <= sid < 2**63 and 0 <= label < 2**63):
                raise DataError(
                    f"{path}:{lineno}: id and class must be in [0, 2**63)"
                )
            if sid in first_line:
                raise DataError(
                    f"{path}:{lineno}: duplicate id {sid} "
                    f"(first on line {first_line[sid]})"
                )
        except DataError:
            check_finite()
            raise
        first_line[sid] = lineno
        ids.append(sid)
        labels.append(label)
        modalities.append(CSV_MODALITY_TAGS[tag])
    check_finite()
    if not ids:
        raise DataError(f"{path}: no samples")
    try:
        return Dataset(features[:filled], labels, modalities, ids)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
