"""Two-modality datasets: synthetic generation, zero-shot splits, CSV I/O,
and the P-classes-by-K-samples batch sampler.

A dataset holds raw (un-normalized) feature vectors; normalization is the
embedder's job. Class labels are contiguous 0-based integers and every
class is present in both modalities. `class_ids` tracks the original
class identity of each contiguous label across zero-shot splits, which is
what the evaluation-time disjointness guard compares.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import DataError
from .fsutil import atomic_write_text

CSV_MODALITY_TAGS = {"sketch": 0, "photo": 1}


class Modality(IntEnum):
    SKETCH = 0
    PHOTO = 1

    @property
    def tag(self):
        return "sketch" if self is Modality.SKETCH else "photo"


@dataclass
class SampleRecord:
    """One datum: raw feature vector, class label, modality."""

    id: int
    class_label: int
    modality: Modality
    feature: np.ndarray


class Dataset:
    """Immutable collection of samples with contiguous class labels.

    Args:
        samples: list of SampleRecord with labels in [0, n_classes).
        n_classes: number of distinct class labels.
        d_in: raw feature dimensionality.
        class_ids: original class id per contiguous label (defaults to
            the identity mapping). Survives zero-shot splits so that
            disjointness can be checked after relabeling.
    """

    def __init__(self, samples, n_classes, d_in, class_ids=None):
        self.samples = list(samples)
        self.n_classes = int(n_classes)
        self.d_in = int(d_in)
        if class_ids is None:
            class_ids = list(range(self.n_classes))
        if len(class_ids) != self.n_classes:
            raise ValueError("class_ids must have one entry per class")
        self.class_ids = [int(c) for c in class_ids]
        self._features = None
        self._labels = None
        self._modalities = None

    def __len__(self):
        return len(self.samples)

    @property
    def features(self):
        """(N, d_in) float64 matrix of raw features, row i = sample i."""
        if self._features is None:
            self._features = np.array(
                [s.feature for s in self.samples], dtype=np.float64
            ).reshape(len(self.samples), self.d_in)
        return self._features

    @property
    def labels(self):
        if self._labels is None:
            self._labels = np.array(
                [s.class_label for s in self.samples], dtype=np.int64
            )
        return self._labels

    @property
    def modalities(self):
        """(N,) int array, 0 = sketch, 1 = photo."""
        if self._modalities is None:
            self._modalities = np.array(
                [int(s.modality) for s in self.samples], dtype=np.int64
            )
        return self._modalities

    def validate(self):
        """Check label contiguity, feature lengths, and that every class
        appears in both modalities. Raises DataError on violation."""
        seen = sorted({s.class_label for s in self.samples})
        if seen != list(range(self.n_classes)):
            raise DataError(
                f"labels must be contiguous 0..{self.n_classes - 1}, got {seen}"
            )
        per_cell = defaultdict(int)
        for s in self.samples:
            if len(s.feature) != self.d_in:
                raise DataError(
                    f"sample {s.id}: feature length {len(s.feature)} != d_in {self.d_in}"
                )
            per_cell[(s.class_label, int(s.modality))] += 1
        for c in range(self.n_classes):
            for m in (0, 1):
                if per_cell[(c, m)] == 0:
                    raise DataError(
                        f"class {c} has no {Modality(m).tag} samples"
                    )
        return self


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


@dataclass
class SamplerConfig:
    """P classes per batch, K samples per class per modality."""

    P: int
    K: int
    seed: int = 0

    def __post_init__(self):
        if self.P < 2:
            raise ValueError("P must be >= 2 (a triplet needs a negative class)")
        if self.K < 2:
            raise ValueError(
                "K must be >= 2 (a triplet needs a same-class, same-modality positive)"
            )


def generate_synthetic(cfg):
    """Draw a deterministic synthetic dataset from `cfg`.

    Returns a Dataset whose samples are ordered class-major, sketches
    before photos within each class. Identical seeds give bit-identical
    datasets.
    """
    rng = np.random.default_rng(cfg.seed)
    d = cfg.d_in
    centers = rng.standard_normal((cfg.n_classes, d))
    centers /= np.maximum(np.linalg.norm(centers, axis=1, keepdims=True), 1e-12)

    direction = rng.standard_normal(d)
    direction /= max(np.linalg.norm(direction), 1e-12)
    offset = cfg.offset_norm * direction

    per = cfg.samples_per_class_per_modality
    samples = []
    next_id = 0
    for c in range(cfg.n_classes):
        sketch = centers[c] + cfg.sigma * rng.standard_normal((per, d))
        photo = centers[c] + offset + cfg.sigma * rng.standard_normal((per, d))
        for row in sketch:
            samples.append(SampleRecord(next_id, c, Modality.SKETCH, row))
            next_id += 1
        for row in photo:
            samples.append(SampleRecord(next_id, c, Modality.PHOTO, row))
            next_id += 1
    return Dataset(samples, cfg.n_classes, d)


def zero_shot_split(ds, n_unseen, seed=0):
    """Partition `ds` by class into (train, test) with disjoint classes.

    The test set receives exactly `n_unseen` randomly chosen classes.
    Both halves are relabeled to contiguous 0-based labels (in increasing
    order of the original label) and keep `class_ids` pointing back at
    the source dataset's class identities.
    """
    if not 1 <= n_unseen < ds.n_classes:
        raise ValueError(
            f"n_unseen must be in [1, {ds.n_classes - 1}], got {n_unseen}"
        )
    rng = np.random.default_rng(seed)
    unseen = set(rng.choice(ds.n_classes, size=n_unseen, replace=False).tolist())
    seen = [c for c in range(ds.n_classes) if c not in unseen]
    unseen = sorted(unseen)

    def build(classes):
        remap = {c: i for i, c in enumerate(classes)}
        picked = [s for s in ds.samples if s.class_label in remap]
        relabeled = [
            SampleRecord(s.id, remap[s.class_label], s.modality, s.feature)
            for s in picked
        ]
        ids = [ds.class_ids[c] for c in classes]
        return Dataset(relabeled, len(classes), ds.d_in, class_ids=ids)

    return build(seen), build(unseen)


class PKSampler:
    """Draws batches of 2*P*K sample indices: P distinct classes, K sketch
    and K photo samples per class, all without replacement within a batch.

    Classes are re-drawn independently for every batch. The sampler owns
    its RNG; do not share one instance across threads.
    """

    def __init__(self, ds, cfg, rng=None):
        self.ds = ds
        self.cfg = cfg
        self.rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        if cfg.P > ds.n_classes:
            raise DataError(
                f"P={cfg.P} exceeds the {ds.n_classes} available classes"
            )
        cells = defaultdict(list)
        for i, s in enumerate(ds.samples):
            cells[(s.class_label, int(s.modality))].append(i)
        self._cells = {}
        for c in range(ds.n_classes):
            for m in (0, 1):
                idx = cells.get((c, m), [])
                if len(idx) < cfg.K:
                    raise DataError(
                        f"class {c} has {len(idx)} {Modality(m).tag} samples, "
                        f"need at least K={cfg.K}"
                    )
                self._cells[(c, m)] = np.array(idx, dtype=np.int64)

    def sample(self):
        """Return one batch of 2*P*K distinct indices, class-major with
        the K sketches before the K photos inside each class block."""
        classes = self.rng.choice(self.ds.n_classes, size=self.cfg.P, replace=False)
        parts = []
        for c in classes:
            for m in (0, 1):
                cell = self._cells[(int(c), m)]
                parts.append(self.rng.choice(cell, size=self.cfg.K, replace=False))
        return np.concatenate(parts)


def pk_sample(ds, cfg, rng=None):
    """One-shot batch draw; see PKSampler for the batch contract."""
    return PKSampler(ds, cfg, rng=rng).sample()


def write_dataset(ds, path):
    """Write `ds` as CSV: header `id,class,modality,f0..f{d-1}`, one
    sample per row, features at full round-trip precision."""
    header = "id,class,modality," + ",".join(f"f{i}" for i in range(ds.d_in))
    lines = [header]
    for s in ds.samples:
        feats = ",".join(repr(float(x)) for x in s.feature)
        lines.append(f"{s.id},{s.class_label},{s.modality.tag},{feats}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dataset(path):
    """Parse a CSV dataset written by `write_dataset`.

    Raises DataError (with the offending 1-based line number) on malformed
    rows, unknown modality tags, repeated sample ids, or non-contiguous
    labels.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # blank lines are skipped but keep their place in the numbering
        lines = [(lineno, ln.rstrip("\n"))
                 for lineno, ln in enumerate(fh, start=1) if ln.strip() != ""]
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

    samples = []
    first_line = {}
    for lineno, raw in lines[1:]:
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
            feat = np.array([float(x) for x in fields[3:]], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if not np.all(np.isfinite(feat)):
            raise DataError(f"{path}:{lineno}: non-finite feature value")
        if sid < 0 or label < 0:
            raise DataError(f"{path}:{lineno}: id and class must be non-negative")
        if sid in first_line:
            raise DataError(
                f"{path}:{lineno}: duplicate id {sid} "
                f"(first on line {first_line[sid]})"
            )
        first_line[sid] = lineno
        samples.append(
            SampleRecord(sid, label, Modality(CSV_MODALITY_TAGS[tag]), feat)
        )
    if not samples:
        raise DataError(f"{path}: no samples")

    n_classes = max(s.class_label for s in samples) + 1
    return Dataset(samples, n_classes, d_in).validate()
