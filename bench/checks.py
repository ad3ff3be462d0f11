"""Output checkers that share no code with the program.

Each checker reads an artifact as the program wrote it and returns a
list of problems (empty when the artifact is right). They re-derive what
they compare against: embeddings from the raw checkpoint tensors,
rankings and average precision by the positional definition, and the
weighting identity from the logged values.
"""

import csv
import math

import numpy as np

# Chunk of queries ranked at once, so the oracle never holds a Q x G
# matrix and stays below the evaluation's own peak memory.
QUERY_CHUNK = 256
TOLERANCE = 1e-9
IDENTITY_TOLERANCE = 1e-12


def _tensor(payload, name):
    entry = payload["tensors"][name]
    return np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])


def embed(payload, features, modalities):
    """Unit embedding rows of the checkpoint's embedder:
    normalize(x W + b + offset[modality])."""
    z = (features @ _tensor(payload, "embedder.W")
         + _tensor(payload, "embedder.b")
         + _tensor(payload, "embedder.modality_offset")[modalities])
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def positional_scores(emb, labels, modalities, k, query_modality=0):
    """Mean AP, mean precision at k and the chance rate of ranking the
    other modality for every query of `query_modality`.

    The gallery is ordered by ascending Euclidean distance, ties to the
    lower gallery index. AP is the mean over relevant items of
    (their rank among relevant items) / (their position)."""
    is_query = modalities == query_modality
    queries, gallery = emb[is_query], emb[~is_query]
    q_labels, g_labels = labels[is_query], labels[~is_query]
    aps, precs, chance = [], [], []
    for lo in range(0, len(queries), QUERY_CHUNK):
        cos = queries[lo:lo + QUERY_CHUNK] @ gallery.T
        dist = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cos))
        for row, label in zip(dist, q_labels[lo:lo + QUERY_CHUNK]):
            relevant = g_labels[np.argsort(row, kind="stable")] == label
            positions = np.flatnonzero(relevant) + 1
            aps.append(np.mean(np.arange(1, positions.size + 1) / positions))
            precs.append(relevant[:k].sum() / min(k, relevant.size))
            chance.append(positions.size / relevant.size)
    return float(np.mean(aps)), float(np.mean(precs)), float(np.mean(chance))


def check_checkpoint(payload, program_emb, test_set, k, metrics):
    """Check the program's embeddings of the evaluation split and its
    metrics.json snapshot against the oracle run on the checkpoint's
    tensors, and check the zero-shot split."""
    problems = []
    overlap = set(payload["meta"]["train_class_ids"]) & set(test_set.class_ids)
    if overlap:
        problems.append(f"evaluated classes {sorted(overlap)} were trained on")
    norms = np.linalg.norm(program_emb, axis=1)
    if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-12):
        problems.append("embedding rows are not unit norm")
    emb = embed(payload, test_set.features, test_set.modalities)
    if not np.allclose(program_emb, emb, rtol=0.0, atol=1e-12):
        problems.append("embeddings differ from the checkpoint's affine map")
    mean_ap, prec, chance = positional_scores(
        emb, test_set.labels, test_set.modalities, k)
    if abs(metrics["map_at_all"] - mean_ap) > TOLERANCE:
        problems.append(f"map_at_all {metrics['map_at_all']!r} != "
                        f"oracle {mean_ap!r}")
    if abs(metrics["prec_at_k"] - prec) > TOLERANCE:
        problems.append(f"prec_at_k {metrics['prec_at_k']!r} != "
                        f"oracle {prec!r}")
    if not mean_ap > chance:
        problems.append(f"map_at_all {mean_ap!r} is not above chance "
                        f"{chance!r}")
    return problems


def check_mean(per_run, mean):
    """metrics_mean.json must average the per-run snapshots."""
    expected = sum(m["map_at_all"] for m in per_run) / len(per_run)
    problems = []
    if mean.get("n_runs") != len(per_run):
        problems.append(f"n_runs {mean.get('n_runs')!r} != {len(per_run)}")
    if abs(mean["map_at_all"] - expected) > TOLERANCE:
        problems.append(f"mean map_at_all {mean['map_at_all']!r} != "
                        f"{expected!r}")
    return problems


def read_log(text):
    """training_log.csv text -> (columns, rows of floats)."""
    reader = csv.reader(text.splitlines())
    columns = next(reader)
    return columns, [[float(cell) for cell in row] for row in reader]


def check_log(text, total_iters, weighted, eps_g):
    """Row count, finiteness, iteration numbering and, for a weighted
    run, w_k * g_k equal over the active kinds and summing to sum g_k."""
    try:
        columns, rows = read_log(text)
    except (StopIteration, ValueError) as exc:
        return [f"unreadable log: {exc!r}"]
    problems = []
    if len(rows) != total_iters:
        problems.append(f"{len(rows)} log rows, expected {total_iters}")
    g_cols = [i for i, c in enumerate(columns) if c.startswith("g_")]
    w_cols = [i for i, c in enumerate(columns) if c.startswith("w_")]
    if weighted and len(w_cols) != len(g_cols):
        problems.append(f"weighted log has columns {columns}")
        return problems
    for n, row in enumerate(rows):
        if len(row) != len(columns) or not all(map(math.isfinite, row)):
            problems.append(f"row {n} is short or not finite")
            break
        if row[0] != n:
            problems.append(f"row {n} is numbered {row[0]!r}")
            break
        if not weighted:
            continue
        g = np.array([row[i] for i in g_cols])
        w = np.array([row[i] for i in w_cols])
        active = g > eps_g
        pulls = w[active] * g[active]
        if np.any(w[~active] != 0.0) or (active.any() and (
                np.ptp(pulls) > IDENTITY_TOLERANCE
                or abs(pulls.sum() - g[active].sum()) > IDENTITY_TOLERANCE)):
            problems.append(f"row {n} breaks the weighting identity: "
                            f"g={g.tolist()} w={w.tolist()}")
            break
    return problems


def active_fraction(text):
    """Sum and count of the logged active fractions (g_* cells)."""
    columns, rows = read_log(text)
    g_cols = [i for i, c in enumerate(columns) if c.startswith("g_")]
    values = [row[i] for row in rows for i in g_cols]
    return sum(values), len(values)

