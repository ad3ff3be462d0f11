"""Command-line entry point.

Commands:
    train         train one method over the configured seeds
    eval          embed the held-out split with a checkpoint and report
                  retrieval metrics
    diagnose      baseline / mathm / gan side-by-side comparison table
    ablate        the eight-row loss-combination ablation table
    sweep-lambda  mAP as a function of the embedding-loss weight

Any config key, `--method` and `--out` too, is set as `--key value` or
`--key=value` (`--section.key` when the bare name is ambiguous), and a
later flag wins; `--seed N` stands for `--base_seed N --n_seeds 1` and
wins over both. Flags are never abbreviated. Exit codes: 0 success,
2 config error, 3 data error, 4 zero-shot protocol violation, 5 numeric
failure.
"""

import argparse
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .config import load_config, parse_overrides
from .errors import ConfigError, DataError, ModalMetricError, ProtocolError
from .evaluation import RetrievalMetrics, compute_metrics
from .fsutil import atomic_write_text, output_dir, write_json
from .model import (embed_forward, load_checkpoint, model_shapes,
                    save_checkpoint)
from .training import METHOD_RECIPES, ablation_variants, train

DIAGNOSE_METHODS = ("baseline", "mathm", "gan")
DEFAULT_LAMBDAS = "0,0.5,1,2"


def _cell(x):
    # plain-float repr round-trips exactly and is stable across runs
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_csv(path, columns, rows):
    """Write dict rows to CSV with a fixed column order, atomically. Every
    cell is a number or a fixed label with no comma or quote, so none
    needs quoting."""
    lines = [",".join(columns)]
    lines += [",".join([_cell(row[c]) for c in columns]) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _mean_std(dicts, keys):
    """Per-key mean and sample standard deviation over runs."""
    out = {}
    for key in keys:
        values = np.array([d[key] for d in dicts], dtype=np.float64)
        out[key] = float(values.mean())
        out[f"{key}_std"] = (
            float(values.std(ddof=1)) if len(values) > 1 else 0.0
        )
    return out


# the scores averaged over runs: every RetrievalMetrics field but k
METRIC_KEYS = tuple(f.name for f in fields(RetrievalMetrics) if f.name != "k")


def evaluate_params(params, test_set, cfg, train_class_ids,
                    source="trained model"):
    """Embed the evaluation split and compute all metrics, enforcing the
    zero-shot guard against the training classes recorded at train time.

    Raises DataError when the embedded rows' norms are not finite, since
    those rows normalize to zeros or NaN. It names the data (`source`
    and, for synthetic data, `sigma` and `offset_norm` of cfg.data) when
    the split's own feature rows have non-finite norms, and `source`
    otherwise: then the weights are finite but huge.
    """
    overlap = sorted(set(train_class_ids) & set(test_set.class_ids))
    if overlap:
        raise ProtocolError(
            f"zero-shot violation: classes {overlap} were used in training"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        embeddings, cache = embed_forward(
            params.embedder, test_set.features, test_set.modalities
        )
    # a finite norm means a finite pre-normalization row, so a finite
    # embedding
    if not np.isfinite(cache.norms).all():
        with np.errstate(over="ignore"):
            feature_norms = np.linalg.norm(test_set.features, axis=1)
        if not np.isfinite(feature_norms).all():
            d = cfg.data
            name = f"data.source = {d['source']!r}"
            if d["source"] == "synthetic":
                name += (f", data.sigma = {d['sigma']!r} and "
                         f"data.offset_norm = {d['offset_norm']!r}")
            raise DataError(f"{name}: the evaluation split's feature rows "
                            "have non-finite norms")
        raise DataError(
            f"{source}: the embedder overflows on the evaluation split "
            "(non-finite embedding norms)"
        )
    return compute_metrics(
        embeddings,
        test_set.labels,
        test_set.modalities,
        k=cfg.eval_k,
        query_modality=cfg.query_modality,
    )


def _read_checkpoint(path, d_in):
    """`load_checkpoint` for a command: a checkpoint that is missing,
    unreadable or malformed, whose tensors do not fit one model for the
    data's d_in and its recorded training classes, or that holds a
    non-finite weight, raises DataError naming the path.

    Returns:
        (params, meta), with meta["train_class_ids"] a non-empty list of
        distinct ints, meta["n_train_classes"] of them.
    """
    try:
        params, meta = load_checkpoint(path)
        ids = meta["train_class_ids"]  # the zero-shot guard reads them
        if not (isinstance(ids, list) and ids
                and all(type(i) is int for i in ids)  # no bools
                and len(set(ids)) == len(ids)):
            raise ValueError("train_class_ids must be a non-empty list "
                             "of distinct ints")
        if meta["n_train_classes"] != len(ids):
            raise ValueError(f"n_train_classes {meta['n_train_classes']!r} "
                             "is not the number of train_class_ids")
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint: "
                        f"{exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        # RecursionError: json nests past the interpreter's stack limit
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from None
    # W is (d_in, d_emb); a W of another rank fits no model
    d_emb = params.shapes[0][1] if len(params.shapes[0]) == 2 else 0
    if d_emb < 2 or params.shapes != model_shapes(d_in, d_emb, len(ids)):
        raise DataError(
            f"{path}: checkpoint tensor shapes {params.shapes} do not fit "
            f"one model for d_in = {d_in}, d_emb >= 2 and {len(ids)} "
            "training classes"
        )
    if not np.isfinite(params.vector).all():
        raise DataError(f"{path}: checkpoint has non-finite weights")
    return params, meta


def cmd_train(cfg, args):
    train_set, _ = cfg.load_data()
    with output_dir(cfg.out):
        for seed in cfg.seeds():
            tc = cfg.train_config(seed)
            result = train(train_set, tc)
            out_dir = os.path.join(cfg.out, tc.method, f"seed-{seed}")
            # every row has the keys of the first, in the same order
            write_csv(os.path.join(out_dir, "training_log.csv"),
                      list(result.log[0]), result.log)
            meta = {
                "d_in": train_set.d_in,
                "n_train_classes": train_set.n_classes,
                "train_class_ids": train_set.class_ids,
                "train": tc.to_dict(),
            }
            save_checkpoint(os.path.join(out_dir, "checkpoint.json"),
                            result.params, meta)
            print(f"trained {tc.method} seed {seed}: "
                  f"final loss {result.log[-1]['l_total']:.6f} -> {out_dir}")
    return 0


def cmd_eval(cfg, args):
    if not args.checkpoint:
        raise ConfigError("eval requires at least one --checkpoint")
    _, test_set = cfg.load_data()
    snapshots = []
    with output_dir(cfg.out):
        for i, path in enumerate(args.checkpoint):
            params, meta = _read_checkpoint(path, test_set.d_in)
            metrics = evaluate_params(
                params, test_set, cfg, meta["train_class_ids"], source=path
            )
            snapshot = metrics.to_dict()
            snapshots.append(snapshot)
            name = ("metrics.json" if len(args.checkpoint) == 1
                    else f"metrics-{i}.json")
            write_json(os.path.join(cfg.out, name), snapshot)
            print(f"{path}: map_at_all={snapshot['map_at_all']:.4f} "
                  f"prec_at_{snapshot['k']}={snapshot['prec_at_k']:.4f}")
    if len(snapshots) > 1:
        mean = _mean_std(snapshots, METRIC_KEYS)
        mean["k"] = snapshots[0]["k"]
        mean["n_runs"] = len(snapshots)
        write_json(os.path.join(cfg.out, "metrics_mean.json"), mean)
        print(f"mean over {len(snapshots)} runs: "
              f"map_at_all={mean['map_at_all']:.4f} "
              f"(std {mean['map_at_all_std']:.4f})")
    return 0


def _emit_table(cfg, command, label_column, rows, keys):
    columns = [label_column]
    for key in keys:
        columns += [key, f"{key}_std"]
    out_dir = os.path.join(cfg.out, command)
    write_csv(os.path.join(out_dir, "table.csv"), columns, rows)
    write_json(os.path.join(out_dir, "table.json"), rows)
    width = max(len(str(r[label_column])) for r in rows)
    for row in rows:
        cells = "  ".join(
            f"{c}={row[c]:.4f}" for c in columns
            if c != label_column and not c.endswith("_std")
        )
        print(f"{str(row[label_column]):<{width}}  {cells}")
    print(f"wrote {os.path.join(out_dir, 'table.csv')}")
    return 0


def _grid_table(cfg, command, label_column, variants, keys):
    """Train and evaluate every variant over the configured seeds and
    write one table row per variant: the mean and sample std of `keys`.

    Args:
        variants: (label, TrainConfig) pairs; each seed's run uses the
            variant's config with that seed.
    """
    train_set, test_set = cfg.load_data()
    rows = []
    with output_dir(os.path.join(cfg.out, command)):
        for label, variant in variants:
            snapshots = []
            for seed in cfg.seeds():
                result = train(train_set, replace(variant, seed=seed))
                snapshots.append(evaluate_params(
                    result.params, test_set, cfg, train_set.class_ids
                ).to_dict())
            rows.append({label_column: label, **_mean_std(snapshots, keys)})
        return _emit_table(cfg, command, label_column, rows, keys)


def cmd_diagnose(cfg, args):
    given = [args.baseline, args.mathm, args.gan]
    if not any(given):
        return _grid_table(cfg, "diagnose", "method", [
            (method, replace(cfg.train, method=method))
            for method in DIAGNOSE_METHODS
        ], METRIC_KEYS)
    if not all(given):
        raise ConfigError(
            "diagnose from checkpoints needs all of --baseline, "
            "--mathm and --gan"
        )
    _, test_set = cfg.load_data()
    loaded = [_read_checkpoint(path, test_set.d_in) for path in given]
    # the split is in each meta, so compare it before evaluating any
    if len({tuple(meta["train_class_ids"]) for _, meta in loaded}) > 1:
        raise ProtocolError(
            "diagnose checkpoints were trained on different splits"
        )
    rows = []
    for method, path, (params, meta) in zip(DIAGNOSE_METHODS, given, loaded):
        metrics = evaluate_params(
            params, test_set, cfg, meta["train_class_ids"], source=path
        )
        rows.append({"method": method, **_mean_std([metrics.to_dict()],
                                                    METRIC_KEYS)})
    return _emit_table(cfg, "diagnose", "method", rows, METRIC_KEYS)


def cmd_ablate(cfg, args):
    return _grid_table(cfg, "ablate", "variant",
                       ablation_variants(cfg.train),
                       ("map_at_all", "prec_at_k"))


def cmd_sweep_lambda(cfg, args):
    try:
        lambdas = [float(x) for x in args.lambdas.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad --lambdas value: {args.lambdas!r}")
    if not lambdas or any(not (math.isfinite(lam) and lam >= 0)
                          for lam in lambdas):
        raise ConfigError("--lambdas needs comma-separated finite reals >= 0")
    return _grid_table(cfg, "sweep-lambda", "lam", [
        (lam, replace(cfg.train, loss=replace(cfg.train.loss, lam=lam)))
        for lam in lambdas
    ], ("map_at_all", "prec_at_k"))


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "diagnose": cmd_diagnose,
    "ablate": cmd_ablate,
    "sweep-lambda": cmd_sweep_lambda,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="modalmetric",
        description="cross-modality metric learning: train, evaluate, "
                    "and diagnose sketch-photo embedding models",
        allow_abbrev=False,
    )
    epilog = ("set any config key as --key value or --key=value\n"
              f"--method: {' | '.join(METHOD_RECIPES)}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(
            name, allow_abbrev=False, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="config file (INI)")
        p.add_argument("--seed",
                       help="pin a single seed (--base_seed N --n_seeds 1)")
        if name == "eval":
            p.add_argument("--checkpoint", action="append", default=[],
                           help="checkpoint file; repeat for a mean "
                                "over runs")
        if name == "diagnose":
            p.add_argument("--baseline", default=None)
            p.add_argument("--mathm", default=None)
            p.add_argument("--gan", default=None)
        if name == "sweep-lambda":
            p.add_argument("--lambdas", default=DEFAULT_LAMBDAS,
                           help="comma-separated weight values")
    return parser


def main(argv=None):
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        overrides = parse_overrides(extras)
        if args.seed is not None:
            overrides[("run", "base_seed")] = args.seed
            overrides[("run", "n_seeds")] = "1"
        cfg = load_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args)
    except ModalMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
