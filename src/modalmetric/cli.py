"""Command-line entry point.

Commands:
    train         train one method over the configured seeds
    eval          embed the held-out split with each checkpoint and report
                  retrieval metrics
    diagnose      one mean row per method, trained or read from checkpoints
    ablate        in-place diagnose over the loss ablation's eight methods
    sweep-lambda  mAP as a function of the embedding-loss weight

The last three write `<out>/<command>/table.csv` and `table.json`, one
row per method tag or λ: the mean and sample std over its runs. `eval`
and `diagnose --checkpoint` rebuild the split from the `[data]` section
each checkpoint records, so a config file or flag may only repeat it,
and they read and check every checkpoint before they create `--out`.

Every config key, `--method` and `--out` too, is a flag under its bare
name and as `--section.key`, set as `--key value` or, for a value that
starts with `-`, `--key=value`; a later flag wins. `--seed N` stands
for `--base_seed N --n_seeds 1` and wins over both, so `data.seed` is
`--data.seed` only. Flags are never abbreviated; `--help` lists them.
Exit codes: 0 success, 2 config error or malformed command line, 3 data
error, 4 zero-shot protocol violation, 5 numeric failure.
"""

import argparse
import functools
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .config import SCHEMA, convert, load_config
from .errors import ConfigError, DataError, ModalMetricError, ProtocolError
from .evaluation import RetrievalMetrics, compute_metrics
from .fsutil import atomic_write_text, output_dir, write_json
from .model import (embed_forward, load_checkpoint, model_shapes,
                    save_checkpoint)
from .training import METHOD_RECIPES, train

DIAGNOSE_METHODS = ("baseline", "mathm", "gan")
# the loss ablation's rows, one method tag each (README lists them)
ABLATION_METHODS = ("cls-only", "baseline", "within", "hybrid",
                    "cross+within", "cross+hybrid", "mathm-nogw", "mathm")
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
    atomic_write_text(path, ["\n".join(lines) + "\n"])


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


def _read_checkpoint(path, cfg, splits):
    """`load_checkpoint` for a command: a checkpoint that is missing,
    unreadable or malformed, whose data record the [data] rules reject,
    whose tensors do not fit one model for its data's d_in and its
    recorded training classes, or that holds a non-finite weight, raises
    DataError naming the path.

    `splits` maps each data record read so far, as sorted items, to its
    (train_set, test_set); a new record's split is built from `cfg` with
    the record as its [data] section.

    Returns:
        (params, meta), with meta["data"] an object holding exactly the
        [data] keys, each a value of its key's type (floats finite);
        meta["train_class_ids"] a non-empty list of distinct ints; and
        meta["train"]["method"] a METHOD_RECIPES tag (else malformed).
    """
    try:
        params, meta = load_checkpoint(path)
        data = meta["data"]  # the split is rebuilt from it
        if not (isinstance(data, dict)
                and data.keys() == SCHEMA["data"].keys()):
            raise ValueError("data must be an object holding exactly the "
                             "[data] keys")
        for key, (kind, _) in SCHEMA["data"].items():
            value = data[key]
            if not (type(value) is kind  # no bools, no 16.0 for 16
                    and (kind is not float or math.isfinite(value))):
                raise ValueError(f"data.{key} = {value!r}: expected "
                                 + ("a finite float" if kind is float
                                    else kind.__name__))
        ids = meta["train_class_ids"]  # the zero-shot guard reads them
        if not (isinstance(ids, list) and ids
                and all(type(i) is int for i in ids)  # no bools
                and len(set(ids)) == len(ids)):
            raise ValueError("train_class_ids must be a non-empty list "
                             "of distinct ints")
        if (method := meta["train"]["method"]) not in METHOD_RECIPES:
            raise ValueError(f"train.method {method!r} is not a method tag")
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint: "
                        f"{exc.strerror or exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        # RecursionError: json nests past the interpreter's stack limit
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from None
    record = tuple(sorted(data.items()))
    if record not in splits:
        try:
            splits[record] = replace(cfg, data=data).load_data()
        except ConfigError as exc:
            raise DataError(f"{path}: malformed checkpoint: its data "
                            f"record is rejected: {exc}") from None
    d_in = splits[record][1].d_in
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
                "data": cfg.data,
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
    runs = _checkpoint_runs(cfg, args.checkpoint)
    with output_dir(cfg.out):
        # score every checkpoint before writing a file for any
        snapshots = [snapshot for _, snapshot in runs]
        for i, (path, snapshot) in enumerate(zip(args.checkpoint, snapshots)):
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


def _write_table(cfg, command, label_column, runs, keys):
    """Write `<out>/<command>/table.csv` and `table.json`: per label of
    the (label, metrics dict) `runs`, in order of first appearance, the
    mean and sample std of `keys`. The runs are consumed inside the
    output directory, so an unusable --out fails before the first."""
    out_dir = os.path.join(cfg.out, command)
    with output_dir(out_dir):
        grouped = {}
        for label, metrics in runs:
            grouped.setdefault(label, []).append(metrics)
        rows = [{label_column: label, **_mean_std(snapshots, keys)}
                for label, snapshots in grouped.items()]
        columns = [label_column]
        for key in keys:
            columns += [key, f"{key}_std"]
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


def _trained_runs(cfg, variants):
    """Load the data now and return the lazy (label, metrics dict) runs
    of each (label, TrainConfig) variant over the configured seeds."""
    train_set, test_set = cfg.load_data()
    return ((label, evaluate_params(
                train(train_set, replace(variant, seed=seed)).params,
                test_set, cfg, train_set.class_ids).to_dict())
            for label, variant in variants for seed in cfg.seeds())


def _checkpoint_runs(cfg, paths):
    """Read every checkpoint, rebuild the split its data record names
    and check them now, and return the lazy (recorded method, metrics
    dict) runs in path order.

    Each file's own faults (exit 3) come before the protocol errors
    (exit 4): records that differ, a [data] value set by the config
    file or a flag that is not the record's, and recorded training
    classes that are not the split's.
    """
    splits = {}  # data record -> (train_set, test_set)
    loaded = [_read_checkpoint(path, cfg, splits) for path in paths]
    if len(splits) > 1:
        raise ProtocolError("checkpoints were trained on different data")
    [(record, (train_set, test_set))] = splits.items()
    data = dict(record)
    for key in SCHEMA["data"]:
        if ("data", key) in cfg.explicit and cfg.data[key] != data[key]:
            raise ProtocolError(
                f"data.{key} = {cfg.data[key]!r} differs from the "
                f"checkpoint's record, data.{key} = {data[key]!r}: [data] "
                "comes from the checkpoint, so a config file or flag may "
                "only repeat it")
    for path, (_, meta) in zip(paths, loaded):
        if meta["train_class_ids"] != train_set.class_ids:
            raise ProtocolError(
                f"{path}: trained on different splits: train_class_ids "
                f"{meta['train_class_ids']} are not the training classes "
                f"{train_set.class_ids} of its data record")
    cfg = replace(cfg, data=data)
    return ((meta["train"]["method"], evaluate_params(
                params, test_set, cfg, meta["train_class_ids"],
                source=path).to_dict())
            for path, (params, meta) in zip(paths, loaded))


def _method_runs(cfg, methods):
    return _trained_runs(cfg, [(method, replace(cfg.train, method=method))
                               for method in methods])


def cmd_diagnose(cfg, args):
    runs = (_checkpoint_runs(cfg, args.checkpoint) if args.checkpoint
            else _method_runs(cfg, DIAGNOSE_METHODS))
    return _write_table(cfg, "diagnose", "method", runs, METRIC_KEYS)


def cmd_ablate(cfg, args):
    return _write_table(cfg, "ablate", "method",
                        _method_runs(cfg, ABLATION_METHODS),
                        ("map_at_all", "prec_at_k"))


def cmd_sweep_lambda(cfg, args):
    # each entry is read and checked as a --lam value is
    lambdas = [convert("loss", "lam", x) for x in args.lambdas.split(",")]
    loss = cfg.train.loss
    variants = [(lam, replace(cfg.train, loss=replace(loss, lam=lam)))
                for lam in lambdas]
    # the table groups runs by label, so equal values would share a row
    for i, lam in enumerate(lambdas):
        if lam in lambdas[:i]:
            raise ConfigError(f"--lambdas repeats the value {lam!r}")
    return _write_table(cfg, "sweep-lambda", "lam",
                        _trained_runs(cfg, variants),
                        ("map_at_all", "prec_at_k"))


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "diagnose": cmd_diagnose,
    "ablate": cmd_ablate,
    "sweep-lambda": cmd_sweep_lambda,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 with one line, as a bad value does
        raise ConfigError(message)


@functools.cache
def build_parser():
    parser = _Parser(
        prog="modalmetric",
        description="cross-modality metric learning: train, evaluate, "
                    "and diagnose sketch-photo embedding models",
        allow_abbrev=False,
    )
    epilog = ("a value that starts with - takes the --key=value form\n"
              f"--method: {' | '.join(METHOD_RECIPES)}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(
            name, allow_abbrev=False, epilog=epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="config file (INI)")
        p.add_argument("--seed",
                       help="pin a single seed (--base_seed N --n_seeds 1)")
        if name in ("eval", "diagnose"):
            p.add_argument(
                "--checkpoint", action="append", default=[],
                help="checkpoint file, whose recorded [data] gives the "
                     "split; repeat for a mean over runs on the same data, "
                     "every file read and checked first" + (
                    ", one row per recorded method (none: train baseline, "
                    "mathm and gan in place)" if name == "diagnose" else ""))
        if name == "sweep-lambda":
            p.add_argument("--lambdas", default=DEFAULT_LAMBDAS,
                           help="comma-separated weight values")
        for section, keys in SCHEMA.items():
            group = p.add_argument_group(f"[{section}] keys")
            for key, (kind, default) in keys.items():
                # --seed is the shorthand above, so data.seed is only
                # qualified; argparse %-formats help text
                bare = [f"--{key}"] if key != "seed" else []
                group.add_argument(
                    *bare, f"--{section}.{key}", dest=f"{section}.{key}",
                    default=argparse.SUPPRESS, metavar=kind.__name__.upper(),
                    help=f"default: {default}".replace("%", "%%"))
    return parser


def config_overrides(args):
    """The {(section, key): raw string} overrides that the parsed `args`
    set, --seed's two included; load_config converts them."""
    overrides = {tuple(dest.split(".")): raw
                 for dest, raw in vars(args).items() if "." in dest}
    if args.seed is not None:
        overrides[("run", "base_seed")] = args.seed
        overrides[("run", "n_seeds")] = "1"
    return overrides


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, config_overrides(args))
        return COMMANDS[args.command](cfg, args)
    except ModalMetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
