"""Run configuration: sectioned key=value files (INI syntax) with
command-line overrides, resolved into the dataclasses the library
consumes.

Sections mirror the package layout: [data] for the dataset source and
zero-shot split, [train] for the optimization loop, [loss] for margins
and weighting, [eval] for metric knobs, [run] for seeds and output.
"""

import configparser
import math
import os
from dataclasses import dataclass, fields, replace

from .data import (
    CSV_MODALITY_TAGS,
    SyntheticConfig,
    generate_synthetic,
    read_dataset,
    zero_shot_split,
)
from .errors import ConfigError
from .evaluation import DEFAULT_PREC_K
from .losses import LossConfig
from .training import TrainConfig


def _field_schema(cls, skip=()):
    """key -> (type, default) for the dataclass fields not in `skip`."""
    return {f.name: (f.type, f.default) for f in fields(cls)
            if f.name not in skip}


# section -> key -> (type, default); the single source of truth for what
# a config file / override may set. The [data] generator keys, [train]
# and [loss] come from the dataclasses that take them. data.seed seeds
# both the generator and the split.
SCHEMA = {
    "data": {
        "source": (str, "synthetic"),
        **_field_schema(SyntheticConfig, skip=("seed",)),
        "n_unseen": (int, 4),
        "seed": (int, 7),
    },
    "train": _field_schema(TrainConfig, skip=("seed", "loss")),
    "loss": _field_schema(LossConfig),
    "eval": {
        "k": (int, DEFAULT_PREC_K),
        "query_modality": (str, "sketch"),
    },
    "run": {
        "n_seeds": (int, 1),
        "base_seed": (int, 0),
        "out": (str, "runs"),
    },
}


def convert(section, key, raw):
    """`raw` as its key's type; ConfigError, naming the key, if the type
    does not take it or it is a nan or inf float."""
    kind, _ = SCHEMA[section][key]
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"[{section}] {key}: expected {kind.__name__}, got {raw!r}"
        ) from None
    # nan and inf slip past the range checks (nan <= 0 is False) and only
    # surface as a non-finite loss once training has started
    if kind is float and not math.isfinite(value):
        raise ConfigError(
            f"[{section}] {key}: expected a finite float, got {raw!r}"
        )
    return value


@dataclass
class RunConfig:
    """Fully resolved experiment description."""

    data: dict
    train: TrainConfig
    eval_k: int
    query_modality: int
    n_seeds: int
    base_seed: int
    out: str
    # the (section, key) pairs the config file or an override set
    explicit: frozenset

    def seeds(self):
        return range(self.base_seed, self.base_seed + self.n_seeds)

    def train_config(self, seed):
        return replace(self.train, seed=seed)

    def load_data(self):
        """Materialize the dataset and its zero-shot split.

        Returns:
            (train_set, test_set): Datasets with disjoint original
            class ids.

        Raises ConfigError if `data` breaks a rule of its keys or leaves
        fewer than 2 evaluation classes, and DataError if a CSV source
        cannot be read or parsed.
        """
        d = self.data
        # numpy's generators take only non-negative seeds
        if d["seed"] < 0:
            raise ConfigError(f"data.seed must be >= 0, got {d['seed']}")
        if d["source"] == "synthetic":
            synth = SyntheticConfig(
                **{f.name: d[f.name] for f in fields(SyntheticConfig)})
            try:
                full = generate_synthetic(synth)
            except (MemoryError, ValueError):
                # numpy raises ValueError for shapes past the address space
                raise ConfigError(
                    "data.n_classes x data.samples_per_class_per_modality "
                    "x data.d_in is too large to allocate"
                ) from None
            except OverflowError:
                raise ConfigError(f"data.sigma = {synth.sigma!r} and "
                                  f"data.offset_norm = {synth.offset_norm!r} "
                                  "overflow the synthetic features") from None
        else:
            full = read_dataset(d["source"])
        split = zero_shot_split(full, d["n_unseen"], seed=d["seed"])
        if d["n_unseen"] < 2:  # the between-class discrepancy needs two
            raise ConfigError(f"data.n_unseen must be >= 2 to evaluate, "
                              f"got {d['n_unseen']}")
        return split


def load_config(path=None, overrides=None):
    """Assemble a RunConfig from defaults <- the INI file at `path` <-
    `overrides`, a {(section, key): raw} dict as `cli.config_overrides`
    builds from the command line; later sources win."""
    values = {s: {k: v for k, (_, v) in keys.items()}
              for s, keys in SCHEMA.items()}
    explicit = set(overrides or ())
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
            sections = {s: parser.items(s) for s in parser.sections()}
            defaults = parser.defaults()
        except OSError as exc:
            raise ConfigError(
                f"{path}: cannot read config: {exc.strerror or exc}"
            ) from None
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        finally:  # the parser and its section proxies refer to each other
            for obj in [*parser.values(), parser]:
                vars(obj).clear()
        if defaults:  # configparser copies them to every section
            raise ConfigError(f"{path}: keys under [DEFAULT] are not allowed")
        for section, items in sections.items():
            if section not in SCHEMA:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in items:
                if key not in SCHEMA[section]:
                    raise ConfigError(
                        f"{path}: unknown key {key!r} in [{section}]"
                    )
                values[section][key] = convert(section, key, raw)
                explicit.add((section, key))
    for (section, key), raw in (overrides or {}).items():
        values[section][key] = convert(section, key, raw)

    if values["run"]["n_seeds"] < 1:
        raise ConfigError("run.n_seeds must be >= 1")
    if values["run"]["base_seed"] < 0:
        raise ConfigError("run.base_seed must be >= 0, "
                          f"got {values['run']['base_seed']}")
    source = values["data"]["source"]
    if source != "synthetic":
        if not os.path.exists(source):
            raise ConfigError(f"dataset file not found: {source}")
        # a checkpoint records it, so it must not depend on the directory
        values["data"]["source"] = os.path.abspath(source)
    tag = values["eval"]["query_modality"].strip().lower()
    if tag not in CSV_MODALITY_TAGS:
        raise ConfigError(
            f"eval.query_modality must be sketch or photo, got {tag!r}"
        )
    query_modality = CSV_MODALITY_TAGS[tag]
    if values["eval"]["k"] < 1:
        raise ConfigError("eval.k must be >= 1")

    train = TrainConfig(**values["train"], seed=values["run"]["base_seed"],
                        loss=LossConfig(**values["loss"]))
    return RunConfig(
        data=dict(values["data"]),
        train=train,
        eval_k=values["eval"]["k"],
        query_modality=query_modality,
        n_seeds=values["run"]["n_seeds"],
        base_seed=values["run"]["base_seed"],
        out=values["run"]["out"],
        explicit=frozenset(explicit),
    )
