"""Training loop: PK-sampled batches, per-method loss recipes, Adam with
cosine decay, per-iteration diagnostics rows, and the alternating
generator/discriminator schedule for the adversarial variant.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, PKSampler
from .errors import ConfigError, NumericError
from .losses import (
    ALL_KINDS,
    LossConfig,
    adversarial_d_loss,
    adversarial_g_loss,
    softmax_ce,
    weighted_embedding_loss,
)
from .mining import TripletKind, mining_plan
from .model import (
    AdamState,
    ModelParams,
    adam_step,
    cosine_lr,
    embed_backward,
    embed_forward,
    init_params,
)

# method tag -> (triplet kinds, gradient weighting, adversarial heads);
# the only place a training recipe is defined. The last five are the loss
# ablation's rows that no method above trains.
METHOD_RECIPES = {
    "cls-only": ((), False, False),
    "baseline": ((TripletKind.CROSS,), False, False),
    "mathm": (ALL_KINDS, True, False),
    "gan": ((TripletKind.CROSS,), False, True),
    "within": ((TripletKind.WITHIN,), False, False),
    "hybrid": ((TripletKind.HYBRID,), False, False),
    "cross+within": ((TripletKind.CROSS, TripletKind.WITHIN), False, False),
    "cross+hybrid": ((TripletKind.CROSS, TripletKind.HYBRID), False, False),
    "mathm-nogw": (ALL_KINDS, False, False),
}

KIND_TAGS = {
    TripletKind.CROSS: "cross",
    TripletKind.WITHIN: "in",
    TripletKind.HYBRID: "hyb",
}


@dataclass
class TrainConfig:
    """Knobs for one training run; `method` names its recipe in
    METHOD_RECIPES."""

    method: str = "mathm"
    d_emb: int = 16
    classes_per_batch: int = 8
    samples_per_class: int = 4
    base_lr: float = 1e-4
    total_iters: int = 2000
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)
    # The discriminator must track the embedder for the adversarial
    # game to reach alignment rather than oscillate; a shallow one-layer
    # head at the shared base_lr lags badly at desk scale, so it gets a
    # faster clock. Mirrors the 10:1 spread between fresh heads and the
    # 0.1x-lr backbone in the usual pretrained setup.
    disc_lr_scale: float = 100.0

    def __post_init__(self):
        if self.method not in METHOD_RECIPES:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of "
                f"{sorted(METHOD_RECIPES)}"
            )
        if self.total_iters < 1:
            raise ConfigError("total_iters must be >= 1")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if self.d_emb < 2:
            raise ConfigError("d_emb must be >= 2")
        if self.classes_per_batch < 2:
            raise ConfigError(
                "classes_per_batch must be >= 2 "
                "(a triplet needs a negative class)"
            )
        if self.samples_per_class < 2:
            raise ConfigError(
                "samples_per_class must be >= 2 "
                "(a triplet needs a same-class, same-modality positive)"
            )
        if self.disc_lr_scale <= 0:
            raise ConfigError("disc_lr_scale must be positive")

    def to_dict(self):
        """JSON-serializable snapshot, stored in checkpoints: the fields,
        with the loss knobs flattened in."""
        out = asdict(self)
        out.update(out.pop("loss"))
        return out


@dataclass
class TrainResult:
    params: object
    log: list


def _sigmoid(x):
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _adversarial(params, embeddings, photo, objective):
    """One pass through the discriminator head sigmoid(E @ w_d + b_d):
    `objective` scores the (B,) scores against the `photo` mask, and its
    (B,) gradient is pulled back through the sigmoid. Returns (value,
    d_raw), d_raw the gradient on the head's pre-activations: the rows'
    is d_raw[:, None] * w_d, and the head's (E.T @ d_raw, d_raw.sum())."""
    scores = _sigmoid(embeddings @ params.discriminator.w_d
                      + params.discriminator.b_d)
    report = objective(scores, photo)
    return report.value, report.grad * scores * (1.0 - scores)


@np.errstate(over="ignore", invalid="ignore")
def train(dataset: Dataset, config: TrainConfig):
    """Run the full optimization on one dataset.

    One shared rng (seeded from config.seed) drives parameter init and
    batch sampling, so runs are bit-reproducible. Each iteration appends
    one dict row of diagnostics; every row has the same keys in the same
    order, and they are the columns of the training log.

    Raises:
        ConfigError: if the parameters are too large to allocate.
        NumericError: if any loss, gradient or pre-normalization
            embedding norm turns non-finite, naming the iteration. These
            checks report overflow, so numpy's overflow and invalid-value
            warnings are off inside train.
    """
    kinds, weighting, adversarial = METHOD_RECIPES[config.method]
    rng = np.random.default_rng(config.seed)
    try:
        params = init_params(dataset.d_in, config.d_emb, dataset.n_classes,
                             rng)
    except (MemoryError, ValueError):
        # numpy raises ValueError for shapes past the address space
        raise ConfigError(
            f"parameters for d_in={dataset.d_in}, d_emb={config.d_emb} and "
            f"{dataset.n_classes} classes are too large to allocate"
        ) from None
    sampler = PKSampler(
        dataset, config.classes_per_batch, config.samples_per_class, rng
    )
    # which batch rows share a class and a modality is the same for every
    # batch, so the candidate sets are too
    plan = mining_plan(*sampler.layout(), kinds) if kinds else None
    features = dataset.features
    labels = dataset.labels
    modalities = dataset.modalities

    # one flat gradient buffer, laid out like params.vector
    grads = ModelParams(np.zeros_like(params.vector), params.shapes)
    g_w, g_b, g_offset, g_wc, g_wd, g_bd = grads.tensors().values()
    (main, main_layout), (disc, disc_layout) = params.groups()
    main_params, main_grads = params.vector[main], grads.vector[main]
    disc_params, disc_grads = params.vector[disc], grads.vector[disc]
    main_state = AdamState(main_layout)
    disc_state = AdamState(disc_layout)

    log = []
    for it in range(config.total_iters):
        lr = cosine_lr(config.base_lr, it, config.total_iters)
        idx = sampler.sample()
        x = features[idx]
        y = labels[idx]
        mods = modalities[idx]
        photo = mods == 1

        embeddings, cache = embed_forward(params.embedder, x, mods)
        # a row whose norm overflows would normalize to zeros
        if not cache.norms.max() < np.inf:  # NaN fails too
            raise NumericError(
                f"non-finite embedding norm at iteration {it}")
        logits = embeddings @ params.classifier.W_c.T
        cls = softmax_ce(logits, y)
        d_wc = cls.grad.T @ embeddings
        # the classification gradient on the embedding rows
        cls_grad = cls.grad @ params.classifier.W_c

        row = {"iter": it, "lr": lr, "l_cls": cls.value}
        if kinds:
            bundle = weighted_embedding_loss(
                embeddings, plan, config.loss, weighting
            )
            lam = config.loss.lam
            d_embed = cls_grad + lam * bundle.grad
            value = float(cls.value + lam * bundle.value)
            for k, v in zip(kinds, bundle.values):
                row[f"l_{KIND_TAGS[k]}"] = v
            for k, g in zip(kinds, bundle.fractions):
                row[f"g_{KIND_TAGS[k]}"] = g
            if weighting:
                for k, w in zip(kinds, bundle.weights):
                    row[f"w_{KIND_TAGS[k]}"] = float(w)
        else:
            d_embed = cls_grad
            value = cls.value

        if adversarial:
            row["l_adv_g"], d_raw = _adversarial(
                params, embeddings, photo, adversarial_g_loss)
            d_embed = d_embed + d_raw[:, None] * params.discriminator.w_d
            value = value + row["l_adv_g"]

        if not np.isfinite(value):
            raise NumericError(f"non-finite loss at iteration {it}")
        grads_e = embed_backward(cache, d_embed)
        g_w[...] = grads_e["W"]
        g_b[...] = grads_e["b"]
        g_offset[...] = grads_e["modality_offset"]
        g_wc[...] = d_wc
        adam_step(main_params, main_grads, main_state, lr)

        if adversarial:
            # Discriminator step on the freshly updated (frozen) embedder.
            fresh, _ = embed_forward(params.embedder, x, mods)
            row["l_adv_d"], d_raw = _adversarial(
                params, fresh, photo, adversarial_d_loss)
            g_wd[...] = fresh.T @ d_raw
            g_bd[...] = d_raw.sum()
            adam_step(disc_params, disc_grads, disc_state,
                      lr * config.disc_lr_scale)

        row["l_total"] = float(value)
        log.append(row)

    return TrainResult(params, log)


def ablation_variants(config: TrainConfig):
    """The eight rows of the loss ablation: classification only, each
    triplet loss alone, the two pairs anchored on the cross-modality
    loss, and all three losses with and without gradient weighting.

    Returns:
        list of (row_name, TrainConfig), each row's config `config` with
        the method tag that trains it.
    """
    rows = [
        ("cls-only", "cls-only"),
        ("cross", "baseline"),
        ("within", "within"),
        ("hybrid", "hybrid"),
        ("cross+within", "cross+within"),
        ("cross+hybrid", "cross+hybrid"),
        ("all", "mathm-nogw"),
        ("all+gw", "mathm"),
    ]
    return [(name, replace(config, method=tag)) for name, tag in rows]
