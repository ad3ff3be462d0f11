"""Trainable embedder, classifier and discriminator heads, and their
hand-written backward passes, plus the Adam optimizer, cosine learning
rate schedule, and checkpoint serialization.

The embedder is a single affine map with a per-modality additive offset,
followed by L2 normalization: row_i = normalize(W^T x_i + b + off[m_i]).
Backward applies the normalization Jacobian (I - e e^T)/||z|| before the
affine Jacobians. All parameters are float64 views into one vector,
and Adam updates each parameter group's slice of it at once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .fsutil import atomic_write_text, json_text
from .geometry import EPS_NORM

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class EmbedderParams:
    """Affine embedder weights: W (d_in, d_emb), bias b (d_emb,), and one
    additive offset row per modality (2, d_emb)."""

    W: np.ndarray
    b: np.ndarray
    modality_offset: np.ndarray


@dataclass
class ClassifierParams:
    """Class-proxy weight matrix W_c (C, d_emb); logits = E @ W_c.T with
    no bias and no temperature."""

    W_c: np.ndarray


@dataclass
class DiscriminatorParams:
    """One affine map to a modality score: sigmoid(E @ w_d + b_d)."""

    w_d: np.ndarray
    b_d: np.ndarray  # 0-d


# Storage order of the parameter tensors in ModelParams.vector. The
# first MAIN_TENSORS form the main group (embedder and classifier), the
# rest the discriminator group; each group is one contiguous slice of
# the vector, so one set of Adam array ops updates it.
TENSOR_NAMES = (
    "embedder.W",
    "embedder.b",
    "embedder.modality_offset",
    "classifier.W_c",
    "discriminator.w_d",
    "discriminator.b_d",
)
MAIN_TENSORS = 4


@dataclass
class ModelParams:
    """Every parameter tensor as a named, shaped view into one float64
    vector, laid out in TENSOR_NAMES order; `shapes` holds one shape per
    name.

    The same class lays out a gradient buffer: built over a vector of
    the same size and the same shapes, its views line up entry for entry
    with the parameters'.
    """

    vector: np.ndarray
    shapes: tuple
    embedder: EmbedderParams = field(init=False)
    classifier: ClassifierParams = field(init=False)
    discriminator: DiscriminatorParams = field(init=False)

    def __post_init__(self):
        w, b, offset, w_c, w_d, b_d = self.tensors().values()
        self.embedder = EmbedderParams(w, b, offset)
        self.classifier = ClassifierParams(w_c)
        self.discriminator = DiscriminatorParams(w_d, b_d)

    def tensors(self):
        """Flat name -> array view of every parameter tensor. The arrays
        are views of `vector`, not copies, so in-place updates of either
        show in both."""
        views, start = {}, 0
        for name, shape in zip(TENSOR_NAMES, self.shapes):
            size = math.prod(shape)
            views[name] = self.vector[start:start + size].reshape(shape)
            start += size
        return views

    def groups(self):
        """The main and the discriminator group, each as (slice of
        `vector`, ((tensor name, size), ...) in storage order)."""
        layout = tuple((name, math.prod(shape))
                       for name, shape in zip(TENSOR_NAMES, self.shapes))
        split = sum(size for _, size in layout[:MAIN_TENSORS])
        return ((slice(0, split), layout[:MAIN_TENSORS]),
                (slice(split, len(self.vector)), layout[MAIN_TENSORS:]))


def model_shapes(d_in, d_emb, n_classes):
    """The shape of every tensor of one model, in TENSOR_NAMES order."""
    return ((d_in, d_emb), (d_emb,), (2, d_emb), (n_classes, d_emb),
            (d_emb,), ())


def init_params(d_in, d_emb, n_classes, rng):
    """Draw fresh parameters: Gaussian weights scaled by 1/sqrt(fan_in),
    zero biases and zero modality offsets."""
    if d_emb < 2:
        raise ValueError("d_emb must be >= 2")
    shapes = model_shapes(d_in, d_emb, n_classes)
    params = ModelParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
    params.embedder.W[...] = rng.standard_normal((d_in, d_emb)) / np.sqrt(d_in)
    params.classifier.W_c[...] = (
        rng.standard_normal((n_classes, d_emb)) / np.sqrt(d_emb)
    )
    params.discriminator.w_d[...] = rng.standard_normal(d_emb) / np.sqrt(d_emb)
    return params


@dataclass
class EmbedCache:
    """Forward-pass intermediates needed by embed_backward."""

    features: np.ndarray
    modalities: np.ndarray
    norms: np.ndarray
    embeddings: np.ndarray


def embed_forward(params, features, modalities):
    """Map raw features to unit-norm embedding rows.

    Args:
        params: EmbedderParams.
        features: (B, d_in) raw inputs.
        modalities: (B,) modality flags selecting the additive offset.

    Returns:
        (embeddings, cache): (B, d_emb) unit rows plus the cache for the
        backward pass.
    """
    x = np.asarray(features, dtype=np.float64)
    mods = np.asarray(modalities, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != params.W.shape[0]:
        raise ValueError(
            f"features must be (B, {params.W.shape[0]}), got {x.shape}"
        )
    z = x @ params.W + params.b + params.modality_offset[mods]
    # the reduction np.linalg.norm(axis=1) runs, without its Python layer
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    e = z / np.maximum(norms, EPS_NORM)
    cache = EmbedCache(x, mods, norms[:, 0], e)
    return e, cache


def embed_backward(cache, grad_output, out):
    """Pull a gradient w.r.t. the normalized embeddings back to the
    embedder parameters, written into `out`, an EmbedderParams (in
    training, the embedder's views of the gradient buffer).

    The normalization Jacobian projects out the component of the upstream
    gradient parallel to each embedding row, then divides by the
    pre-normalization norm; degenerate rows (norm below the eps floor)
    were scaled by 1/eps in the forward and get the matching Jacobian.
    """
    de = np.asarray(grad_output, dtype=np.float64)
    if de.shape != cache.embeddings.shape:
        raise ValueError(
            f"grad_output shape {de.shape} does not match the cached "
            f"forward output {cache.embeddings.shape}"
        )
    e = cache.embeddings
    norms = np.maximum(cache.norms, EPS_NORM)[:, None]
    degenerate = cache.norms < EPS_NORM
    dz = (de - (de * e).sum(axis=1, keepdims=True) * e) / norms
    if degenerate.any():
        dz[degenerate] = de[degenerate] / EPS_NORM

    np.matmul(cache.features.T, dz, out=out.W)
    dz.sum(axis=0, out=out.b)
    # one in-order bincount: per cell the same sum, in the same order, as
    # a scatter-add over the rows; % 2 wraps negative flags as indexing does
    d = dz.shape[1]
    cells = ((cache.modalities % 2)[:, None] * d + np.arange(d)).ravel()
    out.modality_offset[...] = np.bincount(
        cells, weights=dz.ravel(), minlength=2 * d).reshape(2, d)


@dataclass
class AdamState:
    """First/second moment vectors of one parameter group, laid out like
    the group's slice of the parameter vector, and the step counter.

    `layout` is the group's ((tensor name, size), ...) in storage order;
    it serves only to name the tensor of a non-finite gradient entry.
    """

    layout: tuple
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    t: int = 0

    def __post_init__(self):
        size = sum(n for _, n in self.layout)
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update of a whole parameter group, in place.

    Adam is elementwise, so one set of array ops over the group's flat
    vector gives every entry the bits a per-tensor update would.

    Args:
        params: 1-D float64 vector of the group (updated in place).
        grads: its gradient, same shape.
        state: AdamState of the group.
        lr: learning rate for this step.

    Returns:
        (params, state).

    Raises:
        NumericError: on any non-finite gradient entry, naming the tensor
            that holds the first one.
    """
    if grads.shape != params.shape or params.shape != state.m.shape:
        raise ValueError(
            f"gradient shape mismatch: params {params.shape}, gradient "
            f"{grads.shape}, moments {state.m.shape}"
        )
    if not np.isfinite(grads).all():
        first = int(np.flatnonzero(~np.isfinite(grads))[0])
        for name, size in state.layout:
            if first < size:
                break
            first -= size
        raise NumericError(f"non-finite gradient for {name}")
    state.t += 1
    t = state.t
    m = state.m
    v = state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    params -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def cosine_lr(base_lr, t, total_iters):
    """Half-cosine decay from base_lr at t=0 to zero at t=total_iters."""
    if not 0 <= t <= total_iters:
        raise ValueError(f"t must be in [0, {total_iters}], got {t}")
    return float(base_lr * 0.5 * (1.0 + np.cos(np.pi * t / total_iters)))


CHECKPOINT_FORMAT = "modalmetric-checkpoint-v2"


def save_checkpoint(path, params, meta):
    """Serialize every parameter tensor plus run metadata as JSON.

    Floats are emitted at full round-trip precision, so load followed by
    save reproduces the file byte for byte.
    """
    payload = {"format": CHECKPOINT_FORMAT, "meta": meta, "tensors": {}}
    for name, arr in params.tensors().items():
        payload["tensors"][name] = {
            "shape": list(arr.shape),
            "data": np.asarray(arr, dtype=np.float64).ravel().tolist(),
        }
    atomic_write_text(path, [json_text(payload, 1)])


def load_checkpoint(path):
    """Inverse of save_checkpoint.

    Returns:
        (params: ModelParams, meta: dict).

    Raises:
        ValueError: if the file is not a checkpoint, or a tensor's shape
            is not a list of non-negative ints whose product is the
            length of its data, or a value is past the float64 range.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")

    data, shapes = [], []
    for name in TENSOR_NAMES:
        entry = payload["tensors"][name]
        try:
            values = np.array(entry["data"], dtype=np.float64)
        except OverflowError:
            raise ValueError(f"{name}: a value is past the float64 range"
                             ) from None
        shape = entry["shape"]
        # reshape would fill in a -1 dimension rather than reject it
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)
                and math.prod(shape) == values.size):
            raise ValueError(
                f"{name}: shape {shape!r} does not fit {values.size} values"
            )
        data.append(values.ravel())
        shapes.append(tuple(shape))
    return ModelParams(np.concatenate(data), tuple(shapes)), payload["meta"]
