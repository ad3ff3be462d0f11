"""Trainable embedder, classifier and discriminator heads, and their
hand-written backward passes, plus the Adam optimizer, cosine learning
rate schedule, and checkpoint serialization.

The embedder is a single affine map with a per-modality additive offset,
followed by L2 normalization: row_i = normalize(W^T x_i + b + off[m_i]).
Backward applies the normalization Jacobian (I - e e^T)/||z|| before the
affine Jacobians. All parameters are float64.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
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
    b_d: np.ndarray  # 0-d array so the optimizer can treat it uniformly


@dataclass
class ModelParams:
    embedder: EmbedderParams
    classifier: ClassifierParams
    discriminator: DiscriminatorParams

    def tensors(self):
        """Flat name -> array view of every parameter tensor. The arrays
        are shared, not copied, so in-place optimizer updates apply."""
        return {
            "embedder.W": self.embedder.W,
            "embedder.b": self.embedder.b,
            "embedder.modality_offset": self.embedder.modality_offset,
            "classifier.W_c": self.classifier.W_c,
            "discriminator.w_d": self.discriminator.w_d,
            "discriminator.b_d": self.discriminator.b_d,
        }


def init_params(d_in, d_emb, n_classes, rng):
    """Draw fresh parameters: Gaussian weights scaled by 1/sqrt(fan_in),
    zero biases and zero modality offsets."""
    if d_emb < 2:
        raise ValueError("d_emb must be >= 2")
    embedder = EmbedderParams(
        W=rng.standard_normal((d_in, d_emb)) / np.sqrt(d_in),
        b=np.zeros(d_emb),
        modality_offset=np.zeros((2, d_emb)),
    )
    classifier = ClassifierParams(
        W_c=rng.standard_normal((n_classes, d_emb)) / np.sqrt(d_emb)
    )
    discriminator = DiscriminatorParams(
        w_d=rng.standard_normal(d_emb) / np.sqrt(d_emb),
        b_d=np.zeros(()),
    )
    return ModelParams(embedder, classifier, discriminator)


@dataclass
class EmbedCache:
    """Forward-pass intermediates needed by embed_backward."""

    features: np.ndarray
    modalities: np.ndarray
    pre_norm: np.ndarray
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
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    e = z / np.maximum(norms, EPS_NORM)
    cache = EmbedCache(x, mods, z, norms[:, 0], e)
    return e, cache


def embed_backward(cache, grad_output):
    """Pull a gradient w.r.t. the normalized embeddings back to the
    embedder parameters.

    The normalization Jacobian projects out the component of the upstream
    gradient parallel to each embedding row, then divides by the
    pre-normalization norm; degenerate rows (norm below the eps floor)
    were scaled by 1/eps in the forward and get the matching Jacobian.

    Returns:
        dict with keys "W", "b", "modality_offset".
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

    d_w = cache.features.T @ dz
    d_b = dz.sum(axis=0)
    d_off = np.zeros((2, dz.shape[1]))
    np.add.at(d_off, cache.modalities, dz)
    return {"W": d_w, "b": d_b, "modality_offset": d_off}


@dataclass
class AdamState:
    """First/second moment accumulators per parameter tensor and the
    shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS


def adam_step(params, grads, state, lr):
    """One bias-corrected Adam update, in place.

    Args:
        params: dict name -> parameter array (updated in place).
        grads: dict with a gradient array per parameter name; missing
            names are treated as zero gradient (their moments still decay
            consistently with an explicit zero).
        state: AdamState; accumulators are created lazily per tensor.
        lr: learning rate for this step.

    Returns:
        (params, state).

    Raises:
        NumericError: on any non-finite gradient entry.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}")
        if np.shape(g) != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = np.asarray(grads.get(name, np.zeros_like(p)), dtype=np.float64)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def cosine_lr(base_lr, t, total_iters):
    """Half-cosine decay from base_lr at t=0 to zero at t=total_iters."""
    if not 0 <= t <= total_iters:
        raise ValueError(f"t must be in [0, {total_iters}], got {t}")
    return float(base_lr * 0.5 * (1.0 + np.cos(np.pi * t / total_iters)))


CHECKPOINT_FORMAT = "modalmetric-checkpoint-v1"


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
    text = json.dumps(payload, indent=1, sort_keys=True)
    from .fsutil import atomic_write_text

    atomic_write_text(path, text)


def load_checkpoint(path):
    """Inverse of save_checkpoint.

    Returns:
        (params: ModelParams, meta: dict).

    Raises:
        ValueError: if the file is not a checkpoint, or a tensor's shape
            is not a list of non-negative ints whose product is the
            length of its data.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")

    def tensor(name):
        entry = payload["tensors"][name]
        data = np.array(entry["data"], dtype=np.float64)
        shape = entry["shape"]
        # reshape would fill in a -1 dimension rather than reject it
        if not (isinstance(shape, list)
                and all(type(n) is int and n >= 0 for n in shape)
                and math.prod(shape) == data.size):
            raise ValueError(
                f"{name}: shape {shape!r} does not fit {data.size} values"
            )
        return data.reshape(shape)

    params = ModelParams(
        embedder=EmbedderParams(
            W=tensor("embedder.W"),
            b=tensor("embedder.b"),
            modality_offset=tensor("embedder.modality_offset"),
        ),
        classifier=ClassifierParams(W_c=tensor("classifier.W_c")),
        discriminator=DiscriminatorParams(
            w_d=tensor("discriminator.w_d"),
            b_d=tensor("discriminator.b_d"),
        ),
    )
    return params, payload["meta"]
