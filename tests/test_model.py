"""Tests for the embedder forward/backward, optimizer, schedule,
checkpointing, and the training loop."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import modalmetric.training as training
from conftest import LOG_COLUMNS, make_dataset, step_gradient_error
from modalmetric import (
    AdamState,
    ConfigError,
    NumericError,
    SyntheticConfig,
    TrainConfig,
    adam_step,
    generate_synthetic,
    train,
)
from modalmetric.geometry import EPS_NORM
from modalmetric.losses import LossConfig, softmax_ce
from modalmetric.mining import TripletKind, mining_plan
from modalmetric.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    EmbedderParams,
    ModelParams,
    cosine_lr,
    embed_backward,
    embed_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from modalmetric.cli import ABLATION_METHODS, main
from modalmetric.training import (KIND_TAGS, METHOD_RECIPES, disc_step,
                                  main_step)
from oracles import finite_diff_check


def small_dataset(seed=5):
    return generate_synthetic(
        SyntheticConfig(n_classes=4, samples_per_class_per_modality=6,
                        d_in=8, sigma=0.2, offset_norm=0.5, seed=seed)
    )


def zero_embedder(like):
    """An all-zero EmbedderParams shaped like `like`, for embed_backward
    to write into."""
    return EmbedderParams(np.zeros_like(like.W), np.zeros_like(like.b),
                          np.zeros_like(like.modality_offset))


def embedder_grads(params, cache, grad_output):
    """embed_backward's gradient, written into a fresh zero_embedder."""
    grads = zero_embedder(params)
    embed_backward(cache, grad_output, grads)
    return grads


def small_config(method, iters=30, **kw):
    kw.setdefault("d_emb", 4)
    kw.setdefault("classes_per_batch", 3)
    kw.setdefault("samples_per_class", 2)
    kw.setdefault("total_iters", iters)
    return TrainConfig(method=method, **kw)


class TestEmbedForward:
    def _identity_embedder(self):
        return EmbedderParams(
            W=np.eye(2), b=np.zeros(2), modality_offset=np.zeros((2, 2))
        )

    def test_normalized_affine(self):
        params = self._identity_embedder()
        e, cache = embed_forward(params, np.array([[3.0, 4.0]]), np.array([0]))
        assert_allclose(e, [[0.6, 0.8]], rtol=1e-12)
        assert_allclose(cache.norms, [5.0], rtol=1e-12)

    def test_offset_selected_by_modality(self):
        params = self._identity_embedder()
        params.modality_offset = np.array([[0.0, 0.0], [10.0, 0.0]])
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        e, _ = embed_forward(params, x, np.array([0, 1]))
        assert_allclose(e[0], [0.0, 1.0], atol=1e-12)
        assert_allclose(e[1], np.array([10.0, 1.0]) / np.sqrt(101.0), rtol=1e-12)

    def test_unit_rows(self):
        rng = np.random.default_rng(0)
        params = init_params(6, 4, 3, rng)
        x = rng.standard_normal((20, 6))
        mods = rng.integers(0, 2, size=20)
        e, _ = embed_forward(params.embedder, x, mods)
        assert_allclose(np.linalg.norm(e, axis=1), np.ones(20), atol=1e-12)

    def test_norms_are_linalg_norm(self):
        # the row norms are np.linalg.norm's bit for bit on random, zero,
        # tiny (< EPS_NORM) and overflowing rows; the identity embedder
        # passes the rows through exactly
        rng = np.random.default_rng(2)
        params = EmbedderParams(np.eye(4), np.zeros(4), np.zeros((2, 4)))
        x = np.vstack((rng.standard_normal((6, 4)), np.zeros((1, 4)),
                       rng.standard_normal((2, 4)) * 1e-14,
                       np.full((1, 4), 1e-170), np.full((1, 4), 1e154),
                       [[1e155, 0.0, 0.0, 0.0]], np.full((1, 4), 1e200)))
        with np.errstate(over="ignore"):
            _, cache = embed_forward(params, x, np.zeros(len(x), dtype=int))
            want = np.linalg.norm(x, axis=1)
        assert_array_equal(cache.norms, want)
        assert (cache.norms[6:10] < EPS_NORM).all()
        assert np.isinf(cache.norms[10:]).all()
        # train still stops at an infinite norm
        ds = small_dataset()
        huge = make_dataset(ds.features * 1e200, ds.labels, ds.modalities)
        with pytest.raises(NumericError,
                           match="non-finite embedding norm at iteration 0"):
            train(huge, small_config("mathm", iters=2))

    def test_feature_shape_error(self):
        params = self._identity_embedder()
        with pytest.raises(ValueError, match=r"\(B, 2\)"):
            embed_forward(params, np.zeros((3, 5)), np.zeros(3, dtype=int))


class TestEmbedBackward:
    def _setup(self, seed=1, b=12):
        rng = np.random.default_rng(seed)
        params = init_params(5, 3, 2, rng).embedder
        x = rng.standard_normal((b, 5))
        mods = rng.integers(0, 2, size=b)
        return params, x, mods

    def test_parallel_upstream_vanishes(self):
        # gradient components along the embedding direction are projected
        # out by the normalization Jacobian
        params, x, mods = self._setup()
        e, cache = embed_forward(params, x, mods)
        grads = embedder_grads(params, cache, 3.0 * e)
        for g in vars(grads).values():
            assert_allclose(g, np.zeros_like(g), atol=1e-12)

    def test_zero_upstream(self):
        params, x, mods = self._setup()
        _, cache = embed_forward(params, x, mods)
        # the gradient is written over whatever `out` held
        grads = EmbedderParams(np.ones_like(params.W), np.ones_like(params.b),
                               np.ones_like(params.modality_offset))
        embed_backward(cache, np.zeros_like(cache.embeddings), grads)
        for g in vars(grads).values():
            assert_array_equal(g, np.zeros_like(g))

    def test_finite_diff_linear_readout(self):
        # smooth scalar functional of the embeddings: tight agreement
        params, x, mods = self._setup(seed=2)
        rng = np.random.default_rng(3)
        r = rng.standard_normal((len(x), 3))

        def loss_of(name, value):
            p = EmbedderParams(params.W.copy(), params.b.copy(),
                               params.modality_offset.copy())
            setattr(p, name, value)
            e, _ = embed_forward(p, x, mods)
            return float((e * r).sum())

        e, cache = embed_forward(params, x, mods)
        grads = embedder_grads(params, cache, r)
        for attr in ("W", "b", "modality_offset"):
            err = finite_diff_check(
                lambda v, a=attr: loss_of(a, v), getattr(params, attr),
                getattr(grads, attr)
            )
            assert err < 1e-6, attr

    def test_degenerate_row(self):
        # a row under the norm floor was scaled by 1 / EPS_NORM in the
        # forward, so its whole upstream gradient passes through scaled
        # the same; a norm of half the floor keeps the projection term
        # the plain Jacobian would subtract far from underflow
        d = 3
        params = EmbedderParams(np.zeros((2, d)),
                                np.array([0.3, 0.4, 0.0]) * EPS_NORM,
                                np.zeros((2, d)))
        _, cache = embed_forward(params, np.ones((1, 2)), np.array([1]))
        assert cache.norms[0] < EPS_NORM
        de = np.array([[1.0, -2.0, 0.5]])
        assert (de * cache.embeddings).sum() != 0.0
        grads = embedder_grads(params, cache, de)
        assert_array_equal(grads.b, de[0] / EPS_NORM)
        assert_array_equal(grads.modality_offset[1], de[0] / EPS_NORM)

    def test_shape_error(self):
        params, x, mods = self._setup()
        _, cache = embed_forward(params, x, mods)
        with pytest.raises(ValueError, match="grad_output"):
            embed_backward(cache, np.zeros((2, 3)), zero_embedder(params))


def one_tensor(size=1):
    """AdamState of a group holding one tensor "a" of `size` entries."""
    return AdamState((("a", size),))


class TestAdamStep:
    def test_zero_gradient_is_identity(self):
        p = np.array([1.0, -2.0])
        adam_step(p, np.zeros(2), one_tensor(2), 0.1)
        assert_array_equal(p, [1.0, -2.0])

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~lr regardless of scale
        p = np.array([1.0])
        adam_step(p, np.array([1.0]), one_tensor(), 0.1)
        assert_allclose(p, [0.9], atol=1e-8)

    def test_first_step_on_tiny_gradient(self):
        # m_hat = g and sqrt(v_hat) = |g|, so the step is lr g/(|g| + eps):
        # half of lr when |g| equals ADAM_EPS
        p = np.array([0.0])
        adam_step(p, np.array([1e-8]), one_tensor(), 0.1)
        assert p[0] == pytest.approx(-0.1 / 2, rel=1e-12)

    def test_in_place_update(self):
        arr = np.array([1.0])
        out, _ = adam_step(arr, np.array([0.5]), one_tensor(), 0.1)
        assert out is arr
        assert arr[0] != 1.0

    def test_deterministic(self):
        def run():
            p = np.array([1.0, 2.0])
            s = one_tensor(2)
            rng = np.random.default_rng(0)
            for _ in range(10):
                adam_step(p, rng.standard_normal(2), s, 0.05)
            return p

        assert_array_equal(run(), run())

    def test_non_finite_gradient(self):
        p = np.array([1.0])
        with pytest.raises(NumericError, match="a"):
            adam_step(p, np.array([np.nan]), one_tensor(), 0.1)

    def test_shape_mismatch(self):
        p = np.array([1.0])
        with pytest.raises(ValueError, match="shape"):
            adam_step(p, np.zeros(2), one_tensor(), 0.1)


class DictAdamState:
    """Per-tensor moments of the reference optimizer."""

    def __init__(self):
        self.m, self.v, self.t = {}, {}, 0


def dict_adam_step(params, grads, state, lr):
    """The per-tensor Adam loop over a dict of tensors that the flat
    update replaced: the reference it must equal bit for bit."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_embed_backward(cache, grad_output):
    """embed_backward with the offset gradient scattered by np.add.at."""
    de = np.asarray(grad_output, dtype=np.float64)
    e = cache.embeddings
    norms = np.maximum(cache.norms, EPS_NORM)[:, None]
    degenerate = cache.norms < EPS_NORM
    dz = (de - (de * e).sum(axis=1, keepdims=True) * e) / norms
    if degenerate.any():
        dz[degenerate] = de[degenerate] / EPS_NORM
    d_off = np.zeros((2, dz.shape[1]))
    np.add.at(d_off, cache.modalities, dz)
    return EmbedderParams(cache.features.T @ dz, dz.sum(axis=0), d_off)


class TestFlatTrainingStepOracle:
    """The flat parameter vector, the group Adam update and the bincount
    offset gradient must reproduce the per-tensor loop and the np.add.at
    scatter bit for bit: artifact byte-identity rests on it."""

    def test_group_adam_equals_dict_loop(self):
        rng = np.random.default_rng(61)
        # mixed shapes, with the 0-d discriminator bias
        params = init_params(5, 3, 4, rng)
        ref = {name: arr.copy() for name, arr in params.tensors().items()}
        grads = ModelParams(np.zeros_like(params.vector), params.shapes)
        (main, main_layout), (disc, disc_layout) = params.groups()
        assert [n for n, _ in main_layout + disc_layout] == list(ref)
        assert ref["discriminator.b_d"].shape == ()
        groups = [(main, main_layout, 1e-3, AdamState(main_layout),
                   DictAdamState()),
                  (disc, disc_layout, 0.1, AdamState(disc_layout),
                   DictAdamState())]
        for step in range(50):
            # gradients over ten orders of magnitude, some entries zero
            grads.vector[:] = (rng.standard_normal(grads.vector.size)
                               * 10.0 ** rng.uniform(-8, 2, grads.vector.size)
                               * (rng.random(grads.vector.size) > 0.1))
            g = grads.tensors()
            for group, layout, lr, state, ref_state in groups:
                adam_step(params.vector[group], grads.vector[group], state,
                          lr * (1 + step % 3))
                names = [n for n, _ in layout]
                dict_adam_step({n: ref[n] for n in names},
                               {n: g[n] for n in names},
                               ref_state, lr * (1 + step % 3))
            for name, arr in params.tensors().items():
                assert_array_equal(arr, ref[name], err_msg=name)
        for _, layout, _, state, ref_state in groups:
            for moment, ref_moment in ((state.m, ref_state.m),
                                       (state.v, ref_state.v)):
                assert_array_equal(moment, np.concatenate(
                    [ref_moment[n].ravel() for n, _ in layout]))
            assert state.t == ref_state.t == 50

    def test_views_share_the_vector(self):
        params = init_params(4, 2, 3, np.random.default_rng(62))
        params.vector[:] = np.arange(params.vector.size)
        assert params.embedder.W[0, 1] == 1.0
        assert params.discriminator.b_d == params.vector.size - 1
        main, disc = params.groups()
        assert main[0] == slice(0, 8 + 2 + 4 + 6)
        assert disc[1] == (("discriminator.w_d", 2), ("discriminator.b_d", 1))

    def test_non_finite_names_first_bad_tensor(self):
        layout = (("w", 6), ("b", 3), ("c", 1))
        p = np.ones(10)
        g = np.zeros(10)
        g[7] = np.nan
        g[9] = np.inf
        state = AdamState(layout)
        with pytest.raises(NumericError, match="for b$"):
            adam_step(p, g, state, 0.1)
        assert_array_equal(p, np.ones(10))
        assert state.t == 0

    def test_non_finite_names_the_tensor_at_each_edge(self):
        # a non-finite entry at a tensor's first or last index names that
        # tensor, the one-entry discriminator bias included
        params = init_params(3, 2, 4, np.random.default_rng(64))
        for _, layout in params.groups():
            size = sum(n for _, n in layout)
            start = 0
            for name, n in layout:
                for i in (start, start + n - 1):
                    g = np.zeros(size)
                    g[i] = np.nan
                    with pytest.raises(NumericError,
                                       match=f"for {re.escape(name)}$"):
                        adam_step(np.zeros(size), g, AdamState(layout), 0.1)
                start += n

    @pytest.mark.parametrize("batch", ["mixed", "sketch_only",
                                       "photo_only", "negative_flags",
                                       "degenerate"])
    def test_embed_backward_equals_add_at(self, batch):
        rng = np.random.default_rng(63)
        for _ in range(30):
            b = int(rng.integers(1, 20))
            params = init_params(6, 4, 3, rng).embedder
            params.b[:] = rng.standard_normal(4) * (batch != "degenerate")
            x = rng.standard_normal((b, 6))
            mods = {"mixed": rng.integers(0, 2, size=b),
                    "sketch_only": np.zeros(b, dtype=int),
                    "photo_only": np.ones(b, dtype=int),
                    "negative_flags": rng.integers(-2, 2, size=b),
                    "degenerate": rng.integers(0, 2, size=b)}[batch]
            if batch == "degenerate":
                # zero and subnormal rows fall under the norm floor
                x[::2] = 0.0
                x[1::3] *= 1e-310
            e, cache = embed_forward(params, x, mods)
            if batch == "degenerate":
                assert (cache.norms < EPS_NORM).any()
            upstream = rng.standard_normal(e.shape)
            got = embedder_grads(params, cache, upstream)
            want = reference_embed_backward(cache, upstream)
            for key in ("W", "b", "modality_offset"):
                assert_array_equal(getattr(got, key), getattr(want, key),
                                   err_msg=key)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.1, 0, 100) == 0.1
        assert_allclose(cosine_lr(0.1, 100, 100), 0.0, atol=1e-17)
        assert_allclose(cosine_lr(0.1, 50, 100), 0.05, rtol=1e-12)

    def test_monotone_decay(self):
        vals = [cosine_lr(1.0, t, 40) for t in range(41)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range_check(self):
        with pytest.raises(ValueError):
            cosine_lr(0.1, -1, 100)
        with pytest.raises(ValueError):
            cosine_lr(0.1, 101, 100)


class TestInitParams:
    def test_shapes(self):
        params = init_params(10, 4, 7, np.random.default_rng(0))
        assert params.embedder.W.shape == (10, 4)
        assert params.embedder.b.shape == (4,)
        assert_array_equal(params.embedder.modality_offset, np.zeros((2, 4)))
        assert params.classifier.W_c.shape == (7, 4)
        assert params.discriminator.w_d.shape == (4,)
        assert params.discriminator.b_d.shape == ()

    def test_deterministic(self):
        a = init_params(6, 3, 4, np.random.default_rng(9))
        b = init_params(6, 3, 4, np.random.default_rng(9))
        for name, arr in a.tensors().items():
            assert_array_equal(arr, b.tensors()[name])

    def test_draws_in_order(self):
        # W, then W_c, then w_d, each scaled by 1/sqrt(fan_in); the rest 0
        params = init_params(6, 3, 4, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        assert_array_equal(params.embedder.W,
                           rng.standard_normal((6, 3)) / np.sqrt(6))
        assert_array_equal(params.classifier.W_c,
                           rng.standard_normal((4, 3)) / np.sqrt(3))
        assert_array_equal(params.discriminator.w_d,
                           rng.standard_normal(3) / np.sqrt(3))
        assert not params.embedder.b.any()
        assert not params.embedder.modality_offset.any()
        assert params.discriminator.b_d == 0.0

    def test_d_emb_floor(self):
        with pytest.raises(ValueError):
            init_params(6, 1, 4, np.random.default_rng(0))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(5, 3, 4, np.random.default_rng(2))
        meta = {"seed": 3, "note": "x"}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, meta)
        loaded, got_meta = load_checkpoint(path)
        assert got_meta == meta
        for name, arr in params.tensors().items():
            assert_array_equal(loaded.tensors()[name], arr)

    def test_save_load_save_byte_identical(self, tmp_path):
        params = init_params(5, 3, 4, np.random.default_rng(2))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(p1, params, {"seed": 0})
        loaded, meta = load_checkpoint(p1)
        save_checkpoint(p2, loaded, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_other_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a"):
            load_checkpoint(path)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown method"):
            TrainConfig(method="resnet")
        with pytest.raises(ConfigError):
            TrainConfig(total_iters=0)
        with pytest.raises(ConfigError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(d_emb=1)
        with pytest.raises(ConfigError):
            TrainConfig(disc_lr_scale=0.0)
        for key, value in (("classes_per_batch", 1),
                           ("classes_per_batch", -3),
                           ("samples_per_class", 1)):
            with pytest.raises(ConfigError, match=key):
                TrainConfig(**{key: value})

    def test_recipes(self):
        # (triplet kinds, gradient weighting, adversarial heads)
        cross, within, hybrid = (TripletKind.CROSS, TripletKind.WITHIN,
                                 TripletKind.HYBRID)
        assert METHOD_RECIPES == {
            "cls-only": ((), False, False),
            "baseline": ((cross,), False, False),
            "mathm": ((cross, within, hybrid), True, False),
            "gan": ((cross,), False, True),
            "within": ((within,), False, False),
            "hybrid": ((hybrid,), False, False),
            "cross+within": ((cross, within), False, False),
            "cross+hybrid": ((cross, hybrid), False, False),
            "mathm-nogw": ((cross, within, hybrid), False, False),
        }

    def test_log_columns(self):
        # the training log's columns are the keys of train's first row
        for method, columns in LOG_COLUMNS.items():
            log = train(small_dataset(), small_config(method, iters=3)).log
            assert list(log[0]) == columns, method


class TestTrain:
    def test_log_rows_match_columns(self):
        ds = small_dataset()
        for method in ("cls-only", "baseline", "mathm", "gan"):
            cfg = small_config(method, iters=3)
            result = train(ds, cfg)
            assert len(result.log) == 3
            for row in result.log:
                assert list(row) == list(result.log[0])

    @pytest.mark.parametrize("method, builds", [
        ("cls-only", 0), ("baseline", 1), ("mathm", 1), ("gan", 1)])
    def test_one_mining_plan_per_run(self, monkeypatch, method, builds):
        calls = []

        def counted(*args):
            calls.append(args)
            return mining_plan(*args)

        monkeypatch.setattr(training, "mining_plan", counted)
        cfg = small_config(method, iters=5)
        train(small_dataset(), cfg)
        assert len(calls) == builds
        for labels, mods, kinds in calls:
            # the sampler's layout: 3 class blocks of 2 sketches, 2 photos
            assert_array_equal(labels, np.repeat(np.arange(3), 4))
            assert_array_equal(mods, np.tile([0, 0, 1, 1], 3))
            assert kinds == METHOD_RECIPES[method][0]

    def test_deterministic(self):
        ds = small_dataset()
        a = train(ds, small_config("mathm", iters=10))
        b = train(ds, small_config("mathm", iters=10))
        for name, arr in a.params.tensors().items():
            assert_array_equal(arr, b.params.tensors()[name])
        assert a.log == b.log

    def test_weighting_identities_in_log(self):
        # per-row invariant: active contributions w*g agree and sum to
        # the active g total; dead losses carry weight zero; the total is
        # L_cls + lam * sum(w * L)
        ds = small_dataset()
        cfg = small_config("mathm", iters=25, loss=LossConfig(lam=2.5))
        result = train(ds, cfg)
        eps = cfg.loss.eps_g
        for row in result.log:
            g = np.array([row["g_cross"], row["g_in"], row["g_hyb"]])
            w = np.array([row["w_cross"], row["w_in"], row["w_hyb"]])
            losses = np.array([row["l_cross"], row["l_in"], row["l_hyb"]])
            assert_allclose(row["l_total"],
                            row["l_cls"] + 2.5 * (w * losses).sum(),
                            rtol=1e-12)
            active = g > eps
            assert_array_equal(w[~active], 0.0)
            if active.any():
                contrib = (w * g)[active]
                assert np.abs(contrib - contrib[0]).max() <= 1e-12
                assert abs(contrib.sum() - g[active].sum()) <= 1e-12

    def test_lambda_zero_matches_cls_only(self):
        # a zero embedding weight scales those gradients away entirely,
        # and neither mining nor weighting consumes rng draws
        ds = small_dataset()
        mathm = train(ds, small_config("mathm", iters=15,
                                       loss=LossConfig(lam=0.0)))
        cls = train(ds, small_config("cls-only", iters=15))
        for name, arr in mathm.params.tensors().items():
            assert_array_equal(arr, cls.params.tensors()[name])

    def test_discriminator_only_moves_for_gan(self):
        ds = small_dataset()
        init = init_params(ds.d_in, 4, ds.n_classes, np.random.default_rng(0))
        plain = train(ds, small_config("mathm", iters=5, seed=0))
        assert_array_equal(plain.params.discriminator.w_d, init.discriminator.w_d)
        gan = train(ds, small_config("gan", iters=5, seed=0))
        assert np.abs(gan.params.discriminator.w_d - init.discriminator.w_d).max() > 0

    def test_classification_accuracy(self):
        # easy, well-separated classes: the classification head must
        # essentially solve the train set
        ds = generate_synthetic(
            SyntheticConfig(n_classes=4, samples_per_class_per_modality=8,
                            d_in=16, sigma=0.05, offset_norm=0.3, seed=1)
        )
        cfg = TrainConfig(method="cls-only", d_emb=8, classes_per_batch=4,
                          samples_per_class=4, base_lr=1e-3, total_iters=400,
                          seed=0)
        result = train(ds, cfg)
        e, _ = embed_forward(result.params.embedder, ds.features, ds.modalities)
        pred = np.argmax(e @ result.params.classifier.W_c.T, axis=1)
        assert (pred == ds.labels).mean() > 0.95

    def test_non_finite_loss_raises(self, monkeypatch):
        ds = small_dataset()

        def bad_softmax(logits, labels):
            report = softmax_ce(logits, labels)
            report.value = float("inf")
            return report

        monkeypatch.setattr("modalmetric.training.softmax_ce", bad_softmax)
        with pytest.raises(NumericError, match="iteration 0"):
            train(ds, small_config("cls-only", iters=2))


class TestStepOracle:
    """Central differences of the value each training step returns, over
    the group of the flat gradient buffer it fills: the gradient train()
    applies, for every recipe. A small model (d_in 8, d_emb 4, 4 classes:
    60 main parameters) keeps each check to about 120 steps."""

    @pytest.mark.parametrize("method", list(METHOD_RECIPES))
    def test_gradient(self, method):
        kinds, _, adversarial = METHOD_RECIPES[method]
        config = small_config(method)
        labels = np.repeat(np.arange(4), 4)
        mods = np.tile([0, 0, 1, 1], 4)
        plan = mining_plan(labels, mods, kinds) if kinds else None
        rng = np.random.default_rng(71)
        for _ in range(5):
            params = init_params(8, 4, 4, rng)
            x = rng.standard_normal((16, 8))
            (main, _), (disc, _) = params.groups()
            assert main.stop == 60

            def main_value(p, g):
                value, entries = main_step(p, g, x, labels, mods, plan,
                                           config)
                if kinds:  # a triplet term that is not vacuous
                    assert any(entries[f"g_{KIND_TAGS[k]}"] > 0
                               for k in kinds)
                return value

            assert step_gradient_error(main_value, params, main) <= 1e-6
            if adversarial:
                assert step_gradient_error(
                    lambda p, g: disc_step(p, g, x, mods), params,
                    disc) <= 1e-6


class TestAblationVariants:
    """The loss ablation's rows are method tags (cli.ABLATION_METHODS),
    each trained under the config the command was given."""

    def test_eight_rows(self):
        assert ABLATION_METHODS == (
            "cls-only", "baseline", "within", "hybrid",
            "cross+within", "cross+hybrid", "mathm-nogw", "mathm")

    def test_recipes_per_row(self):
        cross, within, hybrid = (TripletKind.CROSS, TripletKind.WITHIN,
                                 TripletKind.HYBRID)
        want = {
            "cls-only": ((), False),
            "baseline": ((cross,), False),
            "within": ((within,), False),
            "hybrid": ((hybrid,), False),
            "cross+within": ((cross, within), False),
            "cross+hybrid": ((cross, hybrid), False),
            "mathm-nogw": ((cross, within, hybrid), False),
            "mathm": ((cross, within, hybrid), True),
        }
        assert set(ABLATION_METHODS) == set(want)
        for method in ABLATION_METHODS:
            kinds, weighting, adversarial = METHOD_RECIPES[method]
            assert (kinds, weighting) == want[method]
            assert not adversarial

    def test_preserves_other_knobs(self, tmp_path, monkeypatch):
        from modalmetric import cli

        trained = []

        def recording(dataset, config):
            trained.append(config)
            return train(dataset, config)

        monkeypatch.setattr(cli, "train", recording)
        assert main([
            "ablate", "--out", str(tmp_path), "--method", "gan",
            "--n_classes", "6", "--samples_per_class_per_modality", "4",
            "--d_in", "8", "--n_unseen", "2", "--classes_per_batch", "3",
            "--samples_per_class", "2", "--d_emb", "6", "--total_iters", "3",
            "--margin", "0.3", "--disc_lr_scale", "7", "--base_seed", "11",
            "--n_seeds", "2"]) == 0
        assert [c.method for c in trained] == [
            m for m in ABLATION_METHODS for _ in range(2)]
        assert [c.seed for c in trained] == [11, 12] * 8
        for cfg in trained:
            assert (cfg.d_emb, cfg.total_iters, cfg.classes_per_batch,
                    cfg.disc_lr_scale, cfg.loss.margin) == (6, 3, 3, 7.0, 0.3)
            # the checkpoint snapshot names the recipe by its tag alone
            assert cfg.to_dict()["method"] == cfg.method
