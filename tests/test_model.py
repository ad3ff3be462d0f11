"""Tests for the embedder forward/backward, optimizer, schedule,
checkpointing, and the training loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import modalmetric.training as training
from conftest import LOG_COLUMNS
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
from modalmetric.losses import (
    ALL_KINDS,
    LossConfig,
    adversarial_d_loss,
    adversarial_g_loss,
    softmax_ce,
    weighted_embedding_loss,
)
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
from modalmetric.training import (METHOD_RECIPES, _adversarial,
                                  ablation_variants)
from oracles import finite_diff_check


def small_dataset(seed=5):
    return generate_synthetic(
        SyntheticConfig(n_classes=4, samples_per_class_per_modality=6,
                        d_in=8, sigma=0.2, offset_norm=0.5, seed=seed)
    )


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
        grads = embed_backward(cache, 3.0 * e)
        for g in grads.values():
            assert_allclose(g, np.zeros_like(g), atol=1e-12)

    def test_zero_upstream(self):
        params, x, mods = self._setup()
        _, cache = embed_forward(params, x, mods)
        grads = embed_backward(cache, np.zeros_like(cache.embeddings))
        for g in grads.values():
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
        grads = embed_backward(cache, r)
        for attr, key in [("W", "W"), ("b", "b"),
                          ("modality_offset", "modality_offset")]:
            err = finite_diff_check(
                lambda v, a=attr: loss_of(a, v), getattr(params, attr), grads[key]
            )
            assert err < 1e-6, attr

    def test_finite_diff_through_triplet_pipeline(self):
        params, x, _ = self._setup(seed=4)
        labels = np.repeat(np.arange(3), 4)
        mods = np.tile([0, 0, 1, 1], 3)
        plan = mining_plan(labels, mods, ALL_KINDS)
        cfg = LossConfig(margin=0.5)

        def loss_of_w(w):
            p = EmbedderParams(w, params.b.copy(), params.modality_offset.copy())
            e, _ = embed_forward(p, x, mods)
            return weighted_embedding_loss(e, plan, cfg).value

        e, cache = embed_forward(params, x, mods)
        bundle = weighted_embedding_loss(e, plan, cfg)
        grads = embed_backward(cache, bundle.grad)
        err = finite_diff_check(loss_of_w, params.W, grads["W"])
        assert err < 1e-4

    def test_shape_error(self):
        params, x, mods = self._setup()
        _, cache = embed_forward(params, x, mods)
        with pytest.raises(ValueError, match="grad_output"):
            embed_backward(cache, np.zeros((2, 3)))


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
    return {"W": cache.features.T @ dz, "b": dz.sum(axis=0),
            "modality_offset": d_off}


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
            got = embed_backward(cache, upstream)
            want = reference_embed_backward(cache, upstream)
            for key in ("W", "b", "modality_offset"):
                assert_array_equal(got[key], want[key], err_msg=key)


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


class TestAdversarialHead:
    """`_adversarial` pulls each objective's gradient back through
    sigmoid(E @ w_d + b_d); from it follow the gradients on the
    embeddings and on the head."""

    @pytest.mark.parametrize("objective",
                             [adversarial_g_loss, adversarial_d_loss])
    def test_finite_diff(self, objective):
        rng = np.random.default_rng(4)
        params = init_params(5, 3, 4, rng)
        e = 0.5 * rng.standard_normal((8, 3))
        photo = np.tile([True, False], 4)
        w_d, b_d = params.discriminator.w_d, params.discriminator.b_d
        scores = 1.0 / (1.0 + np.exp(-(e @ w_d + b_d)))
        assert ((scores > 0.05) & (scores < 0.95)).all()  # clear of the clamp
        _, d_raw = _adversarial(params, e, photo, objective)
        # the products each caller forms from the pre-activation gradient
        d_e, d_w, d_b = d_raw[:, None] * w_d, e.T @ d_raw, d_raw.sum()
        assert np.abs(d_e).max() > 0 and np.abs(d_w).max() > 0

        err_e = finite_diff_check(
            lambda x: _adversarial(params, x, photo, objective)[0], e, d_e)
        head = params.groups()[1][0]  # w_d, then b_d

        def value_at(head_values):
            vector = params.vector.copy()
            vector[head] = head_values
            moved = ModelParams(vector, params.shapes)
            return _adversarial(moved, e, photo, objective)[0]

        err_head = finite_diff_check(value_at, params.vector[head],
                                     np.append(d_w, d_b))
        assert err_e < 1e-6
        assert err_head < 1e-6


class TestAblationVariants:
    def test_eight_rows(self):
        base = TrainConfig(method="mathm")
        variants = ablation_variants(base)
        names = [name for name, _ in variants]
        assert names == ["cls-only", "cross", "within", "hybrid",
                         "cross+within", "cross+hybrid", "all", "all+gw"]

    def test_recipes_per_row(self):
        cross, within, hybrid = (TripletKind.CROSS, TripletKind.WITHIN,
                                 TripletKind.HYBRID)
        want = {
            "cls-only": ((), False),
            "cross": ((cross,), False),
            "within": ((within,), False),
            "hybrid": ((hybrid,), False),
            "cross+within": ((cross, within), False),
            "cross+hybrid": ((cross, hybrid), False),
            "all": ((cross, within, hybrid), False),
            "all+gw": ((cross, within, hybrid), True),
        }
        tags = {"cls-only": "cls-only", "cross": "baseline",
                "all": "mathm-nogw", "all+gw": "mathm"}
        for name, cfg in ablation_variants(TrainConfig(method="gan")):
            assert cfg.method == tags.get(name, name)
            kinds, weighting, adversarial = METHOD_RECIPES[cfg.method]
            assert (kinds, weighting) == want[name]
            assert not adversarial
            # the checkpoint snapshot names the recipe by its tag alone
            assert cfg.to_dict()["method"] == cfg.method

    def test_preserves_other_knobs(self):
        base = TrainConfig(method="mathm", d_emb=6, total_iters=123, seed=11)
        for _, cfg in ablation_variants(base):
            assert cfg.d_emb == 6
            assert cfg.total_iters == 123
            assert cfg.seed == 11
