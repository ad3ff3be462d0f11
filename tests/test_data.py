"""Tests for synthetic data generation, splits, sampling, and CSV I/O."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_dataset
from modalmetric import (
    DataError,
    Dataset,
    Modality,
    PKSampler,
    SampleRecord,
    SamplerConfig,
    SyntheticConfig,
    generate_synthetic,
    pk_sample,
    read_dataset,
    write_dataset,
    zero_shot_split,
)


class TestGenerateSynthetic:
    def test_shapes_and_layout(self):
        cfg = SyntheticConfig(n_classes=5, samples_per_class_per_modality=7,
                              d_in=12, seed=0)
        ds = generate_synthetic(cfg).validate()
        assert len(ds) == 2 * 5 * 7
        assert ds.features.shape == (70, 12)
        # class-major order, sketches before photos in each class block
        assert_array_equal(ds.labels, np.repeat(np.arange(5), 14))
        assert_array_equal(ds.modalities,
                           np.tile(np.repeat([0, 1], 7), 5))

    def test_deterministic(self):
        cfg = SyntheticConfig(seed=7)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert_array_equal(a.features, b.features)
        assert_array_equal(a.labels, b.labels)
        assert_array_equal(a.modalities, b.modalities)

    def test_zero_offset_clouds_match(self):
        # with no offset the per-class sketch and photo clouds share a
        # mean; the difference of two 8-sample means has per-coordinate
        # std sigma*sqrt(2/8), so 3 of those bounds every coordinate here
        cfg = SyntheticConfig(n_classes=4, samples_per_class_per_modality=8,
                              d_in=16, sigma=0.1, offset_norm=0.0, seed=0)
        ds = generate_synthetic(cfg)
        x, y, m = ds.features, ds.labels, ds.modalities
        bound = 3 * 0.1 * np.sqrt(2 / 8)
        for c in range(4):
            diff = x[(y == c) & (m == 1)].mean(0) - x[(y == c) & (m == 0)].mean(0)
            assert np.abs(diff).max() < bound

    def test_offset_norm_recovered(self):
        for per, lo, hi in [(8, 0.7, 1.3), (2000, 0.95, 1.05)]:
            cfg = SyntheticConfig(n_classes=4,
                                  samples_per_class_per_modality=per,
                                  d_in=16, sigma=0.1, offset_norm=1.0, seed=3)
            ds = generate_synthetic(cfg)
            x, y, m = ds.features, ds.labels, ds.modalities
            for c in range(4):
                gap = x[(y == c) & (m == 1)].mean(0) - x[(y == c) & (m == 0)].mean(0)
                assert lo <= np.linalg.norm(gap) <= hi

    def test_tight_clusters_at_small_sigma(self):
        # zero offset, sigma -> 0: every same-class pair is within
        # 3*sigma*sqrt(2*d_in) (per-pair difference has 2*d_in*sigma^2
        # expected squared norm)
        sigma = 1e-3
        cfg = SyntheticConfig(n_classes=3, samples_per_class_per_modality=6,
                              d_in=16, sigma=sigma, offset_norm=0.0, seed=0)
        ds = generate_synthetic(cfg)
        x, y = ds.features, ds.labels
        bound = 3 * sigma * np.sqrt(2 * 16)
        for c in range(3):
            pts = x[y == c]
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            assert d.max() < bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_classes=1)
        with pytest.raises(ValueError):
            SyntheticConfig(sigma=0.0)
        with pytest.raises(ValueError):
            SyntheticConfig(offset_norm=-0.1)


class TestZeroShotSplit:
    def test_partition(self):
        full = generate_synthetic(SyntheticConfig(n_classes=10,
                                                  samples_per_class_per_modality=3,
                                                  d_in=4, seed=1))
        train, test = zero_shot_split(full, 3, seed=5)
        assert train.n_classes == 7 and test.n_classes == 3
        assert set(train.class_ids) | set(test.class_ids) == set(range(10))
        assert not set(train.class_ids) & set(test.class_ids)

    def test_relabeled_contiguous(self):
        full = generate_synthetic(SyntheticConfig(n_classes=6,
                                                  samples_per_class_per_modality=2,
                                                  d_in=4, seed=2))
        train, test = zero_shot_split(full, 2, seed=0)
        train.validate()
        test.validate()
        assert sorted(set(train.labels.tolist())) == list(range(4))
        assert sorted(set(test.labels.tolist())) == list(range(2))

    def test_features_follow_class_ids(self):
        full = generate_synthetic(SyntheticConfig(n_classes=6,
                                                  samples_per_class_per_modality=2,
                                                  d_in=4, seed=2))
        _, test = zero_shot_split(full, 2, seed=0)
        for new_label, original in enumerate(test.class_ids):
            got = test.features[test.labels == new_label]
            want = full.features[full.labels == original]
            assert_array_equal(got, want)

    def test_deterministic(self):
        full = generate_synthetic(SyntheticConfig(n_classes=8,
                                                  samples_per_class_per_modality=2,
                                                  d_in=4, seed=3))
        a = zero_shot_split(full, 3, seed=9)
        b = zero_shot_split(full, 3, seed=9)
        assert a[0].class_ids == b[0].class_ids
        assert a[1].class_ids == b[1].class_ids

    def test_rejects_empty_train(self):
        full = generate_synthetic(SyntheticConfig(n_classes=4,
                                                  samples_per_class_per_modality=2,
                                                  d_in=4, seed=0))
        with pytest.raises(ValueError):
            zero_shot_split(full, 4)
        with pytest.raises(ValueError):
            zero_shot_split(full, 0)


class TestPKSampler:
    def test_full_scale_batch(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=16,
                                                samples_per_class_per_modality=4,
                                                d_in=4, seed=0))
        idx = pk_sample(ds, SamplerConfig(P=16, K=4, seed=0))
        assert idx.shape == (128,)

    def test_cell_structure(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=5,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        idx = pk_sample(ds, SamplerConfig(P=2, K=2, seed=1))
        assert idx.shape == (8,)
        assert len(set(idx.tolist())) == 8
        labels = ds.labels[idx]
        mods = ds.modalities[idx]
        # class-major blocks of 2K, K sketches then K photos
        assert_array_equal(labels, np.repeat(labels[::4], 4))
        assert_array_equal(mods, np.tile([0, 0, 1, 1], 2))
        assert len(set(labels.tolist())) == 2

    def test_deterministic(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=5,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        a = PKSampler(ds, SamplerConfig(P=3, K=2, seed=4))
        b = PKSampler(ds, SamplerConfig(P=3, K=2, seed=4))
        for _ in range(5):
            assert_array_equal(a.sample(), b.sample())

    def test_insufficient_cell(self):
        # class 1 has a single photo, which cannot serve K=2
        feats = [[1.0, 0.0]] * 7
        labels = [0, 0, 0, 0, 1, 1, 1]
        mods = [0, 0, 1, 1, 0, 0, 1]
        ds = make_dataset(feats, labels, mods)
        with pytest.raises(DataError, match="class 1 has 1 photo"):
            PKSampler(ds, SamplerConfig(P=2, K=2))

    def test_p_exceeds_classes(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=3,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        with pytest.raises(DataError, match="P=4"):
            PKSampler(ds, SamplerConfig(P=4, K=2))

    def test_sampler_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(P=1, K=2)
        with pytest.raises(ValueError):
            SamplerConfig(P=2, K=1)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_classes=3,
                                                samples_per_class_per_modality=2,
                                                d_in=5, seed=11))
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert_array_equal(back.features, ds.features)
        assert_array_equal(back.labels, ds.labels)
        assert_array_equal(back.modalities, ds.modalities)
        assert [s.id for s in back.samples] == [s.id for s in ds.samples]

    def test_unknown_modality(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,modality,f0\n0,0,video,1.0\n")
        with pytest.raises(DataError, match=":2:.*video"):
            read_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no samples"):
            read_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,class,modality,f0\n")
        with pytest.raises(DataError, match="no samples"):
            read_dataset(path)

    def test_field_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,class,modality,f0,f1\n0,0,sketch,1.0\n")
        with pytest.raises(DataError, match=":2: expected 5 fields"):
            read_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c,f0\n0,0,sketch,1.0\n")
        with pytest.raises(DataError, match="header"):
            read_dataset(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,class,modality,f0\n0,0,sketch,inf\n"
                        "1,0,photo,0.0\n")
        with pytest.raises(DataError, match="non-finite"):
            read_dataset(path)

    def test_non_contiguous_labels(self, tmp_path):
        path = tmp_path / "gap.csv"
        rows = ["id,class,modality,f0"]
        for i, (c, m) in enumerate([(0, "sketch"), (0, "photo"),
                                    (2, "sketch"), (2, "photo")]):
            rows.append(f"{i},{c},{m},1.0")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="contiguous"):
            read_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.csv"
        # the blank line still counts towards the line numbers
        path.write_text("id,class,modality,f0\n0,0,sketch,1.0\n\n"
                        "1,0,photo,0.0\n0,0,photo,2.0\n")
        with pytest.raises(DataError,
                           match=r":5: duplicate id 0 \(first on line 2\)"):
            read_dataset(path)

    def test_rewrite_is_atomic_and_byte_stable(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_classes=3,
                                                samples_per_class_per_modality=2,
                                                d_in=5, seed=11))
        # the bytes the plain open/write writer produced
        header = "id,class,modality," + ",".join(f"f{i}" for i in range(5))
        rows = [header] + [
            f"{s.id},{s.class_label},{s.modality.tag},"
            + ",".join(repr(float(x)) for x in s.feature)
            for s in ds.samples
        ]
        want = ("\n".join(rows) + "\n").encode("utf-8")
        path = tmp_path / "ds.csv"
        path.write_bytes(b"stale contents\n")
        write_dataset(ds, path)
        assert path.read_bytes() == want
        write_dataset(ds, path)
        assert path.read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv"]


class TestDatasetValidate:
    def test_missing_modality(self):
        ds = make_dataset([[1.0], [1.0], [1.0], [1.0]],
                          [0, 0, 1, 1], [0, 1, 0, 0])
        with pytest.raises(DataError, match="class 1 has no photo"):
            ds.validate()

    def test_feature_length(self):
        samples = [
            SampleRecord(0, 0, Modality.SKETCH, np.array([1.0, 2.0])),
            SampleRecord(1, 0, Modality.PHOTO, np.array([1.0])),
        ]
        with pytest.raises(DataError, match="feature length"):
            Dataset(samples, 1, 2).validate()

    def test_class_ids_length(self):
        with pytest.raises(ValueError, match="class_ids"):
            Dataset([], 3, 2, class_ids=[0, 1])
