"""Tests for synthetic data generation, splits, sampling, and CSV I/O."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import make_dataset
from modalmetric import data
from modalmetric import (
    DataError,
    Dataset,
    PKSampler,
    SyntheticConfig,
    generate_synthetic,
    read_dataset,
    write_dataset,
    zero_shot_split,
)
from modalmetric.fsutil import atomic_write_text


class TestGenerateSynthetic:
    def test_shapes_and_layout(self):
        cfg = SyntheticConfig(n_classes=5, samples_per_class_per_modality=7,
                              d_in=12, seed=0)
        ds = generate_synthetic(cfg)
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
        idx = PKSampler(ds, 16, 4, np.random.default_rng(0)).sample()
        assert idx.shape == (128,)

    def test_cell_structure(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=5,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        idx = PKSampler(ds, 2, 2, np.random.default_rng(1)).sample()
        assert idx.shape == (8,)
        assert len(set(idx.tolist())) == 8
        labels = ds.labels[idx]
        mods = ds.modalities[idx]
        # class-major blocks of 2K, K sketches then K photos
        assert_array_equal(labels, np.repeat(labels[::4], 4))
        assert_array_equal(mods, np.tile([0, 0, 1, 1], 2))
        assert len(set(labels.tolist())) == 2

    @pytest.mark.parametrize("P, K", [(2, 2), (3, 2), (4, 3), (5, 4)])
    def test_batches_follow_layout(self, P, K):
        # train mines every batch with a plan built once from layout(),
        # which holds only if every batch's same-class and same-modality
        # pattern is the layout's, whichever classes and rows it drew
        rng = np.random.default_rng(P * 10 + K)
        counts = K + rng.integers(0, 4, size=(6, 2))  # unequal cells
        labels = np.repeat(np.arange(6), counts.sum(axis=1))
        mods = np.concatenate([np.repeat([0, 1], c) for c in counts])
        order = rng.permutation(len(labels))
        ds = make_dataset(rng.standard_normal((len(labels), 3)),
                          labels[order], mods[order])
        sampler = PKSampler(ds, P, K, np.random.default_rng(K))
        want_labels, want_mods = sampler.layout()
        assert want_labels.shape == want_mods.shape == (2 * P * K,)
        want_same = want_labels[:, None] == want_labels
        for _ in range(200):
            idx = sampler.sample()
            got = ds.labels[idx]
            assert_array_equal(got[:, None] == got, want_same)
            assert_array_equal(ds.modalities[idx], want_mods)

    def test_deterministic(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=5,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        a = PKSampler(ds, 3, 2, np.random.default_rng(4))
        b = PKSampler(ds, 3, 2, np.random.default_rng(4))
        for _ in range(5):
            assert_array_equal(a.sample(), b.sample())

    def test_insufficient_cell(self):
        # class 1 has a single photo, which cannot serve K=2
        feats = [[1.0, 0.0]] * 7
        labels = [0, 0, 0, 0, 1, 1, 1]
        mods = [0, 0, 1, 1, 0, 0, 1]
        ds = make_dataset(feats, labels, mods)
        with pytest.raises(DataError, match="class 1 has 1 photo"):
            PKSampler(ds, 2, 2, np.random.default_rng(0))

    def test_p_exceeds_classes(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=3,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        with pytest.raises(DataError, match="P=4"):
            PKSampler(ds, 4, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("P, K", [(0, 2), (2, 0), (2, -1)])
    def test_p_and_k_at_least_one(self, P, K):
        # below 1 they gave empty batches, or numpy's negative dimensions
        ds = generate_synthetic(SyntheticConfig(n_classes=3,
                                                samples_per_class_per_modality=3,
                                                d_in=4, seed=0))
        with pytest.raises(ValueError) as exc:
            PKSampler(ds, P, K, np.random.default_rng(0))
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"P and K must be >= 1, got P={P}, K={K}"

    def test_uniform_frequencies(self):
        # draws of k of n without replacement give Pearson statistics
        # distributed as (n - k) / (n - 1) times chi-square with n - 1
        # degrees of freedom; rescaled, the class statistic and the
        # per-cell row statistics (independent given the class counts)
        # sum to chi-square with `dof` degrees of freedom, and the bound
        # sits five standard deviations above its mean
        counts = [[3, 7], [5, 4], [6, 3], [4, 8], [7, 5]]
        n, P, K, n_batches = len(counts), 3, 2, 4000
        ds = _shuffled_dataset(counts, np.random.default_rng(3))
        sampler = PKSampler(ds, P, K, np.random.default_rng(20261018))
        class_hits = np.zeros(n)
        row_hits = np.zeros(len(ds))
        for _ in range(n_batches):
            batch = sampler.sample()
            np.add.at(class_hits, ds.labels[batch[::2 * K]], 1)
            np.add.at(row_hits, batch, 1)
        expected = n_batches * P / n
        stat = ((class_hits - expected) ** 2 / expected).sum() \
            * (n - 1) / (n - P)
        dof = n - 1
        for (c, m), idx in _reference_cells(ds).items():
            size = len(idx)
            expected = class_hits[c] * K / size
            stat += ((row_hits[idx] - expected) ** 2 / expected).sum() \
                * (size - 1) / (size - K)
            dof += size - 1
        assert stat < dof + 5 * np.sqrt(2 * dof), (stat, dof)

    @pytest.mark.parametrize("reverse_picks", [False, True])
    def test_batches_do_not_depend_on_partition_order(self, monkeypatch,
                                                      reverse_picks):
        # argpartition may order the K smallest keys differently on
        # another CPU; a full argsort, with its K smallest reversed or
        # not, must give the same batches from the same generator state
        ds = _shuffled_dataset([[3, 7], [5, 4], [6, 3], [4, 8]],
                               np.random.default_rng(5))

        def batches():
            sampler = PKSampler(ds, 3, 3, np.random.default_rng(11))
            return [sampler.sample().tolist() for _ in range(30)]

        want = batches()

        def argpartition_by_sort(a, kth, axis=-1):
            assert axis in (-1, a.ndim - 1)
            order = np.argsort(a, axis=-1)
            if reverse_picks:
                order[..., :kth + 1] = order[..., kth::-1].copy()
            return order

        monkeypatch.setattr(np, "argpartition", argpartition_by_sort)
        assert batches() == want


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
        assert_array_equal(back.ids, ds.ids)

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

    def test_no_feature_columns(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("id,class,modality\n0,0,sketch\n")
        with pytest.raises(DataError,
                           match=":1: header declares no feature columns"):
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

    def test_wide_header(self, tmp_path):
        # 2e6 columns and one row: the one-row feature array takes 16 MB,
        # so on every machine the read reaches the row's missing photo
        path = tmp_path / "wide.csv"
        d_in = 2_000_000
        path.write_text("id,class,modality,"
                        + ",".join(f"f{i}" for i in range(d_in))
                        + "\n0,0,sketch" + ",0" * d_in + "\n")
        with pytest.raises(DataError) as exc:
            read_dataset(path)
        assert str(exc.value) == f"{path}: class 0 has no photo samples"

    @pytest.mark.parametrize("error", [MemoryError, ValueError])
    def test_block_allocation_failure(self, tmp_path, monkeypatch, error):
        # one array row per line below the header, the blank one included
        path = tmp_path / "ds.csv"
        path.write_text("\nid,class,modality,f0,f1,f2\n0,0,sketch,1,2,3\n\n"
                        "1,0,photo,4,5,6\n")
        empty = np.empty

        def failing(shape, *args, **kwargs):
            if shape == (3, 3):
                raise error("no room")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing)
        with pytest.raises(DataError) as exc:
            read_dataset(path)
        assert str(exc.value) == (f"{path}:2: 3 rows of 3 features are too "
                                  "large to allocate")

    def test_features_are_held_once(self, tmp_path):
        # 2048 rows of 256 short spellings: a second copy of the features
        # would take the peak past twice their bytes
        n, d_in = 2048, 256
        row = ",".join(["0.5"] * d_in)
        path = tmp_path / "ds.csv"
        path.write_text(
            "id,class,modality," + ",".join(f"f{i}" for i in range(d_in))
            + "\n" + "".join(f"{i},{i % 4},{data.MODALITY_TAGS[i // 4 % 2]},"
                             f"{row}\n" for i in range(n)))
        tracemalloc.start()
        try:
            ds = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n
        assert peak < 1.6 * ds.features.nbytes

    def test_file_grown_between_the_passes(self, tmp_path):
        # the first pass counted 3 lines, and the second meets a fourth
        path = tmp_path / "ds.csv"
        text = ("id,class,modality,f0\n0,0,sketch,1.0\n1,0,photo,2.0\n"
                "2,0,photo,3.0\n")
        with pytest.raises(DataError) as exc:
            data._parse_csv(io.StringIO(text), 3, path)
        assert str(exc.value) == f"{path}:4: the file grew while it was read"

    def test_unseekable_source(self, pipe_source):
        path = pipe_source(b"id,class,modality,f0\n0,0,sketch,1.0\n"
                           b"1,0,photo,2.0\n")
        with pytest.raises(DataError) as exc:
            read_dataset(path)
        assert str(exc.value) == (
            f"{path}: cannot read dataset: underlying stream is not seekable")

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("id,class,modality,f0\n0,0,sketch,inf\n"
                        "1,0,photo,0.0\n")
        with pytest.raises(DataError, match="non-finite"):
            read_dataset(path)

    def test_features_read_as_python_floats(self, tmp_path):
        fields = ["1_0", " 1.5 ", "-0", "+1e5"]
        path = tmp_path / "spellings.csv"
        path.write_text("id,class,modality,f0,f1,f2,f3\n"
                        f"0,0,sketch,{','.join(fields)}\n"
                        "1,0,photo,0,0,0,0\n")
        got = read_dataset(path).features[0]
        want = np.array([float(x) for x in fields])
        assert_array_equal(got.view(np.int64), want.view(np.int64))
        for bad in ("1__0", "0x1p3"):
            path.write_text("id,class,modality,f0\n0,0,sketch,1.0\n"
                            f"1,0,photo,{bad}\n")
            with pytest.raises(DataError) as info:
                read_dataset(path)
            assert str(info.value) == (
                f"{path}:3: could not convert string to float: {bad!r}")

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
        want = _one_string_csv(ds)
        path = tmp_path / "ds.csv"
        path.write_bytes(b"stale contents\n")
        write_dataset(ds, path)
        assert path.read_bytes() == want
        write_dataset(ds, path)
        assert path.read_bytes() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv"]

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_bytes(b"old contents\n")

        def pieces():
            yield "id,class,modality,f0\n"
            yield "0,0,sketch,1.0\n"
            raise RuntimeError("stopped partway")

        with pytest.raises(RuntimeError, match="stopped partway"):
            atomic_write_text(path, pieces())
        assert path.read_bytes() == b"old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv"]


def _one_string_csv(ds):
    """The bytes of `ds` as the writer that built one string produced."""
    header = "id,class,modality," + ",".join(f"f{i}" for i in range(ds.d_in))
    rows = [header] + [
        f"{ds.ids[i]},{ds.labels[i]},{('sketch', 'photo')[ds.modalities[i]]},"
        + ",".join(repr(float(x)) for x in ds.features[i])
        for i in range(len(ds))
    ]
    return ("\n".join(rows) + "\n").encode("utf-8")


_HEADER = "id,class,modality,f0\n"


class TestCsvErrorOrder:
    """Which fault a file with several is reported by: a byte that is not
    UTF-8 anywhere wins, since the first pass looks for those before any
    row is parsed, and otherwise the earliest line's fault."""

    @pytest.mark.parametrize("head", [
        _HEADER + "0,0,sketch\n",  # field count
        "a,b,c,f0\n0,0,sketch,1.0\n",  # header
        _HEADER + "0,0,sketch,1.0\n0,0,photo,1.0\n",  # duplicate id
    ], ids=["field_count", "header", "duplicate_id"])
    def test_later_bytes_not_utf8_win(self, tmp_path, head):
        path = tmp_path / "bad.csv"
        path.write_bytes(head.encode() + b"5,0,photo,1.0\n6,0,ph\xffoto,1.0\n")
        lineno = head.count("\n") + 2
        with pytest.raises(DataError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}:{lineno}: not UTF-8 text"

    @pytest.mark.parametrize("later", [
        "2,0,photo",
        "x,0,photo,1.0",
        "2,0,video,1.0",
        "2,0,photo,1_.0",
        "2,-1,photo,1.0",
        "0,0,photo,1.0",
    ], ids=["field_count", "int", "modality", "float", "range", "duplicate"])
    def test_non_finite_row_wins_over_a_later_fault(self, tmp_path, later):
        path = tmp_path / "bad.csv"
        path.write_text(_HEADER + "0,0,sketch,1.0\n1,0,photo,nan\n\n"
                        + later + "\n3,0,sketch,1.0\n")
        with pytest.raises(DataError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}:3: non-finite feature value"

    @pytest.mark.parametrize("sid", ["-1", "0"], ids=["range", "duplicate"])
    def test_non_finite_wins_on_its_own_line(self, tmp_path, sid):
        # the features are checked before the id's range and repetition
        path = tmp_path / "bad.csv"
        path.write_text(_HEADER + f"0,0,sketch,1.0\n{sid},0,photo,-inf\n")
        with pytest.raises(DataError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}:3: non-finite feature value"

    def test_unconvertible_row_is_not_checked_for_finiteness(self, tmp_path):
        # numpy fills the row's nan before it meets the "x"
        path = tmp_path / "bad.csv"
        path.write_text("id,class,modality,f0,f1\n0,0,sketch,nan,x\n")
        with pytest.raises(DataError) as info:
            read_dataset(path)
        assert str(info.value) == (
            f"{path}:2: could not convert string to float: 'x'")


class TestCsvChunks:
    """A dataset of two full chunks of the writer's CSV_CHUNK_ROWS rows
    plus a part chunk, read back into one feature array: row i of the
    dataset is on line i + 2 of its file."""

    @pytest.fixture(scope="class")
    def csv(self, tmp_path_factory):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=3,
            samples_per_class_per_modality=data.CSV_CHUNK_ROWS // 3 + 9,
            d_in=2, seed=7))
        assert 2 * data.CSV_CHUNK_ROWS < len(ds) < 3 * data.CSV_CHUNK_ROWS
        path = tmp_path_factory.mktemp("chunks") / "ds.csv"
        write_dataset(ds, path)
        return ds, path

    @staticmethod
    def _read_edited(path, edit):
        lines = path.read_text(encoding="utf-8").split("\n")
        edit(lines)
        bad = path.with_name("bad.csv")
        bad.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DataError) as info:
            read_dataset(bad)
        return str(info.value).removeprefix(str(bad))

    def test_writes_the_one_string_bytes(self, csv):
        ds, path = csv
        assert path.read_bytes() == _one_string_csv(ds)

    def test_reads_back_bit_identical(self, csv):
        ds, path = csv
        back = read_dataset(path)
        assert_array_equal(back.features.view(np.int64),
                           ds.features.view(np.int64))
        for name in ("labels", "modalities", "ids"):
            assert_array_equal(getattr(back, name), getattr(ds, name))

    def test_duplicate_of_an_earlier_chunk(self, csv):
        _, path = csv
        lineno = 2 * data.CSV_CHUNK_ROWS + 5

        def edit(lines):
            # row 3 is on line 5, in the first chunk
            lines[lineno - 1] = "3," + lines[lineno - 1].split(",", 1)[1]

        assert self._read_edited(path, edit) == (
            f":{lineno}: duplicate id 3 (first on line 5)")

    @pytest.mark.parametrize("offset", [0, 1, data.CSV_CHUNK_ROWS - 1])
    def test_fault_in_the_second_chunk(self, csv, offset):
        _, path = csv
        lineno = data.CSV_CHUNK_ROWS + 2 + offset

        def edit(lines):
            lines[lineno - 1] += ",0.5"

        assert self._read_edited(path, edit) == (
            f":{lineno}: expected 5 fields, got 6")

    @pytest.mark.parametrize("fault", ["nan", "video"])
    def test_blank_lines_across_a_boundary(self, csv, fault):
        _, path = csv
        # the last row of the first chunk is on line CSV_CHUNK_ROWS + 1
        end = data.CSV_CHUNK_ROWS + 1
        target = end + 5  # a row of the second chunk, before the blanks

        def edit(lines):
            fields = lines[target - 1].split(",")
            if fault == "nan":
                fields[-1] = "nan"
            else:
                fields[2] = "video"
            lines[target - 1] = ",".join(fields)
            lines[end:end] = ["", "  "]
            lines[end - 2:end - 2] = [""]

        want = (": non-finite feature value" if fault == "nan" else
                ": unknown modality 'video' (expected sketch or photo)")
        assert self._read_edited(path, edit) == f":{target + 3}{want}"


class TestDatasetValidate:
    def test_missing_modality(self):
        with pytest.raises(DataError, match="class 1 has no photo"):
            make_dataset([[1.0]] * 4, [0, 0, 1, 1], [0, 1, 0, 0])
        with pytest.raises(DataError, match="class 0 has no sketch"):
            make_dataset([[1.0]] * 4, [0, 1, 1, 0], [1, 0, 1, 1])
        with pytest.raises(DataError, match="class 1 has no sketch"):
            make_dataset([[1.0]] * 5, [2, 0, 1, 2, 0], [0, 1, 1, 1, 0])

    @pytest.mark.parametrize("seed", range(3))
    def test_checks_match_a_cell_count_reference(self, seed):
        # small random columns, valid or not, against np.unique of the
        # labels and a bincount of the (class, modality) cells
        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            labels = rng.integers(0, 3, size=n)
            mods = rng.integers(0, 2, size=n)
            present = np.unique(labels)
            counts = np.bincount(2 * labels + mods,
                                 minlength=2 * present.size)
            empty = np.flatnonzero(counts == 0)
            if not np.array_equal(present, np.arange(present.size)):
                want = "contiguous"
            elif empty.size:
                c, m = divmod(int(empty[0]), 2)
                want = f"class {c} has no {('sketch', 'photo')[m]} samples"
            else:
                ds = make_dataset(np.ones((n, 1)), labels, mods)
                assert ds.n_classes == present.size
                continue
            with pytest.raises(DataError, match=want):
                make_dataset(np.ones((n, 1)), labels, mods)

    def test_constructor_checks(self):
        feats = np.ones((3, 2))
        with pytest.raises(ValueError, match="one entry per feature row"):
            Dataset(feats, [0, 0], [0, 1, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="one entry per feature row"):
            Dataset(feats, [0, 0, 0], [0, 1, 1], [0, 1])
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.ones(3), [0, 0, 0], [0, 1, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.ones((3, 2, 1)), [0, 0, 0], [0, 1, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="sketch"):
            Dataset(feats, [0, 0, 0], [0, 1, 2], [0, 1, 2])
        with pytest.raises(DataError, match="contiguous"):
            Dataset(feats, [0, 2, 2], [0, 1, 1], [0, 1, 2])
        # past 2**62 a label's cell 2c + m wraps, and the error still
        # names the label
        with pytest.raises(DataError, match=f"got \\[0, {2**62}\\]"):
            Dataset(feats, [0, 2**62, 0], [0, 1, 1], [0, 1, 2])
        # contiguity is checked before the class_ids length
        with pytest.raises(DataError, match="contiguous"):
            Dataset(feats, [0, 2, 2], [0, 1, 1], [0, 1, 2], class_ids=[0])
        # and the class_ids length before a missing modality
        with pytest.raises(ValueError, match="class_ids"):
            Dataset(feats, [0, 1, 1], [0, 1, 1], [0, 1, 2], class_ids=[0])
        # a float column is checked before the int64 cast truncates it
        feats = np.zeros((4, 2))
        with pytest.raises(ValueError, match="labels must be whole"):
            Dataset(feats, [0, 0.5, 1, 1.7], [0, 1, 0, 1.9], [0, 1, 2, 3])
        with pytest.raises(ValueError, match="modalities must be whole"):
            Dataset(feats, [0, 0, 1, 1], [0, 1, 0, 1.9], [0, 1, 2, 3])
        with pytest.raises(ValueError, match="labels must be whole"):
            Dataset(feats, [0, 0, 1, np.nan], [0, 1, 0, 1], [0, 1, 2, 3])
        for bad in (np.inf, -np.inf, 2.0**63):
            with pytest.raises(ValueError, match="ids must be whole"):
                Dataset(feats, [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 2, bad])
        ds = Dataset(feats, [0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0],
                     [-3.0, 1.0, 2.0, 3.0])
        assert ds.labels.dtype == ds.modalities.dtype == np.int64
        assert ds.ids.tolist() == [-3, 1, 2, 3]
        ds = Dataset(np.ones((4, 2)), [1, 0, 1, 0], [0, 1, 1, 0],
                     [5, 6, 7, 8])
        assert (ds.d_in, ds.n_classes, len(ds)) == (2, 2, 4)
        assert ds.class_ids == [0, 1]

    def test_class_ids_length(self):
        with pytest.raises(ValueError, match="class_ids"):
            Dataset(np.empty((0, 2)), [], [], [], class_ids=[0, 1])


def _shuffled_dataset(counts, rng):
    """Rows in shuffled order with counts[c][m] rows in cell (c, m),
    random distinct ids and non-identity class ids."""
    n_classes = len(counts)
    counts = np.ravel(counts)
    labels = np.repeat(np.arange(n_classes).repeat(2), counts)
    mods = np.repeat(np.tile([0, 1], n_classes), counts)
    order = rng.permutation(len(labels))
    n, d = len(labels), int(rng.integers(1, 6))
    return Dataset(rng.standard_normal((n, d)), labels[order], mods[order],
                   rng.choice(10 * n, size=n, replace=False),
                   class_ids=rng.choice(100, size=n_classes,
                                        replace=False).tolist())


def _random_dataset(rng):
    """Uneven cells (3 to 7 rows each) over 2 to 8 classes."""
    n_classes = int(rng.integers(2, 9))
    return _shuffled_dataset(rng.integers(3, 8, size=(n_classes, 2)), rng)


def _reference_split(ds, n_unseen, seed):
    """The split as a loop over (id, label, modality, feature) rows."""
    rows = [(int(ds.ids[i]), int(ds.labels[i]), int(ds.modalities[i]),
             ds.features[i].tolist()) for i in range(len(ds))]
    unseen = set(np.random.default_rng(seed).choice(
        ds.n_classes, size=n_unseen, replace=False).tolist())
    halves = []
    for classes in ([c for c in range(ds.n_classes) if c not in unseen],
                    sorted(unseen)):
        remap = {c: i for i, c in enumerate(classes)}
        halves.append((
            [(sid, remap[c], m, f) for sid, c, m, f in rows if c in remap],
            [ds.class_ids[c] for c in classes],
        ))
    return halves


def _reference_cells(ds):
    cells = {}
    for i in range(len(ds)):
        key = (int(ds.labels[i]), int(ds.modalities[i]))
        cells.setdefault(key, []).append(i)
    return cells


class TestColumnOracle:
    """zero_shot_split and PKSampler against per-row reference loops."""

    @pytest.mark.parametrize("seed", range(40))
    def test_split_and_sampler(self, seed):
        rng = np.random.default_rng(seed)
        ds = _random_dataset(rng)
        n_unseen = int(rng.integers(1, ds.n_classes))
        split_seed = int(rng.integers(0, 1000))
        halves = zero_shot_split(ds, n_unseen, seed=split_seed)
        for got, (rows, class_ids) in zip(
                halves, _reference_split(ds, n_unseen, split_seed)):
            assert got.class_ids == class_ids
            assert got.ids.tolist() == [r[0] for r in rows]
            assert got.labels.tolist() == [r[1] for r in rows]
            assert got.modalities.tolist() == [r[2] for r in rows]
            assert got.features.tolist() == [r[3] for r in rows]
            assert got.d_in == ds.d_in
        for part in (ds, *halves):
            if part.n_classes < 2:
                continue
            P = int(rng.integers(2, part.n_classes + 1))
            K = int(rng.integers(2, 4))
            sampler = PKSampler(part, P, K, np.random.default_rng(seed))
            cells = _reference_cells(part)
            width = max(len(idx) for idx in cells.values())
            assert sampler._cells.shape == (part.n_classes, 2, width)
            assert sampler._pad.shape == sampler._cells.shape
            for (c, m), idx in cells.items():
                assert sampler._cells[c, m, :len(idx)].tolist() == idx
                assert sampler._pad[c, m].tolist() == (
                    [False] * len(idx) + [True] * (width - len(idx)))
            for _ in range(50):
                batch = sampler.sample()
                assert batch.shape == (2 * P * K,)
                # padding slots hold -1, which no cell contains either
                assert (batch >= 0).all()
                blocks = batch.reshape(P, 2, K)
                classes = part.labels[blocks[:, 0, 0]]
                assert len(set(classes.tolist())) == P
                for c, block in zip(classes.tolist(), blocks):
                    for m, rows in enumerate(block.tolist()):
                        assert len(set(rows)) == K
                        assert set(rows) <= set(cells[(c, m)])
                        assert rows == sorted(rows)


def _corrupt(text, edits, inserts):
    """Apply field and line edits to a CSV's text, then insert raw bytes
    into its encoding; returns the bytes."""
    lines = text.split("\n")
    for op, a, b, value in edits:
        i = a % len(lines)
        if op == "drop_line":
            del lines[i]
        elif op == "dup_line":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split(",")
            j = b % len(fields)
            if op == "replace":
                fields[j] = value
            elif op == "drop_field":
                del fields[j]
            else:
                fields.insert(j, fields[j])
            lines[i] = ",".join(fields)
        lines = lines or [""]
    blob = "\n".join(lines).encode("utf-8")
    for at, value in inserts:
        at %= len(blob) + 1
        blob = blob[:at] + value + blob[at:]
    return blob


# hypothesis draws wide integer ranges mostly below 2**63, so the powers
# of ten and the int64 edges are drawn on their own
_INTS = st.one_of(st.integers(-10**30, 10**30),
                  st.integers(0, 30).map(lambda e: 10**e),
                  st.sampled_from([2**63 - 1, 2**63, 4 * 10**18]))
_CSV_EDIT = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 99), st.integers(0, 99),
              st.one_of(st.text(max_size=12), _INTS.map(str))),
    st.tuples(st.sampled_from(["drop_field", "dup_field", "drop_line",
                               "dup_line"]),
              st.integers(0, 99), st.integers(0, 99), st.none()),
)
_BYTE_INSERT = st.tuples(st.integers(0, 10**4),
                         st.binary(min_size=1, max_size=8))


class TestCorruptedCsv:
    """A corrupted CSV either loads as a valid dataset or raises
    DataError: no other exception escapes read_dataset."""

    @pytest.fixture(scope="class")
    def valid_csv(self, tmp_path_factory):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=3, samples_per_class_per_modality=2, d_in=2, seed=5))
        path = tmp_path_factory.mktemp("csv") / "valid.csv"
        write_dataset(ds, path)
        return path, path.read_text(encoding="utf-8")

    @given(st.lists(_CSV_EDIT, max_size=3),
           # most inserted bytes are not UTF-8, so half the cases get none
           st.one_of(st.just([]),
                     st.lists(_BYTE_INSERT, min_size=1, max_size=2)))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_loads_or_raises_data_error(self, valid_csv, edits, inserts):
        path, text = valid_csv
        bad = path.with_name("bad.csv")
        bad.write_bytes(_corrupt(text, edits, inserts))
        try:
            ds = read_dataset(bad)
        except DataError as exc:
            assert str(bad) in str(exc)
            return
        assert len(ds) > 0 and np.isfinite(ds.features).all()
