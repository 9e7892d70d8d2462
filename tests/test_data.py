"""Dataset construction, splits, batching, and serialization round-trips."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from cotriad.data import (
    LABELED,
    SPLIT_NAMES,
    TEST,
    UNLABELED,
    VALIDATION,
    BatchIterator,
    TwoViewDataset,
    gen_synthetic_two_view,
    load_embedding_file,
    read_embeddings,
    read_labels,
    read_labels_csv,
    split_by_counts,
    write_embeddings,
    write_labels,
    write_labels_csv,
    write_matrix_csv,
)
from cotriad.engine import MODEL_MAGIC, MODEL_VERSION, load_model
from cotriad.errors import FormatError, InvalidInputError

HUGE = 2**32 - 1  # the largest dimension a container header can state


class TestSyntheticGeneration:
    def test_zero_noise_hits_class_means(self):
        ds = gen_synthetic_two_view(100, 4, 8, 6, view_noise=0.0, seed=3)
        for c in range(4):
            rows = ds.view1[ds.labels == c]
            assert rows.shape[0] > 0
            np.testing.assert_allclose(rows - rows[0], 0.0, atol=1e-12)
            assert np.linalg.norm(rows[0]) == pytest.approx(1.0, abs=1e-6)

    def test_same_seed_bit_identical(self):
        a = gen_synthetic_two_view(50, 3, 5, 7, 0.4, 0.1, seed=9)
        b = gen_synthetic_two_view(50, 3, 5, 7, 0.4, 0.1, seed=9)
        np.testing.assert_array_equal(a.view1, b.view1)
        np.testing.assert_array_equal(a.view2, b.view2)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_cross_view_noise_independence(self):
        # Within-class residual correlation between views should vanish:
        # mean of residual products stays within 3 sigma of zero.
        n = 10_000
        ds = gen_synthetic_two_view(n, 2, 4, 4, view_noise=1.0, seed=11)
        for c in range(2):
            r1 = ds.view1[ds.labels == c]
            r2 = ds.view2[ds.labels == c]
            r1 = r1 - r1.mean(axis=0)
            r2 = r2 - r2.mean(axis=0)
            prods = r1[:, 0] * r2[:, 0]
            se = prods.std(ddof=1) / np.sqrt(prods.size)
            assert abs(prods.mean()) <= 3 * se

    def test_label_noise_flips_to_different_class(self):
        clean = gen_synthetic_two_view(2000, 4, 4, 4, 0.1, label_noise=0.0, seed=5)
        noisy = gen_synthetic_two_view(2000, 4, 4, 4, 0.1, label_noise=0.3, seed=5)
        flipped = clean.labels != noisy.labels
        assert 0.2 < flipped.mean() < 0.4
        np.testing.assert_array_equal(clean.view1, noisy.view1)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            gen_synthetic_two_view(2, 4, 4, 4, 0.1)


class TestSplits:
    def test_full_labeled_fraction_leaves_nothing_unlabeled(self):
        ds = gen_synthetic_two_view(200, 4, 4, 4, 0.3, seed=1)
        out = split_by_counts(ds, n_labeled=180, n_validation=18, n_test=20, seed=2)
        assert (out.split == UNLABELED).sum() == 0

    def test_counts_and_disjointness(self):
        ds = gen_synthetic_two_view(1000, 4, 4, 4, 0.3, seed=1)
        out = split_by_counts(ds, n_labeled=40, n_validation=4, n_test=100, seed=3)
        assert (out.split == VALIDATION).sum() == 4
        assert (out.split == LABELED).sum() == 36
        assert (out.split == TEST).sum() == 100
        assert (out.split == UNLABELED).sum() == 1000 - 140
        # private labels retained on unlabeled rows
        assert np.all(out.labels[out.split == UNLABELED] >= 0)

    def test_validation_stratification_within_one(self):
        ds = gen_synthetic_two_view(1000, 4, 4, 4, 0.3, seed=7)
        out = split_by_counts(ds, n_labeled=400, n_validation=40, n_test=0, seed=3)
        val_labels = out.labels[out.split == VALIDATION]
        lab_rows = np.isin(out.split, [LABELED, VALIDATION])
        for c in range(4):
            share = (out.labels[lab_rows] == c).sum() / lab_rows.sum()
            assert abs((val_labels == c).sum() - 40 * share) <= 1.0 + 1e-9

    def test_deterministic_under_seed(self):
        ds = gen_synthetic_two_view(300, 3, 4, 4, 0.3, seed=1)
        a = split_by_counts(ds, 48, 5, 60, seed=5)
        b = split_by_counts(ds, 48, 5, 60, seed=5)
        np.testing.assert_array_equal(a.split, b.split)

    def test_class_without_labels_rejected(self):
        ds = gen_synthetic_two_view(100, 4, 4, 4, 0.3, seed=2)
        broken = TwoViewDataset(
            view1=ds.view1, view2=ds.view2,
            labels=np.full(len(ds), -1, dtype=np.int64),
            split=np.full(len(ds), UNLABELED, dtype=np.int8),
        )
        with pytest.raises(InvalidInputError):
            split_by_counts(broken, 50, 4, 0, seed=1)

    def test_no_leakage_between_validation_and_training(self):
        ds = gen_synthetic_two_view(500, 4, 4, 4, 0.3, seed=4)
        out = split_by_counts(ds, 50, 8, 50, seed=9)
        val = set(np.flatnonzero(out.split == VALIDATION))
        train = set(np.flatnonzero(out.split == LABELED))
        unl = set(np.flatnonzero(out.split == UNLABELED))
        assert not val & train and not val & unl


class TestBatchIterator:
    def make(self, n=200, labeled=20, val=4, batch=8, mu=3, seed=0):
        ds = gen_synthetic_two_view(n, 2, 4, 4, 0.3, seed=1)
        ds = split_by_counts(ds, labeled, val, 0, seed=2)
        return ds, BatchIterator(ds, batch, batch * mu, seed=seed)

    def test_batch_sizes(self):
        _, it = self.make()
        lab, unl, val = it.next_batch()
        assert lab.size == 8
        assert unl.size == 24
        assert val.size == 4

    def test_epoch_covers_every_unlabeled_row_once(self):
        ds, it = self.make()
        seen = []
        for _ in range(it.steps_per_epoch):
            _, unl, _ = it.next_batch()
            seen.extend(unl.tolist())
        assert sorted(seen) == sorted(ds.indices(UNLABELED).tolist())

    def test_reshuffles_per_epoch(self):
        _, it = self.make()
        first = [it.next_batch()[1].tolist() for _ in range(it.steps_per_epoch)]
        second = [it.next_batch()[1].tolist() for _ in range(it.steps_per_epoch)]
        assert sorted(sum(first, [])) == sorted(sum(second, []))
        assert first != second

    def test_fixed_seed_reproduces_sequence(self):
        _, it1 = self.make(seed=42)
        _, it2 = self.make(seed=42)
        for _ in range(7):
            a = it1.next_batch()
            b = it2.next_batch()
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("split", [LABELED, UNLABELED, VALIDATION])
    def test_rejects_a_dataset_without_a_training_split(self, split):
        ds, _ = self.make()
        tags = np.where(ds.split == split, TEST, ds.split).astype(np.int8)
        with pytest.raises(InvalidInputError, match=f"^dataset has no {SPLIT_NAMES[split]} rows$"):
            BatchIterator(replace(ds, split=tags), 8, 24)

    def test_rejects_nonpositive_batch_sizes(self):
        ds, _ = self.make()
        for sizes in [(0, 24), (8, 0)]:
            with pytest.raises(InvalidInputError, match="batch sizes"):
                BatchIterator(ds, *sizes)

    def test_no_validation_rows_in_batches(self):
        ds, it = self.make()
        val = set(ds.indices(VALIDATION).tolist())
        for _ in range(2 * it.steps_per_epoch):
            lab, unl, _ = it.next_batch()
            assert not val & set(lab.tolist())
            assert not val & set(unl.tolist())


class TestBinaryFormats:
    def test_embeddings_round_trip(self, tmp_path):
        x = np.array([[1.5, -2.25, 0.125], [3.5, 0.0, -1.0]])
        p = tmp_path / "v.trco"
        write_embeddings(p, x)
        np.testing.assert_array_equal(read_embeddings(p), x)

    def test_labels_round_trip(self, tmp_path):
        y = np.array([0, 3, -1, 2])
        p = tmp_path / "y.trcl"
        write_labels(p, y)
        np.testing.assert_array_equal(read_labels(p), y)

    def test_header_layout_is_bit_exact(self, tmp_path):
        p = tmp_path / "v.trco"
        write_embeddings(p, np.zeros((1, 2)))
        raw = p.read_bytes()
        assert raw[:4] == b"TRCO"
        assert raw[4:6] == (1).to_bytes(2, "little")
        assert raw[6:10] == (1).to_bytes(4, "little")
        assert raw[10:14] == (2).to_bytes(4, "little")
        assert len(raw) == 14 + 8

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "v.trco"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError) as err:
            read_embeddings(p)
        assert err.value.offset == 0

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v.trco"
        import struct
        p.write_bytes(b"TRCO" + struct.pack("<HII", 9, 0, 0))
        with pytest.raises(FormatError) as err:
            read_embeddings(p)
        assert err.value.offset == 4

    def test_truncated_payload_names_offset(self, tmp_path):
        p = tmp_path / "v.trco"
        write_embeddings(p, np.ones((2, 2)))
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(FormatError) as err:
            read_embeddings(p)
        assert "truncated" in str(err.value)

    @pytest.mark.parametrize(
        "read, raw",
        [
            pytest.param(read_embeddings, b"TRCO" + struct.pack("<HII", 1, HUGE, HUGE), id="trco"),
            pytest.param(read_labels, b"TRCL" + struct.pack("<HI", 1, HUGE), id="trcl"),
            pytest.param(
                load_model,
                MODEL_MAGIC + struct.pack("<HIIId", MODEL_VERSION, HUGE, HUGE, HUGE, 0.0),
                id="trcm",
            ),
        ],
    )
    def test_header_claiming_more_than_the_file_is_truncated(self, tmp_path, read, raw):
        # The payload counts would overflow a read or ask for 16 GiB.
        p = tmp_path / "huge"
        p.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            read(p)
        assert err.value.offset == len(raw)
        assert "truncated: wanted" in str(err.value)

    def test_label_magic_checked(self, tmp_path):
        p = tmp_path / "y.trcl"
        p.write_bytes(b"TRCO" + bytes(8))
        with pytest.raises(FormatError):
            read_labels(p)


class TestLoadEmbeddingFile:
    def write_all(self, tmp_path, v1, v2, y, csv=False):
        if csv:
            p1, p2, pl = tmp_path / "v1.csv", tmp_path / "v2.csv", tmp_path / "y.csv"
            write_matrix_csv(p1, v1)
            write_matrix_csv(p2, v2)
            write_labels_csv(pl, y)
        else:
            p1, p2, pl = tmp_path / "v1.trco", tmp_path / "v2.trco", tmp_path / "y.trcl"
            write_embeddings(p1, v1)
            write_embeddings(p2, v2)
            write_labels(pl, y)
        return p1, p2, pl

    def test_two_row_round_trip(self, tmp_path):
        v1 = np.array([[0.5, 1.25], [2.0, -4.0]])
        v2 = np.array([[1.0], [0.0]])
        y = np.array([1, -1])
        ds = load_embedding_file(*self.write_all(tmp_path, v1, v2, y))
        np.testing.assert_array_equal(ds.view1, v1)
        np.testing.assert_array_equal(ds.view2, v2)
        assert ds.split[0] == LABELED and ds.split[1] == UNLABELED

    def test_csv_and_binary_agree(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = gen_synthetic_two_view(20, 3, 4, 5, 0.7, seed=8)
        bin_paths = self.write_all(tmp_path, ds.view1, ds.view2, ds.labels)
        csv_paths = self.write_all(tmp_path, ds.view1, ds.view2, ds.labels, csv=True)
        a = load_embedding_file(*bin_paths)
        b = load_embedding_file(*csv_paths)
        np.testing.assert_array_equal(a.view1, b.view1)
        np.testing.assert_array_equal(a.view2, b.view2)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_all_unlabeled(self, tmp_path):
        v = np.zeros((3, 2))
        y = np.array([-1, -1, -1])
        ds = load_embedding_file(*self.write_all(tmp_path, v, v, y))
        assert np.all(ds.split == UNLABELED)

    def test_row_count_mismatch(self, tmp_path):
        p1, p2, pl = self.write_all(
            tmp_path, np.zeros((3, 2)), np.zeros((3, 2)), np.array([0, 1, 0])
        )
        write_labels(pl, np.array([0, 1]))
        with pytest.raises(FormatError) as err:
            load_embedding_file(p1, p2, pl)
        assert "row-count mismatch" in str(err.value)

    def test_bad_csv_header(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("a,b\n1,2\n")
        from cotriad.data import read_matrix_csv
        for read in (read_matrix_csv, read_labels_csv):
            with pytest.raises(FormatError) as err:
                read(p)
            assert (err.value.line, err.value.offset) == (1, None)
            assert f"{p} @ line 1: bad header 'a,b'" == str(err.value)

    def test_labels_csv_bad_value_cites_line(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("label\n0\n\n2\nx\n1\n")
        with pytest.raises(FormatError) as err:
            read_labels_csv(p)
        assert (err.value.line, err.value.offset) == (5, None)
        assert f"{p} @ line 5: " in str(err.value)
        p.write_text("label\n0\n\n2\n")
        np.testing.assert_array_equal(read_labels_csv(p), [0, 2])

    def test_csv_malformed_row_cites_line(self, tmp_path):
        p = tmp_path / "v.csv"
        p.write_text("f0,f1\n1.0,2.0\n3.0\n")
        from cotriad.data import read_matrix_csv
        with pytest.raises(FormatError) as err:
            read_matrix_csv(p)
        assert (err.value.line, err.value.offset) == (3, None)
        assert f"{p} @ line 3: expected 2 fields, got 1" == str(err.value)
