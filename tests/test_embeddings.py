import struct
import tracemalloc

import numpy as np
import pytest

from fewproto import embeddings
from fewproto.embeddings import (MAGIC, EmbeddingFormatError, EmbeddingSet,
                                 generate_synthetic, load_embedding_set,
                                 sample_episode, save_embedding_set)


def make_set(rng, n_classes=3, per_class=4, dim=5):
    vectors = rng.normal(size=(n_classes * per_class, dim)).astype(np.float32)
    labels = np.repeat(np.arange(n_classes), per_class)
    return EmbeddingSet.from_arrays(vectors, labels)


def write_raw(path, dim, records, n_classes=None, magic=MAGIC):
    """Hand-rolled writer so load gets tested against the format spec,
    not against save_embedding_set."""
    classes = {c for c, _ in records} if n_classes is None else None
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<III", dim, len(records),
                            len(classes) if n_classes is None else n_classes))
        for class_id, vec in records:
            f.write(struct.pack("<I", class_id))
            f.write(np.asarray(vec, dtype="<f4").tobytes())


def test_load_minimal_file(tmp_path):
    path = tmp_path / "mini.emb"
    write_raw(path, 4, [(0, [1, 2, 3, 4]), (1, [5, 6, 7, 8])])
    emb = load_embedding_set(path)
    assert emb.dim == 4
    assert emb.n_records == 2
    assert emb.n_classes == 2
    np.testing.assert_array_equal(emb.vectors[1], [5, 6, 7, 8])


def test_load_peak_memory_bounded(tmp_path):
    # The records are mapped, not read: the loader allocates the labels,
    # the class index and one scan block's finiteness mask (a quarter of
    # SCAN_BYTES), and a single payload-sized copy would pass 1x.
    rng = np.random.default_rng(21)
    emb = EmbeddingSet.from_arrays(
        rng.normal(size=(2000, 256)).astype(np.float32),
        np.repeat(np.arange(20), 100))
    path = tmp_path / "pool.emb"
    save_embedding_set(emb, path)
    payload = path.stat().st_size - 16
    tracemalloc.start()
    try:
        loaded = load_embedding_set(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.vectors, emb.vectors)
    assert peak <= 0.5 * payload


def test_save_peak_memory_bounded(tmp_path):
    # One record array of the payload's size is the only large buffer:
    # the set is checked through views and the records go out with
    # tofile, so a revalidation copy or a bytes copy would pass 1.5x.
    rng = np.random.default_rng(22)
    emb = EmbeddingSet.from_arrays(
        rng.normal(size=(2000, 256)).astype(np.float32),
        np.repeat(np.arange(20), 100))
    path = tmp_path / "pool.emb"
    tracemalloc.start()
    try:
        save_embedding_set(emb, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = path.stat().st_size - 16
    assert payload == 2000 * (4 + 4 * 256)
    assert peak <= 1.5 * payload
    np.testing.assert_array_equal(load_embedding_set(path).vectors,
                                  emb.vectors)


def test_save_leaves_a_hand_built_set_writeable(tmp_path):
    vectors = np.arange(12, dtype=np.float32).reshape(4, 3)
    labels = np.array([0, 1, 0, 1])
    emb = EmbeddingSet(dim=3, vectors=vectors, labels=labels, class_index={})
    save_embedding_set(emb, tmp_path / "pool.emb")
    assert vectors.flags.writeable and labels.flags.writeable
    np.testing.assert_array_equal(
        load_embedding_set(tmp_path / "pool.emb").vectors, vectors)


def test_loaded_vectors_are_a_read_only_view(tmp_path):
    emb = make_set(np.random.default_rng(16), n_classes=4, per_class=6)
    path = tmp_path / "pool.emb"
    save_embedding_set(emb, path)
    loaded = load_embedding_set(path)
    assert type(loaded.vectors) is np.ndarray  # no np.memmap subclass
    assert not loaded.vectors.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        loaded.vectors[0, 0] = 1.0
    ep = sample_episode(loaded, 3, 2, 3, np.random.default_rng(1))
    assert type(ep.support_x) is np.ndarray
    assert ep.support_x.dtype == np.float64 and ep.support_x.flags.writeable


def test_save_over_a_loaded_pool_leaves_it_intact(tmp_path):
    # Writing a shorter file in place would cut the loaded set's mapping
    # short, and touching it would kill the process with SIGBUS.
    rng = np.random.default_rng(17)
    old = make_set(rng, n_classes=4, per_class=300, dim=64)
    new = make_set(rng, n_classes=2, per_class=3, dim=8)
    path = tmp_path / "pool.emb"
    save_embedding_set(old, path)
    loaded = load_embedding_set(path)
    save_embedding_set(new, path)
    np.testing.assert_array_equal(loaded.vectors, old.vectors)
    fresh = load_embedding_set(path)
    np.testing.assert_array_equal(fresh.vectors, new.vectors)
    np.testing.assert_array_equal(fresh.labels, new.labels)
    assert [p.name for p in tmp_path.iterdir()] == ["pool.emb"]


def test_unlinked_pool_samples_the_same_episodes(tmp_path):
    emb = make_set(np.random.default_rng(18), n_classes=6, per_class=10)
    path = tmp_path / "pool.emb"
    save_embedding_set(emb, path)
    loaded = load_embedding_set(path)
    path.unlink()
    for seed in range(5):
        want = sample_episode(emb, 4, 2, 3, np.random.default_rng(seed))
        got = sample_episode(loaded, 4, 2, 3, np.random.default_rng(seed))
        np.testing.assert_array_equal(got.support_x, want.support_x)
        np.testing.assert_array_equal(got.query_x, want.query_x)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.emb"
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", 4, 2, 1))  # claims 2 records
        f.write(struct.pack("<I", 0))
        f.write(np.zeros(4, dtype="<f4").tobytes())  # only 1 present
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embedding_set(path)
    assert "truncated" in str(exc.value)
    assert exc.value.offset == 16 + 20  # where the bytes ran out


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    write_raw(path, 2, [(0, [1, 2])], magic=b"NOPE")
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embedding_set(path)
    assert exc.value.offset == 0


def test_zero_dimension(tmp_path):
    path = tmp_path / "zerodim.emb"
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<III", 0, 0, 0))
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embedding_set(path)
    assert exc.value.offset == 4


def test_class_count_mismatch(tmp_path):
    path = tmp_path / "classes.emb"
    write_raw(path, 2, [(0, [1, 2]), (0, [3, 4])], n_classes=2)
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embedding_set(path)
    assert exc.value.offset == 12


def test_trailing_bytes(tmp_path):
    path = tmp_path / "trail.emb"
    write_raw(path, 2, [(0, [1, 2])])
    with open(path, "ab") as f:
        f.write(b"xx")
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embedding_set(path)
    assert exc.value.offset == 16 + 12


def test_nonfinite_value_offset(tmp_path):
    path = tmp_path / "nan.emb"
    write_raw(path, 4, [(0, [1, 2, 3, 4]), (1, [5, 6, np.nan, 8])])
    with pytest.raises(EmbeddingFormatError) as exc:
        load_embedding_set(path)
    # record 1 (record size 20), class_id u32, then component 2
    assert exc.value.offset == 16 + 20 + 4 + 8


def test_nonfinite_value_past_the_first_scan_block(tmp_path):
    dim = 256
    record = embeddings.SCAN_BYTES // (4 * dim) + 3  # in the second block
    vectors = np.ones((record + 50, dim), dtype=np.float32)
    vectors[record, 7] = -np.inf
    labels = np.arange(record + 50) % 3
    with pytest.raises(ValueError, match=f"record {record} component 7$"):
        EmbeddingSet.from_arrays(vectors, labels)
    path = tmp_path / "inf.emb"
    write_raw(path, dim, list(zip(labels.tolist(), vectors)))
    with pytest.raises(EmbeddingFormatError,
                       match=f"record {record} component 7 ") as exc:
        load_embedding_set(path)
    assert exc.value.offset == 16 + record * (4 + 4 * dim) + 4 + 4 * 7


def test_save_rejects_nonfinite_before_writing(tmp_path):
    vectors = np.array([[1.0, np.inf]], dtype=np.float32)
    emb = EmbeddingSet(dim=2, vectors=vectors,
                       labels=np.array([0]), class_index={0: np.array([0])})
    path = tmp_path / "never.emb"
    with pytest.raises(ValueError):
        save_embedding_set(emb, path)
    assert not path.exists()


def test_save_rejects_class_id_beyond_u32(tmp_path):
    emb = EmbeddingSet.from_arrays(np.ones((2, 3), dtype=np.float32),
                                   np.array([7, 2 ** 32 + 1]))
    path = tmp_path / "never.emb"
    with pytest.raises(ValueError, match=str(2 ** 32 + 1)):
        save_embedding_set(emb, path)
    assert not path.exists()
    # Checked before any cast: as int64, 2**64 - 1 would read as -1.
    wide = EmbeddingSet(dim=3, vectors=np.ones((1, 3), dtype=np.float32),
                        labels=np.array([2 ** 64 - 1], dtype=np.uint64),
                        class_index={})
    with pytest.raises(ValueError, match="u32"):
        save_embedding_set(wide, path)
    assert not path.exists()
    top = EmbeddingSet.from_arrays(np.ones((1, 3), dtype=np.float32),
                                   np.array([2 ** 32 - 1]))
    save_embedding_set(top, path)
    assert load_embedding_set(path).labels.tolist() == [2 ** 32 - 1]


def test_empty_set_roundtrip(tmp_path):
    emb = EmbeddingSet.from_arrays(np.empty((0, 8), dtype=np.float32),
                                   np.empty(0, dtype=np.int64))
    path = tmp_path / "empty.emb"
    save_embedding_set(emb, path)
    back = load_embedding_set(path)
    assert back.dim == 8
    assert back.n_records == 0


def test_roundtrip_property_random_sets(tmp_path):
    # load(save(x)) must reproduce vectors and labels bit for bit.
    rng = np.random.default_rng(10)
    for trial in range(25):
        n_classes = int(rng.integers(1, 6))
        per_class = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 33))
        emb = make_set(rng, n_classes, per_class, dim)
        path = tmp_path / f"rt{trial}.emb"
        save_embedding_set(emb, path)
        back = load_embedding_set(path)
        assert back.dim == emb.dim
        np.testing.assert_array_equal(back.vectors, emb.vectors)
        np.testing.assert_array_equal(back.labels, emb.labels)
        assert set(back.class_index) == set(emb.class_index)
        for c in emb.class_index:
            np.testing.assert_array_equal(back.class_index[c],
                                          emb.class_index[c])


def test_episode_sizes_five_way_one_shot():
    rng = np.random.default_rng(11)
    emb = make_set(rng, n_classes=8, per_class=20, dim=6)
    ep = sample_episode(emb, 5, 1, 15, np.random.default_rng(0))
    assert ep.support_x.shape == (5, 6)
    assert ep.query_x.shape == (75, 6)


def test_episode_per_class_counts_and_disjointness():
    rng = np.random.default_rng(12)
    emb = make_set(rng, n_classes=10, per_class=12, dim=4)
    for seed in range(20):
        ep = sample_episode(emb, 4, 3, 5, np.random.default_rng(seed))
        for c in range(4):
            assert np.sum(ep.support_y == c) == 3
            assert np.sum(ep.hidden_labels == c) == 5
        drawn = np.concatenate([ep.support_idx, ep.query_idx])
        assert len(set(drawn.tolist())) == drawn.size  # no record reused


def test_episode_single_class_pool_splits_two_records():
    emb = EmbeddingSet.from_arrays(
        np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        np.array([7, 7]))
    ep = sample_episode(emb, 1, 1, 1, np.random.default_rng(3))
    assert {int(ep.support_idx[0]), int(ep.query_idx[0])} == {0, 1}


def test_episode_deterministic_given_seed():
    rng = np.random.default_rng(13)
    emb = make_set(rng, n_classes=9, per_class=25, dim=8)
    a = sample_episode(emb, 5, 5, 15, np.random.default_rng(99))
    b = sample_episode(emb, 5, 5, 15, np.random.default_rng(99))
    np.testing.assert_array_equal(a.support_idx, b.support_idx)
    np.testing.assert_array_equal(a.query_idx, b.query_idx)
    np.testing.assert_array_equal(a.support_x, b.support_x)


def test_episode_insufficient_classes():
    rng = np.random.default_rng(14)
    emb = make_set(rng, n_classes=3, per_class=10)
    with pytest.raises(ValueError, match="classes"):
        sample_episode(emb, 5, 1, 1, np.random.default_rng(0))


def test_episode_insufficient_records():
    rng = np.random.default_rng(15)
    emb = make_set(rng, n_classes=5, per_class=4)
    with pytest.raises(ValueError, match="fewer than"):
        sample_episode(emb, 5, 3, 5, np.random.default_rng(0))


def test_synthetic_zero_noise_collapses_classes():
    emb = generate_synthetic(4, 6, 10, 5.0, 0.0, np.random.default_rng(20))
    for c in range(4):
        rows = emb.vectors[emb.labels == c]
        assert np.all(rows == rows[0])


def test_synthetic_counts():
    emb = generate_synthetic(20, 50, 64, 1.0, 1.0, np.random.default_rng(21))
    assert emb.n_records == 1000
    assert emb.n_classes == 20
    assert emb.dim == 64


def test_synthetic_mean_norms():
    emb = generate_synthetic(6, 400, 32, 7.0, 0.1, np.random.default_rng(22))
    for c in range(6):
        mean = emb.vectors[emb.labels == c].mean(axis=0)
        assert np.linalg.norm(mean) == pytest.approx(7.0, rel=0.02)


def test_synthetic_deterministic():
    a = generate_synthetic(3, 5, 8, 2.0, 0.5, np.random.default_rng(23))
    b = generate_synthetic(3, 5, 8, 2.0, 0.5, np.random.default_rng(23))
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_synthetic_nearest_mean_oracle():
    # Brute-force oracle: estimate class means from a held-in slice, then
    # nearest-mean classify 10k held-out points. mean_scale=10, sigma=1
    # must give essentially perfect separation.
    n_classes, per_class, held_in = 20, 600, 100
    emb = generate_synthetic(n_classes, per_class, 64, 10.0, 1.0,
                             np.random.default_rng(24))
    means = np.stack([
        emb.vectors[emb.class_index[c][:held_in]].mean(axis=0)
        for c in range(n_classes)
    ])
    correct = total = 0
    for c in range(n_classes):
        held_out = emb.vectors[emb.class_index[c][held_in:]].astype(np.float64)
        d2 = ((held_out[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        correct += int(np.sum(d2.argmin(axis=1) == c))
        total += held_out.shape[0]
    assert total == 10000
    assert correct / total >= 0.99


def test_invalid_generation_args():
    rng = np.random.default_rng(25)
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 8, 1.0, 1.0, rng)
    with pytest.raises(ValueError):
        generate_synthetic(2, 5, 8, 1.0, -0.1, rng)
