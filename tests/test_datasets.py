"""Dataset file format, text import, blob generator."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmft.datasets import (
    HEADER_BYTES,
    MAGIC,
    decode_dataset,
    encode_dataset,
    file_bytes,
    make_blobs,
    read_dataset,
    write_dataset,
)
from kmft.errors import ConfigError
from kmft.kmeans import Dataset, KmeansConfig, run_sequential


class TestFormat:
    def test_golden_bytes(self):
        data = Dataset(np.array([[1.5], [2.5]]))
        buf = encode_dataset(data)
        assert buf == (b"KMDS"
                       + (2).to_bytes(8, "little") + (1).to_bytes(8, "little")
                       + struct.pack("<2d", 1.5, 2.5))

    def test_file_size_arithmetic(self):
        assert HEADER_BYTES == 20
        data = Dataset(np.zeros((1000, 10)))
        assert len(encode_dataset(data)) == file_bytes(1000, 10)
        assert file_bytes(1000, 10) == 20 + 1000 * 10 * 8

    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(50, 7)))
        back = decode_dataset(encode_dataset(data))
        assert np.array_equal(back.values, data.values)
        assert back.values.dtype == np.float64

    def test_payload_is_row_major_whatever_the_layout_in_memory(self):
        x = np.random.default_rng(8).normal(size=(40, 3))
        data = Dataset(x)
        assert data.values.flags.f_contiguous and not data.values.flags.c_contiguous
        buf = encode_dataset(data)
        assert buf[HEADER_BYTES:] == np.ascontiguousarray(x, dtype="<f8").tobytes()
        back = decode_dataset(buf)
        assert back.values.flags.f_contiguous and not back.values.flags.writeable
        assert back.values.tobytes() == x.tobytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigError, match="magic"):
            decode_dataset(b"XMDS" + bytes(16))

    def test_truncated_payload_rejected(self):
        buf = encode_dataset(Dataset(np.zeros((4, 2))))
        with pytest.raises(ConfigError, match="bytes"):
            decode_dataset(buf[:-8])

    def test_trailing_garbage_rejected(self):
        buf = encode_dataset(Dataset(np.zeros((4, 2))))
        with pytest.raises(ConfigError, match="bytes"):
            decode_dataset(buf + b"\x00")

    def test_zero_dimension_header_rejected(self):
        buf = MAGIC + struct.pack("<QQ", 0, 0)
        with pytest.raises(ConfigError):
            decode_dataset(buf)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_roundtrip_property(self, n, d, seed):
        rng = np.random.default_rng(seed)
        data = Dataset(rng.uniform(-1e6, 1e6, size=(n, d)))
        back = decode_dataset(encode_dataset(data))
        assert np.array_equal(back.values, data.values)


class TestFiles:
    def test_write_then_read(self, tmp_path):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(30, 4)))
        p = tmp_path / "d.kmds"
        write_dataset(p, data)
        assert p.stat().st_size == file_bytes(30, 4)
        assert np.array_equal(read_dataset(p).values, data.values)

    def test_same_seed_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(a, make_blobs(100, 3, 5, 0.5, seed=9)[0])
        write_dataset(b, make_blobs(100, 3, 5, 0.5, seed=9)[0])
        assert a.read_bytes() == b.read_bytes()

    def test_csv_import(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,4.5\n")
        data = read_dataset(p)
        assert np.array_equal(data.values, [[1.0, 2.0], [3.0, 4.5]])

    def test_single_column_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n2.0\n3.0\n")
        assert read_dataset(p).values.shape == (3, 1)

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "junk"
        p.write_text("definitely,not\nnumbers,here\n")
        with pytest.raises(ConfigError, match="neither"):
            read_dataset(p)


class TestBlobs:
    def test_deterministic_per_seed(self):
        a, _ = make_blobs(60, 2, 4, 0.1, seed=5)
        b, _ = make_blobs(60, 2, 4, 0.1, seed=5)
        c, _ = make_blobs(60, 2, 4, 0.1, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_file_bytes_are_pinned_across_versions(self):
        """The module promises byte-reproducible files: this digest was
        taken from an earlier version of the generator and the encoder."""
        data, _ = make_blobs(200, 3, 4, 2.0, seed=3)
        assert hashlib.sha256(encode_dataset(data)).hexdigest() == \
            "6dc78a41a75397b355ca64082c103a38d5bbfa07f9e63792d3ec34b0a3a3f776"

    def test_labels_interleaved(self):
        # with zero spread every sample of a blob is an exact copy of its
        # center, so row i repeats at stride `blobs`
        data, means = make_blobs(40, 3, 8, 0.0, seed=2)
        for i in range(8):
            assert np.array_equal(data.values[i], data.values[i + 8])
            assert np.array_equal(data.values[i], data.values[i + 32])
        np.testing.assert_allclose(data.values[:8], means, rtol=1e-15, atol=0)

    def test_blob_count_validation(self):
        with pytest.raises(ConfigError):
            make_blobs(5, 2, 6, 0.1, seed=0)
        with pytest.raises(ConfigError):
            make_blobs(5, 2, 0, 0.1, seed=0)
        with pytest.raises(ConfigError):
            make_blobs(5, 2, 2, -0.5, seed=0)
        with pytest.raises(ConfigError, match="seed"):
            make_blobs(5, 2, 2, 0.1, seed=-3)

    def test_kmeans_recovers_blob_means(self):
        data, means = make_blobs(400, 2, 4, spread=1e-3, seed=3)
        centroids, table, _ = run_sequential(data, KmeansConfig(k=4, max_iters=100))
        assert not table.changed
        # seeding puts centroid b in blob b, so rows align directly
        np.testing.assert_allclose(centroids.centers, means, rtol=0, atol=1e-6)

    def test_two_separated_blobs_match_means_tightly(self):
        data, means = make_blobs(200, 2, 2, spread=1e-4, seed=11)
        centroids, _, _ = run_sequential(data, KmeansConfig(k=2, max_iters=50))
        np.testing.assert_allclose(centroids.centers, means, rtol=0, atol=1e-9)
