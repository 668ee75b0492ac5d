"""Tensor container round trips, corruption detection, manifests and
diagnostics CSV."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssnt import fileio
from ssnt.fileio import (
    FormatError,
    RunManifest,
    export_diagnostics,
    fnv1a64,
    read_diagnostics,
    read_tensor,
    write_tensor,
)
from ssnt.network import LossBreakdown
from ssnt.solvers import Diagnostics

# numpy warns on uint64 scalar overflow but wraps arrays silently, so a
# RuntimeWarning fails the test: the checksum must stay on the array path.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# The vectorised checksum solves the state's low bytes over blocks of
# BLOCK bytes and folds them into the state by one dot product per CHUNK.
CHUNK = 1 << 16
BLOCK = 1 << 18


def fnv1a64_loop(data):
    """The byte-serial definition of 64-bit FNV-1a."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestFnv1a:
    def test_known_vectors(self):
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    @pytest.mark.parametrize(
        "n", [0, 1, 63, 64, 65, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 63, 3 * CHUNK + 77,
              BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 63]
    )
    def test_equals_the_byte_loop_at_chunk_edges(self, n):
        data = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes()
        assert fnv1a64(data) == fnv1a64_loop(data)

    @pytest.mark.parametrize("byte", [0x00, 0xFF])
    def test_constant_runs_across_chunks(self, byte):
        data = bytes([byte]) * (BLOCK + 5)  # across four chunk edges and a block edge
        assert fnv1a64(data) == fnv1a64_loop(data)

    def test_takes_any_contiguous_buffer(self):
        values = np.random.default_rng(3).standard_normal(1000)
        expected = fnv1a64_loop(values.tobytes())
        assert fnv1a64(values) == fnv1a64(memoryview(values.tobytes())) == expected

    @settings(deadline=None, max_examples=40)
    @given(st.binary(max_size=4096), st.just(0) | st.integers(CHUNK - 4096, CHUNK))
    def test_equals_the_byte_loop(self, data, pad):
        """Random bytes, alone or behind zeros that put them across a
        chunk boundary."""
        data = bytes(pad) + data
        assert fnv1a64(data) == fnv1a64_loop(data)

    @settings(deadline=None, max_examples=20)
    @given(st.binary(min_size=1, max_size=4096), st.integers(0, 4095))
    def test_equals_the_byte_loop_across_a_block_edge(self, data, before):
        """Random bytes behind zeros that put ``before`` of them in the
        first block and the rest in the second."""
        data = bytes(BLOCK - min(before, len(data))) + data
        assert fnv1a64(data) == fnv1a64_loop(data)

    def test_small_input_allocates_little(self):
        """Scratch buffers are sized to the data, not to a block."""
        data = np.random.default_rng(5).integers(0, 256, 1024, dtype=np.uint8).tobytes()
        fnv1a64(data)  # builds the cached table of powers
        tracemalloc.start()
        try:
            fnv1a64(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestTensorFile:
    def test_bitwise_roundtrip(self, tmp_path):
        t = np.random.default_rng(0).standard_normal((3, 4, 5))
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert np.array_equal(back, t)
        assert back.dtype == np.float64
        assert back.flags.c_contiguous and back.flags.writeable

    def test_layout_is_slice_major(self, tmp_path):
        """Payload bytes enumerate k slowest, then i, then j."""
        t = np.arange(24, dtype=float).reshape(2, 3, 4)
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = path.read_bytes()
        payload = np.frombuffer(blob[31:-8], dtype="<f8")
        expect = [t[i, j, k] for k in range(4) for i in range(2) for j in range(3)]
        assert np.array_equal(payload, expect)

    def test_truncated_payload_is_dims_error(self, tmp_path):
        t = np.random.default_rng(1).standard_normal((3, 4, 5))
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.reason == "dims"

    def test_flipped_byte_is_checksum_error(self, tmp_path):
        t = np.random.default_rng(2).standard_normal((3, 4, 5))
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.reason == "checksum"

    def test_flipped_byte_in_a_late_chunk_is_checksum_error(self, tmp_path):
        t = np.random.default_rng(3).standard_normal((40, 30, 20))  # 3 chunks and a part
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = bytearray(path.read_bytes())
        blob[31 + 2 * CHUNK + 1000] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.reason == "checksum"

    def test_flipped_byte_in_the_second_block_is_checksum_error(self, tmp_path):
        t = np.random.default_rng(6).standard_normal((40, 30, 40))  # a block and a part
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = bytearray(path.read_bytes())
        blob[31 + BLOCK + 1000] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.reason == "checksum"

    def test_trailer_is_the_checksum_of_the_payload(self, tmp_path):
        t = np.random.default_rng(4).standard_normal((40, 30, 20))
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = path.read_bytes()
        assert int.from_bytes(blob[-8:], "little") == fnv1a64_loop(blob[31:-8])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.ssnt"
        path.write_bytes(b"NOTIT" + bytes(60))
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.reason == "magic"

    def test_bad_version(self, tmp_path):
        t = np.zeros((1, 1, 1))
        path = tmp_path / "t.ssnt"
        write_tensor(path, t)
        blob = bytearray(path.read_bytes())
        blob[5] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            read_tensor(path)
        assert err.value.reason == "version"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_tensor(tmp_path / "nope.ssnt")

    def test_missing_directory_names_the_path(self, tmp_path):
        path = tmp_path / "no" / "t.ssnt"
        with pytest.raises(FileNotFoundError) as err:
            write_tensor(path, np.zeros((1, 1, 1)))
        assert err.value.filename == str(path)
        assert not (tmp_path / "no").exists()

    def test_rejects_non_third_order(self, tmp_path):
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "t.ssnt", np.zeros((2, 2)))

    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, 0), (0, 0, 0)])
    def test_rejects_a_zero_dimension_and_leaves_no_file(self, tmp_path, dims):
        """The writer refuses what the reader rejects, before any file exists."""
        with pytest.raises(ValueError, match="zero dimension"):
            write_tensor(tmp_path / "t.ssnt", np.zeros(dims))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", ["write", "replace"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, fault):
        """A write that fails once its temporary file exists, mid-way
        through the buffers or at the final rename, raises, removes the
        ``.ssnt-tmp-*`` file and leaves the old target as it was."""
        path = tmp_path / "t.ssnt"
        write_tensor(path, np.ones((2, 2, 2)))
        before = path.read_bytes()
        if fault == "write":
            with pytest.raises(TypeError):
                fileio._atomic_write(path, b"first buffer", object())  # the second write fails
        else:
            def no_space(src, dst):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(fileio.os, "replace", no_space)
            with pytest.raises(OSError, match="No space"):
                write_tensor(path, np.zeros((2, 2, 2)))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before


class TestManifest:
    def test_lossless_roundtrip(self, tmp_path):
        m = RunManifest(
            command="complete",
            config={"lam": 0.1 + 1e-17, "lr": 1e-3, "t_max": 7},
            seed=42,
            started="2026-08-08T00:00:00+00:00",
            finished="2026-08-08T00:00:05+00:00",
            outputs={"x": "x.ssnt"},
            metrics={"psnr": 31.234567890123456},
            normalization={"min": -0.25, "max": 1.75},
        )
        path = tmp_path / "run.json"
        m.save(path)
        assert RunManifest.load(path) == m


class TestDiagnosticsCsv:
    def history(self, n):
        return [
            Diagnostics(i, 0.1 / (i + 1), 0.05 / (i + 1), LossBreakdown(1.0 / (i + 1), 2.0 / (i + 1), 0.25))
            for i in range(n)
        ]

    def test_empty_history_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        with pytest.raises(ValueError):
            export_diagnostics([], path)
        assert not path.exists()

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        export_diagnostics(self.history(1), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("iteration,rel_err_weights,rel_err_V")

    def test_parse_back_exact(self, tmp_path):
        path = tmp_path / "d.csv"
        history = self.history(5)
        export_diagnostics(history, path)
        rows = read_diagnostics(path)
        for d, row in zip(history, rows):
            assert row["iteration"] == d.iteration
            assert row["rel_err_weights"] == d.rel_err_weights
            assert row["rel_err_V"] == d.rel_err_v
            assert row["loss_total"] == d.loss.total
            assert row["loss_lowrank"] == d.loss.l1_lowrank
            assert row["loss_fidelity"] == d.loss.l2_fidelity
            assert row["tv_penalty"] == d.loss.tv_penalty
