import csv
import json
import os
import re
import struct
import types

import numpy as np
import pytest
import scipy

from circembed import (Embedding, GridSpec, MaternKernel, Spectrum,
                       first_column, formats, sampler, spectrum)
from circembed.embedding import grid_points
from circembed.formats import (MAGIC, field_binary_writer, field_csv_writer,
                               read_field_binary, write_field_binary,
                               write_field_csv, write_manifest,
                               write_spectrum_csv)
from conftest import traced_peak


class TestBinaryFormat:
    def test_round_trip(self, tmp_path, rng):
        values = rng.normal(size=(5, 27))  # d=3, m0=2
        path = write_field_binary(tmp_path / "f.bin", values, d=3, m0=2,
                                  sidecar={"seed": 1})
        back, header = read_field_binary(path)
        assert np.array_equal(back, values)
        assert header == {"d": 3, "m0": 2, "n_samples": 5}
        sidecar = json.loads((tmp_path / "f.bin.json").read_text())
        assert sidecar == {"seed": 1}

    def test_header_layout(self, tmp_path):
        values = np.arange(3.0)[None, :]  # d=1, m0=2
        path = write_field_binary(tmp_path / "f.bin", values, d=1, m0=2)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        d, m0, n = struct.unpack_from("<IIQ", raw, 8)
        assert (d, m0, n) == (1, 2, 1)
        assert np.frombuffer(raw, dtype="<f8", offset=24).tolist() == [0, 1, 2]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 24)
        with pytest.raises(ValueError):
            read_field_binary(p)

    def test_truncated(self, tmp_path):
        values = np.zeros((2, 3))
        path = write_field_binary(tmp_path / "f.bin", values, d=1, m0=2)
        (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_field_binary(tmp_path / "cut.bin")

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_field_binary(tmp_path / "f.bin", np.zeros((1, 5)), d=1, m0=2)
        assert list(tmp_path.iterdir()) == []

    def test_size_errors_count_the_values(self, tmp_path):
        values = np.zeros((2, 3))
        path = write_field_binary(tmp_path / "f.bin", values, d=1, m0=2)
        raw = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="expected 6 values, found 5"):
            read_field_binary(tmp_path / "cut.bin")
        (tmp_path / "long.bin").write_bytes(raw + bytes(16))
        with pytest.raises(ValueError, match="expected 6 values, found 8"):
            read_field_binary(tmp_path / "long.bin")
        (tmp_path / "head.bin").write_bytes(raw[:20])
        with pytest.raises(ValueError, match="truncated"):
            read_field_binary(tmp_path / "head.bin")


class TestCsvFormats:
    def test_field_csv(self, tmp_path):
        grid = GridSpec(d=2, m0=1)
        path = write_field_csv(tmp_path / "s.csv", np.array([1.0, 2.0, 3.0, 4.0]),
                               grid)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k1", "k2", "value"]
        assert rows[1] == ["0", "0", "1.0"]
        assert rows[4] == ["1", "1", "4.0"]
        with pytest.raises(ValueError,
                           match="sample size does not match grid"):
            write_field_csv(tmp_path / "t.csv", np.ones(3), grid)

    def test_spectrum_csv_with_sidecar(self, tmp_path):
        k = MaternKernel(1.0, 1.0, 0.5, 1)
        emb = Embedding(GridSpec(d=1, m0=2), m=2)
        spec = spectrum(first_column(k, emb), emb)
        path = write_spectrum_csv(tmp_path / "spec.csv", spec, k)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index_lex", "k1", "lambda_ext"]
        assert len(rows) == 1 + emb.s
        # values are round-trippable floats in lexicographic order
        vals = np.array([float(r[2]) for r in rows[1:]])
        assert np.array_equal(vals, spec.values_flat)
        sidecar = json.loads((tmp_path / "spec.csv.json").read_text())
        assert sidecar["d"] == 1 and sidecar["m"] == 2 and sidecar["s"] == 4
        assert sidecar["kernel"]["family"] == "matern"
        assert sidecar["min_eig"] == spec.min_value

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bytes_equal_numpy_scalar_rows(self, d, tmp_path):
        # rows of Python numbers must format exactly as the numpy-scalar
        # rows [*map(int, k), repr(float(v))] did, special values included
        def numpy_scalar_rows(path, columns, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(rows)
            return path.read_bytes()

        keys = [f"k{i + 1}" for i in range(d)]
        grid = GridSpec(d=d, m0=8 if d == 1 else 2)
        values = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                            2.2250738585072014e-308, 0.1, -1.0 / 3.0, 1e300],
                           grid.n_points)
        idx = grid_points(np.arange(grid.m0 + 1), d)
        expected = numpy_scalar_rows(
            tmp_path / "old.csv", keys + ["value"],
            ([*map(int, k), repr(float(v))] for k, v in zip(idx, values)))
        path = write_field_csv(tmp_path / "new.csv", values, grid)
        assert path.read_bytes() == expected

        kernel = MaternKernel(1.0, 0.3, 1.5, d)
        emb = Embedding(GridSpec(d=d, m0=3), m=4)
        spec = spectrum(first_column(kernel, emb), emb)
        idx = grid_points(np.arange(2 * emb.m), d)
        expected = numpy_scalar_rows(
            tmp_path / "old_spec.csv", ["index_lex", *keys, "lambda_ext"],
            ([i, *map(int, k), repr(float(v))]
             for i, (k, v) in enumerate(zip(idx, spec.values_flat))))
        path = write_spectrum_csv(tmp_path / "new_spec.csv", spec)
        assert path.read_bytes() == expected

    def test_manifest(self, tmp_path):
        path = write_manifest(tmp_path, "min-ell", {"m0": 8}, outputs=["a.csv"])
        data = json.loads(path.read_text())
        assert data["command"] == "min-ell"
        assert data["parameters"] == {"m0": 8}
        assert "version" in data
        assert data["sampler_workers"] == sampler.worker_count() >= 1
        assert data["fft_backend"] == "scipy.fft"
        assert data["numpy_version"] == np.__version__
        assert data["scipy_version"] == scipy.__version__


def test_binary_writer_makes_no_copy_of_the_values(tmp_path, rng):
    values = rng.normal(size=(64, 33 * 33))  # d=2, m0=32, 545 KiB
    with traced_peak() as peak:
        write_field_binary(tmp_path / "f.bin", values, d=2, m0=32)
    assert peak.bytes < values.nbytes // 8
    assert np.array_equal(read_field_binary(tmp_path / "f.bin")[0], values)


def test_binary_reader_holds_one_copy_of_the_values(tmp_path, rng):
    values = rng.normal(size=(64, 33 * 33))  # d=2, m0=32, 545 KiB
    write_field_binary(tmp_path / "f.bin", values, d=2, m0=32)
    with traced_peak() as peak:
        back, _ = read_field_binary(tmp_path / "f.bin")
    assert peak.bytes <= values.nbytes + 2**16
    assert np.array_equal(back, values)


@pytest.mark.parametrize("m", [128, 256])
def test_spectrum_export_holds_no_table_of_its_rows(m, tmp_path, rng):
    # s = 2^16 and 2^18 rows; index and value tables of Python numbers
    # would take 8 and 40 MiB
    emb = Embedding(GridSpec(d=2, m0=8), m=m)
    spec = Spectrum(rng.random((2 * m, 2 * m)), 0.0, 0.0, emb)
    with traced_peak() as peak:
        path = write_spectrum_csv(tmp_path / "spec.csv", spec)
    assert peak.bytes < 4 * 2**20
    with open(path, "rb") as fh:
        assert sum(1 for _ in fh) == 1 + emb.s


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_rows_are_lexicographic_across_blocks(d, rng):
    values = rng.standard_normal(5**d)
    rows = formats._grid_rows(values, 5, d, block=7)
    assert list(rows) == [[*k, v] for k, v in zip(
        grid_points(np.arange(5), d).tolist(), values.tolist())]


class TestStreamedBinary:
    def test_chunks_in_any_order_make_the_whole_file(self, tmp_path, rng):
        values = rng.normal(size=(7, 9))  # d=2, m0=2
        write_field_binary(tmp_path / "whole.bin", values, d=2, m0=2)
        with field_binary_writer(tmp_path / "chunks.bin", 7, 2, 2) as write:
            for lo, hi in [(4, 7), (0, 1), (1, 4)]:
                write(lo, values[lo:hi])
            assert not (tmp_path / "chunks.bin").exists()
            assert (tmp_path / "chunks.bin.part").exists()
        assert (tmp_path / "chunks.bin").read_bytes() == \
            (tmp_path / "whole.bin").read_bytes()
        assert not (tmp_path / "chunks.bin.part").exists()

    def test_a_failed_block_leaves_no_file(self, tmp_path, rng):
        (tmp_path / "f.bin").write_bytes(b"earlier run")
        with pytest.raises(OSError, match="disk went away"):
            with field_binary_writer(tmp_path / "f.bin", 4, 1, 2,
                                     sidecar={"seed": 1}) as write:
                write(0, rng.normal(size=(2, 3)))
                raise OSError("disk went away")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin"]
        assert (tmp_path / "f.bin").read_bytes() == b"earlier run"

    @pytest.mark.parametrize("lo,shape", [(3, (2, 3)), (-1, (1, 3)),
                                          (0, (1, 4)), (0, (3,))])
    def test_rows_that_do_not_fit_are_rejected(self, tmp_path, lo, shape):
        with pytest.raises(ValueError, match="do not fit 4 samples of 3"):
            with field_binary_writer(tmp_path / "f.bin", 4, 1, 2) as write:
                write(lo, np.zeros(shape))
        assert list(tmp_path.iterdir()) == []

    def test_too_little_free_space_is_an_io_error(self, tmp_path,
                                                  monkeypatch):
        need = struct.calcsize("<8sIIQ") + 8 * 4 * 3
        full = types.SimpleNamespace(f_bavail=need - 1, f_frsize=1,
                                     f_blocks=10**9)
        monkeypatch.setattr(os, "statvfs", lambda path: full)
        with pytest.raises(OSError, match=f"needs {need} bytes, and its "
                           f"file system has {need - 1} bytes free"):
            write_field_binary(tmp_path / "f.bin", np.zeros((4, 3)), 1, 2)
        assert list(tmp_path.iterdir()) == []


class TestStreamedCsv:
    GRID = GridSpec(1, 2)  # 3 points; the shortest line is "0,0\r\n"

    @staticmethod
    def file_system(monkeypatch, **fields):
        stat = {"f_blocks": 10**9, "f_bavail": 10**9, "f_frsize": 1,
                "f_files": 10**6, "f_favail": 10**6, **fields}
        monkeypatch.setattr(os, "statvfs",
                            lambda path: types.SimpleNamespace(**stat))

    def test_rows_in_any_order_make_one_file_each(self, tmp_path, rng):
        values = rng.standard_normal((4, 3))
        out, ref = tmp_path / "out", tmp_path / "ref"
        out.mkdir()
        ref.mkdir()
        with field_csv_writer(out, 4, self.GRID, {"n": 4}) as write:
            write(2, values[2:])
            write(0, values[:2])
        for i in range(4):
            name = f"sample_{i:06d}.csv"
            expected = write_field_csv(ref / name, values[i], self.GRID)
            assert (out / name).read_bytes() == expected.read_bytes()
        assert json.loads((out / "fields.json").read_text()) == {"n": 4}

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_the_least_size_is_a_lower_bound(self, d, tmp_path):
        grid = GridSpec(d, 1)
        path = write_field_csv(tmp_path / "z.csv", np.zeros(grid.n_points),
                               grid)
        assert path.stat().st_size >= grid.n_points * (2 * d + 3)

    @pytest.mark.parametrize("fields,error,message", [
        ({"f_blocks": 59}, ValueError, "need 60 bytes at least, more than "
         "their file system holds (59 bytes, 1000000 files)"),
        ({"f_files": 3}, ValueError, "need 60 bytes at least, more than "
         "their file system holds (1000000000 bytes, 3 files)"),
        ({"f_bavail": 59}, OSError, "need 60 bytes at least, and their file "
         "system has 59 bytes and 1000000 files free"),
        ({"f_favail": 3}, OSError, "need 60 bytes at least, and their file "
         "system has 1000000000 bytes and 3 files free"),
        ({"f_favail": 0}, OSError, "need 60 bytes at least, and their file "
         "system has 1000000000 bytes and 0 files free")],
        ids=["bytes", "files", "free-bytes", "free-files", "no-free-files"])
    def test_files_that_do_not_fit_are_rejected_before_any_is_made(
            self, fields, error, message, tmp_path, monkeypatch):
        self.file_system(monkeypatch, **fields)
        with pytest.raises(error, match=re.escape(message)):
            with field_csv_writer(tmp_path, 4, self.GRID, {"n": 4}):
                pytest.fail("the block ran")
        assert list(tmp_path.iterdir()) == []

    def test_a_file_system_that_counts_no_files_does_not_limit_them(
            self, tmp_path, monkeypatch):
        self.file_system(monkeypatch, f_files=0, f_favail=0)
        with field_csv_writer(tmp_path, 4, self.GRID) as write:
            write(0, np.zeros((4, 3)))
        assert len(list(tmp_path.iterdir())) == 4

    def test_a_raising_block_removes_the_files_below_the_highest_index(
            self, tmp_path):
        # index 9 is above every row handed to write, so it is not touched
        (tmp_path / "sample_000009.csv").write_text("kept")
        with pytest.raises(OSError, match="disk went away"):
            with field_csv_writer(tmp_path, 10, self.GRID, {"n": 10}) as write:
                write(3, np.zeros((2, 3)))
                write(0, np.zeros((1, 3)))
                raise OSError("disk went away")
        assert [p.name for p in tmp_path.iterdir()] == ["sample_000009.csv"]
