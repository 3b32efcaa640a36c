import csv
import json
import struct
import tracemalloc

import numpy as np
import pytest
import scipy

from circembed import (Embedding, GridSpec, MaternKernel, first_column,
                       sampler, spectrum)
from circembed.embedding import grid_points
from circembed.formats import (MAGIC, read_field_binary, write_field_binary,
                               write_field_csv, write_manifest,
                               write_spectrum_csv)


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

    def test_bytes_equal_numpy_scalar_rows(self, tmp_path):
        # rows of Python numbers must format exactly as the numpy-scalar
        # rows [*map(int, k), repr(float(v))] did, special values included
        def numpy_scalar_rows(path, columns, rows):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(rows)
            return path.read_bytes()

        grid = GridSpec(d=2, m0=2)
        values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                           2.2250738585072014e-308, 0.1, -1.0 / 3.0, 1e300])
        idx = grid_points(np.arange(3), 2)
        expected = numpy_scalar_rows(
            tmp_path / "old.csv", ["k1", "k2", "value"],
            ([*map(int, k), repr(float(v))] for k, v in zip(idx, values)))
        path = write_field_csv(tmp_path / "new.csv", values, grid)
        assert path.read_bytes() == expected

        kernel = MaternKernel(1.0, 0.3, 1.5, 2)
        emb = Embedding(GridSpec(d=2, m0=3), m=4)
        spec = spectrum(first_column(kernel, emb), emb)
        idx = grid_points(np.arange(2 * emb.m), 2)
        expected = numpy_scalar_rows(
            tmp_path / "old_spec.csv", ["index_lex", "k1", "k2", "lambda_ext"],
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
    tracemalloc.start()
    try:
        write_field_binary(tmp_path / "f.bin", values, d=2, m0=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes // 8
    assert np.array_equal(read_field_binary(tmp_path / "f.bin")[0], values)


def test_binary_reader_holds_one_copy_of_the_values(tmp_path, rng):
    values = rng.normal(size=(64, 33 * 33))  # d=2, m0=32, 545 KiB
    write_field_binary(tmp_path / "f.bin", values, d=2, m0=32)
    tracemalloc.start()
    try:
        back, _ = read_field_binary(tmp_path / "f.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes + 2**16
    assert np.array_equal(back, values)
