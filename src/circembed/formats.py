"""File formats: field samples (CSV and raw binary), spectrum export and
run manifests.

Binary field layout (all little-endian):

    bytes 0..7   magic  b"GRFFLD01"
    u32          d
    u32          m0
    u64          n_samples
    then n_samples * (m0+1)^d float64 field values, each sample in
    lexicographic grid order.

Every binary or CSV artifact gets a JSON sidecar with the full metadata
needed to reproduce it.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np
import scipy

from . import sampler
from .embedding import GridSpec, Spectrum, grid_points

MAGIC = b"GRFFLD01"
_HEADER = struct.Struct("<8sIIQ")

__all__ = [
    "MAGIC",
    "write_field_binary",
    "read_field_binary",
    "write_csv",
    "write_field_csv",
    "write_spectrum_csv",
    "write_json",
    "write_manifest",
]


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir, command: str, params: dict, outputs=()) -> Path:
    """One manifest per run: command, library version, effective parameters
    and produced files, plus the sampler's thread count, its FFT backend
    and the numpy and scipy versions."""
    from . import __version__

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    write_json(path, {
        "command": command,
        "version": __version__,
        "parameters": params,
        "outputs": [str(o) for o in outputs],
        "sampler_workers": sampler.worker_count(),
        "fft_backend": sampler.FFT_BACKEND,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    })
    return path


def write_field_binary(path, values: np.ndarray, d: int, m0: int,
                       sidecar: dict | None = None) -> Path:
    """Write samples (shape (n, (m0+1)^d)) in the raw binary field format."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, npts = values.shape
    if npts != (m0 + 1) ** d:
        raise ValueError(f"write_field_binary: expected {(m0 + 1) ** d} "
                         f"values per sample, got {npts}")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, d, m0, n))
        fh.write(np.ascontiguousarray(values, dtype="<f8").data)
    if sidecar is not None:
        write_json(path.with_suffix(path.suffix + ".json"), sidecar)
    return path


def read_field_binary(path):
    """Read a raw binary field file; returns (values (n, M), header dict)."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated field file")
        magic, d, m0, n = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        npts = (m0 + 1) ** d
        found = (os.fstat(fh.fileno()).st_size - _HEADER.size) // 8
        if found != n * npts:
            raise ValueError(f"{path}: expected {n * npts} values, "
                             f"found {found}")
        # read into the one array returned; no copy of the file is held
        data = np.fromfile(fh, dtype="<f8", count=found)
    values = data.reshape(n, npts).astype(float, copy=False)
    return values, {"d": int(d), "m0": int(m0), "n_samples": int(n)}


def write_csv(path, columns, rows) -> Path:
    """A CSV file with header `columns` and one line per row of `rows`.

    Give rows of Python numbers (`ndarray.tolist()`), not numpy scalars:
    a Python float is written as its shortest round-trip repr, and a row
    of them formats faster than a row of numpy scalars.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def write_field_csv(path, values: np.ndarray, grid: GridSpec) -> Path:
    """Write one sample as CSV with columns k1..kd, value."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != grid.n_points:
        raise ValueError("write_field_csv: sample size does not match grid")
    idx = grid_points(np.arange(grid.m0 + 1), grid.d)
    return write_csv(path, [f"k{i + 1}" for i in range(grid.d)] + ["value"],
                     (k + [v] for k, v in zip(idx.tolist(), values.tolist())))


def write_spectrum_csv(path, spec: Spectrum, kernel=None) -> Path:
    """Export a spectrum as CSV (index_lex, k1..kd, lambda_ext) with a JSON
    sidecar recording the embedding and kernel."""
    emb = spec.embedding
    grid = emb.grid
    d = grid.d
    idx = grid_points(np.arange(2 * emb.m), d)
    path = write_csv(path, ["index_lex"] + [f"k{i + 1}" for i in range(d)]
                     + ["lambda_ext"],
                     ([i, *k, v] for i, (k, v) in enumerate(
                         zip(idx.tolist(), spec.values_flat.tolist()))))
    sidecar = {
        "d": d,
        "m0": grid.m0,
        "m": emb.m,
        "ell": emb.ell,
        "s": emb.s,
        "tol": spec.tolerance,
        "min_eig": spec.min_value,
        "kernel": kernel.to_json() if kernel is not None else None,
    }
    write_json(path.with_suffix(path.suffix + ".json"), sidecar)
    return path
