"""File formats: field samples (CSV and raw binary), spectrum export and
run manifests.

Binary field layout (all little-endian):

    bytes 0..7   magic  b"GRFFLD01"
    u32          d
    u32          m0
    u64          n_samples
    then n_samples * (m0+1)^d float64 field values, each sample in
    lexicographic grid order.

A binary field file is written by one writer, `field_binary_writer`: it
checks the free space first, streams chunks of samples to their offsets
in a `.part` file as they are done, checking that they fit, and renames
that file at the end, so its memory does not grow with the file and a
failed run leaves no half-written file.  `field_csv_writer` streams
samples to one CSV file each (`SAMPLE_CSV`) in the same way, after
checking that files of their shortest possible size fit.  A CSV row, of
a sample or the spectrum export, is made as it is written, from no table.
Every binary or CSV artifact gets a JSON sidecar with the full metadata
needed to reproduce it.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import itertools
import json
import os
import struct
import threading
from pathlib import Path

import numpy as np
import scipy

from . import sampler
from .embedding import GridSpec, Spectrum

MAGIC = b"GRFFLD01"
_HEADER = struct.Struct("<8sIIQ")
SAMPLE_CSV = "sample_{:06d}.csv"  # the file name of each CSV sample

__all__ = [
    "MAGIC",
    "field_binary_writer",
    "write_field_binary",
    "read_field_binary",
    "write_csv",
    "write_field_csv",
    "field_csv_writer",
    "SAMPLE_CSV",
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


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of `data` (bytes or a contiguous array) at `offset`."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


@contextlib.contextmanager
def field_binary_writer(path, n: int, d: int, m0: int,
                        sidecar: dict | None = None):
    """Stream n samples into a binary field file: yields write(lo, rows),
    which writes `rows` (shape (k, (m0+1)^d)) as samples lo..lo+k-1 at
    their place in the file, in any order and from several threads at
    once.

    The header and rows go to `<path>.part`, which replaces `path` when the
    block ends and is removed when it raises, so a failed run leaves no
    half-written file; the sidecar, if given, is written after the rename.
    Before creating anything, raises ValueError when the file is larger
    than its whole file system, and OSError (ENOSPC) when the file system
    has fewer free bytes than the file needs.
    """
    if n < 1:
        raise ValueError(f"field_binary_writer: n must be >= 1 (n={n})")
    path = Path(path)
    npts = (m0 + 1) ** d
    size = _HEADER.size + 8 * n * npts
    stat = os.statvfs(path.parent)
    if size > stat.f_blocks * stat.f_frsize:
        raise ValueError(f"{path} would need {size} bytes, more than its "
                         f"file system holds ({stat.f_blocks * stat.f_frsize}"
                         f" bytes)")
    free = stat.f_bavail * stat.f_frsize
    if size > free:
        raise OSError(errno.ENOSPC, f"{path} needs {size} bytes, and its "
                      f"file system has {free} bytes free")
    part = path.with_name(path.name + ".part")
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)

    def write(lo: int, rows) -> None:
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != npts \
                or not 0 <= lo <= n - len(rows):
            raise ValueError(f"field_binary_writer: rows of shape "
                             f"{rows.shape} at sample {lo} do not fit {n} "
                             f"samples of {npts} values")
        _pwrite_all(fd, rows, _HEADER.size + 8 * npts * lo)

    try:
        _pwrite_all(fd, _HEADER.pack(MAGIC, d, m0, n), 0)
        yield write
    except BaseException:
        os.close(fd)
        part.unlink(missing_ok=True)
        raise
    os.close(fd)
    os.replace(part, path)
    if sidecar is not None:
        write_json(path.with_suffix(path.suffix + ".json"), sidecar)


def write_field_binary(path, values: np.ndarray, d: int, m0: int,
                       sidecar: dict | None = None) -> Path:
    """Write samples (shape (n, (m0+1)^d)) in the raw binary field format,
    through `field_binary_writer`."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    with field_binary_writer(path, len(values), d, m0, sidecar) as write:
        write(0, values)
    return Path(path)


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


def _grid_rows(values: np.ndarray, per_axis: int, d: int, block=2**16):
    """Rows [k1..kd, value] over the per_axis^d grid (lexicographic, like
    `values`), the values turned into Python floats a block at a time."""
    floats = itertools.chain.from_iterable(
        values[lo:lo + block].tolist() for lo in range(0, values.size, block))
    return ([*k, v] for k, v in zip(
        itertools.product(range(per_axis), repeat=d), floats))


def write_field_csv(path, values: np.ndarray, grid: GridSpec) -> Path:
    """Write one sample as CSV with columns k1..kd, value."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size != grid.n_points:
        raise ValueError("write_field_csv: sample size does not match grid")
    return write_csv(path, [f"k{i + 1}" for i in range(grid.d)] + ["value"],
                     _grid_rows(values, grid.m0 + 1, grid.d))


@contextlib.contextmanager
def field_csv_writer(out_dir, n: int, grid: GridSpec,
                     sidecar: dict | None = None):
    """Stream n samples into CSV files out_dir/sample_000000.csv, ... (one
    per sample, `write_field_csv`): yields write(lo, rows), which writes
    `rows` as samples lo..lo+len(rows)-1, in any order and from several
    threads at once.

    When the block raises, the sample files below the highest index
    handed to write are removed, so a failed run leaves none; the sidecar,
    if given, is written to out_dir/fields.json when the block ends.
    Before creating anything, raises ValueError when n files of the
    shortest possible size (d one-digit indices and a one-digit value per
    line) would not fit the whole file system, in bytes or in files, and
    OSError (ENOSPC) when they would not fit its free space.
    """
    out_dir = Path(out_dir)
    least = n * grid.n_points * (2 * grid.d + 3)
    stat = os.statvfs(out_dir)
    total, free = stat.f_blocks * stat.f_frsize, stat.f_bavail * stat.f_frsize
    # a file system that reports no file count does not limit it
    files, free_files = (stat.f_files, stat.f_favail) if stat.f_files \
        else (n, n)
    if least > total or n > files:
        raise ValueError(
            f"{n} CSV files in {out_dir} would need {least} bytes at least, "
            f"more than their file system holds ({total} bytes, {files} "
            f"files)")
    if least > free or n > free_files:
        raise OSError(errno.ENOSPC, f"{n} CSV files in {out_dir} need "
                      f"{least} bytes at least, and their file system has "
                      f"{free} bytes and {free_files} files free")
    lock, top = threading.Lock(), 0

    def write(lo: int, rows) -> None:
        nonlocal top
        with lock:
            top = max(top, lo + len(rows))
        for i, row in enumerate(rows, lo):
            write_field_csv(out_dir / SAMPLE_CSV.format(i), row, grid)

    try:
        yield write
    except BaseException:
        for i in range(top):
            (out_dir / SAMPLE_CSV.format(i)).unlink(missing_ok=True)
        raise
    if sidecar is not None:
        write_json(out_dir / "fields.json", sidecar)


def spectrum_sidecar(spec: Spectrum, kernel) -> dict:
    """The sidecar keys of every file made from a searched spectrum: its
    grid, extension, tol and minimum eigenvalue, and the kernel."""
    emb = spec.embedding
    return {"d": emb.grid.d, "m0": emb.grid.m0, "m": emb.m, "ell": emb.ell,
            "s": emb.s, "tol": spec.tolerance, "min_eig": spec.min_value,
            "kernel": kernel.to_json() if kernel is not None else None}


def write_spectrum_csv(path, spec: Spectrum, kernel=None) -> Path:
    """Export a spectrum as CSV (index_lex, k1..kd, lambda_ext) with a JSON
    sidecar recording the embedding and kernel (`spectrum_sidecar`)."""
    d, m = spec.embedding.grid.d, spec.embedding.m
    path = write_csv(path, ["index_lex"] + [f"k{i + 1}" for i in range(d)]
                     + ["lambda_ext"],
                     ([i, *row] for i, row in enumerate(
                         _grid_rows(spec.values_flat, 2 * m, d))))
    write_json(path.with_suffix(path.suffix + ".json"),
               spectrum_sidecar(spec, kernel))
    return path
