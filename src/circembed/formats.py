"""File formats: field samples (CSV and raw binary), spectrum export and
run manifests.

Binary field layout (all little-endian):

    bytes 0..7   magic  b"GRFFLD01"
    u32          d
    u32          m0
    u64          n_samples
    then n_samples * (m0+1)^d float64 field values, each sample in
    lexicographic grid order.

Every file, binary, CSV or JSON, is written one way (`_replacing`): to
`<path>.part`, which replaces `path` when it is complete and is removed
when its writing fails, so a failed run leaves no half-written file and
an older file at `path` stays as it was.  A binary field file has one
writer, `field_binary_writer`: it checks the free space first and streams
chunks of samples to their offsets as they are done, checking that they
fit, so its memory does not grow with the file.  `field_csv_writer`
streams samples to one CSV file each (`SAMPLE_CSV`) in the same way,
after checking that files of their shortest possible size fit.  A CSV
row, of a sample or the spectrum export, is made as it is written, from
no table.
Each field file and spectrum export gets a JSON sidecar, which its
writer requires (`spectrum_sidecar`, built on `search_summary`).
"""

from __future__ import annotations

import contextlib
import csv
import errno
import itertools
import json
import os
import re
import struct
import threading
from collections import Counter
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
    "read_field_binary",
    "write_csv",
    "write_field_csv",
    "field_csv_writer",
    "SAMPLE_CSV",
    "sidecar_path",
    "search_summary",
    "write_spectrum_csv",
    "write_json",
    "write_manifest",
]


@contextlib.contextmanager
def _replacing(path):
    """Yields `<path>.part`, which replaces `path` when the block ends and
    is removed when the block or the replacement raises."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        yield part
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    with _replacing(path) as part:
        part.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir, command: str, params: dict, outputs) -> Path:
    """One manifest per run: command, library version, effective parameters
    and produced files (`outputs`), plus the sampler's thread count, its
    FFT backend and the numpy and scipy versions."""
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


def sidecar_path(path) -> Path:
    """`<path>.json`, the JSON sidecar of the field or spectrum file at
    `path`; the CSV samples in a directory share that of `<dir>/fields`."""
    path = Path(path)
    return path.with_name(path.name + ".json")


def _pwrite_all(fd: int, data, offset: int) -> None:
    """Write all of `data` (bytes or a contiguous array) at `offset`."""
    view = memoryview(data).cast("B")
    while view:
        done = os.pwrite(fd, view, offset)
        view, offset = view[done:], offset + done


def _check_fits(what: str, directory, nbytes: int, nfiles: int) -> None:
    """Raise ValueError when `nfiles` files of `nbytes` bytes in all, named
    `what` in the message, would not fit the whole file system of
    `directory`, in bytes or in files, and OSError (ENOSPC) when they
    would not fit its free space."""
    stat = os.statvfs(directory)
    total, free = stat.f_blocks * stat.f_frsize, stat.f_bavail * stat.f_frsize
    # a file system that reports no file count does not limit it
    files, free_files = (stat.f_files, stat.f_favail) if stat.f_files \
        else (nfiles, nfiles)
    if nbytes > total or nfiles > files:
        raise ValueError(
            f"{what} would need {nbytes} bytes at least, more than their "
            f"file system holds ({total} bytes, {files} files)")
    if nbytes > free or nfiles > free_files:
        raise OSError(errno.ENOSPC, f"{what} need {nbytes} bytes at least, "
                      f"and their file system has {free} bytes and "
                      f"{free_files} files free")


@contextlib.contextmanager
def field_binary_writer(path, n: int, d: int, m0: int, sidecar: dict):
    """Stream n samples into a binary field file: yields write(lo, rows),
    which writes `rows` (shape (k, (m0+1)^d)) as samples lo..lo+k-1 at
    their place in the file, in any order and from several threads at
    once.

    The header and rows go to `<path>.part` (`_replacing`); the sidecar
    goes to `<path>.json` after the rows and before the `.part` file
    replaces `path`, so a sidecar that cannot be written leaves no field
    file.
    Before creating anything, raises ValueError when the file's bytes, or
    two files (it and its sidecar), would not fit the whole file system,
    and OSError (ENOSPC) when they would not fit its free space
    (`_check_fits`).
    """
    if n < 1:
        raise ValueError(f"field_binary_writer: n must be >= 1 (n={n})")
    path = Path(path)
    npts = (m0 + 1) ** d
    _check_fits(f"{path} and its sidecar", path.parent,
                _HEADER.size + 8 * n * npts, 2)

    def write(lo: int, rows) -> None:
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != npts \
                or not 0 <= lo <= n - len(rows):
            raise ValueError(f"field_binary_writer: rows of shape "
                             f"{rows.shape} at sample {lo} do not fit {n} "
                             f"samples of {npts} values")
        _pwrite_all(fd, rows, _HEADER.size + 8 * npts * lo)

    with _replacing(path) as part:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            _pwrite_all(fd, _HEADER.pack(MAGIC, d, m0, n), 0)
            yield write
        finally:
            os.close(fd)
        write_json(sidecar_path(path), sidecar)


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
    """A CSV file with header `columns` and one line per row of `rows`,
    written through `<path>.part` (`_replacing`), so a failed write leaves
    no file.  Give rows of Python numbers (`ndarray.tolist()`), not numpy
    scalars: a Python float is written as its shortest round-trip repr,
    and a row of them formats faster than a row of numpy scalars.
    """
    with _replacing(path) as part, open(part, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return Path(path)


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
def field_csv_writer(out_dir, n: int, grid: GridSpec, sidecar: dict):
    """Stream n samples into CSV files out_dir/sample_000000.csv, ... (one
    per sample, `write_field_csv`): yields write(lo, rows), which writes
    `rows` as samples lo..lo+len(rows)-1, in any order and from several
    threads at once.

    The sidecar is written to out_dir/fields.json (`sidecar_path`) when
    the block ends, and then the sample files of index n or more, which an
    earlier run left there, are removed.  When the block or the sidecar
    raises, the sample files below the highest index handed to write are
    removed, so a failed run leaves none.
    Before creating anything, raises ValueError when n files of the
    shortest possible size (d one-digit indices and a one-digit value per
    line) would not fit the whole file system, in bytes or in files, and
    OSError (ENOSPC) when they would not fit its free space.
    """
    out_dir = Path(out_dir)
    _check_fits(f"{n} CSV files in {out_dir}", out_dir,
                n * grid.n_points * (2 * grid.d + 3), n)
    lock, top = threading.Lock(), 0

    def write(lo: int, rows) -> None:
        nonlocal top
        with lock:
            top = max(top, lo + len(rows))
        for i, row in enumerate(rows, lo):
            write_field_csv(out_dir / SAMPLE_CSV.format(i), row, grid)

    try:
        yield write
        write_json(sidecar_path(out_dir / "fields"), sidecar)
    except BaseException:
        for i in range(top):
            (out_dir / SAMPLE_CSV.format(i)).unlink(missing_ok=True)
        raise
    for path in out_dir.iterdir():  # the SAMPLE_CSV files of other runs
        stale = re.fullmatch(r"sample_(\d{6,})\.csv", path.name)
        if stale and int(stale[1]) >= n:
            path.unlink(missing_ok=True)


def search_summary(spec: Spectrum) -> dict:
    """The one description of a searched spectrum, in every report and
    sidecar: the extension found, its minimum eigenvalue and whether
    float64 could certify it, the tolerance and each decider's attempts."""
    emb = spec.embedding
    return {"m": emb.m, "ell": emb.ell, "s": emb.s,
            "min_eig": spec.min_value, "rounding_bound": spec.rounding_bound,
            "certified": spec.certified, "tol": spec.tolerance,
            "attempts": dict(Counter(by for _, by in spec.attempts))}


def spectrum_sidecar(spec: Spectrum, kernel) -> dict:
    """The sidecar keys of every file made from a searched spectrum: its
    grid, `search_summary` and the kernel."""
    grid = spec.embedding.grid
    return {"d": grid.d, "m0": grid.m0, **search_summary(spec),
            "kernel": kernel.to_json()}


def write_spectrum_csv(path, spec: Spectrum, kernel) -> Path:
    """Export a spectrum as CSV (index_lex, k1..kd, lambda_ext) with a JSON
    sidecar recording the embedding and kernel (`spectrum_sidecar`)."""
    d, m = spec.embedding.grid.d, spec.embedding.m
    path = write_csv(path, ["index_lex"] + [f"k{i + 1}" for i in range(d)]
                     + ["lambda_ext"],
                     ([i, *row] for i, row in enumerate(
                         _grid_rows(spec.values_flat, 2 * m, d))))
    write_json(sidecar_path(path), spectrum_sidecar(spec, kernel))
    return path
