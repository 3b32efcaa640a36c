"""Seeded inputs for the `validate` workload, made without the sampler.

Each input is n draws of the grid field built from a dense factor of the
grid covariance R[i, j] = kernel.rho(x_i - x_j), so a change to
`circembed.sampler` cannot change what `validate` reads.  The file is
written in the documented GRFFLD01 layout by this module itself:

    b"GRFFLD01", u32 d, u32 m0, u64 n, then n * (m0+1)^d float64,
    all little-endian.

The draws are centred (the column means are subtracted).  That leaves the
empirical covariance that `validate` computes unchanged and makes the
empirical mean zero to rounding, so the mean check is decided by rounding
and not by chance; the covariance check has a margin of about 9 standard
errors at n = 1000, so no seed flips a verdict.

Run as a script it writes the inputs into a directory:

    python3 perfbench/inputs.py --seed 7 --dir .perfbench_run/inputs
"""

from __future__ import annotations

import argparse
import struct
from pathlib import Path

import numpy as np

MAGIC = b"GRFFLD01"
HEADER = struct.Struct("<8sIIQ")

# name -> (d, m0, nu, lam, n, scale).  The scaled copy is the reject
# control: its covariance is 2.25 R, far outside the 7 (1 + max R)/sqrt(n)
# tolerance on the diagonal.
VALIDATE_INPUTS = {
    "d3_m15": (3, 15, 0.5, 0.1, 1000, 1.0),
    "d2_m32": (2, 32, 1.5, 0.2, 1000, 1.0),
    "d2_m32_scaled": (2, 32, 1.5, 0.2, 1000, 1.5),
    "d2_m64": (2, 64, 0.5, 0.1, 1000, 1.0),
}


def grid_indices(d: int, m0: int) -> np.ndarray:
    """Integer multi-indices of the (m0+1)^d grid, lexicographic, (M, d)."""
    axis = np.arange(m0 + 1)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def grid_covariance(kernel, d: int, m0: int) -> np.ndarray:
    """Dense R[i, j] = kernel.rho(h0 (k_i - k_j)).

    kernel.rho is evaluated once per distinct lag vector, (2 m0 + 1)^d of
    them, and R is gathered from that table.
    """
    width = 2 * m0 + 1
    lag_axis = np.arange(-m0, m0 + 1) / m0
    lag_grids = np.meshgrid(*([lag_axis] * d), indexing="ij")
    lags = np.stack([g.reshape(-1) for g in lag_grids], axis=-1)
    table = np.asarray(kernel.rho(lags), dtype=float)
    k = grid_indices(d, m0)
    flat = np.zeros((k.shape[0], k.shape[0]), dtype=np.int64)
    for axis in range(d):
        diff = k[:, axis][:, None] - k[:, axis][None, :] + m0
        flat = flat * width + diff
    return table[flat]


def field_draws(kernel, d: int, m0: int, n: int, seed) -> np.ndarray:
    """n centred draws with covariance R, shape (n, (m0+1)^d)."""
    factor = np.linalg.cholesky(grid_covariance(kernel, d, m0))
    z = np.random.default_rng(seed).standard_normal((n, factor.shape[0]))
    x = z @ factor.T
    x -= x.mean(axis=0)
    return x


def write_grffld(path: Path, values: np.ndarray, d: int, m0: int) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, d, m0, values.shape[0]))
        fh.write(values.tobytes())


def generate(seed: int, out_dir: Path) -> None:
    from circembed.kernels import MaternKernel

    out_dir.mkdir(parents=True, exist_ok=True)
    draws = {}
    for index, (name, (d, m0, nu, lam, n, scale)) in enumerate(
            VALIDATE_INPUTS.items()):
        key = (d, m0, nu, lam, n)
        if key not in draws:
            kernel = MaternKernel(sigma2=1.0, lam=lam, nu=nu, d=d,
                                  allow_small_nu=True)
            draws[key] = field_draws(kernel, d, m0, n,
                                     np.random.SeedSequence([seed, index]))
        write_grffld(out_dir / f"{name}.bin", scale * draws[key], d, m0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)
    generate(args.seed, args.dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
