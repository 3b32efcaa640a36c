"""The benchmark's workloads: the CLI operations each one runs, and the
check each operation's output must pass.

Every expected value below is what the program gives at the commit that
introduced the benchmark; an operation whose output differs is a failed
operation.  See README.md for why each workload and operation was chosen.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

# A sample value and its reference differ only by the order in which two
# FFT implementations round (observed gap below 1e-14 of the value); a
# real fault in the sampler moves values by far more than this.
SAMPLE_RTOL = 1e-9


@dataclass
class Result:
    """What one run of an operation delivered."""

    rc: int | None          # exit code; None when an exception escaped main
    stdout: str
    stderr: str
    error: str | None       # "Type: message" of an exception that escaped
    out_dir: Path | None
    seconds: float = 0.0

    def report(self) -> dict:
        return json.loads(self.stdout)["report"]


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable[[Result], list]
    group: str                  # end-to-end timing group
    repeat: int = 1             # back-to-back runs per pass
    delivers: bool = True       # False: known defect, the user gets no result
    values: int = 0             # field values delivered (sample ops)


@dataclass
class Workload:
    name: str
    ops: list                   # timed, checked operations, in pass order
    warmup: str                 # name of the op run once, untimed, first
    probes: list = field(default_factory=list)   # run once, untimed


# ------------------------------------------------------------------ checks

def _problems(result: Result, rc: int) -> list:
    if result.error is not None:
        return [f"uncaught exception {result.error}"]
    if result.rc != rc:
        return [f"exit {result.rc}, expected {rc}: {result.stderr[-200:]}"]
    return []


def check_min_ell(m: int, tol: float):
    def check(result):
        problems = _problems(result, 0)
        if problems:
            return problems
        rep = result.report()
        if rep["m"] != m:
            problems.append(f"m={rep['m']}, expected {m}")
        if not rep["min_eig"] >= -tol:
            problems.append(f"min_eig {rep['min_eig']!r} < -tol {-tol}")
        return problems
    return check


def check_not_pd(result):
    problems = _problems(result, 3)
    if not problems and "not positive definite" not in result.stderr:
        problems.append(f"missing not-PD message: {result.stderr[-200:]}")
    if "Traceback" in result.stderr:
        problems.append("traceback on stderr")
    return problems


def check_sweep(ms: list):
    def check(result):
        problems = _problems(result, 0)
        if problems:
            return problems
        with open(result.out_dir / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = [int(r["m"]) if r["m"] else None for r in rows]
        if got != ms:
            problems.append(f"sweep m column {got}, expected {ms}")
        errors = [r["error"] for r in rows if r["error"]]
        if errors:
            problems.append(f"sweep point errors {errors}")
        return problems
    return check


def check_decay(m: int):
    def check(result):
        problems = _problems(result, 0)
        if problems:
            return problems
        rep = result.report()
        if rep["m"] != m:
            problems.append(f"m={rep['m']}, expected {m}")
        with open(result.out_dir / "decay.csv", newline="") as fh:
            vals = [float(r["sqrt_lambda_over_s"]) for r in csv.DictReader(fh)]
        if len(vals) != rep["s"] or any(b > a for a, b in zip(vals, vals[1:])):
            problems.append("decay.csv is not s nonincreasing values")
        return problems
    return check


def check_validate(passed: bool):
    def check(result):
        problems = _problems(result, 0 if passed else 3)
        if not problems and result.report()["passed"] is not passed:
            problems.append(f"verdict passed={result.report()['passed']}, "
                            f"expected {passed}")
        return problems
    return check


@dataclass(frozen=True)
class SampleCase:
    d: int
    m0: int
    nu: float
    lam: float
    n: int
    m: int                      # extension the search must find
    fmt: str = "bin"
    lognormal: bool = False
    mean: float | None = None

    @property
    def n_points(self) -> int:
        return (self.m0 + 1) ** self.d


class Reference:
    """Sample rows recomputed from `spectrum`, `draw_normal(s, seed, i)`
    and numpy's own FFT: Re + Im of the unitary inverse DFT of
    sqrt(eigenvalues) * normals, cut to indices 0..m0 on every axis."""

    def __init__(self):
        self._sqrt_eigs = {}

    def sqrt_eigs(self, case: SampleCase) -> np.ndarray:
        key = (case.d, case.m0, case.nu, case.lam, case.m)
        if key not in self._sqrt_eigs:
            from circembed.embedding import (Embedding, GridSpec,
                                             first_column, spectrum)
            from circembed.kernels import MaternKernel

            kernel = MaternKernel(sigma2=1.0, lam=case.lam, nu=case.nu,
                                  d=case.d, allow_small_nu=True)
            emb = Embedding(GridSpec(case.d, case.m0), case.m)
            values = spectrum(first_column(kernel, emb), emb).values
            self._sqrt_eigs[key] = np.sqrt(np.maximum(values, 0.0))
        return self._sqrt_eigs[key]

    def row(self, case: SampleCase, seed: int, i: int) -> np.ndarray:
        from circembed.sampler import draw_normal

        root = self.sqrt_eigs(case)
        y = draw_normal(root.size, seed, i).reshape(root.shape)
        w = np.fft.ifftn(root * y, norm="ortho")
        v = (w.real + w.imag)[(slice(0, case.m0 + 1),) * case.d].reshape(-1)
        v = v + (case.mean or 0.0)
        return np.exp(v) if case.lognormal else v


def spot_rows(n: int, seed: int) -> list:
    return sorted({0, n - 1, 1 + seed % max(n - 2, 1)})


def _compare_row(got, ref, label) -> list:
    if got.shape != ref.shape:
        return [f"{label} has shape {got.shape}, expected {ref.shape}"]
    gap = float((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max())
    if not gap <= SAMPLE_RTOL:
        return [f"{label} differs from the reference by {gap:.3e}"]
    return []


def check_sample(case: SampleCase, seed: int, reference: Reference):
    def check(result):
        problems = _problems(result, 0)
        if problems:
            return problems
        rep = result.report()
        if rep["m"] != case.m or rep["n"] != case.n:
            return [f"m={rep['m']} n={rep['n']}, expected {case.m} {case.n}"]
        rows = spot_rows(case.n, seed)
        if case.fmt == "bin":
            got = _read_bin_rows(result.out_dir / "fields.bin", case, rows,
                                 problems)
        else:
            got = _read_csv_rows(result.out_dir, case, rows, problems)
        for i, row in zip(rows, got):
            problems += _compare_row(row, reference.row(case, seed, i),
                                     f"sample {i}")
        return problems
    return check


def _read_bin_rows(path: Path, case: SampleCase, rows, problems) -> list:
    header = inputs.HEADER
    with open(path, "rb") as fh:
        magic, d, m0, n = header.unpack(fh.read(header.size))
    if (magic, d, m0, n) != (inputs.MAGIC, case.d, case.m0, case.n):
        problems.append(f"header {(magic, d, m0, n)}")
        return []
    size = header.size + 8 * case.n * case.n_points
    if path.stat().st_size != size:
        problems.append(f"file size {path.stat().st_size}, expected {size}")
        return []
    return [np.fromfile(path, dtype="<f8", count=case.n_points,
                        offset=header.size + 8 * i * case.n_points)
            for i in rows]


def _read_csv_rows(out_dir: Path, case: SampleCase, rows, problems) -> list:
    files = sorted(out_dir.glob("sample_*.csv"))
    if len(files) != case.n:
        problems.append(f"{len(files)} CSV files, expected {case.n}")
        return []
    expected_index = inputs.grid_indices(case.d, case.m0).tolist()
    header = [f"k{a + 1}" for a in range(case.d)] + ["value"]
    got = []
    for i in rows:
        with open(out_dir / f"sample_{i:06d}.csv", newline="") as fh:
            table = list(csv.reader(fh))
        index = [[int(v) for v in r[:-1]] for r in table[1:]]
        if table[0] != header or index != expected_index:
            problems.append(f"sample_{i:06d}.csv header or index columns")
            return []
        got.append(np.array([float(r[-1]) for r in table[1:]]))
    return got


# --------------------------------------------------------------- workloads

SWEEP_CONFIG = {"d": [2], "nu": [0.5, 1.5, 4], "lam": [0.25],
                "m0": [16, 32, 64], "tol": 0}
SWEEP_M = [16, 32, 67, 19, 49, 119, 26, 71, 177]


def _min_ell(d, m0, nu, lam, *extra):
    return ("min-ell", "--d", str(d), "--m0", str(m0), "--nu", str(nu),
            "--lambda", str(lam), *extra)


def search(seed: int, work: Path) -> Workload:
    # no randomness: the seed changes nothing here
    config = work / "sweep.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    out = work / "out"
    ops = [
        Op("min_ell_d2_increment", _min_ell(2, 64, 1.5, 0.5, "--tol", "0"),
           check_min_ell(280, 0.0), "min_ell"),
        Op("min_ell_d2_doubling",
           _min_ell(2, 64, 1.5, 0.5, "--tol", "0", "--schedule", "doubling"),
           check_min_ell(280, 0.0), "min_ell", repeat=2),
        Op("min_ell_d3_increment", _min_ell(3, 16, 1.5, 0.5, "--tol", "0"),
           check_min_ell(66, 0.0), "min_ell"),
        Op("min_ell_d3_doubling",
           _min_ell(3, 16, 1.5, 0.5, "--tol", "0", "--schedule", "doubling"),
           check_min_ell(66, 0.0), "min_ell"),
        Op("min_ell_gauss", _min_ell(2, 32, "inf", 0.25, "--tol", "1e-13"),
           check_min_ell(66, 1e-13), "min_ell", repeat=10),
        Op("min_ell_gauss_floor",
           _min_ell(2, 32, "inf", 0.5, "--tol", "1e-13", "--schedule",
                    "doubling", "--m-max", "512"),
           check_not_pd, "min_ell", repeat=5, delivers=False),
        Op("sweep", ("sweep", "--config", str(config), "--out",
                     str(out / "sweep"), "--threads", "2"),
           check_sweep(SWEEP_M), "sweep"),
        Op("eig_decay", ("eig-decay", "--d", "2", "--m0", "32", "--nu", "4",
                         "--lambda", "0.25", "--out", str(out / "eig_decay")),
           check_decay(71), "eig_decay", repeat=3),
    ]
    return Workload("search", ops, warmup="min_ell_gauss")


SAMPLE_CASES = {
    "sample_d2_m128": SampleCase(2, 128, 0.5, 0.1, 1024, m=128),
    "sample_d3_m16": SampleCase(3, 16, 0.5, 0.5, 8, m=61),
    "sample_d1_lognormal": SampleCase(1, 1024, 1.5, 0.2, 4096, m=1653,
                                      lognormal=True),
    "sample_d2_csv": SampleCase(2, 64, 1.5, 0.1, 16, m=64, fmt="csv",
                                mean=1.0),
}


def sample_argv(case: SampleCase, seed: int, out: Path) -> tuple:
    argv = ["sample", "--d", str(case.d), "--m0", str(case.m0), "--nu",
            str(case.nu), "--lambda", str(case.lam), "--n", str(case.n),
            "--seed", str(seed), "--format", case.fmt, "--out", str(out)]
    if case.lognormal:
        argv.append("--lognormal")
    if case.mean is not None:
        argv += ["--mean", f"const:{case.mean}"]
    return tuple(argv)


def sample(seed: int, work: Path) -> Workload:
    reference = Reference()
    ops = [Op(name, sample_argv(case, seed, work / "out" / name),
              check_sample(case, seed, reference), "sample",
              repeat=2 if case.fmt == "csv" else 1,
              values=case.n * case.n_points)
           for name, case in SAMPLE_CASES.items()]
    return Workload("sample", ops, warmup="sample_d2_csv")


def _validate_argv(work: Path, name: str) -> tuple:
    d, m0, nu, lam, n, scale = inputs.VALIDATE_INPUTS[name]
    return ("validate", "--samples", str(work / "inputs" / f"{name}.bin"),
            "--d", str(d), "--nu", str(nu), "--lambda", str(lam))


def validate(seed: int, work: Path) -> Workload:
    # the inputs under work/"inputs" are written by inputs.generate(seed)
    ops = [
        Op("validate_d3_m15", _validate_argv(work, "d3_m15"),
           check_validate(True), "validate"),
        Op("validate_d2_m32", _validate_argv(work, "d2_m32"),
           check_validate(True), "validate", repeat=3),
        Op("validate_d2_m32_scaled", _validate_argv(work, "d2_m32_scaled"),
           check_validate(False), "validate", repeat=3),
    ]
    # 4225 points, above the dense cap of 4096: an uncaught MemoryError at
    # the commit that added the benchmark, so it is probed once per run and
    # neither counted nor timed
    probe = Op("validate_d2_m64_over_cap", _validate_argv(work, "d2_m64"),
               check_validate(True), "validate_large")
    return Workload("validate", ops, warmup="validate_d2_m32",
                    probes=[probe])


WORKLOADS = {"search": search, "sample": sample, "validate": validate}


def clear_outputs(op: Op) -> Path | None:
    """Empty the op's --out directory before a run; return it."""
    if "--out" not in op.argv:
        return None
    out = Path(op.argv[op.argv.index("--out") + 1])
    shutil.rmtree(out, ignore_errors=True)
    return out
