"""Command-line surface.

Subcommands:

    min-ell    minimal positive-definite extension for one kernel/grid
    sweep      minimal-extension sweep over a parameter grid (CSV)
    eig-decay  eigenvalue-decay CSV and slope report
    sample     draw field samples to CSV or raw binary
    validate   empirical mean/covariance check of a sample file
    theory     pd-criterion | bounds | continuous-eigs | sampling-theorem |
               qmc-sum, each with only the flags it reads

Each flag is declared once, in a parent parser shared by the commands that
read it, and every search runs through `_search`.  A JSON config
(--config) may set any flag by its destination (`lam`, `m_max`, `out`);
explicit flags override it.  Defaults fill only absent settings, so an
explicit 0 meets the checks of the code that reads it.  Exit codes: 0
success, 2 flag/usage error (also an input too large to allocate), 3
numerical failure (including a search that ends where float64 cannot
decide positive definiteness), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (BoundConstants, calibrate_constants,
                       continuous_eigenvalue, decay_report, gaussian_ell_bound,
                       matern_ell_bound, pd_criterion, qmc_criterion_sum,
                       sampling_theorem_check)
from .embedding import GridSpec, minimal_embedding
from .errors import CircembedError
from .formats import (read_field_binary, write_csv, write_field_binary,
                      write_field_csv, write_json, write_manifest,
                      write_spectrum_csv)
from .kernels import MaternKernel
from .sampler import batch_sample_values
from .validation import DENSE_POINTS_CAP, validate_samples

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

SWEEP_COLUMNS = ["d", "nu", "lambda", "m0", "ell_min", "m", "s", "seconds",
                 "error"]
DERIVED_COLUMNS = ["d", "nu", "lambda", "m0", "log2_m0", "log_nu", "log_ell"]
DECAY_COLUMNS = ["j", "sqrt_lambda_over_s"]
# config keys a command reads as lists: the sweep's grid, the decay window
LIST_KEYS = {"sweep": ("d", "nu", "lam", "m0"), "eig-decay": ("fit_range",)}


def _parse_nu(text: str) -> float:
    if str(text).lower() in ("inf", "infinity", "gaussian"):
        return math.inf
    return float(text)


def _merge_config(args: argparse.Namespace) -> dict:
    """Effective parameters: config values overridden by explicit flags.
    A value may be a list only where the command reads one (`LIST_KEYS`),
    and never an object."""
    merged = {}
    if args.config is not None:
        merged.update(json.loads(Path(args.config).read_text()))
    for key, value in vars(args).items():
        if key in ("config", "func", "cmd", "theory_cmd") or value is None:
            continue
        merged[key] = value
    listed = LIST_KEYS.get(args.command, ())
    for key, value in merged.items():
        if isinstance(value, dict) \
                or isinstance(value, list) and key not in listed:
            kind = "a list" if key in listed else "a single value"
            raise ValueError(f"config key '{key}' must be {kind} for "
                             f"{args.command}, not a {type(value).__name__}")
    return merged


def _get(params: dict, key: str, default):
    """params[key], or `default` when it is absent or None (not when 0)."""
    value = params.get(key)
    return default if value is None else value


def _require(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _kernel_from(params: dict) -> MaternKernel:
    _require(params, "d", "nu", "lam")
    return MaternKernel(sigma2=float(_get(params, "sigma2", 1.0)),
                        lam=float(params["lam"]), nu=float(params["nu"]),
                        d=int(params["d"]), allow_small_nu=True)


def _search(params: dict, m_step: int = 1, needs: tuple = ()):
    """The search of every searching command: kernel and grid from `params`,
    tol, m_max and schedule defaults, then `minimal_embedding`.  `needs`
    names more required parameters, checked with m0 before the search.
    Returns (kernel, embedding, spectrum); spectrum.tolerance is the tol."""
    kernel = _kernel_from(params)
    _require(params, "m0", *needs)
    grid = GridSpec(d=kernel.d, m0=int(params["m0"]))
    # recommended defaults: exact nonnegativity for finite smoothness,
    # a 1e-13 absolute allowance for the Gaussian limit
    tol = _get(params, "tol", 1e-13 if kernel.is_gaussian else 0.0)
    emb, spec = minimal_embedding(
        kernel, grid, tol=float(tol),
        m_max=int(_get(params, "m_max", 100 * grid.m0)),
        schedule=_get(params, "schedule", "increment"), m_step=m_step)
    return kernel, emb, spec


def _require_out(params: dict):
    if params.get("out") is None:
        raise ValueError(f"{params['command']} requires --out")


def _out_dir(params: dict) -> Path:
    """The output directory, created if needed."""
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(params: dict, report: dict, files=()):
    """Print the report; with an output directory, write it and a manifest."""
    payload = _sanitize({"report": report, "parameters": params,
                         "version": __version__})
    print(json.dumps(payload, indent=2, sort_keys=True))
    if params.get("out") is not None:
        out = _out_dir(params)
        write_json(out / "report.json", payload)
        write_manifest(out, params["command"], _sanitize(params),
                       outputs=[str(f) for f in files] + ["report.json"])


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


# ---------------------------------------------------------------- min-ell

def cmd_min_ell(params: dict) -> int:
    t0 = time.perf_counter()
    kernel, emb, spec = _search(params, m_step=int(_get(params, "m_step", 1)))
    wall = time.perf_counter() - t0
    report = {"m": emb.m, "ell": emb.ell, "s": emb.s,
              "min_eig": spec.min_value, "rounding_bound": spec.rounding_bound,
              "certified": spec.certified, "wall_time": wall,
              "tol": spec.tolerance, "attempts": {}}
    for _, decider in spec.attempts:
        report["attempts"][decider] = report["attempts"].get(decider, 0) + 1
    files = []
    if params.get("out") is not None and params.get("export_spectrum"):
        files.append(write_spectrum_csv(_out_dir(params) / "spectrum.csv",
                                        spec, kernel))
    _emit(params, report, files)
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _sweep_point(params: dict) -> dict:
    """One sweep row: the search at one point, or its numerical failure."""
    row = {"d": params["d"], "nu": params["nu"], "lambda": params["lam"],
           "m0": params["m0"]}
    t0 = time.perf_counter()
    try:
        _, emb, _ = _search(params)
        row.update(ell_min=emb.ell, m=emb.m, s=emb.s, error="")
    except CircembedError as exc:  # per-point failure recorded in-row
        row.update(ell_min="", m="", s="", error=str(exc))
    row["seconds"] = time.perf_counter() - t0
    return row


def cmd_sweep(params: dict) -> int:
    _require_out(params)
    grids = {key: params.get(key) for key in ("d", "nu", "lam", "m0")}
    for key, val in grids.items():
        if val is None:
            raise ValueError(f"sweep config must list values for '{key}'")
        if not isinstance(val, (list, tuple)):
            grids[key] = [val]
    points = [dict(params, d=int(d), nu=_parse_nu(nu), lam=float(lam),
                   m0=int(m0))
              for d in grids["d"] for nu in grids["nu"]
              for lam in grids["lam"] for m0 in grids["m0"]]
    params["threads"] = _get(params, "threads", 1)
    threads = max(1, int(params["threads"]))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(_sweep_point, points))

    out = _out_dir(params)
    sweep_path = write_csv(out / "sweep.csv", SWEEP_COLUMNS, (
        [_sanitize(row[k]) for k in SWEEP_COLUMNS] for row in rows))
    derived_path = write_csv(out / "sweep_derived.csv", DERIVED_COLUMNS, (
        [row["d"], _sanitize(row["nu"]), row["lambda"], row["m0"],
         math.log2(row["m0"]),
         "" if math.isinf(row["nu"]) else math.log(row["nu"]),
         math.log(row["ell_min"])] for row in rows if not row["error"]))
    report = {"points": len(rows),
              "failures": sum(1 for r in rows if r["error"]),
              "sweep_csv": str(sweep_path), "derived_csv": str(derived_path)}
    _emit(params, report, [sweep_path, derived_path])
    return EXIT_OK


# -------------------------------------------------------------- eig-decay

def cmd_eig_decay(params: dict) -> int:
    _require_out(params)
    if _kernel_from(params).is_gaussian:
        raise ValueError("eig-decay expects a finite smoothness nu")
    lo, hi = params.get("fit_lo"), params.get("fit_hi")
    if (lo is None) != (hi is None):
        raise ValueError("eig-decay: --fit-lo and --fit-hi go together; "
                         f"{'--fit-lo' if lo is None else '--fit-hi'} is missing")
    if lo is not None:
        params["fit_range"] = [lo, hi]
    kernel, emb, spec = _search(params)
    rep = decay_report(spec, kernel.nu, kernel.d,
                       fit_range=params.get("fit_range"))
    flat = np.sort(np.sqrt(np.maximum(spec.values_flat, 0.0) / emb.s))[::-1]
    decay_path = write_csv(
        _out_dir(params) / "decay.csv", DECAY_COLUMNS,
        ([j, v] for j, v in enumerate(flat.tolist(), start=1)))
    report = {"m": emb.m, "ell": emb.ell, "s": emb.s,
              "fit_j_lo": rep.j_lo, "fit_j_hi": rep.j_hi, "slope": rep.slope,
              "expected_slope": -rep.expected_beta, "rel_dev": rep.rel_dev,
              "pass": rep.passed, "degenerate": rep.degenerate,
              "decay_csv": str(decay_path)}
    _emit(params, report, [decay_path])
    return EXIT_OK


# ----------------------------------------------------------------- sample

def _parse_mean(spec_text, n_points):
    if spec_text is None:
        return 0.0, {"mean": "const:0"}
    text = str(spec_text)
    if text.startswith("const:"):
        value = float(text[len("const:"):])
        if not math.isfinite(value):
            raise ValueError(f"--mean {text}: the mean must be finite")
        return value, {"mean": text}
    if text.startswith("file:"):
        path = Path(text[len("file:"):])
        data = np.loadtxt(path).reshape(-1)
        if data.size != n_points:
            raise ValueError(f"mean file has {data.size} values, grid has "
                             f"{n_points} points")
        if not np.isfinite(data).all():
            raise ValueError(f"mean file {path} has a value that is not "
                             "finite")
        return data, {"mean": text}
    raise ValueError("--mean must be const:<value> or file:<path>")


def cmd_sample(params: dict) -> int:
    _require_out(params)
    n = int(_get(params, "n", 1))
    seed = int(_get(params, "seed", 0))
    lognormal = bool(params.get("lognormal"))
    fmt = _get(params, "format", "bin")
    kernel, emb, spec = _search(params)
    grid = emb.grid
    mean, mean_meta = _parse_mean(params.get("mean"), grid.n_points)
    values = batch_sample_values(spec, mean, n, seed, lognormal=lognormal)
    out = _out_dir(params)
    sidecar = {
        "kernel": kernel.to_json(), "d": grid.d, "m0": grid.m0,
        "m": emb.m, "ell": emb.ell, "s": emb.s, "tol": spec.tolerance,
        "min_eig": spec.min_value, "n_samples": n, "seed": seed,
        "lognormal": lognormal, **mean_meta,
    }
    files = []
    if fmt == "bin":
        files.append(write_field_binary(out / "fields.bin", values,
                                        d=grid.d, m0=grid.m0, sidecar=sidecar))
    elif fmt == "csv":
        for i in range(n):
            files.append(write_field_csv(out / f"sample_{i:06d}.csv",
                                         values[i], grid))
        write_json(out / "fields.json", sidecar)
    else:
        raise ValueError(f"unknown format {fmt!r} (expected csv or bin)")
    report = {"n": n, "m": emb.m, "ell": emb.ell, "s": emb.s,
              "files": [str(f) for f in files][:8]}
    _emit(params, report, files)
    return EXIT_OK


# --------------------------------------------------------------- validate

def cmd_validate(params: dict) -> int:
    _require(params, "samples")
    values, header = read_field_binary(Path(params["samples"]))
    grid = GridSpec(d=header["d"], m0=header["m0"])
    if grid.n_points > DENSE_POINTS_CAP:
        raise ValueError(
            f"validate: the file's grid has {grid.n_points} points, above the "
            f"cap of {DENSE_POINTS_CAP} points for the dense covariance check")
    kernel = _kernel_from({"d": header["d"], **params})
    if kernel.d != header["d"]:
        raise ValueError(f"--d {kernel.d} does not match file d={header['d']}")
    mean, _ = _parse_mean(params.get("mean"), grid.n_points)
    report_obj = validate_samples(values, kernel, grid, mean=mean)
    _emit(params, dataclasses.asdict(report_obj))
    return EXIT_OK if report_obj.passed else EXIT_NUMERICAL


# ----------------------------------------------------------------- theory

def cmd_pd_criterion(params: dict) -> int:
    kernel = _kernel_from(params)
    _require(params, "m0", "ell")
    res = pd_criterion(kernel, GridSpec(d=kernel.d, m0=int(params["m0"])),
                       float(params["ell"]))
    _emit(params, dataclasses.asdict(res))
    return EXIT_OK


def cmd_bounds(params: dict) -> int:
    report = {}
    consts = BoundConstants(
        C1=params.get("c1"), C2=params.get("c2"), B=params.get("b"))
    if params.get("calibrate_from"):
        with open(params["calibrate_from"], newline="") as fh:
            rows = [(int(r["d"]), _parse_nu(r["nu"]), float(r["lambda"]),
                     1.0 / float(r["m0"]), float(r["ell_min"]))
                    for r in csv.DictReader(fh) if not r.get("error")]
        consts, stats = calibrate_constants(rows)
        report["calibration"] = _sanitize(
            {**dataclasses.asdict(consts), "stats": stats})
    nu = params.get("nu")
    if nu is not None:
        _require(params, "lam", "m0")
        if float(params["m0"]) < 1:
            raise ValueError("theory bounds: m0 must be >= 1")
        h0 = 1.0 / float(params["m0"])
        if not math.isinf(float(nu)):
            report["matern_ell_bound"] = matern_ell_bound(
                float(nu), float(params["lam"]), h0, consts)
        elif consts.B is None:
            raise ValueError("gaussian bound needs --b or --calibrate-from")
        else:
            report["gaussian_ell_bound"] = gaussian_ell_bound(
                float(params["lam"]), h0, consts.B)
    _emit(params, report)
    return EXIT_OK


def cmd_continuous_eigs(params: dict) -> int:
    kernel = _kernel_from(params)
    _require(params, "ell")
    ell = float(params["ell"])
    quad_n = int(_get(params, "quad_n", 64))
    rows = {}
    for k in (int(v) for v in str(_get(params, "k", "0")).split(",")):
        kvec = [k] + [0] * (kernel.d - 1)  # first-axis wavenumber
        rows[str(k)] = continuous_eigenvalue(kernel, ell, kvec, quad_n=quad_n)
    _emit(params, {"ell": ell, "lambda_ext": rows})
    return EXIT_OK


def cmd_sampling_theorem(params: dict) -> int:
    kernel = _kernel_from(params)
    _require(params, "h")
    xi = np.array([float(v) for v in str(_get(params, "xi", "0")).split(",")])
    res = sampling_theorem_check(
        kernel, float(params["h"]), xi,
        k_trunc=int(_get(params, "k_trunc", 64)),
        r_trunc=int(_get(params, "r_trunc", 64)))
    _emit(params, dataclasses.asdict(res))
    return EXIT_OK


def cmd_qmc_sum(params: dict) -> int:
    _, emb, spec = _search(params, needs=("p",))
    total = qmc_criterion_sum(spec, float(params["p"]))
    _emit(params, {"m": emb.m, "ell": emb.ell, "s": emb.s,
                   "p": float(params["p"]), "sum": total})
    return EXIT_OK


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path,
                        help="JSON config mirroring the flags; flags override it")
    common.add_argument("--out", type=Path,
                        help="output directory (reports, CSVs, manifest.json)")
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--nu", type=_parse_nu,
                       help="smoothness (real or 'inf')")
    shape.add_argument("--lambda", dest="lam", type=float,
                       help="correlation length")
    # `theory bounds` reads only the shape; the other commands read all four
    kernel = argparse.ArgumentParser(add_help=False, parents=[shape])
    kernel.add_argument("--d", type=int, help="spatial dimension (1, 2 or 3)")
    kernel.add_argument("--sigma2", type=float, help="variance")
    m0 = argparse.ArgumentParser(add_help=False)
    m0.add_argument("--m0", type=int, help="grid intervals per axis")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--tol", type=float)
    search.add_argument("--m-max", dest="m_max", type=int)
    search.add_argument("--schedule", choices=["increment", "doubling"])
    mean = argparse.ArgumentParser(add_help=False)
    mean.add_argument("--mean", type=str, help="const:<value> or file:<path>")
    ell = argparse.ArgumentParser(add_help=False)
    ell.add_argument("--ell", type=float, help="extension length")

    ap = argparse.ArgumentParser(
        prog="circembed",
        description="Stationary Gaussian random fields on uniform grids by "
                    "circulant embedding")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(subparsers, name, func, parents, text):
        p = subparsers.add_parser(name.split()[-1], parents=parents,
                                  help=text)
        p.set_defaults(func=func, command=name)
        return p

    p = command(sub, "min-ell", cmd_min_ell, [kernel, common, m0, search],
                "minimal positive definite extension")
    p.add_argument("--m-step", dest="m_step", type=int)
    p.add_argument("--export-spectrum", dest="export_spectrum",
                   action="store_true", default=None)

    p = command(sub, "sweep", cmd_sweep, [common, search],
                "minimal-extension parameter sweep")
    p.add_argument("--threads", type=int,
                   help="sweep points searched in parallel (default 1)")

    p = command(sub, "eig-decay", cmd_eig_decay, [kernel, common, m0, search],
                "eigenvalue decay CSV + slope fit")
    p.add_argument("--fit-lo", dest="fit_lo", type=float)
    p.add_argument("--fit-hi", dest="fit_hi", type=float)

    p = command(sub, "sample", cmd_sample,
                [kernel, common, m0, search, mean],
                "draw field samples to files")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lognormal", action="store_true", default=None)
    p.add_argument("--format", choices=["csv", "bin"])

    p = command(sub, "validate", cmd_validate, [kernel, common, mean],
                "empirical moment check of samples")
    p.add_argument("--samples", type=Path, help="binary field file")

    tsub = sub.add_parser("theory", help="theory diagnostics"
                          ).add_subparsers(dest="theory_cmd", required=True)
    command(tsub, "theory pd-criterion", cmd_pd_criterion,
            [kernel, common, m0, ell],
            "sufficient positive-definiteness criterion")
    p = command(tsub, "theory bounds", cmd_bounds, [shape, common, m0],
                "extension-length bounds")
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--calibrate-from", dest="calibrate_from", type=Path,
                   help="sweep CSV to calibrate constants from")
    p = command(tsub, "theory continuous-eigs", cmd_continuous_eigs,
                [kernel, common, ell],
                "eigenvalues of the continuous periodized covariance")
    p.add_argument("--k", type=str,
                   help="comma-separated first-axis wavenumbers")
    p.add_argument("--quad-n", dest="quad_n", type=int)
    p = command(tsub, "theory sampling-theorem", cmd_sampling_theorem,
                [kernel, common], "aliasing identity check")
    p.add_argument("--h", type=float)
    p.add_argument("--xi", type=str, help="comma-separated frequency point")
    p.add_argument("--k-trunc", dest="k_trunc", type=int)
    p.add_argument("--r-trunc", dest="r_trunc", type=int)
    p = command(tsub, "theory qmc-sum", cmd_qmc_sum,
                [kernel, common, m0, search],
                "QMC criterion sum of the minimal extension")
    p.add_argument("--p", type=float)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_merge_config(args))
    except (ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CircembedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
