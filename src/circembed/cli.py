"""Command-line surface.

Subcommands:

    min-ell    minimal positive-definite extension for one kernel/grid
    sweep      minimal-extension sweep over a parameter grid (CSV)
    eig-decay  eigenvalue-decay CSV and slope report
    sample     draw field samples to CSV or raw binary
    validate   empirical mean/covariance check of a sample file
    theory     pd-criterion | bounds | continuous-eigs | sampling-theorem |
               qmc-sum

Flags can also be supplied through a JSON config (--config); explicit
flags override config values.  Exit codes: 0 success, 2 flag/usage error,
3 numerical failure (including a search that ends where float64 cannot
decide positive definiteness), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
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
from .formats import (read_field_binary, write_field_binary, write_field_csv,
                      write_json, write_manifest, write_spectrum_csv)
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


def _parse_nu(text: str) -> float:
    if str(text).lower() in ("inf", "infinity", "gaussian"):
        return math.inf
    return float(text)


def _add_kernel_flags(p: argparse.ArgumentParser):
    p.add_argument("--d", type=int, help="spatial dimension (1, 2 or 3)")
    p.add_argument("--nu", type=_parse_nu, help="smoothness (real or 'inf')")
    p.add_argument("--lambda", dest="lam", type=float,
                   help="correlation length")
    p.add_argument("--sigma2", type=float, default=None, help="variance")


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, default=None,
                   help="JSON config mirroring the flags; flags override it")
    p.add_argument("--out", type=Path, default=None,
                   help="output directory (reports, CSVs, manifest.json)")


def _merge_config(args: argparse.Namespace) -> dict:
    """Effective parameters: config file values overridden by explicit flags."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(json.loads(Path(args.config).read_text()))
    for key, value in vars(args).items():
        if key in ("config", "func", "cmd", "theory_cmd") or value is None:
            continue
        merged[key] = value
    return merged


def _require(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _kernel_from(params: dict) -> MaternKernel:
    _require(params, "d", "nu", "lam")
    return MaternKernel(sigma2=float(params.get("sigma2") or 1.0),
                        lam=float(params["lam"]), nu=float(params["nu"]),
                        d=int(params["d"]), allow_small_nu=True)


def _search_params(params: dict, nu: float, m0: int) -> dict:
    """tol, m_max and schedule of the minimal-extension search, as keyword
    arguments of `minimal_embedding`, with their defaults filled in."""
    tol = params.get("tol")
    if tol is None:
        # recommended defaults: exact nonnegativity for finite smoothness,
        # a 1e-13 absolute allowance for the Gaussian limit
        tol = 1e-13 if math.isinf(nu) else 0.0
    return {"tol": float(tol), "m_max": int(params.get("m_max") or 100 * m0),
            "schedule": params.get("schedule", "increment")}


def _emit(params: dict, report: dict, args, files=()):
    """Print the report; persist report + manifest when --out is given."""
    payload = _sanitize({"report": report, "parameters": params,
                         "version": __version__})
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "report.json", payload)
        write_manifest(out, params.get("command", "?"), _sanitize(params),
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

def cmd_min_ell(args) -> int:
    params = _merge_config(args)
    params["command"] = "min-ell"
    kernel = _kernel_from(params)
    _require(params, "m0")
    grid = GridSpec(d=kernel.d, m0=int(params["m0"]))
    search = _search_params(params, kernel.nu, grid.m0)
    t0 = time.perf_counter()
    emb, spec = minimal_embedding(kernel, grid, **search,
                                  m_step=int(params.get("m_step") or 1))
    wall = time.perf_counter() - t0
    report = {"m": emb.m, "ell": emb.ell, "s": emb.s,
              "min_eig": spec.min_value, "rounding_bound": spec.rounding_bound,
              "certified": spec.certified, "wall_time": wall,
              "tol": search["tol"]}
    files = []
    if args.out is not None and params.get("export_spectrum"):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        files.append(write_spectrum_csv(out / "spectrum.csv", spec, kernel))
    _emit(params, report, args, files)
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _sweep_point(d, nu, lam, m0, sigma2, params):
    kernel = MaternKernel(sigma2=sigma2, lam=lam, nu=nu, d=d,
                          allow_small_nu=True)
    grid = GridSpec(d=d, m0=m0)
    t0 = time.perf_counter()
    try:
        emb, spec = minimal_embedding(kernel, grid,
                                      **_search_params(params, nu, m0))
        wall = time.perf_counter() - t0
        return {"d": d, "nu": nu, "lambda": lam, "m0": m0, "ell_min": emb.ell,
                "m": emb.m, "s": emb.s, "seconds": wall, "error": ""}
    except CircembedError as exc:  # per-point failure recorded in-row
        return {"d": d, "nu": nu, "lambda": lam, "m0": m0, "ell_min": "",
                "m": "", "s": "", "seconds": time.perf_counter() - t0,
                "error": str(exc)}


def cmd_sweep(args) -> int:
    params = _merge_config(args)
    params["command"] = "sweep"
    if args.out is None:
        raise ValueError("sweep requires --out")
    grids = {key: params.get(key) for key in ("d", "nu", "lam", "m0")}
    for key, val in grids.items():
        if val is None:
            raise ValueError(f"sweep config must list values for '{key}'")
        if not isinstance(val, (list, tuple)):
            grids[key] = [val]
    nus = [_parse_nu(v) for v in grids["nu"]]
    sigma2 = float(params.get("sigma2") or 1.0)
    points = [(int(d), nu, float(lam), int(m0))
              for d in grids["d"] for nu in nus
              for lam in grids["lam"] for m0 in grids["m0"]]
    threads = max(1, int(params.get("threads") or 1))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda pt: _sweep_point(*pt, sigma2, params), points))
    else:
        rows = [_sweep_point(*pt, sigma2, params) for pt in points]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _sanitize(row[k]) for k in SWEEP_COLUMNS})
    derived_path = out / "sweep_derived.csv"
    with open(derived_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DERIVED_COLUMNS)
        writer.writeheader()
        for row in rows:
            if row["error"]:
                continue
            writer.writerow({
                "d": row["d"], "nu": _sanitize(row["nu"]),
                "lambda": row["lambda"], "m0": row["m0"],
                "log2_m0": math.log2(row["m0"]),
                "log_nu": "" if math.isinf(row["nu"]) else math.log(row["nu"]),
                "log_ell": math.log(row["ell_min"]),
            })
    report = {"points": len(rows),
              "failures": sum(1 for r in rows if r["error"]),
              "sweep_csv": str(sweep_path), "derived_csv": str(derived_path)}
    _emit(params, report, args, [sweep_path, derived_path])
    return EXIT_OK


# -------------------------------------------------------------- eig-decay

def cmd_eig_decay(args) -> int:
    params = _merge_config(args)
    params["command"] = "eig-decay"
    if args.out is None:
        raise ValueError("eig-decay requires --out")
    kernel = _kernel_from(params)
    if kernel.is_gaussian:
        raise ValueError("eig-decay expects a finite smoothness nu")
    _require(params, "m0")
    grid = GridSpec(d=kernel.d, m0=int(params["m0"]))
    emb, spec = minimal_embedding(
        kernel, grid, **_search_params(params, kernel.nu, grid.m0))
    if params.get("fit_lo") is not None and params.get("fit_hi") is not None:
        params["fit_range"] = [params["fit_lo"], params["fit_hi"]]
    fit_range = params.get("fit_range")
    rep = decay_report(spec, kernel.nu, kernel.d,
                       fit_range=tuple(fit_range) if fit_range else None,
                       rel_tol=float(params.get("slope_rel_tol") or 0.15))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    flat = np.sort(np.sqrt(np.maximum(spec.values_flat, 0.0) / emb.s))[::-1]
    decay_path = out / "decay.csv"
    with open(decay_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DECAY_COLUMNS)
        for j, v in enumerate(flat, start=1):
            writer.writerow([j, repr(float(v))])
    report = {"m": emb.m, "ell": emb.ell, "s": emb.s,
              "fit_j_lo": rep.j_lo, "fit_j_hi": rep.j_hi, "slope": rep.slope,
              "expected_slope": -rep.expected_beta, "rel_dev": rep.rel_dev,
              "pass": rep.passed, "degenerate": rep.degenerate,
              "decay_csv": str(decay_path)}
    _emit(params, report, args, [decay_path])
    return EXIT_OK


# ----------------------------------------------------------------- sample

def _parse_mean(spec_text, n_points):
    if spec_text is None:
        return 0.0, {"mean": "const:0"}
    text = str(spec_text)
    if text.startswith("const:"):
        return float(text[len("const:"):]), {"mean": text}
    if text.startswith("file:"):
        path = Path(text[len("file:"):])
        data = np.loadtxt(path).reshape(-1)
        if data.size != n_points:
            raise ValueError(f"mean file has {data.size} values, grid has "
                             f"{n_points} points")
        return data, {"mean": text}
    raise ValueError("--mean must be const:<value> or file:<path>")


def cmd_sample(args) -> int:
    params = _merge_config(args)
    params["command"] = "sample"
    if args.out is None:
        raise ValueError("sample requires --out")
    kernel = _kernel_from(params)
    _require(params, "m0")
    grid = GridSpec(d=kernel.d, m0=int(params["m0"]))
    n = int(params.get("n") or 1)
    seed = int(params.get("seed") or 0)
    lognormal = bool(params.get("lognormal"))
    fmt = params.get("format") or "bin"
    search = _search_params(params, kernel.nu, grid.m0)
    emb, spec = minimal_embedding(kernel, grid, **search)
    mean, mean_meta = _parse_mean(params.get("mean"), grid.n_points)
    values = batch_sample_values(spec, mean, n, seed, lognormal=lognormal)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "kernel": kernel.to_json(), "d": grid.d, "m0": grid.m0,
        "m": emb.m, "ell": emb.ell, "s": emb.s, "tol": search["tol"],
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
    _emit(params, report, args, files)
    return EXIT_OK


# --------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    params = _merge_config(args)
    params["command"] = "validate"
    _require(params, "samples")
    values, header = read_field_binary(Path(params["samples"]))
    grid = GridSpec(d=header["d"], m0=header["m0"])
    if grid.n_points > DENSE_POINTS_CAP:
        raise ValueError(
            f"validate: the file's grid has {grid.n_points} points, above the "
            f"cap of {DENSE_POINTS_CAP} points for the dense covariance check")
    kernel_params = dict(params)
    kernel_params.setdefault("d", header["d"])
    kernel = _kernel_from(kernel_params)
    if kernel.d != header["d"]:
        raise ValueError(f"--d {kernel.d} does not match file d={header['d']}")
    mean, _ = _parse_mean(params.get("mean"), grid.n_points)
    report_obj = validate_samples(values, kernel, grid, mean=mean)
    _emit(params, report_obj.to_json(), args)
    return EXIT_OK if report_obj.passed else EXIT_NUMERICAL


# ----------------------------------------------------------------- theory

def cmd_theory(args) -> int:
    params = _merge_config(args)
    params["command"] = f"theory {args.theory_cmd}"
    sub = args.theory_cmd

    if sub == "pd-criterion":
        kernel = _kernel_from(params)
        _require(params, "m0", "ell")
        res = pd_criterion(kernel, GridSpec(d=kernel.d, m0=int(params["m0"])),
                           float(params["ell"]))
        _emit(params, {"lhs": res.lhs, "rhs": res.rhs,
                       "satisfied": res.satisfied}, args)
        return EXIT_OK

    if sub == "bounds":
        report = {}
        consts = BoundConstants(
            C1=params.get("c1"), C2=params.get("c2"), B=params.get("b"))
        if params.get("calibrate_from"):
            rows = []
            with open(params["calibrate_from"], newline="") as fh:
                for row in csv.DictReader(fh):
                    if row.get("error"):
                        continue
                    rows.append((int(row["d"]), _parse_nu(row["nu"]),
                                 float(row["lambda"]), 1.0 / float(row["m0"]),
                                 float(row["ell_min"])))
            consts, stats = calibrate_constants(rows)
            report["calibration"] = _sanitize(
                {"C1": consts.C1, "C2": consts.C2, "B": consts.B,
                 "stats": stats})
        nu = params.get("nu")
        if nu is not None and not math.isinf(float(nu)):
            _require(params, "lam", "m0")
            report["matern_ell_bound"] = matern_ell_bound(
                float(nu), float(params["lam"]), 1.0 / float(params["m0"]),
                consts)
        elif nu is not None:
            _require(params, "lam", "m0")
            if consts.B is None:
                raise ValueError("gaussian bound needs --b or --calibrate-from")
            report["gaussian_ell_bound"] = gaussian_ell_bound(
                float(params["lam"]), 1.0 / float(params["m0"]), consts.B)
        _emit(params, report, args)
        return EXIT_OK

    if sub == "continuous-eigs":
        kernel = _kernel_from(params)
        _require(params, "ell")
        ks = [int(v) for v in str(params.get("k") or "0").split(",")]
        ell = float(params["ell"])
        quad_n = int(params.get("quad_n") or 64)
        rows = {}
        for k in ks:
            kvec = np.zeros(kernel.d, dtype=int)
            kvec[0] = k
            rows[str(k)] = continuous_eigenvalue(kernel, ell, kvec,
                                                 quad_n=quad_n)
        _emit(params, {"ell": ell, "lambda_ext": rows}, args)
        return EXIT_OK

    if sub == "sampling-theorem":
        kernel = _kernel_from(params)
        _require(params, "h")
        xi = np.array([float(v) for v in str(params.get("xi") or "0").split(",")])
        res = sampling_theorem_check(
            kernel, float(params["h"]), xi,
            k_trunc=int(params.get("k_trunc") or 64),
            r_trunc=int(params.get("r_trunc") or 64))
        _emit(params, {"lhs": res.lhs, "rhs": res.rhs,
                       "residual": res.residual}, args)
        return EXIT_OK

    if sub == "qmc-sum":
        kernel = _kernel_from(params)
        _require(params, "m0", "p")
        grid = GridSpec(d=kernel.d, m0=int(params["m0"]))
        emb, spec = minimal_embedding(
            kernel, grid, **_search_params(params, kernel.nu, grid.m0))
        total = qmc_criterion_sum(spec, float(params["p"]))
        _emit(params, {"m": emb.m, "ell": emb.ell, "s": emb.s,
                       "p": float(params["p"]), "sum": total}, args)
        return EXIT_OK

    raise ValueError(f"unknown theory subcommand {sub!r}")


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circembed",
        description="Stationary Gaussian random fields on uniform grids by "
                    "circulant embedding")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("min-ell", help="minimal positive definite extension")
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--m0", type=int)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--schedule", choices=["increment", "doubling"],
                   default=None)
    p.add_argument("--m-step", dest="m_step", type=int, default=None)
    p.add_argument("--export-spectrum", dest="export_spectrum",
                   action="store_true", default=None)
    p.set_defaults(func=cmd_min_ell)

    p = sub.add_parser("sweep", help="minimal-extension parameter sweep")
    _add_common_flags(p)
    p.add_argument("--threads", type=int, default=1,
                   help="sweep points searched in parallel")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--schedule", choices=["increment", "doubling"],
                   default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eig-decay", help="eigenvalue decay CSV + slope fit")
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--m0", type=int)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--schedule", choices=["increment", "doubling"],
                   default=None)
    p.add_argument("--fit-lo", dest="fit_lo", type=float, default=None)
    p.add_argument("--fit-hi", dest="fit_hi", type=float, default=None)
    p.set_defaults(func=cmd_eig_decay)

    p = sub.add_parser("sample", help="draw field samples to files")
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--m0", type=int)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--schedule", choices=["increment", "doubling"],
                   default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mean", type=str, default=None,
                   help="const:<value> or file:<path>")
    p.add_argument("--lognormal", action="store_true", default=None)
    p.add_argument("--format", choices=["csv", "bin"], default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate", help="empirical moment check of samples")
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--samples", type=Path, help="binary field file")
    p.add_argument("--mean", type=str, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("theory", help="theory diagnostics")
    p.add_argument("theory_cmd",
                   choices=["pd-criterion", "bounds", "continuous-eigs",
                            "sampling-theorem", "qmc-sum"])
    _add_kernel_flags(p)
    _add_common_flags(p)
    p.add_argument("--m0", type=int)
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--k", type=str, default=None,
                   help="comma-separated first-axis wavenumbers")
    p.add_argument("--quad-n", dest="quad_n", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--xi", type=str, default=None,
                   help="comma-separated frequency point")
    p.add_argument("--k-trunc", dest="k_trunc", type=int, default=None)
    p.add_argument("--r-trunc", dest="r_trunc", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--calibrate-from", dest="calibrate_from", type=Path,
                   default=None, help="sweep CSV to calibrate constants from")
    p.set_defaults(func=cmd_theory)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
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
