"""Command-line surface.

Subcommands:

    min-ell    minimal positive-definite extension for one kernel/grid
    sweep      minimal-extension sweep over a parameter grid (CSV)
    eig-decay  eigenvalue-decay CSV and slope report
    sample     draw field samples to CSV or raw binary
    validate   empirical mean/covariance check of a sample file
    theory     pd-criterion | bounds | continuous-eigs | sampling-theorem |
               qmc-sum, each with only the flags it reads

Each flag is declared once, with the CLI's default if it has one, in a
parent parser shared by the commands that read it; every search runs
through `_search`, and a searching command's report starts from
`formats.search_summary`.  A JSON config (--config) may set any flag by its
destination (`lam`, `m_max`, `out`); explicit flags override it, and a
value (each element of a list) is read as the flag's own text would be
(`_value`).  No call changes the parser, which is built once.  A library
setting that neither gives is not passed on, so its one default is the
library's, and an explicit 0 meets the checks of the code that reads it.
Exit codes: 0 success, 2 flag/usage error (also an input too large to
allocate), 3 numerical failure (including a search that ends where
float64 cannot decide positive definiteness), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (BoundConstants, calibrate_constants,
                       continuous_eigenvalue, decay_report, decay_sequence,
                       gaussian_ell_bound, matern_ell_bound, pd_criterion,
                       qmc_criterion_sum, sampling_theorem_check)
from .embedding import GridSpec, minimal_embedding
from .errors import CircembedError
from .formats import (SAMPLE_CSV, field_binary_writer, field_csv_writer,
                      read_field_binary, search_summary, sidecar_path,
                      spectrum_sidecar, write_csv, write_json,
                      write_manifest, write_spectrum_csv)
from .kernels import MaternKernel
from .sampler import batch_sample_values, worker_count
from .validation import validate_samples

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
# the settings of `minimal_embedding` that every searching command passes on
SEARCH = ("tol", "m_max", "schedule")


def _parse_nu(text: str) -> float:
    if text.lower() in ("inf", "infinity", "gaussian"):
        return math.inf
    return float(text)


def _value(parser: argparse.ArgumentParser, action: argparse.Action, value):
    """A config value read as its flag's text would be: by the flag's type,
    then its choices (true or false for a bare flag); a list by element."""
    if isinstance(value, list):
        return [_value(parser, action, v) for v in value]
    if action.nargs != 0:
        try:
            value = parser._get_value(action, str(value))
        except argparse.ArgumentError as exc:
            parser.error(str(exc))
    if (action.nargs == 0 and not isinstance(value, bool)
            or action.choices and value not in action.choices):
        raise ValueError(
            f"argument {'/'.join(action.option_strings)}: unknown "
            f"{action.dest} {value!r} (expected "
            f"{' or '.join(action.choices or ('true', 'false'))})")
    return value


def _parameters(argv) -> tuple:
    """The command's function and parameters: the config's values (other
    keys stay as given, below `command`) with argv's flags in their place,
    and each value no flag replaced read by `_value`.  A list is accepted
    only where the command reads one (`LIST_KEYS`), an object nowhere."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    config = {} if args.config is None else json.loads(args.config.read_text())
    if not isinstance(config, dict):
        raise ValueError(f"--config {args.config} must hold a JSON object")
    flags = {action.dest: action for action in args.parser._actions}
    given = {k: v for k, v in config.items() if k in flags and v is not None}
    read = vars(args.parser.parse_args(argv[len(args.command.split()):],
                                       argparse.Namespace(**given)))
    params = {key: value for key, value in {**config, **read}.items()
              if value is not None and key not in ("config", "func", "parser")}
    listed = LIST_KEYS.get(args.command, ())
    for key, value in params.items():
        if isinstance(value, dict) \
                or isinstance(value, list) and key not in listed:
            kind = "a list" if key in listed else "a single value"
            raise ValueError(f"config key '{key}' must be {kind} for "
                             f"{args.command}, not a {type(value).__name__}")
        if key in given and value is given[key]:  # no flag replaced it
            params[key] = _value(args.parser, flags[key], value)
    return read["func"], params


def _require(params: dict, *names):
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _kernel_from(params: dict) -> MaternKernel:
    _require(params, "d", "nu", "lam")
    return MaternKernel(sigma2=params.get("sigma2", 1.0), lam=params["lam"],
                        nu=params["nu"], d=params["d"], allow_small_nu=True)


def _search(params: dict, needs: tuple = (), settings: tuple = SEARCH):
    """The search of every searching command: kernel and grid from `params`,
    then `minimal_embedding` with the `settings` that params hold, others
    left to its defaults.  `needs` names more required parameters, checked
    with m0.  Returns (kernel, spectrum); its tolerance is tol."""
    kernel = _kernel_from(params)
    _require(params, "m0", *needs)
    grid = GridSpec(d=kernel.d, m0=params["m0"])
    _, spec = minimal_embedding(
        kernel, grid, **{k: params[k] for k in settings if k in params})
    return kernel, spec


def _require_out(params: dict):
    if params.get("out") is None:
        raise ValueError(f"{params['command']} requires --out")


def _out_dir(params: dict) -> Path:
    """The output directory, created if needed."""
    params["out"].mkdir(parents=True, exist_ok=True)
    return params["out"]


def _emit(params: dict, report: dict, files=()):
    """Print the report; with an output directory, write it and a manifest
    listing `files` (every other file the run wrote there, sidecars
    included) and `report.json`, each named relative to the directory."""
    payload = _sanitize({"report": report, "parameters": params,
                         "version": __version__})
    print(json.dumps(payload, indent=2, sort_keys=True))
    if params.get("out") is not None:
        out = _out_dir(params)
        write_json(out / "report.json", payload)
        write_manifest(out, params["command"], _sanitize(params), outputs=[
            str(f.relative_to(out)) for f in files] + ["report.json"])


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)  # "inf", "-inf" or "nan": strict JSON has neither
    return obj


# ---------------------------------------------------------------- min-ell

def cmd_min_ell(params: dict) -> int:
    if params["export_spectrum"] and params.get("out") is None:
        raise ValueError("min-ell --export-spectrum requires --out")
    t0 = time.perf_counter()
    kernel, spec = _search(params, settings=(*SEARCH, "m_step"))
    report = {**search_summary(spec), "wall_time": time.perf_counter() - t0}
    files = []
    if params["export_spectrum"]:
        path = write_spectrum_csv(_out_dir(params) / "spectrum.csv", spec,
                                  kernel)
        files = [path, sidecar_path(path)]
    _emit(params, report, files)
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _sweep_point(params: dict) -> dict:
    """One sweep row: the search at one point, or its numerical failure."""
    row = {"d": params["d"], "nu": params["nu"], "lambda": params["lam"],
           "m0": params["m0"]}
    t0 = time.perf_counter()
    try:
        emb = _search(params)[1].embedding
        row.update(ell_min=emb.ell, m=emb.m, s=emb.s, error="")
    except CircembedError as exc:  # per-point failure recorded in-row
        row.update(ell_min="", m="", s="", error=str(exc))
    row["seconds"] = time.perf_counter() - t0
    return row


def cmd_sweep(params: dict) -> int:
    """The search at every point of the product of the grid lists."""
    _require_out(params)
    if params["threads"] < 1:
        raise ValueError("sweep: threads must be >= 1")
    keys = LIST_KEYS["sweep"]
    for key in keys:
        if params.get(key) in (None, []):
            raise ValueError(f"sweep config must list values for '{key}'")
    lists = [v if isinstance(v, list) else [v] for v in map(params.get, keys)]
    points = [{**params, **dict(zip(keys, point))}
              for point in itertools.product(*lists)]
    # no more threads than points or CPUs, whatever --threads asks for
    workers = min(params["threads"], len(points), worker_count())
    with ThreadPoolExecutor(max_workers=workers) as pool:
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
              "sweep_csv": sweep_path.name, "derived_csv": derived_path.name}
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
    kernel, spec = _search(params)
    rep = decay_report(spec, kernel.nu, fit_range=params.get("fit_range"))
    decay_path = write_csv(
        _out_dir(params) / "decay.csv", DECAY_COLUMNS,
        ([j, v] for j, v in enumerate(decay_sequence(spec).tolist(), 1)))
    report = {**search_summary(spec), "fit_j_lo": rep.j_lo,
              "fit_j_hi": rep.j_hi, "slope": rep.slope, "rel_dev": rep.rel_dev,
              "expected_slope": -rep.expected_beta, "pass": rep.passed,
              "degenerate": rep.degenerate, "decay_csv": decay_path.name}
    _emit(params, report, [decay_path])
    return EXIT_OK


# ----------------------------------------------------------------- sample

def _parse_mean(text: str):
    if text.startswith("const:"):
        value = float(text[len("const:"):])
        if not math.isfinite(value):
            raise ValueError(f"--mean {text}: the mean must be finite")
        return value
    if text.startswith("file:"):
        path = Path(text[len("file:"):])
        with warnings.catch_warnings():  # an empty file, rejected below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path).reshape(-1)
        if data.size == 0:
            raise ValueError(f"mean file {path} holds no values")
        if not np.isfinite(data).all():
            raise ValueError(f"mean file {path} has a value that is not finite")
        return data
    raise ValueError("--mean must be const:<value> or file:<path>")


def cmd_sample(params: dict) -> int:
    """Stream the samples to their files chunk by chunk as they are done,
    so memory follows the sampler's budget, not n.  A failed sampling
    block leaves no field file; `report.json` and `manifest.json` are
    written after it."""
    _require_out(params)
    n, seed, lognormal = params["n"], params["seed"], params["lognormal"]
    mean = _parse_mean(params["mean"])
    kernel, spec = _search(params)
    grid = spec.embedding.grid
    out = _out_dir(params)
    sidecar = {**spectrum_sidecar(spec, kernel), "n_samples": n,
               "seed": seed, "lognormal": lognormal, "mean": params["mean"]}
    path, binary = out / "fields.bin", params["format"] == "bin"
    with (field_binary_writer(path, n, grid.d, grid.m0, sidecar) if binary
          else field_csv_writer(out, n, grid, sidecar)) as write:
        batch_sample_values(spec, mean, n, seed, lognormal=lognormal,
                            sink=write)
    files = ([path] if binary
             else [out / SAMPLE_CSV.format(i) for i in range(n)])
    report = {**search_summary(spec), "n": n,
              "files": [f.name for f in files[:8]]}
    _emit(params, report,
          [*files, sidecar_path(path if binary else out / "fields")])
    return EXIT_OK


# --------------------------------------------------------------- validate

def cmd_validate(params: dict) -> int:
    _require(params, "samples")
    mean = _parse_mean(params["mean"])
    values, header = read_field_binary(params["samples"])
    grid = GridSpec(d=header["d"], m0=header["m0"])
    kernel = _kernel_from({"d": header["d"], **params})
    if kernel.d != header["d"]:
        raise ValueError(f"--d {kernel.d} does not match file d={header['d']}")
    report_obj = validate_samples(values, kernel, grid, mean=mean)
    _emit(params, dataclasses.asdict(report_obj))
    return EXIT_OK if report_obj.passed else EXIT_NUMERICAL


# ----------------------------------------------------------------- theory

def cmd_pd_criterion(params: dict) -> int:
    kernel = _kernel_from(params)
    _require(params, "m0", "ell")
    res = pd_criterion(kernel, GridSpec(d=kernel.d, m0=params["m0"]),
                       params["ell"])
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
        report["calibration"] = {**dataclasses.asdict(consts), "stats": stats}
    nu = params.get("nu")
    if nu is not None:
        _require(params, "lam", "m0")
        if params["m0"] < 1:
            raise ValueError("theory bounds: m0 must be >= 1")
        h0 = 1.0 / params["m0"]
        if not math.isinf(nu):
            report["matern_ell_bound"] = matern_ell_bound(
                nu, params["lam"], h0, consts)
        elif consts.B is None:
            raise ValueError("gaussian bound needs --b or --calibrate-from")
        else:
            report["gaussian_ell_bound"] = gaussian_ell_bound(
                params["lam"], h0, consts.B)
    _emit(params, report)
    return EXIT_OK


def _comma_list(params: dict, key: str, kind) -> list:
    try:
        return [kind(v) for v in params[key].split(",")]
    except ValueError:
        raise ValueError(f"argument --{key}: expected comma-separated "
                         f"{kind.__name__} values") from None


def cmd_continuous_eigs(params: dict) -> int:
    kernel = _kernel_from(params)
    _require(params, "ell")
    quad = {"quad_n": params["quad_n"]} if "quad_n" in params else {}
    rows = {str(k): continuous_eigenvalue(  # k on the first axis
        kernel, params["ell"], [k] + [0] * (kernel.d - 1), **quad)
        for k in _comma_list(params, "k", int)}
    _emit(params, {"ell": params["ell"], "lambda_ext": rows})
    return EXIT_OK


def cmd_sampling_theorem(params: dict) -> int:
    kernel = _kernel_from(params)
    _require(params, "h")
    res = sampling_theorem_check(
        kernel, params["h"], _comma_list(params, "xi", float),
        k_trunc=params["k_trunc"], r_trunc=params["r_trunc"])
    _emit(params, dataclasses.asdict(res))
    return EXIT_OK


def cmd_qmc_sum(params: dict) -> int:
    spec = _search(params, needs=("p",))[1]
    _emit(params, {**search_summary(spec), "p": params["p"],
                   "sum": qmc_criterion_sum(spec, params["p"])})
    return EXIT_OK


# ------------------------------------------------------------------- main

@functools.cache
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
    search.add_argument("--m-max", type=int)
    search.add_argument("--schedule", choices=["increment", "doubling"])
    mean = argparse.ArgumentParser(add_help=False)
    mean.add_argument("--mean", default="const:0",
                      help="const:<value> or file:<path>")
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
        p.set_defaults(func=func, command=name, parser=p)
        return p

    p = command(sub, "min-ell", cmd_min_ell, [kernel, common, m0, search],
                "minimal positive definite extension")
    p.add_argument("--m-step", type=int)
    p.add_argument("--export-spectrum", action="store_true")

    p = command(sub, "sweep", cmd_sweep, [kernel, common, m0, search],
                "minimal-extension parameter sweep")
    p.add_argument("--threads", type=int, default=1,
                   help="sweep points searched in parallel (at most one "
                   "thread per point and CPU)")

    p = command(sub, "eig-decay", cmd_eig_decay, [kernel, common, m0, search],
                "eigenvalue decay CSV + slope fit")
    p.add_argument("--fit-lo", type=float)
    p.add_argument("--fit-hi", type=float)

    p = command(sub, "sample", cmd_sample,
                [kernel, common, m0, search, mean],
                "draw field samples to files")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lognormal", action="store_true")
    p.add_argument("--format", choices=["csv", "bin"], default="bin")

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
    for flag in ("--c1", "--c2", "--b"):
        p.add_argument(flag, type=float)
    p.add_argument("--calibrate-from", type=Path,
                   help="sweep CSV to calibrate constants from")
    p = command(tsub, "theory continuous-eigs", cmd_continuous_eigs,
                [kernel, common, ell],
                "eigenvalues of the continuous periodized covariance")
    p.add_argument("--k", default="0",
                   help="comma-separated first-axis wavenumbers")
    p.add_argument("--quad-n", type=int)
    p = command(tsub, "theory sampling-theorem", cmd_sampling_theorem,
                [kernel, common], "aliasing identity check")
    p.add_argument("--h", type=float)
    p.add_argument("--xi", default="0", help="comma-separated frequency point")
    p.add_argument("--k-trunc", type=int, default=64)
    p.add_argument("--r-trunc", type=int, default=64)
    p = command(tsub, "theory qmc-sum", cmd_qmc_sum,
                [kernel, common, m0, search],
                "QMC criterion sum of the minimal extension")
    p.add_argument("--p", type=float)
    return ap


def main(argv=None) -> int:
    try:
        func, params = _parameters(argv)
        return func(params)
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
