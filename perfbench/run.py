"""circembed benchmark: one workload run, as one fresh process.

    python3 perfbench/run.py --workload search|sample|validate \\
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` directory.  The run times `import circembed.cli` in fresh processes
(set-up), runs the workload's warm-up operation once untimed, then calls
`circembed.cli.main(argv)` for each operation of the workload in a closed
loop, one operation at a time, until S seconds have passed and every
operation has run at least once.  Every run of every operation is checked.

With --trace 0 the last line of standard output holds the end-to-end
metrics.  With --trace 1 every operation runs twice in a row, untraced and
traced (alternating which goes first), the outputs of the two must hash
equal, and the last line holds the per-layer metrics computed from the
traced runs' spans.  The line before it is the run record: machine,
library versions, per-operation list and the per-command metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

SETUP_IMPORTS = 4
CHILD_TIMEOUT_S = 120
IMPORT_CODE = ("import time; t = time.perf_counter(); import circembed.cli; "
               "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                 else []))
    return env


def setup_seconds() -> list:
    """Seconds taken by `import circembed.cli` in fresh processes."""
    out = []
    for _ in range(SETUP_IMPORTS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def execute(op, cli_main, tracer=None, op_id=0):
    """Run one operation in-process; return its Result (seconds = wall)."""
    out_dir = wl.clear_outputs(op)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    rc = None
    call = lambda: cli_main(list(op.argv))  # noqa: E731
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = call() if tracer is None else tracer.run_op(op_id, call)
        except Exception as exc:  # an escaped exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return wl.Result(rc, stdout.getvalue(), stderr.getvalue(), error, out_dir,
                     seconds)


def digest(result) -> str:
    """Hash of what an operation delivered, without its timings."""
    h = hashlib.sha256(repr((result.rc, result.error)).encode())
    if result.stdout:
        payload = json.loads(result.stdout)
        payload["report"].pop("wall_time", None)
        h.update(json.dumps(payload, sort_keys=True).encode())
    if result.out_dir is not None and result.out_dir.exists():
        for path in sorted(result.out_dir.rglob("*")):
            if path.is_dir() or path.name == "report.json":
                continue
            h.update(path.name.encode())
            data = path.read_bytes()
            if path.name == "sweep.csv":  # drop the per-point seconds
                lines = [line.split(",") for line in data.decode().splitlines()]
                col = lines[0].index("seconds")
                data = "\n".join(",".join(c for j, c in enumerate(line)
                                          if j != col)
                                 for line in lines).encode()
            h.update(data)
    return h.hexdigest()


def run_record(args, workload, ops_summary, setup, extra) -> dict:
    blas = {k: os.environ.get(k, "unset") for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas,
        "git_commit": commit, "src_sha256": source.hexdigest(),
        "setup_import_s": setup, "ops": ops_summary, **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="circembed benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "circembed" / "cli.py").is_file():
        print(f"error: no circembed sources under {SRC}", file=sys.stderr)
        return 2

    setup = setup_seconds()
    sys.path.insert(0, str(SRC))
    import circembed.cli

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        if args.workload == "validate":
            subprocess.run([sys.executable, str(HERE / "inputs.py"),
                            "--seed", str(args.seed),
                            "--dir", str(work / "inputs")],
                           cwd=ROOT, env=child_env(), check=True,
                           timeout=CHILD_TIMEOUT_S)
        workload = wl.WORKLOADS[args.workload](args.seed, work)
        return run(args, workload, setup, circembed.cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_once(op, cli_main, tracer, op_id):
    """execute() with the tracer's wrappers installed when tracer is set."""
    if tracer is None:
        return execute(op, cli_main)
    tracer.install()
    try:
        return execute(op, cli_main, tracer, op_id)
    finally:
        tracer.uninstall()


def run(args, workload, setup, cli_main) -> int:
    ops = workload.ops
    execute(next(op for op in ops if op.name == workload.warmup), cli_main)

    tracer = tracing.Tracer() if args.trace else None
    times = {op.name: {False: [], True: []} for op in ops}
    spans = {op.name: [] for op in ops}      # one span list per traced run
    problems = {op.name: [] for op in ops}
    first_digest = {}
    attempted = failed = passes = 0
    deadline = time.perf_counter() + args.seconds
    while passes == 0 or time.perf_counter() < deadline:
        for op in ops:
            if passes and time.perf_counter() >= deadline:
                break
            for rep in range(op.repeat):
                modes = [False]
                if args.trace:  # untraced and traced, alternating the order
                    modes = [False, True] if (passes + rep) % 2 == 0 \
                        else [True, False]
                for traced in modes:
                    attempted += 1
                    result = run_once(op, cli_main, tracer if traced else None,
                                      attempted)
                    found = op.check(result)
                    if args.trace:
                        d = digest(result)
                        if first_digest.setdefault(op.name, d) != d:
                            found.append("output hash differs from the "
                                         "first untraced run")
                    if traced:
                        spans[op.name].append(tracer.spans)
                        tracer.spans = []
                    if found:
                        failed += 1
                        problems[op.name].extend(found)
                        print(f"{op.name}: {found}", file=sys.stderr)
                    times[op.name][traced].append(result.seconds)
        passes += 1

    probes = []
    for probe in workload.probes:
        result = run_once(probe, cli_main, tracer, 0)
        if tracer:
            tracer.spans = []
        probes.append((probe, result, probe.check(result)))

    median = {name: {mode: statistics.median(v) if v else None
                     for mode, v in t.items()} for name, t in times.items()}
    wall = sum(median[op.name][False] for op in ops)
    ops_summary = [{
        "name": op.name, "argv": list(op.argv), "group": op.group,
        "runs": len(times[op.name][False]) + len(times[op.name][True]),
        "median_s": median[op.name][False],
        "traced_median_s": median[op.name][True],
        "failed_checks": len(problems[op.name]),
        "problems": problems[op.name][:3],
        "delivers_user_result": op.delivers and not problems[op.name],
    } for op in ops]
    ops_summary += [{
        "name": probe.name, "argv": list(probe.argv), "group": probe.group,
        "runs": 1, "probe": True, "median_s": result.seconds,
        "rc": result.rc, "error": result.error, "problems": found[:3],
        "delivers_user_result": not found,
    } for probe, result, found in probes]
    extra = {"passes": passes, "attempted": attempted, "failed": failed,
             "per_command": per_command(ops, median, ops_summary)}

    if args.trace:
        metrics, extra["counts_repeat"] = layer_metrics(
            ops, spans, median, wall,
            sum(r.seconds for p, r, _ in probes if p.group == "validate_large"))
        extra["unwrapped"] = tracer.missing
        extra["counts_computed"] = {k: metrics[k] for k in COUNTS_COMPUTED}
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    print(json.dumps({"record": run_record(args, workload, ops_summary, setup,
                                           extra)}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


COUNTS_COMPUTED = (
    "embedding.search_attempts", "embedding.spectrum_points",
    "embedding.spectrum_max_points", "embedding.spectrum_bytes_computed",
    "sampler.transform_points", "sampler.kept_points", "sampler.kept_ratio",
    "sampler.transform_bytes_computed")


def per_command(ops, median, ops_summary) -> dict:
    """The per-command metrics that exist on one workload only."""
    groups = {}
    for op in ops:
        groups[op.group] = groups.get(op.group, 0.0) + median[op.name][False]
    out = {name: {"value": groups[group], "unit": "s"}
           for group, name in (("min_ell", "min_ell_s"), ("sweep", "sweep_s"),
                               ("sample", "sample_s"),
                               ("validate", "validate_s"))
           if group in groups}
    if "sample" in groups:
        values = sum(op.values for op in ops)
        out["sample_values_per_s"] = {"value": values / groups["sample"],
                                      "unit": "1/s", "base_values": values}
    failing = [o["name"] for o in ops_summary
               if not o["delivers_user_result"]]
    out["ops_failed_ratio"] = {"value": len(failing) / len(ops_summary),
                               "unit": "ratio", "failed": len(failing),
                               "of": len(ops_summary), "ops": failing}
    return out


def layer_metrics(ops, spans, median, wall, large_s):
    """Per-layer metrics from the traced runs, and whether every count
    repeated exactly across the runs of each op."""
    per_op, repeat = [], True
    for op in ops:
        runs = [tracing.op_layer_values(tracing.span_totals(s))
                for s in spans[op.name]]
        values = {}
        for key in runs[0]:
            seen = [r[key] for r in runs]
            if tracing.LAYER_METRICS[key] == "s":
                values[key] = statistics.median(seen)
            else:
                values[key] = seen[0]
                repeat = repeat and all(v == seen[0] for v in seen)
        per_op.append(values)
    overhead = sum(median[op.name][True] for op in ops) - wall
    return tracing.layer_metrics(per_op, large_s, overhead), repeat


if __name__ == "__main__":
    sys.exit(main())
