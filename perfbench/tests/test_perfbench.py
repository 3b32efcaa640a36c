"""Tests of the benchmark itself: its checks catch wrong outputs, and its
tracing returns exactly what it wraps.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import circembed.cli  # noqa: E402
import circembed.embedding  # noqa: E402
from circembed.embedding import GridSpec, minimal_embedding  # noqa: E402
from circembed.formats import read_field_binary  # noqa: E402
from circembed.kernels import MaternKernel  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def result(rc=0, report=None, stderr="", error=None, out_dir=None):
    stdout = json.dumps({"report": report}) if report is not None else ""
    return wl.Result(rc, stdout, stderr, error, out_dir)


def op(argv, check=lambda r: [], name="op"):
    return wl.Op(name, tuple(str(a) for a in argv), check, "test")


# ------------------------------------------------------------------ checks

def test_wrong_m_is_a_failed_op():
    check = wl.check_min_ell(280, 0.0)
    assert check(result(report={"m": 280, "min_eig": 0.0})) == []
    assert check(result(report={"m": 279, "min_eig": 0.0}))
    assert check(result(report={"m": 280, "min_eig": -1e-12}))
    assert check(result(rc=3, stderr="numerical failure"))


def test_wrong_sweep_m_is_a_failed_op(tmp_path):
    (tmp_path / "sweep.csv").write_text(
        "d,nu,lambda,m0,ell_min,m,s,seconds,error\n"
        "2,0.5,0.25,16,1.0,16,1024,0.1,\n"
        "2,0.5,0.25,32,1.0,33,4356,0.1,\n")
    assert wl.check_sweep([16, 33])(result(report={}, out_dir=tmp_path)) == []
    assert wl.check_sweep([16, 32])(result(report={}, out_dir=tmp_path))


@pytest.mark.parametrize("expect_pass", [True, False])
def test_flipped_verdict_is_a_failed_op(expect_pass):
    check = wl.check_validate(expect_pass)
    right = result(rc=0 if expect_pass else 3,
                   report={"passed": expect_pass})
    flipped = result(rc=3 if expect_pass else 0,
                     report={"passed": not expect_pass})
    assert check(right) == []
    assert check(flipped)


def test_uncaught_exception_and_traceback_are_failed_ops():
    not_pd = "numerical failure: not positive definite within m_max=512"
    assert wl.check_not_pd(result(rc=3, stderr=not_pd)) == []
    assert wl.check_not_pd(result(rc=3, stderr=not_pd + "\nTraceback"))
    assert wl.check_not_pd(result(rc=None, error="MemoryError: cap"))
    assert wl.check_validate(True)(result(rc=None, error="MemoryError: cap"))


def _tiny_case(**kw) -> wl.SampleCase:
    d, m0, nu, lam = 2, 8, 1.5, 0.3
    kernel = MaternKernel(sigma2=1.0, lam=lam, nu=nu, d=d)
    emb, _ = minimal_embedding(kernel, GridSpec(d, m0))
    return wl.SampleCase(d, m0, nu, lam, n=5, m=emb.m, **kw)


@pytest.mark.parametrize("kw", [{}, {"lognormal": True},
                                {"fmt": "csv", "mean": 1.0}])
def test_perturbed_sample_row_is_a_failed_op(tmp_path, kw):
    case, seed = _tiny_case(**kw), 11
    check = wl.check_sample(case, seed, wl.Reference())
    sample_op = op(wl.sample_argv(case, seed, tmp_path / "out"), check)
    res = run.execute(sample_op, circembed.cli.main)
    assert check(res) == []

    row = wl.spot_rows(case.n, seed)[1]
    if case.fmt == "bin":
        path = res.out_dir / "fields.bin"
        values, header = read_field_binary(path)
        values[row, 3] *= 1.0 + 1e-6
        with open(path, "r+b") as fh:
            fh.seek(inputs.HEADER.size)
            fh.write(values.astype("<f8").tobytes())
    else:
        path = res.out_dir / f"sample_{row:06d}.csv"
        lines = path.read_text().splitlines()
        k1, k2, value = lines[4].split(",")
        lines[4] = f"{k1},{k2},{float(value) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n")
    assert any(f"sample {row}" in p for p in check(res))


def test_sample_check_rejects_a_wrong_extension(tmp_path):
    case = _tiny_case()
    check = wl.check_sample(case, 3, wl.Reference())
    res = run.execute(op(wl.sample_argv(case, 3, tmp_path), check),
                      circembed.cli.main)
    wrong = wl.SampleCase(case.d, case.m0, case.nu, case.lam, case.n,
                          m=case.m + 1)
    assert wl.check_sample(wrong, 3, wl.Reference())(res)


def test_an_escaped_exception_is_recorded_not_raised(tmp_path):
    bad = tmp_path / "big.bin"
    inputs.write_grffld(bad, np.zeros((1000, 65 * 65)), 2, 64)
    res = run.execute(op(["validate", "--samples", bad, "--d", "2", "--nu",
                          "0.5", "--lambda", "0.1"]), circembed.cli.main)
    assert res.rc is None and res.error.startswith("MemoryError")


# ----------------------------------------------------------------- tracing

def test_wrapper_returns_exactly_what_it_wraps():
    tracer = tracing.Tracer()
    marker = object()

    def fn(x, y=1):
        if not x:
            raise KeyError(y)
        return marker

    wrapped = tracer.wrap("t", fn)
    assert tracer.run_op(1, lambda: wrapped(1)) is marker
    with pytest.raises(KeyError):
        tracer.run_op(2, lambda: wrapped(0, y=2))
    assert [(s.name, s.op) for s in tracer.spans] == [
        ("t", 1), (tracing.ROOT, 1), ("t", 2), (tracing.ROOT, 2)]
    assert tracer.spans[2].counts == {"raised": "KeyError"}


def test_install_wraps_every_target_and_uninstall_restores():
    originals = {(m, a): tracing._resolve(m).__dict__[a]
                 for m, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for (m, a), fn in originals.items():
            assert tracing._resolve(m).__dict__[a] is not fn
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert tracing._resolve(m).__dict__[a] is fn


def test_a_missing_name_reads_zero_and_does_not_raise(monkeypatch):
    monkeypatch.delattr(circembed.embedding, "spectrum")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["circembed.embedding.spectrum"]
    metrics = tracing.layer_metrics([tracing.op_layer_values({})], 0.0, 0.0)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["embedding.search_attempts"] == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    S = tracing.Span
    spans = [S(1, "root", None, 1, 0.0, 10.0),
             S(2, "a", 1, 1, 1.0, 4.0), S(3, "a", 1, 1, 3.0, 6.0),
             S(4, "b", 2, 1, 1.5, 2.0)]
    totals = tracing.span_totals(spans)
    assert totals["root"]["self_s"] == pytest.approx(5.0)
    assert totals["a"]["s"] == pytest.approx(6.0)
    assert totals["a"]["self_s"] == pytest.approx(5.5)


def test_traced_outputs_hash_equal_to_untraced(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"d": [2], "nu": [0.5, 1.5], "lam": [0.25],
                                  "m0": [8, 16], "tol": 0}))
    case = _tiny_case()
    ops = [op(["min-ell", "--d", 2, "--m0", 8, "--nu", 1.5, "--lambda", 0.5,
               "--tol", 0]),
           op(["sweep", "--config", config, "--out", tmp_path / "sweep",
               "--threads", 2]),
           op(["eig-decay", "--d", 2, "--m0", 8, "--nu", 4, "--lambda", 0.25,
               "--out", tmp_path / "decay"]),
           op(wl.sample_argv(case, 5, tmp_path / "sample"))]
    for i, each in enumerate(ops):
        plain = run.digest(run.execute(each, circembed.cli.main))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.execute(each, circembed.cli.main, tracer, i + 1)
        finally:
            tracer.uninstall()
        assert traced.rc == 0
        assert run.digest(traced) == plain
        assert any(s.name == "embedding.search" for s in tracer.spans)


def test_sweep_threads_attach_to_the_operation(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"d": [2], "nu": [0.5], "lam": [0.25],
                                  "m0": [8, 16], "tol": 0}))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.execute(op(["sweep", "--config", config, "--out", tmp_path / "o",
                        "--threads", 2]), circembed.cli.main, tracer, 1)
    finally:
        tracer.uninstall()
    root = [s for s in tracer.spans if s.name == tracing.ROOT][0]
    searches = [s for s in tracer.spans if s.name == "embedding.search"]
    assert len(searches) == 2 and all(s.parent == root.id for s in searches)


# ------------------------------------------------------------------ inputs

def test_validate_inputs_are_seeded_centred_grffld(tmp_path):
    kernel = MaternKernel(sigma2=1.0, lam=0.2, nu=1.5, d=2)
    x = inputs.field_draws(kernel, 2, 4, 50, 7)
    assert np.array_equal(x, inputs.field_draws(kernel, 2, 4, 50, 7))
    assert np.abs(x.mean(axis=0)).max() < 1e-14
    path = tmp_path / "f.bin"
    inputs.write_grffld(path, x, 2, 4)
    values, header = read_field_binary(path)
    assert header == {"d": 2, "m0": 4, "n_samples": 50}
    assert np.array_equal(values, x)
    r = inputs.grid_covariance(kernel, 2, 4)
    pts = inputs.grid_indices(2, 4) / 4
    assert r[3, 17] == kernel.rho(pts[3] - pts[17])


# --------------------------------------------------------------------- run

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
