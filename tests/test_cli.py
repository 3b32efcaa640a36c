import csv
import errno
import importlib
import itertools
import json
import math
import os
import re
import sys
import time
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from circembed import (GridSpec, MaternKernel, continuous_eigenvalue,
                       minimal_embedding)
from circembed.analysis import decay_sequence
from circembed import Embedding, cli, embedding, formats, sampler
from circembed.cli import main
from circembed.formats import (field_binary_writer, read_field_binary,
                               write_field_csv)
from circembed.sampler import worker_count
from conftest import traced_peak


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def usage_error(capsys, *argv) -> str:
    """The message of a command that exits 2 on its input, printing no
    report and no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("argv", [
    ["sweep"],
    ["sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5", "--m0", "4"],
    ["eig-decay", "--d", "1", "--nu", "1.5", "--lambda", "0.5", "--m0", "8"],
], ids=["sweep", "sample", "eig-decay"])
def test_writing_commands_require_out(argv, capsys):
    assert f"{argv[0]} requires --out" in usage_error(capsys, *argv)


class TestSearchDefaults:
    """The searching commands pass tol, m_max and schedule on only when a
    flag or config key sets them, so without them each reports the search
    `minimal_embedding(kernel, grid)` makes with its own defaults."""

    @pytest.mark.parametrize("nu,lam,m0", [("inf", 0.25, 32),
                                           ("1.5", 0.25, 16)],
                             ids=["gaussian", "matern"])
    def test_min_ell_and_sample_make_the_librarys_search(self, nu, lam, m0,
                                                         tmp_path, capsys):
        emb, spec = minimal_embedding(MaternKernel(1.0, lam, float(nu), 2),
                                      GridSpec(d=2, m0=m0))
        want = {"m": emb.m, "min_eig": spec.min_value,
                "tol": spec.tolerance}
        assert want["tol"] == (1e-13 if nu == "inf" else 0.0)
        shape = ["--d", "2", "--nu", nu, "--lambda", str(lam),
                 "--m0", str(m0)]
        code, payload = run(capsys, "min-ell", *shape)
        assert code == 0
        assert {key: payload["report"][key] for key in want} == want
        code, _ = run(capsys, "sample", *shape, "--n", "1",
                      "--out", str(tmp_path))
        assert code == 0
        sidecar = json.loads((tmp_path / "fields.bin.json").read_text())
        assert {key: sidecar[key] for key in want} == want

    def test_eig_decay_makes_the_librarys_search(self, tmp_path, capsys):
        # its report gives m, and decay.csv the spectrum the search returned
        emb, spec = minimal_embedding(MaternKernel(1.0, 0.25, 1.5, 2),
                                      GridSpec(d=2, m0=16))
        code, payload = run(capsys, "eig-decay", "--d", "2", "--nu", "1.5",
                            "--lambda", "0.25", "--m0", "16",
                            "--out", str(tmp_path))
        assert code == 0 and payload["report"]["m"] == emb.m
        with open(tmp_path / "decay.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(v) for _, v in rows] == decay_sequence(spec).tolist()

    def test_continuous_eigs_quad_n_is_the_librarys(self, capsys):
        kernel = MaternKernel(1.0, 1.0, 1.5, 1)
        argv = ["theory", "continuous-eigs", "--d", "1", "--nu", "1.5",
                "--lambda", "1.0", "--ell", "2", "--k", "1"]
        code, payload = run(capsys, *argv)
        assert code == 0
        assert payload["report"]["lambda_ext"]["1"] == \
            continuous_eigenvalue(kernel, 2.0, [1])
        # an explicit 0 is a value, which the library rejects
        err = usage_error(capsys, *argv, "--quad-n", "0")
        assert "quad_n must be >= 2" in err


class TestMinEll:
    def test_exponential_immediate(self, capsys):
        code, payload = run(capsys, "min-ell", "--d", "1", "--nu", "0.5",
                            "--lambda", "1", "--m0", "8", "--tol", "0")
        assert code == 0
        assert payload["report"]["m"] == 8
        assert payload["report"]["ell"] == 1.0
        assert payload["report"]["min_eig"] > 0
        assert "wall_time" in payload["report"]

    def test_infinite_lambda_is_a_usage_error(self, capsys):
        # lam = inf makes the covariance constant: no extension of it is
        # positive definite
        err = usage_error(capsys, "min-ell", "--d", "2", "--nu", "1.5",
                          "--lambda", "inf", "--m0", "8")
        assert "lam must be positive and finite, got lam=inf" in err

    def test_exhaustion_exit_code(self, capsys):
        code = main(["min-ell", "--d", "1", "--nu", "inf", "--lambda", "1",
                     "--m0", "8", "--tol", "0", "--m-max", "16"])
        err = capsys.readouterr().err
        assert code == 3
        # a certified rejection: the plain error, not the undecidable one
        assert "not positive definite within m_max=16" in err
        assert "cannot decide" not in err

    def test_undecidable_exit_code(self, capsys):
        code = main(["min-ell", "--d", "2", "--nu", "inf", "--lambda", "0.5",
                     "--m0", "32", "--tol", "1e-13", "--schedule", "doubling",
                     "--m-max", "512"])
        err = capsys.readouterr().err
        assert code == 3
        assert "not positive definite within m_max=512" in err
        assert "rounding bound" in err and "cannot decide" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--nu", "1.5", "--m-step", "1000000000000"],
         "not positive definite within m_max=800 (last m tried 8, its min "
         "eigenvalue"),
        (["--nu", "inf", "--m0", "32", "--tol", "1e-13", "--schedule",
          "doubling", "--m-max", "512"],
         "not positive definite within m_max=512 in float64: at the last m "
         "tried, 512, the min eigenvalue"),
    ], ids=["step-past-m-max", "undecidable"])
    def test_run_out_message_names_the_last_m_tried(self, argv, message,
                                                     capsys):
        # the first search tries m=8 only: its next step passes m_max
        code = main(["min-ell", "--d", "2", "--lambda", "0.5", "--m0", "8",
                     *argv])
        err = capsys.readouterr().err
        assert code == 3 and message in err and "Traceback" not in err

    def test_report_rounding_keys(self, capsys):
        code, payload = run(capsys, "min-ell", "--d", "1", "--nu", "0.5",
                            "--lambda", "1", "--m0", "8", "--tol", "0")
        assert code == 0
        report = payload["report"]
        assert report["certified"] is True
        assert 0 < report["rounding_bound"] < report["min_eig"]

    def test_far_apart_points_are_white_noise(self, capsys):
        # h0 / lam = 1.25e10: kappa vanishes at every nonzero lag, so the
        # circulant is the identity and every eigenvalue is 1
        code, payload = run(capsys, "min-ell", "--d", "1", "--nu", "0.5",
                            "--lambda", "1e-11", "--m0", "8", "--tol", "0")
        assert code == 0
        report = payload["report"]
        assert report["m"] == 8
        assert report["certified"] is True
        assert report["min_eig"] == 1.0

    def test_radii_past_the_float64_range_are_white_noise(self, capsys):
        # h0 / lam overflows to inf, where kappa is 0: no NaN, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run(capsys, "min-ell", "--d", "1", "--nu", "1.5",
                                "--lambda", "1e-320", "--m0", "8", "--tol",
                                "0")
        assert code == 0
        report = payload["report"]
        assert report["m"] == 8
        assert report["certified"] is True
        assert report["min_eig"] == 1.0

    def test_scaled_radii_past_the_float64_range_are_white_noise(
            self, capsys):
        # h0 / lam is finite but sqrt(2 nu) h0 / lam overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, payload = run(capsys, "min-ell", "--d", "1", "--nu", "16",
                                "--lambda", "1e-308", "--m0", "8", "--tol",
                                "0")
        assert code == 0
        report = payload["report"]
        assert report["m"] == 8
        assert report["min_eig"] == 1.0
        assert report["certified"] is True
        assert report["attempts"] == {"dct": 1}

    def test_report_counts_attempts_by_decider(self, capsys):
        code, payload = run(capsys, "min-ell", "--d", "2", "--nu", "1.5",
                            "--lambda", "0.25", "--m0", "64", "--tol", "0")
        assert code == 0
        report = payload["report"]
        counts = report["attempts"]
        assert set(counts) <= {"witness", "dct"}
        assert sum(counts.values()) == report["m"] - 64 + 1
        assert counts["witness"] > counts.get("dct", 0)

    def test_flag_error_exit_code(self, capsys):
        code, _ = run(capsys, "min-ell", "--d", "1", "--nu", "0.5")
        assert code == 2

    def test_writes_manifest_and_spectrum(self, tmp_path, capsys):
        code, _ = run(capsys, "min-ell", "--d", "1", "--nu", "0.5",
                      "--lambda", "1", "--m0", "4", "--tol", "0",
                      "--out", str(tmp_path / "r"), "--export-spectrum")
        assert code == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["command"] == "min-ell"
        assert manifest["parameters"]["m0"] == 4
        assert manifest["sampler_workers"] == worker_count() >= 1
        assert manifest["fft_backend"] == "scipy.fft"
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__
        assert (tmp_path / "r" / "spectrum.csv").exists()
        assert (tmp_path / "r" / "spectrum.csv.json").exists()
        assert (tmp_path / "r" / "report.json").exists()

    def test_export_spectrum_requires_out(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["min-ell", "--d", "1", "--nu", "0.5", "--lambda", "1",
                     "--m0", "4", "--tol", "0", "--export-spectrum"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "min-ell --export-spectrum requires --out" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_failed_spectrum_export_leaves_no_file(self, tmp_path,
                                                   monkeypatch, capsys):
        # the table's rows run out of disk part way through
        grid_rows = formats._grid_rows

        def full_disk(*args, **kwargs):
            yield from itertools.islice(grid_rows(*args, **kwargs), 100)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(formats, "_grid_rows", full_disk)
        out = tmp_path / "r"
        code = main(["min-ell", "--d", "2", "--nu", "1.5", "--lambda", "0.5",
                     "--m0", "8", "--tol", "0", "--out", str(out),
                     "--export-spectrum"])
        assert code == 4
        assert "No space left on device" in capsys.readouterr().err
        assert not (out / "spectrum.csv").exists()
        assert not (out / "spectrum.csv.part").exists()

    def test_gaussian_reference_value_coarse_schedule(self, capsys):
        # reference minimal extension for the Gaussian kernel at lam*m0=8,
        # searched in steps of one correlation length (see repo notes on
        # tolerance and schedule)
        code, payload = run(capsys, "min-ell", "--d", "2", "--nu", "inf",
                            "--lambda", "1", "--m0", "8", "--tol", "2e-12",
                            "--m-step", "8")
        assert code == 0
        assert payload["report"]["ell"] == 8.0

    @pytest.mark.parametrize("flags,message", [
        (["--sigma2", "0"], "sigma2 must be positive"),
        (["--m-max", "0"], "m_max must be >= the start m"),
        (["--m-step", "0"], "m_step must be >= 1"),
    ])
    def test_explicit_zero_is_not_a_default(self, flags, message, capsys):
        code = main(["min-ell", "--d", "1", "--nu", "0.5", "--lambda", "1",
                     "--m0", "8", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_nan_tol_is_usage_error(self, capsys):
        code = main(["min-ell", "--d", "1", "--m0", "8", "--nu", "1.5",
                     "--lambda", "0.5", "--tol", "nan"])
        err = capsys.readouterr().err
        assert code == 2
        assert "tol must be >= 0" in err and "Traceback" not in err

    def test_infinite_tol_is_usage_error(self, capsys):
        # an infinite tol would accept any spectrum, negative or not
        code = main(["min-ell", "--d", "1", "--m0", "8", "--nu", "inf",
                     "--lambda", "1", "--tol", "inf"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "tol must be >= 0 and finite" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flags,message", [
        # the column sum overflows at m0 already, and a larger m only adds
        # terms: the search stops there instead of running on to m_max
        (["--d", "2", "--nu", "1.5", "--sigma2", "1e308"],
         "spectrum at m=8 is not finite"),
        (["--d", "2", "--nu", "1.5", "--sigma2", "inf"],
         "sigma2 must be positive and finite"),
        # kappa would have no correct digit (eval_rel_error >= 1)
        (["--d", "1", "--nu", "1e16"], "use nu=inf"),
        (["--d", "1", "--nu", "1e200"], "use nu=inf"),
    ])
    def test_no_float64_spectrum_is_usage_error(self, flags, message, capsys):
        start = time.perf_counter()
        code = main(["min-ell", "--lambda", "0.5", "--m0", "8", *flags])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err
        assert elapsed < 1.0

    def test_out_from_config(self, tmp_path, capsys):
        # an `out` key in the config writes the same files as --out
        base = {"d": 1, "nu": 0.5, "lam": 1.0, "m0": 4, "tol": 0.0,
                "export_spectrum": True}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(base, out=str(tmp_path / "c"))))
        code, _ = run(capsys, "min-ell", "--config", str(cfg))
        assert code == 0
        cfg.write_text(json.dumps(base))
        code, _ = run(capsys, "min-ell", "--config", str(cfg),
                      "--out", str(tmp_path / "f"))
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "f").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "c").iterdir())
        assert {"report.json", "manifest.json", "spectrum.csv"} <= set(names)
        for name in ("spectrum.csv", "spectrum.csv.json"):
            assert ((tmp_path / "c" / name).read_bytes()
                    == (tmp_path / "f" / name).read_bytes())

    def test_list_valued_config_key_is_usage_error(self, tmp_path, capsys):
        # a sweep config on a command that reads single values
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"d": 2, "nu": [0.5, 1.5], "lam": 0.25,
                                   "m0": [16], "tol": 0}))
        code = main(["min-ell", "--config", str(cfg), "--m0", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert "config key 'nu' must be a single value" in err
        assert "Traceback" not in err
        # a flag replaces the list, so the merged value is a single one
        code, payload = run(capsys, "min-ell", "--config", str(cfg),
                            "--m0", "8", "--nu", "0.5")
        assert code == 0 and payload["report"]["m"] == 8

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1, "nu": 0.5, "lam": 1.0, "m0": 4,
                                   "tol": 0.0}))
        code, payload = run(capsys, "min-ell", "--config", str(cfg),
                            "--m0", "8")
        assert code == 0
        assert payload["parameters"]["m0"] == 8  # flag overrides config
        assert payload["report"]["m"] == 8


def test_benchmark_searches_take_no_fft(tmp_path, monkeypatch, capsys):
    # every min-ell, sweep and eig-decay run of the benchmark's search
    # workload, checked as the benchmark checks it, with numpy's FFT and
    # `embedding.spectrum` made to raise
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")

    def no_fft(*args, **kwargs):
        raise AssertionError("the search took an FFT")

    monkeypatch.setattr(np.fft, "fftn", no_fft)
    monkeypatch.setattr(embedding, "spectrum", no_fft)
    for op in workloads.search(0, tmp_path).ops:
        out_dir = workloads.clear_outputs(op)
        rc = main(list(op.argv))
        captured = capsys.readouterr()
        result = workloads.Result(rc, captured.out, captured.err, None,
                                  out_dir)
        assert op.check(result) == [], op.name


def test_benchmark_validate_ops_pass_their_checks(tmp_path, monkeypatch,
                                                  capsys):
    # every timed op of the benchmark's validate workload (pass, pass,
    # reject), on inputs written by its own input module and checked as the
    # benchmark checks them; the over-cap input, which validate refuses, is
    # not written
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    inputs = importlib.import_module("inputs")
    seed = 0
    (tmp_path / "inputs").mkdir()
    for index, (name, (d, m0, nu, lam, n, scale)) in enumerate(
            inputs.VALIDATE_INPUTS.items()):
        if name == "d2_m64":
            continue
        kernel = MaternKernel(sigma2=1.0, lam=lam, nu=nu, d=d,
                              allow_small_nu=True)
        draws = inputs.field_draws(kernel, d, m0, n,
                                   np.random.SeedSequence([seed, index]))
        inputs.write_grffld(tmp_path / "inputs" / f"{name}.bin",
                            scale * draws, d, m0)
    ops = workloads.validate(seed, tmp_path).ops
    assert [op.name for op in ops] == [
        "validate_d3_m15", "validate_d2_m32", "validate_d2_m32_scaled"]
    for op in ops:
        rc = main(list(op.argv))
        captured = capsys.readouterr()
        result = workloads.Result(rc, captured.out, captured.err, None, None)
        assert op.check(result) == [], op.name


class TestSweep:
    def test_csv_schema_and_content(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d": [1], "nu": [0.5, 1.0], "lam": [0.5, 1.0], "m0": [4, 8],
            "tol": 0.0}))
        out = tmp_path / "sweep"
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(out))
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert list(rows[0]) == ["d", "nu", "lambda", "m0", "ell_min", "m",
                                 "s", "seconds", "error"]
        assert all(r["error"] == "" for r in rows)
        with open(out / "sweep_derived.csv", newline="") as fh:
            drows = list(csv.DictReader(fh))
        assert list(drows[0]) == ["d", "nu", "lambda", "m0", "log2_m0",
                                  "log_nu", "log_ell"]
        assert float(drows[0]["log2_m0"]) == 2.0

    def test_per_point_failure_recorded(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d": [1], "nu": [0.5, "inf"], "lam": [1.0], "m0": [4],
            "tol": 0.0, "m_max": 8}))
        out = tmp_path / "sweep"
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(out))
        assert code == 0  # sweep continues past failures
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == "" and rows[1]["error"] != ""
        assert payload["report"]["failures"] == 1

    def test_scalar_grid_value_is_one_point(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 1, "nu": 0.5, "lam": 1.0,
                                   "m0": [4, 8], "tol": 0.0}))
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(tmp_path / "sweep"))
        assert code == 0 and payload["report"]["points"] == 2
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["d"], r["nu"], r["lambda"], r["m0"]) for r in rows] == [
            ("1", "0.5", "1.0", "4"), ("1", "0.5", "1.0", "8")]

    @pytest.mark.parametrize("config,key", [
        ({"d": [1], "nu": [0.5], "m0": [4]}, "lam"),
        ({"d": [1], "nu": [], "lam": [1.0], "m0": [4]}, "nu"),
    ], ids=["missing", "empty"])
    def test_missing_grid_key_is_usage_error(self, config, key, tmp_path,
                                             capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = usage_error(capsys, "sweep", "--config", str(cfg),
                          "--out", str(tmp_path / "sweep"))
        assert f"sweep config must list values for '{key}'" in err
        assert not (tmp_path / "sweep").exists()

    def test_thread_count_does_not_change_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d": [1], "nu": [0.5, 1.5], "lam": [0.5, 1.0], "m0": [4, 8],
            "tol": 0.0}))
        texts = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            code, _ = run(capsys, "sweep", "--config", str(cfg),
                          "--out", str(out), "--threads", str(threads))
            assert code == 0
            with open(out / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            texts.append([(r["d"], r["nu"], r["lambda"], r["m0"], r["ell_min"])
                          for r in rows])
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("config,flags,threads", [
        ({}, [], 1), ({"threads": 3}, [], 3), ({"threads": 3}, ["2"], 2),
    ])
    def test_threads_from_config_or_flag(self, config, flags, threads,
                                         tmp_path, capsys, monkeypatch):
        import circembed.cli as cli
        pools = []

        class Recording(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        # more points and CPUs than threads, so neither caps the pool
        monkeypatch.setattr(cli, "worker_count", lambda: 8)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(config, d=[1], nu=[0.5], lam=[1.0],
                                       m0=[4, 8, 16])))
        out = tmp_path / "sweep"
        argv = ["--threads", *flags] if flags else []
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(out), *argv)
        assert code == 0
        assert pools == [threads]
        assert payload["parameters"]["threads"] == threads
        report = json.loads((out / "report.json").read_text())
        assert report["parameters"]["threads"] == threads

    @pytest.mark.parametrize("threads,cpus,pool", [
        (10**6, 64, 3), (10**6, 2, 2), (2, 64, 2), (1, 64, 1)])
    def test_pool_takes_no_more_threads_than_points_or_cpus(
            self, threads, cpus, pool, tmp_path, capsys, monkeypatch):
        import circembed.cli as cli
        pools = []

        class Serial:
            # records the pool size and starts no thread
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Serial)
        monkeypatch.setattr(cli, "worker_count", lambda: cpus)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [1], "nu": [0.5], "lam": [1.0],
                                   "m0": [4, 8, 16], "tol": 0}))
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(tmp_path / "sweep"),
                            "--threads", str(threads))
        assert code == 0 and payload["report"]["points"] == 3
        assert pools == [pool]
        assert payload["parameters"]["threads"] == threads

    @pytest.mark.parametrize("command", [
        ["min-ell", "--m0", "8"], ["eig-decay", "--m0", "8"],
        ["sample", "--m0", "8"], ["validate", "--samples", "x.bin"],
        ["theory", "pd-criterion", "--m0", "8", "--ell", "1"],
    ])
    def test_threads_flag_only_on_sweep(self, command, capsys):
        argv = command + ["--d", "1", "--nu", "0.5", "--lambda", "1",
                          "--threads", "2"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_grid_and_sigma2_are_recorded_as_read(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [2], "nu": [0.5, "inf"],
                                   "lam": ["0.25"], "m0": [8],
                                   "sigma2": "2", "tol": 0}))
        out = tmp_path / "sweep"
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(out))
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = [{k: v for k, v in r.items() if k != "seconds"}
                    for r in csv.DictReader(fh)]
        assert rows == [
            {"d": "2", "nu": "0.5", "lambda": "0.25", "m0": "8",
             "ell_min": "1.0", "m": "8", "s": "256", "error": ""},
            {"d": "2", "nu": "inf", "lambda": "0.25", "m0": "8",
             "ell_min": "1.375", "m": "11", "s": "484", "error": ""}]
        report = json.loads((out / "report.json").read_text())
        for params in (payload["parameters"], report["parameters"]):
            assert {k: params[k] for k in ("d", "nu", "lam", "m0", "sigma2")} \
                == {"d": [2], "nu": [0.5, "inf"], "lam": [0.25], "m0": [8],
                    "sigma2": 2.0}

    def test_a_flag_gives_one_value_in_place_of_a_list(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [1], "nu": [0.5, 1.5],
                                   "lam": [0.5, 1.0], "m0": [4], "tol": 0}))
        code, payload = run(capsys, "sweep", "--config", str(cfg),
                            "--out", str(tmp_path / "sweep"),
                            "--nu", "inf", "--lambda", "0.5")
        assert code == 0 and payload["report"]["points"] == 1
        assert (payload["parameters"]["nu"], payload["parameters"]["lam"]) \
            == ("inf", 0.5)

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, threads, tmp_path,
                                              capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [1], "nu": [0.5], "lam": [1.0],
                                   "m0": [4]}))
        err = usage_error(capsys, "sweep", "--config", str(cfg),
                          "--out", str(tmp_path / "sweep"),
                          "--threads", threads)
        assert "sweep: threads must be >= 1" in err


class TestSample:
    def test_binary_deterministic(self, tmp_path, capsys):
        args = ["sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                "--m0", "8", "--n", "3", "--seed", "11", "--tol", "0",
                "--format", "bin"]
        outs = []
        for name in ("a", "b"):
            code, _ = run(capsys, *args, "--out", str(tmp_path / name))
            assert code == 0
            outs.append((tmp_path / name / "fields.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_binary_contents_and_sidecar(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--d", "2", "--nu", "1.5",
                      "--lambda", "0.5", "--m0", "4", "--n", "2",
                      "--seed", "3", "--tol", "0", "--format", "bin",
                      "--out", str(tmp_path))
        assert code == 0
        values, header = read_field_binary(tmp_path / "fields.bin")
        assert header == {"d": 2, "m0": 4, "n_samples": 2}
        assert values.shape == (2, 25)
        sidecar = json.loads((tmp_path / "fields.bin.json").read_text())
        assert sidecar["kernel"]["nu"] == 1.5
        assert sidecar["seed"] == 3

    def test_lognormal_is_exp_of_gaussian(self, tmp_path, capsys):
        base = ["sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                "--m0", "8", "--n", "2", "--seed", "5", "--tol", "0"]
        run(capsys, *base, "--out", str(tmp_path / "g"))
        run(capsys, *base, "--lognormal", "--out", str(tmp_path / "l"))
        g, _ = read_field_binary(tmp_path / "g" / "fields.bin")
        l, _ = read_field_binary(tmp_path / "l" / "fields.bin")
        assert np.array_equal(l, np.exp(g))

    def test_csv_format(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--d", "1", "--nu", "0.5",
                      "--lambda", "0.5", "--m0", "4", "--n", "2",
                      "--seed", "5", "--tol", "0", "--format", "csv",
                      "--out", str(tmp_path))
        assert code == 0
        for i in range(2):
            with open(tmp_path / f"sample_{i:06d}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["k1", "value"]
            assert len(rows) == 6

    def test_each_csv_file_holds_its_own_row_at_several_workers(
            self, tmp_path, capsys):
        # chunks of one sample on more threads than a small host has
        # cores, switched every microsecond: each thread's rows must land
        # in their own files
        argv = [*self.SMALL, "--n", "24", "--seed", "3"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(sampler, "worker_count", return_value=4), \
                    mock.patch.object(sampler, "_chunk_size", return_value=1):
                assert main([*argv, "--format", "csv",
                             "--out", str(tmp_path / "csv")]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert main([*argv, "--out", str(tmp_path / "bin")]) == 0
        capsys.readouterr()
        want, _ = read_field_binary(tmp_path / "bin" / "fields.bin")
        for i, row in enumerate(want):
            with open(tmp_path / "csv" / f"sample_{i:06d}.csv",
                      newline="") as fh:
                got = [float(r[-1]) for r in list(csv.reader(fh))[1:]]
            assert got == row.tolist()

    def test_unknown_format_is_rejected_before_the_search(
            self, tmp_path, capsys, monkeypatch):
        # argparse guards --format, not the config
        import circembed.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a search or batch ran")

        monkeypatch.setattr(cli, "minimal_embedding", never)
        monkeypatch.setattr(cli, "batch_sample_values", never)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        out = tmp_path / "out"
        err = usage_error(capsys, "sample", "--config", str(cfg), "--d", "2",
                          "--nu", "1.5", "--lambda", "0.25", "--m0", "64",
                          "--n", "2000", "--out", str(out))
        assert "unknown format 'xml' (expected csv or bin)" in err
        assert not out.exists()

    def test_sidecars_share_the_spectrum_keys(self, tmp_path, capsys):
        # min-ell's spectrum export and both sample formats describe the
        # same search with the same keys and values, the report's own
        shape = ["--d", "2", "--nu", "1.5", "--lambda", "0.5", "--m0", "4"]
        _, payload = run(capsys, "min-ell", *shape, "--export-spectrum",
                         "--out", str(tmp_path / "a"))
        run(capsys, "sample", *shape, "--format", "bin",
            "--out", str(tmp_path / "b"))
        run(capsys, "sample", *shape, "--format", "csv",
            "--out", str(tmp_path / "c"))
        meta = json.loads((tmp_path / "a" / "spectrum.csv.json").read_text())
        assert set(meta) == {"d", "m0", "m", "ell", "s", "tol", "min_eig",
                             "kernel", "rounding_bound", "certified",
                             "attempts"}
        for key in ("rounding_bound", "certified", "attempts"):
            assert meta[key] == payload["report"][key]
        for path in (tmp_path / "b" / "fields.bin.json",
                     tmp_path / "c" / "fields.json"):
            sidecar = json.loads(path.read_text())
            assert {key: sidecar[key] for key in meta} == meta

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("mean", ["const:712", "const:1e300"])
    def test_a_lognormal_sample_that_overflows_is_usage_error(
            self, fmt, mean, tmp_path, capsys):
        # exp(712 + a unit normal) overflows float64 for most of the values
        err = usage_error(capsys, "sample", "--d", "1", "--m0", "8",
                          "--nu", "0.5", "--lambda", "0.5", "--n", "2",
                          "--lognormal", "--mean", mean, "--format", fmt,
                          "--out", str(tmp_path))
        assert "overflow float64" in err and "--mean" in err
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_mean_file_is_usage_error_and_warns_nothing(
            self, tmp_path, capsys):
        (tmp_path / "mean.txt").write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = usage_error(capsys, "sample", "--d", "2", "--m0", "2",
                              "--nu", "0.5", "--lambda", "0.5",
                              "--mean", f"file:{tmp_path / 'mean.txt'}",
                              "--out", str(tmp_path / "out"))
        assert err == f"error: mean file {tmp_path / 'mean.txt'} holds no " \
            "values\n"

    SMALL = ["sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
             "--m0", "8", "--tol", "0"]

    @staticmethod
    def never(*args, **kwargs):
        raise AssertionError("a normal was drawn")

    @pytest.mark.parametrize("error,code,prefix", [
        (OSError("disk went away"), 4, "i/o error: "),
        (MemoryError("no room"), 2, "error: ")], ids=["oserror", "memory"])
    def test_a_write_that_fails_mid_run_leaves_no_file(
            self, error, code, prefix, tmp_path, capsys, monkeypatch):
        pwrite, offsets = os.pwrite, []

        def failing(fd, data, offset):
            offsets.append(offset)
            if len(offsets) == 3:  # the header, a chunk, then this one
                raise error
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", failing)
        with mock.patch.object(sampler, "_chunk_size", return_value=4):
            got = main([*self.SMALL, "--n", "40", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert got == code and err.startswith(prefix + str(error)), err
        assert "Traceback" not in err and len(offsets) >= 3
        assert list(tmp_path.iterdir()) == []

    def test_a_csv_run_that_fails_leaves_no_sample_file(
            self, tmp_path, capsys, monkeypatch):
        written = []

        def failing(path, values, grid):
            if len(written) >= 5:
                raise OSError("disk went away")
            written.append(path)
            return write_field_csv(path, values, grid)

        monkeypatch.setattr(formats, "write_field_csv", failing)
        with mock.patch.object(sampler, "_chunk_size", return_value=2):
            got = main([*self.SMALL, "--n", "12", "--format", "csv",
                        "--out", str(tmp_path)])
        assert got == 4 and len(written) >= 5
        assert "disk went away" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt,sidecar", [("bin", "fields.bin.json"),
                                             ("csv", "fields.json")])
    def test_a_sidecar_that_cannot_be_written_leaves_no_field_file(
            self, fmt, sidecar, tmp_path, capsys):
        (tmp_path / sidecar).mkdir()
        got = main([*self.SMALL, "--n", "3", "--format", fmt,
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert got == 4 and err.startswith("i/o error: "), err
        assert [p.name for p in tmp_path.iterdir()] == [sidecar]

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("where", ["a_file", "under_a_file"])
    def test_an_unwritable_out_exits_4_before_a_normal_is_drawn(
            self, fmt, where, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        out = blocker if where == "a_file" else blocker / "out"
        monkeypatch.setattr(cli, "batch_sample_values", self.never)
        got = main([*self.SMALL, "--format", fmt, "--out", str(out)])
        err = capsys.readouterr().err
        assert got == 4 and err.startswith("i/o error: "), err
        assert [p.name for p in tmp_path.iterdir()] == ["blocker"]
        assert blocker.read_text() == "x"

    def test_too_little_free_space_exits_4_before_a_normal_is_drawn(
            self, tmp_path, capsys, monkeypatch):
        full = types.SimpleNamespace(f_bavail=1000, f_frsize=4,
                                     f_blocks=10**9, f_files=10**6,
                                     f_favail=10**6)
        monkeypatch.setattr(os, "statvfs", lambda path: full)
        monkeypatch.setattr(cli, "batch_sample_values", self.never)
        got = main([*self.SMALL, "--n", "1000", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        need = 24 + 8 * 1000 * 9
        assert got == 4
        assert f"need {need} bytes at least" in err
        assert "has 4000 bytes and 1000000 files free" in err
        assert list(tmp_path.iterdir()) == []

    def test_csv_count_too_large_for_the_file_system_is_usage_error(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "batch_sample_values", self.never)
        got = main([*self.SMALL, "--format", "csv", "--n", str(10**15),
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert got == 2 and err.startswith("error: "), err
        assert "more than their file system holds" in err
        assert "Traceback" not in err and list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_n(self, tmp_path, capsys):
        # holding all n rows would add 60 of these 130 KiB rows, 7.9 MiB,
        # several chunks
        argv = ["sample", "--d", "2", "--nu", "0.5", "--lambda", "0.1",
                "--m0", "128", "--format", "bin"]
        peaks = {}
        for n in (4, 64):
            with mock.patch.object(sampler, "worker_count", return_value=2), \
                    traced_peak() as peak:
                assert main([*argv, "--n", str(n),
                             "--out", str(tmp_path / str(n))]) == 0
            peaks[n] = peak.bytes
        capsys.readouterr()
        emb = Embedding(GridSpec(d=2, m0=128), m=128)
        chunk = sampler._chunk_size(emb) * sampler._row_bytes(emb)
        assert abs(peaks[64] - peaks[4]) <= chunk, peaks

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_sample_count_below_one_is_usage_error(self, n, tmp_path,
                                                   capsys):
        # rejected before the search and before --out is made
        out = tmp_path / "o1"
        with mock.patch.object(cli, "_search", wraps=cli._search) as search:
            code = main(["sample", "--d", "1", "--nu", "0.5", "--lambda",
                         "0.5", "--m0", "4", "--n", n, "--out", str(out)])
        assert code == 2
        assert "n must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        search.assert_not_called()

    def test_count_too_large_to_allocate_is_usage_error(self, tmp_path,
                                                        capsys):
        code = main(["sample", "--d", "1", "--nu", "1.5", "--lambda", "0.5",
                     "--m0", "8", "--n", str(10**15), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "fields.bin").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # rejected before the search and before --out is made
        out = tmp_path / "o1"
        with mock.patch.object(cli, "_search", wraps=cli._search) as search:
            err = usage_error(capsys, "sample", "--d", "1", "--nu", "0.5",
                              "--lambda", "0.5", "--m0", "4", "--seed", "-1",
                              "--out", str(out))
        assert "seed >= 0 (n=1, seed=-1)" in err
        assert not out.exists()
        search.assert_not_called()

    def test_constant_mean(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--d", "1", "--nu", "0.5",
                      "--lambda", "0.5", "--m0", "4", "--n", "1",
                      "--seed", "5", "--tol", "0", "--mean", "const:10",
                      "--out", str(tmp_path))
        assert code == 0
        values, _ = read_field_binary(tmp_path / "fields.bin")
        assert values.mean() == pytest.approx(10.0, abs=2.0)

    def test_mean_from_file(self, tmp_path, capsys):
        (tmp_path / "mean.txt").write_text("0\n1\n2\n3\n4\n")
        mean = f"file:{tmp_path / 'mean.txt'}"
        base = ["sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                "--m0", "4", "--n", "2", "--seed", "5"]
        run(capsys, *base, "--out", str(tmp_path / "zero"))
        code, _ = run(capsys, *base, "--mean", mean,
                      "--out", str(tmp_path / "file"))
        assert code == 0
        zero, _ = read_field_binary(tmp_path / "zero" / "fields.bin")
        shifted, _ = read_field_binary(tmp_path / "file" / "fields.bin")
        assert np.allclose(shifted - zero, np.arange(5.0), rtol=0,
                           atol=1e-12)
        sidecar = json.loads((tmp_path / "file" / "fields.bin.json")
                             .read_text())
        assert sidecar["mean"] == mean

    def test_malformed_mean_is_usage_error(self, tmp_path, capsys):
        err = usage_error(capsys, "sample", "--d", "1", "--nu", "0.5",
                          "--lambda", "0.5", "--m0", "4", "--mean", "1.0",
                          "--out", str(tmp_path))
        assert "--mean must be const:<value> or file:<path>" in err
        assert not (tmp_path / "fields.bin").exists()

    @pytest.mark.parametrize("mean", ["const:nan", "const:inf", "file"])
    def test_mean_not_finite_is_usage_error(self, mean, tmp_path, capsys):
        if mean == "file":
            (tmp_path / "mean.txt").write_text("0\n1\nnan\n2\n3\n")
            mean = f"file:{tmp_path / 'mean.txt'}"
        code = main(["sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                     "--m0", "4", "--n", "1", "--tol", "0", "--mean", mean,
                     "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "finite" in err and "Traceback" not in err
        assert not (tmp_path / "fields.bin").exists()


@pytest.mark.parametrize("command,mean,code,message", [
    ("sample", "file", 4, "missing.txt not found"),
    ("validate", "file", 4, "missing.txt not found"),
    ("sample", "const:nan", 2, "the mean must be finite"),
    ("validate", "const:nan", 2, "the mean must be finite"),
    # `validate` learns its grid from the samples it reads
    ("sample", "short", 2, "mean has 3 entries, grid has 5 points")],
    ids=["file-4-sample", "file-4-validate", "const:nan-2-sample",
         "const:nan-2-validate", "short-2-sample"])
def test_mean_is_read_before_the_costly_work(
        command, mean, code, message, tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the costly work ran")

    monkeypatch.setattr(cli, "_search", never)
    monkeypatch.setattr(cli, "read_field_binary", never)
    if mean == "file":
        mean = f"file:{tmp_path / 'missing.txt'}"
    elif mean == "short":  # 3 values for the 5 points of --m0 4
        (tmp_path / "short.txt").write_text("1\n2\n3\n")
        mean = f"file:{tmp_path / 'short.txt'}"
    where = ["--samples", str(tmp_path / "fields.bin")] \
        if command == "validate" else ["--m0", "4"]
    got = main([command, "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                *where, "--mean", mean, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert got == code and "Traceback" not in err, err
    assert message in err
    assert [p.name for p in tmp_path.iterdir() if p.name != "short.txt"] \
        == []


@pytest.mark.parametrize("runs", [
    [["min-ell", "--export-spectrum"]],
    [["sample", "--n", "3"]],
    [["sample", "--n", "3", "--format", "csv"]],
    [["sweep"]],
    [["eig-decay"]],
    # a second run in the same directory, with fewer samples
    [["sample", "--n", "5", "--format", "csv"],
     ["sample", "--n", "3", "--seed", "1", "--format", "csv"]]],
    ids=["min-ell", "sample-bin", "sample-csv", "sweep", "eig-decay",
         "sample-csv-reused"])
def test_the_manifest_lists_every_file_the_run_wrote(runs, tmp_path, capsys):
    out = tmp_path / "out"
    for argv in runs:
        run(capsys, *argv, "--d", "1", "--nu", "1.5", "--lambda", "0.5",
            "--m0", "8", "--out", str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")


@pytest.mark.parametrize("argv,keys", [
    (["sample", "--n", "3"], ["files"]),
    (["sample", "--n", "9", "--format", "csv"], ["files"]),
    (["sweep"], ["sweep_csv", "derived_csv"]),
    (["eig-decay"], ["decay_csv"])],
    ids=["sample-bin", "sample-csv", "sweep", "eig-decay"])
def test_the_report_names_its_files_as_the_manifest_does(
        argv, keys, tmp_path, capsys):
    out = tmp_path / "out"
    _, payload = run(capsys, *argv, "--d", "1", "--nu", "1.5", "--lambda",
                     "0.5", "--m0", "8", "--out", str(out))
    named = []
    for key in keys:
        value = payload["report"][key]
        named += value if isinstance(value, list) else [value]
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert named and set(named) <= set(outputs)


class TestValidateCommand:
    def test_validate_passes_on_real_samples(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--d", "1", "--nu", "0.5",
                      "--lambda", "0.5", "--m0", "8", "--n", "4000",
                      "--seed", "2", "--tol", "0",
                      "--out", str(tmp_path))
        assert code == 0
        code, payload = run(capsys, "validate",
                            "--samples", str(tmp_path / "fields.bin"),
                            "--d", "1", "--nu", "0.5", "--lambda", "0.5")
        assert code == 0
        assert payload["report"]["passed"]

    def test_validate_fails_on_wrong_kernel(self, tmp_path, capsys):
        run(capsys, "sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
            "--m0", "8", "--n", "4000", "--seed", "2", "--tol", "0",
            "--out", str(tmp_path))
        code, payload = run(capsys, "validate",
                            "--samples", str(tmp_path / "fields.bin"),
                            "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                            "--sigma2", "9.0")
        assert code == 3
        assert not payload["report"]["passed"]

    def test_over_dense_cap_is_usage_error(self, tmp_path, capsys):
        # d=2, m0=64: 4225 grid points, above the dense cap of 4096
        path = tmp_path / "fields.bin"
        with field_binary_writer(path, 1, d=2, m0=64, sidecar={}) as write:
            write(0, np.zeros((1, 65**2)))
        code = main(["validate", "--samples", str(path), "--d", "2",
                     "--nu", "1.5", "--lambda", "0.2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "4225 points" in err and "cap of 4096" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mean", ["const:nan", "const:-inf", "file"])
    def test_mean_not_finite_is_usage_error(self, mean, tmp_path, capsys):
        run(capsys, "sample", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
            "--m0", "4", "--n", "50", "--seed", "2", "--tol", "0",
            "--out", str(tmp_path))
        if mean == "file":
            (tmp_path / "mean.txt").write_text("0 1 2 3 nan\n")
            mean = f"file:{tmp_path / 'mean.txt'}"
        code = main(["validate", "--samples", str(tmp_path / "fields.bin"),
                     "--d", "1", "--nu", "0.5", "--lambda", "0.5",
                     "--mean", mean])
        err = capsys.readouterr().err
        assert code == 2
        assert "finite" in err and "Traceback" not in err

    def test_d_that_disagrees_with_the_file_is_usage_error(self, tmp_path,
                                                           capsys):
        path = tmp_path / "fields.bin"
        with field_binary_writer(path, 2, d=1, m0=4, sidecar={}) as write:
            write(0, np.zeros((2, 5)))
        err = usage_error(capsys, "validate", "--samples", str(path),
                          "--d", "2", "--nu", "0.5", "--lambda", "0.5")
        assert "--d 2 does not match file d=1" in err

    def test_missing_file_is_io_error(self, capsys):
        code, _ = run(capsys, "validate", "--samples", "/nonexistent/x.bin",
                      "--d", "1", "--nu", "0.5", "--lambda", "0.5")
        assert code == 4

    def test_report_with_a_nan_is_strict_json(self, tmp_path, capsys):
        values = np.random.default_rng(3).standard_normal((1000, 5))
        values[17, 2] = np.nan
        path = tmp_path / "fields.bin"
        with field_binary_writer(path, 1000, d=1, m0=4, sidecar={}) as write:
            write(0, values)
        out = tmp_path / "out"
        code = main(["validate", "--samples", str(path), "--d", "1",
                     "--nu", "0.5", "--lambda", "0.5", "--out", str(out)])
        assert code == 3

        def strict(text):
            raise ValueError(f"not strict JSON: {text}")

        for text in (capsys.readouterr().out,
                     (out / "report.json").read_text()):
            report = json.loads(text, parse_constant=strict)["report"]
            assert report["max_cov_error"] == "nan"
            assert not report["passed"]


def test_non_finite_floats_are_written_as_text():
    assert cli._sanitize({"a": -math.inf, "b": [np.float64("nan")],
                          "c": math.inf, "d": np.float64(1.5)}) == {
        "a": "-inf", "b": ["nan"], "c": "inf", "d": 1.5}


NO_FIT_RANGE = "eig-decay has no flag for the key(s) 'fit_range'"


class TestEigDecay:
    def test_csv_and_report(self, tmp_path, capsys):
        code, payload = run(capsys, "eig-decay", "--d", "1", "--nu", "1.5",
                            "--lambda", "0.5", "--m0", "8", "--tol", "0",
                            "--out", str(tmp_path))
        assert code == 0
        rep = payload["report"]
        assert rep["expected_slope"] == -(1 + 2 * 1.5) / 2
        with open(tmp_path / "decay.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["j", "sqrt_lambda_over_s"]
        vals = [float(r[1]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_gaussian_is_usage_error(self, tmp_path, capsys):
        err = usage_error(capsys, "eig-decay", "--d", "1", "--nu", "inf",
                          "--lambda", "0.5", "--m0", "8",
                          "--out", str(tmp_path / "out"))
        assert "eig-decay expects a finite smoothness nu" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,flags,message", [
        # fit_range names no flag: the window is --fit-lo and --fit-hi
        ({"fit_range": 5}, [], NO_FIT_RANGE),
        ({"fit_range": [1]}, [], NO_FIT_RANGE),
        ({"fit_range": {"a": 1}}, [], NO_FIT_RANGE),
        ({"fit_range": [1, "x"]}, [], NO_FIT_RANGE),
        ({}, ["--fit-lo", "3", "--fit-hi", "1e400"],
         "two finite numbers, not [3.0, inf]"),
        ({}, ["--fit-lo", "10"], "--fit-hi is missing"),
        ({}, ["--fit-hi", "100"], "--fit-lo is missing"),
        ({"fit_lo": 3, "fit_hi": 1e400}, [],
         "two finite numbers, not [3.0, inf]"),
        ({"fit_lo": 10}, [], "--fit-hi is missing"),
        ({"fit_lo": 3, "fit_hi": [9]}, [],
         "'fit_hi' must be a single value for eig-decay, not a list"),
    ], ids=["number", "one-item", "object", "string-item", "infinite-hi",
            "lo-only", "hi-only", "config-infinite-hi", "config-lo-only",
            "config-hi-list"])
    def test_bad_fit_range_is_usage_error(self, config, flags, message,
                                          tmp_path, capsys):
        cfg = tmp_path / "fit.json"
        cfg.write_text(json.dumps(config))
        code = main(["eig-decay", "--config", str(cfg), "--d", "1",
                     "--m0", "8", "--nu", "1.5", "--lambda", "0.5",
                     "--out", str(tmp_path / "out"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "Traceback" not in err


class TestTheory:
    def test_pd_criterion(self, capsys):
        code, payload = run(capsys, "theory", "pd-criterion", "--d", "1",
                            "--nu", "0.5", "--lambda", "0.5", "--m0", "8",
                            "--ell", "6")
        assert code == 0
        rep = payload["report"]
        assert rep["satisfied"] == (rep["lhs"] > rep["rhs"])

    def test_bounds_with_explicit_constants(self, capsys):
        code, payload = run(capsys, "theory", "bounds",
                            "--nu", "1.0", "--lambda", "0.5", "--m0", "16",
                            "--c1", "1.0", "--c2", "3.0")
        assert code == 0
        expected = 0.5 * (1.0 + 3.0 * math.log(8.0))
        assert payload["report"]["matern_ell_bound"] == pytest.approx(expected)

    def test_bounds_m0_below_one_is_usage_error(self, capsys):
        code = main(["theory", "bounds", "--nu", "1", "--lambda", "0.5",
                     "--m0", "0", "--c1", "1", "--c2", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "m0 must be >= 1" in err and "Traceback" not in err

    def test_bounds_gaussian_with_b(self, capsys):
        code, payload = run(capsys, "theory", "bounds",
                            "--nu", "inf", "--lambda", "0.5", "--m0", "16",
                            "--b", "3.0")
        assert code == 0
        expected = 1.0 + 0.5 * max(math.sqrt(2) * 8.0, 3.0)
        assert payload["report"]["gaussian_ell_bound"] == pytest.approx(expected)

    def test_bounds_gaussian_without_b_is_usage_error(self, capsys):
        err = usage_error(capsys, "theory", "bounds", "--nu", "inf",
                          "--lambda", "0.5", "--m0", "16")
        assert "gaussian bound needs --b or --calibrate-from" in err

    @pytest.mark.parametrize("flags,message", [
        (["--nu", "1", "--c1", "nan", "--c2", "3"], "C1 must be finite"),
        (["--nu", "1", "--c1", "inf", "--c2", "3"], "C1 must be finite"),
        (["--nu", "1", "--c1", "1", "--c2", "nan"], "requires finite C2"),
        (["--nu", "1", "--lambda", "nan", "--c1", "1", "--c2", "3"],
         "0 < lam <= 1"),
        (["--nu", "inf", "--b", "nan"], "needs a finite B"),
        (["--nu", "inf", "--lambda", "nan", "--b", "3"],
         "and lam > 0"),
    ], ids=["c1-nan", "c1-inf", "c2-nan", "lambda-nan", "b-nan",
            "gaussian-lambda-nan"])
    def test_bounds_input_not_finite_is_usage_error(self, flags, message,
                                                    capsys):
        # the last --lambda given wins, so 0.5 is only the default here
        err = usage_error(capsys, "theory", "bounds", "--lambda", "0.5",
                          "--m0", "8", *flags)
        assert message in err

    @pytest.mark.parametrize("flags,config,named", [
        (["--c1", "1", "--c2", "3"], {}, "--c1, --c2"),
        (["--c2", "3"], {}, "--c2"),
        (["--b", "3"], {}, "--b"),
        ([], {"c1": 1, "c2": 3}, "--c1, --c2"),
        ([], {"b": 3}, "--b")],
        ids=["c1-c2", "c2", "b", "config-c1-c2", "config-b"])
    def test_bounds_calibration_and_constants_are_alternatives(
            self, flags, config, named, tmp_path, capsys):
        # the CSV does not exist: the conflict is found before it is read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = usage_error(capsys, "theory", "bounds", "--nu", "1",
                          "--lambda", "0.5", "--m0", "8", "--config",
                          str(cfg), "--calibrate-from",
                          str(tmp_path / "sweep.csv"), *flags)
        assert f"--calibrate-from and {named} are alternatives" in err

    def test_bounds_calibrated_from_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "d": [1], "nu": [1.0, 2.0], "lam": [0.5], "m0": [8, 16, 32],
            "tol": 0.0}))
        run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path))
        code, payload = run(capsys, "theory", "bounds",
                            "--calibrate-from", str(tmp_path / "sweep.csv"),
                            "--nu", "1.0", "--lambda", "0.5", "--m0", "16")
        assert code == 0
        assert payload["report"]["calibration"]["C2"] >= 2 * math.sqrt(2) - 1e-12
        assert "matern_ell_bound" in payload["report"]

    @pytest.mark.parametrize("column,text,message", [
        ("m0", "0", "line 4, column 'm0': '0' is not a valid value"),
        ("m0", "x", "line 4, column 'm0': 'x' is not a valid value"),
        ("nu", "", "line 4, column 'nu': '' is not a valid value"),
        ("m0", None, "line 4, column 'm0': missing"),
        ("nu", None, "line 4, column 'nu': missing"),
        ("m0", "inf", "row 2 needs nu > 0 and a finite lam, h0 and ell > 0, "
         "not nu=2.0, lam=0.5, h0=0.0, ell=2.4"),
        ("lambda", "0", "lam=0.0"),
        ("ell_min", "inf", "ell=inf"),
        ("nu", "nan", "nu=nan"),
    ], ids=["m0-zero", "m0-text", "nu-empty", "m0-short-row", "nu-short-row",
            "m0-inf", "lambda-zero", "ell-inf", "nu-nan"])
    def test_bounds_bad_calibration_row_is_named(self, column, text, message,
                                                 tmp_path, capsys):
        # m0 0 and inf and lambda 0 ended in a ZeroDivisionError traceback
        header = ["d", "nu", "lambda", "m0", "ell_min", "error"]
        rows = [["1", "1.0", "0.5", "8", "1.9", ""],
                ["1", "1.0", "0.5", "16", "2.1", ""],
                ["1", "2.0", "0.5", "8", "2.4", ""],
                ["1", "2.0", "0.5", "16", "2.8", ""]]
        at = header.index(column)
        if text is None:  # a row that ends before the column
            rows[2] = rows[2][:at]
        else:
            rows[2][at] = text
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(",".join(r) for r in [header, *rows]))
        err = usage_error(capsys, "theory", "bounds", "--calibrate-from",
                          str(path))
        assert message in err
        if "line" in message:
            assert f"{path}, {message}" in err

    def test_bounds_calibration_without_a_column_names_it(self, tmp_path,
                                                          capsys):
        # a missing column exited 2 with only "error: 'm0'"
        path = tmp_path / "sweep.csv"
        path.write_text("d,nu,lambda,ell_min,error\n1,1.0,0.5,2.0,\n")
        err = usage_error(capsys, "theory", "bounds", "--calibrate-from",
                          str(path))
        assert f"{path}, line 2, column 'm0': missing" in err

    def test_continuous_eigs(self, capsys):
        code, payload = run(capsys, "theory", "continuous-eigs", "--d", "1",
                            "--nu", "0.5", "--lambda", "1.0", "--ell", "1",
                            "--k", "0,1")
        assert code == 0
        vals = payload["report"]["lambda_ext"]
        assert vals["0"] == pytest.approx(2 * (1 - math.exp(-1)), rel=1e-6)

    def test_sampling_theorem(self, capsys):
        code, payload = run(capsys, "theory", "sampling-theorem", "--d", "1",
                            "--nu", "inf", "--lambda", "1.0", "--h", "0.25",
                            "--xi", "0.13", "--k-trunc", "40", "--r-trunc", "3")
        assert code == 0
        assert payload["report"]["residual"] <= 1e-12

    @pytest.mark.parametrize("argv,message", [
        (["sampling-theorem", "--h", "0"], "h must be finite and > 0"),
        (["sampling-theorem", "--h", "-0.5"], "h must be finite and > 0"),
        (["sampling-theorem", "--h", "inf"], "h must be finite and > 0"),
        (["continuous-eigs", "--ell", "0"], "ell must be finite and > 0"),
        (["continuous-eigs", "--ell", "-1"], "ell must be finite and > 0"),
        (["continuous-eigs", "--ell", "inf"], "ell must be finite and > 0"),
    ], ids=["h-zero", "h-negative", "h-infinite", "ell-zero", "ell-negative",
            "ell-infinite"])
    def test_lag_not_finite_and_positive_is_usage_error(self, argv, message,
                                                        capsys):
        code = main(["theory", *argv, "--d", "1", "--nu", "1.5",
                     "--lambda", "0.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("xi", ["0,inf", "nan,0"])
    def test_xi_not_finite_is_usage_error(self, xi, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = usage_error(capsys, "theory", "sampling-theorem", "--d",
                              "2", "--nu", "1.5", "--lambda", "0.5",
                              "--h", "0.25", "--xi", xi)
        assert "xi must be finite" in err

    @pytest.mark.parametrize("argv,flag", [
        (["continuous-eigs", "--ell", "1", "--k", ""], "--k"),
        (["continuous-eigs", "--ell", "1", "--k", "0,1.5"], "--k"),
        (["sampling-theorem", "--h", "0.25", "--xi", "0.1,"], "--xi"),
    ], ids=["k-empty", "k-fraction", "xi-trailing-comma"])
    def test_malformed_comma_list_names_its_flag(self, argv, flag, capsys):
        err = usage_error(capsys, "theory", *argv, "--d", "1", "--nu", "1.5",
                          "--lambda", "0.5")
        assert f"argument {flag}: expected comma-separated" in err

    @pytest.mark.parametrize("flags", [["--k-trunc", "-1"],
                                       ["--r-trunc", "-3"]],
                             ids=["k-trunc", "r-trunc"])
    def test_negative_truncation_radius_is_usage_error(self, flags, capsys):
        code = main(["theory", "sampling-theorem", "--d", "1", "--nu", "1.5",
                     "--lambda", "0.5", "--h", "0.25", *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "k_trunc and r_trunc must be >= 0" in captured.err
        assert "Traceback" not in captured.err

    def test_truncation_box_too_large_is_usage_error(self, capsys):
        code = main(["theory", "sampling-theorem", "--d", "3", "--nu", "1.5",
                     "--lambda", "0.5", "--h", "0.25", "--xi", "0,0,0",
                     "--k-trunc", "1000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "truncation box too large" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--nu", "1.0", "--lambda", "0.5", "--m0", "16",
         "--c1", "1.0", "--c2", "3.0", "--quad-n", "5"],
        ["pd-criterion", "--d", "1", "--nu", "0.5", "--lambda", "0.5",
         "--m0", "8", "--ell", "6", "--p", "0.5"],
        ["continuous-eigs", "--d", "1", "--nu", "0.5", "--lambda", "1.0",
         "--ell", "1", "--m0", "8"],
        ["sampling-theorem", "--d", "1", "--nu", "inf", "--lambda", "1.0",
         "--h", "0.25", "--tol", "0"],
        ["qmc-sum", "--d", "1", "--nu", "1.5", "--lambda", "0.5",
         "--m0", "8", "--p", "0.7", "--ell", "1"],
        ["bounds", "--d", "7", "--sigma2", "-5", "--nu", "1.5",
         "--lambda", "0.5", "--m0", "32", "--c1", "1", "--c2", "3"],
    ])
    def test_subcommand_rejects_flags_it_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(["theory", *argv])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_qmc_sum_schedule_flag(self, capsys):
        args = ["theory", "qmc-sum", "--d", "2", "--nu", "1.5",
                "--lambda", "0.5", "--m0", "8", "--tol", "0", "--p", "0.7"]
        code, inc = run(capsys, *args)
        assert code == 0
        code, dbl = run(capsys, *args, "--schedule", "doubling")
        assert code == 0
        assert dbl["parameters"]["schedule"] == "doubling"
        assert dbl["report"]["m"] == inc["report"]["m"] > 8

    def test_qmc_sum(self, capsys):
        code, payload = run(capsys, "theory", "qmc-sum", "--d", "1",
                            "--nu", "1.5", "--lambda", "0.5", "--m0", "8",
                            "--tol", "0", "--p", "0.7")
        assert code == 0
        assert payload["report"]["sum"] > 0


def _value_flags():
    """(command words, flag, destination, choices) of every flag that takes
    a value, --config aside, in every command."""
    found = []

    def walk(parser, words):
        for action in parser._actions:
            if isinstance(action.choices, dict):  # the subcommands
                for name, sub in action.choices.items():
                    walk(sub, words + [name])
            elif (action.option_strings and action.nargs is None
                  and action.dest != "config"):
                flag = action.option_strings[0]
                found.append(pytest.param(words, flag, action.dest,
                                          action.choices,
                                          id=" ".join([*words, flag])))

    walk(cli.build_parser(), [])
    return found


def read_settings(capsys, argv):
    """(0, parameters) of a command line, or (2, message) when reading it
    fails; the command itself does not run."""
    try:
        return 0, cli._parameters(list(argv))[1]
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err
    except ValueError as exc:
        return 2, str(exc)


def rejected(capsys, *argv) -> str:
    """stderr of a command line that exits 2, with no report and no
    traceback, whether argparse or the command rejects it."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err
    return captured.err


class TestConfigIsReadLikeFlags:
    """A --config value goes through its flag's declaration: its type, its
    choices, and true or false for a bare flag."""

    @pytest.mark.parametrize("words,flag,dest,choices", _value_flags())
    def test_flag_and_config_give_the_same_settings(
            self, words, flag, dest, choices, tmp_path, capsys):
        texts = (list(choices) if choices else
                 ["7", "-1", "0.25", "8.0", "inf", "abc", "const:1"])
        cfg = tmp_path / "cfg.json"
        for text in texts + ["xml"]:
            values = [text]
            try:
                number = json.loads(text)
                if str(number) == text:
                    values.append(number)
            except ValueError:
                pass
            want = read_settings(capsys, [*words, flag, text])
            for value in values:
                cfg.write_text(json.dumps({dest: value}))
                got = read_settings(capsys, [*words, "--config", str(cfg)])
                assert got[0] == want[0], (text, value, want, got)
                if want[0] == 0:
                    assert got == want, (text, value)
                else:
                    assert want[0] == 2, want
                    assert f"argument {flag}" in want[1]
                    assert f"argument {flag}" in got[1], got

    @pytest.mark.parametrize("argv,config,flag", [
        (["min-ell", "--d", "1", "--nu", "0.5", "--lambda", "1"],
         {"m0": 1e400}, "--m0"),
        (["sweep"], {"d": [1], "nu": [0.5], "lam": [1.0], "m0": [1e400]},
         "--m0"),
        (["sweep"], {"d": [1], "nu": [0.5, "x"], "lam": [1.0], "m0": [4]},
         "--nu"),
        (["sweep"], {"d": [2.0], "nu": [0.5], "lam": [1.0], "m0": [4]},
         "--d"),
        (["sample", "--d", "1", "--nu", "0.5", "--lambda", "1", "--m0", "4"],
         {"lognormal": "false"}, "--lognormal"),
        (["sample", "--d", "1", "--nu", "0.5", "--lambda", "1", "--m0", "4"],
         {"lognormal": 1}, "--lognormal"),
        (["sample", "--d", "1", "--nu", "0.5", "--lambda", "1", "--m0", "4"],
         {"seed": 1.5}, "--seed"),
        (["min-ell", "--d", "1", "--nu", "0.5", "--lambda", "1", "--m0", "4"],
         {"schedule": "halving"}, "--schedule"),
    ], ids=["m0-overflow", "sweep-m0-overflow", "sweep-nu-text",
            "sweep-d-float", "lognormal-text", "lognormal-number",
            "seed-fraction", "unknown-schedule"])
    def test_a_value_its_flag_rejects_exits_2(self, argv, config, flag,
                                              tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        err = rejected(capsys, *argv, "--config", str(cfg),
                       "--out", str(out))
        assert f"argument {flag}" in err
        assert not out.exists()

    def test_bounds_constants_from_config(self, tmp_path, capsys):
        shape = ["theory", "bounds", "--nu", "1", "--lambda", "0.5",
                 "--m0", "8"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c1": "1", "c2": "3"}))
        code, payload = run(capsys, *shape, "--config", str(cfg))
        assert code == 0
        assert payload["report"]["matern_ell_bound"] == 2.5794415416798357
        code, flags = run(capsys, *shape, "--c1", "1", "--c2", "3")
        assert flags["report"] == payload["report"]

    def test_bare_flag_from_config(self, tmp_path, capsys):
        shape = ["sample", "--d", "1", "--nu", "0.5", "--lambda", "1",
                 "--m0", "4"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lognormal": True}))
        assert read_settings(capsys, [*shape, "--config", str(cfg)]) == \
            read_settings(capsys, [*shape, "--lognormal"])

    def test_keys_that_are_no_flag_cannot_replace_the_command(
            self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sweep", "func": "x",
                                   "parser": "y", "note": "kept"}))
        err = usage_error(capsys, "min-ell", "--config", str(cfg),
                          "--d", "1", "--nu", "0.5", "--lambda", "1",
                          "--m0", "4", "--tol", "0")
        assert "min-ell has no flag for the key(s) 'command', 'func', " \
            "'note', 'parser'" in err

    @pytest.mark.parametrize("argv,config,named", [
        (["min-ell", "--d", "1", "--nu", "0.5", "--lambda", "1", "--m0",
          "4"], {"m-max": 8}, "'m-max'"),
        (["sample", "--d", "1", "--nu", "0.5", "--m0", "4"],
         {"lamda": 0.5, "n": 2}, "'lamda'"),
        (["sweep"], {"d": [1], "nu": [0.5], "lam": [1.0], "m0": [4],
                     "thread": 2}, "'thread'"),
        (["eig-decay", "--d", "1", "--nu", "1.5", "--lambda", "0.5",
          "--m0", "8"], {"fit_range": [2, 9]}, "'fit_range'"),
        (["validate", "--d", "1", "--nu", "0.5", "--lambda", "1"],
         {"m0": 4, "samples": "fields.bin"}, "'m0'"),
        (["theory", "qmc-sum", "--d", "1", "--nu", "0.5", "--lambda", "1",
          "--m0", "4", "--p", "0.7"], {"config": "x", "help": 1},
         "'config', 'help'"),
    ], ids=["min-ell-m-max", "sample-lamda", "sweep-thread",
            "eig-decay-fit-range", "validate-m0", "qmc-sum-config-help"])
    def test_a_key_that_names_no_flag_exits_2_before_the_work(
            self, argv, config, named, tmp_path, monkeypatch, capsys):
        # {"m-max": 8} was recorded and ignored: the search ran with no
        # m_max; now no search runs and --out is not made
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "_search",
                            mock.Mock(side_effect=AssertionError))
        words = argv[:2] if argv[0] == "theory" else argv[:1]
        err = rejected(capsys, *argv, "--config", str(cfg), "--out", str(out))
        assert f"--config {cfg}: {' '.join(words)} has no flag for the " \
            f"key(s) {named}" in err
        assert not out.exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        err = usage_error(capsys, "min-ell", "--config", str(cfg))
        assert "must hold a JSON object" in err

    def test_parameters_record_the_cli_defaults(self, tmp_path, capsys):
        code, payload = run(capsys, "sample", "--d", "1", "--nu", "0.5",
                            "--lambda", "1", "--m0", "4",
                            "--out", str(tmp_path))
        assert code == 0
        params = payload["parameters"]
        assert {key: params[key] for key in
                ("n", "seed", "format", "mean", "lognormal")} == {
            "n": 1, "seed": 0, "format": "bin", "mean": "const:0",
            "lognormal": False}
        code, payload = run(capsys, "theory", "sampling-theorem", "--d", "1",
                            "--nu", "inf", "--lambda", "1.0", "--h", "0.25")
        assert code == 0
        assert {key: payload["parameters"][key] for key in
                ("xi", "k_trunc", "r_trunc")} == {
            "xi": "0", "k_trunc": 64, "r_trunc": 64}


def _commands(parser):
    """The `command` of every subparser, `theory bounds` style."""
    for action in parser._actions:
        if isinstance(action.choices, dict):
            for sub in action.choices.values():
                if sub.get_default("command"):
                    yield sub.get_default("command")
                yield from _commands(sub)


def _readme_configs():
    """(command, config) of each ```json block in README's "Command line"
    section, the command the first one named in the paragraph before."""
    readme = (Path(__file__).resolve().parent.parent / "README.md"
              ).read_text()
    section = readme.split("\n## Command line\n")[1].split("\n#")[0]
    names = "|".join(sorted(_commands(cli.build_parser()), key=len,
                            reverse=True))
    found = []
    for block in re.finditer(r"```json\n(.*?)```", section, re.S):
        paragraph = section[:block.start()].rstrip().split("\n\n")[-1]
        command = re.search(rf"(?<![\w-])({names})(?![\w-])", paragraph)
        found.append(pytest.param(command and command[1],
                                  json.loads(block[1]),
                                  id=command and command[1]))
    return found


@pytest.mark.parametrize("command,config", _readme_configs())
def test_readme_config_example_is_read_by_its_command(command, config,
                                                      tmp_path):
    assert len(_readme_configs()) >= 2 and command is not None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    _, params = cli._parameters([*command.split(), "--config", str(cfg)])
    assert params["command"] == command and set(config) <= set(params)


class TestOneParser:
    """The parser is built once per process, and no call changes it."""

    def test_build_parser_is_cached(self):
        assert cli.build_parser() is cli.build_parser()

    @staticmethod
    def _defaults(parser) -> list:
        """(command words, dest, default) of every action of every
        subparser, in declaration order."""
        found = []

        def walk(parser, words):
            for action in parser._actions:
                if isinstance(action.choices, dict):
                    for name, sub in action.choices.items():
                        walk(sub, words + [name])
                found.append((tuple(words), action.dest, action.default))

        walk(parser, [])
        return found

    @pytest.mark.parametrize("words,config", [
        (["min-ell"], {"lam": 0.25, "schedule": "doubling", "m_max": 50}),
        (["sample"], {"lam": 0.25, "schedule": "doubling", "m_max": 50,
                      "lognormal": True, "n": 3}),
        (["theory", "qmc-sum"], {"lam": 0.25, "schedule": "doubling",
                                 "m_max": 50}),
    ], ids=["min-ell", "sample", "qmc-sum"])
    def test_a_config_does_not_leak_into_the_next_call(self, words, config,
                                                       tmp_path):
        declared = self._defaults(cli.build_parser.__wrapped__())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*words, "--d", "1", "--nu", "0.5", "--m0", "4"]
        _, first = cli._parameters([*argv, "--config", str(cfg)])
        assert {key: first[key] for key in config} == config
        _, second = cli._parameters(argv)
        assert not (set(config) - {"lognormal", "n"}) & set(second)
        if "lognormal" in config:
            assert second["lognormal"] is False and second["n"] == 1
        assert self._defaults(cli.build_parser()) == declared


# a valid command line of each theory subcommand; --m-max 64 bounds the
# searches that cannot end sooner
THEORY_ARGV = {
    "pd-criterion": ["--d", "2", "--nu", "0.5", "--lambda", "0.5",
                     "--m0", "8", "--ell", "6"],
    "bounds": ["--nu", "1", "--lambda", "0.5", "--m0", "8", "--c1", "1",
               "--c2", "3"],
    "continuous-eigs": ["--d", "1", "--nu", "0.5", "--lambda", "1.0",
                        "--ell", "1"],
    "sampling-theorem": ["--d", "1", "--nu", "inf", "--lambda", "1.0",
                         "--h", "0.25"],
    "qmc-sum": ["--d", "1", "--nu", "1.5", "--lambda", "0.5", "--m0", "8",
                "--tol", "0", "--p", "0.7", "--m-max", "64"],
}
EXTREMES = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-300",
            "99999999999999999999", ""]


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("words,flag,dest,choices", [
    param for param in _value_flags() if param.values[0][0] == "theory"])
def test_theory_flag_at_an_extreme_value_ends_cleanly(
        words, flag, dest, choices, tmp_path, monkeypatch, capsys):
    """Each value of EXTREMES, given to one flag of a valid theory command
    line, ends in a report with no NaN, a usage error or a numerical
    failure (an I/O error too where the flag names a file to read), with
    no warning and no traceback.  The parameters echo the input as given."""
    monkeypatch.chdir(tmp_path)  # `--out=0` and `--out=` write here
    ends = (0, 2, 3, 4) if flag == "--calibrate-from" else (0, 2, 3)
    for text in EXTREMES:
        try:
            code = main([*words, *THEORY_ARGV[words[1]], f"{flag}={text}"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in ends, (text, code, captured.err)
        assert "Traceback" not in captured.err, text
        if code == 0:
            report = json.dumps(json.loads(captured.out)["report"])
            assert '"nan"' not in report, (text, report)


# inputs that ended in a traceback, a warning, a NaN or an infinite report
BEYOND_FLOAT64 = [
    ("pd-criterion", ["--lambda", "inf"], 2,
     "MaternKernel: lam must be positive and finite, got lam=inf"),
    ("pd-criterion", ["--lambda", "1e308"], 2, "lower --lambda or --m0"),
    ("pd-criterion", ["--lambda", "99999999999999999999"], 3,
     "tail quadrature did not converge"),
    ("pd-criterion", ["--m0", "99999999999999999999"], 3,
     "tail quadrature did not converge"),
    ("pd-criterion", ["--nu", "1e-300"], 3,
     "tail quadrature did not converge"),
    ("sampling-theorem", ["--h", "1e308"], 2,
     "at h=1e+308, xi=[0.0] for MaternKernel(sigma2=1.0, lam=1.0, nu=inf"),
    ("sampling-theorem", ["--xi", "1e308"], 2, "at h=0.25, xi=[1e+308]"),
    ("sampling-theorem", ["--sigma2", "1e308"], 2,
     "for MaternKernel(sigma2=1e+308"),
    ("sampling-theorem", ["--lambda", "inf"], 2, "lam=inf"),
    ("sampling-theorem", ["--lambda", "1e308"], 2, "lam=1e+308"),
    ("continuous-eigs", ["--ell", "1e308"], 2, "ell=1e+308 is too large"),
    ("continuous-eigs", ["--sigma2", "1e308"], 2,
     "rectangle rule overflows at ell=1.0 for MaternKernel(sigma2=1e+308"),
]


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("command,flags,code,message", BEYOND_FLOAT64,
                         ids=[" ".join([c, *f]) for c, f, *_ in BEYOND_FLOAT64])
def test_theory_input_beyond_float64_names_itself(command, flags, code,
                                                  message, capsys):
    """A usage error names the input, or the quadrature fails."""
    got = main(["theory", command, *THEORY_ARGV[command], *flags])
    captured = capsys.readouterr()
    assert got == code and captured.out == "", captured.err
    assert message in captured.err and "Traceback" not in captured.err
