"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run every job class of every workload once in process, then a few
short benchmark processes: the printed metric names and units must be the
ones BENCHMARK.json declares, no job may return a wrong result, traced and
untraced runs must produce the same output digest and the same per-layer
counts twice.  A job may fail only by raising a library error: at this
revision lattice_smith raises NotAUnit on some rank-3 Gamma-invertible
inputs of the gamma-factor workload.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_class_passes_and_traces_identically(workload, tmp_path):
    jobs = workloads.one_job_per_class(
        workloads.build(workload, 3, str(tmp_path)))
    first = run.run_pass(jobs)
    assert not any(wrong for *_, wrong in first.failures)
    tracers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        assert traced.failures == first.failures
        assert traced.digest == first.digest
        tracers.append(tracer)
    counts = [{name: value for name, (value, unit) in t.metrics(0.0).items()
               if unit != "s"} for t in tracers]
    assert counts[0] == counts[1]
    assert run.run_pass(jobs).digest == first.digest


def test_reference_times_cancel_a_uniform_slowdown():
    times, samples = [0.002, 0.010, 0.001], [4e-4, 5e-4, 6e-4, 5e-4]
    ref = calibration.reference_times(times, samples)
    slow = calibration.reference_times([1.6 * t for t in times],
                                       [1.6 * c for c in samples])
    assert slow == pytest.approx(ref)
    # at the reference speed, reference time is wall time
    quiet = [calibration.C_REF] * 4
    assert calibration.reference_times(times, quiet) == pytest.approx(times)
    assert calibration.sample() > 0


def test_tracer_wraps_every_name_and_restores_the_library():
    from sigma_nabla import cli, factor, linalg
    from sigma_nabla.series import LaurentSeries
    for _, owner, attr, *_ in tracing.SPANS + tracing.COUNTERS:
        assert (attr in owner.__dict__ if isinstance(owner, type)
                else hasattr(owner, attr)), (owner, attr)
    before = (linalg.smat_mul, factor.smat_mul, cli.main,
              LaurentSeries.__add__)
    tracer = tracing.Tracer()
    tracer.install()
    assert factor.smat_mul is not before[1]
    tracer.uninstall()
    assert (linalg.smat_mul, factor.smat_mul, cli.main,
            LaurentSeries.__add__) == before


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("output digest"))
    return json.loads(lines[-1]), digest


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def printed(result):
    return [(name, m["unit"]) for name, m in result["metrics"].items()]


def test_full_runs_print_declared_metrics_and_agree():
    common = ("--workload", "module-cli", "--seed", "2")
    plain, digest = bench(*common, "--seconds", "0", "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0
    assert printed(plain) == declared("end_to_end")
    traced = []
    for _ in range(2):
        result, traced_digest = bench(*common, "--trace", "1")
        assert result["correct"] and result["failed"] == 0
        assert printed(result) == declared("per_layer")
        assert traced_digest == digest
        traced.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] != "s"})
    assert traced[0] == traced[1]
    assert traced[0]["series.mul.calls"] > 0
    assert traced[0]["cli.exit_nonzero"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gamma-factor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
