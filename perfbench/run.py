#!/usr/bin/env python3
"""Benchmark of the sigma_nabla library: closed-loop workloads, one client.

    python3 perfbench/run.py --workload gamma-factor --seed 1 --seconds 10 \\
        --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` without installing it.  One process runs one workload: it builds
the workload's fixed, ordered job list from ``--seed``, runs one untimed
warm-up job of each class, then a fixed number of whole passes, one job at
a time: ``--seconds`` divided by the workload's nominal pass time, at least
1.  Every job's result is checked; every pass's output digest must be the
same.  Times are reference times (``calibration.py``): wall times scaled
by a calibration kernel timed between jobs, so that the load other tenants
put on a shared host cancels out.  A job that raises a library error
(``sigma_nabla.errors.SigmaNablaError``) counts in ``failed``; a wrong
result, verdict or exit code, or any other exception, makes ``correct``
false.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates two
untraced and two traced passes of the same job list and prints the
per-layer metrics, the tracing overhead and a traffic report; spans and
the report are written under ``.perfbench/`` in the checkout.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
# Fresh interpreters timed for setup_s.  Each builds every input, which
# takes seconds on gamma-factor and module-cli; calibrated, two agree
# within a few percent.
SETUP_REPEATS = 2
SETUP_TICK = 0.05       # seconds between calibration samples in set-up

# (name, unit) of the end-to-end metrics, in BENCHMARK.json's order
END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("floor_min", "digits"),
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("gamma-factor", "module-cli", "euler-lfunction"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; seed "
                    f"{HOLDOUT_SEED} was kept out of tuning, for confirming "
                    f"a claim)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_environment():
    """Fix what changes results or timings, before sigma_nabla is imported.

    SIGMA_NABLA_MAX_WINDOW is read at import and changes every window;
    BLAS threads would race the benchmark for the cores (numpy.roots in the
    purity check calls LAPACK); string hashing decides set iteration order.
    The hash seed takes effect only at start-up, so the process re-executes
    itself once with it set.
    """
    os.environ.pop("SIGMA_NABLA_MAX_WINDOW", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ))


def import_library():
    """Import sigma_nabla from this checkout's src/, never an installed
    copy; exit without a result when the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "sigma_nabla", "__init__.py")):
        sys.exit(f"perfbench: no sigma_nabla sources under {SRC}")
    sys.path.insert(0, SRC)
    import sigma_nabla
    import sigma_nabla.cli  # noqa: F401  (numpy and click come with it)
    if not os.path.abspath(sigma_nabla.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported sigma_nabla from "
                 f"{sigma_nabla.__file__}, not from {SRC}")


def environment():
    from importlib.metadata import version

    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "click": version("click"),
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# Set-up time.
# ---------------------------------------------------------------------------


def measure_setup(args):
    """setup_s samples: wall and reference seconds of a fresh interpreter
    that imports sigma_nabla and builds the workload's inputs, then exits
    (``setup_only``).  The interpreter times the calibration kernel while
    it works; its samples, and one taken here before and one after, give
    the host's speed, and the seconds its samples took are not counted."""
    walls, refs = [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        before = calibration.sample()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, timeout=120,
                              check=False)
        elapsed = time.perf_counter() - t0
        after = calibration.sample()
        if proc.returncode != 0:
            sys.exit("perfbench: set-up run failed:\n" +
                     proc.stderr.decode(errors="replace"))
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        walls.append(elapsed)
        refs.append(calibration.reference_time(
            elapsed - report["calibration_s"],
            [before, after] + report["calibration"]))
    return walls, refs


def setup_only(args):
    """The set-up that measure_setup times: import sigma_nabla and build
    the inputs, with a calibration sample every SETUP_TICK seconds; prints
    the samples and the seconds they took."""
    samples, spent = [], [0.0]

    def tick(signum, frame):
        t0 = time.perf_counter()
        samples.append(calibration.sample())
        spent[0] += time.perf_counter() - t0

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SETUP_TICK, SETUP_TICK)
    try:
        import_library()
        import workloads
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
        try:
            workloads.build(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"calibration": samples, "calibration_s": spent[0]}))
    return 0


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


class Pass:
    """Per-job wall times, outcomes and the output digest of one pass."""

    def __init__(self):
        self.times = []
        self.cal = []           # calibration samples around the jobs
        # (job index, reason, wrong): wrong unless the job raised a library
        # error, which is a failed operation rather than a wrong output
        self.failures = []
        self.floors = []
        self.nonzero_exits = 0
        self.digest = None


def run_pass(jobs, tracer=None):
    from sigma_nabla.errors import SigmaNablaError
    from workloads import Outcome

    result = Pass()
    digest = hashlib.sha256()
    for index, job in enumerate(jobs):
        result.cal.append(calibration.sample())
        if tracer is not None:
            tracer.job, tracer.active = index, True
        error = None
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:    # a raising job is a failed job
            error = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is None:
            outcome = job.check(out)
            if getattr(out, "code", 0):
                result.nonzero_exits += 1
        elif isinstance(error, SigmaNablaError):
            outcome = Outcome(False, b"", (),
                              f"raised {type(error).__name__}: {error}")
        else:                       # a defect: keep where it was raised
            outcome = Outcome(False, b"", (), "raised " + "".join(
                traceback.format_exception(error)).rstrip())
        result.times.append(elapsed)
        digest.update(f"{index}\0{job.cls}\0".encode())
        digest.update(outcome.blob)
        digest.update(b"\0")
        result.floors.extend(outcome.floors)
        if not outcome.ok:
            result.failures.append(
                (index, outcome.reason,
                 not isinstance(error, SigmaNablaError)))
    result.cal.append(calibration.sample())
    result.digest = digest.hexdigest()
    return result


def report_failures(args, runs, kept_workdir):
    """``runs``: (pass label, job list, pass) triples."""
    for label, jobs, p in runs:
        for index, reason, wrong in p.failures:
            job = jobs[index]
            print(f"{'WRONG' if wrong else 'FAILED'} seed={args.seed} "
                  f"workload={args.workload} "
                  f"pass={label} job={index} class={job.cls!r}: {reason}",
                  file=sys.stderr)
            if job.argv is not None:
                print(f"  argv: sigma-nabla {shlex.join(job.argv)}",
                      file=sys.stderr)
    if kept_workdir:
        print(f"  input documents kept in {kept_workdir}", file=sys.stderr)


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------


def timed_run(args, jobs, setup):
    from workloads import PASS_SECONDS

    # The pass count follows from --seconds and the workload's nominal pass
    # time, never from how fast this revision runs, so that every revision
    # takes the same number of samples of each job.
    count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    passes = [run_pass(jobs) for _ in range(count)]
    ref = [calibration.reference_times(p.times, p.cal) for p in passes]
    # each job's sample is its median reference time over the passes
    job_ms = [statistics.median(r[i] for r in ref) * 1e3
              for i in range(len(jobs))]
    floors = [f for p in passes for f in p.floors]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "jobs_per_s": len(jobs) * count / sum(map(sum, ref)),
        "job_ms_p50": statistics.median(job_ms),
        "job_ms_p90": statistics.quantiles(job_ms, n=10,
                                           method="inclusive")[8],
        "setup_s": statistics.median(setup[1]),
        "peak_rss_mb": rss_mib,
        "floor_min": min(floors),
    }
    wall = sum(sum(p.times) for p in passes)
    cal = [c for p in passes for c in p.cal]
    notes = [f"timed passes: {count} of {len(jobs)} jobs; percentiles over "
             f"{len(jobs)} samples, each job's median reference time over "
             f"the passes",
             f"wall clock: {len(jobs) * count / wall:.2f} jobs/s; "
             f"calibration kernel median {statistics.median(cal) * 1e3:.4f} "
             f"ms, reference {calibration.C_REF * 1e3:.4f} ms",
             "pass seconds in jobs, wall: " + " ".join(
                 f"{sum(p.times):.4f}" for p in passes) +
             "; reference: " + " ".join(f"{sum(r):.4f}" for r in ref),
             f"precision floors: {len(floors)} reported, "
             f"min {min(floors)}, mean {statistics.fmean(floors):.4f}",
             "setup_s samples, wall: " + " ".join(
                 f"{s:.4f}" for s in setup[0]) +
             "; reference: " + " ".join(f"{s:.4f}" for s in setup[1])]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return passes, metrics, notes, True


def traced_run(args, jobs):
    import tracing

    # untraced and traced passes alternate; each side's faster pass, in
    # reference seconds, gives the overhead, and the two traced passes
    # must count the same work
    untraced, traced, tracers = [], [], []
    for _ in range(2):
        untraced.append(run_pass(jobs))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(jobs, tracer))
        finally:
            tracer.uninstall()
        tracer.counts["cli.exit_nonzero"] = traced[-1].nonzero_exits
        tracers.append(tracer)
    ref_untraced, ref_traced = (
        [calibration.reference_times(p.times, p.cal) for p in side]
        for side in (untraced, traced))
    base = [min(r[i] for r in ref_untraced) for i in range(len(jobs))]
    overhead = min(map(sum, ref_traced)) - min(map(sum, ref_untraced))
    metrics, again = (t.metrics(overhead) for t in tracers)
    repeated = all(metrics[k] == again[k] for k, (_, unit) in metrics.items()
                   if unit != "s")
    tracer = tracers[0]

    # traffic: job classes by untraced reference time, and series.mul
    # operand shapes
    by_class = defaultdict(lambda: [0, 0.0])
    for job, t in zip(jobs, base):
        by_class[job.cls][0] += 1
        by_class[job.cls][1] += t
    total = sum(base)
    classes = {cls: {"jobs": n, "seconds": round(s, 6),
                     "share": round(s / total, 4)}
               for cls, (n, s) in sorted(by_class.items(),
                                         key=lambda kv: -kv[1][1])}
    traffic = {
        "workload": args.workload, "seed": args.seed,
        "untraced_pass_s": total, "overhead_s": overhead,
        "job_classes": classes,
        "series_mul_operand_terms":
            tracing.power_of_two_histogram(tracer.mul_terms),
        "series_mul_window_width":
            tracing.power_of_two_histogram(tracer.mul_widths),
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
    with open(stem + "-traffic.json", "w", encoding="utf-8") as fh:
        json.dump(traffic, fh, indent=1)
        fh.write("\n")
    tracer.write_spans(stem + "-spans.tsv.gz")

    notes = [f"tracing overhead: {overhead:.4f} reference s on one pass, "
             f"faster of two traced passes against the faster of two "
             f"untraced ones",
             "per-layer counts of the two traced passes: " +
             ("identical" if repeated else "DIFFERENT"),
             f"spans and traffic written to {stem}-*",
             "job classes (best untraced reference time): jobs, seconds, "
             "share"]
    notes += [f"  {cls:36s} {c['jobs']:4d} {c['seconds']:10.4f} "
              f"{100 * c['share']:6.2f}%" for cls, c in classes.items()]
    for key in ("series_mul_operand_terms", "series_mul_window_width"):
        notes.append(f"{key}: " + ", ".join(
            f"{k}: {v}" for k, v in traffic[key].items()))
    return untraced + traced, metrics, notes, repeated


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    pin_environment()
    if args.setup_only:
        return setup_only(args)
    import_library()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    keep = False
    try:
        setup = None if args.trace else measure_setup(args)
        jobs = workloads.build(args.workload, args.seed, workdir)
        warm_jobs = workloads.one_job_per_class(jobs)
        warm = run_pass(warm_jobs)
        if args.trace:
            passes, metrics, notes, repeated = traced_run(args, jobs)
        else:
            passes, metrics, notes, repeated = timed_run(args, jobs, setup)
        runs = [("warm-up", warm_jobs, warm)] + [
            (number, jobs, p) for number, p in enumerate(passes)]
        # CLI jobs read documents from the work directory: keep it for a
        # failed one, so that its argv can be rerun by hand
        keep = any(js[index].argv is not None
                   for _, js, p in runs for index, *_ in p.failures)
        report_failures(args, runs, workdir if keep else None)
        digests = {p.digest for p in passes}
        failed = sum(len(p.failures) for _, _, p in runs)
        wrong = sum(w for _, _, p in runs for *_, w in p.failures)
        attempted = sum(len(p.times) for _, _, p in runs)
        # a job that raised a library error failed, and counts in
        # ``failed``; a wrong result, verdict or exit code is not correct
        correct = wrong == 0 and len(digests) == 1 and repeated
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"output digest: sha256:{passes[0].digest}" +
          ("" if len(digests) == 1 else
           f" (passes disagree: {len(digests)} distinct digests)"))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
