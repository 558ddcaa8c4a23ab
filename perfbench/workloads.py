"""The benchmark's workloads: fixed, ordered job lists built from a seed.

A job is one call into public ``sigma_nabla`` functions (for the CLI
workload, one ``sigma_nabla.cli.main(argv, standalone_mode=False)``
call).  Every job carries a check against what its generator built in and
contributes deterministic bytes to the workload's output digest.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import generators as G
from sigma_nabla import cli, factor, lattice, lfunctions, linalg, textio
from sigma_nabla.linalg import smat_agree
from sigma_nabla.padic import IntPolynomial, PadicNumber, vp_int
from sigma_nabla.points import PointFrobenius

NREL = 12
K_MAX = 32              # the CLI's default --kmax


@dataclass
class Outcome:
    ok: bool
    blob: bytes                      # deterministic output, for the digest
    # absolute precision the result claims, in digits: the p-adic floors
    # its verdict reports, or for an exact truncated L-series or trace
    # check the degree in t through which it is exact
    floors: tuple = ()
    reason: str = ""


@dataclass
class Job:
    cls: str                         # job class, for the traffic report
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    argv: Optional[list] = None      # CLI jobs: to rerun by hand


# ---------------------------------------------------------------------------
# Canonical text of library results (the digest input).
# ---------------------------------------------------------------------------


def canon_matrix(mat):
    """A series matrix as its JSON document, the format that must stay
    byte-identical across refactors."""
    p, nrel = mat[0][0].p, mat[0][0].nrel
    return textio.dumps(textio.emit_series_matrix(mat, p, nrel))


def call(module, name, *args):
    """``module.name(*args)``, looked up when the job runs, so that a
    wrapper the traced run installs on the module sees the call."""
    return getattr(module, name)(*args)


def _fail(reason, blob=b""):
    return Outcome(False, blob, (), reason)


# ---------------------------------------------------------------------------
# gamma-factor: the Gamma side, library calls only.
# ---------------------------------------------------------------------------


def _check_gamma_factorization(fact):
    blob = (f"rounds={fact.rounds} det={fact.det_valuation}\n"
            f"{canon_matrix(fact.y)}\n{canon_matrix(fact.z)}").encode()
    verdict = fact.product_verdict
    if not verdict.holds:
        return _fail("product verdict fails", blob)
    if fact.det_valuation != 0:
        return _fail(f"det valuation {fact.det_valuation}", blob)
    if any(e != 0 for row in fact.z for s in row for e, _ in s.items()):
        return _fail("Z is not constant", blob)
    floors = () if verdict.floor is None else (verdict.floor,)
    return Outcome(True, blob, floors)


def _check_inverse(y_inv, inv):
    blob = canon_matrix(inv).encode()
    if not smat_agree(inv, y_inv).holds:
        return _fail("inverse disagrees with the generator's", blob)
    return Outcome(True, blob)


def _check_smith(n, form):
    blob = (f"exponents={form.exponents} rank={form.rank}\n"
            f"{canon_matrix(form.u)}\n{canon_matrix(form.d)}\n"
            f"{canon_matrix(form.w)}").encode()
    if form.rank != n or form.exponents != [0] * n:
        return _fail(f"Smith exponents {form.exponents}, rank {form.rank}",
                     blob)
    return Outcome(True, blob)


# One pass is four batches of acceptance criterion 1
# (tests/test_acceptance.py): 200 factorization round trips with n uniform
# over 1..4, here 25 per (n, p) for p = 3, 5, in each batch.  One batch
# holds only 50 of the n = 4 jobs that take most of the time, and their
# cost varies from input to input; four keep the pass's cost within a few
# percent from seed to seed.  Beside them, lattice_smith and smat_inv on
# Gamma-invertible matrices at n = 2, 3 get one batch per rank of the size
# test_smith_roundtrip_random (tests/test_lattice.py) draws, 10; smat_inv
# has no batch of its own in the tests.  At this revision lattice_smith
# raises NotAUnit or PrecisionExhausted on about one rank-3 input in
# twenty; those jobs count as failed.
GAMMA_FACTOR_PER_CLASS = 25 * 4
GAMMA_FACTOR_RANKS = (1, 2, 3, 4)
GAMMA_INVERTIBLE_PER_CLASS = 10
GAMMA_INVERTIBLE_RANKS = (2, 3)


def build_gamma_factor(rng, workdir):
    jobs = []
    for n in GAMMA_FACTOR_RANKS:
        for p in (3, 5):
            for _ in range(GAMMA_FACTOR_PER_CLASS):
                x = G.gamma_product(rng, p, NREL, n)
                jobs.append(Job(f"matfact_gamma n={n}",
                                partial(call, factor, "matfact_gamma", x),
                                _check_gamma_factorization))
    for n in GAMMA_INVERTIBLE_RANKS:
        for _ in range(GAMMA_INVERTIBLE_PER_CLASS):
            y, y_inv = G.rand_gamma_invertible(rng, 3, NREL, n)
            jobs.append(Job(f"smat_inv n={n}",
                            partial(call, linalg, "smat_inv", y),
                            partial(_check_inverse, y_inv)))
        for _ in range(GAMMA_INVERTIBLE_PER_CLASS):
            y, _ = G.rand_gamma_invertible(rng, 3, NREL, n, inverse=False)
            jobs.append(Job(f"lattice_smith n={n}",
                            partial(call, lattice, "lattice_smith", y),
                            partial(_check_smith, n)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# module-cli: the sigma-nabla commands, in process, on JSON documents.
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """One in-process CLI invocation.  ``cli.main`` is looked up at call
    time so that a wrapper installed on the module attribute sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv, standalone_mode=False)
    return CliResult(code, out.getvalue(), err.getvalue())


def _report_floors(rep):
    return tuple(rep[k] for k in ("product_floor", "floor", "compat_floor",
                                  "fv_floor") if rep.get(k) is not None)


def _check_cli(workdir, expect_code, expect, extra, res):
    """Exit code, then the report's verdict fields, then ``extra``."""
    def norm(text):
        return text.replace(workdir, "<work>")
    blob = f"exit={res.code}\n{norm(res.stdout)}\n{norm(res.stderr)}"
    if res.code != expect_code:
        return _fail(f"exit code {res.code}, expected {expect_code}: "
                     f"{res.stderr.strip()[:200]}", blob.encode())
    rep = {}
    if expect:
        try:
            rep = json.loads(res.stdout)
        except ValueError:
            return _fail("report is not JSON", blob.encode())
        for key, want in expect.items():
            if rep.get(key) != want:
                return _fail(f"{key}={rep.get(key)!r}, expected {want!r}",
                             blob.encode())
    more = b""
    if extra is not None:
        reason, more = extra(rep, res)
        if reason:
            return _fail(reason, blob.encode() + more)
    return Outcome(True, blob.encode() + more, _report_floors(rep))


def _factor_outputs(d, rep, res):
    """Z of a Robba factorization has no negative exponents; the written
    factors join the digest."""
    blobs = []
    for name in ("Y.json", "Z.json"):
        with open(os.path.join(d, name), "rb") as fh:
            blobs.append(fh.read())
    z = json.loads(blobs[1])
    if any(e < 0 for row in z["entries"] for cell in row
           for e, _ in cell["terms"]):
        return "Z has a negative exponent", b"".join(blobs)
    return "", b"".join(blobs)


def _module_ring(kind, rep, res):
    got = rep.get("module", {}).get("ring", {}).get("kind")
    return ("" if got == kind else f"module ring {got!r}, expected {kind!r}",
            b"")


def _horizontal_recovers(a_const, p, rep, res):
    """H agrees with I + uA through degree K_MAX, with the residual above
    the nrel - v_p(K_MAX!) loss bound."""
    if rep.get("degree_achieved") != K_MAX or rep.get("exhausted"):
        return f"degree {rep.get('degree_achieved')} reached", b""
    bound = NREL - vp_int(math.factorial(K_MAX), p)
    resid = rep.get("residual_valuation")
    if resid is not None and resid < bound:
        return f"residual valuation {resid} below {bound}", b""
    h, _, _ = textio.parse_series_matrix(rep["h"])
    n = len(a_const)
    for i in range(n):
        for j in range(n):
            for k in range(K_MAX + 1):
                want = {0: int(i == j), 1: a_const[i][j]}.get(k, 0)
                if not h[i][j].coefficient(k).agrees(
                        PadicNumber.from_int(p, NREL, want)):
                    return f"H[{i}][{j}] differs at degree {k}", b""
    return "", b""


def _slopes_match(vals, rep, res):
    want = {}
    for v in vals:
        want[v] = want.get(v, 0) + 1
    expected = [[str(Fraction(s)), m] for s, m in sorted(want.items())]
    if rep.get("slopes") != expected:
        return f"slopes {rep.get('slopes')}, expected {expected}", b""
    if rep.get("unit_root") != all(v == 0 for v in vals):
        return "unit-root flag disagrees with the slopes", b""
    return "", b""


def _stderr_starts(prefix, rep, res):
    ok = res.stderr.startswith(prefix) and not res.stdout
    return ("" if ok else f"stderr {res.stderr[:80]!r}, expected "
            f"{prefix!r}", b"")


def _dump(path, doc):
    textio.dump_path(path, doc)
    return path


# Ranks of the module-cli instances in one pass; each instance runs the
# full command sequence.  Acceptance criteria 3 and 4 (descent, gluing and
# horizontal sections) draw n uniformly from 1..3, so each rank gets the
# same number of instances: 20, so that the slow n = 3 commands, which set
# jobs_per_s and job_ms_p90, hold enough inputs to read alike from seed to
# seed (at 10 per rank, p90 moved by a fifth between seeds).
CLI_RANKS = (1, 2, 3) * 20
# Ranks of the refutation instances (the Robba factorization of a rank-1
# input never leaves the regime, so these start at 2).
CLI_REFUTE_RANKS = (2, 3) * 2


def build_module_cli(rng, workdir):
    groups = []

    def job(cls, argv, code, expect, extra=None):
        return Job(cls, partial(run_cli, argv),
                   partial(_check_cli, workdir, code, expect, extra), argv)

    def add(*args, **kwargs):
        groups.append([job(*args, **kwargs)])

    p = 3
    for k, n in enumerate(CLI_RANKS):
        d = os.path.join(workdir, f"inst{k}")
        os.makedirs(d)
        x, _, _ = G.rand_robba_regime_x(rng, p, NREL, n)
        x_path = _dump(os.path.join(d, "x.json"),
                       textio.emit_series_matrix(x, p, NREL))
        # check-product reads the factors that factor-robba writes
        groups.append([
            job(f"cli factor-robba n={n}", ["factor", "robba", x_path], 0,
                {"ok": True}, partial(_factor_outputs, d)),
            job(f"cli check-product n={n}",
                ["check-product", os.path.join(d, "Y.json"),
                 os.path.join(d, "Z.json"), x_path], 0,
                {"verdict": "holds"})])

        mod, xd = G.descent_instance(rng, p, NREL, n)
        mod_path = _dump(os.path.join(d, "outward.json"),
                         textio.emit_module(mod))
        xd_path = _dump(os.path.join(d, "xd.json"),
                        textio.emit_series_matrix(xd, p, NREL))
        add(f"cli descend n={n}", ["descend", mod_path, xd_path], 0,
            {"verdict": "holds"}, partial(_module_ring, "EPlus"))

        m1, m2, xg = G.glue_instance(rng, p, NREL, n)
        m1_path = _dump(os.path.join(d, "m1.json"), textio.emit_module(m1))
        m2_path = _dump(os.path.join(d, "m2.json"), textio.emit_module(m2))
        xg_path = _dump(os.path.join(d, "xg.json"),
                        textio.emit_series_matrix(xg, p, NREL))
        add(f"cli glue n={n}", ["glue", m1_path, m2_path, xg_path], 0,
            {"verdict": "holds"}, partial(_module_ring, "GammaPlus"))
        add(f"cli check-module n={n}", ["check-module", m1_path], 0,
            {"verdict": "holds", "fv_verdict": "holds"})

        hp = 5
        hmod, a_const = G.horizontal_module(rng, hp, NREL, n, K_MAX)
        h_path = _dump(os.path.join(d, "horizontal.json"),
                       textio.emit_module(hmod))
        add(f"cli horizontal n={n}", ["horizontal", h_path], 0, {"ok": True},
            partial(_horizontal_recovers, a_const, hp))

        emod = G.rand_eplus_module(rng, p, NREL, n)
        e_path = _dump(os.path.join(d, "eplus.json"),
                       textio.emit_module(emod))
        add(f"cli probe-nilpotence n={n}", ["probe-nilpotence", e_path], 0,
            {"verdict": "plausible"})

        mat, vals = G.slopes_matrix(rng, p, NREL, n + 1)
        s_path = _dump(os.path.join(d, "frobenius.json"),
                       textio.emit_scalar_matrix(mat, p, NREL))
        add(f"cli slopes n={n + 1}", ["slopes", s_path], 0, {"ok": True},
            partial(_slopes_match, vals))

    # refutations: exit 1
    for k, n in enumerate(CLI_REFUTE_RANKS):
        d = os.path.join(workdir, f"refute{k}")
        os.makedirs(d)
        xb, _, _ = G.rand_robba_regime_x(rng, p, NREL, n,
                                           in_regime=False)
        xb_path = _dump(os.path.join(d, "x.json"),
                        textio.emit_series_matrix(xb, p, NREL))
        add(f"cli refute factor-robba n={n}", ["factor", "robba", xb_path],
            1, None, partial(_stderr_starts, "NotConverged"))
        m1, _, _ = G.glue_instance(rng, p, NREL, n)
        bad = G.corrupt_connection(m1, rng)
        bad_path = _dump(os.path.join(d, "corrupt.json"),
                         textio.emit_module(bad))
        add(f"cli refute check-module n={n}", ["check-module", bad_path], 1,
            {"verdict": "fails"})

    # malformed documents: exit 2
    d = os.path.join(workdir, "malformed")
    os.makedirs(d)
    good = textio.dumps(textio.emit_module(
        G.rand_eplus_module(rng, p, NREL, 2)))
    cut = rng.randrange(len(good) // 4, 3 * len(good) // 4)
    broken = {
        "truncated.json": good[:cut],
        "version.json": good.replace('"format_version": 1',
                                     '"format_version": 99'),
        "scalar.json": good.replace(f"{p}^", "7^", 1),
    }
    for name, text in broken.items():
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        add(f"cli malformed {name[:-5]}",
            ["check-module", os.path.join(d, name)], 2, None,
            partial(_stderr_starts, "parse error"))
    # a module where a series matrix is expected
    add("cli malformed kind",
        ["factor", "robba", os.path.join(workdir, "inst0", "eplus.json")], 2,
        None, partial(_stderr_starts, "parse error"))
    rng.shuffle(groups)
    return [j for group in groups for j in group]


# ---------------------------------------------------------------------------
# euler-lfunction: the point-level half, exact rationals only.
# ---------------------------------------------------------------------------


def _frac_text(values):
    return ",".join(str(c) for c in values)


def _check_trace(truncation, verdict):
    """The verdict holds through the asked degree; that degree is the
    t-adic precision it claims."""
    blob = f"consistent={verdict.consistent} T={verdict.truncation} " \
           f"bad={verdict.first_bad_degree}".encode()
    if not verdict.consistent:
        return _fail(f"inconsistent at degree {verdict.first_bad_degree}",
                     blob)
    if verdict.truncation != truncation:
        return _fail(f"checked through degree {verdict.truncation}, "
                     f"asked for {truncation}", blob)
    return Outcome(True, blob, (verdict.truncation,))


def _check_affine(q, truncation, series):
    blob = _frac_text(series.coeffs).encode()
    if list(series.coeffs) != [q ** k for k in range(truncation + 1)]:
        return _fail("Euler product is not 1/(1 - qt)", blob)
    return Outcome(True, blob, (series.truncation,))


def _check_local_polynomial(expected, poly):
    blob = _frac_text(poly.coeffs).encode()
    if list(poly.coeffs) != expected:
        return _fail("local polynomial is not prod(1 - lam_i t)", blob)
    return Outcome(True, blob)


def _check_purity(report):
    blob = "\n".join(
        f"{place}:{pid} {v.pure} " + ",".join(f"{m:.9e}" for m in
                                              v.magnitudes)
        for (place, pid), v in sorted(report.entries.items(),
                                      key=lambda kv: str(kv[0])))
    if not report.all_pure:
        return _fail("a weight-1 factor is reported impure", blob.encode())
    return Outcome(True, blob.encode())


def _check_pole(k, order):
    if order != k:
        return _fail(f"pole order {order}, expected {k}", str(order).encode())
    return Outcome(True, str(order).encode())


# Class counts per pass: the whole batches the tests run, except that of
# the 50 Lefschetz tables at T = 12 of acceptance criterion 7
# (tests/test_acceptance.py) 10 run, because the 50 take half a minute.
# Criterion 7 also checks 100 pole orders, and the Euler products and T = 8
# trace checks of the affine lines over F_2 and F_3;
# test_trace_formula_synthetic_instances checks 8 tables at T = 10, here
# three times over; criterion 8 takes char_coeffs at ranks drawn uniformly from
# 2..4, 60 in all, here 20 per rank, and ranks 5 and 6, which the tests do
# not reach, get the same; test_pure_system_elliptic_style checks 5
# weight-1 systems.  The cost of a Lefschetz table varies tenfold with its
# rank and twists, so no fewer tables keep the pass's cost, and job_ms_p90,
# which falls among the T = 10 tables, steady from seed to seed (with 16 of
# them p90 sat at their second smallest and moved by a tenth).
EULER_LEFSCHETZ = ((12, 10), (10, 24))  # (truncation, instances)
EULER_AFFINE_Q = (2, 3)
EULER_AFFINE_T = 8
EULER_CHARPOLY_RANKS = (2, 3, 4, 5, 6)
EULER_CHARPOLY_PER_RANK = 20
EULER_PURITY_JOBS = 5
EULER_POLE_JOBS = 100


def build_euler_lfunction(rng, workdir):
    jobs = []
    for truncation, count in EULER_LEFSCHETZ:
        for _ in range(count):
            table, ps = G.lefschetz_instance(rng, truncation, 2)
            jobs.append(Job(f"trace_formula_check T={truncation}",
                            partial(call, lfunctions, "trace_formula_check",
                                    table, "p", ps, truncation),
                            partial(_check_trace, truncation)))
    for q in EULER_AFFINE_Q:
        table = G.affine_line_table(q, EULER_AFFINE_T)
        jobs.append(Job(f"lfunction_truncated q={q} T={EULER_AFFINE_T}",
                        partial(call, lfunctions, "lfunction_truncated",
                                table, "p", EULER_AFFINE_T),
                        partial(_check_affine, q, EULER_AFFINE_T)))
        ps = (IntPolynomial([1]), IntPolynomial([1]), IntPolynomial([1, -q]))
        jobs.append(Job(f"trace_formula_check affine T={EULER_AFFINE_T}",
                        partial(call, lfunctions, "trace_formula_check",
                                table, "p", ps, EULER_AFFINE_T),
                        partial(_check_trace, EULER_AFFINE_T)))
    for rank in EULER_CHARPOLY_RANKS:
        for _ in range(EULER_CHARPOLY_PER_RANK):
            f, expected = G.conjugated_frobenius(rng, rank)
            jobs.append(Job(f"local_polynomial rank={rank}",
                            PointFrobenius(2, 1, f).local_polynomial,
                            partial(_check_local_polynomial, expected)))
    for _ in range(EULER_PURITY_JOBS):
        table = G.weight_one_table(rng)
        jobs.append(Job("check_pure_system",
                        partial(call, lfunctions, "check_pure_system",
                                table, 1),
                        _check_purity))
    for _ in range(EULER_POLE_JOBS):
        q = rng.choice([2, 3, 5])
        d = rng.randint(0, 3)
        k = rng.randint(0, 4)
        poly = G.pole_polynomial(rng, q, d, k)
        jobs.append(Job("pole_order_at",
                        partial(call, lfunctions, "pole_order_at", poly, q, d),
                        partial(_check_pole, k)))
    rng.shuffle(jobs)
    return jobs


# Wall seconds of one pass on a 2-core x86-64 host under Python 3.11.7 at
# the revision that defined the benchmark.  run.py divides --seconds by it
# to fix the number of timed passes; it is a constant so that a faster or
# slower revision takes the same number of samples.
PASS_SECONDS = {
    "gamma-factor": 4.0,
    "module-cli": 6.0,
    "euler-lfunction": 12.0,
}

WORKLOADS = {
    "gamma-factor": build_gamma_factor,
    "module-cli": build_module_cli,
    "euler-lfunction": build_euler_lfunction,
}


def one_job_per_class(jobs):
    """The first job of each class, in order: the warm-up.  A
    check-product job keeps the factor-robba job before it, which writes
    the factors it reads."""
    seen, subset = set(), []
    for index, job in enumerate(jobs):
        if job.cls in seen:
            continue
        seen.add(job.cls)
        if job.argv and job.argv[0] == "check-product" and \
                jobs[index - 1] not in subset:
            subset.append(jobs[index - 1])
        subset.append(job)
    return subset


def build(workload, seed, workdir):
    """The fixed, ordered job list of ``workload`` at ``seed``; CLI input
    documents are written under ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir)
