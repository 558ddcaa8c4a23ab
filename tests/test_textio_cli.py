import json
import os
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import CliRunner, rand_series, series
from sigma_nabla import textio
from sigma_nabla.cli import main
from sigma_nabla.lfunctions import CharPolyTable
from sigma_nabla.modules import SigmaNablaModule
from sigma_nabla.padic import IntPolynomial, PadicNumber
from sigma_nabla.series import LaurentSeries, RingLabel

P, N = 3, 12


def S(terms, **kw):
    return series(P, N, terms, **kw)


def fixture_module():
    return SigmaNablaModule(
        RingLabel("EDagger"), P,
        [[S([(1, 1)])]],
        [[S([(-1, Fraction(1, P - 1))])]])


# ---------------------------------------------------------------------------
# Serialization roundtrips.
# ---------------------------------------------------------------------------


def test_scalar_roundtrip(rng):
    vals = [PadicNumber.from_rational(P, N, Fraction(7, 9)),
            PadicNumber.zero(P, N),
            PadicNumber.inexact_zero(P, N, 4),
            PadicNumber.from_int(P, N, -6)]
    for x in vals:
        back = textio.parse_scalar(P, N, textio.emit_scalar(x))
        assert back.compare(x) in ("equal", "indistinguishable")
        assert back.valuation == x.valuation


def test_series_roundtrip(rng):
    for _ in range(10):
        s = rand_series(rng, P, N, -5, 5, -1, 3, 4)
        doc = textio.emit_series_body(s)
        back = textio.parse_series_body(P, N, doc)
        assert back.window == s.window
        assert back.tail_free == s.tail_free
        assert back.base_floor == s.base_floor
        assert set(back.coeffs) == set(s.coeffs)
        for e in s.coeffs:
            assert back.coeffs[e].agrees(s.coeffs[e])


def test_module_roundtrip():
    mod = fixture_module()
    doc = textio.emit_module(mod)
    back = textio.parse_module(doc)
    assert back.ring == mod.ring
    assert back.q == mod.q
    assert back.phi[0][0].coefficient(1).agrees(mod.phi[0][0].coefficient(1))
    # through text
    text = textio.dumps(doc)
    again = textio.parse_module(textio.loads(text))
    assert again.rank == 1


def test_table_roundtrip(rng):
    t = CharPolyTable(4, ["a", "b"], [(0, 1), (1, 2)],
                      {("a", 0): IntPolynomial([1, -3, 4]),
                       ("b", 0): IntPolynomial([1, -3, 4]),
                       ("a", 1): IntPolynomial([1, 0, -8, 0, 16])})
    back = textio.parse_table(textio.loads(textio.dumps(textio.emit_table(t))))
    assert back.q == t.q and back.places == t.places
    assert back.polys[("a", 1)] == t.polys[("a", 1)]


def test_parse_table_shares_equal_factors():
    # one IntPolynomial per distinct factor: the fixture's two places hold
    # the same factors, and equal factors are one object
    with open(os.path.join(FIXTURES, "charpoly", "table.json")) as fh:
        table = textio.parse_table(json.load(fh))
    distinct = {}
    for key, poly in table.polys.items():
        assert distinct.setdefault(poly, poly) is poly, key
    assert len(distinct) < len(table.polys)
    assert all(table.polys["a", pid] is table.polys["b", pid]
               for pid, _ in table.points)


def test_scalar_matrix_and_polynomial_roundtrip():
    mat = [[PadicNumber.from_int(P, N, 3), PadicNumber.zero(P, N)],
           [PadicNumber.from_rational(P, N, Fraction(1, 2)),
            PadicNumber.from_int(P, N, -1)]]
    doc = textio.emit_scalar_matrix(mat, P, N)
    back = textio.parse_scalar_matrix(doc)
    for ra, rb in zip(mat, back):
        for a, b in zip(ra, rb):
            assert a.compare(b) in ("equal", "indistinguishable")
    frs = [[Fraction(7, 3), Fraction(-2)]]
    assert textio.parse_scalar_matrix(textio.emit_scalar_matrix(frs)) == frs
    poly = IntPolynomial([1, 0, -4, 9])
    assert textio.parse_int_polynomial(
        textio.emit_int_polynomial(poly)) == poly


def test_ring_label_certificate_roundtrip():
    lab = RingLabel("GammaDagger", Fraction(1, 3), Fraction(5, 2))
    assert textio.parse_label(textio.emit_label(lab)) == lab


def test_parse_errors_carry_position():
    with pytest.raises(textio.ParseError) as exc:
        textio.loads("{\n  broken")
    assert exc.value.line is not None
    with pytest.raises(textio.ParseError):
        textio.loads('{"format_version": 99, "kind": "module"}')
    with pytest.raises(textio.ParseError):
        textio.loads('{"format_version": 1}')


def test_deterministic_output():
    doc = textio.emit_module(fixture_module())
    assert textio.dumps(doc) == textio.dumps(textio.emit_module(
        fixture_module()))


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


@pytest.fixture
def runner():
    return CliRunner()


def test_cli_check_module_holds(runner, tmp_path):
    path = tmp_path / "mod.json"
    textio.dump_path(str(path), textio.emit_module(fixture_module()))
    res = runner.invoke(main, ["check-module", str(path)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verdict"] == "holds"
    assert rep["floor"] >= N - 3


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
README_FIXTURE = os.path.join(FIXTURES, "module.json")


def fixture_bytes(*parts):
    with open(os.path.join(FIXTURES, *parts), "rb") as fh:
        return fh.read()


def test_cli_readme_fixture_report(runner):
    # the README example: the checked-in closed-form pair and its report
    with open(README_FIXTURE, encoding="utf-8") as fh:
        assert json.load(fh) == json.loads(
            textio.dumps(textio.emit_module(fixture_module())))
    res = runner.invoke(main, ["check-module", README_FIXTURE])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verdict"] == "holds"
    assert rep["floor"] == 12
    assert rep["window"] == [-127, 127]


def test_cli_golden_check_module_report(runner):
    res = runner.invoke(main, ["check-module", README_FIXTURE])
    assert res.exit_code == 0
    assert res.stdout_bytes == fixture_bytes("module_report.json")


@pytest.mark.parametrize("mode", ["gamma", "robba"])
def test_cli_golden_factors(runner, tmp_path, mode):
    # seeded rank-3 inputs; Y.json and Z.json must stay byte-identical
    x_path = os.path.join(FIXTURES, f"factor_{mode}", "x.json")
    res = runner.invoke(main, ["--out", str(tmp_path), "factor", mode,
                               x_path])
    assert res.exit_code == 0
    for name in ("Y.json", "Z.json"):
        assert (tmp_path / name).read_bytes() == \
            fixture_bytes(f"factor_{mode}", name)


@pytest.mark.parametrize("command, inputs", [
    ("glue", ("m1.json", "m2.json", "x.json")),
    ("descend", ("module.json", "x.json")),
])
def test_cli_golden_glue_descend(runner, command, inputs):
    # seeded rank-3 inputs (the generators of tests/conftest.py); the
    # reports go through smat_inv, basis_transform and Z
    paths = [os.path.join(FIXTURES, command, name) for name in inputs]
    res = runner.invoke(main, [command] + paths)
    assert res.exit_code == 0
    assert res.stdout_bytes == fixture_bytes(command, "report.json")


# (arguments, fixtures read, golden report, exit status); the reports
# were captured before the commands shared one runner
GOLDEN_REPORTS = [
    (["average-projector"], ["average_projector/orbit.json"],
     "average_projector/orbit_report.json", 0),
    (["average-projector"], ["average_projector/group.json"],
     "average_projector/group_report.json", 0),
    # the orbit mean at p = 3: dividing by n = 3 = p costs a digit
    (["average-projector"], ["average_projector/orbit_padic.json"],
     "average_projector/orbit_padic_report.json", 0),
    (["companion"], ["companion/job.json"], "companion/report.json", 0),
    (["lfunction", "--place", "p", "-T", "8"], ["lfunction/table.json"],
     "lfunction/report.json", 0),
    (["trace-check", "--place", "p", "-T", "8"],
     ["lfunction/table.json", "lfunction/cohomology.json"],
     "lfunction/trace_report.json", 0),
    (["trace-check", "--place", "a", "-T", "6"],
     ["charpoly/table.json", "lfunction/cohomology.json"],
     "charpoly/trace_report.json", 1),
    (["compat"], ["charpoly/table.json"], "charpoly/compat_report.json", 0),
    (["purity", "-w", "1"], ["charpoly/table.json"],
     "charpoly/purity_report.json", 0),
    (["purity", "-w", "2"], ["charpoly/table.json"],
     "charpoly/impure_report.json", 1),
    (["pole-order", "--q", "2", "--d", "2"], ["pole_order/poly.json"],
     "pole_order/report.json", 0),
    (["slopes"], ["slopes/frobenius.json"], "slopes/report.json", 0),
    (["horizontal"], ["glue/m2.json"], "horizontal/report.json", 0),
    (["probe-nilpotence"], ["module.json"],
     "probe_nilpotence/report.json", 0),
    (["check-product"], ["factor_gamma/Y.json", "factor_gamma/Z.json",
                         "factor_gamma/x.json"],
     "check_product/holds_report.json", 0),
    # X with one cell of entry (1, 2) moved by 3^5: the witness exponent
    # and the residual valuation are printed
    (["check-product"], ["factor_gamma/Y.json", "factor_gamma/Z.json",
                         "check_product/x_perturbed.json"],
     "check_product/fails_report.json", 1),
    # the glue fixture's first module with the cell u^0 of N's entry
    # (1, 2) moved by 3^5: the compatibility check N*Phi + d(Phi) fails at
    # entry (0, 2), and the B-side diagram of the FV check fails too
    (["check-module"], ["check_module/m1_n_perturbed.json"],
     "check_module/fails_report.json", 1),
    # the glue fixture's first module as it is: the compatibility check
    # and both diagrams of the FV check hold
    (["check-module"], ["glue/m1.json"], "check_module/holds_report.json", 0),
]


@pytest.mark.parametrize("args, inputs, report, code", GOLDEN_REPORTS,
                         ids=[g[2] for g in GOLDEN_REPORTS])
def test_cli_golden_point_reports(runner, args, inputs, report, code):
    paths = [os.path.join(FIXTURES, name) for name in inputs]
    res = runner.invoke(main, args + paths)
    assert res.exit_code == code
    assert res.stdout_bytes == fixture_bytes(report)


def test_cli_out_file_equals_stdout(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["--out", str(out), "check-module",
                               README_FIXTURE])
    assert res.exit_code == 0
    assert out.read_bytes() == res.stdout_bytes == \
        fixture_bytes("module_report.json")


def test_cli_factor_out_is_the_factor_directory(runner, tmp_path):
    # for factor, --out names where Y.json and Z.json go; no report file
    outdir = tmp_path / "factors"
    x_path = os.path.join(FIXTURES, "factor_gamma", "x.json")
    res = runner.invoke(main, ["--out", str(outdir), "factor", "gamma",
                               x_path])
    assert res.exit_code == 0
    assert sorted(os.listdir(outdir)) == ["Y.json", "Z.json"]
    assert sorted(os.listdir(tmp_path)) == ["factors"]
    rep = json.loads(res.output)
    assert rep["command"] == "factor-gamma"
    assert rep["y_path"] == str(outdir / "Y.json")


def _fixture_doc(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def _without(name, key):
    doc = _fixture_doc(name)
    del doc[key]
    return doc


@pytest.mark.parametrize("args, docs", [
    (["pole-order", "--q", "2", "--d", "1"],
     [_without("pole_order/poly.json", "coeffs")]),
    (["factor", "gamma"], [_without("factor_gamma/x.json", "entries")]),
    (["check-product"], [_without("factor_gamma/Y.json", "entries")] * 3),
    (["slopes"], [_without("slopes/frobenius.json", "entries")]),
    (["average-projector"], [_without("average_projector/orbit.json", "n")]),
    (["companion"], [{"format_version": 1, "kind": "companion_job",
                      "f_g": [["5"]], "n": "x"}]),
    (["trace-check", "--place", "p"],
     [textio.loads(fixture_bytes("lfunction", "table.json").decode()),
      _without("lfunction/cohomology.json", "p1")]),
    # places of two types, which purity's sorted report cannot order
    (["purity", "-w", "1"],
     [{"format_version": 1, "kind": "charpoly_table", "q": 4,
       "places": [1, "a"], "points": [[0, 1]],
       "polys": [[1, 0, ["1", "-3", "4"]], ["a", 0, ["1", "-3", "4"]]]}]),
])
def test_cli_malformed_documents_exit_two(runner, tmp_path, args, docs):
    paths = []
    for k, doc in enumerate(docs):
        paths.append(str(tmp_path / f"doc{k}.json"))
        textio.dump_path(paths[-1], doc)
    res = runner.invoke(main, args + paths)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("parse error")
    assert isinstance(res.exception, SystemExit)


IDENTITY_2 = textio.emit_series_matrix(
    [[S([(0, int(i == j))]) for j in range(2)] for i in range(2)], P, N)


@pytest.mark.parametrize("args, docs", [
    (["check-product"], [IDENTITY_2, _fixture_doc("factor_gamma/Z.json"),
                         _fixture_doc("factor_gamma/x.json")]),
    (["descend"], [_fixture_doc("descend/module.json"), IDENTITY_2]),
    (["glue"], [_fixture_doc("glue/m1.json"), _fixture_doc("glue/m2.json"),
                IDENTITY_2]),
    (["slopes"], [{"format_version": 1, "kind": "scalar_matrix",
                   "field": "padic", "p": 3, "nrel": 6,
                   "entries": [["3^0*1 mod 3^6", "3^1*1 mod 3^6"]]}]),
])
def test_cli_shape_mismatch_exits_two(runner, tmp_path, args, docs):
    # each document parses; their sizes disagree, or a square one is not
    paths = []
    for k, doc in enumerate(docs):
        paths.append(str(tmp_path / f"doc{k}.json"))
        textio.dump_path(paths[-1], doc)
    res = runner.invoke(main, args + paths)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("parse error")
    assert "Traceback" not in res.stderr
    assert isinstance(res.exception, SystemExit)


def test_cli_product_past_the_window_cap_exits_one(runner, tmp_path):
    # (1 + u^200)^2 populates u^0 and u^400, which no 256-exponent window
    # holds: WindowOverflow, exit 1, one line on stderr and no report
    wide = textio.emit_series_matrix(
        [[S([(0, 1), (200, 1)], window=(0, 200))]], P, N)
    paths = []
    for k in range(3):
        paths.append(str(tmp_path / f"doc{k}.json"))
        textio.dump_path(paths[-1], wide)
    res = runner.invoke(main, ["check-product"] + paths)
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == (
        "WindowOverflow: populated exponents exceed the window cap\n")


def test_cli_factor_gamma_refutations(runner, tmp_path):
    # [[u, 1], [0, p]] has no constant-Z factorization: exit 1, no report,
    # and the committed stderr line; the singular [[1, 1], [1, 1]] runs out
    # of digits: exit 1 and one PrecisionExhausted line
    path = os.path.join(FIXTURES, "factor_gamma", "unfactorable_x.json")
    x = [[S([(1, 1)]), S([(0, 1)])], [S([]), S([(0, P)])]]
    assert textio.dumps(textio.emit_series_matrix(x, P, N)).encode() == \
        fixture_bytes("factor_gamma", "unfactorable_x.json")
    res = runner.invoke(main, ["factor", "gamma", path])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.encode() == \
        fixture_bytes("factor_gamma", "unfactorable_stderr.txt")
    singular = tmp_path / "singular.json"
    one = S([(0, 1)])
    textio.dump_path(str(singular),
                     textio.emit_series_matrix([[one, one], [one, one]], P, N))
    res = runner.invoke(main, ["factor", "gamma", str(singular)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith("PrecisionExhausted: ")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_cli_check_module_fails(runner, tmp_path):
    bad = SigmaNablaModule(RingLabel("Gamma"), P, [[S([(1, 1)])]],
                           [[S([])]])
    path = tmp_path / "bad.json"
    textio.dump_path(str(path), textio.emit_module(bad))
    res = runner.invoke(main, ["check-module", str(path)])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["verdict"] == "fails"
    assert rep["position"] == [0, 0]


def test_cli_factor_gamma_and_check_product(runner, tmp_path):
    x = [[S([(1, Fraction(1, P))]), S([])], [S([]), S([(0, 1)])]]
    xp = tmp_path / "x.json"
    textio.dump_path(str(xp), textio.emit_series_matrix(x, P, N))
    res = runner.invoke(main, ["factor", "gamma", str(xp)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    res2 = runner.invoke(main, ["check-product", rep["y_path"],
                                rep["z_path"], str(xp)])
    assert res2.exit_code == 0


def test_cli_compat_mismatch_exit_one(runner, tmp_path):
    t = CharPolyTable(2, ["a", "b"], [(0, 1)],
                      {("a", 0): IntPolynomial([1, -2]),
                       ("b", 0): IntPolynomial([1, -3])})
    path = tmp_path / "t.json"
    textio.dump_path(str(path), textio.emit_table(t))
    res = runner.invoke(main, ["compat", str(path)])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["verdict"] == "mismatch"


def test_cli_parse_error_exit_two(runner, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    res = runner.invoke(main, ["check-module", str(path)])
    assert res.exit_code == 2
    # malformed series bodies: a short or reversed window, a fractional or
    # boolean floor, a non-boolean tail_free
    good = textio.emit_module(fixture_module())
    for field, value in (("window", [5]), ("window", [3, 1]),
                         ("window", [0, "1"]), ("window", [False, 4]),
                         ("floor", 2.5), ("floor", True),
                         ("tail_free", "no"), ("tail_free", 1)):
        doc = json.loads(textio.dumps(good))
        doc["phi"][0][0][field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, ["check-module", str(path)])
        assert res.exit_code == 2, (field, value, res.output)
        assert "Traceback" not in res.output
    # a scalar that is not a string, a precision below 1, a p not prime
    for field, value in (("terms", [[1, 7]]), ("nrel", -3), ("nrel", 0),
                         ("p", 4)):
        doc = json.loads(textio.dumps(good))
        if field == "terms":
            doc["phi"][0][0][field] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        res = runner.invoke(main, ["check-module", str(path)])
        assert res.exit_code == 2, (field, value, res.output)
        assert "Traceback" not in res.output
    # a series matrix without its prime
    doc = textio.emit_series_matrix([[S([(0, 1)])]], P, N)
    del doc["p"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    res = runner.invoke(main, ["factor", "gamma", str(path)])
    assert res.exit_code == 2, res.output


def test_cli_purity_and_pole_order(runner, tmp_path):
    t = CharPolyTable(4, ["a"], [(0, 1)],
                      {("a", 0): IntPolynomial([1, -3, 4])})
    tp = tmp_path / "t.json"
    textio.dump_path(str(tp), textio.emit_table(t))
    res = runner.invoke(main, ["purity", "-w", "1", str(tp)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verdict"] == "pure"

    poly = IntPolynomial([1, -4]) * IntPolynomial([1, -4])
    pp = tmp_path / "poly.json"
    textio.dump_path(str(pp), textio.emit_int_polynomial(poly))
    res2 = runner.invoke(main, ["pole-order", "--q", "2", "--d", "2",
                                str(pp)])
    assert res2.exit_code == 0
    assert json.loads(res2.output)["order"] == 2


def test_cli_purity_refutes_a_factor_near_the_circle(runner, tmp_path):
    # |alpha|^2 = 10^8 + 1 != q^2, though both magnitudes are within 5e-9
    # of q = 10^4
    t = CharPolyTable(10 ** 4, ["a"], [(0, 1)],
                      {("a", 0): IntPolynomial([1, 0, 10 ** 8 + 1])})
    tp = tmp_path / "t.json"
    textio.dump_path(str(tp), textio.emit_table(t))
    res = runner.invoke(main, ["purity", "-w", "2", str(tp)])
    assert res.exit_code == 1
    rep = json.loads(res.output)
    assert rep["verdict"] == "impure" and not rep["entries"]["a:0"]["pure"]


@pytest.mark.parametrize("d", [1, -1])
def test_cli_pole_order_rejects_q_below_two(runner, tmp_path, d):
    # q = 0 makes the root t = q^-d undefined (d > 0) or zero (d < 0)
    pp = tmp_path / "poly.json"
    textio.dump_path(str(pp), textio.emit_int_polynomial(
        IntPolynomial([1, -4])))
    res = runner.invoke(main, ["pole-order", "--q", "0", "--d", str(d),
                               str(pp)])
    assert res.exit_code == 2
    assert "--q must be at least 2" in res.output


@pytest.mark.parametrize("command, inputs", [
    ("lfunction", ["table.json"]),
    ("trace-check", ["table.json", "cohomology.json"]),
])
def test_cli_negative_truncation_is_a_usage_error(runner, command, inputs):
    paths = [os.path.join(FIXTURES, "lfunction", name) for name in inputs]
    res = runner.invoke(main, [command, "--place", "p", "-T", "-1"] + paths)
    assert res.exit_code == 2
    assert "-1 is not in the range" in res.output


COMMAND_NAMES = ["check-module", "factor", "check-product", "descend",
                 "glue", "horizontal", "slopes", "probe-nilpotence",
                 "average-projector", "companion", "lfunction", "trace-check",
                 "compat", "purity", "pole-order"]

USAGE_ERRORS = [
    [],
    ["no-such-command"],
    ["check-module", os.path.join(FIXTURES, "no_such_document.json")],
    ["factor", "foo", os.path.join(FIXTURES, "factor_gamma", "x.json")],
    ["lfunction", "--place", "p", "-T", "-1",
     os.path.join(FIXTURES, "lfunction", "table.json")],
    ["pole-order", "--q", "1", "--d", "1",
     os.path.join(FIXTURES, "pole_order", "poly.json")],
    ["--kmax", "-1", "horizontal", os.path.join(FIXTURES, "glue", "m2.json")],
    ["--nmax", "-3", "probe-nilpotence",
     os.path.join(FIXTURES, "module.json")],
    ["lfunction", "--place", "zz",
     os.path.join(FIXTURES, "lfunction", "table.json")],
    ["trace-check", "--place", "zz",
     os.path.join(FIXTURES, "lfunction", "table.json"),
     os.path.join(FIXTURES, "lfunction", "cohomology.json")],
]


def _one_usage_line(stderr):
    return stderr.startswith("sigma-nabla") and ": error: " in stderr \
        and stderr.count("\n") == 1 and stderr.endswith("\n") \
        and "Traceback" not in stderr


@pytest.mark.parametrize("args", USAGE_ERRORS)
def test_cli_usage_error_exits_two(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert _one_usage_line(res.stderr), res.stderr


@pytest.mark.parametrize("args", USAGE_ERRORS)
def test_cli_usage_error_returns_two_without_standalone_mode(capsys, args):
    assert main(args, standalone_mode=False) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert _one_usage_line(err), err


def test_cli_help_lists_every_command(runner, capsys):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    assert res.exception is None
    assert res.stderr == ""
    for name in COMMAND_NAMES:
        assert f"\n    {name} " in res.stdout or \
            f"\n    {name}\n" in res.stdout, name
    assert main(["--help"], standalone_mode=False) == 0
    assert capsys.readouterr().out == res.stdout
    res = runner.invoke(main, ["factor", "--help"])
    assert res.exit_code == 0
    assert "gamma" in res.stdout and "robba" in res.stdout


def test_cli_lfunction_and_trace(runner, tmp_path):
    from conftest import affine_line_table, count_monic_irreducibles
    table = affine_line_table(2, 6, count_monic_irreducibles)
    tp = tmp_path / "table.json"
    textio.dump_path(str(tp), textio.emit_table(table))
    res = runner.invoke(main, ["lfunction", "--place", "p", "-T", "6",
                               str(tp)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["coefficients"] == [str(2 ** k) for k in range(7)]

    coh = {"format_version": 1, "kind": "cohomology",
           "p0": ["1"], "p1": ["1"], "p2": ["1", "-2"]}
    cp = tmp_path / "coh.json"
    textio.dump_path(str(cp), coh)
    res2 = runner.invoke(main, ["trace-check", "--place", "p", "-T", "6",
                                str(tp), str(cp)])
    assert res2.exit_code == 0


def test_cli_slopes_and_probe(runner, tmp_path):
    mat = [[PadicNumber.from_int(5, 10, 0), PadicNumber.from_int(5, 10, 5)],
           [PadicNumber.from_int(5, 10, 1), PadicNumber.from_int(5, 10, 0)]]
    mp = tmp_path / "mat.json"
    textio.dump_path(str(mp), textio.emit_scalar_matrix(mat, 5, 10))
    res = runner.invoke(main, ["slopes", str(mp)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["slopes"] == [["1/2", 2]]
    assert rep["unit_root"] is False

    mod = SigmaNablaModule(RingLabel("E"), P, [[S([(0, 1)])]],
                           [[S([(0, Fraction(1, P))])]])
    mp2 = tmp_path / "mod.json"
    textio.dump_path(str(mp2), textio.emit_module(mod))
    res2 = runner.invoke(main, ["probe-nilpotence", str(mp2)])
    assert res2.exit_code == 1
    assert json.loads(res2.output)["verdict"] == "refuted"


def test_cli_average_and_companion(runner, tmp_path):
    job = {"format_version": 1, "kind": "projector_job", "field": "rational",
           "pi": [["0", "1"], ["0", "1"]],
           "frobenius": [["0", "1"], ["1", "0"]], "n": 2}
    jp = tmp_path / "job.json"
    textio.dump_path(str(jp), job)
    res = runner.invoke(main, ["average-projector", str(jp)])
    assert res.exit_code == 0
    assert json.loads(res.output)["projector"] == \
        [["1/2", "1/2"], ["1/2", "1/2"]]

    cjob = {"format_version": 1, "kind": "companion_job",
            "field": "rational", "f_g": [["5"]], "n": 2}
    cp = tmp_path / "cjob.json"
    textio.dump_path(str(cp), cjob)
    res2 = runner.invoke(main, ["companion", str(cp)])
    assert res2.exit_code == 0
    rep = json.loads(res2.output)
    assert rep["companion"] == [["0", "1"], ["5", "0"]]
    assert rep["nth_iterate"] == [["5", "0"], ["0", "5"]]


def test_cli_descend_and_glue(runner, tmp_path):
    import random

    from conftest import (
        const_series_matrix,
        rand_const_invertible,
        rand_gammaplus_dieudonne,
    )

    from sigma_nabla.modules import basis_transform

    rng = random.Random(11)
    m_plus = rand_gammaplus_dieudonne(rng, P, N, 2)
    m1 = replace(m_plus, ring=RingLabel("Gamma"))
    z0, z0_inv = rand_const_invertible(rng, P, N, 2)
    x = const_series_matrix(z0, P, N)
    m2 = replace(basis_transform(m_plus, x, const_series_matrix(z0_inv, P, N)),
                 ring=RingLabel("EPlus"))
    for name, obj in (("m1", m1), ("m2", m2)):
        textio.dump_path(str(tmp_path / f"{name}.json"),
                         textio.emit_module(obj))
    textio.dump_path(str(tmp_path / "x.json"),
                     textio.emit_series_matrix(x, P, N))
    res = runner.invoke(main, ["glue", str(tmp_path / "m1.json"),
                               str(tmp_path / "m2.json"),
                               str(tmp_path / "x.json")])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["verdict"] == "holds"
    assert rep["module"]["ring"]["kind"] == "GammaPlus"

    from conftest import rand_eplus_module
    mod = replace(rand_eplus_module(rng, P, N, 2), ring=RingLabel("EDagger"))
    textio.dump_path(str(tmp_path / "mod.json"), textio.emit_module(mod))
    from sigma_nabla.linalg import smat_identity
    textio.dump_path(str(tmp_path / "ident.json"),
                     textio.emit_series_matrix(smat_identity(2, P, N), P, N))
    res2 = runner.invoke(main, ["descend", str(tmp_path / "mod.json"),
                                str(tmp_path / "ident.json")])
    assert res2.exit_code == 0
    assert json.loads(res2.output)["module"]["ring"]["kind"] == "EPlus"


def test_cli_glue_refutes_m2_whose_phi_disagrees(runner, tmp_path):
    # the glue fixture's m2 with the cell u^0 of Phi[0][0] moved by 3^5:
    # exit 1, no report, one MembershipViolated line on stderr
    m2 = textio.parse_module(textio.load_path(
        os.path.join(FIXTURES, "glue", "m2.json")))
    phi = [row[:] for row in m2.phi]
    phi[0][0] = phi[0][0] + S([(0, P ** 5)])
    bad = tmp_path / "m2.json"
    textio.dump_path(str(bad), textio.emit_module(replace(m2, phi=phi)))
    res = runner.invoke(main, ["glue", os.path.join(FIXTURES, "glue",
                                                    "m1.json"), str(bad),
                               os.path.join(FIXTURES, "glue", "x.json")])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.startswith(
        "MembershipViolated: x does not carry m1 into m2: phi disagrees")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_cli_horizontal(runner, tmp_path):
    mod = SigmaNablaModule(RingLabel("RPlus"), P, [[S([(0, 1)])]],
                           [[S([])]])
    mp = tmp_path / "mod.json"
    textio.dump_path(str(mp), textio.emit_module(mod))
    res = runner.invoke(main, ["--kmax", "6", "horizontal", str(mp)])
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["degree_achieved"] == 6
    assert not rep["exhausted"]
