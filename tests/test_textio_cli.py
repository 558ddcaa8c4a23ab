import glob
import json
import os
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CliRunner, rand_series, series
from sigma_nabla import factor, kernel, textio
from sigma_nabla import series as series_module
from sigma_nabla.cli import main
from sigma_nabla.kernel import product_term
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


# the second "coeffs" would make this 1 + 2t, the first 1
REPEATED_KEY = ('{"format_version": 1, "kind": "int_polynomial", '
                '"coeffs": ["1"], "coeffs": ["1", "2"]}')


def test_parse_errors_carry_position():
    with pytest.raises(textio.ParseError) as exc:
        textio.loads("{\n  broken")
    assert exc.value.line is not None
    with pytest.raises(textio.ParseError):
        textio.loads('{"format_version": 99, "kind": "module"}')
    with pytest.raises(textio.ParseError):
        textio.loads('{"format_version": 1}')
    with pytest.raises(textio.ParseError, match="top level must be an obj"):
        textio.loads('[{"format_version": 1, "kind": "module"}]')
    with pytest.raises(textio.ParseError,
                       match="the key 'coeffs' is listed twice"):
        textio.loads(REPEATED_KEY)
    # in a nested object too
    with pytest.raises(textio.ParseError, match="the key 'a' is listed"):
        textio.loads('{"format_version": 1, "kind": "module", '
                     '"phi": {"a": 1, "b": 2, "a": 1}}')


# what the writer meets in a document, and near misses of a series'
# terms: [int, str] pairs next to pairs of a bool and a string, of two
# ints, and triples
_leaves = st.one_of(st.text(), st.integers(-10 ** 30, 10 ** 30),
                    st.booleans(), st.none(), st.floats())
_term_lists = st.lists(st.one_of(
    st.tuples(st.integers(-40, 40), st.text(max_size=6)),
    st.tuples(st.booleans(), st.text(max_size=2)),
    st.tuples(st.integers(), st.integers()),
    st.tuples(st.integers(), st.text(max_size=2), st.integers()),
).map(list), max_size=4)
_documents = st.recursive(
    st.one_of(_leaves, _term_lists),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_documents)
@example({"terms": [[0, "\u00e9\x01\n"], [-3, ""]], "e": {}, "l": [],
          "t": ((), (1, "a"))})
@example([[True, "x"], [1, 2], [1, "a", 3], [1, "a"]])
@example([float("nan"), float("inf"), -float("inf"), -0.0, 10 ** 30])
def test_dumps_is_json_indented_by_one_with_sorted_keys(doc):
    assert textio.dumps(doc) == \
        json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_every_fixture_dumps_to_its_own_bytes():
    paths = glob.glob(os.path.join(FIXTURES, "**", "*.json"), recursive=True)
    assert len(paths) >= 47
    for path in paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        assert textio.dumps(json.loads(raw)).encode() == raw, path


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


def _fixture_doc(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


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


@pytest.mark.parametrize("out, golden, weights", [
    ("gamma", "factor_gamma", {1, 2}),
    ("robba", "factor_robba", set()),
    # p = 5, nrel 8: the rounds combine columns with weights 2, 3 and 4,
    # which the p = 3 golden does not reach
    ("gamma_p5", "factor_gamma_p5", {1, 2, 3, 4}),
], ids=["gamma", "robba", "gamma_p5"])
def test_cli_golden_factors(runner, tmp_path, monkeypatch, out, golden,
                            weights):
    # seeded rank-3 inputs, factored into a relative --out, so that the
    # report names the same paths on every machine; the report, Y.json and
    # Z.json must stay byte-identical, and the Gamma rounds combine
    # columns with the given weights (the Robba factorization takes none)
    seen = set()
    mod_p_kernel = factor._mod_p_kernel

    def spy(rows, p, n):
        vec = mod_p_kernel(rows, p, n)
        if vec is not None:
            inv = pow(vec[max(i for i, v in enumerate(vec) if v)], -1, p)
            seen.update(v * inv % p for v in vec if v)
        return vec

    monkeypatch.setattr(factor, "_mod_p_kernel", spy)
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, ["--out", out, "factor", out.split("_")[0],
                               os.path.join(FIXTURES, golden, "x.json")])
    assert res.exit_code == 0
    assert res.stdout_bytes == fixture_bytes(golden, "report.json")
    for name in ("Y.json", "Z.json"):
        assert (tmp_path / out / name).read_bytes() == \
            fixture_bytes(golden, name)
    assert seen == weights


@pytest.mark.parametrize("golden", ["factor_gamma", "factor_gamma_p5",
                                    "factor_robba"])
def test_cli_check_product_agrees_with_the_gamma_product_floor(runner,
                                                               golden):
    # check-product on each golden's Y, Z and X holds at the product_floor
    # the factorization reported, which closes with the same check; a
    # Gamma golden's Z has exact zeros (the Robba golden's Z has none)
    paths = [os.path.join(FIXTURES, golden, name)
             for name in ("Y.json", "Z.json", "x.json")]
    z = textio.parse_series_matrix(textio.load_path(paths[1]))[0]
    if golden != "factor_robba":
        assert any(s.is_exact_zero for row in z for s in row)
    res = runner.invoke(main, ["check-product"] + paths)
    assert res.exit_code == 0
    report = json.loads(fixture_bytes(golden, "report.json"))
    assert json.loads(res.output)["floor"] == report["product_floor"]


@pytest.mark.parametrize("golden", ["factor_gamma", "factor_gamma_p5"])
def test_cli_check_product_on_a_floored_gamma_z_folds_products(
        runner, tmp_path, monkeypatch, golden):
    # the golden's Z reads back as exact constants, which weight Y with no
    # product formed; a copy with every floor null set to 1000 is no longer
    # exact, so every pair of Y * Z is a kernel product, and the report
    # must be the same byte for byte
    paths = [os.path.join(FIXTURES, golden, name)
             for name in ("Y.json", "Z.json", "x.json")]
    text = fixture_bytes(golden, "Z.json").decode()
    assert '"floor": null' in text
    floored = tmp_path / "Z.json"
    floored.write_text(text.replace('"floor": null', '"floor": 1000'))
    products = []

    def counting(pair, out_window):
        products.append(pair)
        return product_term(pair, out_window)

    monkeypatch.setattr(kernel, "product_term", counting)
    monkeypatch.setattr(series_module, "product_term", counting)
    outputs, counts = [], []
    for z in (paths[1], str(floored)):
        products.clear()
        res = runner.invoke(main, ["check-product", paths[0], z, paths[2]])
        assert res.exit_code == 0
        outputs.append(res.stdout_bytes)
        counts.append(len(products))
    n = len(json.loads(fixture_bytes(golden, "x.json"))["entries"])
    assert counts == [0, n ** 3]
    assert outputs[0] == outputs[1]
    report = json.loads(fixture_bytes(golden, "report.json"))
    assert json.loads(outputs[0])["floor"] == report["product_floor"]


def _padded_cells(name):
    """(a file name, the fixture module ``name`` with every cell padded by
    spaces and its exponents and units by a leading zero)."""
    doc = _fixture_doc(name)
    for key in ("phi", "n", "b"):
        for term in (t for row in doc[key] for body in row
                     for t in body["terms"]):
            digits = re.sub(r"([*^])(-?)([0-9]+)", r"\g<1>\g<2>0\3", term[1])
            term[1] = f" {digits} "
    return os.path.basename(name).replace(".json", "_padded.json"), doc


# (arguments, inputs, golden report, exit status): each input is a fixture
# name, or a (name, document) pair built here; the reports were captured
# before the commands shared one runner
GOLDEN_REPORTS = [
    # the README example
    (["check-module"], ["module.json"], "module_report.json", 0),
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
    # the same module padded: the reader takes its cells one by one, and
    # the report is the same byte for byte
    (["check-module"], [_padded_cells("glue/m1.json")],
     "check_module/holds_report.json", 0),
    # seeded rank-3 inputs (the generators of tests/conftest.py); the
    # reports go through smat_inv, basis_transform and Z
    (["glue"], ["glue/m1.json", "glue/m2.json", "glue/x.json"],
     "glue/report.json", 0),
    (["descend"], ["descend/module.json", "descend/x.json"],
     "descend/report.json", 0),
]


def _golden_id(row):
    """The row's report, then the name of each input built here."""
    _, inputs, report, _ = row
    return "-".join([report] + [x[0] for x in inputs
                                if not isinstance(x, str)])


@pytest.mark.parametrize("args, inputs, report, code", GOLDEN_REPORTS,
                         ids=map(_golden_id, GOLDEN_REPORTS))
def test_cli_golden_point_reports(runner, tmp_path, args, inputs, report,
                                  code):
    paths = []
    for x in inputs:
        if isinstance(x, str):
            paths.append(os.path.join(FIXTURES, x))
        else:
            paths.append(str(tmp_path / x[0]))
            textio.dump_path(paths[-1], x[1])
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


def _without(name, key):
    doc = _fixture_doc(name)
    del doc[key]
    return doc


def _repeated_term():
    # an exponent listed twice in a series' terms, with different values
    doc = _fixture_doc("factor_gamma/x.json")
    terms = doc["entries"][0][0]["terms"]
    terms.append([terms[0][0], "3^0*1 mod 3^11"])
    return doc


def _repeated_factor():
    # a (place, point) pair listed twice in a table's polys
    doc = _fixture_doc("lfunction/table.json")
    doc["polys"].append(doc["polys"][0][:2] + [["1", "2", "-1", "-1"]])
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
    (["factor", "gamma"], [_repeated_term()]),
    (["lfunction", "--place", "p", "-T", "8"], [_repeated_factor()]),
    # a document whose top level is an array
    (["pole-order", "--q", "2", "--d", "1"],
     [[{"format_version": 1, "kind": "int_polynomial", "coeffs": ["1"]}]]),
])
def test_cli_malformed_documents_exit_two(runner, tmp_path, args, docs):
    paths = []
    for k, doc in enumerate(docs):
        paths.append(str(tmp_path / f"doc{k}.json"))
        textio.dump_path(paths[-1], doc)
    res = runner.invoke(main, args + paths)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("parse error")
    assert "Traceback" not in res.stderr
    assert isinstance(res.exception, SystemExit)


IDENTITY_2 = textio.emit_series_matrix(
    [[S([(0, int(i == j))]) for j in range(2)] for i in range(2)], P, N)
# the 3x3 identity at p = 5, against fixtures at p = 3
IDENTITY_3_AT_5 = textio.emit_series_matrix(
    [[series(5, N, [(0, int(i == j))]) for j in range(3)] for i in range(3)],
    5, N)


@pytest.mark.parametrize("args, docs", [
    (["check-product"], [IDENTITY_2, _fixture_doc("factor_gamma/Z.json"),
                         _fixture_doc("factor_gamma/x.json")]),
    (["descend"], [_fixture_doc("descend/module.json"), IDENTITY_2]),
    (["glue"], [_fixture_doc("glue/m1.json"), _fixture_doc("glue/m2.json"),
                IDENTITY_2]),
    (["slopes"], [{"format_version": 1, "kind": "scalar_matrix",
                   "field": "padic", "p": 3, "nrel": 6,
                   "entries": [["3^0*1 mod 3^6", "3^1*1 mod 3^6"]]}]),
    (["check-product"], [IDENTITY_3_AT_5, _fixture_doc("factor_gamma/Z.json"),
                         _fixture_doc("factor_gamma/x.json")]),
    (["descend"], [_fixture_doc("descend/module.json"), IDENTITY_3_AT_5]),
    (["glue"], [_fixture_doc("glue/m1.json"), _fixture_doc("glue/m2.json"),
                IDENTITY_3_AT_5]),
    (["slopes"], [{"format_version": 1, "kind": "scalar_matrix",
                   "field": "rational", "entries": [["1", "0"], ["0", "1"]]}]),
])
def test_cli_shape_mismatch_exits_two(runner, tmp_path, args, docs):
    # each document parses; their sizes or primes disagree, a square one is
    # not, or slopes gets a rational matrix
    paths = []
    for k, doc in enumerate(docs):
        paths.append(str(tmp_path / f"doc{k}.json"))
        textio.dump_path(paths[-1], doc)
    res = runner.invoke(main, args + paths)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("parse error")
    assert res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr
    assert isinstance(res.exception, SystemExit)


def test_cli_documents_at_different_nrel_run_at_the_smaller(runner, tmp_path):
    # the same prime and different nrel is not a parse error: X read at
    # nrel 10 caps the residual, and Y * Z = X still holds
    x = _fixture_doc("factor_gamma/x.json")
    x["nrel"] = 10
    paths = [os.path.join(FIXTURES, "factor_gamma", "Y.json"),
             os.path.join(FIXTURES, "factor_gamma", "Z.json"),
             str(tmp_path / "x10.json")]
    textio.dump_path(paths[2], x)
    res = runner.invoke(main, ["check-product"] + paths)
    assert res.exit_code == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["verdict"] == "holds"
    assert report["floor"] <= 10


def test_cli_check_product_refutes_nothing_outside_a_truncated_zero(
        runner, tmp_path):
    # Y = [[0]] known on (-5, 5) only: Y * Z is unknown at 10, so X = u^10
    # is no refutation there, and the product holds
    zero = LaurentSeries.zero(P, N, (-5, 5)).on_window((-5, 5), False)
    paths = []
    for name, s in (("y", zero), ("z", S([(0, 1)])), ("x", S([(10, 1)]))):
        paths.append(str(tmp_path / f"{name}.json"))
        textio.dump_path(paths[-1], textio.emit_series_matrix([[s]], P, N))
    res = runner.invoke(main, ["check-product"] + paths)
    assert res.exit_code == 0, res.output
    report = json.loads(res.stdout)
    assert (report["verdict"], report["ok"]) == ("holds", True)


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


@pytest.mark.parametrize("command, x, stderr", [
    # the minus part of 1 + u + 3u^-2 stops gaining digits: the Robba
    # iteration stalls
    (["factor", "robba"], [[S([(-2, 3), (0, 1), (1, 1)])]],
     "NotConverged: minus part stalled at valuation 6\n"),
    # a zero X has no inverse for the basis transform
    (["descend", os.path.join(FIXTURES, "descend", "module.json")],
     [[S([]) for _ in range(3)] for _ in range(3)],
     "NotAUnit: series is zero at working precision\n"),
])
def test_cli_mathematical_failures_exit_one(runner, tmp_path, command, x,
                                            stderr):
    path = tmp_path / "x.json"
    textio.dump_path(str(path), textio.emit_series_matrix(x, P, N))
    res = runner.invoke(main, command + [str(path)])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == stderr


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
    # a key listed twice: read as 1 + 2t, the document would run
    path.write_text(REPEATED_KEY, encoding="utf-8")
    res = runner.invoke(main, ["pole-order", "--q", "2", "--d", "1",
                               str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == \
        "parse error: the key 'coeffs' is listed twice in one object\n"
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
    ["--kmax", "x", "horizontal", os.path.join(FIXTURES, "glue", "m2.json")],
    ["--nmax", "-3", "probe-nilpotence",
     os.path.join(FIXTURES, "module.json")],
    ["lfunction", "--place", "zz",
     os.path.join(FIXTURES, "lfunction", "table.json")],
    ["trace-check", "--place", "zz",
     os.path.join(FIXTURES, "lfunction", "table.json"),
     os.path.join(FIXTURES, "lfunction", "cohomology.json")],
    ["--nmax", "-1", "probe-nilpotence",
     os.path.join(FIXTURES, "module.json")],
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


# ---------------------------------------------------------------------------
# The series reader against the cell-by-cell reading.
# ---------------------------------------------------------------------------


def reference_series_body(p, nrel, obj):
    """The cell-by-cell reading of a series body whose window, floor and
    tail_free are well formed: ``from_cells`` on ``_scalar_cell``
    readings."""
    terms = obj["terms"]
    cells = {textio._int(e, "an exponent"): textio._scalar_cell(p, nrel, c)
             for e, c in terms}
    if len(cells) != len(terms):
        raise textio.ParseError(
            f"bad series: exponent "
            f"{textio._repeated(e for e, _ in terms)} is listed twice")
    return LaurentSeries.from_cells(p, nrel, cells, tuple(obj["window"]),
                                    obj.get("tail_free", True),
                                    obj.get("floor"))


def _reading(read, p, nrel, obj):
    """The integer form ``read`` gives, or its exception's type and text."""
    try:
        s = read(p, nrel, obj)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (s.p, s.nrel, s.base, s.terms, s.floors, s.window, s.tail_free,
            s.base_floor)


def _draw_cell(rng, p, nrel, odd):
    """A cell text as ``cell_text`` writes it, or with ``odd`` now and then
    in a spelling the reader must hand on cell by cell."""
    val = rng.randint(-3, 6)
    unit = rng.randrange(1, p ** 6)
    if rng.random() < 0.2:
        unit *= p                       # a unit divisible by p
    prec = rng.choice([rng.randint(1, nrel), rng.randint(-2, 0),
                       nrel + rng.randint(1, 3)])
    text = f"{p}^{val}*{unit} mod {p}^{prec}"
    kind = rng.random() if odd else 1
    if kind < 0.04:
        return "0"
    if kind < 0.08:
        return f"O({p}^{val})"
    if kind < 0.10:
        return f" {text} "
    if kind < 0.12:
        return f"{p}^{val:03d}*0{unit} mod {p}^0{prec}"
    return text


def _malformed(rng, p, nrel):
    """A term that no reading accepts, in one of the ways a document can
    hold one."""
    good = f"{p}^1*2 mod {p}^{nrel}"
    return rng.choice([
        [0, f"7^1*2 mod {p}^{nrel}"], [0, f"{p}^1*2 mod 7^{nrel}"],
        [0, f"{p}^x*2 mod {p}^{nrel}"], [0, f"{p}^1*2.5 mod {p}^{nrel}"],
        [0, ""], [0, f"{p}^1 mod"], [0, 5], [0, None], [0, [good]],
        [0, f"{p}^1*{'1' * 5000} mod {p}^{nrel}"],
        ["0", good], [True, good], [0.5, good], [0, good, 1], [0],
        "ab", f"{p}^1*2 mod {p}^{nrel}\n{good}"])


@pytest.mark.parametrize("p", [3, 5])
def test_series_reader_gives_the_cell_by_cell_integer_form(p):
    rng = random.Random(p)
    fast = 0
    for draw in range(600):
        nrel = rng.randint(1, 12)
        odd = rng.random() < 0.5
        exps = rng.sample(range(-8, 9), rng.randint(0, 10))
        terms = [[e, _draw_cell(rng, p, nrel, odd)] for e in exps]
        if terms and odd and rng.random() < 0.2:
            terms.append([rng.choice(exps), _draw_cell(rng, p, nrel, odd)])
        # a window that holds every exponent, or one that may cut some
        lo = -8 if rng.random() < 0.5 else rng.randint(-10, 3)
        obj = {"window": [lo, lo + rng.randint(3, 20)], "terms": terms,
               "tail_free": rng.random() < 0.7}
        if rng.random() < 0.4:
            obj["floor"] = rng.randint(-2, 10)
        if rng.random() < 0.1:
            obj["terms"] = terms + [_malformed(rng, p, nrel)]
        got = _reading(textio.parse_series_body, p, nrel, obj)
        assert got == _reading(reference_series_body, p, nrel, obj), \
            (draw, obj)
        fast += textio._read_cells(p, nrel, obj["terms"],
                                   obj["window"]) is not None
    # both readings are exercised
    assert 100 <= fast <= 500, fast
