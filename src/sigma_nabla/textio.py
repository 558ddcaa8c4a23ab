"""Structured-text (JSON) serialization for every domain type.

One document per file, UTF-8, newline-normalised.  Every document is an
object with ``format_version`` and ``kind``.  Scalars are decimal strings
("p^v*m mod p^N", "0", or "O(p^k)") so no integer-width limits apply;
series are lists of [exponent, scalar] pairs plus a window; matrices are
row-major nested lists; ring labels are strings with their certificate.

``expect_kind`` is the one entry point for a loaded document: it checks
the kind, runs that kind's parser, and turns any KeyError, IndexError,
TypeError, ValueError or ZeroDivisionError the parser raises on malformed
data into a ``ParseError``.  The parsers raise ``ParseError`` themselves
only for range checks the Python types do not make.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial

from .errors import ParseError
from .lfunctions import CharPolyTable
from .modules import SigmaNablaModule
from .padic import IntPolynomial, PadicNumber, cell_text, is_prime
from .points import average_projector, average_projector_group
from .series import LaurentSeries, RingLabel

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------


def emit_scalar(x: PadicNumber) -> str:
    return cell_text(x.p, (x.val, x.unit, x.prec))


def _scalar_cell(p, nrel, s):
    """(val, unit, prec) of a scalar string, read as ``PadicNumber._make``
    reads them: val None for "0", unit None for O(p^val)."""
    if not isinstance(s, str):
        raise ParseError(f"a scalar must be a string, not {s!r}")
    s = s.strip()
    if s == "0":
        return None, None, None
    if s.startswith("O(") and s.endswith(")"):
        return _power(p, s, s[2:-1]), None, None
    head, _, tail = s.partition(" mod ")
    pv, _, m = head.partition("*")
    return _power(p, s, pv), int(m), _power(p, s, tail) if tail else nrel


def _power(p, s, text):
    """The exponent k of the text p^k in the scalar s."""
    base, _, k = text.partition("^")
    if int(base) != p:
        raise ParseError(f"bad scalar {s!r}: prime mismatch: {base} vs {p}")
    return int(k)


def parse_scalar(p, nrel, s) -> PadicNumber:
    val, unit, prec = _scalar_cell(p, nrel, s)
    if val is None:
        return PadicNumber.zero(p, nrel)
    if unit is None:
        return PadicNumber.inexact_zero(p, nrel, val)
    return PadicNumber._make(p, nrel, val, unit, prec)


def emit_fraction(x) -> str:
    return str(Fraction(x))


def parse_fraction(s):
    return Fraction(str(s))


# ---------------------------------------------------------------------------
# Series and labels.
# ---------------------------------------------------------------------------


def emit_label(label: RingLabel):
    return {"kind": label.kind, "lam": emit_fraction(label.lam),
            "c": emit_fraction(label.c)}


def parse_label(obj) -> RingLabel:
    if isinstance(obj, str):
        return RingLabel(obj)
    return RingLabel(obj["kind"], parse_fraction(obj.get("lam", "1/2")),
                     parse_fraction(obj.get("c", "0")))


def emit_series_body(s: LaurentSeries):
    return {
        "window": list(s.window),
        "terms": [[e, cell_text(s.p, (v, unit, prec))]
                  for e, v, unit, prec in s.cells()],
        "tail_free": s.tail_free,
        "floor": s.base_floor,
    }


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int(x, what, low=None):
    """``x`` checked to be an integer, and at least ``low`` when given."""
    if not _is_int(x) or (low is not None and x < low):
        bound = "" if low is None else f" >= {low}"
        raise ParseError(f"{what} must be an integer{bound}, not {x!r}")
    return x


def _p_nrel(obj):
    """A document's prime p and relative precision nrel >= 1."""
    p = obj.get("p")
    if not (_is_int(p) and is_prime(p)):
        raise ParseError(f"p must be a prime, not {p!r}")
    return p, _int(obj.get("nrel"), "nrel", 1)


def parse_series_body(p, nrel, obj) -> LaurentSeries:
    window = obj["window"]
    floor = obj.get("floor")
    tail_free = obj.get("tail_free", True)
    if not (isinstance(window, (list, tuple)) and len(window) == 2
            and _is_int(window[0]) and _is_int(window[1])
            and window[0] <= window[1]):
        raise ParseError(f"bad series: window must be two integers "
                         f"lo <= hi, not {window!r}")
    if floor is not None and not _is_int(floor):
        raise ParseError(f"bad series: floor must be an integer or null, "
                         f"not {floor!r}")
    if not isinstance(tail_free, bool):
        raise ParseError(f"bad series: tail_free must be a boolean, not "
                         f"{tail_free!r}")
    cells = {_int(e, "an exponent"): _scalar_cell(p, nrel, c)
             for e, c in obj["terms"]}
    return LaurentSeries.from_cells(p, nrel, cells, tuple(window), tail_free,
                                    floor)


def emit_series_matrix(mat, p, nrel):
    return {"format_version": FORMAT_VERSION, "kind": "series_matrix",
            "p": p, "nrel": nrel,
            "entries": [[emit_series_body(s) for s in row] for row in mat]}


def _matrix(rows, parse_entry):
    """A non-empty rectangular matrix of parsed entries."""
    mat = [[parse_entry(x) for x in row] for row in rows]
    if not mat or not mat[0] or any(len(row) != len(mat[0]) for row in mat):
        raise ParseError("entries must form a rectangular matrix")
    return mat


def _square(rows, parse_entry, side=None):
    """A square matrix of parsed entries, with ``side`` rows when given."""
    return require_square(_matrix(rows, parse_entry), side)


def require_square(mat, side=None, what="a square matrix"):
    """``mat`` when it is square, with ``side`` rows when given; else
    ``ParseError`` naming it ``what``."""
    if len(mat[0]) != len(mat) or side not in (None, len(mat)):
        raise ParseError(f"expected {what} of side {side or len(mat)}, not "
                         f"{len(mat)}x{len(mat[0])}")
    return mat


def parse_series_matrix(obj):
    p, nrel = _p_nrel(obj)
    return _matrix(obj["entries"], partial(parse_series_body, p, nrel)), \
        p, nrel


# ---------------------------------------------------------------------------
# Modules.
# ---------------------------------------------------------------------------


def emit_module(mod: SigmaNablaModule):
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "module",
        "p": mod.p,
        "nrel": mod.nrel,
        "q": mod.q,
        "rank": mod.rank,
        "ring": emit_label(mod.ring),
        "phi": [[emit_series_body(s) for s in row] for row in mod.phi],
        "n": [[emit_series_body(s) for s in row] for row in mod.nmat],
    }
    if mod.bmat is not None:
        doc["b"] = [[emit_series_body(s) for s in row] for row in mod.bmat]
    return doc


def parse_module(obj) -> SigmaNablaModule:
    p, nrel = _p_nrel(obj)

    def matrix(key):
        return _matrix(obj[key], partial(parse_series_body, p, nrel))

    return SigmaNablaModule(parse_label(obj["ring"]), _int(obj["q"], "q", 2),
                            matrix("phi"), matrix("n"),
                            matrix("b") if obj.get("b") is not None else None)


# ---------------------------------------------------------------------------
# Scalar matrices, polynomials, tables.
# ---------------------------------------------------------------------------


def emit_entries(mat):
    """The rows of a matrix of Fractions or p-adic scalars, as strings."""
    return [[emit_scalar(x) if isinstance(x, PadicNumber) else
             emit_fraction(x) for x in row] for row in mat]


def emit_scalar_matrix(mat, p=None, nrel=None):
    doc = {"format_version": FORMAT_VERSION, "kind": "scalar_matrix",
           "field": "rational", "entries": emit_entries(mat)}
    if p is not None:
        doc.update(field="padic", p=p, nrel=nrel)
    return doc


def _scalar_parser(obj):
    """The entry parser of a document's scalar ``field``."""
    field = obj.get("field", "rational")
    if field == "rational":
        return parse_fraction
    if field == "padic":
        return partial(parse_scalar, *_p_nrel(obj))
    raise ParseError(f"unknown scalar field {field!r}")


def parse_scalar_matrix(obj):
    return _matrix(obj["entries"], _scalar_parser(obj))


def emit_int_polynomial(poly: IntPolynomial):
    return {"format_version": FORMAT_VERSION, "kind": "int_polynomial",
            "coeffs": [emit_fraction(c) for c in poly.coeffs]}


def _polynomial(coeffs):
    return IntPolynomial([parse_fraction(c) for c in coeffs])


def parse_int_polynomial(obj) -> IntPolynomial:
    return _polynomial(obj["coeffs"])


def emit_table(table):
    return {
        "format_version": FORMAT_VERSION,
        "kind": "charpoly_table",
        "q": table.q,
        "places": list(table.places),
        "points": [[pid, deg] for pid, deg in table.points],
        "polys": [
            [place, pid, [emit_fraction(c) for c in poly.coeffs]]
            for (place, pid), poly in sorted(
                table.polys.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ],
    }


def parse_table(obj):
    points = [(pid, _int(deg, "a point degree", 1))
              for pid, deg in obj["points"]]
    # equal factors share one object, so the Euler product's count of
    # repeated factors settles each dict hit on identity
    polys, shared = {}, {}
    for place, pid, coeffs in obj["polys"]:
        poly = _polynomial(coeffs)
        polys[place, pid] = shared.setdefault(poly, poly)
    # det(1 - t^deg Frob_x) is a polynomial in t^deg, as purity assumes
    degs = dict(points)
    for (place, pid), poly in polys.items():
        if any(c for i, c in enumerate(poly.coeffs) if i % degs.get(pid, 1)):
            raise ParseError(f"the factor at ({place}, {pid}) is not a "
                             f"polynomial in t^deg")
    places = list(obj["places"])
    if not all(isinstance(place, str) for place in places):
        raise ParseError(f"places must be strings, not {places!r}")
    return CharPolyTable(_int(obj["q"], "q", 2), places, points, polys)


# ---------------------------------------------------------------------------
# Jobs of the point-level commands.
# ---------------------------------------------------------------------------


def parse_projector_job(obj):
    """Averaging along the Frobenius orbit, as a call of
    ``average_projector`` on the document's pi, Frobenius and n."""
    parse = _scalar_parser(obj)
    pi = _square(obj["pi"], parse)
    return partial(average_projector, pi,
                   _square(obj["frobenius"], parse, len(pi)),
                   _int(obj["n"], "n", 1))


def parse_projector_group_job(obj):
    """Averaging over a descent datum, as a call of
    ``average_projector_group``; the group table must give a product
    among the cocycle's labels for every ordered pair of them."""
    parse = _scalar_parser(obj)
    pi = _square(obj["pi"], parse)
    cocycle = [(g, _square(m, parse, len(pi))) for g, m in obj["cocycle"]]
    labels = {g for g, _ in cocycle}
    table = {(g, h): gh for g, h, gh in obj["table"]}
    if not cocycle or len(labels) != len(cocycle):
        raise ParseError("the cocycle needs distinct labels")
    if set(table) != {(g, h) for g in labels for h in labels} or \
            not set(table.values()) <= labels:
        raise ParseError("the group table must multiply every ordered pair "
                         "of cocycle labels into a label")
    return partial(average_projector_group, pi, cocycle, table)


def parse_companion_job(obj):
    """(f_g, n) of a block-companion job."""
    return _square(obj["f_g"], _scalar_parser(obj)), \
        _int(obj["n"], "n", 1)


def parse_cohomology(obj):
    """(P0, P1, P2), each with constant term 1."""
    polys = tuple(_polynomial(obj[k]) for k in ("p0", "p1", "p2"))
    if any(poly.coeffs[0] != 1 for poly in polys):
        raise ParseError("P0, P1 and P2 need constant term 1")
    return polys


# ---------------------------------------------------------------------------
# Documents.
# ---------------------------------------------------------------------------


def dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    if "kind" not in doc:
        raise ParseError("document lacks a 'kind' field")
    return doc


def load_path(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump_path(path, doc):
    write_path(path, dumps(doc))


def write_path(path, text):
    """Write the ``dumps`` output ``text`` to ``path``, byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


_PARSERS = {
    "series_matrix": parse_series_matrix,
    "module": parse_module,
    "scalar_matrix": parse_scalar_matrix,
    "int_polynomial": parse_int_polynomial,
    "charpoly_table": parse_table,
    "projector_job": parse_projector_job,
    "projector_group_job": parse_projector_group_job,
    "companion_job": parse_companion_job,
    "cohomology": parse_cohomology,
}


def expect_kind(doc, *kinds):
    """The parsed value of a loaded document of one of ``kinds``."""
    kind = doc.get("kind")
    if kind not in kinds:
        raise ParseError(f"expected a {' or '.join(map(repr, kinds))} "
                         f"document, got {kind!r}")
    try:
        return _PARSERS[kind](doc)
    except KeyError as exc:
        raise ParseError(f"bad {kind} document: missing {exc}")
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {kind} document: {exc}")
