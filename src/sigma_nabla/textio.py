"""Structured-text (JSON) serialization for every domain type.

One document per file, UTF-8, newline-normalised.  Every document is an
object with ``format_version`` and ``kind``.  Scalars are decimal strings
("p^v*m mod p^N", "0", or "O(p^k)") so no integer-width limits apply;
series are lists of [exponent, scalar] pairs plus a window; matrices are
row-major nested lists; ring labels are strings with their certificate.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError
from .modules import SigmaNablaModule
from .padic import IntPolynomial, PadicNumber, is_prime
from .series import LaurentSeries, RingLabel

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Scalars.
# ---------------------------------------------------------------------------


def emit_scalar(x: PadicNumber) -> str:
    if x.is_exact_zero:
        return "0"
    if x.unit is None:
        return f"O({x.p}^{x.val})"
    return f"{x.p}^{x.val}*{x.unit} mod {x.p}^{x.prec}"


def parse_scalar(p, nrel, s) -> PadicNumber:
    if not isinstance(s, str):
        raise ParseError(f"a scalar must be a string, not {s!r}")
    s = s.strip()
    if s == "0":
        return PadicNumber.zero(p, nrel)
    try:
        if s.startswith("O(") and s.endswith(")"):
            base, _, expo = s[2:-1].partition("^")
            if int(base) != p:
                raise ValueError(f"prime mismatch: {base} vs {p}")
            return PadicNumber.inexact_zero(p, nrel, int(expo))
        head, _, tail = s.partition(" mod ")
        pv, _, m = head.partition("*")
        base, _, v = pv.partition("^")
        if int(base) != p:
            raise ValueError(f"prime mismatch: {base} vs {p}")
        prec = nrel
        if tail:
            pbase, _, pexp = tail.partition("^")
            if int(pbase) != p:
                raise ValueError(f"prime mismatch in precision: {pbase}")
            prec = int(pexp)
        return PadicNumber._make(p, nrel, int(v), int(m), prec)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad scalar {s!r}: {exc}")


def emit_fraction(x) -> str:
    return str(Fraction(x))


def parse_fraction(s):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {s!r}: {exc}")


# ---------------------------------------------------------------------------
# Series and labels.
# ---------------------------------------------------------------------------


def emit_label(label: RingLabel):
    return {"kind": label.kind, "lam": emit_fraction(label.lam),
            "c": emit_fraction(label.c)}


def parse_label(obj) -> RingLabel:
    if isinstance(obj, str):
        return RingLabel(obj)
    try:
        return RingLabel(obj["kind"],
                         parse_fraction(obj.get("lam", "1/2")),
                         parse_fraction(obj.get("c", "0")))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad ring label {obj!r}: {exc}")


def emit_series_body(s: LaurentSeries):
    return {
        "window": list(s.window),
        "terms": [[e, emit_scalar(c)] for e, c in s.items()],
        "tail_free": s.tail_free,
        "floor": s.base_floor,
    }


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _p_nrel(obj):
    """A document's prime p and relative precision nrel >= 1."""
    p, nrel = obj.get("p"), obj.get("nrel")
    if not (_is_int(p) and is_prime(p)):
        raise ParseError(f"p must be a prime, not {p!r}")
    if not (_is_int(nrel) and nrel >= 1):
        raise ParseError(f"nrel must be an integer >= 1, not {nrel!r}")
    return p, nrel


def parse_series_body(p, nrel, obj) -> LaurentSeries:
    try:
        window = obj["window"]
        floor = obj.get("floor")
        tail_free = obj.get("tail_free", True)
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and _is_int(window[0]) and _is_int(window[1])
                and window[0] <= window[1]):
            raise ValueError(f"window must be two integers lo <= hi, not "
                             f"{window!r}")
        if floor is not None and not _is_int(floor):
            raise ValueError(f"floor must be an integer or null, not "
                             f"{floor!r}")
        if not isinstance(tail_free, bool):
            raise ValueError(f"tail_free must be a boolean, not "
                             f"{tail_free!r}")
        coeffs = {int(e): parse_scalar(p, nrel, c) for e, c in obj["terms"]}
        return LaurentSeries(p, nrel, coeffs, tuple(window), tail_free, floor)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad series: {exc}")


def emit_series_matrix(mat, p, nrel):
    return {"format_version": FORMAT_VERSION, "kind": "series_matrix",
            "p": p, "nrel": nrel,
            "entries": [[emit_series_body(s) for s in row] for row in mat]}


def parse_series_matrix(obj):
    p, nrel = _p_nrel(obj)
    mat = [[parse_series_body(p, nrel, cell) for cell in row]
           for row in obj["entries"]]
    if not mat or any(len(row) != len(mat[0]) for row in mat):
        raise ParseError("entries must form a rectangular matrix")
    return mat, p, nrel


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
    try:
        p, nrel = _p_nrel(obj)
        ring = parse_label(obj["ring"])
        q = int(obj["q"])
        phi = [[parse_series_body(p, nrel, c) for c in row]
               for row in obj["phi"]]
        nmat = [[parse_series_body(p, nrel, c) for c in row]
                for row in obj["n"]]
        bmat = None
        if obj.get("b") is not None:
            bmat = [[parse_series_body(p, nrel, c) for c in row]
                    for row in obj["b"]]
        return SigmaNablaModule(ring, q, phi, nmat, bmat)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad module document: {exc}")


# ---------------------------------------------------------------------------
# Scalar matrices, polynomials, tables.
# ---------------------------------------------------------------------------


def emit_scalar_matrix(mat, p=None, nrel=None):
    if p is None:
        return {"format_version": FORMAT_VERSION, "kind": "scalar_matrix",
                "field": "rational",
                "entries": [[emit_fraction(x) for x in row] for row in mat]}
    return {"format_version": FORMAT_VERSION, "kind": "scalar_matrix",
            "field": "padic", "p": p, "nrel": nrel,
            "entries": [[emit_scalar(x) for x in row] for row in mat]}


def parse_scalar_matrix(obj):
    field = obj.get("field", "rational")
    if field == "rational":
        mat = [[parse_fraction(x) for x in row] for row in obj["entries"]]
    elif field == "padic":
        p, nrel = _p_nrel(obj)
        mat = [[parse_scalar(p, nrel, x) for x in row]
               for row in obj["entries"]]
    else:
        raise ParseError(f"unknown scalar field {field!r}")
    if not mat or any(len(row) != len(mat[0]) for row in mat):
        raise ParseError("entries must form a rectangular matrix")
    return mat


def emit_int_polynomial(poly: IntPolynomial):
    return {"format_version": FORMAT_VERSION, "kind": "int_polynomial",
            "coeffs": [emit_fraction(c) for c in poly.coeffs]}


def parse_int_polynomial(obj) -> IntPolynomial:
    return IntPolynomial([parse_fraction(c) for c in obj["coeffs"]])


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
    from .lfunctions import CharPolyTable
    try:
        points = [(pid, int(deg)) for pid, deg in obj["points"]]
        polys = {}
        for place, pid, coeffs in obj["polys"]:
            polys[(place, pid)] = IntPolynomial(
                [parse_fraction(c) for c in coeffs])
        return CharPolyTable(int(obj["q"]), list(obj["places"]),
                             points, polys)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad table document: {exc}")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(doc))


_PARSERS = {
    "series_matrix": parse_series_matrix,
    "module": parse_module,
    "scalar_matrix": parse_scalar_matrix,
    "int_polynomial": parse_int_polynomial,
    "charpoly_table": parse_table,
}


def expect_kind(doc, kind):
    if doc.get("kind") != kind:
        raise ParseError(f"expected a {kind!r} document, got "
                         f"{doc.get('kind')!r}")
    return _PARSERS[kind](doc) if kind in _PARSERS else doc
