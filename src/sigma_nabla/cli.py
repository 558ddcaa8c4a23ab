"""Command-line front end.

One ``argparse`` parser, built at import, holds the global options and one
subparser per command.  Every command is a function from the global
options' ``JobConfig`` and its own arguments to ``(ok, body)``, registered
with ``command``; the runner there owns the rest.  Exit status: 0 for
verdicts of the Holds/Compatible/Pure family, 1 when the mathematics
refutes the claim (or a mathematical-failure error such as NotConverged is
raised), 2 for malformed input and for usage errors, each with one line on
stderr.  Reports are deterministic JSON documents on stdout (and, with
--out, the same bytes on disk).  ``main`` is the entry point.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import textio
from .errors import ParseError, SigmaNablaError
from .factor import descend_to_eplus, glue_dieudonne, matfact_gamma, \
    matfact_robba
from .horizontal import horizontal_basis
from .lfunctions import (
    check_compatible,
    check_pure_system,
    lfunction_truncated,
    pole_order_at,
    trace_formula_check,
)
from .linalg import smat_product_agree
from .modules import check_compat, check_fv, quasi_nilpotence_probe
from .padic import INF, PadicNumber
from .points import (
    block_companion,
    frob_iterate,
    newton_slopes_frob,
)

PROG = "sigma-nabla"


@dataclass
class JobConfig:
    k_max: int
    n_max: int
    out: Optional[str]


def _floor_json(x):
    if x is None or x is INF:
        return None
    return int(x)


def _load(path, *kinds):
    return textio.expect_kind(textio.load_path(path), *kinds)


class UsageError(Exception):
    """A command line the parser or a command rejects: exit 2 with the
    line ``PROG: error: message`` on stderr."""

    def __init__(self, message, prog=PROG):
        super().__init__(message)
        self.prog = prog


def _table_at(path, place, name):
    """The charpoly table at ``path``, which must list ``place``."""
    table = _load(path, "charpoly_table")
    if place not in table.places:
        raise UsageError(f"--place {place!r} is not one of the table's "
                         f"places {table.places!r}", f"{PROG} {name}")
    return table


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help",
                          help="show this message and exit")

    def error(self, message):
        raise UsageError(message, self.prog)


def _existing(path):
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _natural(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"{value} is not in the range x>=0")
    return value


def arg(*flags, **kwargs):
    """One ``add_argument`` call of a command, for ``command``."""
    return flags, kwargs


def document(name):
    """A positional argument naming an existing document."""
    return arg(name, metavar=name.upper(), type=_existing)


_PARSER = _Parser(
    prog=PROG,
    description="Exact computations with sigma/nabla-module and Frobenius "
                "data.")
_PARSER.add_argument("--kmax", type=_natural, default=32,
                     help="u-degree bound of horizontal "
                          "(default: %(default)s)")
_PARSER.add_argument("--nmax", type=_natural, default=64,
                     help="iteration bound of probe-nilpotence "
                          "(default: %(default)s)")
_PARSER.add_argument("--out", metavar="PATH", default=None,
                     help="also write the report (or factors) here")
_COMMANDS = _PARSER.add_subparsers(dest="command", metavar="COMMAND",
                                   required=True)


def command(name, *params, report_file=True):
    """Register ``fn(config, **arguments) -> (ok, body)`` as the subcommand
    ``name`` with the ``arg`` and ``document`` parameters ``params``.
    ``ParseError`` exits 2 and any other ``SigmaNablaError`` exits 1, each
    with one line on stderr; otherwise the report goes to stdout and, when
    ``report_file``, the same bytes to --out, and the exit status is 0 if
    ok else 1.  A body may name the report's command itself."""
    def register(fn):
        summary = " ".join(fn.__doc__.split())
        sub = _COMMANDS.add_parser(name, help=summary, description=summary)
        dests = [sub.add_argument(*flags, **kwargs).dest
                 for flags, kwargs in params]

        def run(config, args):
            try:
                ok, body = fn(config, **{d: getattr(args, d) for d in dests})
            except ParseError as exc:
                where = ""
                if exc.line is not None:
                    where = f" (line {exc.line}, column {exc.column})"
                sys.stderr.write(f"parse error{where}: {exc}\n")
                return 2
            except SigmaNablaError as exc:
                sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
                return 1
            doc = {"format_version": textio.FORMAT_VERSION, "kind": "report",
                   "command": name, "ok": bool(ok), **body}
            text = textio.dumps(doc)
            sys.stdout.write(text)
            if report_file and config.out:
                textio.write_path(config.out, text)
            return 0 if ok else 1

        sub.set_defaults(run=run)
        return fn
    return register


def main(argv=None, standalone_mode=True):
    """Run the command line ``argv`` (default: ``sys.argv[1:]``) and exit
    with its status; with ``standalone_mode=False``, return the status
    instead of raising ``SystemExit``."""
    try:
        args = _PARSER.parse_args(argv)
        code = args.run(JobConfig(args.kmax, args.nmax, args.out), args)
    except UsageError as exc:
        sys.stderr.write(f"{exc.prog}: error: {exc}\n")
        code = 2
    except SystemExit as exc:       # --help, printed by the parser
        code = exc.code
    if standalone_mode:
        sys.exit(code)
    return code


@command("check-module", document("path"))
def cmd_check_module(cfg, path):
    """Verify the compatibility law (and FV = p when B is present)."""
    mod = _load(path, "module")
    verdict = check_compat(mod)
    body = {
        "verdict": "holds" if verdict.holds else "fails",
        "floor": _floor_json(verdict.floor),
        "window": list(verdict.window),
    }
    if not verdict.holds:
        body["position"] = list(verdict.position)
        body["residual_valuation"] = _floor_json(verdict.residual_valuation)
    ok = verdict.holds
    if mod.bmat is not None:
        fv = check_fv(mod)
        body["fv_verdict"] = "holds" if fv.holds else "fails"
        body["fv_floor"] = _floor_json(fv.floor)
        ok = ok and fv.holds
    return ok, body


@command("factor", arg("mode", choices=["gamma", "robba"]),
         document("path"), report_file=False)
def cmd_factor(cfg, mode, path):
    """Factor a series matrix as Y*Z (gamma: Z constant; robba: Z plus)."""
    x, p, nrel = _load(path, "series_matrix")
    # --out names the directory of Y.json and Z.json here
    outdir = cfg.out or os.path.dirname(os.path.abspath(path))
    os.makedirs(outdir, exist_ok=True)
    if mode == "gamma":
        fact = matfact_gamma(x)
        body = {"rounds": fact.rounds, "det_valuation": fact.det_valuation}
    else:
        fact = matfact_robba(x)
        body = {"iterations": fact.iterations,
                "y_label": textio.emit_label(fact.y_label)}
    body["command"] = f"factor-{mode}"     # the report names the mode
    body["product_floor"] = _floor_json(fact.product_verdict.floor)
    for name, mat in (("y", fact.y), ("z", fact.z)):
        body[f"{name}_path"] = os.path.join(outdir, f"{name.upper()}.json")
        textio.dump_path(body[f"{name}_path"],
                         textio.emit_series_matrix(mat, p, nrel))
    return True, body


@command("check-product", document("y_path"), document("z_path"),
         document("x_path"))
def cmd_check_product(cfg, y_path, z_path, x_path):
    """Verify Y*Z = X at working precision on the common window."""
    y, py, _ = _load(y_path, "series_matrix")
    z, pz, _ = _load(z_path, "series_matrix")
    x, px, _ = _load(x_path, "series_matrix")
    textio.require_same_prime(py, pz, px)
    side = len(textio.require_square(y, None, "Y to be a square matrix"))
    textio.require_square(z, side, "Z to be a square matrix")
    textio.require_square(x, side, "X to be a square matrix")
    verdict = smat_product_agree(y, z, x)
    body = {"verdict": "holds" if verdict.holds else "fails",
            "floor": _floor_json(verdict.floor)}
    if not verdict.holds:
        body["witness_exponent"] = verdict.witness
        body["residual_valuation"] = _floor_json(verdict.residual_valuation)
    return verdict.holds, body


@command("descend", document("module_path"), document("x_path"))
def cmd_descend(cfg, module_path, x_path):
    """Descend an E-dagger module to E-plus through a factorization of X."""
    mod = _load(module_path, "module")
    x, px, _ = _load(x_path, "series_matrix")
    textio.require_same_prime(mod.p, px)
    textio.require_square(x, mod.rank, "X to be a square matrix")
    res = descend_to_eplus(mod, x)
    return res.compat.holds, {
        "verdict": "holds" if res.compat.holds else "fails",
        "compat_floor": _floor_json(res.compat.floor),
        "iterations": res.factorization.iterations,
        "module": textio.emit_module(res.module),
    }


@command("glue", document("m1_path"), document("m2_path"),
         document("x_path"))
def cmd_glue(cfg, m1_path, m2_path, x_path):
    """Glue Dieudonne modules over Gamma and E-plus into one over
    Gamma-plus."""
    m1 = _load(m1_path, "module")
    m2 = _load(m2_path, "module")
    x, px, _ = _load(x_path, "series_matrix")
    textio.require_same_prime(m1.p, m2.p, px)
    textio.require_square(m2.phi, m1.rank, "m2 to have a Phi")
    textio.require_square(x, m1.rank, "X to be a square matrix")
    res = glue_dieudonne(m1, m2, x)
    ok = res.compat.holds and res.fv.holds
    return ok, {
        "verdict": "holds" if ok else "fails",
        "compat_floor": _floor_json(res.compat.floor),
        "fv_floor": _floor_json(res.fv.floor),
        "rounds": res.factorization.rounds,
        "module": textio.emit_module(res.module),
    }


@command("horizontal", document("module_path"))
def cmd_horizontal(cfg, module_path):
    """Horizontal basis through u-degree kmax by the power-series
    recursion."""
    mod = _load(module_path, "module")
    hb = horizontal_basis(mod.nmat, cfg.k_max)
    return not hb.exhausted or hb.degree_achieved > 0, {
        "degree_achieved": hb.degree_achieved,
        "k_max": hb.k_max,
        "exhausted": hb.exhausted,
        "floors": hb.floors,
        "residual_valuation": _floor_json(hb.residual_valuation),
        "h": textio.emit_series_matrix(hb.h, mod.p, mod.nrel),
    }


@command("slopes", document("path"))
def cmd_slopes(cfg, path):
    """Newton slopes of a point Frobenius matrix, and the unit-root test."""
    mat = textio.require_square(_load(path, "scalar_matrix"))
    if not isinstance(mat[0][0], PadicNumber):
        raise ParseError("expected a p-adic scalar_matrix, not a rational one")
    poly = newton_slopes_frob(mat)
    return True, {
        "slopes": [[str(s), m] for s, m in poly.slopes],
        "offset": poly.offset,
        "unit_root": poly.unit_root,
    }


@command("probe-nilpotence",
         arg("--vtarget", type=int, default=None,
             help="valuation to reach (default: the module's nrel)"),
         document("module_path"))
def cmd_probe(cfg, module_path, vtarget):
    """Iterate the differential operator and watch valuations."""
    mod = _load(module_path, "module")
    target = mod.nrel if vtarget is None else vtarget
    res = quasi_nilpotence_probe(mod, cfg.n_max, target)
    return not res.refuted, {
        "verdict": "refuted" if res.refuted else "plausible",
        "profiles": [[_floor_json(v) for v in prof]
                     for prof in res.profiles],
        "refuted_at": res.refuted_at,
        "reached_target": res.reached_target,
    }


@command("average-projector", document("path"))
def cmd_average(cfg, path):
    """Average a projector along the Frobenius orbit or a descent datum."""
    job = _load(path, "projector_job", "projector_group_job")
    return True, {"projector": textio.emit_entries(job())}


@command("companion", document("path"))
def cmd_companion(cfg, path):
    """Block-companion matrix whose n-th iterate is block diagonal."""
    f_g, n = _load(path, "companion_job")
    comp = block_companion(f_g, n)
    return True, {
        "companion": textio.emit_entries(comp),
        "nth_iterate": textio.emit_entries(frob_iterate(comp, n)),
    }


@command("lfunction", arg("--place", required=True),
         arg("--truncation", "-T", type=_natural, default=8,
             help="truncation degree (default: %(default)s)"),
         document("table_path"))
def cmd_lfunction(cfg, table_path, place, truncation):
    """Truncated Euler product of inverse local factors."""
    series = lfunction_truncated(_table_at(table_path, place, "lfunction"),
                                 place, truncation)
    return True, {"place": place, "truncation": truncation,
                  "coefficients": [textio.emit_fraction(c)
                                   for c in series.coeffs]}


@command("trace-check", arg("--place", required=True),
         arg("--truncation", "-T", type=_natural, default=12,
             help="truncation degree (default: %(default)s)"),
         document("table_path"), document("cohomology_path"))
def cmd_trace_check(cfg, table_path, cohomology_path, place, truncation):
    """Euler product against P1/(P0 P2) up to the truncation degree."""
    table = _table_at(table_path, place, "trace-check")
    verdict = trace_formula_check(table, place,
                                  _load(cohomology_path, "cohomology"),
                                  truncation)
    body = {"verdict": "consistent" if verdict.consistent
            else "inconsistent", "truncation": truncation}
    if not verdict.consistent:
        body["first_bad_degree"] = verdict.first_bad_degree
    return verdict.consistent, body


@command("compat", document("table_path"))
def cmd_compat(cfg, table_path):
    """Place-independence of the local factors of a compatible system."""
    verdict = check_compatible(_load(table_path, "charpoly_table"))
    body = {"verdict": "compatible" if verdict.compatible else "mismatch"}
    if not verdict.compatible:
        body["point"] = verdict.point
        body["places"] = [verdict.place_a, verdict.place_b]
    return verdict.compatible, body


@command("purity", arg("--weight", "-w", type=int, required=True),
         document("table_path"))
def cmd_purity(cfg, table_path, weight):
    """Check every local factor for purity of the given weight."""
    report = check_pure_system(_load(table_path, "charpoly_table"), weight)
    entries = {
        f"{place}:{pid}": {"pure": verdict.pure,
                           "expected": verdict.expected,
                           "magnitudes": list(verdict.magnitudes)}
        for (place, pid), verdict in report.entries.items()}
    return report.all_pure, {
        "weight": weight, "entries": entries,
        "verdict": "pure" if report.all_pure else "impure"}


@command("pole-order", arg("--q", dest="qval", type=int, required=True),
         arg("--d", dest="dval", type=int, required=True),
         document("poly_path"))
def cmd_pole_order(cfg, poly_path, qval, dval):
    """Multiplicity of the root t = q^-d of an exact polynomial."""
    if qval < 2:
        raise UsageError(f"--q must be at least 2, got {qval}",
                         f"{PROG} pole-order")
    order = pole_order_at(_load(poly_path, "int_polynomial"), qval, dval)
    return True, {"q": qval, "d": dval, "order": order}


if __name__ == "__main__":      # pragma: no cover
    main()
