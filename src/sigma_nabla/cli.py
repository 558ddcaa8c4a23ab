"""Command-line front end.

Exit status: 0 for verdicts of the Holds/Compatible/Pure family, 1 when
the mathematics refutes the claim (or a mathematical-failure error such as
NotConverged is raised), 2 for malformed input.  Reports are deterministic
JSON documents on stdout (and, with --out, on disk).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import click

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
from .linalg import smat_agree, smat_mul
from .modules import check_compat, check_fv, quasi_nilpotence_probe
from .padic import INF, is_prime
from .points import (
    average_projector,
    average_projector_group,
    block_companion,
    frob_iterate,
    is_unit_root,
    newton_slopes_frob,
)
from .series import DEFAULT_MAX_WIDTH


@dataclass
class JobConfig:
    p: int = 3
    nrel: int = 12
    max_width: int = DEFAULT_MAX_WIDTH
    k_max: int = 32
    n_max: int = 64
    tol: float = 1e-6
    out: str = None

    def validate(self):
        if not is_prime(self.p):
            raise click.UsageError(f"--p must be prime, got {self.p}")
        if self.nrel < 1:
            raise click.UsageError("--prec must be at least 1")
        if self.max_width < 8:
            raise click.UsageError("--window must be at least 8")


def _floor_json(x):
    if x is None or x is INF:
        return None
    return int(x)


def _report(command, verdict_ok, body, config):
    doc = {"format_version": textio.FORMAT_VERSION, "kind": "report",
           "command": command, "ok": bool(verdict_ok)}
    doc.update(body)
    text = textio.dumps(doc)
    click.echo(text, nl=False)
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return 0 if verdict_ok else 1


def _run(ctx, fn):
    try:
        code = fn()
    except ParseError as exc:
        where = ""
        if exc.line is not None:
            where = f" (line {exc.line}, column {exc.column})"
        click.echo(f"parse error{where}: {exc}", err=True)
        ctx.exit(2)
    except click.UsageError:
        raise
    except SigmaNablaError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        ctx.exit(1)
    ctx.exit(code)


@click.group()
@click.option("--p", type=int, default=3, show_default=True,
              help="prime for scalar construction")
@click.option("--prec", type=int, default=12, show_default=True,
              help="relative precision in p-digits")
@click.option("--window", type=int,
              default=int(os.environ.get("SIGMA_NABLA_MAX_WINDOW",
                                         DEFAULT_MAX_WIDTH)),
              show_default=True, help="maximum exponent-window width")
@click.option("--kmax", type=int, default=32, show_default=True)
@click.option("--nmax", type=int, default=64, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="also write the report (or factors) here")
@click.pass_context
def main(ctx, p, prec, window, kmax, nmax, tol, out):
    """Exact computations with sigma/nabla-module and Frobenius data."""
    cfg = JobConfig(p, prec, window, kmax, nmax, tol, out)
    cfg.validate()
    ctx.obj = cfg


@main.command("check-module")
@click.argument("path", type=click.Path(exists=True))
@click.pass_context
def cmd_check_module(ctx, path):
    """Verify the compatibility law (and FV = p when B is present)."""
    cfg = ctx.obj

    def go():
        mod = textio.expect_kind(textio.load_path(path), "module")
        verdict = check_compat(mod, cfg.max_width)
        body = {
            "verdict": "holds" if verdict.holds else "fails",
            "floor": _floor_json(verdict.floor),
            "window": list(verdict.window),
        }
        if not verdict.holds:
            body["position"] = list(verdict.position)
            body["residual_valuation"] = _floor_json(
                verdict.residual_valuation)
        ok = verdict.holds
        if mod.bmat is not None:
            fv = check_fv(mod, cfg.max_width)
            body["fv_verdict"] = "holds" if fv.holds else "fails"
            body["fv_floor"] = _floor_json(fv.floor)
            ok = ok and fv.holds
        return _report("check-module", ok, body, cfg)

    _run(ctx, go)


@main.command("factor")
@click.argument("mode", type=click.Choice(["gamma", "robba"]))
@click.argument("path", type=click.Path(exists=True))
@click.pass_context
def cmd_factor(ctx, mode, path):
    """Factor a series matrix as Y*Z (gamma: Z constant; robba: Z plus)."""
    cfg = ctx.obj

    def go():
        x, p, nrel = textio.expect_kind(textio.load_path(path),
                                        "series_matrix")
        outdir = cfg.out or os.path.dirname(os.path.abspath(path))
        os.makedirs(outdir, exist_ok=True)
        if mode == "gamma":
            fact = matfact_gamma(x, cfg.max_width)
            body = {"rounds": fact.rounds,
                    "det_valuation": fact.det_valuation}
        else:
            fact = matfact_robba(x, cfg.max_width)
            body = {"iterations": fact.iterations,
                    "y_label": textio.emit_label(fact.y_label)}
        body["product_floor"] = _floor_json(fact.product_verdict.floor)
        y_path = os.path.join(outdir, "Y.json")
        z_path = os.path.join(outdir, "Z.json")
        textio.dump_path(y_path, textio.emit_series_matrix(fact.y, p, nrel))
        textio.dump_path(z_path, textio.emit_series_matrix(fact.z, p, nrel))
        body["y_path"] = y_path
        body["z_path"] = z_path
        saved_out, cfg.out = cfg.out, None
        try:
            return _report(f"factor-{mode}", True, body, cfg)
        finally:
            cfg.out = saved_out

    _run(ctx, go)


@main.command("check-product")
@click.argument("y_path", type=click.Path(exists=True))
@click.argument("z_path", type=click.Path(exists=True))
@click.argument("x_path", type=click.Path(exists=True))
@click.pass_context
def cmd_check_product(ctx, y_path, z_path, x_path):
    """Verify Y*Z = X at working precision on the common window."""
    cfg = ctx.obj

    def go():
        y, p, nrel = textio.expect_kind(textio.load_path(y_path),
                                        "series_matrix")
        z, _, _ = textio.expect_kind(textio.load_path(z_path),
                                     "series_matrix")
        x, _, _ = textio.expect_kind(textio.load_path(x_path),
                                     "series_matrix")
        verdict = smat_agree(smat_mul(y, z, cfg.max_width), x)
        body = {"verdict": "holds" if verdict.holds else "fails",
                "floor": _floor_json(verdict.floor)}
        if not verdict.holds:
            body["witness_exponent"] = verdict.witness
            body["residual_valuation"] = _floor_json(
                verdict.residual_valuation)
        return _report("check-product", verdict.holds, body, cfg)

    _run(ctx, go)


@main.command("descend")
@click.argument("module_path", type=click.Path(exists=True))
@click.argument("x_path", type=click.Path(exists=True))
@click.pass_context
def cmd_descend(ctx, module_path, x_path):
    """Descend an E-dagger module to E-plus through a factorization of X."""
    cfg = ctx.obj

    def go():
        mod = textio.expect_kind(textio.load_path(module_path), "module")
        x, _, _ = textio.expect_kind(textio.load_path(x_path),
                                     "series_matrix")
        res = descend_to_eplus(mod, x, cfg.max_width)
        body = {
            "verdict": "holds" if res.compat.holds else "fails",
            "compat_floor": _floor_json(res.compat.floor),
            "iterations": res.factorization.iterations,
            "module": textio.emit_module(res.module),
        }
        return _report("descend", res.compat.holds, body, cfg)

    _run(ctx, go)


@main.command("glue")
@click.argument("m1_path", type=click.Path(exists=True))
@click.argument("m2_path", type=click.Path(exists=True))
@click.argument("x_path", type=click.Path(exists=True))
@click.pass_context
def cmd_glue(ctx, m1_path, m2_path, x_path):
    """Glue Dieudonne modules over Gamma and E-plus into one over
    Gamma-plus."""
    cfg = ctx.obj

    def go():
        m1 = textio.expect_kind(textio.load_path(m1_path), "module")
        m2 = textio.expect_kind(textio.load_path(m2_path), "module")
        x, _, _ = textio.expect_kind(textio.load_path(x_path),
                                     "series_matrix")
        res = glue_dieudonne(m1, m2, x, cfg.max_width)
        ok = res.compat.holds and res.fv.holds
        body = {
            "verdict": "holds" if ok else "fails",
            "compat_floor": _floor_json(res.compat.floor),
            "fv_floor": _floor_json(res.fv.floor),
            "rounds": res.factorization.rounds,
            "module": textio.emit_module(res.module),
        }
        return _report("glue", ok, body, cfg)

    _run(ctx, go)


@main.command("horizontal")
@click.argument("module_path", type=click.Path(exists=True))
@click.pass_context
def cmd_horizontal(ctx, module_path):
    """Horizontal basis through u-degree kmax by the power-series
    recursion."""
    cfg = ctx.obj

    def go():
        mod = textio.expect_kind(textio.load_path(module_path), "module")
        hb = horizontal_basis(mod.nmat, cfg.k_max, cfg.max_width)
        body = {
            "degree_achieved": hb.degree_achieved,
            "k_max": hb.k_max,
            "exhausted": hb.exhausted,
            "floors": hb.floors,
            "residual_valuation": _floor_json(hb.residual_valuation),
            "h": textio.emit_series_matrix(hb.h, mod.p, mod.nrel),
        }
        ok = not hb.exhausted or hb.degree_achieved > 0
        return _report("horizontal", ok, body, cfg)

    _run(ctx, go)


@main.command("slopes")
@click.argument("path", type=click.Path(exists=True))
@click.pass_context
def cmd_slopes(ctx, path):
    """Newton slopes of a point Frobenius matrix, and the unit-root test."""
    cfg = ctx.obj

    def go():
        mat = textio.expect_kind(textio.load_path(path), "scalar_matrix")
        poly = newton_slopes_frob(mat)
        unit = is_unit_root(mat)
        body = {
            "slopes": [[str(s), m] for s, m in poly.slopes],
            "offset": poly.offset,
            "unit_root": unit,
        }
        return _report("slopes", True, body, cfg)

    _run(ctx, go)


@main.command("probe-nilpotence")
@click.option("--vtarget", type=int, default=None)
@click.argument("module_path", type=click.Path(exists=True))
@click.pass_context
def cmd_probe(ctx, module_path, vtarget):
    """Iterate the differential operator and watch valuations."""
    cfg = ctx.obj

    def go():
        mod = textio.expect_kind(textio.load_path(module_path), "module")
        target = vtarget if vtarget is not None else cfg.nrel
        res = quasi_nilpotence_probe(mod, cfg.n_max, target, cfg.max_width)
        body = {
            "verdict": "refuted" if res.refuted else "plausible",
            "profiles": [[_floor_json(v) for v in prof]
                         for prof in res.profiles],
            "refuted_at": res.refuted_at,
            "reached_target": res.reached_target,
        }
        return _report("probe-nilpotence", not res.refuted, body, cfg)

    _run(ctx, go)


@main.command("average-projector")
@click.argument("path", type=click.Path(exists=True))
@click.pass_context
def cmd_average(ctx, path):
    """Average a projector along the Frobenius orbit or a descent datum."""
    cfg = ctx.obj

    def go():
        doc = textio.load_path(path)
        if doc.get("kind") == "projector_job":
            pi = textio.parse_scalar_matrix(
                {"field": doc.get("field", "rational"),
                 "p": doc.get("p"), "nrel": doc.get("nrel"),
                 "entries": doc["pi"]})
            frob = textio.parse_scalar_matrix(
                {"field": doc.get("field", "rational"),
                 "p": doc.get("p"), "nrel": doc.get("nrel"),
                 "entries": doc["frobenius"]})
            out = average_projector(pi, frob, int(doc["n"]))
        elif doc.get("kind") == "projector_group_job":
            field = {"field": doc.get("field", "rational"),
                     "p": doc.get("p"), "nrel": doc.get("nrel")}
            pi = textio.parse_scalar_matrix({**field, "entries": doc["pi"]})
            cocycle = [(g, textio.parse_scalar_matrix(
                {**field, "entries": m})) for g, m in doc["cocycle"]]
            table = {(g, h): gh for g, h, gh in doc["table"]}
            out = average_projector_group(pi, cocycle, table)
        else:
            raise ParseError(f"expected a projector job, got "
                             f"{doc.get('kind')!r}")
        body = {"projector":
                [[textio.emit_fraction(x) for x in row] for row in out]
                if doc.get("field", "rational") == "rational" else
                [[textio.emit_scalar(x) for x in row] for row in out]}
        return _report("average-projector", True, body, cfg)

    _run(ctx, go)


@main.command("companion")
@click.argument("path", type=click.Path(exists=True))
@click.pass_context
def cmd_companion(ctx, path):
    """Block-companion matrix whose n-th iterate is block diagonal."""
    cfg = ctx.obj

    def go():
        doc = textio.load_path(path)
        if doc.get("kind") != "companion_job":
            raise ParseError("expected a companion_job document")
        field = {"field": doc.get("field", "rational"),
                 "p": doc.get("p"), "nrel": doc.get("nrel")}
        f_g = textio.parse_scalar_matrix({**field, "entries": doc["f_g"]})
        n = int(doc["n"])
        comp = block_companion(f_g, n)
        power = frob_iterate(comp, n)
        emit = (textio.emit_fraction if field["field"] == "rational"
                else textio.emit_scalar)
        body = {
            "companion": [[emit(x) for x in row] for row in comp],
            "nth_iterate": [[emit(x) for x in row] for row in power],
        }
        return _report("companion", True, body, cfg)

    _run(ctx, go)


@main.command("lfunction")
@click.option("--place", required=True)
@click.option("--truncation", "-T", "truncation", type=int, default=8,
              show_default=True)
@click.argument("table_path", type=click.Path(exists=True))
@click.pass_context
def cmd_lfunction(ctx, table_path, place, truncation):
    """Truncated Euler product of inverse local factors."""
    cfg = ctx.obj

    def go():
        table = textio.expect_kind(textio.load_path(table_path),
                                   "charpoly_table")
        series = lfunction_truncated(table, place, truncation)
        body = {"place": place, "truncation": truncation,
                "coefficients": [textio.emit_fraction(c)
                                 for c in series.coeffs]}
        return _report("lfunction", True, body, cfg)

    _run(ctx, go)


@main.command("trace-check")
@click.option("--place", required=True)
@click.option("--truncation", "-T", "truncation", type=int, default=12,
              show_default=True)
@click.argument("table_path", type=click.Path(exists=True))
@click.argument("cohomology_path", type=click.Path(exists=True))
@click.pass_context
def cmd_trace_check(ctx, table_path, cohomology_path, place, truncation):
    """Euler product against P1/(P0 P2) up to the truncation degree."""
    cfg = ctx.obj

    def go():
        table = textio.expect_kind(textio.load_path(table_path),
                                   "charpoly_table")
        doc = textio.load_path(cohomology_path)
        if doc.get("kind") != "cohomology":
            raise ParseError("expected a cohomology document")
        from .padic import IntPolynomial
        ps = tuple(IntPolynomial([textio.parse_fraction(c)
                                  for c in doc[k]])
                   for k in ("p0", "p1", "p2"))
        verdict = trace_formula_check(table, place, ps, truncation)
        body = {"verdict": "consistent" if verdict.consistent
                else "inconsistent",
                "truncation": truncation}
        if not verdict.consistent:
            body["first_bad_degree"] = verdict.first_bad_degree
        return _report("trace-check", verdict.consistent, body, cfg)

    _run(ctx, go)


@main.command("compat")
@click.argument("table_path", type=click.Path(exists=True))
@click.pass_context
def cmd_compat(ctx, table_path):
    """Place-independence of the local factors of a compatible system."""
    cfg = ctx.obj

    def go():
        table = textio.expect_kind(textio.load_path(table_path),
                                   "charpoly_table")
        verdict = check_compatible(table)
        body = {"verdict": "compatible" if verdict.compatible
                else "mismatch"}
        if not verdict.compatible:
            body["point"] = verdict.point
            body["places"] = [verdict.place_a, verdict.place_b]
        return _report("compat", verdict.compatible, body, cfg)

    _run(ctx, go)


@main.command("purity")
@click.option("--weight", "-w", type=int, required=True)
@click.argument("table_path", type=click.Path(exists=True))
@click.pass_context
def cmd_purity(ctx, table_path, weight):
    """Check every local factor for purity of the given weight."""
    cfg = ctx.obj

    def go():
        table = textio.expect_kind(textio.load_path(table_path),
                                   "charpoly_table")
        report = check_pure_system(table, weight, cfg.tol)
        entries = {}
        for (place, pid), verdict in sorted(
                report.entries.items(), key=lambda kv: (kv[0][0],
                                                        str(kv[0][1]))):
            entries[f"{place}:{pid}"] = {
                "pure": verdict.pure,
                "expected": verdict.expected,
                "magnitudes": list(verdict.magnitudes),
            }
        body = {"weight": weight, "entries": entries,
                "verdict": "pure" if report.all_pure else "impure"}
        return _report("purity", report.all_pure, body, cfg)

    _run(ctx, go)


@main.command("pole-order")
@click.option("--q", "qval", type=int, required=True)
@click.option("--d", "dval", type=int, required=True)
@click.argument("poly_path", type=click.Path(exists=True))
@click.pass_context
def cmd_pole_order(ctx, poly_path, qval, dval):
    """Multiplicity of the root t = q^-d of an exact polynomial."""
    cfg = ctx.obj
    if qval < 2:
        raise click.UsageError(f"--q must be at least 2, got {qval}")

    def go():
        poly = textio.expect_kind(textio.load_path(poly_path),
                                  "int_polynomial")
        order = pole_order_at(poly, qval, dval)
        return _report("pole-order", True,
                       {"q": qval, "d": dval, "order": order}, cfg)

    _run(ctx, go)


if __name__ == "__main__":      # pragma: no cover
    main()
