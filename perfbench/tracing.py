"""The traced run: wrappers around each layer's public functions.

Wrappers are installed from here, never inside the library, and only
around public names, so that a refactor behind them leaves the traced run
working.  A function imported by name (``from .linalg import smat_mul``)
is bound in every module that imports it, so each wrapper replaces the
function in every ``sigma_nabla`` namespace that holds it; methods and
operators are replaced on their class.  A name the library no longer has
is skipped and its metrics read 0.  ``uninstall`` puts the originals back.

Spans (name, start, end, parent, job) are kept in flat arrays in memory
and written out when the run ends.  A span's self time is its duration
minus the durations of its child spans.  Counts are computed outside the
wrapped function, from its operands and its result, only while a job runs.
"""

import gzip
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

from sigma_nabla import (cli, factor, horizontal, lattice, lfunctions, linalg,
                         modules, points, textio)
from sigma_nabla.lfunctions import LSeries
from sigma_nabla.padic import IntPolynomial, PadicNumber
from sigma_nabla.series import LaurentSeries


def _mul_stats(tracer, args, result):
    ta, tb = len(args[0].items()), len(args[1].items())
    width = result.window[1] - result.window[0] + 1
    tracer.counts["series.mul.term_pairs"] += ta * tb
    tracer.counts["series.mul.cells"] += width
    tracer.maximum("series.mul.window_max", width)
    tracer.mul_terms[ta] += 1
    tracer.mul_terms[tb] += 1
    tracer.mul_widths[width] += 1


def _add(stat, value_of):
    def stats(tracer, args, result):
        tracer.counts[stat] += value_of(args, result)
    return stats


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# (span name, owner, attribute, stats).  An owner that is a class gets its
# attribute replaced; a module gets the function replaced wherever a
# sigma_nabla namespace holds it.  Series products have two public
# spellings, ``a * b`` and ``a.mul(b, ...)``.
SPANS = (
    ("series.mul", LaurentSeries, "__mul__", _mul_stats),
    ("series.mul", LaurentSeries, "mul", _mul_stats),
    ("series.add", LaurentSeries, "__add__", None),
    ("series.invert", LaurentSeries, "invert", None),
    ("series.frobenius", LaurentSeries, "frobenius", None),
    ("linalg.smat_mul", linalg, "smat_mul", None),
    ("linalg.smat_det", linalg, "smat_det", None),
    ("linalg.smat_inv", linalg, "smat_inv", None),
    ("linalg.mat_inv", linalg, "mat_inv", None),
    ("linalg.mat_mul", linalg, "mat_mul", None),
    ("factor.matfact_gamma", factor, "matfact_gamma",
     _add("factor.matfact_gamma.rounds", lambda a, r: r.rounds)),
    ("factor.matfact_robba", factor, "matfact_robba",
     _add("factor.matfact_robba.iterations", lambda a, r: r.iterations)),
    ("factor.descend_to_eplus", factor, "descend_to_eplus", None),
    ("factor.glue_dieudonne", factor, "glue_dieudonne", None),
    ("modules.check_compat", modules, "check_compat", None),
    ("modules.check_fv", modules, "check_fv", None),
    ("modules.basis_transform", modules, "basis_transform", None),
    ("modules.quasi_nilpotence_probe", modules, "quasi_nilpotence_probe",
     None),
    ("horizontal.horizontal_basis", horizontal, "horizontal_basis",
     _add("horizontal.horizontal_basis.degree_sum",
          lambda a, r: r.degree_achieved)),
    ("lattice.lattice_smith", lattice, "lattice_smith", None),
    ("points.char_coeffs", points, "char_coeffs",
     lambda t, a, r: t.maximum("points.char_coeffs.rank_max", len(a[0]))),
    ("points.purity_check", points, "purity_check", None),
    ("lfunctions.lfunction_truncated", lfunctions, "lfunction_truncated",
     _add("lfunctions.lfunction_truncated.points",
          lambda a, r: len(a[0].points))),
    ("lfunctions.lseries_mul", LSeries, "mul", None),
    ("lfunctions.inverse_series", lfunctions, "inverse_series", None),
    ("lfunctions.trace_formula_check", lfunctions, "trace_formula_check",
     None),
    ("lfunctions.pole_order_at", lfunctions, "pole_order_at", None),
    ("textio.load", textio, "load_path", _add("textio.load.bytes",
                                              _file_bytes)),
    ("textio.dump", textio, "dump_path", _add("textio.dump.bytes",
                                              _file_bytes)),
    ("textio.parse", textio, "expect_kind", None),
    ("cli.command", cli, "main", None),
)

# Scalar operations are counted, not timed: a span per p-adic addition
# would cost more than the addition.
COUNTERS = (
    ("padic.add.calls", PadicNumber, "__add__"),
    ("padic.mul.calls", PadicNumber, "__mul__"),
    ("padic.div.calls", PadicNumber, "__truediv__"),
    ("padic.intpoly_mul.calls", IntPolynomial, "__mul__"),
)

# (name, unit) of the per-layer metrics that are not span calls and self
# times or scalar-operation counts.
EXTRA_METRICS = (
    ("series.mul.term_pairs", "count"),
    ("series.mul.cells", "count"),
    ("series.mul.useful_ratio", "ratio"),
    ("series.mul.window_max", "count"),
    ("factor.matfact_gamma.rounds", "count"),
    ("factor.matfact_robba.iterations", "count"),
    ("horizontal.horizontal_basis.degree_sum", "count"),
    ("points.char_coeffs.rank_max", "count"),
    ("lfunctions.lfunction_truncated.points", "count"),
    ("textio.load.bytes", "bytes"),
    ("textio.dump.bytes", "bytes"),
    ("cli.exit_nonzero", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in SPANS))


def metric_specs():
    """(name, unit) of every per-layer metric, in BENCHMARK.json's order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    specs += [(name, "count") for name, _, _ in COUNTERS]
    return specs + list(EXTRA_METRICS)


class Tracer:
    """Spans and counts of one traced pass.  Records only while
    ``active`` is set, so checks between jobs are not traced."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.names = list(SPAN_NAMES)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = Counter()
        self.maxima = {}
        self.mul_terms = Counter()
        self.mul_widths = Counter()
        self._saved = []

    def maximum(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, nid, fn, stats):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack
                                      else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer.stack.pop()
            if stats is not None and result is not NotImplemented:
                stats(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer, counts = self, self.counts

        def wrapper(*args):
            if tracer.active:
                counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, make_wrapper):
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if original is not None:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))
            return
        original = getattr(owner, attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sigma_nabla" or
                                   modname.startswith("sigma_nabla.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        for name, owner, attr, stats in SPANS:
            nid = self.names.index(name)
            self._replace(owner, attr, lambda fn, nid=nid, stats=stats:
                          self._span_wrapper(nid, fn, stats))
        for name, owner, attr in COUNTERS:
            self._replace(owner, attr, lambda fn, name=name:
                          self._count_wrapper(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self seconds)."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += self.span_end[i] - self.span_start[i] - child[i]
        return {name: (calls[k], self_s[k])
                for k, name in enumerate(self.names)}

    def metrics(self, overhead_s):
        """Every per-layer metric, as {name: (value, unit)}."""
        values = {}
        for name, (calls, self_s) in self.self_times().items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        values.update(self.counts)
        values.update(self.maxima)
        cells = self.counts["series.mul.cells"]
        values["series.mul.useful_ratio"] = (
            self.counts["series.mul.term_pairs"] / cells if cells else 0.0)
        values["trace.spans"] = len(self.span_start)
        values["trace.overhead_s"] = overhead_s
        return {name: (values.get(name, 0), unit)
                for name, unit in metric_specs()}

    def write_spans(self, path):
        """One line per span: job, name, start and end in seconds from
        the first span, and the parent's 0-based index among the span
        lines (-1: none)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("job\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_job[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.7f}\t"
                         f"{self.span_end[i] - t0:.7f}\t"
                         f"{self.span_parent[i]}\n")


def power_of_two_histogram(counter):
    """Bucket counts as 0, 1, 2, 3-4, 5-8, 9-16, ..."""
    buckets = Counter()
    for value, count in counter.items():
        if value <= 2:
            label = str(value)
        else:
            hi = 1 << (value - 1).bit_length()
            label = f"{hi // 2 + 1}-{hi}"
        buckets[label] += count
    return dict(sorted(buckets.items(),
                       key=lambda kv: int(kv[0].split("-")[0])))
