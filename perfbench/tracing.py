"""Span tracing of tnomial's layers from outside the package.

Tracer.install replaces each public function in the namespace of the
module that calls it (report, cosets, reduction, experiments, cli), so
the program's own lookups go through a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in
memory; per_layer turns the spans of one round into the per-layer
metrics, where self time is a span's duration minus that of the spans
directly inside it.
"""

from __future__ import annotations

import functools
import math
import time

# (consumer module, attribute, layer name).  The layer name is
# <defining module>.<function>, with both field constructors as one layer.
HOOKS = (
    ("report", "compute_params", "params.compute_params"),
    ("report", "count_roots_bruteforce", "poly.count_roots_bruteforce"),
    ("report", "count_roots_gcd", "poly.count_roots_gcd"),
    ("report", "compute_C", "cosets.compute_C"),
    ("report", "find_vanishing_cosets", "cosets.find_vanishing_cosets"),
    ("report", "root_coset_decomposition", "cosets.root_coset_decomposition"),
    ("report", "degree_reduce", "reduction.degree_reduce"),
    ("report", "bound_from_C", "reduction.bound_from_C"),
    ("report", "bound_from_D", "reduction.bound_from_D"),
    ("cosets", "has_nonzero_root", "poly.has_nonzero_root"),
    ("reduction", "compute_C", "cosets.compute_C"),
    ("reduction", "find_small_multiple", "reduction.find_small_multiple"),
    ("reduction", "count_roots_bruteforce", "poly.count_roots_bruteforce"),
    ("experiments", "compute_C", "cosets.compute_C"),
    ("experiments", "make_prime_field", "field.make_field"),
    ("cli", "make_prime_field", "field.make_field"),
    ("cli", "make_extension_field", "field.make_field"),
    ("cli", "parse_tnomial", "poly.parse_tnomial"),
    ("cli", "analyze", "report.analyze"),
    ("cli", "render_json", "report.render_json"),
    ("cli", "compute_max_R", "experiments.compute_max_R"),
    ("cli", "conjecture_table", "experiments.conjecture_table"),
    ("cli", "sample_vanishing_proportion", "experiments.sample_vanishing_proportion"),
    ("cli", "root_distribution_sample", "experiments.root_distribution_sample"),
)

# Work counted at a layer boundary: layer -> (counter, f(args, result)).
_SCANS = ("poly.count_roots_bruteforce", "poly.has_nonzero_root",
          "cosets.root_coset_decomposition")


def _units(args, _result):
    return args[0].field.q - 1


def _gcd_degree(args, _result):
    f = args[0]
    return f.terms[-1][0] - f.terms[0][0]


def _family(args, _result):
    p, t = args[0], args[1]
    return math.comb(p - 1, t) * (p - 1) ** t


COUNTERS = {
    "poly.count_roots_bruteforce": ("poly.units_scanned", _units),
    "poly.has_nonzero_root": ("poly.units_scanned", _units),
    "poly.count_roots_gcd": ("poly.gcd_degree_sum", _gcd_degree),
    "cosets.find_vanishing_cosets": ("cosets.witnesses", lambda a, r: len(r)),
    "reduction.degree_reduce": ("reduction.reduced_polys", lambda a, r: r.k),
    "report.render_json": ("report.output_bytes", lambda a, r: len(r.encode())),
    "experiments.compute_max_R": ("experiments.enumerated_polys", _family),
    "experiments.conjecture_table": ("experiments.enumerated_polys", _family),
    "experiments.sample_vanishing_proportion": ("experiments.samples", lambda a, r: a[1]),
    "experiments.root_distribution_sample": ("experiments.samples", lambda a, r: a[1]),
}

# (metric, unit, better): every per-layer metric the traced run prints.
PER_LAYER = (
    ("field.make_field.s", "s", "lower"),
    ("field.make_field.calls", "count", "lower"),
    ("poly.parse_tnomial.s", "s", "lower"),
    ("poly.count_roots_bruteforce.s", "s", "lower"),
    ("poly.count_roots_bruteforce.calls", "count", "lower"),
    ("poly.units_scanned", "count", "lower"),
    ("poly.has_nonzero_root.s", "s", "lower"),
    ("poly.has_nonzero_root.calls", "count", "lower"),
    ("poly.count_roots_gcd.s", "s", "lower"),
    ("poly.count_roots_gcd.calls", "count", "lower"),
    ("poly.gcd_degree_sum", "count", "lower"),
    ("params.compute_params.s", "s", "lower"),
    ("cosets.compute_C.self_s", "s", "lower"),
    ("cosets.compute_C.calls", "count", "lower"),
    ("cosets.find_vanishing_cosets.s", "s", "lower"),
    ("cosets.find_vanishing_cosets.calls", "count", "lower"),
    ("cosets.witnesses", "count", "lower"),
    ("cosets.root_coset_decomposition.s", "s", "lower"),
    ("reduction.degree_reduce.self_s", "s", "lower"),
    ("reduction.degree_reduce.calls", "count", "lower"),
    ("reduction.reduced_polys", "count", "lower"),
    ("reduction.find_small_multiple.s", "s", "lower"),
    ("reduction.bound_from_C.self_s", "s", "lower"),
    ("reduction.bound_from_D.s", "s", "lower"),
    ("report.analyze.self_s", "s", "lower"),
    ("report.render_json.s", "s", "lower"),
    ("report.output_bytes", "bytes", "lower"),
    ("report.unit_scans_per_report", "count", "lower"),
    ("experiments.compute_max_R.s", "s", "lower"),
    ("experiments.conjecture_table.s", "s", "lower"),
    ("experiments.enumerated_polys_per_s", "1/s", "higher"),
    ("experiments.sample_vanishing_proportion.s", "s", "lower"),
    ("experiments.root_distribution_sample.s", "s", "lower"),
    ("experiments.samples_per_s", "1/s", "higher"),
    ("cli.main.self_s", "s", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, result)
            return result

        return traced

    def install(self, package) -> None:
        for module, attr, name in HOOKS:
            mod = getattr(package, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def take(self) -> tuple:
        """Hand over the spans and counts recorded so far and start afresh."""
        out = (self.spans, self.counts)
        self.spans, self.counts = [], {}
        return out


def per_layer(spans: list, counts: dict) -> dict:
    """Per-layer metrics of one batch of spans and counts."""
    total: dict = {}
    child: dict = {}
    calls: dict = {}
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    self_s: dict = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child.get(i, 0.0)

    scans = sum(calls.get(name, 0) for name in _SCANS)
    reports = calls.get("report.analyze", 0)
    enum_s = total.get("experiments.compute_max_R", 0.0) + total.get("experiments.conjecture_table", 0.0)
    sample_s = (total.get("experiments.sample_vanishing_proportion", 0.0)
                + total.get("experiments.root_distribution_sample", 0.0))
    derived = {
        "report.unit_scans_per_report": scans / reports if reports else 0.0,
        "experiments.enumerated_polys_per_s":
            counts.get("experiments.enumerated_polys", 0) / enum_s if enum_s else 0.0,
        "experiments.samples_per_s": counts.get("experiments.samples", 0) / sample_s if sample_s else 0.0,
    }
    out = {}
    for metric, _unit, _better in PER_LAYER:
        layer, _, quantity = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        elif quantity == "s":
            out[metric] = total.get(layer, 0.0)
        elif quantity == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif quantity == "calls":
            out[metric] = calls.get(layer, 0)
        else:
            out[metric] = counts.get(metric, 0)
    return out
