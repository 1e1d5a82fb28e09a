"""Span tracing installed from outside the program.

`install(tracer)` replaces each function named in `SPANS` (public ones, plus
`cli._dump`, the CLI's JSON encoder) with a wrapper that records one span per
call: name, start, end, parent span and the id of the CLI call it belongs to.
It patches every namespace where a caller looks the name up, because callers
bind several functions by `from ... import` and patching the defining module
alone would miss them.  `uninstall` puts the originals back.
Untraced runs never call `install`.

`PrimeField` methods are deliberately not wrapped: one p = 13 `verify` call
makes about 7.8 million of them, and a wrapper there would mostly measure
itself.

Spans live in flat arrays (about 23 bytes each) and are written out once, at
the end of the traced pass, by `write`.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> every "module:attribute" a caller resolves the function through
SPANS = {
    "exactnum.ext_mul": ["g2frob.exactnum:ExtField.mul"],
    "exactnum.ext_inv": ["g2frob.exactnum:ExtField.inv"],
    "exactnum.ext_pow": ["g2frob.exactnum:ExtField.pow"],
    "exactnum.ext_frobenius": ["g2frob.exactnum:ExtField.frobenius"],
    "exactnum.find_irreducible": ["g2frob.exactnum:find_irreducible",
                                  "g2frob.cli:find_irreducible"],
    "poly.mul": ["g2frob.poly:mul"],
    "poly.divmod": ["g2frob.poly:divmod_"],
    "poly.gcd": ["g2frob.poly:gcd"],
    "poly.pow": ["g2frob.poly:pow"],
    "funcfield.make": ["g2frob.funcfield:Curve._make"],
    "funcfield.add": ["g2frob.funcfield:Curve.add"],
    "funcfield.mul": ["g2frob.funcfield:Curve.mul"],
    "funcfield.inv": ["g2frob.funcfield:Curve.inv"],
    "funcfield.d_coefficient": ["g2frob.funcfield:Curve.d_coefficient"],
    "funcfield.derivation_apply": ["g2frob.funcfield:Derivation.apply"],
    "pcurvature.matrix": ["g2frob.pcurvature:p_curvature_matrix",
                          "g2frob.verify:p_curvature_matrix"],
    "pcurvature.rank1": ["g2frob.pcurvature:p_curvature_rank1",
                         "g2frob.cartier:p_curvature_rank1",
                         "g2frob.verify:p_curvature_rank1"],
    "cartier.cartier_manin": ["g2frob.cartier:cartier_manin", "g2frob.cli:cartier_manin"],
    "cartier.p_rank": ["g2frob.cartier:p_rank", "g2frob.cli:p_rank"],
    "cartier.torsion": ["g2frob.cartier:enumerate_p_torsion",
                        "g2frob.cli:enumerate_p_torsion"],
    "linalg.kernel": ["g2frob.linalg:kernel_basis_mod_p",
                      "g2frob.cartier:kernel_basis_mod_p",
                      "g2frob.verify:kernel_basis_mod_p"],
    "linalg.span": ["g2frob.linalg:enumerate_span_mod_p",
                    "g2frob.cartier:enumerate_span_mod_p",
                    "g2frob.verify:enumerate_span_mod_p"],
    "verify.two_sums": ["g2frob.verify:check_two_sums", "g2frob.cli:check_two_sums"],
    "verify.offdiag": ["g2frob.verify:check_offdiag_closed_forms",
                       "g2frob.cli:check_offdiag_closed_forms"],
    "verify.rigidity": ["g2frob.verify:rigidity_scan", "g2frob.cli:rigidity_scan"],
    "cli.dump": ["g2frob.cli:_dump"],
}


def _arg(args, kwargs, i, key, default):
    return kwargs[key] if key in kwargs else (args[i] if len(args) > i else default)


# Spans whose name depends on the arguments: one function, two kinds of work.
_RENAME = {
    "pcurvature.matrix": lambda a, kw: "pcurvature.matrix_dual" if a[0].is_dual
    else "pcurvature.matrix",
    "cartier.torsion": lambda a, kw: "cartier.torsion_" + _arg(a, kw, 1, "method", "brute"),
    "verify.rigidity": lambda a, kw: "verify.rigidity_" + _arg(a, kw, 2, "mode", "brute"),
}


def _count_mul(t, a, kw, out):
    t.counts["poly.mul_coeff_products"] += len(a[1]) * len(a[2])


def _count_make(t, a, kw, out):
    # a = (curve, A, B, D); a normal form is a gcd hit when its denominator
    # actually shrank
    if (a[1] or a[2]) and len(out.D) < len(a[3]):
        t.counts["funcfield.gcd_hits"] += 1
    t.peaks["funcfield.peak_len"] = max(
        t.peaks["funcfield.peak_len"], len(out.A), len(out.B), len(out.D))


def _count_torsion(t, a, kw, out):
    F = a[0].field
    brute = _arg(a, kw, 1, "method", "brute") == "brute"
    t.counts["cartier.torsion_candidates"] += F.size ** 2 if brute else 2 * F.degree


def _count_kernel(t, a, kw, out):
    t.counts["linalg.kernel_cells"] += len(a[0]) * a[1]


def _count_span(t, a, kw, out):
    t.counts["linalg.span_size"] += a[2] ** len(a[0])


_HOOKS = {
    "poly.mul": _count_mul,
    "funcfield.make": _count_make,
    "cartier.torsion": _count_torsion,
    "linalg.kernel": _count_kernel,
    "linalg.span": _count_span,
}


class Tracer:
    """Spans of one traced pass, kept in memory until `write`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.call_id = -1
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, rename=None, hook=None):
        fixed_id = self._id(name)
        ids, stack = self._id, self._stack
        names, parents, calls = self.name, self.parent, self.call
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(ids(rename(args, kwargs)) if rename else fixed_id)
            parents.append(stack[-1])
            calls.append(self.call_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def summary(self):
        """{name: (calls, inclusive seconds, self seconds)}; self time is the
        span's duration minus the durations of its child spans."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {}
        for i in range(n):
            c, tot, slf = out.get(self.names[self.name[i]], (0, 0.0, 0.0))
            out[self.names[self.name[i]]] = (c + 1, tot + dur[i], slf + dur[i] - child[i])
        return out

    def write(self, path):
        """Spans as gzip'd tab-separated lines after a JSON header line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["span", "parent", "call", "name", "start", "end"],
                                 "names": self.names}) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.call[i]}\t{names[self.name[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def _resolve(target):
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer):
    """Wrap every function in SPANS; returns the (owner, attr, original)
    triples `uninstall` needs and the targets that no longer exist."""
    saved, missing, wrappers = [], [], {}
    for name, targets in SPANS.items():
        for target in targets:
            try:
                owner, leaf = _resolve(target)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                missing.append(target)
                continue
            # one wrapper per function, however many names it is bound to
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(
                    name, original, _RENAME.get(name), _HOOKS.get(name))
            setattr(owner, leaf, wrappers[id(original)])
            saved.append((owner, leaf, original))
    return saved, missing


def uninstall(saved):
    for owner, leaf, original in saved:
        setattr(owner, leaf, original)
    for owner, leaf, original in saved:
        if vars(owner)[leaf] is not original:
            raise RuntimeError(f"wrapper left on {owner.__name__}.{leaf}")


def _calls(summary, name):
    return summary.get(name, (0, 0.0, 0.0))[0]


def _incl(summary, name):
    return summary.get(name, (0, 0.0, 0.0))[1]


def _self(summary, name):
    return summary.get(name, (0, 0.0, 0.0))[2]


def layer_metrics(tracer, summary, setup_summary):
    """The per-layer metrics of one traced pass.  `*_self_s` is self time;
    any other `*_s` is the inclusive time of the named spans."""
    s, c = summary, tracer.counts
    normal_forms = _calls(s, "funcfield.make")
    return {
        "exactnum.ext_mul_calls": _calls(s, "exactnum.ext_mul"),
        "exactnum.ext_mul_self_s": _self(s, "exactnum.ext_mul"),
        "exactnum.ext_inv_calls": _calls(s, "exactnum.ext_inv"),
        "exactnum.ext_pow_self_s": _self(s, "exactnum.ext_pow"),
        "exactnum.find_irreducible_s": _incl(setup_summary, "exactnum.find_irreducible"),
        "poly.mul_calls": _calls(s, "poly.mul"),
        "poly.mul_self_s": _self(s, "poly.mul"),
        "poly.mul_coeff_products": c["poly.mul_coeff_products"],
        "poly.divmod_calls": _calls(s, "poly.divmod"),
        "poly.divmod_self_s": _self(s, "poly.divmod"),
        "poly.gcd_calls": _calls(s, "poly.gcd"),
        "poly.gcd_self_s": _self(s, "poly.gcd"),
        "poly.pow_self_s": _self(s, "poly.pow"),
        "funcfield.normal_forms": normal_forms,
        "funcfield.gcd_hit_ratio": c["funcfield.gcd_hits"] / normal_forms if normal_forms else 0.0,
        "funcfield.peak_len": tracer.peaks["funcfield.peak_len"],
        "funcfield.make_self_s": _self(s, "funcfield.make"),
        "funcfield.mul_s": _incl(s, "funcfield.mul"),
        "funcfield.add_s": _incl(s, "funcfield.add"),
        "funcfield.inv_s": _incl(s, "funcfield.inv"),
        "funcfield.d_coefficient_s": _incl(s, "funcfield.d_coefficient"),
        "funcfield.derivation_applies": _calls(s, "funcfield.derivation_apply"),
        "pcurvature.matrix_calls": _calls(s, "pcurvature.matrix") + _calls(s, "pcurvature.matrix_dual"),
        "pcurvature.matrix_s": _incl(s, "pcurvature.matrix"),
        "pcurvature.matrix_dual_s": _incl(s, "pcurvature.matrix_dual"),
        "pcurvature.rank1_calls": _calls(s, "pcurvature.rank1"),
        "pcurvature.rank1_s": _incl(s, "pcurvature.rank1"),
        "cartier.cartier_manin_calls": _calls(s, "cartier.cartier_manin"),
        "cartier.cartier_manin_s": _incl(s, "cartier.cartier_manin"),
        "cartier.p_rank_s": _incl(s, "cartier.p_rank"),
        "cartier.torsion_brute_s": _incl(s, "cartier.torsion_brute"),
        "cartier.torsion_semilinear_s": _incl(s, "cartier.torsion_semilinear"),
        "cartier.torsion_candidates": c["cartier.torsion_candidates"],
        "linalg.kernel_calls": _calls(s, "linalg.kernel"),
        "linalg.kernel_s": _incl(s, "linalg.kernel"),
        "linalg.kernel_cells": c["linalg.kernel_cells"],
        "linalg.span_size": c["linalg.span_size"],
        "verify.two_sums_s": _incl(s, "verify.two_sums"),
        "verify.offdiag_s": _incl(s, "verify.offdiag"),
        "verify.rigidity_linear_s": _incl(s, "verify.rigidity_linear"),
        "verify.lemma_reports": sum(_calls(s, n) for n in (
            "verify.two_sums", "verify.offdiag", "verify.rigidity_linear", "verify.rigidity_brute")),
        "cli.dump_s": _incl(s, "cli.dump"),
        "cli.call_overhead_s": _self(s, "cli.main"),
    }


def exact_counts(tracer, summary):
    """Everything a traced pass counts that must repeat exactly for a seed."""
    counts = {f"{name}.calls": calls for name, (calls, _, _) in summary.items()}
    counts.update(tracer.counts)
    counts.update(tracer.peaks)
    return counts
