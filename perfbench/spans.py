"""Span tracing of homhopf from outside the program.

`Tracer.install` replaces the functions and methods named in `SPANS` with
wrappers that record one span each call: name, start, end and the
enclosing span.  Functions are rebound in every loaded `homhopf` module
that holds them, so names bound by `from ... import` are traced too.
Self time is a span's duration minus the time its child spans cover.
"""

import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); several attributes may share a name
SPANS = [
    ("foundation.rowspace_add", "foundation", "RowSpace.add"),
    ("foundation.rowspace_reduce", "foundation", "RowSpace.reduce"),
    ("uea_trees.build_truncated_uea", "uea_trees", "build_truncated_uea"),
    ("uea_trees.lift_to_Uh_action", "uea_trees", "lift_to_Uh_action"),
    ("uea_trees.well_definedness", "uea_trees",
     "TruncatedUEA.well_definedness_report"),
    ("uea_trees.product", "uea_trees", "TruncatedUEA.product"),
    ("uea_trees.comult", "uea_trees", "TruncatedUEA.comult_map"),
    ("uea_trees.shift", "uea_trees", "TruncatedUEA.alpha_map"),
    ("uea_trees.shift", "uea_trees", "TruncatedUEA.alpha_inv"),
    ("uea_trees.shift", "uea_trees", "TruncatedUEA.alpha_pow"),
    ("uea_trees.antipode", "uea_trees", "TruncatedUEA.antipode_map"),
    ("duality.dual_product", "duality", "TruncatedDual.product_dropped"),
    ("duality.dual_precompose", "duality", "TruncatedDual._precompose"),
    ("duality.dual_comult", "duality", "TruncatedDual.comult_map"),
    ("duality.dual_antipode", "duality", "TruncatedDual.antipode_map"),
    ("duality.dual_hom_hopf", "duality", "dual_hom_hopf"),
    ("hom_core.check_run", "hom_core", "CheckReport.run"),
    ("hom_lie.check_hom_lie", "hom_lie", "check_hom_lie"),
    ("cross_products.matched_pair_check", "cross_products",
     "check_matched_pair_hopf"),
    ("cross_products.mutual_pair_check", "cross_products", "check_mutual_pair"),
    ("cross_products.bicross_product", "cross_products", "Bicrossproduct.product"),
    ("cross_products.bicross_comult", "cross_products",
     "Bicrossproduct.comult_map"),
    ("cross_products.doublecross_product", "cross_products",
     "DoubleCrossProduct.product"),
    ("semidual.semidualize", "semidual", "semidualize"),
    ("semidual.build_hom_lie_hopf", "semidual", "build_hom_lie_hopf"),
    ("cli.parse_input", "cli", "parse_input"),
    ("cli.emit_report", "cli", "emit_report"),
]

# spans reported with their call count as well as their self time
COUNTED = [
    "foundation.rowspace_add", "foundation.rowspace_reduce",
    "uea_trees.product", "uea_trees.comult", "uea_trees.shift",
    "uea_trees.antipode", "duality.dual_product", "duality.dual_precompose",
    "duality.dual_comult", "duality.dual_antipode", "hom_core.check_run",
    "hom_lie.check_hom_lie", "cross_products.bicross_product",
    "cross_products.bicross_comult", "cross_products.doublecross_product",
]


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.stack = []
        self.counts = Counter()
        self.tuple_s = 0.0
        self.skipped_tuple_s = 0.0

    # -- recording

    def _wrap(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, start, end, parent = self.span_name, self.start, self.end, self.parent
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after(self, name):
        counts = self.counts
        if name == "foundation.rowspace_add":
            def after(args, accepted):
                counts["foundation.rowspace_add.accepted"] += bool(accepted)
        elif name == "uea_trees.build_truncated_uea":
            def after(args, u):
                counts["uea_trees.build_truncated_uea.ambient"] += len(u.ambient)
                counts["uea_trees.build_truncated_uea.rank"] += u.rowspace.rank
        elif name == "cli.emit_report":
            def after(args, data):
                counts["cli.report_bytes"] += len(data)
        else:
            return None
        return after

    def _check_run(self, run, overflow):
        """CheckReport.run with each tuple timed, so that the time spent on
        tuples that end in TruncationOverflow (and are skipped) is known."""
        tracer = self
        counts = self.counts

        def timed_run(report, eq_id, tuples, fn):
            def timed(*tup):
                t0 = perf_counter()
                try:
                    out = fn(*tup)
                except overflow:
                    dt = perf_counter() - t0
                    tracer.tuple_s += dt
                    tracer.skipped_tuple_s += dt
                    counts["hom_core.tuples_skipped"] += 1
                    raise
                tracer.tuple_s += perf_counter() - t0
                counts["hom_core.tuples_checked"] += 1
                return out

            return run(report, eq_id, tuples, timed)

        return timed_run

    def install(self):
        """Wrap every entry of SPANS in the loaded homhopf package."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "homhopf" or name.startswith("homhopf."))
        }
        overflow = modules["homhopf.errors"].TruncationOverflow
        for span, modname, attr in SPANS:
            owner = modules["homhopf." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                if span == "hom_core.check_run":
                    fn = self._check_run(fn, overflow)
                setattr(cls, meth, self._wrap(span, fn, self._after(span)))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(span, fn, self._after(span))
            for mod in modules.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapped)

    # -- results

    def span_totals(self):
        """span name -> (calls, self seconds)."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return calls, self_s

    def metrics(self, scale=1.0):
        """Every per-layer metric except the ones the caller adds; times are
        multiplied by `scale`."""
        calls, self_s = self.span_totals()
        out = {}
        for name in dict.fromkeys(span for span, _, _ in SPANS):
            out[name + ".self_s"] = (self_s[name] * scale, "s")
        for name in COUNTED:
            out[name + ".calls"] = (calls[name], "count")
        for key in (
            "foundation.rowspace_add.accepted",
            "uea_trees.build_truncated_uea.ambient",
            "uea_trees.build_truncated_uea.rank",
            "hom_core.tuples_checked",
            "hom_core.tuples_skipped",
        ):
            out[key] = (self.counts[key], "count")
        out["cli.report_bytes"] = (self.counts["cli.report_bytes"], "bytes")
        adds = calls["foundation.rowspace_add"]
        accepted = self.counts["foundation.rowspace_add.accepted"]
        out["foundation.rowspace_add.accept_ratio"] = (
            accepted / adds if adds else 0.0, "ratio")
        out["hom_core.skipped_tuple_s"] = (self.skipped_tuple_s * scale, "s")
        out["hom_core.skipped_time_share"] = (
            self.skipped_tuple_s / self.tuple_s if self.tuple_s else 0.0, "ratio")
        return out, calls
