"""Spans at the layer boundaries of folbott, recorded from outside.

The tracer replaces module and class attributes of the package with
wrappers, in the benchmark's own process only.  Each call of a wrapped
name while tracing is on becomes a span: name, start, end and the span
that was open when it began.  Spans stay in flat arrays in memory and
are written out once, at the end of the run.

A layer's self time is its span's duration minus the time its direct
child spans cover.  Where one layer reaches another through a name it
imported (``bottsum.build_catalog``, ``relations.display_sum``) or
through a method (``Polynomial.exact_divide``), that binding is wrapped,
so the callee becomes a child span and drops out of the caller's self
time.
"""

import gzip
import time
from array import array

# (owner path, attribute, span name).  The owner path is "module" or
# "module:Class" inside the folbott package.  An attribute that a later
# version of the package no longer has is skipped and reported.
LAYER_BINDINGS = (
    ("torus:EigenWeight", "evaluate_at_flag", "torus.evaluate_at_flag"),
    ("bottsum", "build_catalog", "fixlocus.build_catalog"),
    ("bottsum", "point_term", "bottsum.point_term"),
    ("bottsum", "line_term", "bottsum.line_term"),
    ("bottsum", "contribution_sum", "bottsum.contribution_sum"),
    ("bottsum", "fiber_degree", "bottsum.fiber_degree"),
    ("bottsum", "component_degree", "bottsum.component_degree"),
    ("relations", "display_sum", "bottsum.display_sum"),
    ("relations", "build_system", "relations.build_system"),
    ("relations", "solve_relations", "relations.solve_relations"),
    ("relations", "rref", "relations.rref"),
    ("relations:SolvedRelations", "substitute", "relations.substitute"),
    ("ratpoly:Polynomial", "exact_divide", "ratpoly.exact_divide"),
    ("ratpoly:Polynomial", "substitute", "ratpoly.substitute"),
    ("ratpoly:Polynomial", "__mul__", "ratpoly.mul"),
    ("ratpoly:Polynomial", "__rmul__", "ratpoly.mul"),
    ("resolve", "parse_poly", "ratpoly.parse_poly"),
    ("extforms", "parse_poly", "ratpoly.parse_poly"),
    ("resolve", "build_omega", "extforms.build_omega"),
    ("extforms:OneForm", "euler_pairing", "extforms.euler_pairing"),
    ("extforms:OneForm", "proportional", "extforms.proportional"),
    ("resolve", "run_chart", "resolve.run_chart"),
    ("resolve", "check_tables", "resolve.check_tables"),
)


def chart_label(chart_id):
    """Chart id as it appears in a metric name: '=' becomes '-'."""
    return chart_id.replace("=", "-")


class Tracer:
    """Span recorder for one thread; wrapped names pass straight through
    while ``on`` is false."""

    def __init__(self):
        self.on = False
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.missing = []

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner, attr, span):
        """Replace ``owner.attr`` by a wrapper that records a span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append("%s.%s" % (owner.__name__, attr))
            return
        tracer = self
        if span == "resolve.run_chart":
            def span_id(args, kwargs):
                chart = args[0] if args else next(iter(kwargs.values()))
                return tracer.name_id("resolve.run_chart." +
                                      chart_label(chart))
        else:
            fixed = self.name_id(span)

            def span_id(args, kwargs):
                return fixed

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(span_id(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        setattr(owner, attr, traced)

    def install(self, package):
        """Wrap every binding in LAYER_BINDINGS inside ``package``."""
        import importlib
        for path, attr, span in LAYER_BINDINGS:
            module, _, cls = path.partition(":")
            owner = importlib.import_module("%s.%s" % (package, module))
            if cls:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, span)

    def summarize(self, first, stop):
        """Per span name over spans[first:stop]: (calls, self ns, total ns)."""
        child = {}
        for idx in range(first, stop):
            p = self.parent[idx]
            if p >= first:
                child[p] = child.get(p, 0) + self.end[idx] - self.start[idx]
        out = {}
        for idx in range(first, stop):
            dur = self.end[idx] - self.start[idx]
            calls, self_ns, total_ns = out.get(self.names[self.name[idx]],
                                               (0, 0, 0))
            out[self.names[self.name[idx]]] = (
                calls + 1, self_ns + dur - child.get(idx, 0), total_ns + dur)
        return out

    def write(self, path, ops):
        """Write the spans of ``ops`` = [(op index, first, stop)] as
        gzip'd TSV with columns op, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for op, first, stop in ops:
                for idx in range(first, stop):
                    fh.write("%d\t%d\t%d\t%s\t%d\t%d\n" % (
                        op, idx, self.parent[idx],
                        self.names[self.name[idx]], self.start[idx],
                        self.end[idx]))
