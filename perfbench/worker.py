"""Run one workload in a fresh interpreter: set up, then time operations.

Started by run.py, never by hand.  ``--spawned-at`` is the parent's
``time.perf_counter()`` just before it started this interpreter (the
clock is CLOCK_MONOTONIC, shared by all processes), so set-up time runs
from interpreter start to the first timed operation.  With
``--setup-only`` the worker stops there.  The last stdout line is one
JSON record for run.py.

With ``--trace 1`` operations alternate between traced and untraced;
the traced ones give the per-layer numbers, and the two medians give the
tracing overhead.
"""

import argparse
import json
import statistics
import sys
import time
from collections import namedtuple
from pathlib import Path

import workloads
from tracer import Tracer, chart_label

# Per-layer metrics taken from the spans.  ".calls" come from the first
# traced operation, which has the same input in every run with the same
# seed; ".ms" are medians over the traced operations.
CALL_SPANS = (
    "torus.evaluate_at_flag", "fixlocus.build_catalog",
    "bottsum.point_term", "bottsum.line_term", "bottsum.contribution_sum",
    "relations.rref", "relations.substitute",
    "ratpoly.exact_divide", "ratpoly.substitute", "ratpoly.mul",
    "ratpoly.parse_poly",
)
SELF_MS_SPANS = CALL_SPANS + (
    "relations.build_system",
    "extforms.build_omega", "extforms.euler_pairing", "extforms.proportional",
)
# A whole pipeline stage: its inclusive time.
TOTAL_MS_SPANS = ("resolve.check_tables",)
# The parameter charts of resolve.CHARTS, one metric each.
PIPELINE_CHARTS = ("b3=a6=1", "b0=a0=u1=1", "b0=a0=u2=1", "b0=a0=u3=1",
                   "b2=1")

# One traced operation: its index in the run, its spans [first, stop),
# what it produced (Workload.last), the --jobs probe and its duration.
TracedOp = namedtuple("TracedOp", "index first stop output probe seconds")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    out = Path(args.out)

    wl = workloads.make(args.workload, args.seed,
                        workloads.load_expected(args.expected), root, out)
    import folbott
    if Path(folbott.__file__).resolve().parent != root / "src" / "folbott":
        sys.exit("folbott imported from %s, not from this checkout"
                 % folbott.__file__)
    warm = checked(wl.warm_up)
    setup_s = time.perf_counter() - args.spawned_at
    errors = list(warm[1]) if warm else []
    record = {"setup_s": setup_s, "attempted": 1 if warm else 0,
              "failed": 1 if errors else 0}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install("folbott")
        record.update(measure(wl, args.seconds, tracer, errors))
        traced_ops = record.pop("traced_ops")
        if tracer is not None:
            record.update(per_layer(wl, tracer, traced_ops))
            path = out / ("spans-%s-seed%d.tsv.gz"
                          % (args.workload, args.seed))
            tracer.write(path, [(op.index, op.first, op.stop)
                                for op in traced_ops])
            record.update(spans_file=str(path), spans=len(tracer.start),
                          missing_bindings=tracer.missing)
        record.update(wl.details())
    record["errors"] = errors[:5]
    print(json.dumps(record))


def measure(wl, seconds, tracer, errors):
    """Closed loop of operations for ``seconds``, in whole rounds.

    Traced mode traces every other operation, starting with the first.
    """
    untraced = []
    traced = []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        index = len(untraced) + len(traced)
        trace_this = tracer is not None and index % 2 == 0
        if trace_this:
            first = len(tracer.start)
            tracer.on = True
            root_span = tracer.open(tracer.name_id("op"))
        wl.last = None
        elapsed, problems = checked(wl.op)
        if trace_this:
            tracer.close(root_span)
            tracer.on = False
            probe = None
            if wl.last is not None:
                probe = probed(wl.jobs_probe, wl.last, index)
            traced.append(TracedOp(index, first, len(tracer.start), wl.last,
                                   probe, elapsed))
        else:
            untraced.append(elapsed)
        if problems:
            failed += 1
            errors.extend(problems)
        done = time.perf_counter()
        if done >= deadline and (index + 1) % wl.round == 0:
            break
    return {"attempted_ops": len(untraced) + len(traced),
            "failed_ops": failed, "loop_s": done - start,
            "op_times": untraced, "traced_ops": traced}


def checked(op):
    """Run ``op`` -> (seconds, problems); an exception is one problem."""
    t0 = time.perf_counter()
    try:
        return op()
    except Exception as err:  # a raising op or check is a failed op
        return time.perf_counter() - t0, ["%s: %s" % (type(err).__name__,
                                                      err)]


def probed(probe, *args):
    """Run a per-layer probe; if the package changed under it, say so on
    stderr and return None, so the layer reads 0 and the run goes on."""
    try:
        return probe(*args)
    except Exception as err:
        print("perfbench: probe %s failed: %s: %s" % (
            probe.__name__, type(err).__name__, err), file=sys.stderr)
        return None


def per_layer(wl, tracer, traced_ops):
    """Per-layer numbers from the spans of the traced operations."""
    summaries = [tracer.summarize(op.first, op.stop) for op in traced_ops]

    def median_ms(name, field):
        return statistics.median(s.get(name, (0, 0, 0))[field]
                                 for s in summaries) / 1e6

    layer = {name + ".calls": summaries[0].get(name, (0,))[0]
             for name in CALL_SPANS}
    layer.update((name + ".ms", median_ms(name, 1)) for name in SELF_MS_SPANS)
    layer.update((name + ".ms", median_ms(name, 2)) for name in
                 TOTAL_MS_SPANS + tuple("resolve.run_chart." + chart_label(c)
                                        for c in PIPELINE_CHARTS))
    layer.update({"bottsum.max_bits": 0, "relations.rank": 0,
                  "ratpoly.max_terms": 0, "resolve.ledger.ok_ratio": 0.0})
    if traced_ops[0].output is not None:
        layer.update(probed(wl.counts, traced_ops[0].output) or {})
    probes = [op.probe for op in traced_ops if op.probe is not None]
    for jobs, key in ((1, "bottsum.component_degree.ms"),
                      (2, "bottsum.component_degree.jobs2_ms")):
        layer[key] = (1000 * statistics.median(p[jobs] for p in probes)
                      if probes else 0.0)
    return {"layer": layer,
            "traced_times": [op.seconds for op in traced_ops]}


if __name__ == "__main__":
    main()
