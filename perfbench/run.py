"""folbott benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload degrees --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The work happens in fresh child
interpreters (worker.py) that import the checkout's ``src``; this
process only starts them, reaps them with ``os.wait4`` and reduces their
records.  With ``--trace 0`` the last stdout line holds every end-to-end
metric of BENCHMARK.json, with ``--trace 1`` every per-layer metric.
A provenance record, the per-command CLI medians and the first failures
go to stderr and to ``.bench_out/result-*.json``; traced runs also
write their spans to ``.bench_out/spans-*.tsv.gz``.

Exit code 0 means a result was printed; whether the outputs were right
is its ``correct`` field.  Without the package source next to it, or
when a worker dies, the benchmark prints no result and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5   # fresh interpreters per run for setup_s
FLOOR_SAMPLES = 7   # `python -c pass` / `-c "import folbott.cli"` pairs


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="reference outputs (tests pass a corrupted copy)")
    args = ap.parse_args(argv)
    try:
        result, report = run(args)
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    summarize(report)
    print(json.dumps(result))
    return 0


def run(args):
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "folbott" / "__init__.py").is_file():
        raise BenchError("no package source at %s" % (ROOT / "src/folbott"))
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload %r" % args.workload)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    env = workloads.child_env(ROOT)

    rec, rss_kb = spawn_worker(args, env, out, setup_only=False)
    attempted = rec["attempted"] + rec["attempted_ops"]
    failed = rec["failed"] + rec["failed_ops"]
    errors = list(rec["errors"])
    report = {"provenance": provenance(args), "errors": errors}
    if args.trace:
        metrics = traced_metrics(rec, env, out, report)
        section = "per_layer"
    else:
        setups = [rec["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            more, _ = spawn_worker(args, env, out, setup_only=True)
            setups.append(more["setup_s"])
            attempted += more["attempted"]
            failed += more["failed"]
            errors.extend(more["errors"])
        metrics = end_to_end_metrics(rec, rss_kb, setups, attempted, failed,
                                     report)
        section = "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise BenchError("metrics %s do not match BENCHMARK.json %s: %s" % (
            section, spec_path, sorted(set(metrics) ^ set(units))))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    report["result"] = result
    path = out / ("result-%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    report["path"] = str(path)
    return result, report


def spawn_worker(args, env, out, setup_only):
    """Run worker.py in a fresh interpreter; return (record, peak RSS kB)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", str(Path(args.expected).resolve()),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    res = workloads.run_child(cmd, env, out,
                              timeout=60 if setup_only else args.seconds + 90)
    lines = res.stdout.decode(errors="replace").strip().splitlines()
    if res.code != 0 or not lines:
        raise BenchError("worker exited with %d: %s" % (
            res.code, res.stderr.decode(errors="replace")[-2000:]))
    return json.loads(lines[-1]), res.maxrss_kb


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  Below 21 samples that percentile is
    under the median, so the median (p50) is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(rec, rss_kb, setups, attempted, failed, report):
    times = rec["op_times"]
    tail_s, pct = tail(times)
    if rec.get("cli_times") is not None:
        rss_kb = rec["child_maxrss_kb"]
        report["cli_command_median_s"] = {
            key: statistics.median(ts) for key, ts in rec["cli_times"].items()}
    report.update({"ops": len(times), "tail_percentile": pct,
                   "op_times_s": times, "setup_samples_s": setups})
    return {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / rec["loop_s"],
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": rss_kb / 1024,
    }


def traced_metrics(rec, env, out, report):
    layer = dict(rec["layer"])
    layer.update(cli_floor(env, out))
    cli_times = rec.get("cli_times") or {}
    for key, _ in workloads.CLI_COMMANDS:
        ts = cli_times.get(key)
        layer["cli.%s.s" % key] = statistics.median(ts) if ts else 0.0
    traced = statistics.median(rec["traced_times"])
    untraced = rec["op_times"]
    layer["trace.op_s"] = traced
    layer["trace.overhead_s"] = (traced - statistics.median(untraced)
                                 if untraced else 0.0)
    report.update({"traced_ops": len(rec["traced_times"]),
                   "untraced_ops": len(untraced),
                   "spans": rec["spans"], "spans_file": rec["spans_file"],
                   "missing_bindings": rec["missing_bindings"]})
    return layer


def cli_floor(env, out):
    """Interpreter start-up, and `import folbott.cli` on top of it."""
    floor = []
    full = []
    for _ in range(FLOOR_SAMPLES):
        for cmd, acc in (("pass", floor), ("import folbott.cli", full)):
            res = workloads.run_child([sys.executable, "-c", cmd], env, out,
                                      timeout=60)
            if res.code != 0:
                raise BenchError("python -c %r exited with %d" % (cmd,
                                                                 res.code))
            acc.append(res.wall_s)
    interp = statistics.median(floor)
    return {"cli.interpreter.ms": 1000 * interp,
            "cli.import.ms": 1000 * (statistics.median(full) - interp)}


def provenance(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": _cpu_model(), "commit": _commit(),
            "src_sha256": _src_digest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit():
    """HEAD of the checkout, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _src_digest():
    """SHA-256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def summarize(report):
    """Human-readable lines on stderr."""
    prov = report["provenance"]
    res = report["result"]
    print("perfbench %s seed %d trace %d: correct=%s attempted=%d failed=%d"
          % (prov["workload"], prov["seed"], prov["trace"], res["correct"],
             res["attempted"], res["failed"]), file=sys.stderr)
    if "ops" in report:
        print("  %d timed ops; op_tail_s is the p%.1f" % (
            report["ops"], report["tail_percentile"]), file=sys.stderr)
    for key, value in sorted(report.get("cli_command_median_s", {}).items()):
        print("  cli %s median %.4f s" % (key, value), file=sys.stderr)
    for name, m in res["metrics"].items():
        print("  %s = %s %s" % (name, m["value"], m["unit"]), file=sys.stderr)
    for err in report["errors"][:5]:
        print("  FAILED: %s" % err, file=sys.stderr)
    print("  provenance: %s" % json.dumps(prov), file=sys.stderr)
    print("  details: %s" % report["path"], file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
