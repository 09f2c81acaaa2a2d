"""Seeded inputs, timed operations and exactness checks of each workload.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished.  Each operation returns a
list of problems; an empty list means every output matched
``expected.json``.  A wrong output or an exception is a failed
operation, never a crash of the run.

This module imports ``folbott`` only in ``make``, so the orchestrator
(run.py) can use ``run_child`` without importing the package it
measures.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple

DEFAULT_WEIGHTS = (0, 1, 5, 25)
NARROW_BOUND = 40
WIDE_BOUND = 10 ** 8

# The fixed CLI round robin: (metric key, arguments after -m folbott.cli).
CLI_COMMANDS = (
    ("fiber_degree", ("fiber-degree", "--output", "json")),
    ("component_degree", ("component-degree", "--output", "json")),
    ("relations", ("relations", "--output", "json")),
    ("resolve", ("resolve",)),
    ("check_tables", ("resolve", "--check-tables")),
)


def weight_vectors(bound, seed, validate, rejected):
    """Endless seeded stream of admissible weight vectors in [-bound, bound]^4.

    Admissibility is the program's own: ``validate`` is
    ``torus.validate_weights``, and a vector it rejects with
    ``rejected`` is redrawn.
    """
    rng = random.Random("weights:%d:%d" % (bound, seed))
    while True:
        w = tuple(rng.randint(-bound, bound) for _ in range(4))
        try:
            validate(w)
        except rejected:
            continue
        yield w


def child_env(root):
    """Environment for a child interpreter that imports ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


ChildResult = namedtuple("ChildResult", "code stdout stderr wall_s maxrss_kb")


def run_child(cmd, env, scratch, timeout):
    """Run one child to completion and return its output and rusage.

    The child is reaped with ``os.wait4`` so that its own peak RSS is
    known; its output goes to temporary files under ``scratch`` so that
    a large output cannot block it.  A child still running after
    ``timeout`` seconds is killed, and still waited for.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read(), err.read(), wall,
                           usage.ru_maxrss)


def load_expected(path):
    with open(path) as fh:
        return json.load(fh)


def make(name, seed, expected, root, scratch):
    """The workload called ``name``; this imports the package."""
    if name == "degrees":
        return Degrees(NARROW_BOUND, seed, expected)
    if name == "degrees-wide":
        return Degrees(WIDE_BOUND, seed, expected)
    if name == "pipelines":
        return Pipelines(seed, expected)
    if name == "cli":
        return Cli(seed, expected, root, scratch)
    raise ValueError("unknown workload %r" % name)


class Workload:
    """One workload: its seeded inputs, its operation and its checks.

    ``op`` runs the next timed operation and returns (seconds, problems);
    it leaves what it produced in ``last`` for the per-layer counts.
    ``warm_up`` runs one untimed, checked operation the same way, or
    returns None where set-up has none.  A run ends only after a whole
    ``round`` of operations.
    """

    round = 1
    last = None

    def warm_up(self):
        return None

    def counts(self, output):
        """Exact per-layer counts read off one operation's output."""
        return {}

    def jobs_probe(self, output, index):
        return None

    def details(self):
        """Extra fields for the run's record."""
        return {}


class Degrees(Workload):
    """build_system -> solve_relations -> fiber and component degree at
    one seeded weight vector in [-bound, bound]^4."""

    def __init__(self, bound, seed, expected):
        from folbott import bottsum, relations, torus
        self.bottsum = bottsum
        self.relations = relations
        self.torus = torus
        self.expected = expected
        self.inputs = weight_vectors(bound, seed, torus.validate_weights,
                                     torus.WeightError)

    def warm_up(self):
        return self._run(DEFAULT_WEIGHTS)

    def op(self):
        return self._run(next(self.inputs))

    def _run(self, w):
        relations = self.relations
        bottsum = self.bottsum
        start = time.perf_counter()
        try:
            solved = relations.solve_relations(relations.build_system(w))
            fiber = bottsum.fiber_degree(w, 7, solved)
            component = bottsum.component_degree(w, 13, solved)
        except Exception as err:  # a raising op is a failed op
            return time.perf_counter() - start, ["weights %s: %s: %s" % (
                w, type(err).__name__, err)]
        elapsed = time.perf_counter() - start
        self.last = (w, solved)
        return elapsed, self.check(w, fiber, component, solved)

    def check(self, w, fiber, component, solved):
        exp = self.expected
        problems = []
        if str(fiber) != exp["fiber_degree"]:
            problems.append("fiber %s != %s" % (fiber, exp["fiber_degree"]))
        if str(component) != exp["component_degree"]:
            problems.append("component %s != %s"
                            % (component, exp["component_degree"]))
        if solved.rank != exp["rank"]:
            problems.append("rank %s != %s" % (solved.rank, exp["rank"]))
        if self.relations.relation_strings(solved) != exp["relation_strings"]:
            problems.append("relation strings differ")
        return ["weights %s: %s" % (w, p) for p in problems]

    def counts(self, output):
        w, solved = output
        bits = 0
        for flag in self.torus.enumerate_fixed_flags():
            form = self.bottsum.contribution_sum(flag, w, 13)
            for c in form.coeffs.values():
                bits = max(bits, c.numerator.bit_length(),
                           c.denominator.bit_length())
        return {"relations.rank": solved.rank, "bottsum.max_bits": bits}

    def jobs_probe(self, output, index):
        """component_degree at --jobs 1 and 2 on the op's weights: seconds."""
        w, solved = output
        out = {}
        for jobs in (1, 2) if index % 4 == 0 else (2, 1):
            t0 = time.perf_counter()
            self.bottsum.component_degree(w, 13, solved, jobs)
            out[jobs] = time.perf_counter() - t0
        return out


class Pipelines(Workload):
    """All chart pipelines run cold, then the ledger and the table check;
    the seed shuffles the chart order."""

    def __init__(self, seed, expected):
        from folbott import resolve
        self.resolve = resolve
        self.expected = expected
        self.rng = random.Random("pipelines:%d" % seed)

    def warm_up(self):
        return self.op()

    def op(self):
        resolve = self.resolve
        order = list(resolve.CHART_IDS)
        self.rng.shuffle(order)
        # Cold pipelines: forget the runs of the previous operation.
        getattr(resolve, "_RUN_CACHE", {}).clear()
        start = time.perf_counter()
        try:
            runs = [resolve.get_run(cid) for cid in order]
            ledger = resolve.divisibility_ledger()
            reports = resolve.check_tables()
        except Exception as err:  # a raising op is a failed op
            return time.perf_counter() - start, ["charts %s: %s: %s" % (
                ",".join(order), type(err).__name__, err)]
        elapsed = time.perf_counter() - start
        self.last = (runs, ledger)
        return elapsed, self.check(ledger, reports)

    def check(self, ledger, reports):
        exp = self.expected
        problems = []
        if [e.describe() for e in ledger] != exp["ledger"]:
            problems.append("ledger differs (%d entries, %d ok)" % (
                len(ledger), sum(1 for e in ledger if e.ok)))
        lines = ["%s r%d: %s" % (r.table, r.row, r.status) for r in reports]
        if lines != exp["tables"]:
            problems.append("table statuses differ")
        counts = {}
        for r in reports:
            counts[r.status] = counts.get(r.status, 0) + 1
        if counts != exp["statuses"]:
            problems.append("status counts %s != %s"
                            % (counts, exp["statuses"]))
        flagged = [[r.table, r.row] for r in reports
                   if r.status == "documented_mismatch"]
        if flagged != exp["documented_mismatch"]:
            problems.append("documented mismatch at %s" % flagged)
        return problems

    def counts(self, output):
        runs, ledger = output
        return {
            "ratpoly.max_terms": max(
                sum(len(c.terms) for c in state.form.comps)
                for run in runs for state in run.states.values()),
            "resolve.ledger.ok_ratio": (
                sum(1 for e in ledger if e.ok) / len(ledger)),
        }


class Cli(Workload):
    """One fresh ``python -m folbott.cli`` child per operation, in the
    fixed round robin CLI_COMMANDS; the seed picks the first command."""

    round = len(CLI_COMMANDS)

    def __init__(self, seed, expected, root, scratch):
        import folbott.cli  # noqa: F401  (set-up: the import users pay for)
        self.expected = expected
        self.scratch = scratch
        self.env = child_env(root)
        self.next = seed % len(CLI_COMMANDS)
        self.times = {key: [] for key, _ in CLI_COMMANDS}
        self.maxrss_kb = 0

    def op(self):
        key, args = CLI_COMMANDS[self.next]
        self.next = (self.next + 1) % len(CLI_COMMANDS)
        res = run_child((sys.executable, "-m", "folbott.cli") + args,
                        self.env, self.scratch, timeout=120)
        self.times[key].append(res.wall_s)
        self.maxrss_kb = max(self.maxrss_kb, res.maxrss_kb)
        return res.wall_s, self.check(key, res)

    def check(self, key, res):
        label = "folbott %s" % " ".join(dict(CLI_COMMANDS)[key])
        if res.code != 0:
            return ["%s: exit code %d: %s" % (
                label, res.code, res.stderr.decode(errors="replace")[-300:])]
        text = res.stdout.decode()
        exp = self.expected
        if key in exp["cli_json"]:
            try:
                doc = json.loads(text)
            except ValueError:
                return ["%s: output is not JSON" % label]
            ok = doc == exp["cli_json"][key]
        elif key == "resolve":
            ok = text.splitlines() == exp["ledger"]
        else:
            ok = text.splitlines() == exp["tables"] + [exp["table_summary"]]
        return [] if ok else ["%s: output differs" % label]

    def details(self):
        return {"cli_times": self.times, "child_maxrss_kb": self.maxrss_kb}
