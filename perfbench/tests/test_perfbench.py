"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check the seeded inputs, that a wrong output counts as a failure
without ending the run, that the metric names match BENCHMARK.json, and
that traced counts repeat for a seed.  The short runs use --seconds 0.1,
which still times at least one operation (one round of five commands on
``cli``).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from folbott import torus  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNTS = re.compile(r"\.calls$|^relations\.rank$|^resolve\.ledger\.ok_ratio$"
                    r"|^bottsum\.max_bits$|^ratpoly\.max_terms$")


def bench(*args):
    """Run run.py; return (exit code, last stdout line parsed or None)."""
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seconds", "0.1"]
        + list(args), capture_output=True, text=True, timeout=170)
    lines = res.stdout.strip().splitlines()
    return res.returncode, (json.loads(lines[-1]) if lines else None)


def corrupted(tmp_path, edit):
    exp = workloads.load_expected(BENCH / "expected.json")
    edit(exp)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(exp))
    return exp, path


@pytest.mark.parametrize("bound", [workloads.NARROW_BOUND,
                                   workloads.WIDE_BOUND])
def test_weights_are_seeded_and_admissible(bound):
    def draw(seed):
        gen = workloads.weight_vectors(bound, seed, torus.validate_weights,
                                       torus.WeightError)
        return [next(gen) for _ in range(40)]

    first = draw(7)
    assert first == draw(7)
    assert first != draw(8)
    for w in first:
        torus.validate_weights(w)
        assert all(-bound <= x <= bound for x in w)


def test_wrong_expected_value_is_a_failure(tmp_path):
    exp, _ = corrupted(tmp_path,
                       lambda e: e.update(component_degree="168209"))
    wl = workloads.make("degrees", 0, exp, ROOT, tmp_path)
    _, problems = wl.warm_up()
    assert len(problems) == 1 and "component 168208 != 168209" in problems[0]

    exp, _ = corrupted(tmp_path, lambda e: e["statuses"].update(ok=80))
    wl = workloads.make("pipelines", 0, exp, ROOT, tmp_path)
    assert any("status counts" in p for p in wl.warm_up()[1])


def test_failed_ops_are_counted_not_fatal(tmp_path):
    _, path = corrupted(
        tmp_path, lambda e: e["cli_json"]["relations"].update(rank=17))
    code, result = bench("--workload", "cli", "--seed", "0",
                         "--trace", "0", "--expected", str(path))
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] == 5 and result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(0.8)


def test_metric_names_match_benchmark_json():
    sections = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    names = [m["name"] for m in sections[0] + sections[1]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in sections[0] if m["name"] == "setup_s").items()
    for workload, trace in (("cli", 0), ("cli", 1), ("degrees", 1)):
        code, result = bench("--workload", workload, "--seed", "1",
                             "--trace", str(trace))
        assert code == 0 and result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in sections[trace]}


@pytest.mark.parametrize("workload", ["degrees", "pipelines"])
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [bench("--workload", workload, "--seed", "3",
                  "--trace", "1")[1] for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if COUNTS.search(k)} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_no_result_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "degrees", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=170)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
