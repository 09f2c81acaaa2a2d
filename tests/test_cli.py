import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

import folbott
from folbott import bottsum
from folbott.cli import fraction_to_json, main

EXPECTED_RELATIONS = [
    "2*d1 + d2 + 2*d4 + 2 = 0",
    "d3 - 1 = 0",
    "d5 = 0",
    "d6 = 0",
    "2*d7 - 2*d10 - d26 - 2*d30 + 1 = 0",
    "d8 + d12 = 0",
    "d9 + d30 + 1 = 0",
    "d11 = 0",
    "d13 + d14 + d18 + 2 = 0",
    "d15 - 1 = 0",
    "d16 = 0",
    "d17 = 0",
    "d19 + d21 - d24 + 2 = 0",
    "d20 + d22 = 0",
    "d23 = 0",
    "2*d25 + d26 + 2*d28 + 2*d30 + 1 = 0",
    "d27 + 2 = 0",
    "d29 = 0",
]


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_fiber_degree_text():
    res = run("fiber-degree")
    assert res.exit_code == 0
    assert res.output == "21\n"


def test_fiber_degree_json():
    res = run("fiber-degree", "--output", "json")
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "fiber_degree": {"num": "21", "den": "1"},
        "power": 7,
        "weights": [0, 1, 5, 25],
    }


def test_fiber_degree_per_flag():
    res = run("fiber-degree", "--per-flag")
    lines = res.output.splitlines()
    assert len(lines) == 24
    assert lines[0] == "flag 0,1,3,2: 21"
    assert all(line.endswith(": 21") for line in lines)


def test_fiber_degree_per_flag_makes_one_power_7_pass(monkeypatch):
    calls = []
    engine = bottsum.contribution_sum

    def counting(flag, w, power):
        calls.append(power)
        return engine(flag, w, power)

    monkeypatch.setattr(bottsum, "contribution_sum", counting)
    res = run("fiber-degree", "--per-flag")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "flag 3,2,0,1: 21"
    assert calls == [7] * 24


def test_fiber_degree_symbolic():
    res = run("fiber-degree", "--symbolic-d")
    assert res.exit_code == 0
    assert res.output.startswith("-729/320*d1 - 729/640*d2 + 729/1600*d3")
    assert res.output.endswith("+ 49642909/3974400\n")


def test_fiber_degree_honest_failure_on_wrong_power():
    res = run("fiber-degree", "--power", "13")
    assert res.exit_code == 1
    assert res.output.startswith("verification mismatch:")


@pytest.mark.parametrize("args", [
    ("fiber-degree", "--power", "-1"),
    ("component-degree", "--power", "-1"),
    ("fiber-degree", "--symbolic-d", "--power", "-2"),
])
def test_negative_power_is_a_usage_error(args):
    res = run(*args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert "Invalid value for '--power'" in res.output


def test_weights_validation():
    res = run("fiber-degree", "--weights", "0,1,2,3")
    assert res.exit_code == 2
    assert "weight vector is too special" in res.output
    res = run("fiber-degree", "--weights", "1,2,3")
    assert res.exit_code == 2
    assert "four comma-separated integers" in res.output


def test_component_degree_text():
    res = run("component-degree")
    assert res.exit_code == 0
    assert res.output == "168208\n"


def test_component_degree_other_weights():
    res = run("component-degree", "--weights", "0,1,7,37")
    assert res.output == "168208\n"


def test_component_degree_per_flag():
    res = run("component-degree", "--per-flag")
    lines = res.output.splitlines()
    assert len(lines) == 25
    assert lines[0] == "flag 0,1,3,2: -21391604353/750"
    assert lines[-1] == "total: 168208"


def test_relations_text():
    res = run("relations")
    assert res.exit_code == 0
    assert res.output.splitlines() == EXPECTED_RELATIONS


def test_relations_json():
    res = run("relations", "--output", "json")
    doc = json.loads(res.output)
    assert doc["rank"] == 18
    assert len(doc["relations"]) == 18
    first = doc["relations"][0]
    assert first["d1"] == {"num": "2", "den": "1"}
    assert first["d2"] == {"num": "1", "den": "1"}
    assert first["constant"] == {"num": "2", "den": "1"}


def test_tables_text():
    res = run("tables")
    lines = res.output.splitlines()
    assert lines[0] == "points: 72  lines: 5  (24 flags: 1728 points, 120 lines)"
    assert "[base]" in lines
    assert "[lines]" in lines
    line_rows = [l for l in lines if l.strip().startswith("line1")]
    assert len(line_rows) == 1
    assert "cube r4" in line_rows[0]
    assert "slots=d1..d6" in line_rows[0]


def test_tables_json():
    res = run("tables", "--output", "json")
    doc = json.loads(res.output)
    assert doc["census"] == {"points": 72, "lines": 5,
                             "global_points": 1728, "global_lines": 120}
    assert len(doc["points"]) == 72
    assert len(doc["lines"]) == 5
    assert doc["lines"][0]["slots"] == [1, 2, 3, 4, 5, 6]


def test_resolve_ledger():
    res = run("resolve")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 69
    assert lines[0] == "b3=a6=1 stage 0 (initial) chart 0: divide by x0 -> ok"
    assert all(line.endswith("-> ok") for line in lines)


def test_resolve_check_tables():
    res = run("resolve", "--check-tables")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert "cube-res r4: documented_mismatch" in lines
    assert lines[-1] == "summary: documented_mismatch=1, nd_zero=7, ok=81"


def test_resolve_check_tables_failure_exits_1(monkeypatch):
    from folbott import resolve
    bad = SimpleNamespace(table="cube-res", row=4, status="mismatch")
    monkeypatch.setattr(resolve, "check_tables", lambda: [bad])
    res = run("resolve", "--check-tables")
    assert res.exit_code == 1
    assert res.output.splitlines() == ["cube-res r4: mismatch",
                                       "summary: mismatch=1"]


def test_resolve_unknown_chart():
    res = run("resolve", "--chart", "bogus")
    assert res.exit_code == 2
    assert ("unknown chart 'bogus'; choose from b3=a6=1, b0=a0=u1=1, "
            "b0=a0=u2=1, b0=a0=u3=1, b2=1") in res.output


def test_resolve_stage_forms():
    res = run("resolve", "--chart", "b3=a6=1", "--stage", "1")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert any(line.startswith("stage 1 chart 0:") for line in lines)
    ledger = [l for l in lines if "divide by" in l]
    assert len(ledger) == 6
    assert all(l.startswith("b3=a6=1 stage 1 (C)") for l in ledger)


def test_three_planes_text():
    res = run("three-planes")
    assert res.output.splitlines() == [
        "p2: -8", "q1: -27/4", "q2: 27/2", "r2: 1/2",
        "line: 7/4", "total: 1"]


def test_three_planes_json():
    res = run("three-planes", "--output", "json")
    doc = json.loads(res.output)
    assert doc["p2"] == {"num": "-8", "den": "1"}
    assert doc["total"] == {"num": "1", "den": "1"}


def test_singular_locus():
    res = run("singular-locus")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert "matches printed expansion: ok" in lines
    assert "projective: ok" in lines
    assert "integrable: ok" in lines
    assert "vanishes on line: ok" in lines
    assert "vanishes on conic: ok" in lines
    assert "vanishes on cubic: ok" in lines
    assert lines[-1] == "scalar against printed expansion: -1"


def test_normal_twist_check_text():
    res = run("normal-twist-check", "--N", "4", "--m", "1")
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "6*a1 + 3*a2 + 2*a3 = 6*b1 + 3*b2 + 2*b3 + 5",
        "6*a1 + 4*a2 + 3*a3 = 6*b1 + 4*b2 + 3*b3 + 7",
        "20*a1 + 15*a2 + 12*a3 = 20*b1 + 15*b2 + 12*b3 + 27",
        "unique solution:",
        "  b1 = a1",
        "  b2 = a2 - 1",
        "  b3 = a3 - 1",
    ]


def test_normal_twist_check_json():
    res = run("normal-twist-check", "--N", "5", "--m", "2",
              "--output", "json")
    doc = json.loads(res.output)
    assert doc["unique"] is True
    assert doc["solution"]["b1"] == "a1"
    assert doc["solution"]["b2"] == "a2"
    assert doc["solution"]["b3"] == "a3 - 1"
    assert doc["solution"]["b4"] == "a4 - 1"


def test_normal_twist_check_guard():
    res = run("normal-twist-check", "--N", "4", "--m", "0")
    assert res.exit_code == 2
    assert "need n >= 3 and 1 <= m <= n-2" in res.output


def fraction_from_json(obj):
    return Fraction(int(obj["num"]), int(obj["den"]))


def test_fraction_json_roundtrip():
    q = Fraction(-355, 113)
    blob = fraction_to_json(q)
    assert blob == {"num": "-355", "den": "113"}
    assert fraction_from_json(blob) == q


# Runs in a fresh interpreter, because this one has imported every
# module already: optionally one command, then the loaded folbott modules.
_LOADED_MODULES = """
import sys
import folbott
if sys.argv[1:]:
    from click.testing import CliRunner
    from folbott.cli import main
    result = CliRunner().invoke(main, sys.argv[1:])
    assert result.exit_code == 0, result.output
print(" ".join(sorted(m for m in sys.modules if m.startswith("folbott."))))
"""


def _loaded_modules(*args):
    src = str(Path(folbott.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", _LOADED_MODULES] + list(args),
                         env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_commands_load_only_their_modules():
    assert _loaded_modules() == set()
    fiber = _loaded_modules("fiber-degree")
    assert {"folbott.bottsum", "folbott.relations"} <= fiber
    assert not fiber & {"folbott.ratpoly", "folbott.extforms",
                        "folbott.resolve"}
    pipelines = _loaded_modules("resolve")
    assert "folbott.resolve" in pipelines
    assert not pipelines & {"folbott.bottsum", "folbott.relations",
                            "folbott.fixlocus", "folbott.torus"}
