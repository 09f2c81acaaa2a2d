import hashlib
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
from folbott.bottsum import TwistLinear
from folbott.cli import fraction_to_json, main

W0 = (0, 1, 5, 25)
W_WIDE = "67208900,-31429501,99121929,-3756357"

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
    engine = bottsum.flag_residues

    def counting(flag, w):
        calls.append(w)
        return engine(flag, w)

    monkeypatch.setattr(bottsum, "flag_residues", counting)
    res = run("fiber-degree", "--per-flag")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "flag 3,2,0,1: 21"
    assert calls == [(0, 1, 5, 25)] * 24


def test_fiber_degree_symbolic():
    res = run("fiber-degree", "--symbolic-d")
    assert res.exit_code == 0
    assert res.output.startswith("-729/320*d1 - 729/640*d2 + 729/1600*d3")
    assert res.output.endswith("+ 49642909/3974400\n")


@pytest.mark.parametrize("cmd", ["fiber-degree", "component-degree"])
def test_symbolic_d_takes_no_per_flag(cmd):
    res = run(cmd, "--symbolic-d", "--per-flag")
    assert res.exit_code == 2
    assert "--symbolic-d takes no --per-flag" in res.output


def test_component_degree_symbolic():
    from folbott import relations
    form = bottsum.component_degree(W0, 13)
    res = run("component-degree", "--symbolic-d")
    assert res.exit_code == 0
    assert res.output == "%s\n" % -form
    doc = json.loads(run("component-degree", "--symbolic-d",
                         "--output", "json").output)
    assert doc["constant"]["den"] == "4660731252777600000000000"
    solved = relations.solve_relations(relations.build_system(W0))
    assert solved.substitute(form) == 168208


# SHA-256 of each --symbolic-d output in full: the one path of a command
# that prints a TwistLinear, through its text, negation and JSON view.
SYMBOLIC_D_DIGESTS = {
    ("fiber-degree", "0,1,5,25", "text"):
        "15933f1f01be134a4ef5d460eb759e8fdeaa9b027c4182ca0817b718410c9d31",
    ("fiber-degree", "0,1,5,25", "json"):
        "5f0149b2410f43c38a3b9c20fb3e4ec17091b791daf780a5ac57b8b77f7d32d6",
    ("component-degree", "0,1,5,25", "text"):
        "524dff4f8b546e65be62bb9a6eaf4fc43b5d5a0c722cfd5058a8e1ed2a8ea3fc",
    ("component-degree", "0,1,5,25", "json"):
        "38a9254374ed335be7622b6d23c5579e519e86a9601661198bd4225e18301567",
    ("fiber-degree", W_WIDE, "text"):
        "4193fbfcbafd8077e66b98f672f66226ea540c9f2b0c133a9f3e78e5ac840b8a",
    ("fiber-degree", W_WIDE, "json"):
        "91b6d4bd8716877a8a2a5c2ec85b7b4e8c1f056485f293f0d088f331afae143e",
    ("component-degree", W_WIDE, "text"):
        "1b2c707ef3f4e44872f5978ebfdc062107bb66f796cae3ef9c1c2e6e1b08924b",
    ("component-degree", W_WIDE, "json"):
        "2959d91a44065fd1d3a25fe77c458340b08dd3dbc27643e56b5d019c23efe3bc",
}


@pytest.mark.parametrize("cmd,weights,output", sorted(SYMBOLIC_D_DIGESTS))
def test_symbolic_d_output_is_pinned(cmd, weights, output):
    res = run(cmd, "--symbolic-d", "--weights", weights, "--output", output)
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() \
        == SYMBOLIC_D_DIGESTS[cmd, weights, output]


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


def test_fiber_degree_takes_no_jobs():
    res = run("fiber-degree", "--jobs", "2")
    assert res.exit_code == 2
    assert "No such option" in res.output and "--jobs" in res.output


def test_weights_validation():
    res = run("fiber-degree", "--weights", "0,1,2,3")
    assert res.exit_code == 2
    assert "weight vector is too special" in res.output
    res = run("fiber-degree", "--weights", "1,2,3")
    assert res.exit_code == 2
    assert "four comma-separated integers" in res.output
    res = run("fiber-degree", "--weights", "0,1,5,x")
    assert res.exit_code == 2
    assert "entries must be integers" in res.output


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


def test_tables_reads_its_counts_from_the_census(monkeypatch):
    from folbott import fixlocus
    monkeypatch.setattr(fixlocus.Catalog, "census",
                        lambda self: {"points": 3, "lines": 2})
    assert run("tables").output.splitlines()[0] \
        == "points: 3  lines: 2  (24 flags: 72 points, 48 lines)"
    assert json.loads(run("tables", "--output", "json").output)["census"] \
        == {"points": 3, "lines": 2, "global_points": 72, "global_lines": 48}


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


@pytest.mark.parametrize("args", [
    ("resolve", "--chart", "b0=a0=u3=1"),
    ("resolve",),
], ids=["chart", "all-charts"])
def test_resolve_failed_division_exits_1(monkeypatch, args):
    # b3 - 1 does not divide the pulled-back form on chart 0 of stage 1.
    from folbott import resolve
    stage = resolve.CHARTS["b0=a0=u3=1"]["stages"]["tangent"]
    monkeypatch.setitem(stage, "eqs", ["b3 - 1"] + stage["eqs"][1:])
    monkeypatch.setattr(resolve, "_RUN_CACHE", {})
    res = run(*args)
    assert res.exit_code == 1
    assert res.output == "division failed: ('b0=a0=u3=1', 1, 0)\n"


@pytest.mark.parametrize("args", [
    ("resolve", "--chart", "b2=1"),
    ("resolve",),
], ids=["chart", "all-charts"])
def test_resolve_failed_strip_of_x0_names_its_chart(monkeypatch, args):
    # 3*f*dg - 2*g*df holds 3*x1^3*x2*dx0, which x0 does not divide.
    from folbott import resolve
    monkeypatch.setitem(resolve.CHARTS["b2=1"], "f", "x1^3 + x0^2*x3")
    monkeypatch.setitem(resolve.CHARTS["b2=1"], "g", "x1^2 + x0*x2")
    monkeypatch.setattr(resolve, "_RUN_CACHE", {})
    res = run(*args)
    assert res.exit_code == 1
    assert res.output == "division failed: ('b2=1', 0, 0)\n"


@pytest.mark.parametrize("extra", [
    ("--chart", "bogus"),
    ("--chart", "b3=a6=1"),
    ("--stage", "1"),
    ("--chart", "b3=a6=1", "--stage", "1"),
], ids=["unknown-chart", "valid-chart", "stage", "chart-and-stage"])
def test_resolve_check_tables_takes_no_chart_or_stage(extra):
    # The check always covers every chart, so a restriction is refused
    # before any pipeline runs.
    res = run("resolve", "--check-tables", *extra)
    assert res.exit_code == 2
    assert ("--check-tables covers every chart; it takes neither --chart "
            "nor --stage") in res.output


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


def test_resolve_stage_without_chart_is_a_usage_error():
    res = run("resolve", "--stage", "1")
    assert res.exit_code == 2
    assert "--stage needs --chart" in res.output


@pytest.mark.parametrize("stage", ["-1", "5"])
def test_resolve_stage_the_chart_lacks_is_a_usage_error(stage):
    # Chart b2=1 has its initial stage 0 only.
    res = run("resolve", "--chart", "b2=1", "--stage", stage)
    assert res.exit_code == 2
    assert "chart b2=1 has stages 0 to 0, not %s" % stage in res.output
    assert run("resolve", "--chart", "b2=1", "--stage", "0").exit_code == 0


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


def test_singular_locus_failed_check_exits_1(monkeypatch):
    from folbott import extforms
    monkeypatch.setattr(extforms, "sample_foliation_report",
                        lambda: ([("projective", True), ("integrable", False)],
                                 -1))
    res = run("singular-locus")
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "projective: ok",
        "integrable: FAILED",
        "scalar against printed expansion: -1",
    ]


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


def test_normal_twist_check_not_unique_exits_1(monkeypatch):
    from folbott import relations
    report = relations.NormalTwistReport(3, 1, ["a1 + a2 = b1 + b2 + 1"],
                                         (), False)
    monkeypatch.setattr(relations, "normal_twist_check",
                        lambda n, m: report)
    res = run("normal-twist-check", "--N", "3", "--m", "1")
    assert res.exit_code == 1
    assert res.output.splitlines() == ["a1 + a2 = b1 + b2 + 1",
                                       "solution is not unique"]


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


def _fresh(script, *args):
    """The stdout of ``script`` run with ``args`` in a fresh interpreter
    that imports this checkout's folbott."""
    src = str(Path(folbott.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", script] + list(args),
                          env=env, capture_output=True, text=True,
                          check=True).stdout


def _loaded_modules(*args):
    return set(_fresh(_LOADED_MODULES, *args).split())


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


_JSON_LOADED = """
import sys
from click.testing import CliRunner
from folbott.cli import main
result = CliRunner().invoke(main, sys.argv[1:])
assert result.exit_code == 0, result.output
print("json" in sys.modules)
"""


@pytest.mark.parametrize("cmd", ["fiber-degree", "relations"])
def test_json_is_imported_only_to_write_json(cmd):
    assert _fresh(_JSON_LOADED, cmd) == "False\n"
    assert _fresh(_JSON_LOADED, cmd, "--output", "json") == "True\n"


# Every command's options, in order, as the command line declares them:
# (opts, name, default, shown default, help).  A required option has no
# default (click 8.3 marks that by a sentinel, earlier versions by None),
# and click 8.0 reads an unset show_default as False, later ones as None.
_WEIGHTS = (["--weights"], "weights", "0,1,5,25", True,
            "Four torus weights, comma separated.")
_OUTPUT = (["--output"], "output", "text", True, "Output format.")
_SYMBOLIC_D = (["--symbolic-d"], "symbolic_d", False, False,
               "Emit the linear form before relation substitution.")
COMMAND_OPTIONS = {
    "fiber-degree": [
        _WEIGHTS, _OUTPUT,
        (["--power"], "power", 7, True, "Residue power in the numerator."),
        (["--per-flag"], "per_flag", False, False,
         "Emit the individual per-flag values."),
        _SYMBOLIC_D],
    "component-degree": [
        _WEIGHTS, _OUTPUT,
        (["--jobs"], "jobs", 1, True,
         "Accepted for compatibility; has no effect."),
        (["--power"], "power", 13, True, "Residue power in the numerator."),
        (["--per-flag"], "per_flag", False, False,
         "Emit the 24 per-flag partial sums."),
        _SYMBOLIC_D],
    "relations": [_WEIGHTS, _OUTPUT],
    "tables": [_OUTPUT],
    "resolve": [
        (["--chart"], "chart_id", None, False,
         "Restrict to one parameter chart pipeline."),
        (["--stage"], "stage", None, False,
         "Print the transformed forms of one stage of --chart."),
        (["--check-tables"], "check_tables", False, False,
         "Cross-check every published cell against all the pipelines; "
         "takes neither --chart nor --stage.")],
    "three-planes": [_OUTPUT],
    "singular-locus": [],
    "normal-twist-check": [
        _OUTPUT,
        (["--N"], "n", None, False, "Ambient projective dimension."),
        (["--m"], "m", None, False,
         "Dimension of the linear blowup center.")],
}


def test_command_names_are_pinned():
    assert list(main.commands) == list(COMMAND_OPTIONS)


@pytest.mark.parametrize("name", sorted(COMMAND_OPTIONS))
def test_command_options_are_pinned(name):
    assert [(p.opts, p.name, None if p.required else p.default,
             bool(p.show_default), p.help)
            for p in main.commands[name].params] == COMMAND_OPTIONS[name]


def _text_and_json(*args):
    """A command's text lines and its JSON document, both exiting 0."""
    text, doc = run(*args), run(*args, "--output", "json")
    assert text.exit_code == doc.exit_code == 0
    return text.output.splitlines(), json.loads(doc.output)


@pytest.mark.parametrize("weights", ["0,1,5,25", W_WIDE])
@pytest.mark.parametrize("cmd", ["fiber-degree", "component-degree"])
def test_degree_text_renders_its_json(cmd, weights):
    lines, doc = _text_and_json(cmd, "--weights", weights)
    assert lines == [str(fraction_from_json(doc[cmd.replace("-", "_")]))]
    assert doc["weights"] == [int(w) for w in weights.split(",")]
    assert doc["power"] == (7 if cmd == "fiber-degree" else 13)

    lines, doc = _text_and_json(cmd, "--per-flag", "--weights", weights)
    rendered = ["flag %s: %s" % (",".join(map(str, entry["flag"])),
                                 fraction_from_json(entry["value"]))
                for entry in doc["flags"]]
    if cmd == "component-degree":
        rendered.append("total: %s" % fraction_from_json(doc["total"]))
    else:
        assert "total" not in doc
    assert len(doc["flags"]) == 24
    assert lines == rendered

    lines, doc = _text_and_json(cmd, "--symbolic-d", "--weights", weights)
    assert set(doc) == {"coefficients", "constant"}
    coeffs = {int(key[1:]): fraction_from_json(val)
              for key, val in doc["coefficients"].items()}
    coeffs[0] = fraction_from_json(doc["constant"])
    assert lines == [str(TwistLinear(coeffs))]


@pytest.mark.parametrize("weights", ["0,1,5,25", W_WIDE])
def test_relations_text_renders_its_json(weights):
    lines, doc = _text_and_json("relations", "--weights", weights)
    assert len(lines) == len(doc["relations"]) == doc["rank"]
    for line, row in zip(lines, doc["relations"]):
        assert all(val["den"] == "1" for val in row.values())
        nums = [0] * 31
        for key, val in row.items():
            nums[30 if key == "constant" else int(key[1:]) - 1] \
                = int(val["num"])
        assert line == "%s = 0" % TwistLinear.from_row(nums)


def test_tables_text_renders_its_json():
    from folbott.torus import EigenWeight, format_weight

    def weight(coeffs):
        return format_weight(EigenWeight(coeffs))

    lines, doc = _text_and_json("tables")
    census = doc["census"]
    assert lines[0] == ("points: %d  lines: %d  (24 flags: %d points, "
                        "%d lines)" % (census["points"], census["lines"],
                                       census["global_points"],
                                       census["global_lines"]))
    assert (census["points"], census["lines"]) \
        == (len(doc["points"]), len(doc["lines"]))
    rendered, table = [], None
    for rec in doc["points"]:
        if rec["table"] != table:
            table = rec["table"]
            rendered.append("[%s]" % table)
        rendered.append("  r%02d  nu=%s  tangent=%s" % (
            rec["row"], weight(rec["nu"]),
            ", ".join(map(weight, rec["tangent"]))))
    rendered.append("[lines]")
    for rec in doc["lines"]:
        rendered.append(
            "  %s  %s r%d  fiber=%s  slots=d%d..d%d  normals=%s" % (
                rec["id"], rec["table"], rec["row"], weight(rec["wfiber"]),
                rec["slots"][0], rec["slots"][-1],
                ", ".join(map(weight, rec["normals"]))))
    assert lines[1:] == rendered


def test_three_planes_text_renders_its_json():
    lines, doc = _text_and_json("three-planes")
    assert len(lines) == len(doc)
    assert dict(line.split(": ") for line in lines) \
        == {label: str(fraction_from_json(val)) for label, val in doc.items()}


def _twist_text(doc):
    if not doc["unique"]:
        return doc["equations"] + ["solution is not unique"]
    return doc["equations"] + ["unique solution:"] + [
        "  %s = %s" % item for item in sorted(doc["solution"].items())]


@pytest.mark.parametrize("n,m", [(3, 1), (4, 1), (6, 2), (12, 5)])
def test_normal_twist_check_text_renders_its_json(n, m):
    lines, doc = _text_and_json("normal-twist-check", "--N", str(n),
                                "--m", str(m))
    assert (doc["N"], doc["m"], doc["unique"]) == (n, m, True)
    assert len(doc["solution"]) == n - 1
    assert lines == _twist_text(doc)


def test_normal_twist_check_not_unique_text_renders_its_json(monkeypatch):
    from folbott import relations
    report = relations.NormalTwistReport(3, 1, ["a1 + a2 = b1 + b2 + 1"],
                                         (), False)
    monkeypatch.setattr(relations, "normal_twist_check",
                        lambda n, m: report)
    text = run("normal-twist-check", "--N", "3", "--m", "1")
    doc = run("normal-twist-check", "--N", "3", "--m", "1",
              "--output", "json")
    assert text.exit_code == doc.exit_code == 1
    doc = json.loads(doc.output)
    assert doc["solution"] == {} and doc["unique"] is False
    assert text.output.splitlines() == _twist_text(doc)
