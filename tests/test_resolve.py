import hashlib
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from folbott import resolve, tables
from folbott.extforms import build_omega, parse_form
from folbott.fixlocus import build_catalog
from folbott.ratpoly import (VARIABLE_INDEX, NotDivisible, Polynomial,
                             parse_poly)

COORD_IDX = [VARIABLE_INDEX["x%d" % i] for i in range(4)]


def _cell_weights(cell):
    """Torus weights of a printed cell's terms: coordinate exponents
    plus the dx index; non-coordinate variables carry no weight."""
    form = parse_form(cell)
    vecs = set()
    for i, comp in enumerate(form.comps):
        for mono, _ in comp.monomials():
            vec = [0, 0, 0, 0]
            for var, exp in mono:
                if var in COORD_IDX:
                    vec[COORD_IDX.index(var)] += exp
            vec[i] += 1
            vecs.add(tuple(vec))
    return vecs


def test_every_stage_division_succeeds():
    entries = resolve.divisibility_ledger()
    assert len(entries) == 69
    failed = [e.describe() for e in entries if not e.ok]
    assert failed == []


def test_stage_forms_are_pinned():
    """The text of all 69 stage forms, pinned by a SHA-256 of the
    rendering before monomials were packed into ints."""
    lines = []
    for chart_id in resolve.CHART_IDS:
        run = resolve.get_run(chart_id)
        for (si, ci), state in sorted(run.states.items()):
            lines.append("%s stage %d chart %d: %s"
                         % (chart_id, si, ci, state.form))
    assert len(lines) == 69
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ("3dc047f66d6da1323ddc8208a81e8f57"
                      "d654d6bc7248f14a3472f7b8ed60c8f4")


def _chart_substitution(stage, eqs, chart):
    """The pullback of one chart of a stage, from its center equations:
    var_j -> (new_j*e_c + offset_j)/c_j for j != c, where e_j is
    c_j*var_j - offset_j in its first variable var_j."""
    center = eqs[chart]
    subs = {}
    for j, (text, eq) in enumerate(zip(stage["eqs"], eqs)):
        if j != chart:
            var = re.search(r"[a-z]\w*", text).group()
            c = eq.partial(var).constant_value()
            new = Polynomial.variable(
                "%s%d" % (resolve.FIBER_LETTERS[stage["kind"]], j))
            offset = c * Polynomial.variable(var) - eq
            subs[var] = (new * center + offset) * (1 / c)
    return subs


def test_each_stage_form_times_its_center_is_the_pulled_back_parent():
    """The division on every chart of every stage, checked by a product:
    form * e_c equals the parent form pulled back through the chart."""
    checked = 0
    for chart_id in resolve.CHART_IDS:
        states = resolve.get_run(chart_id).states
        stages = resolve.CHARTS[chart_id]["stages"]
        for si, (key, stage) in enumerate(stages.items(), start=1):
            parent = states[resolve._parent(chart_id, key)].form.poly
            eqs = [parse_poly(e) for e in stage["eqs"]]
            for ci, center in enumerate(eqs):
                assert (states[si, ci].form.poly * center
                        == parent.substitute(
                            _chart_substitution(stage, eqs, ci))), \
                    (chart_id, si, ci)
                checked += 1
    assert checked == 64


def test_stage_forms_round_trip_through_their_printed_text():
    states = [state for chart_id in resolve.CHART_IDS
              for state in resolve.get_run(chart_id).states.values()]
    assert len(states) == 69
    for state in states:
        assert parse_form(str(state.form)).poly == state.form.poly


def test_anchor_bookkeeping_reaches_every_staged_table():
    for key in tables.EXCEPTIONAL:
        chart_id, stage_index = resolve.TABLE_STAGE[key]
        run = resolve.get_run(chart_id)
        assert any(si == stage_index for si, _ in run.states)


def test_cross_check_statuses():
    reports = resolve.check_tables()
    counts = {}
    for rep in reports:
        counts[rep.status] = counts.get(rep.status, 0) + 1
    assert counts == {"ok": 81, "nd_zero": 7, "documented_mismatch": 1}
    flagged = [(r.table, r.row) for r in reports
               if r.status == "documented_mismatch"]
    assert flagged == [("cube-res", 4)]


def test_check_tables_builds_each_base_pair_once(monkeypatch):
    """30 base rows, 22 distinct (quadric, cubic) pairs: one form per
    pair in every call, none kept from the call before."""
    resolve.divisibility_ledger()  # chart runs build forms too: not counted
    calls = []

    def counting(f, g):
        calls.append((f, g))
        return build_omega(f, g)

    monkeypatch.setattr(resolve, "build_omega", counting)
    statuses = []
    for _ in range(2):
        calls.clear()
        statuses.append([(r.table, r.row, r.status)
                         for r in resolve.check_tables()])
        assert len(calls) == 22
        assert len({(str(f), str(g)) for f, g in calls}) == 22
    assert statuses[0] == statuses[1]
    assert len(statuses[0]) == 89


def _set_base_cell(monkeypatch, row, cell):
    cells = list(tables.BASE_CELLS)
    cells[row] = cell
    for module in (tables, resolve):
        monkeypatch.setattr(module, "BASE_CELLS", tuple(cells))


def _set_row_cell(monkeypatch, key, row, cell):
    monkeypatch.setitem(tables.EXCEPTIONAL[key]["rows"][row], "cell", cell)


@pytest.mark.parametrize("key,row,patch", [
    ("base", 0, lambda mp: _set_base_cell(
        mp, 0, "x0^2*x1*dx0 + x0^3*dx1")),
    ("base", 1, lambda mp: _set_base_cell(mp, 1, None)),
    ("cube", 0, lambda mp: _set_row_cell(
        mp, "cube", 0, "x0*x1^2*dx0 + x0^2*x1*dx1")),
    ("cube", 4, lambda mp: _set_row_cell(
        mp, "cube", 4,
        "(2*s5 - 3*s4)*x1^3*dx0 + (2*s5 - 3*s4)*x0*x1^2*dx1")),
    # Right on chart 4 (s4 = 1), wrong on chart 5 (s5 = 1).
    ("cube", 4, lambda mp: _set_row_cell(
        mp, "cube", 4,
        "(2*s5 - 2*s4 - 1)*x1^3*dx0 - (2*s5 - 2*s4 - 1)*x0*x1^2*dx1")),
    ("cube-res", 4, lambda mp: mp.setitem(
        tables.DOCUMENTED_MISMATCHES, ("cube-res", 4),
        "x1*x2^2*dx0 + 2*x0*x2^2*dx1 + x0*x1*x2*dx2")),
], ids=["base-row", "base-printed-none", "iso-row", "family-row",
        "family-row-one-chart", "correction"])
def test_a_wrong_printed_cell_is_a_mismatch(monkeypatch, key, row, patch):
    """One wrong cell turns exactly its own row into a mismatch: a base
    row, a base cell printed as not defined whose form is nonzero, an
    isolated row, a family row (wrong on both charts or on one), and
    the misprint's correction."""
    patch(monkeypatch)
    reports = resolve.check_tables()
    assert [(r.table, r.row) for r in reports
            if r.status == "mismatch"] == [(key, row)]
    assert len(reports) == 89


def test_cells_are_not_defined_exactly_on_nd_rows():
    """The status rule reads a None cell as "not defined": None marks
    exactly the nd rows, and the base None rows are the base parents of
    the events."""
    for key, table in tables.EXCEPTIONAL.items():
        for ri, row in enumerate(table["rows"]):
            assert (row["cell"] is None) == (row["kind"] == "nd"), (key, ri)
    base_none = [r for r, cell in enumerate(tables.BASE_CELLS)
                 if cell is None]
    parents = sorted(row for table, row in
                     (ev["parent"] for ev in tables.EXCEPTIONAL.values())
                     if table == "base")
    assert base_none == parents == [14, 15, 20, 25]


def test_base_pair_follows_the_table_layout():
    """Rows 0-14 pair the quadrics x0*x1, x0*x2 and x1^2 with their own
    cubics; rows 15-29 sit over x0^2 and take the partner's cubics."""
    layout = [("x0*x1", "x0*x1"), ("x0*x2", "x0*x2"), ("x1^2", "x1^2"),
              ("x0^2", "x0*x1"), ("x0^2", "x0*x2"), ("x0^2", "x1^2")]
    extra = {"x0*x1": "x0*x1^2", "x0*x2": "x0*x1*x2", "x1^2": "x1^3"}
    for row in range(30):
        q, k, i = tables.base_pair(row)
        quadric, partner = layout[row // 5]
        assert (tables.B_MONOS[q], tables.B_MONOS[k]) == (quadric, partner)
        assert i == row % 5
        assert tables.base_cubics(k) == tables.A_BASE + (extra[partner],)


def test_documented_mismatch_has_a_correction():
    assert ("cube-res", 4) in resolve.DOCUMENTED_MISMATCHES


def test_published_cells_are_eigenvectors_except_the_misprint():
    """Every printed cell must be homogeneous for the coordinate torus:
    all terms (coordinate exponents plus the dx index) share one weight
    vector.  Exactly one cell fails, the known misprint."""
    def homogeneous(cell):
        return len(_cell_weights(cell)) == 1

    bad = []
    for key, table in tables.EXCEPTIONAL.items():
        for ri, row in enumerate(table["rows"]):
            if row["cell"] is not None and not homogeneous(row["cell"]):
                bad.append((key, ri))
    for cell in tables.BASE_CELLS:
        assert cell is None or homogeneous(cell)
    assert bad == [("cube-res", 4)]
    assert homogeneous(tables.DOCUMENTED_MISMATCHES[("cube-res", 4)])


def test_catalog_fiber_weights_match_the_printed_cells():
    """The fiber weight of every cataloged point and line is the torus
    weight of its printed cell (of the correction, for the misprint)."""
    cat = build_catalog((0, 1, 2, 3))
    records = [(rec, rec.nu) for rec in cat.points]
    records += [(rec, rec.wfiber) for rec in cat.lines]
    assert len(records) == 77
    for rec, nu in records:
        if rec.table == "base":
            cell = tables.BASE_CELLS[rec.row]
        else:
            cell = tables.EXCEPTIONAL[rec.table]["rows"][rec.row]["cell"]
        cell = tables.DOCUMENTED_MISMATCHES.get((rec.table, rec.row), cell)
        assert _cell_weights(cell) == {nu.coeffs}, rec.id


def test_chart_form_carries_the_expected_coupling():
    chart = resolve.CHARTS["b3=a6=1"]
    form = build_omega(parse_poly(chart["f"]), parse_poly(chart["g"]))
    grouped = form.comps[0].coefficients_in(("x0", "x1", "x2", "x3"))
    cell = grouped[(2, 1, 0, 0)]
    sub = cell.coefficients_in(("a0", "a1", "b0", "b1"))
    assert sub[(1, 0, 0, 1)].constant_value() == -3
    assert sub[(0, 1, 1, 0)].constant_value() == 2


def test_indeterminacy_certificates():
    for variant, locus, fiber in [
            ("b3=1", {"a6": 0}, "a0 a1 a2 a3 a6"),
            ("b0=u1=1", {"a0": 0}, "a0 a1 a2 a3 a4"),
            ("b2=1", {}, "a0 a1 a2 a3 a5")]:
        assert resolve.certificate_pair(variant)[2] == fiber.split()
        report = resolve.no_indeterminacy_certificate(variant, locus)
        assert report.certified, (variant, report.remaining)
        assert len(report.witnesses) == len(
            [v for v in fiber.split() if v not in locus])


def test_certificate_variants_restore_their_chart_normalization():
    """A variant's f is its chart's f with the normalized parameter put
    back on the terms that hold no fiber coordinate; g is the chart's."""
    for variant, f in [
            ("b3=1", "a0*x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
                     " + 3/2*a6*b1*x0*x1^2 + 3/2*a6*b2*x0*x1*x2 + a6*x1^3"),
            ("b0=u1=1", "a0*x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
                        " + a4*x0*x1^2 + a4*u2*x0*x1*x2 + 2/3*a4*u3*x1^3")]:
        chart_id, _ = resolve.CERTIFICATE_VARIANTS[variant]
        restored, g, _ = resolve.certificate_pair(variant)
        assert restored == parse_poly(f), variant
        assert g == parse_poly(resolve.CHARTS[chart_id]["g"]), variant
    report = resolve.no_indeterminacy_certificate("b3=1", {"a6": 0})
    assert [name for name, _ in report.witnesses] == ["a3", "a2", "a1", "a0"]
    assert report.witnesses[-1][1] == parse_poly("-a1*b1 - 6*a0")


def test_certificate_fails_off_the_degenerate_locus():
    report = resolve.no_indeterminacy_certificate("b3=1")
    assert not report.certified
    assert report.remaining == ["a0", "a1", "a2", "a6"]


def test_fixture_center_equations_stay_invariant(monkeypatch):
    """A broken center equation raises StructureError naming the chart
    and stage before any division runs."""
    stage = resolve.CHARTS["b0=a0=u3=1"]["stages"]["tangent"]
    for eqs, message in [
            # b3 + a1 holds a1, which the second template solves for, so
            # the substitution moves the first chart's exceptional
            # equation.
            (["b3 + a1", "a1", "a2", "a3", "a6"],
             r"center equation b3 \+ a1 not invariant on chart 0 of "),
            # b3^2 has a nonconstant derivative in its first variable.
            (["b3^2", "a1", "a2", "a3", "a6"],
             r"center equation b3\^2 of ")]:
        monkeypatch.setitem(stage, "eqs", eqs)
        with pytest.raises(resolve.StructureError,
                           match=message + "b0=a0=u3=1 stage 1"):
            resolve.run_chart("b0=a0=u3=1")


def _substitution_rule_chart(stage, eqs):
    """The first chart whose center equation its own chart's
    substitution moves, or None: the invariance rule as it was written
    before it became a set test on the equations' variables."""
    for ci, center in enumerate(eqs):
        if center.substitute(_chart_substitution(stage, eqs, ci)) != center:
            return ci
    return None


def _set_rule_chart(chart_id, stage_index, key, stage):
    """The chart that ``_run_stage`` names as not invariant, or None when
    the stage passes that rule, whatever fails after it."""
    parent = resolve.get_run(chart_id).states[resolve._parent(chart_id, key)]
    try:
        resolve._run_stage(chart_id, stage_index, stage, parent)
    except (resolve.StructureError, NotDivisible) as err:
        found = re.search(r"not invariant on chart (\d+) ", str(err))
        if found:
            return int(found.group(1))
    return None


@pytest.mark.parametrize("eqs,chart", [
    # a2 + a6 holds a6, which the fifth template solves for.
    (["b3", "a1", "a2 + a6", "a3", "a6"], 2),
    # The fourth and fifth equations both solve for a3, so each holds
    # the variable of the other's template; the fourth is met first.
    (["b3", "a1", "a2", "a3", "a3 + a6"], 3),
    # Only the last equation holds other templates' variables.
    (["b3", "a1", "a2", "a3", "a6 - 2*a1*b3"], 4),
], ids=["third-chart", "same-variable", "last-chart"])
def test_invariance_fails_on_the_first_chart_that_breaks_it(
        monkeypatch, eqs, chart):
    stage = resolve.CHARTS["b0=a0=u3=1"]["stages"]["tangent"]
    monkeypatch.setitem(stage, "eqs", eqs)
    assert _substitution_rule_chart(
        stage, [parse_poly(e) for e in eqs]) == chart
    with pytest.raises(resolve.StructureError,
                       match=r"center equation %s not invariant on chart %d "
                             r"of b0=a0=u3=1 stage 1"
                             % (re.escape(eqs[chart]), chart)):
        resolve.run_chart("b0=a0=u3=1")


STAGES = [(chart_id, si, key, stage) for chart_id in resolve.CHART_IDS
          for si, (key, stage) in enumerate(
              resolve.CHARTS[chart_id]["stages"].items(), start=1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STAGES), st.data())
def test_the_set_rule_names_the_chart_the_substitution_rule_names(case,
                                                                  data):
    """Mutate a stage's center equations with the parent's parameters
    and the stage's own variables, never its fiber coordinates, so the
    fresh-name rule holds: an added term, or a new first variable in
    front of a multiple of the old equation.  Both invariance rules
    then name the same first chart, or none."""
    chart_id, si, key, stage = case
    parent = resolve.get_run(chart_id).states[resolve._parent(chart_id, key)]
    eqs = list(stage["eqs"])
    fresh = {resolve._fiber_coordinate(stage, j) for j in range(len(eqs))}
    pool = sorted(set(parent.anchors).union(
        *(parse_poly(e).variables() for e in eqs)) - fresh)
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        i = data.draw(st.integers(min_value=0, max_value=len(eqs) - 1))
        v = data.draw(st.sampled_from(pool))
        k = data.draw(st.sampled_from([-2, -1, 1, 3]))
        if data.draw(st.booleans()):
            w = data.draw(st.sampled_from(pool + ["1"]))
            eqs[i] = "%s %+d*%s*%s" % (eqs[i], k, v, w)
        else:
            eqs[i] = "%s %+d*(%s)" % (v, k, eqs[i])
    mutated = dict(stage, eqs=eqs)
    parsed = [parse_poly(e) for e in eqs]
    try:
        resolve._templates(chart_id, si, mutated, parsed)
    except resolve.StructureError:
        assume(False)
    assert _set_rule_chart(chart_id, si, key, mutated) == \
        _substitution_rule_chart(mutated, parsed)


def test_a_fiber_coordinate_already_in_use_is_a_structure_error(
        monkeypatch):
    """Stage 2 of b3=a6=1 continues from a chart of stage 1, whose fiber
    coordinates are s0..s5.  Given stage 1's kind, its own would be
    named s0..s4 as well, and would merge with them."""
    stage = resolve.CHARTS["b3=a6=1"]["stages"]["cube-res"]
    monkeypatch.setitem(stage, "kind", "C")
    with pytest.raises(resolve.StructureError,
                       match="fiber coordinate s0 of b3=a6=1 stage 2 "
                             "already occurs in its parent form"):
        resolve.run_chart("b3=a6=1")


def test_the_center_marker_already_in_use_is_a_structure_error(
        monkeypatch):
    """h marks the center of every stage, so a center equation that
    holds h is refused before any chart is built."""
    stage = resolve.CHARTS["b0=a0=u3=1"]["stages"]["tangent"]
    monkeypatch.setitem(stage, "eqs", ["b3 - h"] + stage["eqs"][1:])
    with pytest.raises(resolve.StructureError,
                       match="marker h of b0=a0=u3=1 stage 1 already "
                             "occurs in its parent form or center "
                             "equations"):
        resolve.run_chart("b0=a0=u3=1")


def _row_charts(row):
    return row["chart"] if row["kind"] == "family" else (row["chart"],)


def test_every_row_chart_lies_in_its_stage():
    """Every row's chart, or both of a family row's pair, is a chart of
    the stage that produces its table."""
    for key, table in tables.EXCEPTIONAL.items():
        chart_id, _ = resolve.TABLE_STAGE[key]
        stage = resolve.CHARTS[chart_id]["stages"][key]
        for row in table["rows"]:
            assert all(0 <= c < len(stage["eqs"])
                       for c in _row_charts(row)), key


def test_stage_parents_are_read_from_the_table_parents():
    """A stage continues from its table's parent row seen through
    TABLE_STAGE: the initial chart for a base row, else the parent
    table's stage and the row's chart, the first of a family pair."""
    parents = {key: resolve._parent(resolve.TABLE_STAGE[key][0], key)
               for key in tables.EXCEPTIONAL}
    assert parents == {
        "cube": (0, 0), "cube-res": (1, 2), "cube-end": (1, 4),
        "axis1": (0, 0), "axis1-res": (1, 5), "axis1-end": (1, 0),
        "axis1-res-end": (2, 1), "axis1-end-end": (3, 0),
        "axis1-res-end-res": (4, 0),
        "axis2": (0, 0), "axis2-end": (1, 4),
        "tangent": (0, 0),
    }


def test_a_parent_staged_in_another_chart_is_a_structure_error(
        monkeypatch):
    """axis2-end continues from axis2's fixed line; pointed at the nd row
    of axis1, which chart b0=a0=u1=1 stages, it has no parent state."""
    monkeypatch.setitem(tables.EXCEPTIONAL["axis2-end"], "parent",
                        ("axis1", 4))
    with pytest.raises(resolve.StructureError,
                       match="parent table axis1 of b0=a0=u2=1 stage 2 is "
                             "staged in chart b0=a0=u1=1"):
        resolve.run_chart("b0=a0=u2=1")


def test_unknown_chart_is_an_error():
    with pytest.raises(KeyError):
        resolve.run_chart("nope")


def test_kernel_counts_of_one_cold_pipelines_run(monkeypatch):
    """The work of one cold run of the five charts, the ledger and
    ``check_tables``, counted by wrappers: one translation per stage,
    one substitution per chart of every stage, the Euler checks and the
    point evaluations; the strip of x0 from five chart forms and 22 base
    pairs, each built once, and one division by the marker h per stage;
    one parse of each of the 21 distinct printed texts among the 83
    that ``check_tables`` reads."""
    counts = dict.fromkeys(("substitute", "exact_divide", "parse_form",
                            "build_omega"), 0)

    def counter(name, fn):
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    for name in ("substitute", "exact_divide"):
        monkeypatch.setattr(Polynomial, name,
                            counter(name, getattr(Polynomial, name)))
    for name in ("parse_form", "build_omega"):
        monkeypatch.setattr(resolve, name,
                            counter(name, getattr(resolve, name)))
    monkeypatch.setattr(resolve, "_RUN_CACHE", {})
    for chart_id in resolve.CHART_IDS:
        resolve.get_run(chart_id)
    resolve.divisibility_ledger()
    resolve.check_tables()
    assert counts == {"substitute": 278, "exact_divide": 39,
                      "parse_form": 21, "build_omega": 27}
