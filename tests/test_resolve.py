import hashlib

import pytest

from folbott import resolve, tables
from folbott.extforms import build_omega, parse_form
from folbott.fixlocus import build_catalog
from folbott.ratpoly import VARIABLE_INDEX, parse_poly

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
    for variant, locus in [
            ("b3=1", {"a6": 0}),
            ("b0=u1=1", {"a0": 0}),
            ("b2=1", {})]:
        report = resolve.no_indeterminacy_certificate(variant, locus)
        assert report.certified, (variant, report.remaining)
        assert len(report.witnesses) == len(
            [v for v in resolve.CERTIFICATE_VARIANTS[variant]["fiber"]
             if v not in locus])


def test_certificate_fails_off_the_degenerate_locus():
    report = resolve.no_indeterminacy_certificate("b3=1")
    assert not report.certified


def test_fixture_center_equations_stay_invariant(monkeypatch):
    """A broken center equation raises StructureError naming the chart
    and stage before any division runs."""
    stage = resolve.CHARTS["b0=a0=u3=1"]["stages"][0]
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


def _row_charts(row):
    return row["chart"] if row["kind"] == "family" else (row["chart"],)


def test_stage_parents_agree_with_the_table_parents():
    """A stage's parent (stage, chart) is its table's parent (table, row)
    seen through TABLE_STAGE: the parent table's stage (0 for base) and
    the parent row's chart, or one chart of a family row's pair.  Every
    row's chart lies in range for its stage."""
    for key, table in tables.EXCEPTIONAL.items():
        chart_id, stage_index = resolve.TABLE_STAGE[key]
        stage = resolve.CHARTS[chart_id]["stages"][stage_index - 1]
        for row in table["rows"]:
            assert all(0 <= c < len(stage["eqs"])
                       for c in _row_charts(row)), key
        parent_table, parent_row = table["parent"]
        if parent_table == "base":
            assert stage["parent"] == (0, 0), key
            continue
        parent_chart_id, parent_stage = resolve.TABLE_STAGE[parent_table]
        row = tables.EXCEPTIONAL[parent_table]["rows"][parent_row]
        assert parent_chart_id == chart_id, key
        assert stage["parent"][0] == parent_stage, key
        assert stage["parent"][1] in _row_charts(row), key


def test_unknown_chart_is_an_error():
    with pytest.raises(KeyError):
        resolve.run_chart("nope")
