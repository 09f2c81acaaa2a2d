from fractions import Fraction
from functools import reduce

import pytest

from folbott import resolve
from folbott.fixlocus import (DirectionNotInNormal, build_catalog,
                              tangent_split_blowup)
from folbott.tables import EXCEPTIONAL, LINE_SLOTS
from folbott.torus import enumerate_fixed_flags, flag_tangent_product, \
    parse_weight
from oracle import (normal_values, nu_value, point_contribution,
                    tangent_values, wfiber_value)

REF_FLAG = (0, 1, 2, 3)
WEIGHTS = [(0, 1, 5, 25), (0, 1, 7, 37), (1, 2, 9, 41)]


def _prod(values):
    return reduce(lambda a, b: a * b, values, Fraction(1))


def test_census_per_flag_and_global():
    cat = build_catalog(REF_FLAG)
    assert cat.census() == {"points": 72, "lines": 5}
    total_points = 0
    total_lines = 0
    for flag in enumerate_fixed_flags():
        c = build_catalog(flag).census()
        total_points += c["points"]
        total_lines += c["lines"]
    assert total_points == 1728
    assert total_lines == 120


def test_zero_weight_markers_sit_on_line_closures():
    cat = build_catalog(REF_FLAG)
    assert cat.markers == [("cube-end", 0, "line1"),
                          ("axis1-end", 3, "line2"),
                          ("axis1-res-end", 1, "line3"),
                          ("axis2-end", 3, "line5"),
                          ("axis1-end-end", 0, "line4")]


def test_twist_slots_partition_the_thirty_unknowns():
    seen = []
    for line_id in sorted(LINE_SLOTS):
        assert len(LINE_SLOTS[line_id]) == 6
        seen.extend(LINE_SLOTS[line_id])
    assert sorted(seen) == list(range(1, 31))


def test_event_rows_tile_the_normal_frames():
    """build_catalog checks every event's rows against its frame as it
    reads them, so a catalog build is the check."""
    build_catalog(REF_FLAG)


@pytest.mark.parametrize("key,row", [("cube", 1), ("axis1-end", 0),
                                     ("axis2-end", 3)],
                         ids=["iso", "family", "marker"])
def test_a_duplicated_event_row_does_not_tile(monkeypatch, key, row):
    rows = EXCEPTIONAL[key]["rows"]
    monkeypatch.setitem(EXCEPTIONAL[key], "rows", rows + [rows[row]])
    with pytest.raises(AssertionError,
                       match="event %s rows do not tile the normal frame"
                             % key):
        build_catalog(REF_FLAG)


def test_split_rejects_foreign_directions():
    a = parse_weight("x1/x0")
    b = parse_weight("x2/x0")
    with pytest.raises(DirectionNotInNormal):
        tangent_split_blowup([a], [a, b], parse_weight("x3/x0"))


def test_line_records():
    cat = build_catalog(REF_FLAG)
    w = (0, 1, 5, 25)
    facts = {}
    for rec in cat.lines:
        assert len(rec.normals) == 6
        facts[rec.id] = (wfiber_value(rec, w), _prod(normal_values(rec, w)),
                         rec.slots)
    assert facts == {
        "line1": (3, -960, (1, 2, 3, 4, 5, 6)),
        "line2": (1, 288, (13, 14, 15, 16, 17, 18)),
        "line3": (5, -2880, (7, 8, 9, 10, 11, 12)),
        "line4": (2, -207, (19, 20, 21, 22, 23, 24)),
        "line5": (5, -4800, (25, 26, 27, 28, 29, 30)),
    }


def test_points_are_isolated_for_generic_weights():
    cat = build_catalog(REF_FLAG)
    for rec in cat.points:
        assert len(rec.tangent) == 7
        assert all(v != 0 for v in tangent_values(rec, (0, 1, 5, 25)))


def _point(table, row):
    cat = build_catalog(REF_FLAG)
    for rec in cat.points:
        if rec.table == table and rec.row == row:
            return rec
    raise KeyError((table, row))


@pytest.mark.parametrize("table,row,nu_fn,prod_fn", [
    ("cube", 0,
     None,
     lambda w0, w1, w2, w3: 3*(w0-w1)**4*(w2-w0)*(w3-w0)*(w1+w2-2*w0)),
    ("cube-res", 3,
     lambda w0, w1, w2, w3: w0 + 2*w1 + w2,
     lambda w0, w1, w2, w3: (w0-w1)**2*(w0-w2)**2*(w2-w1)**2*(w2-w3)),
    ("cube-end", 2,
     lambda w0, w1, w2, w3: 2*w0 + 2*w1,
     lambda w0, w1, w2, w3: (w0-w1)**4*(w2-w0)**2*(w0-w3)),
    ("axis1-res", 0,
     lambda w0, w1, w2, w3: 3*w0 + w3,
     None),
    ("axis1-res-end-res", 4,
     lambda w0, w1, w2, w3: 2*w0 + 2*w1,
     lambda w0, w1, w2, w3: (2*(w2-w1)**3*(3*w1-w0-2*w2)
                             * (w0+w2-2*w1)*(w0-w1)*(w0+w3-2*w1))),
    ("axis1-end-end", 1,
     lambda w0, w1, w2, w3: 3*w0 + w1,
     lambda w0, w1, w2, w3: -2*(w0-w1)**4*(w0+w2-2*w1)*(w2-w1)*(w3-w1)),
])
def test_frozen_point_frames(table, row, nu_fn, prod_fn):
    rec = _point(table, row)
    for wv in WEIGHTS:
        w0, w1, w2, w3 = [Fraction(x) for x in wv]
        if nu_fn is not None:
            assert nu_value(rec, wv) == nu_fn(w0, w1, w2, w3)
        if prod_fn is not None:
            assert _prod(tangent_values(rec, wv)) == prod_fn(w0, w1, w2, w3)


def test_global_localization_term_closed_form():
    rec = _point("base", 2)
    assert rec.nu.coeffs == (2, 1, 1, 0)
    for wv in WEIGHTS:
        w0, w1, w2, w3 = [Fraction(x) for x in wv]
        lhs = point_contribution(rec, wv, 13) \
            / flag_tangent_product(REF_FLAG, wv)
        rhs = -(2*w0 + w1 + w2)**13 / (
            (w0-w1)**3 * (w2-w0)**2 * (w3-w0)
            * (w2-w1)**3 * (w3-w1) * (w3-w2)**2 * (2*w1-w0-w2))
        assert lhs == rhs


def test_catalog_rows_match_the_pipeline_tables():
    statuses = {(rep.table, rep.row): rep.status
                for rep in resolve.check_tables()}
    cat = build_catalog(REF_FLAG)
    for rec in cat.points:
        expected = "documented_mismatch" \
            if (rec.table, rec.row) == ("cube-res", 4) else "ok"
        assert statuses[(rec.table, rec.row)] == expected, rec.id
