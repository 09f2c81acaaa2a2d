"""Catalog of torus-fixed points and fixed lines per flag.

Everything is recorded in the local frame of a reference flag and
re-read on any of the 24 fixed flags by permuting weight slots.  The
catalog has three layers:

  * base anchors: pairs (quadric monomial, cubic monomial) with seven
    tangent eigenweights assembled from monomial differences;
  * twelve exceptional events, each a blowup center inside the tangent
    frame of an anchor point, a previous event row, or a fixed-line
    endpoint.  Every event row is a direction in the normal frame and
    becomes an isolated fixed point, a further event, a fixed family
    (line), or a weight-zero marker on an existing line;
  * the five fixed lines with their six-eigenweight normal decomposition
    and the twist-unknown slots attached to each normal direction.

The rows themselves live in ``tables``.  The child tangent frame after
blowing up is produced by one split rule throughout, so the printed
decompositions act as assertions over those rows rather than as inputs.
"""

from .tables import (A_BASE, A_EXTRA, B_MONOS, BASE_CELLS, EVENT_ORDER,
                     EXCEPTIONAL, LINE_SLOTS)
from .torus import EigenWeight, parse_weight


class DirectionNotInNormal(ValueError):
    """Asked to split along a direction absent from the normal frame."""


def tangent_split_blowup(center, tangent, direction):
    """Tangent frame at the fixed point over ``direction`` after blowup.

    ``center`` lists the tangent directions of the blowup center (a
    sub-multiset of ``tangent``); ``direction`` picks the normal
    eigenvector the new point sits over.  The child frame keeps the
    center directions and the chosen direction, and twists every other
    normal direction by -direction.
    """
    residual = list(tangent)
    for c in center:
        try:
            residual.remove(c)
        except ValueError:
            raise DirectionNotInNormal(
                "center direction %s missing from tangent frame" % c)
    try:
        residual.remove(direction)
    except ValueError:
        raise DirectionNotInNormal(
            "direction %s is not a normal direction" % direction)
    return list(center) + [direction] + [n - direction for n in residual]


def _line_normals(center, tangent, direction):
    """Normal decomposition of the fixed line over a doubled direction."""
    residual = list(tangent)
    for c in center:
        residual.remove(c)
    for _ in range(2):
        try:
            residual.remove(direction)
        except ValueError:
            raise DirectionNotInNormal(
                "family direction %s is not doubled" % direction)
    return list(center) + [direction] + [n - direction for n in residual]


# ---------------------------------------------------------------------------
# Base layer
# ---------------------------------------------------------------------------

def _w(text):
    return parse_weight(text)


def _cubics_for(k):
    return list(A_BASE) + [A_EXTRA[k]]


def base_anchor(row):
    """Anchor of base table row ``row`` (see tables.BASE_CELLS)."""
    j, i = divmod(row, 5)
    return (j + 1, i) if j < 3 else (0, j - 2, i)


def base_anchor_frame(anchor):
    """(tangent eigenweights, fiber eigenweight) of a base anchor.

    ``anchor`` is (k, i) for the plain pairs with quadric B_MONOS[k],
    or (0, k, i) for pairs over the degenerate quadric x0^2 labeled by
    partner quadric B_MONOS[k].  Works for the event anchors too.
    """
    x0 = _w("x0")
    bw = [_w(m) for m in B_MONOS]
    if len(anchor) == 2:
        k, i = anchor
        fs = _cubics_for(k)
        fw = [_w(m) for m in fs]
        tb = [bw[j] - bw[k] for j in range(4) if j != k]
        ta = [fw[j] - fw[i] for j in range(5) if j != i]
        nu = bw[k] + fw[i] - x0
        return tb + ta, nu
    _, k, i = anchor
    fs = _cubics_for(k)
    fw = [_w(m) for m in fs]
    tb = [bw[k] - bw[0]]
    tb += [bw[j] - bw[k] for j in range(4) if j not in (0, k)]
    ta = [fw[j] - fw[i] for j in range(5) if j != i]
    nu = bw[0] + fw[i] - x0
    return tb + ta, nu


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

class _EventFrame:
    def __init__(self, center, tangent, nu):
        self.center = center
        self.tangent = tangent
        self.nu = nu

    def normal(self):
        residual = list(self.tangent)
        for c in self.center:
            residual.remove(c)
        return residual


def _event_frame(key, memo):
    """Frame of an event's center, from the row its parent names.

    A not-defined base cell gives the anchor frame; an "nd" row gives
    the split frame over its direction; a "family" row gives the fixed
    line's normals plus the zero weight along the line.
    """
    if key in memo:
        return memo[key]
    ev = EXCEPTIONAL[key]
    ptable, prow = ev["parent"]
    if ptable == "base":
        tangent, nu = base_anchor_frame(base_anchor(prow))
    else:
        pframe = _event_frame(ptable, memo)
        row = EXCEPTIONAL[ptable]["rows"][prow]
        d = _w(row["eig"])
        if row["kind"] == "family":
            tangent = _line_normals(pframe.center, pframe.tangent, d)
            tangent.append(EigenWeight.zero())
        else:
            tangent = tangent_split_blowup(pframe.center, pframe.tangent, d)
        nu = pframe.nu + d
    frame = _EventFrame([_w(c) for c in ev["center"]], tangent, nu)
    memo[key] = frame
    return frame


def validate_events():
    """Structural sanity of the event fixtures.

    For each event, the row directions (markers contributing a zero
    weight, family directions doubled) must reproduce the normal frame
    of the center as a multiset, and the center must embed in the
    parent tangent frame.  Raises AssertionError on any defect.
    """
    memo = {}
    for key in EVENT_ORDER:
        frame = _event_frame(key, memo)
        normal = frame.normal()
        claimed = []
        for row in EXCEPTIONAL[key]["rows"]:
            w = _w(row["eig"])
            claimed.append(w)
            if row["kind"] == "family":
                claimed.append(w)
        def _multiset(ws):
            out = {}
            for x in ws:
                out[x.coeffs] = out.get(x.coeffs, 0) + 1
            return out
        if _multiset(claimed) != _multiset(normal):
            raise AssertionError(
                "event %s rows do not tile the normal frame" % key)


# ---------------------------------------------------------------------------
# Records and the catalog
# ---------------------------------------------------------------------------

class FixedPointRecord:
    """Isolated fixed point: fiber weight plus seven tangent weights."""

    def __init__(self, rid, table, row, nu, tangent, flag):
        self.id = rid
        self.table = table
        self.row = row
        self.nu = nu
        self.tangent = tuple(tangent)
        self.flag = flag

    def __repr__(self):
        return "FixedPointRecord(%r)" % self.id


class FixedLineRecord:
    """Fixed line: normal decomposition, twist slots, fiber weight."""

    def __init__(self, rid, table, row, wfiber, normals, slots, flag):
        self.id = rid
        self.table = table
        self.row = row
        self.wfiber = wfiber
        self.normals = tuple(normals)
        self.slots = tuple(slots)
        self.flag = flag

    def __repr__(self):
        return "FixedLineRecord(%r)" % self.id


class Catalog:
    def __init__(self, flag, points, lines, markers):
        self.flag = flag
        self.points = points
        self.lines = lines
        self.markers = markers

    def census(self):
        return {"points": len(self.points), "lines": len(self.lines)}


def build_catalog(flag):
    """All fixed points and lines of the four-stage space on one flag."""
    flag = tuple(flag)
    memo = {}
    points = []
    for row, cell in enumerate(BASE_CELLS):
        if cell is None:
            continue  # an event anchor, replaced by its event's rows
        tangent, nu = base_anchor_frame(base_anchor(row))
        points.append(FixedPointRecord(
            "base/r%02d" % row, "base", row, nu, tangent, flag))
    markers = []
    lines = []
    for key in EVENT_ORDER:
        frame = _event_frame(key, memo)
        ptable, prow = EXCEPTIONAL[key]["parent"]
        line_end = None if ptable == "base" \
            else EXCEPTIONAL[ptable]["rows"][prow].get("line")
        for ri, row in enumerate(EXCEPTIONAL[key]["rows"]):
            kind = row["kind"]
            dw = _w(row["eig"])
            if kind == "iso":
                tangent = tangent_split_blowup(
                    frame.center, frame.tangent, dw)
                points.append(FixedPointRecord(
                    "%s/r%d" % (key, ri), key, ri,
                    frame.nu + dw, tangent, flag))
            elif kind == "family":
                normals = _line_normals(frame.center, frame.tangent, dw)
                lines.append(FixedLineRecord(
                    row["line"], key, ri, frame.nu + dw, normals,
                    LINE_SLOTS[row["line"]], flag))
            elif kind == "marker":
                if line_end is None:
                    raise AssertionError(
                        "marker outside a line-end event in %s" % key)
                markers.append((key, ri, line_end))
    lines.sort(key=lambda rec: rec.id)
    return Catalog(flag, points, lines, markers)
