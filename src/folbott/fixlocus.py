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

The rows themselves live in ``tables``.  ``build_catalog`` reads them
in one forward pass, the base rows first and then the events in
``tables.EVENT_ORDER``, keeping each row's child frame for the events
over it; it checks that every event comes after its parent.  The child
tangent frame after blowing up is produced by one split rule
throughout, so the printed decompositions act as assertions over those
rows rather than as inputs; ``build_catalog`` checks that each event's
rows tile its normal frame as it reads them.
"""

from collections import Counter

from .tables import (B_MONOS, BASE_CELLS, EVENT_ORDER, EXCEPTIONAL,
                     LINE_SLOTS, base_cubics, base_pair)
from .torus import EigenWeight, parse_weight


class DirectionNotInNormal(ValueError):
    """Asked to split along a direction absent from the normal frame."""


def tangent_split_blowup(center, tangent, direction, times=1):
    """Tangent frame at the fixed point over ``direction`` after blowup.

    ``center`` lists the tangent directions of the blowup center (a
    sub-multiset of ``tangent``); ``direction`` picks the normal
    eigenvector the new point sits over, and leaves the normal frame
    ``times`` times: twice for a fixed line, whose direction is
    doubled.  The child frame keeps the center directions and the
    chosen direction, and twists every other normal direction by
    -direction; for a fixed line that is its normal decomposition.
    """
    residual = list(tangent)
    for c in center:
        try:
            residual.remove(c)
        except ValueError:
            raise DirectionNotInNormal(
                "center direction %s missing from tangent frame" % c)
    for _ in range(times):
        try:
            residual.remove(direction)
        except ValueError:
            raise DirectionNotInNormal(
                "direction %s is not %s normal direction"
                % (direction, "a" if times == 1 else "a doubled"))
    return list(center) + [direction] + [n - direction for n in residual]


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
    """All fixed points and lines of the four-stage space on one flag.

    One forward pass: the base rows, then the events in
    ``tables.EVENT_ORDER``.  Each row's child frame (tangent, nu) is kept
    by (table, row), and an event reads its frame from the row its
    parent names, plus the zero weight along the line when that row is
    a family.  An event listed before its parent raises AssertionError
    naming both.

    Before an event's rows become records, they must tile its frame:
    the center plus the row directions (markers contributing a zero
    weight, family directions doubled) give the tangent frame as a
    multiset.  Raises AssertionError naming the event otherwise.
    """
    flag = tuple(flag)
    bw = [parse_weight(m) for m in B_MONOS]
    x0 = parse_weight("x0")
    cubics = {k: [parse_weight(m) for m in base_cubics(k)] for k in (1, 2, 3)}
    frames = {}
    points = []
    for row, cell in enumerate(BASE_CELLS):
        # Quadric q with cubic i of partner k: the quadric's directions
        # lead, the partner's first when the quadric is the degenerate
        # x0^2; the cubic's four directions follow.
        q, k, i = base_pair(row)
        fw = cubics[k]
        tangent = [bw[k] - bw[0]] if q != k else []
        tangent += [bw[j] - bw[k] for j in range(4) if j not in (q, k)]
        tangent += [fw[j] - fw[i] for j in range(5) if j != i]
        nu = bw[q] + fw[i] - x0
        frames["base", row] = tangent, nu
        if cell is not None:  # else an event anchor, replaced by its rows
            points.append(FixedPointRecord(
                "base/r%02d" % row, "base", row, nu, tangent, flag))
    markers = []
    lines = []
    for key in EVENT_ORDER:
        ev = EXCEPTIONAL[key]
        ptable, prow = ev["parent"]
        if (ptable, prow) not in frames:
            raise AssertionError("event %s listed before its parent %s"
                                 % (key, ptable))
        tangent, nu = frames[ptable, prow]
        line_end = None if ptable == "base" \
            else EXCEPTIONAL[ptable]["rows"][prow].get("line")
        if line_end is not None:
            tangent = tangent + [EigenWeight((0, 0, 0, 0))]
        center = [parse_weight(c) for c in ev["center"]]
        rows = [(row, parse_weight(row["eig"])) for row in ev["rows"]]
        claimed = Counter(center)
        for row, dw in rows:
            claimed[dw] += 2 if row["kind"] == "family" else 1
        if claimed != Counter(tangent):
            raise AssertionError(
                "event %s rows do not tile the normal frame" % key)
        for ri, (row, dw) in enumerate(rows):
            kind = row["kind"]
            if kind == "marker":
                if line_end is None:
                    raise AssertionError(
                        "marker outside a line-end event in %s" % key)
                markers.append((key, ri, line_end))
                continue
            child = tangent_split_blowup(
                center, tangent, dw, times=2 if kind == "family" else 1)
            frames[key, ri] = child, nu + dw
            if kind == "iso":
                points.append(FixedPointRecord(
                    "%s/r%d" % (key, ri), key, ri, nu + dw, child, flag))
            elif kind == "family":
                lines.append(FixedLineRecord(
                    row["line"], key, ri, nu + dw, child,
                    LINE_SLOTS[row["line"]], flag))
    lines.sort(key=lambda rec: rec.id)
    return Catalog(flag, points, lines, markers)
