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
decompositions act as assertions over those rows rather than as inputs;
``build_catalog`` checks that each event's rows tile its normal frame
as it reads them.
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
# Base layer
# ---------------------------------------------------------------------------

def base_frame(row):
    """(tangent eigenweights, fiber eigenweight) of base row ``row``.

    The row pairs quadric q with cubic i of partner k (tables.base_pair).
    The quadric's directions lead, the partner's first when the quadric
    is the degenerate x0^2; the cubic's four directions follow.
    """
    q, k, i = base_pair(row)
    bw = [parse_weight(m) for m in B_MONOS]
    fw = [parse_weight(m) for m in base_cubics(k)]
    tb = [bw[k] - bw[0]] if q != k else []
    tb += [bw[j] - bw[k] for j in range(4) if j not in (q, k)]
    ta = [fw[j] - fw[i] for j in range(5) if j != i]
    return tb + ta, bw[q] + fw[i] - parse_weight("x0")


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

def _event_frame(key, memo):
    """(center, tangent, nu) of an event, from the row its parent names.

    A not-defined base cell gives the base frame; an "nd" row gives
    the split frame over its direction; a "family" row gives the fixed
    line's normals plus the zero weight along the line.
    """
    if key in memo:
        return memo[key]
    ev = EXCEPTIONAL[key]
    ptable, prow = ev["parent"]
    if ptable == "base":
        tangent, nu = base_frame(prow)
    else:
        pcenter, ptangent, pnu = _event_frame(ptable, memo)
        row = EXCEPTIONAL[ptable]["rows"][prow]
        d = parse_weight(row["eig"])
        family = row["kind"] == "family"
        tangent = tangent_split_blowup(pcenter, ptangent, d,
                                       times=2 if family else 1)
        if family:
            tangent.append(EigenWeight((0, 0, 0, 0)))
        nu = pnu + d
    frame = ([parse_weight(c) for c in ev["center"]], tangent, nu)
    memo[key] = frame
    return frame


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

    Before an event's rows become records, they must tile its frame:
    the center plus the row directions (markers contributing a zero
    weight, family directions doubled) give the tangent frame as a
    multiset.  Raises AssertionError naming the event otherwise.
    """
    flag = tuple(flag)
    memo = {}
    points = []
    for row, cell in enumerate(BASE_CELLS):
        if cell is None:
            continue  # an event anchor, replaced by its event's rows
        tangent, nu = base_frame(row)
        points.append(FixedPointRecord(
            "base/r%02d" % row, "base", row, nu, tangent, flag))
    markers = []
    lines = []
    for key in EVENT_ORDER:
        center, tangent, nu = _event_frame(key, memo)
        ptable, prow = EXCEPTIONAL[key]["parent"]
        line_end = None if ptable == "base" \
            else EXCEPTIONAL[ptable]["rows"][prow].get("line")
        rows = EXCEPTIONAL[key]["rows"]
        directions = [parse_weight(row["eig"]) for row in rows]
        claimed = Counter(center)
        for row, dw in zip(rows, directions):
            claimed[dw] += 2 if row["kind"] == "family" else 1
        if claimed != Counter(tangent):
            raise AssertionError(
                "event %s rows do not tile the normal frame" % key)
        for ri, (row, dw) in enumerate(zip(rows, directions)):
            kind = row["kind"]
            if kind == "iso":
                points.append(FixedPointRecord(
                    "%s/r%d" % (key, ri), key, ri, nu + dw,
                    tangent_split_blowup(center, tangent, dw), flag))
            elif kind == "family":
                lines.append(FixedLineRecord(
                    row["line"], key, ri, nu + dw,
                    tangent_split_blowup(center, tangent, dw, times=2),
                    LINE_SLOTS[row["line"]], flag))
            elif kind == "marker":
                if line_end is None:
                    raise AssertionError(
                        "marker outside a line-end event in %s" % key)
                markers.append((key, ri, line_end))
    lines.sort(key=lambda rec: rec.id)
    return Catalog(flag, points, lines, markers)
