"""The recorded fixed-point tables, written once.

Every fixed point of the resolved parameter space is a row of one of
thirteen tables: the base pairs and twelve exceptional tables, one per
blowup event.  The fixed-point catalog (``fixlocus``) reads each row's
eigenweight and kind; the blowup pipelines (``resolve``) read its chart
and printed generator cell, and each event's parent row as the chart
its stage continues from.  Everything else either module needs is
derived from these literals; the rule that pairs a base row with its
quadric and cubic (``base_pair``) is written here once.  Cells are
kept as unparsed text and stored exactly as printed; the one known
misprint is listed in DOCUMENTED_MISMATCHES together with its
correction.
"""

# ---------------------------------------------------------------------------
# Base pairs
# ---------------------------------------------------------------------------

B_MONOS = ("x0^2", "x0*x1", "x0*x2", "x1^2")
A_BASE = ("x0^3", "x0^2*x1", "x0^2*x2", "x0^2*x3")
A_EXTRA = {1: "x0*x1^2", 2: "x0*x1*x2", 3: "x1^3"}


def base_cubics(k):
    """The five cubics paired with quadric partner B_MONOS[k]."""
    return A_BASE + (A_EXTRA[k],)


def base_pair(row):
    """(quadric index q, partner k, cubic index i) of base row ``row``.

    Six groups of five rows: row 5*j + i pairs the quadric B_MONOS[q]
    with cubic i of base_cubics(k), where k = j % 3 + 1.  Groups 0-2
    take q = k; groups 3-5 sit over the degenerate quadric x0^2 (q = 0)
    and are labeled by the partner B_MONOS[k].
    """
    j, i = divmod(row, 5)
    k = j % 3 + 1
    return (k if j < 3 else 0), k, i


# The printed cells, in the order of base_pair.  None marks a cell
# printed as not defined: its pair must give the zero form, and a
# blowup event replaces it in the catalog.
BASE_CELLS = (
    # rows 0-4: quadric x0*x1
    "x0^2*x1*dx0 - x0^3*dx1",
    "x0*x1^2*dx0 - x0^2*x1*dx1",
    "x0*x1*x2*dx0 - 3*x0^2*x2*dx1 + 2*x0^2*x1*dx2",
    "x0*x1*x3*dx0 - 3*x0^2*x3*dx1 + 2*x0^2*x1*dx3",
    "x1^3*dx0 - x0*x1^2*dx1",
    # rows 5-9: quadric x0*x2
    "x0^2*x2*dx0 - x0^3*dx2",
    "x0*x1*x2*dx0 + 2*x0^2*x2*dx1 - 3*x0^2*x1*dx2",
    "x0*x2^2*dx0 - x0^2*x2*dx2",
    "x0*x2*x3*dx0 - 3*x0^2*x3*dx2 + 2*x0^2*x2*dx3",
    "-x1*x2^2*dx0 + 2*x0*x2^2*dx1 - x0*x1*x2*dx2",
    # rows 10-14: quadric x1^2
    "x0*x1^2*dx0 - x0^2*x1*dx1",
    "x1^3*dx0 - x0*x1^2*dx1",
    "2*x1^2*x2*dx0 - 3*x0*x1*x2*dx1 + x0*x1^2*dx2",
    "2*x1^2*x3*dx0 - 3*x0*x1*x3*dx1 + x0*x1^2*dx3",
    None,
    # rows 15-19: quadric x0^2, partner x0*x1
    None,
    "x0^2*x1*dx0 - x0^3*dx1",
    "x0^2*x2*dx0 - x0^3*dx2",
    "x0^2*x3*dx0 - x0^3*dx3",
    "x0*x1^2*dx0 - x0^2*x1*dx1",
    # rows 20-24: quadric x0^2, partner x0*x2
    None,
    "x0^2*x1*dx0 - x0^3*dx1",
    "x0^2*x2*dx0 - x0^3*dx2",
    "x0^2*x3*dx0 - x0^3*dx3",
    "2*x0*x1*x2*dx0 - x0^2*x2*dx1 - x0^2*x1*dx2",
    # rows 25-29: quadric x0^2, partner x1^2
    None,
    "x0^2*x1*dx0 - x0^3*dx1",
    "x0^2*x2*dx0 - x0^3*dx2",
    "x0^2*x3*dx0 - x0^3*dx3",
    "x1^3*dx0 - x0*x1^2*dx1",
)

# ---------------------------------------------------------------------------
# Exceptional tables
# ---------------------------------------------------------------------------

# One table per blowup event, in published order.  ``parent`` names the
# row the event blows up: a base cell printed as not defined, an "nd"
# row of another table, or a "family" row, whose fixed line the event
# resolves at its end.  ``center`` lists the center's tangent
# directions.  Each row is a direction in the center's normal frame:
#   kind   "iso" (isolated point), "nd" (not defined: a further event),
#          "family" (a fixed line) or "marker" (weight zero on a line)
#   eig    the printed eigenweight label, the direction itself
#   chart  the pipeline chart index inside the producing stage, or the
#          index pair of the two charts that carry a fixed line; the
#          stage that blows up the line's end continues from the first
#   cell   the printed generator cell, None when printed as not defined
#   line   the fixed line's id ("family" rows only)
EXCEPTIONAL = {
    "cube": {
        "parent": ("base", 14),
        "center": ["x0/x1"],
        "rows": [
            {"kind": "iso", "eig": "x0^3/x1^3", "chart": 0,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x0^2*x2/x1^3", "chart": 1,
             "cell": "2*x1^2*x2*dx0 - 3*x0*x1*x2*dx1 + x0*x1^2*dx2"},
            {"kind": "nd", "eig": "x0*x2/x1^2", "chart": 2, "cell": None},
            {"kind": "iso", "eig": "x0^2*x3/x1^3", "chart": 3,
             "cell": "2*x1^2*x3*dx0 - 3*x0*x1*x3*dx1 + x0*x1^2*dx3"},
            {"kind": "family", "eig": "x0^2/x1^2", "chart": (4, 5),
             "line": "line1",
             "cell": "(2*s5 - 3*s4)*x1^3*dx0 - (2*s5 - 3*s4)*x0*x1^2*dx1"},
        ],
    },
    "cube-res": {
        "parent": ("cube", 2),
        "center": ["x0/x1", "x0/x2"],
        "rows": [
            {"kind": "iso", "eig": "x0/x2", "chart": 0,
             "cell": "x1^3*dx0 - x0*x1^2*dx1"},
            {"kind": "iso", "eig": "x0*x3/x1*x2", "chart": 1,
             "cell": "2*x1^2*x3*dx0 - 3*x0*x1*x3*dx1 + x0*x1^2*dx3"},
            {"kind": "iso", "eig": "x0^2/x1*x2", "chart": 2,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x0/x1", "chart": 3,
             "cell": "2*x1^2*x2*dx0 - 3*x0*x1*x2*dx1 + x0*x1^2*dx2"},
            {"kind": "iso", "eig": "x0*x2/x1^2", "chart": 4,
             "cell": "x1*x2^2*dx0 - 2*x0*x2^2*dx1 + x0*x1*x2*dx0"},
        ],
    },
    "cube-end": {
        "parent": ("cube", 4),
        "center": ["x0/x1", "x2/x0"],
        "rows": [
            {"kind": "marker", "eig": "1", "chart": 0,
             "cell": "x1^3*dx0 - x0*x1^2*dx1"},
            {"kind": "iso", "eig": "x3/x1", "chart": 1,
             "cell": "2*x1^2*x3*dx0 - 3*x0*x1*x3*dx1 + x0*x1^2*dx3"},
            {"kind": "iso", "eig": "x0/x1", "chart": 2,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x2/x1", "chart": 3,
             "cell": "2*x1^2*x2*dx0 - 3*x0*x1*x2*dx1 + x0*x1^2*dx2"},
            {"kind": "iso", "eig": "x0^2/x1^2", "chart": 4,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
        ],
    },
    "axis1": {
        "parent": ("base", 15),
        "center": ["x1/x0"],
        "rows": [
            {"kind": "family", "eig": "x1/x0", "chart": (0, 1),
             "line": "line2",
             "cell": "(3*s0 - 2*s1)*x0^2*x1*dx0 - (3*s0 - 2*s1)*x0^3*dx1"},
            {"kind": "iso", "eig": "x2/x0", "chart": 2,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "iso", "eig": "x3/x0", "chart": 3,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x1^2/x0^2", "chart": 4,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "nd", "eig": "x2/x1", "chart": 5, "cell": None},
        ],
    },
    "axis1-res": {
        "parent": ("axis1", 4),
        "center": ["x2/x1", "x1^2/x0*x2"],
        "rows": [
            {"kind": "iso", "eig": "x1*x3/x0*x2", "chart": 0,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x1^2/x0*x2", "chart": 2,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x1^3/x0^2*x2", "chart": 4,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "family", "eig": "x1/x0", "chart": (1, 3),
             "line": "line3",
             "cell": "(t3 - t1)*x0^2*x2*dx0 - (t3 - t1)*x0^3*dx2"},
        ],
    },
    "axis1-res-end": {
        "parent": ("axis1-res", 3),
        "center": ["x1^2/x0*x2", "x1/x0"],
        "rows": [
            {"kind": "nd", "eig": "x2/x1", "chart": 0, "cell": None},
            {"kind": "marker", "eig": "1", "chart": 1,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "iso", "eig": "x1/x2", "chart": 2,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x3/x2", "chart": 3,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x1^2/x0*x2", "chart": 4,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
        ],
    },
    "axis1-res-end-res": {
        "parent": ("axis1-res-end", 0),
        "center": ["x2/x1"],
        "rows": [
            {"kind": "iso", "eig": "x1/x0", "chart": 0,
             "cell": "x0*x2^2*dx0 - x0^2*x2*dx2"},
            {"kind": "iso", "eig": "x1/x2", "chart": 1,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "iso", "eig": "x1^2/x2^2", "chart": 2,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x1*x3/x2^2", "chart": 3,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x1^3/x0*x2^2", "chart": 4,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x1^2/x0*x2", "chart": 5,
             "cell": "2*x0*x1*x2*dx0 - x0^2*x2*dx1 - x0^2*x1*dx2"},
        ],
    },
    "axis1-end": {
        "parent": ("axis1", 0),
        "center": ["x1/x0", "x0*x2/x1^2"],
        "rows": [
            {"kind": "family", "eig": "x1/x0", "chart": (0, 4),
             "line": "line4",
             "cell": "(3*t4 - 8*t0)*x0*x1^2*dx0 - (3*t4 - 8*t0)*x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x3/x1", "chart": 1,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x2/x1", "chart": 2,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "marker", "eig": "1", "chart": 3,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
        ],
    },
    "axis1-end-end": {
        "parent": ("axis1-end", 0),
        "center": ["x0*x2/x1^2", "x1/x0"],
        "rows": [
            {"kind": "marker", "eig": "1", "chart": 0,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x0/x1", "chart": 1,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x0*x3/x1^2", "chart": 2,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x0*x2/x1^2", "chart": 3,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "iso", "eig": "x1/x0", "chart": 4,
             "cell": "x1^3*dx0 - x0*x1^2*dx1"},
        ],
    },
    "axis2": {
        "parent": ("base", 20),
        "center": ["x1/x2", "x1^2/x0*x2"],
        "rows": [
            {"kind": "iso", "eig": "x1/x0", "chart": 0,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x3/x0", "chart": 2,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x1*x2/x0^2", "chart": 3,
             "cell": "2*x0*x1*x2*dx0 - x0^2*x2*dx1 - x0^2*x1*dx2"},
            {"kind": "family", "eig": "x2/x0", "chart": (4, 1),
             "line": "line5",
             "cell": "(3*t4 - 2*t1)*x0^2*x2*dx0 - (3*t4 - 2*t1)*x0^3*dx2"},
        ],
    },
    "axis2-end": {
        "parent": ("axis2", 3),
        "center": ["x1/x2"],
        "rows": [
            {"kind": "iso", "eig": "x1^2/x0*x2", "chart": 0,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x1/x0", "chart": 1,
             "cell": "2*x0*x1*x2*dx0 - x0^2*x2*dx1 - x0^2*x1*dx2"},
            {"kind": "iso", "eig": "x3/x2", "chart": 2,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "marker", "eig": "1", "chart": 3,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "iso", "eig": "x1/x2", "chart": 4,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x2/x0", "chart": 5,
             "cell": "x0*x2^2*dx0 - x0^2*x2*dx2"},
        ],
    },
    "tangent": {
        "parent": ("base", 25),
        "center": ["x0/x1", "x0*x2/x1^2"],
        "rows": [
            {"kind": "iso", "eig": "x1^2/x0^2", "chart": 0,
             "cell": "x0*x1^2*dx0 - x0^2*x1*dx1"},
            {"kind": "iso", "eig": "x1/x0", "chart": 1,
             "cell": "x0^2*x1*dx0 - x0^3*dx1"},
            {"kind": "iso", "eig": "x2/x0", "chart": 2,
             "cell": "x0^2*x2*dx0 - x0^3*dx2"},
            {"kind": "iso", "eig": "x3/x0", "chart": 3,
             "cell": "x0^2*x3*dx0 - x0^3*dx3"},
            {"kind": "iso", "eig": "x1^3/x0^3", "chart": 4,
             "cell": "x1^3*dx0 - x0*x1^2*dx1"},
        ],
    },
}

# Twist unknowns d1..d30 attached to the six normal directions of each
# fixed line.
LINE_SLOTS = {
    "line1": (1, 2, 3, 4, 5, 6),
    "line2": (13, 14, 15, 16, 17, 18),
    "line3": (7, 8, 9, 10, 11, 12),
    "line4": (19, 20, 21, 22, 23, 24),
    "line5": (25, 26, 27, 28, 29, 30),
}

# The one known misprint: cube-res row 4 repeats dx0 where the last
# summand must close with dx2 to be an eigenvector at all.  The cell is
# stored verbatim above; cross checks compare against the correction
# and report the row as a documented mismatch rather than a failure.
DOCUMENTED_MISMATCHES = {
    ("cube-res", 4): "x1*x2^2*dx0 - 2*x0*x2^2*dx1 + x0*x1*x2*dx2",
}

# Catalog build order: every event after its parent.
EVENT_ORDER = ("cube", "axis1", "axis2", "tangent",
               "cube-res", "axis1-res",
               "cube-end", "axis1-end", "axis1-res-end", "axis2-end",
               "axis1-end-end", "axis1-res-end-res")
