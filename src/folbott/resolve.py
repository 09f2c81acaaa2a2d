"""Staged blowup pipelines over the five parameter charts.

Each chart of the parameter space carries a generic cubic/quadric pair
(f, g).  The attached generator form is transformed through a fixed
sequence of blowup stages.  A stage is recorded as data: its center
equations e_0..e_{k-1}, and nothing that restates them.  Each e_i
solves for the first variable written in it: with var_i that variable
and c_i = de_i/dvar_i, a nonzero constant, e_i = c_i*var_i - offset_i
where offset_i does not contain var_i.  Template i then rewrites

    var_i  ->  (new_i * EXC + offset_i) / c_i

which turns e_i into new_i * EXC exactly; new_i is the kind's fiber
letter plus i.  Working on chart c of the stage means EXC := e_c,
template c is dropped (its variable survives as the chart coordinate
and new_c is never introduced), and the pulled-back form is divided by
e_c once.  The center equations are fixtures, checked by the solving
rule, by the invariance assertion (e_c must be unchanged by the
substitution) and by the divisibility of the form itself; no
elimination theory runs at import time.

Fixed-point rows of the exceptional tables are evaluated by a single
recipe: every stage-new variable is set to zero (except a family
partner kept symbolic), surviving older variables keep their propagated
anchor values, and the chart coordinate var_c anchors to its own
template offset evaluated at the current anchors.  The initial anchors
are the parameters of f and g, each at 0.  The rows and their printed
cells are read from ``tables``.  ``check_tables`` decides the status of
every printed cell, base or exceptional, by one rule, and all its
comparisons are up to a nonzero rational scalar.
"""

import re
from fractions import Fraction

from .ratpoly import Polynomial, VARIABLE_NAMES, parse_poly
from .extforms import COORDS, build_omega, parse_form
from .tables import (B_MONOS, BASE_CELLS, DOCUMENTED_MISMATCHES,
                     EXCEPTIONAL, base_cubics, base_pair)


# ---------------------------------------------------------------------------
# Chart pipeline fixtures
# ---------------------------------------------------------------------------

# Chart record fields: the cubic f, the quadric g and the stages.
# Stage record fields:
#   kind     one of "C", "E", "R", "L" naming the center type; its
#            FIBER_LETTERS entry names the stage's fiber coordinates
#   parent   (stage index, chart index) to continue from; stage 0 is the
#            initial chart with its single state (0, 0)
#   eqs      center equations on the parent chart, each c*var - offset
#            in the first variable var written in it (module docstring)
#   table    key of the exceptional-locus table this stage produces

FIBER_LETTERS = {"C": "s", "E": "t", "R": "v", "L": "z"}

CHARTS = {
    "b3=a6=1": {
        "g": "b0*x0^2 + b1*x0*x1 + b2*x0*x2 + x1^2",
        "f": ("a0*x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + 3/2*b1*x0*x1^2 + 3/2*b2*x0*x1*x2 + x1^3"),
        "stages": [
            {
                "kind": "C",
                "parent": (0, 0),
                "eqs": ["8*a0 - b1^3", "a2", "b2", "a3",
                        "4*b0 - b1^2", "4*a1 - 3*b1^2"],
                "table": "cube",
            },
            {
                "kind": "R",
                "parent": (1, 2),
                "eqs": ["3*s4 - 2*s5", "s3", "s0 - b1*s5",
                        "4*s1 - 3*b1", "b2"],
                "table": "cube-res",
            },
            {
                "kind": "R",
                "parent": (1, 4),
                "eqs": ["2*s5 - 3", "s3", "2*s0 - 3*b1",
                        "4*s1 - 3*b1*s2", "4*b0 - b1^2"],
                "table": "cube-end",
            },
        ],
    },
    "b0=a0=u1=1": {
        "g": "x0^2 + b1*x0*x1 + u2*b1*x0*x2 + u3*b1*x1^2",
        "f": ("x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + a4*x0*x1^2 + a4*u2*x0*x1*x2 + 2/3*a4*u3*x1^3"),
        "stages": [
            {
                "kind": "C",
                "parent": (0, 0),
                "eqs": ["b1 - 4*u3", "a1 - 6*u3", "a2", "a3",
                        "a4 - 12*u3^2", "u2"],
                "table": "axis1",
            },
            {
                "kind": "E",
                "parent": (1, 5),
                "eqs": ["s3", "s2", "3*s0 - 2*s1",
                        "6*u3 + s1*u2", "3*s4 + s1^2*u2"],
                "table": "axis1-res",
            },
            {
                "kind": "E",
                "parent": (1, 0),
                "eqs": ["s4 - 3*u3", "s3", "s2", "2*s1 - 3", "b1"],
                "table": "axis1-end",
            },
            {
                "kind": "R",
                "parent": (2, 1),
                "eqs": ["u2", "t3 - 1", "t2", "t0", "3*s1 - 2*t4"],
                "table": "axis1-res-end",
            },
            {
                "kind": "R",
                "parent": (3, 0),
                "eqs": ["3*t4 - 8", "t3", "t1", "t2 - 4*s5",
                        "2*s4 - 9*u3"],
                "table": "axis1-end-end",
            },
            {
                "kind": "L",
                "parent": (4, 0),
                "eqs": ["s2", "v1", "v2", "v3", "v4", "t4"],
                "table": "axis1-res-end-res",
            },
        ],
    },
    "b0=a0=u2=1": {
        "g": "x0^2 + u1*b2*x0*x1 + b2*x0*x2 + u3*b2*x1^2",
        "f": ("x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + a5*u1*x0*x1^2 + a5*x0*x1*x2 + 2/3*a5*u3*x1^3"),
        "stages": [
            {
                "kind": "E",
                "parent": (0, 0),
                "eqs": ["a1", "a2", "a3", "a5", "b2"],
                "table": "axis2",
            },
            {
                "kind": "L",
                "parent": (1, 4),
                "eqs": ["u3", "t3", "t2", "2*t1 - 3",
                        "2*t0 - 3*u1", "b2"],
                "table": "axis2-end",
            },
        ],
    },
    "b0=a0=u3=1": {
        "g": "x0^2 + u1*b3*x0*x1 + u2*b3*x0*x2 + b3*x1^2",
        "f": ("x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + 3/2*a6*u1*x0*x1^2 + 3/2*a6*u2*x0*x1*x2 + a6*x1^3"),
        "stages": [
            {
                "kind": "E",
                "parent": (0, 0),
                "eqs": ["b3", "a1", "a2", "a3", "a6"],
                "table": "tangent",
            },
        ],
    },
    "b2=1": {
        "g": "b0*x0^2 + b1*x0*x1 + x0*x2 + b3*x1^2",
        "f": ("a0*x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + a5*b1*x0*x1^2 + a5*x0*x1*x2 + 2/3*a5*b3*x1^3"),
        "stages": [],
    },
}

CHART_IDS = tuple(CHARTS)


# Variants used by the indeterminacy certificate: like the pipeline
# charts but with the fiber normalization left open, so the projective
# fiber coordinates are still visible.  The locus argument (if any)
# pins a fiber coordinate to zero before the worklist runs.

CERTIFICATE_VARIANTS = {
    "b3=1": {
        "g": "b0*x0^2 + b1*x0*x1 + b2*x0*x2 + x1^2",
        "f": ("a0*x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + 3/2*a6*b1*x0*x1^2 + 3/2*a6*b2*x0*x1*x2 + a6*x1^3"),
        "fiber": ["a0", "a1", "a2", "a3", "a6"],
    },
    "b0=u1=1": {
        "g": "x0^2 + b1*x0*x1 + u2*b1*x0*x2 + u3*b1*x1^2",
        "f": ("a0*x0^3 + a1*x0^2*x1 + a2*x0^2*x2 + a3*x0^2*x3"
              " + a4*x0*x1^2 + a4*u2*x0*x1*x2 + 2/3*a4*u3*x1^3"),
        "fiber": ["a0", "a1", "a2", "a3", "a4"],
    },
    "b2=1": {
        "g": CHARTS["b2=1"]["g"],
        "f": CHARTS["b2=1"]["f"],
        "fiber": ["a0", "a1", "a2", "a3", "a5"],
    },
}


def _table_to_stage():
    out = {}
    for cid, chart in CHARTS.items():
        for si, stage in enumerate(chart["stages"], start=1):
            out[stage["table"]] = (cid, si)
    return out


TABLE_STAGE = _table_to_stage()


# ---------------------------------------------------------------------------
# Pipeline engine
# ---------------------------------------------------------------------------

class ChartState:
    """Form plus fiber anchor values after some stage chart."""

    def __init__(self, form, anchors):
        self.form = form
        self.anchors = anchors  # {variable name: Fraction}


class LedgerEntry:
    """One exact division that succeeded; a failed one raises
    NotDivisible instead, so ``ok`` is always true."""

    ok = True

    def __init__(self, chart_id, stage_index, stage_kind, chart_index,
                 divisor):
        self.chart_id = chart_id
        self.stage_index = stage_index
        self.stage_kind = stage_kind
        self.chart_index = chart_index
        self.divisor = divisor

    def describe(self):
        return "%s stage %d (%s) chart %d: divide by %s -> ok" % (
            self.chart_id, self.stage_index, self.stage_kind,
            self.chart_index, self.divisor)


class ChartRun:
    """All stage states of one parameter chart, plus the division ledger."""

    def __init__(self, chart_id, states, ledger):
        self.chart_id = chart_id
        self.states = states
        self.ledger = ledger


class StructureError(AssertionError):
    """A pipeline fixture failed one of its structural invariants."""


def _fiber_coordinate(stage, index):
    return "%s%d" % (FIBER_LETTERS[stage["kind"]], index)


_FIRST_NAME = re.compile(r"[A-Za-z]\w*")


def _templates(chart_id, stage_index, stage, eqs):
    """(var, 1/c, offset, new) for each parsed center equation eq.

    var is the first variable written in eq, c = d eq/d var must be a
    nonzero constant, so eq is c*var - offset with offset free of var,
    and new is the fiber coordinate that the template introduces.
    """
    templates = []
    for j, (text, eq) in enumerate(zip(stage["eqs"], eqs)):
        name = _FIRST_NAME.search(text)
        c = eq.partial(name.group()) if name else Polynomial.zero()
        if not c.is_constant() or c.is_zero():
            raise StructureError(
                "center equation %s of %s stage %d does not solve for its "
                "first variable" % (text, chart_id, stage_index))
        var, c = name.group(), c.constant_value()
        templates.append((var, 1 / c, c * Polynomial.variable(var) - eq,
                          _fiber_coordinate(stage, j)))
    return templates


def _apply_stage_chart(chart_id, stage_index, stage, eqs, templates, parent,
                       chart_index):
    """One chart of one stage, from the stage's parsed center equations
    and their templates."""
    exc = eqs[chart_index]
    subs = {var: scale * (Polynomial.variable(new) * exc + offset)
            for j, (var, scale, offset, new) in enumerate(templates)
            if j != chart_index}
    if exc.substitute(subs) != exc:
        raise StructureError(
            "center equation %s not invariant on chart %d of %s stage %d"
            % (stage["eqs"][chart_index], chart_index, chart_id, stage_index))
    pulled = parent.form.substitute(subs)
    context = (chart_id, stage_index, chart_index)
    divided = pulled.exact_divide(exc, context=context)
    if not divided.euler_pairing().is_zero():
        raise StructureError(
            "radial contraction broke on chart %d of %s stage %d"
            % (chart_index, chart_id, stage_index))
    anchors = dict(parent.anchors)
    for var, _, _, _ in templates:
        anchors.pop(var, None)
    for j, (_, _, _, new) in enumerate(templates):
        if j != chart_index:
            anchors[new] = Fraction(0)
    kept_var, kept_scale, kept_offset, _ = templates[chart_index]
    offset_val = kept_offset.substitute(parent.anchors)
    anchors[kept_var] = kept_scale * offset_val.constant_value()
    return ChartState(divided, anchors)


def run_chart(chart_id):
    """Execute every stage of a chart pipeline on every chart of every stage.

    Divisibility must hold on all charts of each stage (the vanishing
    order along an exceptional divisor does not depend on the chart), so
    all of them are run and logged even though only specific charts feed
    later stages; a failed division raises NotDivisible with context
    (chart, stage, chart index).  Each stage's center equations are
    parsed, and its templates derived, once and shared by its charts.
    """
    chart = CHARTS[chart_id]
    f = parse_poly(chart["f"])
    g = parse_poly(chart["g"])
    form = build_omega(f, g)
    params = (f.variables() | g.variables()) - set(COORDS)
    states = {(0, 0): ChartState(form, dict.fromkeys(params, Fraction(0)))}
    ledger = [LedgerEntry(chart_id, 0, "initial", 0, "x0")]
    for si, stage in enumerate(chart["stages"], start=1):
        parent = states[stage["parent"]]
        eqs = [parse_poly(e) for e in stage["eqs"]]
        templates = _templates(chart_id, si, stage, eqs)
        for ci in range(len(eqs)):
            states[(si, ci)] = _apply_stage_chart(
                chart_id, si, stage, eqs, templates, parent, ci)
            ledger.append(LedgerEntry(chart_id, si, stage["kind"], ci,
                                      stage["eqs"][ci]))
    return ChartRun(chart_id, states, ledger)


_RUN_CACHE = {}


def get_run(chart_id):
    if chart_id not in _RUN_CACHE:
        _RUN_CACHE[chart_id] = run_chart(chart_id)
    return _RUN_CACHE[chart_id]


def divisibility_ledger():
    """Run every pipeline and return the combined division ledger."""
    entries = []
    for cid in CHART_IDS:
        entries.extend(get_run(cid).ledger)
    return entries


def _point_evaluation(state, symbolic=()):
    keep = set(symbolic) | set(COORDS)
    mapping = {}
    for comp in state.form.comps:
        for name in comp.variables():
            if name in keep or name in mapping:
                continue
            mapping[name] = state.anchors.get(name, Fraction(0))
    return state.form.substitute(mapping)


def evaluate_fixed(table_key, row_index):
    """Evaluate one exceptional-table row through its pipeline.

    Returns (form, partner) pairs.  A family row gives one pair per
    chart of its fixed line: the form keeps the other chart's fiber
    coordinate symbolic, and the partner is this chart's own fiber
    coordinate, which the chart lacks and the printed cell sets to 1.
    Every other row gives one pair with partner None.
    """
    chart_id, stage_index = TABLE_STAGE[table_key]
    states = get_run(chart_id).states
    stage = CHARTS[chart_id]["stages"][stage_index - 1]
    row = EXCEPTIONAL[table_key]["rows"][row_index]
    if row["kind"] != "family":
        return [(_point_evaluation(states[(stage_index, row["chart"])]),
                 None)]
    c1, c2 = row["chart"]
    return [(_point_evaluation(states[(stage_index, c)],
                               symbolic=(_fiber_coordinate(stage, other),)),
             _fiber_coordinate(stage, c))
            for c, other in ((c1, c2), (c2, c1))]


class CellReport:
    def __init__(self, table, row, status):
        self.table = table
        self.row = row
        self.status = status

    def __repr__(self):
        return "CellReport(%r, %d, %r)" % (self.table, self.row, self.status)


def _status(key, row, computed, cell):
    """Status of one printed cell against its computed (form, partner)
    pairs; see ``check_tables``."""
    if cell is None:
        zero = all(form.is_zero() for form, _ in computed)
        return "nd_zero" if zero else "mismatch"

    def matches(text):
        printed = parse_form(text)
        return all(form.proportional(
            printed if partner is None else printed.substitute({partner: 1}))
            is not None for form, partner in computed)

    if matches(cell):
        return "ok"
    correction = DOCUMENTED_MISMATCHES.get((key, row))
    if correction is not None and matches(correction):
        return "documented_mismatch"
    return "mismatch"


def check_tables():
    """Compare every published cell against the pipelines.

    A base row's form is the generator form of its quadric/cubic pair;
    an exceptional row's comes from ``evaluate_fixed``.  One rule then
    decides every cell, in table order: nd_zero when the cell is
    printed as not defined and every form is zero; ok when every form
    is proportional to the printed cell, with the partner set to 1;
    documented_mismatch when that holds for the cell's correction (the
    known misprint) instead; mismatch otherwise (should never happen).
    """
    reports = []
    quadrics = [parse_poly(m) for m in B_MONOS]
    for row, cell in enumerate(BASE_CELLS):
        q, k, i = base_pair(row)
        form = build_omega(parse_poly(base_cubics(k)[i]), quadrics[q])
        reports.append(CellReport(
            "base", row, _status("base", row, [(form, None)], cell)))
    for key, table in EXCEPTIONAL.items():
        for ri, row in enumerate(table["rows"]):
            reports.append(CellReport(key, ri, _status(
                key, ri, evaluate_fixed(key, ri), row["cell"])))
    return reports


# ---------------------------------------------------------------------------
# Indeterminacy certificate
# ---------------------------------------------------------------------------

class CertificateReport:
    def __init__(self, variant, locus, certified, witnesses, remaining):
        self.variant = variant
        self.locus = dict(locus)
        self.certified = certified
        self.witnesses = witnesses  # [(variable, witness polynomial)]
        self.remaining = remaining

    def __repr__(self):
        return "CertificateReport(%r, certified=%r)" % (
            self.variant, self.certified)


def no_indeterminacy_certificate(variant, locus=None):
    """Worklist proof that the fiber directions carry no base locus.

    Builds the chart's generator form (after pinning the locus, if any)
    and repeatedly looks for a coordinate-monomial coefficient that,
    modulo the fiber coordinates already eliminated, is a nonzero
    rational multiple of a single remaining fiber coordinate.  Success
    means each fiber coordinate is forced to vanish at an indeterminacy
    point, i.e. there is none on this locus.
    """
    recipe = CERTIFICATE_VARIANTS[variant]
    locus = dict(locus or {})
    f = parse_poly(recipe["f"]).substitute(locus)
    g = parse_poly(recipe["g"]).substitute(locus)
    form = build_omega(f, g)
    fibers = [v for v in recipe["fiber"] if v not in locus]
    coeffs = []
    for comp in form.comps:
        grouped = comp.coefficients_in(COORDS)
        for key in sorted(grouped):
            coeffs.append(grouped[key])
    eliminated = []
    witnesses = []
    progress = True
    while progress and len(eliminated) < len(fibers):
        progress = False
        kill = {v: 0 for v in eliminated}
        for poly in coeffs:
            reduced = poly.substitute(kill)
            terms = list(reduced.monomials())
            if len(terms) != 1:
                continue
            mono, _ = terms[0]
            if len(mono) != 1 or mono[0][1] != 1:
                continue
            name = VARIABLE_NAMES[mono[0][0]]
            if name in fibers and name not in eliminated:
                eliminated.append(name)
                witnesses.append((name, poly))
                kill[name] = 0
                progress = True
    remaining = [v for v in fibers if v not in eliminated]
    return CertificateReport(variant, locus, not remaining,
                             witnesses, remaining)
