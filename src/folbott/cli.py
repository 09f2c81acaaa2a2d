"""Command line front end.

Every subcommand prints plain unstyled text (NO_COLOR needs no special
casing because no styling is ever emitted).  Six of them, fiber-degree,
component-degree, relations, tables, three-planes and
normal-twist-check, take --output json for a deterministic document:
keys sorted, no timestamps, rationals encoded as {"num": ..., "den":
...} string pairs so consumers never overflow.  Each of the six works
out its result once, as one document and one list of text lines, and
``_emit`` writes the one that --output names; json is imported only
then.  The two degree commands share their --power, --per-flag and
--symbolic-d options and their renderings.  resolve and singular-locus
print text only.

Exit codes: 0 on success, 1 when a verification check fails, 2 on
usage errors (including weight vectors with colliding partial sums).
"""

import sys

import click


def _parse_weights(ctx, param, value):
    from .torus import WeightError, validate_weights
    parts = value.split(",")
    if len(parts) != 4:
        raise click.UsageError(
            "--weights needs four comma-separated integers")
    try:
        nums = tuple(int(p) for p in parts)
    except ValueError:
        raise click.UsageError("--weights entries must be integers: %r"
                               % value)
    try:
        validate_weights(nums)
    except WeightError as err:
        raise click.UsageError(str(err))
    return nums


_weights_option = click.option(
    "--weights", default="0,1,5,25", callback=_parse_weights,
    show_default=True, help="Four torus weights, comma separated.")

_output_option = click.option(
    "--output", type=click.Choice(["text", "json"]), default="text",
    show_default=True, help="Output format.")


def _degree_options(power, per_flag_help):
    """--power, --per-flag and --symbolic-d, in that order, for a degree
    command whose default power is ``power``."""
    options = [
        click.option("--power", type=click.IntRange(min=0), default=power,
                     show_default=True,
                     help="Residue power in the numerator."),
        click.option("--per-flag", is_flag=True, help=per_flag_help),
        click.option("--symbolic-d", "symbolic_d", is_flag=True,
                     help="Emit the linear form before relation "
                          "substitution.")]

    def decorate(func):
        for option in reversed(options):
            func = option(func)
        return func
    return decorate


def fraction_to_json(q):
    """An int or Fraction as {'num': ..., 'den': ...} with string fields."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _emit(output, document, lines):
    """Write ``document`` as JSON when ``output`` asks for it, else the
    text ``lines``, one per line."""
    if output == "json":
        import json
        click.echo(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


def _terms(form):
    """A TwistLinear's nonzero d-coefficients as {"dK": fraction}."""
    return {"d%d" % slot: fraction_to_json(c)
            for slot, c in form.coeffs.items() if slot}


def _emit_linear(output, form):
    _emit(output, {"coefficients": _terms(form),
                   "constant": fraction_to_json(form.constant_part())},
          [str(form)])


def _emit_flags(output, rows, total=False):
    """Per-flag values, and with ``total`` their sum after them."""
    from .bottsum import _flag_label
    doc = {"flags": [{"flag": list(flag), "value": fraction_to_json(val)}
                     for flag, val in rows]}
    lines = ["flag %s: %s" % (_flag_label(flag), val) for flag, val in rows]
    if total:
        value = sum(val for _, val in rows)
        doc["total"] = fraction_to_json(value)
        lines.append("total: %s" % value)
    _emit(output, doc, lines)


def _emit_degree(output, key, value, power, weights):
    _emit(output, {key: fraction_to_json(value), "power": power,
                   "weights": list(weights)}, [str(value)])


def _solved(weights):
    from . import relations
    return relations.solve_relations(relations.build_system(weights))


def _degree_relations(weights, per_flag, symbolic_d):
    """The solved relations a degree command substitutes, or None under
    --symbolic-d, which substitutes none and so takes no --per-flag."""
    if symbolic_d and per_flag:
        raise click.UsageError("--symbolic-d takes no --per-flag")
    return None if symbolic_d else _solved(weights)


@click.group()
def main():
    """Exact equivariant residue sums for a family of plane fields."""


@main.command("fiber-degree")
@_weights_option
@_output_option
@_degree_options(7, "Emit the individual per-flag values.")
def fiber_degree_cmd(weights, output, power, per_flag, symbolic_d):
    """Residue value over a single flag (the same for all of them)."""
    solved = _degree_relations(weights, per_flag, symbolic_d)
    from . import bottsum
    if symbolic_d:
        _emit_linear(output, bottsum.display_sum((0, 1, 2, 3), weights,
                                                 power))
    elif per_flag:
        _emit_flags(output,
                    bottsum.per_flag_fiber_values(weights, solved, power))
    else:
        try:
            value = bottsum.fiber_degree(weights, power, solved)
        except ArithmeticError as err:
            click.echo("verification mismatch: %s" % err)
            sys.exit(1)
        _emit_degree(output, "fiber_degree", value, power, weights)


@main.command("component-degree")
@_weights_option
@_output_option
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted for compatibility; has no effect.")
@_degree_options(13, "Emit the 24 per-flag partial sums.")
def component_degree_cmd(weights, output, jobs, power, per_flag,
                         symbolic_d):
    """Global residue sum over all 24 flags."""
    solved = _degree_relations(weights, per_flag, symbolic_d)
    from . import bottsum
    if symbolic_d:
        _emit_linear(output, -bottsum.component_degree(weights, power))
    elif per_flag:
        _emit_flags(output, bottsum.per_flag_degrees(weights, solved, power),
                    total=True)
    else:
        _emit_degree(output, "component_degree",
                     bottsum.component_degree(weights, power, solved),
                     power, weights)


@main.command("relations")
@_weights_option
@_output_option
def relations_cmd(weights, output):
    """Solve the flag-difference system for the twist unknowns."""
    from . import relations
    from .bottsum import TwistLinear
    solved = _solved(weights)
    rows = [dict(_terms(TwistLinear.from_row(row)),
                 constant=fraction_to_json(row[-1]))
            for row in relations.integer_rows(solved)]
    _emit(output, {"rank": solved.rank, "relations": rows},
          relations.relation_strings(solved))


@main.command("tables")
@_output_option
def tables_cmd(output):
    """Dump the fixed-point catalog of one flag."""
    from .fixlocus import build_catalog
    from .torus import enumerate_fixed_flags, format_weight
    catalog = build_catalog((0, 1, 2, 3))
    census = catalog.census()
    points, lines = census["points"], census["lines"]
    flags = len(enumerate_fixed_flags())
    doc = {"census": {"points": points, "lines": lines,
                      "global_points": flags * points,
                      "global_lines": flags * lines},
           "points": [], "lines": []}
    text = ["points: %d  lines: %d  (%d flags: %d points, %d lines)"
            % (points, lines, flags, flags * points, flags * lines)]
    current = None
    for rec in catalog.points:
        if rec.table != current:
            current = rec.table
            text.append("[%s]" % current)
        doc["points"].append({"id": rec.id, "table": rec.table,
                              "row": rec.row, "nu": list(rec.nu.coeffs),
                              "tangent": [list(t.coeffs)
                                          for t in rec.tangent]})
        text.append("  r%02d  nu=%s  tangent=%s" % (
            rec.row, format_weight(rec.nu),
            ", ".join(map(format_weight, rec.tangent))))
    text.append("[lines]")
    for rec in catalog.lines:
        doc["lines"].append({"id": rec.id, "table": rec.table,
                             "row": rec.row,
                             "wfiber": list(rec.wfiber.coeffs),
                             "normals": [list(n.coeffs)
                                         for n in rec.normals],
                             "slots": list(rec.slots)})
        text.append("  %s  %s r%d  fiber=%s  slots=d%d..d%d  normals=%s" % (
            rec.id, rec.table, rec.row, format_weight(rec.wfiber),
            rec.slots[0], rec.slots[-1],
            ", ".join(map(format_weight, rec.normals))))
    _emit(output, doc, text)


@main.command("resolve")
@click.option("--chart", "chart_id", default=None,
              help="Restrict to one parameter chart pipeline.")
@click.option("--stage", type=int, default=None,
              help="Print the transformed forms of one stage of --chart.")
@click.option("--check-tables", "check_tables", is_flag=True,
              help="Cross-check every published cell against all the "
                   "pipelines; takes neither --chart nor --stage.")
def resolve_cmd(chart_id, stage, check_tables):
    """Run the blowup pipelines and their division ledger."""
    from . import resolve
    from .ratpoly import NotDivisible
    if check_tables and (chart_id is not None or stage is not None):
        raise click.UsageError(
            "--check-tables covers every chart; it takes neither --chart "
            "nor --stage")
    if stage is not None and chart_id is None:
        raise click.UsageError("--stage needs --chart")
    if check_tables:
        reports = resolve.check_tables()
        counts = {}
        for rep in reports:
            click.echo("%s r%d: %s" % (rep.table, rep.row, rep.status))
            counts[rep.status] = counts.get(rep.status, 0) + 1
        click.echo("summary: " + ", ".join(
            "%s=%d" % (k, counts[k]) for k in sorted(counts)))
        if set(counts) - {"ok", "nd_zero", "documented_mismatch"}:
            sys.exit(1)
        return
    if chart_id is not None and chart_id not in resolve.CHARTS:
        raise click.UsageError(
            "unknown chart %r; choose from %s"
            % (chart_id, ", ".join(resolve.CHART_IDS)))
    if stage is not None:
        last = len(resolve.CHARTS[chart_id]["stages"])
        if not 0 <= stage <= last:
            raise click.UsageError("chart %s has stages 0 to %d, not %d"
                                   % (chart_id, last, stage))
    try:
        if chart_id is None:
            entries = resolve.divisibility_ledger()
        else:
            run = resolve.get_run(chart_id)
            entries = run.ledger
            if stage is not None:
                entries = [e for e in entries if e.stage_index == stage]
                for (si, ci), state in sorted(run.states.items()):
                    if si == stage:
                        click.echo("stage %d chart %d: %s"
                                   % (si, ci, state.form))
    except NotDivisible as err:
        click.echo("division failed: %s" % (err.context,))
        sys.exit(1)
    for entry in entries:
        click.echo(entry.describe())


@main.command("three-planes")
@_output_option
def three_planes_cmd(output):
    """Toy residue sum whose total is the plain degree one."""
    from . import bottsum
    rows = bottsum.three_planes_demo()
    _emit(output, {label: fraction_to_json(val) for label, val in rows},
          ["%s: %s" % row for row in rows])


@main.command("singular-locus")
def singular_locus_cmd():
    """Verify the reference pair's form and its three singular curves."""
    from . import extforms
    checks, ratio = extforms.sample_foliation_report()
    for label, ok in checks:
        click.echo("%s: %s" % (label, "ok" if ok else "FAILED"))
    click.echo("scalar against printed expansion: %s" % ratio)
    if not all(ok for _, ok in checks):
        sys.exit(1)


@main.command("normal-twist-check")
@_output_option
@click.option("--N", "n", type=int, required=True,
              help="Ambient projective dimension.")
@click.option("--m", "m", type=int, required=True,
              help="Dimension of the linear blowup center.")
def normal_twist_cmd(output, n, m):
    """Pin the twist drops of a single linear-center blowup."""
    from . import relations
    try:
        report = relations.normal_twist_check(n, m)
    except ValueError as err:
        raise click.UsageError(str(err))
    if report.unique:
        tail = ["unique solution:"] + [
            "  %s = %s" % item for item in sorted(report.solution.items())]
    else:
        tail = ["solution is not unique"]
    _emit(output, {"N": n, "m": m, "equations": report.equations,
                   "unique": report.unique, "solution": report.solution},
          list(report.equations) + tail)
    if not report.unique:
        sys.exit(1)


if __name__ == "__main__":
    main()
