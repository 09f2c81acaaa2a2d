"""Command line front end.

Every subcommand prints plain unstyled text (NO_COLOR needs no special
casing because no styling is ever emitted) or, with --output json, a
deterministic document: keys sorted, no timestamps, rationals encoded
as {"num": ..., "den": ...} string pairs so consumers never overflow.

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


def _weights_option(func):
    return click.option(
        "--weights", default="0,1,5,25", callback=_parse_weights,
        show_default=True,
        help="Four torus weights, comma separated.")(func)


def _output_option(func):
    return click.option(
        "--output", type=click.Choice(["text", "json"]), default="text",
        show_default=True, help="Output format.")(func)


def fraction_to_json(q):
    """An int or Fraction as {'num': ..., 'den': ...} with string fields."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _emit(document, output):
    if output == "json":
        import json
        click.echo(json.dumps(document, indent=2, sort_keys=True))
        return True
    return False


def _linear_document(tl):
    coeffs = {}
    for slot in sorted(tl.coeffs):
        if slot == 0:
            continue
        coeffs["d%d" % slot] = fraction_to_json(tl.coeffs[slot])
    return {"coefficients": coeffs,
            "constant": fraction_to_json(tl.constant_part())}


def _solved(weights):
    from . import relations
    return relations.solve_relations(relations.build_system(weights))


@click.group()
def main():
    """Exact equivariant residue sums for a family of plane fields."""


@main.command("fiber-degree")
@_weights_option
@_output_option
@click.option("--power", type=click.IntRange(min=0), default=7,
              show_default=True, help="Residue power in the numerator.")
@click.option("--per-flag", is_flag=True,
              help="Emit the individual per-flag values.")
@click.option("--symbolic-d", "symbolic_d", is_flag=True,
              help="Emit the linear form before relation substitution.")
def fiber_degree_cmd(weights, output, power, per_flag, symbolic_d):
    """Residue value over a single flag (the same for all of them)."""
    if symbolic_d and per_flag:
        raise click.UsageError("--symbolic-d takes no --per-flag")
    from . import bottsum
    if symbolic_d:
        form = bottsum.display_sum((0, 1, 2, 3), weights, power)
        if not _emit(_linear_document(form), output):
            click.echo(str(form))
        return
    solved = _solved(weights)
    if per_flag:
        rows = bottsum.per_flag_fiber_values(weights, solved, power)
        doc = {"flags": [{"flag": list(flag),
                          "value": fraction_to_json(val)}
                         for flag, val in rows]}
        if not _emit(doc, output):
            for flag, val in rows:
                click.echo("flag %s: %s" % (",".join(map(str, flag)), val))
        return
    try:
        value = bottsum.fiber_degree(weights, power, solved)
    except ArithmeticError as err:
        click.echo("verification mismatch: %s" % err)
        sys.exit(1)
    if not _emit({"fiber_degree": fraction_to_json(value),
                  "power": power,
                  "weights": list(weights)}, output):
        click.echo(str(value))


@main.command("component-degree")
@_weights_option
@_output_option
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Accepted for compatibility; has no effect.")
@click.option("--power", type=click.IntRange(min=0), default=13,
              show_default=True, help="Residue power in the numerator.")
@click.option("--per-flag", is_flag=True,
              help="Emit the 24 per-flag partial sums.")
@click.option("--symbolic-d", "symbolic_d", is_flag=True,
              help="Emit the linear form before relation substitution.")
def component_degree_cmd(weights, output, jobs, power, per_flag,
                         symbolic_d):
    """Global residue sum over all 24 flags."""
    if symbolic_d and per_flag:
        raise click.UsageError("--symbolic-d takes no --per-flag")
    from . import bottsum
    if symbolic_d:
        form = -bottsum.component_degree(weights, power)
        if not _emit(_linear_document(form), output):
            click.echo(str(form))
        return
    solved = _solved(weights)
    if per_flag:
        rows = bottsum.per_flag_degrees(weights, solved, power)
        total = sum(val for _, val in rows)
        doc = {"flags": [{"flag": list(flag),
                          "value": fraction_to_json(val)}
                         for flag, val in rows],
               "total": fraction_to_json(total)}
        if not _emit(doc, output):
            for flag, val in rows:
                click.echo("flag %s: %s" % (",".join(map(str, flag)), val))
            click.echo("total: %s" % total)
        return
    value = bottsum.component_degree(weights, power, solved)
    if not _emit({"component_degree": fraction_to_json(value),
                  "power": power,
                  "weights": list(weights)}, output):
        click.echo(str(value))


@main.command("relations")
@_weights_option
@_output_option
def relations_cmd(weights, output):
    """Solve the flag-difference system for the twist unknowns."""
    from . import relations
    solved = _solved(weights)
    if output == "json":
        rows = []
        for row in relations.integer_rows(solved):
            entry = {}
            for j, c in enumerate(row[:-1]):
                if c:
                    entry["d%d" % (j + 1)] = fraction_to_json(c)
            entry["constant"] = fraction_to_json(row[-1])
            rows.append(entry)
        _emit({"rank": solved.rank, "relations": rows}, output)
        return
    for line in relations.relation_strings(solved):
        click.echo(line)


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
    if output == "json":
        doc = {
            "census": {"points": points, "lines": lines,
                       "global_points": flags * points,
                       "global_lines": flags * lines},
            "points": [{"id": rec.id, "table": rec.table, "row": rec.row,
                        "nu": list(rec.nu.coeffs),
                        "tangent": [list(t.coeffs) for t in rec.tangent]}
                       for rec in catalog.points],
            "lines": [{"id": rec.id, "table": rec.table, "row": rec.row,
                       "wfiber": list(rec.wfiber.coeffs),
                       "normals": [list(n.coeffs) for n in rec.normals],
                       "slots": list(rec.slots)}
                      for rec in catalog.lines],
        }
        _emit(doc, output)
        return
    click.echo("points: %d  lines: %d  (%d flags: %d points, %d lines)"
               % (points, lines, flags, flags * points, flags * lines))
    current = None
    for rec in catalog.points:
        if rec.table != current:
            current = rec.table
            click.echo("[%s]" % current)
        click.echo("  r%02d  nu=%s  tangent=%s" % (
            rec.row, format_weight(rec.nu),
            ", ".join(format_weight(t) for t in rec.tangent)))
    click.echo("[lines]")
    for rec in catalog.lines:
        click.echo("  %s  %s r%d  fiber=%s  slots=%s  normals=%s" % (
            rec.id, rec.table, rec.row, format_weight(rec.wfiber),
            "d%d..d%d" % (rec.slots[0], rec.slots[-1]),
            ", ".join(format_weight(n) for n in rec.normals)))


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
    doc = {label: fraction_to_json(val) for label, val in rows}
    if not _emit(doc, output):
        for label, val in rows:
            click.echo("%s: %s" % (label, val))


@main.command("singular-locus")
def singular_locus_cmd():
    """Verify the reference pair's form and its three singular curves."""
    from . import extforms
    checks, ratio = extforms.sample_foliation_report()
    failed = 0
    for label, ok in checks:
        click.echo("%s: %s" % (label, "ok" if ok else "FAILED"))
        if not ok:
            failed += 1
    click.echo("scalar against printed expansion: %s" % ratio)
    if failed:
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
    doc = {"N": n, "m": m,
           "equations": report.equations,
           "unique": report.unique,
           "solution": report.solution}
    if not _emit(doc, output):
        for eq in report.equations:
            click.echo(eq)
        if report.unique:
            click.echo("unique solution:")
            for name in sorted(report.solution):
                click.echo("  %s = %s" % (name, report.solution[name]))
        else:
            click.echo("solution is not unique")
    if not report.unique:
        sys.exit(1)


if __name__ == "__main__":
    main()
