"""Generic residue arithmetic: the independent route to the flag sums.

``folbott.bottsum.contribution_sum`` evaluates every weight as an int
dot product and writes the line residues in closed form.  This module
gets the same residues through generic ring arithmetic instead: each
eigenweight is evaluated record by record with Fraction dot products,
and a line's residue is the h-coefficient of a first-order dual class
carrying ``FractionLinear`` forms, plain {slot: Fraction} affine-linear
forms.  That route shares nothing with the integer engine but the
catalog records, not even its TwistLinear value type, so the tests
compare the two.  ``substitute_rows`` substitutes reduced echelon rows
into a FractionLinear the Fraction way.  ``rref_mod`` is
Gauss-Jordan over F_p on lists of residues, one entry at a time, the
reference for the packed rows of ``relations._rref_mod``.

``component_degree`` is the global sum the sum-then-substitute way,
from the engine's per-flag sums, the reference for the engine's
reduce-before-sum route, and
``substituted_flag_sums`` gives the per-flag values through
``substitute_rows``.

``zero_weight_message`` scans one flag's catalog record by record for
a zero tangent or normal weight, the reference for the engine's check
on its arrangement forms.

``difference_rows`` and ``solve_differences`` solve the twist relations
the way of the 23 flag-difference equations, each flag's raw power-7
row cross-multiplied against the first flag's and the 23 rows reduced
by ``relations.rref``; ``per_flag_values`` then reduces and collapses
each flag's row on its own.  They are the reference for the
homogenized solve of ``relations.solve_relations``, which reads the
common value off its first row.

``looped_residues`` walks a ``bottsum._Arrangement``'s groups factor by
factor, the reference for the straight-line kernel compiled from the
same groups; ``loop_multiplications`` counts its products.

``twist_equation_row`` builds a single-blowup probe row from Fraction
products and rescales it by the lcm of its denominators before
``bottsum._primitive``, the reference for the integer rows of
``relations._twist_equation_row``.
"""

from fractions import Fraction
from math import gcd, lcm

from folbott.bottsum import (FlagResidues, TwistLinear, _primitive,
                             flag_residues)
from folbott.torus import (DivByZeroWeight, enumerate_fixed_flags,
                           flag_tangent_product)
from folbott.relations import SolvedRelations, rref

NUM_SLOTS = 30


class FractionLinear:
    """Affine-linear form in d1..d30 as {slot: Fraction}, slot 0 the
    constant, zero entries left out."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items()
                       if v}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionLinear({0: other})
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return FractionLinear(out)

    __radd__ = __add__

    def __neg__(self):
        return FractionLinear({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionLinear({0: other})
        return self + (-other)

    def __mul__(self, other):
        return FractionLinear({k: v * other for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / Fraction(other))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionLinear({0: other})
        return self.coeffs == other.coeffs

    def __str__(self):
        """Unknowns by slot, then the constant: "2*d1 - d4 + 1/2"."""
        out = ""
        for slot in sorted(self.coeffs, key=lambda s: s or NUM_SLOTS + 1):
            c = self.coeffs[slot]
            if not slot:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = "d%d" % slot
            else:
                piece = "%s*d%d" % (abs(c), slot)
            if out:
                out += (" - " if c < 0 else " + ") + piece
            else:
                out = "-" + piece if c < 0 else piece
        return out or "0"


def substitute_rows(rows, form):
    """Substitute reduced echelon rows (31 Fractions each, the constant
    last) into a FractionLinear, one pivot unknown at a time."""
    out = dict(form.coeffs)
    for row in rows:
        col = next(j for j in range(NUM_SLOTS) if row[j])
        c = out.pop(col + 1, 0)
        for j, v in enumerate(row):
            if j != col and v:
                slot = j + 1 if j < NUM_SLOTS else 0
                out[slot] = out.get(slot, 0) - c * v
    return FractionLinear(out)


def rref_mod(mat, p):
    """Gauss-Jordan over F_p on every column, the constant included,
    one list of residues per row: the pivot columns and the reduced
    nonzero rows.  Rows not yet pivoted are zero left of the pivot
    column, so a step rewrites the columns from there on only."""
    rows = [r for r in ([c % p for c in row] for row in mat) if any(r)]
    pivots = []
    for col in range(len(mat[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        prow = rows[pivot]
        inv = pow(prow[col], -1, p)
        prow[col:] = tail = [c * inv % p for c in prow[col:]]
        rows[pivot] = rows[r]
        rows[r] = prow
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]
        pivots.append(col)
    return tuple(pivots), rows[:len(pivots)]


def component_degree(w, power=13, relations=None):
    """The global residue sum, summed first and substituted once.

    Each flag's sum, in lowest terms, goes over its six flag-tangent
    weights; all 24 rows are scaled to one common denominator and
    added, and the total is substituted with ``relations.substitute``,
    or returned as a TwistLinear when ``relations`` is None.
    """
    summands = []
    for flag in enumerate_fixed_flags():
        s = flag_residues(flag, w).at(power)
        summands.append((s.nums, s.den * flag_tangent_product(flag, w)))
    den = lcm(*(d for _, d in summands))
    rows = [[n * (den // d) for n in nums] for nums, d in summands]
    total = TwistLinear.from_row([sum(col) for col in zip(*rows)], den)
    if relations is None:
        return total
    return relations.substitute(total)


def substituted_flag_sums(w, rows, power, tangents=False):
    """Each flag's sum at ``power`` (over its six flag-tangent weights
    when ``tangents``) with the echelon ``rows`` substituted by
    ``substitute_rows``: (flag, FractionLinear) per flag."""
    out = []
    for flag in enumerate_fixed_flags():
        form = FractionLinear(flag_residues(flag, w).at(power).coeffs)
        if tangents:
            form = form / flag_tangent_product(flag, w)
        out.append((flag, substitute_rows(rows, form)))
    return out


def difference_rows(system):
    """The 23 flag-difference equations of a ``relations.RelationSystem``
    as (integer row, denominator) pairs: each flag's raw row minus the
    first flag's, cross-multiplied over the lcm of their denominators,
    not reduced."""
    base, base_den = system.sum_rows[0]
    out = []
    for row, den in system.sum_rows[1:]:
        g = gcd(den, base_den)
        a, b = base_den // g, den // g
        out.append(([x * a - y * b for x, y in zip(row, base)], den * a))
    return out


def solve_differences(system):
    """The Echelon of ``relations.rref`` on the difference rows."""
    return rref([row for row, _ in difference_rows(system)])


def per_flag_values(system, echelon):
    """Each flag's raw row of ``system`` reduced by ``echelon`` on its
    own and collapsed to its constant: (flag, Fraction) per flag, or
    ResidualUnknowns from the first flag that keeps a free unknown."""
    solved = SolvedRelations(echelon, system)
    return [(flag, solved.collapse(*solved.reduce_row(row, den)))
            for flag, (row, den) in zip(enumerate_fixed_flags(),
                                        system.sum_rows)]


def twist_equation_row(n, m, v):
    """The probe row at level v, cofactors then constant, built from
    Fraction products: each cofactor total / x, each term's product
    factor by factor, then scaled by the lcm of the denominators and
    made primitive."""
    w = [1, 1] + [v + j for j in range(n - 1)]
    normals = [w[0] - w[i] for i in range(2, n + 1)]
    total = Fraction(1)
    for x in normals:
        total *= x
    cof = [total / x for x in normals]
    rhs = Fraction(0)
    for c in range(m + 2, n + 1):
        delta = w[0] - w[c]
        factors = [delta]
        for i in range(2, m + 2):
            factors.append(w[0] - w[i])
        others = [w[0] - w[1]]
        for i in range(m + 2, n + 1):
            if i != c:
                others.append(w[0] - w[i])
        for x in others:
            factors.append(x - delta)
        te = Fraction(1)
        for x in factors:
            te *= x
        rhs += 1 / te
    row = cof + [-total * total * rhs]
    denom = lcm(*(c.denominator for c in row))
    return _primitive([c.numerator * (denom // c.denominator)
                       for c in row])[0]


def looped_residues(plan, flag, w):
    """``bottsum.flag_residues`` on the arrangement ``plan``, one loop
    step per factor: the power-free part of a flag's sum as a
    FlagResidues, or DivByZeroWeight where a form vanishes."""
    a, b, c, d = [w[i] for i in flag]
    vals = [t0 * a + t1 * b + t2 * c + t3 * d
            for t0, t1, t2, t3 in plan.forms]
    if not all(vals):
        kind, rid = plan.first[vals.index(0)]
        raise DivByZeroWeight("zero %s weight in %s on flag %s"
                              % (kind, rid, ",".join(map(str, flag))))
    pw = []  # pw[i][k - 1] is vals[i] ** k
    den = plan.scale
    for v, top in zip(vals, plan.powers):
        x = v
        powers = [x]
        for _ in range(1, top):
            x *= v
            powers.append(x)
        pw.append(powers)
        den *= x
    points = []
    for (t0, t1, t2, t3), common, members in plan.points:
        total = 0
        for share, factors in members:
            for i, k in factors:
                share *= pw[i][k - 1]
            total += share
        for i, k in common:
            total *= pw[i][k - 1]
        points.append((t0 * a + t1 * b + t2 * c + t3 * d, total))
    lines = []
    for (t0, t1, t2, t3), common, members in plan.lines:
        g = 1
        for i, k in common:
            g *= pw[i][k - 1]
        entries = []
        for j, share, factors in members:
            for i, k in factors:
                share *= pw[i][k - 1]
            entries.append((j, share * g))
        lines.append((t0 * a + t1 * b + t2 * c + t3 * d, tuple(entries)))
    return FlagResidues(den, tuple(points), tuple(lines))


def loop_multiplications(plan):
    """The products of form values ``looped_residues`` takes on one
    flag: the powers, ``den``, each factor of a share or a common, and
    each line slot's share times its line's common."""
    count = sum(plan.powers)  # v^2 .. v^M per form, then den *= v^M
    for _, common, members in plan.points:
        count += len(common) + sum(len(f) for _, f in members)
    for _, common, members in plan.lines:
        count += len(common) + sum(len(f) + 1 for _, _, f in members)
    return count


def zero_weight_message(catalog, w):
    """The DivByZeroWeight text for the first record of a flag's
    ``fixlocus`` catalog (points, then lines) with a zero tangent or
    normal weight at ``w``, or None when every denominator is
    nonzero."""
    local = [w[i] for i in catalog.flag]
    for kind, records in (("tangent", [(rec.id, rec.tangent)
                                       for rec in catalog.points]),
                          ("normal", [(rec.id, rec.normals)
                                      for rec in catalog.lines])):
        for rid, weights in records:
            if any(sum(c * x for c, x in zip(ew.coeffs, local)) == 0
                   for ew in weights):
                return "zero %s weight in %s on flag %s" % (
                    kind, rid, ",".join(map(str, catalog.flag)))
    return None


def evaluate(ew, w):
    """Dot product of an eigenweight with a weight vector (local frame)."""
    return sum((Fraction(c) * wi for c, wi in zip(ew.coeffs, w)),
               Fraction(0))


def evaluate_at_flag(ew, flag, w):
    """Evaluate a local eigenweight after placing it on a flag."""
    return evaluate(ew, [w[i] for i in flag])


def nu_value(point, w):
    return evaluate_at_flag(point.nu, point.flag, w)


def tangent_values(point, w):
    return [evaluate_at_flag(t, point.flag, w) for t in point.tangent]


def wfiber_value(line, w):
    return evaluate_at_flag(line.wfiber, line.flag, w)


def normal_values(line, w):
    return [evaluate_at_flag(n, line.flag, w) for n in line.normals]


class DualClass:
    """Truncated class a + b*h with h*h = 0.

    ``a`` is a Fraction; ``b`` may be a Fraction or a FractionLinear,
    which lets the h-part carry linear expressions in unknown twist
    degrees.  Inversion needs a nonzero pure part and raises
    DivByZeroWeight otherwise.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b

    def __mul__(self, other):
        if isinstance(other, DualClass):
            return DualClass(self.a * other.a,
                             self.b * other.a + other.b * self.a)
        return DualClass(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __neg__(self):
        return DualClass(-self.a, -self.b)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = DualClass(Fraction(1), 0)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        if self.a == 0:
            raise DivByZeroWeight("pure part vanished, cannot invert")
        inv = Fraction(1) / self.a
        return DualClass(inv, self.b * (-inv * inv))

    def h_coefficient(self):
        return self.b

    def __eq__(self, other):
        if isinstance(other, DualClass):
            return self.a == other.a and self.b == other.b
        return self.a == other and self.b == 0

    def __repr__(self):
        return "DualClass(%s, %s)" % (self.a, self.b)


def point_term(nu, tangents, power):
    """Isolated fixed point residue: -nu^power / prod(tangents)."""
    denom = Fraction(1)
    for t in tangents:
        if t == 0:
            raise DivByZeroWeight("zero tangent weight in a point term")
        denom *= t
    return -(Fraction(nu) ** power) / denom


def line_term(nu_class, normal_pairs, power):
    """Fixed line residue via the first-order dual class.

    ``nu_class`` is the fiber weight as a DualClass (its h-part is zero
    for the catalog lines).  ``normal_pairs`` is a list of (weight,
    twist) with the twist a Fraction or FractionLinear.  Returns the
    h-coefficient of -nu_class^power * prod(weight + twist*h)^(-1).
    """
    symbolic = any(isinstance(t, FractionLinear) for _, t in normal_pairs)
    zero = FractionLinear() if symbolic else Fraction(0)
    prod = DualClass(Fraction(1), zero)
    for weight, twist in normal_pairs:
        if weight == 0:
            raise DivByZeroWeight("zero normal weight in a line term")
        if symbolic and isinstance(twist, (int, Fraction)):
            twist = FractionLinear({0: twist})
        prod = prod * DualClass(Fraction(weight), twist)
    total = (-(nu_class ** power)) * prod.inverse()
    return total.h_coefficient()


def point_contribution(point, w, power):
    """Residue of one cataloged point at a weight vector."""
    return point_term(nu_value(point, w), tangent_values(point, w), power)


def line_contribution(line, w, power):
    """Residue of one cataloged line, linear in its six twist slots."""
    nu = DualClass(wfiber_value(line, w), FractionLinear())
    pairs = [(n, FractionLinear({slot: 1}))
             for n, slot in zip(normal_values(line, w), line.slots)]
    return line_term(nu, pairs, power)
