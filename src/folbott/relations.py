"""Linear relations among the thirty twist unknowns.

The fiber integral at power 7 must be flag independent, so equating
the symbolic per-flag sums produces 23 linear equations in d1..d30.
Exact, fraction-free Gaussian elimination reduces them to a rank-18
echelon system; substituting it back into any per-flag sum collapses
the unknowns and leaves the numeric fiber degree.

Also here: the self-contained cross-check that pins the twist values
for a single blowup of projective space along a linear center, solved
from scratch for given (N, m) by the same equate-the-sums trick.
"""

from fractions import Fraction
from math import gcd, lcm

from .bottsum import NUM_SLOTS, TwistLinear, display_sum
from .torus import enumerate_fixed_flags, validate_weights


class InconsistentSystem(ArithmeticError):
    """A row reduced to nonzero constant = 0."""


class ResidualUnknowns(ArithmeticError):
    """Substitution left free unknowns that the relations cannot fix."""


def _vector(tl):
    """TwistLinear -> 31-wide row (d1..d30 coefficients, then constant)."""
    row = [Fraction(0)] * (NUM_SLOTS + 1)
    for slot, c in tl.coeffs.items():
        row[NUM_SLOTS if slot == 0 else slot - 1] = c
    return row


def _to_linear(row):
    coeffs = {}
    for j, c in enumerate(row[:NUM_SLOTS]):
        if c:
            coeffs[j + 1] = c
    if row[NUM_SLOTS]:
        coeffs[0] = row[NUM_SLOTS]
    return TwistLinear(coeffs)


def _primitive(ints):
    """Integer row divided by the gcd of its entries."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _eliminate(row, prow, col):
    """row with its entry in column ``col`` cleared by pivot row
    ``prow``, as a primitive integer row."""
    p, f = prow[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    return _primitive([a * x - b * y for x, y in zip(row, prow)])


def rref(rows):
    """Reduced row echelon form over the rationals, fraction-free.

    Pivots are searched in every column but the last, which holds the
    constant (for the 31-wide relation rows: the 30 unknown columns); a
    surviving row of the shape (0, ..., 0, c) with c nonzero raises
    InconsistentSystem.  Returns a tuple of tuples of Fractions, zero
    rows dropped.

    Every row is first scaled to a primitive integer row.  Clearing the
    entry f of a row against pivot entry p replaces the row by
    (p/g)*row - (f/g)*pivot_row, g = gcd(p, f), divided by its content,
    so all arithmetic stays in integers (fraction-free elimination after
    Bareiss, Math. Comp. 1968).  Forward elimination comes first; the
    back substitution then runs from the last pivot row up, so every
    pivot row it uses is already fully reduced and small.  Fractions
    appear only at the end, when each pivot row is divided by its
    leading entry; the reduced form is unique, so this is the
    Gauss-Jordan result over the rationals.
    """
    mat = [_integer_row(r) for r in rows]
    width = len(mat[0]) - 1 if mat else 0
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][col]:
                mat[i] = _eliminate(mat[i], mat[r], col)
        pivots.append(col)
        r += 1
    for row in mat[r:]:
        if any(row[:width]):
            raise AssertionError("row reduction missed a pivot")
        if row[width]:
            raise InconsistentSystem("equations force %s = 0" % row[width])
    for k in range(r - 1, 0, -1):
        for i in range(k):
            if mat[i][pivots[k]]:
                mat[i] = _eliminate(mat[i], mat[k], pivots[k])
    return tuple(tuple(Fraction(c, mat[i][col]) for c in mat[i])
                 for i, col in enumerate(pivots))


class RelationSystem:
    """The 23 flag-difference equations at a given weight vector."""

    __slots__ = ("w", "flags", "flag_sums", "equations")

    def __init__(self, w, flags, flag_sums, equations):
        self.w = w
        self.flags = flags
        self.flag_sums = flag_sums
        self.equations = equations


class SolvedRelations:
    """Echelon form of the relation system, ready for substitution."""

    __slots__ = ("rows", "rank", "pivots", "assignments")

    def __init__(self, rows):
        self.rows = rows
        self.rank = len(rows)
        self.pivots = {}
        self.assignments = {}
        for row in rows:
            col = next(j for j in range(NUM_SLOTS) if row[j] != 0)
            slot = col + 1
            expr = {}
            for j in range(col + 1, NUM_SLOTS):
                if row[j]:
                    expr[j + 1] = -row[j]
            if row[NUM_SLOTS]:
                expr[0] = -row[NUM_SLOTS]
            self.pivots[slot] = col
            self.assignments[slot] = TwistLinear(expr)

    def relations(self):
        """The echelon rows as affine-linear forms equal to zero."""
        return [_to_linear(row) for row in self.rows]

    def reduce(self, tl):
        """Substitute the pivot assignments, keeping free unknowns."""
        acc = TwistLinear.constant(tl.constant_part())
        for slot in sorted(tl.coeffs):
            if slot == 0:
                continue
            c = tl.coeffs[slot]
            if slot in self.assignments:
                acc = acc + self.assignments[slot] * c
            else:
                acc = acc + TwistLinear.unknown(slot, c)
        return acc

    def substitute(self, tl):
        """Collapse a linear form to its constant; the free-unknown
        coefficients must all cancel or ResidualUnknowns is raised."""
        acc = self.reduce(tl)
        leftover = [s for s in acc.coeffs if s != 0]
        if leftover:
            raise ResidualUnknowns(
                "unresolved twist unknowns: %s"
                % ", ".join("d%d" % s for s in sorted(leftover)))
        return acc.constant_part()


def build_system(w):
    """Symbolic power-7 sums for all 24 flags and their differences."""
    w = tuple(validate_weights(w))
    flags = enumerate_fixed_flags()
    flag_sums = [display_sum(flag, w, 7) for flag in flags]
    base = flag_sums[0]
    equations = [s - base for s in flag_sums[1:]]
    return RelationSystem(w, flags, flag_sums, equations)


def solve_relations(system):
    """Exact elimination of the flag-difference equations."""
    if isinstance(system, RelationSystem):
        equations = system.equations
    else:
        equations = list(system)
    rows = [_vector(eq) for eq in equations]
    return SolvedRelations(rref(rows))


def substitute_relations(expr, rels):
    return rels.substitute(expr)


def _integer_row(row):
    """Rational row rescaled to integers with gcd one and a positive
    leading entry (already positive for an echelon row)."""
    denom = lcm(*(c.denominator for c in row))
    ints = _primitive([c.numerator * (denom // c.denominator) for c in row])
    if next((c for c in ints if c), 1) < 0:
        ints = [-c for c in ints]
    return ints


def integer_rows(solved):
    """Echelon rows rescaled to integer entries with gcd one."""
    return [tuple(_integer_row(row)) for row in solved.rows]


def relation_strings(solved):
    """The solved relations in printable form, constants last."""
    return ["%s = 0" % _to_linear([Fraction(c) for c in row])
            for row in integer_rows(solved)]


def row_space_equal(eqs_a, eqs_b):
    """Whether two sets of affine-linear equations span the same space."""
    ra = rref([_vector(e) for e in eqs_a])
    rb = rref([_vector(e) for e in eqs_b])
    return ra == rb


class NormalTwistReport:
    """Result of the single-blowup twist determination."""

    __slots__ = ("n", "m", "equations", "deltas", "unique", "solution")

    def __init__(self, n, m, equations, deltas, unique):
        self.n = n
        self.m = m
        self.equations = equations
        self.deltas = deltas
        self.unique = unique
        self.solution = {}
        if unique:
            for i, delta in enumerate(deltas, start=1):
                name = "a%d" % i
                if delta == 0:
                    text = name
                elif delta > 0:
                    text = "%s - %s" % (name, delta)
                else:
                    text = "%s + %s" % (name, -delta)
                self.solution["b%d" % i] = text


def _twist_equation_row(n, m, v):
    """One equate-the-sums equation for the probe weights at level v.

    Weights are (1, 1, v, v+1, ..., v+n-2); the repeated weight keeps
    a fixed line while the rest isolates the blown-up locus, and each
    v probes a different linear combination of the twist differences.
    """
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
    rhs = -total * total * rhs
    return cof, rhs


def _format_twist_equation(cof, rhs):
    def side(letter):
        parts = []
        for i, c in enumerate(cof, start=1):
            name = "%s%d" % (letter, i)
            parts.append(name if c == 1 else "%d*%s" % (c, name))
        return " + ".join(parts)

    right = side("b")
    if rhs > 0:
        right += " + %d" % rhs
    elif rhs < 0:
        right += " - %d" % (-rhs)
    return "%s = %s" % (side("a"), right)


def normal_twist_check(n, m):
    """Solve for the twist drops of a single blowup along a linear
    center of dimension m inside projective n-space.

    Returns the probe equations (one per v in 2..n), the unique
    solution when the square system is nonsingular, and the printed
    forms matching the published example layout.
    """
    if n < 3 or not 1 <= m <= n - 2:
        raise ValueError("need n >= 3 and 1 <= m <= n-2")
    rows = []
    printed = []
    for v in range(2, n + 1):
        cof, rhs = _twist_equation_row(n, m, v)
        row = _integer_row(cof + [rhs])
        printed.append(_format_twist_equation(row[:-1], row[-1]))
        rows.append(row)
    solved = rref(rows)
    unique = len(solved) == n - 1
    deltas = tuple(row[-1] for row in solved) if unique else ()
    return NormalTwistReport(n, m, printed, deltas, unique)
