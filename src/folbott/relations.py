"""Linear relations among the thirty twist unknowns.

The fiber integral at power 7 must be flag independent, so equating
the symbolic per-flag sums produces 23 linear equations in d1..d30.
One exact elimination reduces them to a rank-18 echelon system:
the rows are reduced modulo a 61-bit prime, lifted back to fractions by
rational reconstruction and certified with integer arithmetic, and a
failed lift or check brings in the next prime.  The equations go in
as TwistLinear's integer rows.  Substituting the system into any
per-flag sum collapses the unknowns and leaves the numeric fiber
degree: with the echelon rows scaled once to an integer matrix over
the lcm of their denominators, that is one integer dot product per
free column.

Also here: the self-contained cross-check that pins the twist values
for a single blowup of projective space along a linear center, solved
from scratch for given (N, m) by the same equate-the-sums trick.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import bottsum
from .bottsum import NUM_SLOTS, WIDTH, TwistLinear
from .torus import enumerate_fixed_flags, validate_weights


class InconsistentSystem(ArithmeticError):
    """A row reduced to nonzero constant = 0."""


class ResidualUnknowns(ArithmeticError):
    """Substitution left free unknowns that the relations cannot fix."""


_ZERO, _ONE = Fraction(0), Fraction(1)


def _is_prime(n):
    """Miller-Rabin on the first twelve prime bases, which decides
    primality exactly for every odd n from 39 to 3.3e24 (Sorenson and
    Webster, Math. Comp. 2017); the candidates here are close to 2^61."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """2^61 - 1, then the primes below it in descending order."""
    p = (1 << 61) - 1
    while True:
        yield p
        p -= 2
        while not _is_prime(p):
            p -= 2


def _rref_mod(mat, p):
    """Gauss-Jordan over F_p on every column, the constant included:
    the pivot columns and the reduced nonzero rows.  Rows not yet
    pivoted are zero left of the pivot column, so a step rewrites the
    columns from there on only."""
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
        if r + 1 == len(rows):
            break
    return tuple(pivots), rows[:len(pivots)]


def _crt(residues, modulus, more, p):
    """Combine residues mod ``modulus`` with residues mod the prime p."""
    inv = pow(modulus, -1, p)
    return [[a + modulus * ((b - a) * inv % p) for a, b in zip(ra, rb)]
            for ra, rb in zip(residues, more)]


def _reconstruct(u, m, bound):
    """The fraction n/d = u mod m with |n|, d <= bound, or None (Wang,
    SYMSAC 1981): the extended Euclidean algorithm on (m, u), stopped
    at the first remainder within the bound."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(residues, m):
    """Every residue mod m as the fraction with numerator and
    denominator at most sqrt(m/2) that it reduces from, or None when
    one has none.  Zeros and ones, the pivots among them, lift as
    themselves."""
    bound = isqrt((m - 1) // 2)
    lifted = []
    for row in residues:
        out = []
        for u in row:
            q = (_ONE if u == 1 else _ZERO if u == 0 else
                 _reconstruct(u, m, bound))
            if q is None:
                return None
            out.append(q)
        lifted.append(tuple(out))
    return lifted


def _certified(mat, rref_rows, pivots):
    """Whether every integer row lies in the span of the candidate rows.

    With D the lcm of the candidate's denominators and C_k = D*R_k,
    each row must satisfy D*row = sum_k row[pivot_k]*C_k.  The pivot
    columns hold the identity, so only the other columns are compared.
    """
    denom = lcm(*(c.denominator for row in rref_rows for c in row))
    scaled = [[c.numerator * (denom // c.denominator) for c in row]
              for row in rref_rows]
    pivot_set = set(pivots)
    columns = [(j, [(pivots[k], row[j]) for k, row in enumerate(scaled)
                    if row[j]])
               for j in range(len(mat[0])) if j not in pivot_set]
    return all(denom * row[j] == sum(row[pc] * c for pc, c in terms)
               for row in mat for j, terms in columns)


def rref(rows):
    """Reduced row echelon form over the rationals, certified
    multimodular.

    Pivots are searched in every column but the last, which holds the
    constant (for the 31-wide relation rows: the 30 unknown columns);
    a system whose rows combine to (0, ..., 0, c) with c nonzero raises
    InconsistentSystem.  Returns a tuple of tuples of Fractions, zero
    rows dropped.

    Every row is scaled to a primitive integer row, reduced modulo
    p = 2^61 - 1 and brought to reduced form over F_p, so no entry
    grows past p.  Each entry is lifted back to the rationals by
    rational reconstruction, and the candidate is certified with
    integers only (see ``_certified``): every input row lies in its
    span, and its rank, the rank mod p, is at most the rank over the
    rationals, so the two spans are equal and the candidate is the
    unique reduced form.  When a lift or the check fails, the next
    prime of ``_primes`` joins by CRT.  An unlucky prime, one dividing
    a minor, shows fewer pivots or later pivot columns than the
    rationals: a prime whose pivots are worse than the best seen so far
    is skipped, and one whose pivots are better replaces the residues.
    Only finitely many primes are unlucky and the modulus grows without
    bound, so the loop ends (multimodular solving with an exact check,
    after Dixon, Numer. Math. 1982).  A pivot in the constant column
    counts as an inconsistency only once its candidate has passed the
    check.
    """
    mat = [_integer_row(r) for r in rows]
    if not mat:
        return ()
    best = None
    for p in _primes():
        pivots, reduced = _rref_mod(mat, p)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            best, residues, modulus = pivots, reduced, p
        elif pivots == best:
            residues = _crt(residues, modulus, reduced, p)
            modulus *= p
        else:
            continue
        lifted = _lift(residues, modulus)
        if lifted is not None and _certified(mat, lifted, best):
            break
    if best and best[-1] == len(mat[0]) - 1:
        raise InconsistentSystem("equations force 1 = 0")
    return tuple(lifted)


class RelationSystem:
    """The 23 flag-difference equations at a given weight vector, the
    raw residue sums of the 24 flags at ``power`` they come from, and
    the flags' FlagResidues (``residues``), from which the sums at any
    other power of the same weights are read without a second pass."""

    __slots__ = ("w", "power", "flags", "residues", "flag_sums",
                 "equations")

    def __init__(self, w, power, flags, residues, flag_sums, equations):
        self.w = w
        self.power = power
        self.flags = flags
        self.residues = residues
        self.flag_sums = flag_sums
        self.equations = equations


class SolvedRelations:
    """Echelon form of the relation system, ready for substitution;
    ``system`` is the RelationSystem it was solved from."""

    __slots__ = ("rows", "rank", "pivots", "assignments", "system",
                 "_denom", "_columns")

    def __init__(self, rows, system):
        self.rows = rows
        self.system = system
        self.rank = len(rows)
        denom = lcm(*(c.denominator for row in rows for c in row))
        scaled = [[c.numerator * (denom // c.denominator) for c in row]
                  for row in rows]
        cols = [next(j for j in range(NUM_SLOTS) if row[j])
                for row in scaled]
        self.pivots = {col + 1: col for col in cols}
        self.assignments = {
            col + 1: TwistLinear.from_row(
                [0 if j == col else -c for j, c in enumerate(row)], denom)
            for col, row in zip(cols, scaled)}
        self._denom = denom
        self._columns = tuple(
            (j, tuple((col, row[j]) for col, row in zip(cols, scaled)
                      if row[j]))
            for j in range(WIDTH) if j not in cols)

    def reduce(self, tl):
        """Substitute the pivot assignments, keeping free unknowns.

        With D the lcm of the rows' denominators, M = D*rows and c the
        numerators of ``tl``, free column j of the result is
        D*c_j - sum_k c_{pivot_k}*M[k][j] over D times the denominator
        of ``tl``; the pivot columns become zero.
        """
        c, denom = tl.nums, self._denom
        out = [0] * WIDTH
        for j, terms in self._columns:
            out[j] = denom * c[j] - sum(c[col] * m for col, m in terms)
        return TwistLinear.from_row(out, denom * tl.den)

    def substitute(self, tl):
        """Collapse a linear form to its constant; the free-unknown
        coefficients must all cancel or ResidualUnknowns is raised."""
        acc = self.reduce(tl)
        leftover = [j + 1 for j in range(NUM_SLOTS) if acc.nums[j]]
        if leftover:
            raise ResidualUnknowns(
                "unresolved twist unknowns: %s"
                % ", ".join("d%d" % s for s in leftover))
        return acc.constant_part()


def build_system(w):
    """Symbolic power-7 sums for all 24 flags and their differences.

    The sums are kept raw (``bottsum.contribution_sum``), so the fiber
    degree can reuse them, and so are the flags' FlagResidues, so the
    component degree at power 13 reads its sums off them; the published
    orientation would only negate every equation, which leaves the
    reduced echelon form unchanged.
    """
    w = tuple(validate_weights(w))
    flags = enumerate_fixed_flags()
    residues = [bottsum.flag_residues(flag, w) for flag in flags]
    flag_sums = [r.at(7) for r in residues]
    base = flag_sums[0]
    equations = [s - base for s in flag_sums[1:]]
    return RelationSystem(w, 7, flags, residues, flag_sums, equations)


def solve_relations(system):
    """Exact elimination of a RelationSystem's flag-difference
    equations.  The system stays on the result, so its flag sums can be
    reused."""
    return SolvedRelations(rref([eq.nums for eq in system.equations]),
                           system)


def _integer_row(row):
    """Rational row rescaled to integers with gcd one and a positive
    leading entry (already positive for an echelon row)."""
    denom = lcm(*(c.denominator for c in row))
    ints = [c.numerator * (denom // c.denominator) for c in row]
    g = gcd(*ints)
    if next((c for c in ints if c), 1) < 0:
        g = -g
    return ints if g in (0, 1) else [c // g for c in ints]


def integer_rows(solved):
    """Echelon rows rescaled to integer entries with gcd one."""
    return [tuple(_integer_row(row)) for row in solved.rows]


def relation_strings(solved):
    """The solved relations in printable form, constants last."""
    return ["%s = 0" % TwistLinear.from_row(row)
            for row in integer_rows(solved)]


def row_space_equal(eqs_a, eqs_b):
    """Whether two sets of affine-linear equations span the same space."""
    return rref([e.nums for e in eqs_a]) == rref([e.nums for e in eqs_b])


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
