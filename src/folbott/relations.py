"""Linear relations among the thirty twist unknowns.

The fiber integral at power 7 must be flag independent: with each
flag's raw sum R_f over its denominator den_f, every r_f = R_f / den_f
must take one value once the relations hold.  The relations are solved
from that requirement as one homogenized system: flag f gives the
integer row (den_f | R_f), its denominator prepended as column 0, and
one exact elimination reduces the 24 rows.  Each row is den_f times
(1 | r_f), so column 0 is the first pivot, and the echelon rows after
the first, zero there, span {x in span(1 | r_f) : x_0 = 0}, which is
the span of the 23 differences r_f - r_0.  With column 0 dropped they
are the unique reduced form of the flag-difference equations, the
rank-18 relations, rescaled to their own lcm denominator.  The first
row is (1 | c), where c is every r_f reduced by the relations: the
common power-7 value, read off once its free columns are zero.  No
difference row is cross-multiplied, and nothing on the way is put in
lowest terms: scaling a row does not change the space it spans.

The elimination reduces the rows modulo a prime below 2^30, lifts them
back to fractions by rational reconstruction and certifies them with
integer arithmetic; a failed lift or check brings in the next prime,
found by trial division (``_primes``).
Over F_p a row is one int with a field per column, wide enough for
p + width*p^2, the most a field holds when it is reduced only as it is
read; a row step is one big-int multiply-add (``_rref_mod``).  ``rref``
takes integer rows only and returns an ``Echelon``, which is integer
too: the reduced rows scaled once to an integer matrix over the lcm of
their denominators, their pivots, and the index of that matrix's free
columns.  The rows as Fractions are built only on access
(``Echelon.fractions``), for the single-blowup check and for comparing
row spaces; the elimination and the degree path never build them.  The
printed relations (``integer_rows``) are the matrix's rows, each made
primitive by the one rule in ``bottsum._primitive``.

Substitution is one integer primitive, ``Echelon.reduce_row``: a raw
row over any denominator goes to its free columns and constant, one
integer dot product per free column, over that denominator times the
matrix's.  The certificate is the same reduction: a candidate passes
when every input row reduces to zero, so on the homogenized system it
checks each flag's row directly, and that is what makes every flag's
power-7 row reduce to the first row.  ``SolvedRelations.collapse``
turns a reduced row into its constant, as a Fraction in lowest terms,
once every free column is checked to be zero.  ``reduce`` and
``substitute`` are those two steps on a TwistLinear, and the degree
path in ``bottsum`` calls them on raw rows, so a value is put in
lowest terms only when it leaves the engine.

Also here: the self-contained cross-check that pins the twist values
for a single blowup of projective space along a linear center, solved
from scratch for given (N, m) by the same equate-the-sums trick.  Its
probe rows are built as integers and made primitive by
``bottsum._primitive``; its equations and solution are written by
``bottsum._sum``, the one signed-sum writer.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from . import bottsum
from .bottsum import NUM_SLOTS, TwistLinear
from .torus import enumerate_fixed_flags, validate_weights


class InconsistentSystem(ArithmeticError):
    """A row reduced to nonzero constant = 0."""


class ResidualUnknowns(ArithmeticError):
    """Substitution left free unknowns that the relations cannot fix."""


def _primes():
    """2^30 - 35, the largest prime below 2^30, then the primes below it
    in descending order.

    Below 2^30 a residue, a pivot inverse and a step multiplier of
    ``_rref_mod`` are one-digit ints in CPython, and a column's field
    there is (p + width*p^2).bit_length() bits, 65 for the 32 columns
    of the homogenized flag rows: a larger prime would cost wider rows.
    One prime lifts numerators and denominators up to 23170; the
    relations need 2, and the common value 21, so one prime serves the
    degree path.  Each later candidate is tested by odd trial division
    up to its square root, about a millisecond per prime found.
    """
    p = (1 << 30) - 35
    while True:
        yield p
        p -= 2
        while any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            p -= 2


def _rref_mod(mat, p):
    """Gauss-Jordan over F_p on every column, the constant included:
    the pivot columns and the reduced nonzero rows, entries in [0, p).

    A row is one int with a field of ``bits`` bits per column, column j
    at bit j*bits, so a row step is one big-int multiply-add, not a
    loop over columns (delayed modular reduction: Dumas, Giorgi and
    Pernet, ACM TOMS 2008).  Entries go in reduced mod p, and from then
    on a field is reduced only when it is read: a pivot search reads
    one field per row, and the rows come out reduced at the end.  The
    pivot row is made monic by unpacking its fields from the pivot
    column on, as ``pos`` with fields e in [0, p); ``neg`` has the
    fields p - e there, all in [1, p] and zero mod p where e is.  The
    step on a row y whose field at the pivot column is f mod p is
    y + f*neg, which makes that field a multiple of p.  No field goes
    negative, so none borrows from its neighbour, and a row takes at
    most one step per pivot, each adding less than p^2 to a field, so
    every field stays below p + width*p^2 < 2^bits and none carries
    into the next.  Rows not yet pivoted are zero mod p left of the
    pivot column, so ``pos`` and ``neg`` start there.
    """
    width = len(mat[0])
    bits = (p + width * p * p).bit_length()
    mask = (1 << bits) - 1
    shifts = range(0, width * bits, bits)
    rows = []
    for row in mat:
        y = 0
        for c in reversed(row):
            y = y << bits | c % p
        if y:
            rows.append(y)
    p_fields = sum(p << s for s in shifts)
    pivots = []
    for col, s in enumerate(shifts):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows))
                      if (rows[i] >> s & mask) % p), None)
        if pivot is None:
            continue
        tail = rows[pivot] >> s
        inv = pow((tail & mask) % p, -1, p)
        pos = 0
        for t in reversed(shifts[:width - col]):
            pos = pos << bits | (tail >> t & mask) * inv % p
        pos <<= s
        neg = (p_fields >> s << s) - pos
        rows[pivot] = rows[r]
        rows[r] = pos
        for i, y in enumerate(rows):
            f = (y >> s & mask) % p
            if f and i != r:
                rows[i] = y + f * neg
        pivots.append(col)
    return tuple(pivots), [[(y >> s & mask) % p for s in shifts]
                           for y in rows[:len(pivots)]]


def _crt(residues, modulus, more, p):
    """Combine residues mod ``modulus`` with residues mod the prime p."""
    inv = pow(modulus, -1, p)
    return [[a + modulus * ((b - a) * inv % p) for a, b in zip(ra, rb)]
            for ra, rb in zip(residues, more)]


def _reconstruct(u, m, bound):
    """The fraction n/d = u mod m with |n|, d <= bound, as the pair
    (n, d) with d > 0, or None (Wang, SYMSAC 1981): the extended
    Euclidean algorithm on (m, u), stopped at the first remainder
    within the bound."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(residues, m):
    """Every residue mod m as the fraction with numerator and
    denominator at most sqrt(m/2) that it reduces from, in integer form
    (see ``_scale``), or None when one has none.  Zeros and ones, the
    pivots among them, lift as themselves."""
    bound = isqrt((m - 1) // 2)
    lifted = []
    for row in residues:
        out = []
        for u in row:
            q = (u, 1) if u < 2 else _reconstruct(u, m, bound)
            if q is None:
                return None
            out.append(q)
        lifted.append(out)
    return _scale(lifted)


def _scale(rows):
    """Rows of (numerator, denominator) pairs in integer form: the lcm D
    of the denominators, and the rows times D as lists of ints."""
    denom = lcm(*{d for row in rows for _, d in row})
    return denom, [[n * (denom // d) for n, d in row] for row in rows]


class Echelon:
    """What ``rref`` returns: the reduced rows in the integer form they
    were certified in.  ``denom`` is the lcm of the entries'
    denominators, ``scaled`` the rows times ``denom``, as lists of ints,
    and ``pivots`` the rows' pivot columns."""

    __slots__ = ("denom", "scaled", "pivots", "_columns")

    def __init__(self, denom, scaled, pivots):
        self.denom, self.scaled, self.pivots = denom, scaled, pivots
        # Each free column that has terms, with the (pivot column,
        # scaled entry) pairs that are nonzero there.
        self._columns = tuple(
            (j, terms) for j in range(len(scaled[0]) if scaled else 0)
            if j not in pivots
            for terms in [tuple((col, row[j])
                                for col, row in zip(pivots, scaled)
                                if row[j])]
            if terms)

    @property
    def fractions(self):
        """The reduced rows as a tuple of tuples of Fractions, built on
        each access."""
        return tuple(tuple(Fraction(n, self.denom) for n in row)
                     for row in self.scaled)

    def reduce_row(self, nums, den=1):
        """Substitute the rows into the integer row ``nums`` over
        ``den``, keeping free unknowns: the integer row and its
        denominator, not reduced.

        With D = ``denom`` and M = ``scaled``, free column j of the
        result is D*c_j - sum_k c_{pivot_k}*M[k][j] over D*den, with
        c = ``nums``; the pivot columns are zero.  A row in the span of
        the rows reduces to zero.
        """
        out = [self.denom * c for c in nums]
        for col in self.pivots:
            out[col] = 0
        # Plain loops: a generator per column would cost more than the
        # few products it adds.
        for j, terms in self._columns:
            total = out[j]
            for col, m in terms:
                total -= nums[col] * m
            out[j] = total
        return out, self.denom * den


def rref(mat):
    """Reduced row echelon form over the rationals of integer rows,
    certified multimodular.

    Pivots are searched in every column but the last, which holds the
    constant (for the 32-wide homogenized flag rows: the denominator
    column and the 30 unknown columns);
    a system whose rows combine to (0, ..., 0, c) with c nonzero raises
    InconsistentSystem.  Returns an Echelon, zero rows dropped: the
    integer form and the pivots the certificate checked, with the rows
    as Fractions only on access (``Echelon.fractions``).

    The rows, such as the homogenized flag rows of ``solve_relations``,
    are lists or tuples of ints; a row of fractions is scaled to integers
    by its caller, which leaves the space it spans unchanged.  They
    are reduced modulo p, the first prime of ``_primes`` (below 2^30),
    and brought to reduced form over F_p in packed rows (``_rref_mod``),
    where no field grows past p + width*p^2 whatever the input.
    Each entry is lifted back to the rationals by rational
    reconstruction, and the candidate is certified with integers only:
    every input row reduces to zero under it (``Echelon.reduce_row``),
    so it lies in the candidate's span, and the candidate's rank, the
    rank mod p, is at most the rank over the rationals, so the two
    spans are equal and the candidate is the unique reduced form.  When
    a lift or the check fails, the next prime of ``_primes`` joins by
    CRT.  An unlucky prime, one dividing a minor, shows fewer pivots or
    later pivot columns than the rationals: a prime whose pivots are
    worse than the best seen so far is skipped, and one whose pivots
    are better replaces the residues.  Only finitely many primes are
    unlucky and the modulus grows without bound, so the loop ends
    (multimodular solving with an exact check, after Dixon, Numer.
    Math. 1982).  A pivot in the constant column counts as an
    inconsistency only once its candidate has passed the check.
    """
    if not mat:
        return Echelon(1, [], ())
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
        candidate = _lift(residues, modulus)
        if candidate is not None:
            echelon = Echelon(*candidate, best)
            if not any(any(echelon.reduce_row(row)[0]) for row in mat):
                break
    if best and best[-1] == len(mat[0]) - 1:
        raise InconsistentSystem("equations force 1 = 0")
    return echelon


class RelationSystem:
    """The raw residue sums of the 24 flags at ``power`` for the weights
    ``w``, which the relations are solved from, and the flags'
    FlagResidues (``residues``), from which the sums at any other power
    of the same weights are read without a second pass.

    ``sum_rows`` keeps each flag's sum as an (integer row, denominator)
    pair, not reduced.  ``equations`` are the 23 flag differences
    r_f - r_0 as TwistLinear forms, built on each access; the solve
    does not read them (``solve_relations``).
    """

    __slots__ = ("w", "power", "residues", "sum_rows")

    def __init__(self, w, power, residues, sum_rows):
        self.w = w
        self.power = power
        self.residues = residues
        self.sum_rows = sum_rows

    @property
    def equations(self):
        base, base_den = self.sum_rows[0]
        return [TwistLinear.from_row(
                    [x * base_den - y * den for x, y in zip(row, base)],
                    den * base_den)
                for row, den in self.sum_rows[1:]]


class SolvedRelations:
    """Echelon form of the relation system, ready for substitution;
    ``system`` is the RelationSystem it was solved from.  ``rows`` are
    the reduced rows, the Echelon that ``rref`` returns, ``rank`` their
    number, and ``pivots`` maps each pivot slot to its column.
    ``common`` is the row that every flag's sum at the system's power
    reduces to, as an (integer row, denominator) pair, when the rows
    were solved from those sums (``solve_relations``), and None
    otherwise."""

    __slots__ = ("rows", "rank", "pivots", "system", "common")

    def __init__(self, rows, system, common=None):
        self.rows = rows
        self.system = system
        self.common = common
        self.rank = len(rows.scaled)
        self.pivots = {col + 1: col for col in rows.pivots}

    @property
    def assignments(self):
        """{pivot slot: the TwistLinear it equals in the free unknowns}."""
        return {col + 1: TwistLinear.from_row(
                    [0 if j == col else -c for j, c in enumerate(row)],
                    self.rows.denom)
                for col, row in zip(self.rows.pivots, self.rows.scaled)}

    def reduce_row(self, nums, den=1):
        """``Echelon.reduce_row`` of the solved rows."""
        return self.rows.reduce_row(nums, den)

    def collapse(self, row, den):
        """The constant of a reduced integer row over ``den``, as a
        Fraction; nonzero free columns raise ResidualUnknowns naming
        their slots."""
        leftover = [j + 1 for j in range(NUM_SLOTS) if row[j]]
        if leftover:
            raise ResidualUnknowns(
                "unresolved twist unknowns: %s"
                % ", ".join("d%d" % s for s in leftover))
        return Fraction(row[NUM_SLOTS], den)

    def reduce(self, tl):
        """Substitute the pivot assignments into a TwistLinear, keeping
        free unknowns: ``reduce_row`` on its numerators, in lowest terms."""
        return TwistLinear.from_row(*self.reduce_row(tl.nums, tl.den))

    def substitute(self, tl):
        """Collapse a linear form to its constant: ``reduce_row`` on its
        numerators, then ``collapse``; the free-unknown coefficients
        must all cancel or ResidualUnknowns is raised."""
        return self.collapse(*self.reduce_row(tl.nums, tl.den))


def build_system(w):
    """Symbolic power-7 sums for all 24 flags.

    The sums are kept raw (``FlagResidues.row``), since the solve takes
    them as they are, and so are the flags' FlagResidues, so the
    component degree at power 13 reads its rows off them.
    """
    w = tuple(validate_weights(w))
    residues = [bottsum.flag_residues(flag, w)
                for flag in enumerate_fixed_flags()]
    return RelationSystem(w, 7, residues,
                          [(r.row(7), r.den) for r in residues])


def solve_relations(system):
    """The relations of a RelationSystem and the common value of its
    flag sums, from one exact elimination of the homogenized flag rows.

    Flag f's row is (den_f | R_f), its raw sum R_f with its denominator
    den_f prepended as column 0.  It is den_f times (1 | r_f) with
    r_f = R_f / den_f, so column 0 is the first pivot, and the echelon
    rows after the first, zero in column 0, span the vectors of
    span(1 | r_f) with x_0 = 0, which is the span of the differences
    r_f - r_0.  With column 0 dropped, and rescaled to the lcm of their
    own denominators, they are the unique reduced form of the
    flag-difference equations: ``rows``, with the same ``denom``,
    ``scaled`` and ``pivots`` as ``rref`` gives on the differences.  A
    system whose differences force 1 = 0 raises InconsistentSystem, as
    the constant stays the last column.

    The first row is (1 | c) with c zero in the other pivot columns.
    The certificate of ``rref`` reduced every flag's row to zero, so
    every r_f reduces to c under the relations: c is the common value
    at the system's power, kept as ``common`` for the fiber values.
    The system stays on the result, so its flag sums can be reused.
    """
    echelon = rref([[den] + row for row, den in system.sum_rows])
    first, rest = echelon.scaled[0], echelon.scaled[1:]
    g = gcd(echelon.denom, *(n for row in rest for n in row))
    rows = Echelon(echelon.denom // g, [[n // g for n in row[1:]]
                                        for row in rest],
                   tuple(col - 1 for col in echelon.pivots[1:]))
    return SolvedRelations(rows, system, (first[1:], echelon.denom))


def integer_rows(solved):
    """Echelon rows as primitive integer rows: the certified integer
    form, each row made primitive by ``bottsum._primitive``.  A row's
    first nonzero entry, its pivot, is already positive."""
    return [bottsum._primitive(row)[0] for row in solved.rows.scaled]


def relation_strings(solved):
    """The solved relations in printable form, constants last."""
    return ["%s = 0" % TwistLinear.from_row(row)
            for row in integer_rows(solved)]


def row_space_equal(eqs_a, eqs_b):
    """Whether two sets of affine-linear equations span the same space."""
    return (rref([e.nums for e in eqs_a]).fractions
            == rref([e.nums for e in eqs_b]).fractions)


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
                pairs = [(False, "a%d" % i)]
                if delta:
                    pairs.append((delta > 0, str(abs(delta))))
                self.solution["b%d" % i] = bottsum._sum(pairs)


def _twist_equation_row(n, m, v):
    """One equate-the-sums equation for the probe weights at level v, as
    a primitive integer row: the cofactors, then the constant.

    Weights are (1, 1, v, v+1, ..., v+n-2); the repeated weight keeps
    a fixed line while the rest isolates the blown-up locus, and each
    v probes a different linear combination of the twist differences.
    The products are integers and each cofactor is ``total // x``; only
    the constant is a Fraction sum, and its denominator scales the
    cofactors before ``bottsum._primitive``.  As w0 - w1 = 0, the fixed
    line's factor in each term's product is -delta.
    """
    w = [1, 1] + [v + j for j in range(n - 1)]
    normals = [w[0] - w[i] for i in range(2, n + 1)]
    total = prod(normals)
    center = prod(normals[:m])
    rhs = Fraction(0)
    for k in range(m, n - 1):
        delta = normals[k]
        others = normals[m:k] + normals[k + 1:]
        rhs += Fraction(1, -delta * delta * center
                        * prod(x - delta for x in others))
    rhs = -total * total * rhs
    return bottsum._primitive([total // x * rhs.denominator for x in normals]
                              + [rhs.numerator])[0]


def _format_twist_equation(row):
    """A probe row, cofactors then constant, as a-side = b-side, each
    side written by ``bottsum._sum``."""
    *cof, rhs = row

    def side(letter):
        pairs = []
        for i, c in enumerate(cof, start=1):
            name = "%s%d" % (letter, i)
            pairs.append((c < 0, name if abs(c) == 1
                          else "%d*%s" % (abs(c), name)))
        return pairs

    right = side("b")
    if rhs:
        right.append((rhs < 0, str(abs(rhs))))
    return "%s = %s" % (bottsum._sum(side("a")), bottsum._sum(right))


def normal_twist_check(n, m):
    """Solve for the twist drops of a single blowup along a linear
    center of dimension m inside projective n-space.

    Returns the probe equations (one per v in 2..n), the unique
    solution when the square system is nonsingular, and the printed
    forms matching the published example layout.
    """
    if n < 3 or not 1 <= m <= n - 2:
        raise ValueError("need n >= 3 and 1 <= m <= n-2")
    rows = [_twist_equation_row(n, m, v) for v in range(2, n + 1)]
    solved = rref(rows).fractions
    unique = len(solved) == n - 1
    deltas = tuple(row[-1] for row in solved) if unique else ()
    return NormalTwistReport(n, m, [_format_twist_equation(row)
                                    for row in rows], deltas, unique)
