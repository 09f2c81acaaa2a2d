"""Equivariant residue sums over the fixed-point catalog.

The sum of one flag runs over the 72 isolated points and the 5 fixed
lines of ``fixlocus.build_catalog``.  Its records do not depend on the
flag, so the catalog is read once, on first use, into plain ints: the
54 distinct weights as 4-tuples in the local frame, and per point (nu,
7 tangent weights), per line (fiber weight, 6 normal weights, 6 twist
slots) as indices into them.  On a flag each distinct weight is one int
dot product with the local weight vector ``[w[i] for i in flag]``.

A point contributes -nu^p / prod(t); the 72 of them are added as one
integer fraction, and points sharing a nu value share one numerator.
A line's residue is the h-coefficient of
-nu^p * prod(n_i + d_i h)^-1 with h*h = 0, where d1..d30 are the
unknown twist degrees of the line normal bundles.  Since
prod(n_i + d_i h) = N (1 + sum(d_i / n_i) h) with N = prod(n_i), that
coefficient is sum(nu^p / (N n_i) * d_i): no constant, and one
closed-form coefficient per twist slot.  The result is an
affine-linear form in d1..d30 (TwistLinear), stored as one integer
row, 30 twist numerators and then the constant, over one positive
denominator in lowest terms; its arithmetic cross-multiplies rows.

This is the only residue arithmetic in the package.  The generic
route, a first-order dual class evaluated record by record with
Fraction dot products, lives in ``tests/oracle.py`` as the independent
check of this one, next to a {slot: Fraction} reference TwistLinear.

Only nu^p and the fiber powers depend on the power p.  So
``flag_residues(flag, w)`` computes the rest once, as a FlagResidues:
the common denominator D of every point and line term, each nu value
with its integer numerator over D, and each line's fiber value with
one integer numerator over D per twist slot.  Its ``at(p)`` is the
flag's sum at power p, a dozen powers and one integer row, and
``contribution_sum(flag, w, p)`` is ``flag_residues(flag, w).at(p)``.

Two orientations of the same sum are exposed.  ``contribution_sum``
adds the raw terms; substituting the solved twist relations into it
gives the fiber degree and, with the extra flag-tangent factors at
power 13, the component degree.  ``display_sum`` is its negative, the
orientation in which the reference coefficient freezes (the constant
49642909/3974400 and the d1 coefficient -729/320 on the identity flag
at weights (0, 1, 5, 25)) are stated.

One weight vector costs one pass over the 24 flags, whatever the
powers: ``relations.build_system`` keeps the 24 FlagResidues next to
its power-7 sums.  ``per_flag_fiber_values``, behind ``fiber_degree``
and ``fiber-degree --per-flag``, reuses those sums when its weights
and power match, and ``component_degree``, ``per_flag_degrees`` and
the fiber values at any other power read their sums off the kept
FlagResidues when the weights match; only other weights cost a pass
of their own.  ``component_degree`` adds its 24 summands over one
common denominator, in one integer row.  The flag sums always run
serially: they are pure-Python arithmetic, which threads do not speed
up under the interpreter lock.  Only
``component_degree`` still takes a ``jobs`` argument, and ignores it,
because the jobs probe of ``perfbench`` passes one.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .torus import (DivByZeroWeight, enumerate_fixed_flags,
                    flag_tangent_product, validate_weights)
from .fixlocus import build_catalog

NUM_SLOTS = 30
WIDTH = NUM_SLOTS + 1  # d1..d30, then the constant


class TwistLinear:
    """Affine-linear combination of the twist unknowns d1..d30.

    Stored as 31 integer numerators ``nums`` (d1..d30, then the
    constant) over one positive denominator ``den``, in lowest terms.
    ``coeffs`` is a fresh {slot: Fraction} view with slot 0 holding the
    constant and zero entries left out.  Supports addition and scaling
    by rationals.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=None):
        coeffs = {k: Fraction(v) for k, v in (coeffs or {}).items()}
        # The lcm of reduced denominators leaves the row in lowest terms.
        den = lcm(*(c.denominator for c in coeffs.values()))
        nums = [0] * WIDTH
        for slot, c in coeffs.items():
            if not 0 <= slot <= NUM_SLOTS:
                raise ValueError("twist slot out of range: %r" % slot)
            nums[slot - 1 if slot else NUM_SLOTS] = \
                c.numerator * (den // c.denominator)
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def from_row(cls, nums, den=1):
        """The form with integer numerators ``nums`` (d1..d30, then the
        constant) over the nonzero integer ``den``, in lowest terms."""
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        out = cls.__new__(cls)
        out.nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        out.den = den // g
        return out

    @classmethod
    def constant(cls, value):
        return cls({0: value})

    @classmethod
    def unknown(cls, slot, coeff=1):
        if not 1 <= slot <= NUM_SLOTS:
            raise ValueError("twist slot out of range: %r" % slot)
        return cls({slot: coeff})

    @property
    def coeffs(self):
        nums, den = self.nums, self.den
        out = {j + 1: Fraction(n, den)
               for j, n in enumerate(nums[:NUM_SLOTS]) if n}
        if nums[NUM_SLOTS]:
            out[0] = Fraction(nums[NUM_SLOTS], den)
        return out

    def is_zero(self):
        return not any(self.nums)

    def constant_part(self):
        return Fraction(self.nums[NUM_SLOTS], self.den)

    def coefficient(self, slot):
        return self.coeffs.get(slot, Fraction(0))

    def _combine(self, other, sign):
        if isinstance(other, (int, Fraction)):
            other = TwistLinear.constant(other)
        if not isinstance(other, TwistLinear):
            return NotImplemented
        da, db = self.den, other.den
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        return TwistLinear.from_row(
            [x * sa + y * sb for x, y in zip(self.nums, other.nums)],
            da * (db // g))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num = other.numerator
        return TwistLinear.from_row([n * num for n in self.nums],
                                    self.den * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Fraction(other)
        if not other:
            raise ZeroDivisionError("TwistLinear division by zero")
        den = other.denominator
        return TwistLinear.from_row([n * den for n in self.nums],
                                    self.den * other.numerator)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TwistLinear.constant(other)
        if not isinstance(other, TwistLinear):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        out = ""
        for j, n in enumerate(self.nums):
            if n:
                c = abs(Fraction(n, self.den))
                piece = (str(c) if j == NUM_SLOTS else "d%d" % (j + 1)
                         if c == 1 else "%s*d%d" % (c, j + 1))
                sign = (" - " if n < 0 else " + ") if out else \
                    ("-" if n < 0 else "")
                out += sign + piece
        return out or "0"

    def __repr__(self):
        return "TwistLinear(%s)" % self


@cache
def _integer_catalog():
    """The reference-flag catalog as plain ints, read on first use.

    ``weights`` holds each distinct weight once, as a coefficient
    4-tuple in the local frame: 54 of them for the 72 points and 5
    lines.  Points are (id, nu, tangents) and lines (id, wfiber,
    normals, slots), with every weight an index into ``weights``.  The
    records do not depend on the flag, so one read serves all 24.
    """
    catalog = build_catalog((0, 1, 2, 3))
    index = {}

    def at(ew):
        return index.setdefault(ew.coeffs, len(index))

    points = tuple((rec.id, at(rec.nu), tuple(map(at, rec.tangent)))
                   for rec in catalog.points)
    lines = tuple((rec.id, at(rec.wfiber), tuple(map(at, rec.normals)),
                   rec.slots)
                  for rec in catalog.lines)
    return tuple(index), points, lines


def _flag_label(flag):
    return ",".join(map(str, flag))


class FlagResidues:
    """One flag's residue sum with the power left open.

    Everything but the powers of the nu and fiber values is fixed once
    the weights are: ``den`` is the lcm of every point's tangent
    product and every line's denominator prod(n) * lcm(n), ``points``
    holds (nu value, sum of den // prod(t) over the points with that
    nu), and ``lines`` holds (fiber value, (slot index, den // (prod(n)
    * n_i)) per slot).  ``at(power)`` is then the flag's sum at that
    power: a few powers and products, and one integer row.
    """

    __slots__ = ("den", "points", "lines")

    def __init__(self, den, points, lines):
        self.den = den
        self.points = points
        self.lines = lines

    def at(self, power):
        """The raw residue sum at ``power`` (see ``contribution_sum``)."""
        _check_power(power)
        row = [0] * WIDTH
        row[NUM_SLOTS] = -sum(nu ** power * q for nu, q in self.points)
        for fiber, entries in self.lines:
            top = fiber ** power
            if top:
                for j, value in entries:
                    row[j] = top * value
        return TwistLinear.from_row(row, self.den)


def _check_power(power):
    if power < 0:
        raise ValueError("power must be a nonnegative integer")


def flag_residues(flag, w):
    """The power-free part of one flag's residue sum (FlagResidues).

    Each distinct weight is evaluated once, and a zero tangent or
    normal weight raises DivByZeroWeight naming its record and the
    flag.  Points sharing a nu value share one entry.  See the module
    docstring.
    """
    weights, points, lines = _integer_catalog()
    a, b, c, d = [w[i] for i in flag]
    vals = [t0 * a + t1 * b + t2 * c + t3 * d for t0, t1, t2, t3 in weights]
    point_rows = []
    for rid, nu, tangents in points:
        prod = 1
        for i in tangents:
            prod *= vals[i]
        if not prod:
            raise DivByZeroWeight("zero tangent weight in %s on flag %s"
                                  % (rid, _flag_label(flag)))
        point_rows.append((vals[nu], prod))
    line_rows = []
    for rid, fiber, normals, slots in lines:
        values = [vals[i] for i in normals]
        prod = 1
        for n in values:
            prod *= n
        if not prod:
            raise DivByZeroWeight("zero normal weight in %s on flag %s"
                                  % (rid, _flag_label(flag)))
        # 1 / (prod * n_i) = (m // n_i) / (prod * m)
        m = lcm(*values)
        line_rows.append((vals[fiber], prod * m,
                          [(slot - 1, m // n) for n, slot in zip(values,
                                                                 slots)]))
    den = 1
    for _, prod in point_rows:
        den *= prod // gcd(den, prod)
    den = lcm(den, *(line_den for _, line_den, _ in line_rows))
    by_nu = {}
    for nu, prod in point_rows:
        by_nu[nu] = by_nu.get(nu, 0) + den // prod
    return FlagResidues(
        den, tuple(by_nu.items()),
        tuple((fiber, tuple((j, value * (den // line_den))
                            for j, value in entries))
              for fiber, line_den, entries in line_rows))


def contribution_sum(flag, w, power):
    """Raw residue sum over the catalog of one flag: the integer row of
    ``flag_residues(flag, w).at(power)``.  A negative power raises
    ValueError before any weight is evaluated."""
    _check_power(power)
    return flag_residues(flag, w).at(power)


def display_sum(flag, w, power):
    """The residue sum in the published orientation (negated raw sum)."""
    return -contribution_sum(flag, w, power)


def _residues_for(w, relations):
    """The 24 FlagResidues at ``w``: the relations' own when their
    system was built at ``w``, otherwise computed."""
    system = relations.system if relations is not None else None
    if system is not None and system.w == w:
        return system.residues
    return [flag_residues(flag, w) for flag in enumerate_fixed_flags()]


def fiber_degree(w, power, relations):
    """Per-flag residue value, checked to agree across all 24 flags.

    Each flag's sum collapses to a number under the solved relations
    and the common value comes back; a disagreement (any power other
    than 7) raises ArithmeticError.
    """
    rows = per_flag_fiber_values(w, relations, power)
    first, value = rows[0]
    for flag, val in rows[1:]:
        if val != value:
            raise ArithmeticError(
                "per-flag values differ: %s on flag %s vs %s on flag %s"
                % (value, _flag_label(first), val, _flag_label(flag)))
    return value


def per_flag_fiber_values(w, relations, power=7):
    """The 24 flag sums at ``power``, substituted.  The sums of the
    relations' own system are reused when its weights and power are
    these, and its FlagResidues when only the weights are."""
    w = tuple(validate_weights(w))
    system = relations.system
    if (system.w, system.power) == (w, power):
        sums = system.flag_sums
    else:
        sums = [r.at(power) for r in _residues_for(w, relations)]
    return [(flag, relations.substitute(s))
            for flag, s in zip(enumerate_fixed_flags(), sums)]


def component_degree(w, power=13, relations=None, jobs=1):
    """Global residue sum: flag sums over their six flag-tangent
    weights, added across all 24 flags over one common denominator."""
    w = tuple(validate_weights(w))
    sums = [r.at(power) for r in _residues_for(w, relations)]
    summands = [(s.nums, s.den * flag_tangent_product(flag, w))
                for flag, s in zip(enumerate_fixed_flags(), sums)]
    den = lcm(*(d for _, d in summands))
    rows = [[n * (den // d) for n in nums] for nums, d in summands]
    total = TwistLinear.from_row([sum(col) for col in zip(*rows)], den)
    if relations is None:
        return total
    return relations.substitute(total)


def per_flag_degrees(w, relations, power=13):
    """The 24 flag summands of the global degree, substituted."""
    w = tuple(validate_weights(w))
    return [(flag, relations.substitute(
                r.at(power) / flag_tangent_product(flag, w)))
            for flag, r in zip(enumerate_fixed_flags(),
                               _residues_for(w, relations))]


def three_planes_demo():
    """Toy residue sum on a broken plane arrangement.

    Four isolated points and one line with known twists, at power
    three; the total comes out to the plain degree 1, which is the
    point of the exercise.  A point gives -nu^3 / prod(t).  The line has
    fiber weight nu0 + nu1*h and normals n_i + d_i*h, so its residue,
    the h-coefficient of -(nu0 + nu1*h)^3 * prod(n_i + d_i*h)^-1, is
    -nu0^3 / N * (3 nu1/nu0 - sum(d_i / n_i)) with N = prod(n_i).
    """
    rows = [(label, Fraction(-nu ** 3, t0 * t1 * t2))
            for label, nu, (t0, t1, t2) in (("p2", -2, (1, 1, -1)),
                                            ("q1", -3, (2, 2, -1)),
                                            ("q2", -3, (2, 1, 1)),
                                            ("r2", -1, (-2, -1, 1)))]
    nu0, nu1, (n1, d1), (n2, d2) = -1, -1, (1, 0), (2, -1)
    rows.append(("line", -Fraction(nu0 ** 3, n1 * n2)
                 * (3 * Fraction(nu1, nu0) - Fraction(d1, n1)
                    - Fraction(d2, n2))))
    rows.append(("total", sum(value for _, value in rows)))
    return rows
