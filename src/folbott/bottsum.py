"""Equivariant residue sums over the fixed-point catalog.

The sum of one flag runs over the 72 isolated points and the 5 fixed
lines of ``fixlocus.build_catalog``.  Its records do not depend on the
flag, so the catalog is read once, on first use, into plain int
4-tuples: (nu, 7 tangent weights) per point and (fiber weight, 6
normal weights, 6 twist slots) per line, all in the local frame.  On a
flag every weight is the int dot product of its 4-tuple with the local
weight vector ``[w[i] for i in flag]``.

A point contributes -nu^p / prod(t); the 72 of them are added as one
integer fraction over the least common multiple of their denominators.
A line's residue is the h-coefficient of -nu^p * prod(n_i + d_i h)^-1
with h*h = 0, where d1..d30 are the unknown twist degrees of the line
normal bundles.  Since prod(n_i + d_i h) = N (1 + sum(d_i / n_i) h)
with N = prod(n_i), that coefficient is sum(nu^p / (N n_i) * d_i): no
constant, and one closed-form coefficient per twist slot.  The result
is an affine-linear form in d1..d30 (TwistLinear).

This is the only residue arithmetic in the package.  The generic
route, a first-order dual class over TwistLinear evaluated record by
record with Fraction dot products, lives in ``tests/oracle.py`` as the
independent check of this one.

Two orientations of the same sum are exposed.  ``contribution_sum``
adds the raw terms; substituting the solved twist relations into it
gives the fiber degree and, with the extra flag-tangent factors at
power 13, the component degree.  ``display_sum`` is its negative, the
orientation in which the reference coefficient freezes (the constant
49642909/3974400 and the d1 coefficient -729/320 on the identity flag
at weights (0, 1, 5, 25)) are stated.

One weight vector costs one power-7 pass and one power-13 pass over
the 24 flags: ``fiber_degree`` reuses the raw power-7 sums that
``relations.build_system`` keeps, when its weights and power match.
``fiber_degree``, ``component_degree`` and ``per_flag_degrees`` accept
a ``jobs`` argument and ignore it: the flag sums are pure-Python
arithmetic, which threads do not speed up under the interpreter lock,
so they always run serially.
"""

from fractions import Fraction
from functools import cache
from math import gcd

from .torus import (DivByZeroWeight, enumerate_fixed_flags,
                    flag_tangent_product, validate_weights)
from .fixlocus import build_catalog

NUM_SLOTS = 30


class TwistLinear:
    """Affine-linear combination of the twist unknowns d1..d30.

    Stored as {slot: Fraction} with slot 0 holding the constant term.
    Supports addition and scaling by rationals.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {} if coeffs is None else coeffs

    @classmethod
    def constant(cls, value):
        value = Fraction(value)
        return cls({0: value} if value else {})

    @classmethod
    def unknown(cls, slot, coeff=1):
        if not 1 <= slot <= NUM_SLOTS:
            raise ValueError("twist slot out of range: %r" % slot)
        coeff = Fraction(coeff)
        return cls({slot: coeff} if coeff else {})

    def is_zero(self):
        return not self.coeffs

    def constant_part(self):
        return self.coeffs.get(0, Fraction(0))

    def coefficient(self, slot):
        return self.coeffs.get(slot, Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TwistLinear.constant(other)
        if not isinstance(other, TwistLinear):
            return NotImplemented
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            acc = out.get(k, Fraction(0)) + v
            if acc == 0:
                out.pop(k, None)
            else:
                out[k] = acc
        return TwistLinear(out)

    __radd__ = __add__

    def __neg__(self):
        return TwistLinear({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TwistLinear.constant(other)
        if not isinstance(other, TwistLinear):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if other == 0:
                return TwistLinear()
            return TwistLinear(
                {k: v * other for k, v in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TwistLinear.constant(other)
        if not isinstance(other, TwistLinear):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        order = sorted(s for s in self.coeffs if s != 0)
        if 0 in self.coeffs:
            order.append(0)
        parts = []
        for slot in order:
            c = self.coeffs[slot]
            name = "d%d" % slot if slot else None
            if name is None:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = name
            else:
                piece = "%s*%s" % (abs(c), name)
            parts.append((c < 0, piece))
        out = []
        for i, (neg, piece) in enumerate(parts):
            if i == 0:
                out.append("-" + piece if neg else piece)
            else:
                out.append(" - " + piece if neg else " + " + piece)
        return "".join(out)

    def __repr__(self):
        return "TwistLinear(%s)" % self


@cache
def _integer_catalog():
    """The reference-flag catalog as plain ints, read on first use.

    Points are (id, nu, tangents) and lines (id, wfiber, normals,
    slots), every weight a coefficient 4-tuple in the local frame.  The
    records do not depend on the flag, so one read serves all 24.
    """
    catalog = build_catalog((0, 1, 2, 3))
    points = tuple((rec.id, rec.nu.coeffs,
                    tuple(t.coeffs for t in rec.tangent))
                   for rec in catalog.points)
    lines = tuple((rec.id, rec.wfiber.coeffs,
                   tuple(n.coeffs for n in rec.normals), rec.slots)
                  for rec in catalog.lines)
    return points, lines


def _flag_label(flag):
    return ",".join(map(str, flag))


def contribution_sum(flag, w, power):
    """Raw residue sum over the catalog of one flag.

    The point residues are added as one integer fraction and the line
    residues written down in closed form; see the module docstring.
    """
    if power < 0:
        raise ValueError("power must be a nonnegative integer")
    points, lines = _integer_catalog()
    a, b, c, d = [w[i] for i in flag]
    num, den = 0, 1
    for rid, (n0, n1, n2, n3), tangents in points:
        prod = 1
        for t0, t1, t2, t3 in tangents:
            prod *= t0 * a + t1 * b + t2 * c + t3 * d
        if not prod:
            raise DivByZeroWeight("zero tangent weight in %s on flag %s"
                                  % (rid, _flag_label(flag)))
        g = gcd(den, prod)
        num = (num * (prod // g)
               - (n0 * a + n1 * b + n2 * c + n3 * d) ** power * (den // g))
        den *= prod // g
    coeffs = {0: Fraction(num, den)} if num else {}
    for rid, (f0, f1, f2, f3), normals, slots in lines:
        values = [m0 * a + m1 * b + m2 * c + m3 * d
                  for m0, m1, m2, m3 in normals]
        prod = 1
        for n in values:
            prod *= n
        if not prod:
            raise DivByZeroWeight("zero normal weight in %s on flag %s"
                                  % (rid, _flag_label(flag)))
        top = (f0 * a + f1 * b + f2 * c + f3 * d) ** power
        if top:
            for n, slot in zip(values, slots):
                coeffs[slot] = Fraction(top, prod * n)
    return TwistLinear(coeffs)


def display_sum(flag, w, power):
    """The residue sum in the published orientation (negated raw sum)."""
    return -contribution_sum(flag, w, power)


def _global_summand(flag, w, power):
    s = contribution_sum(flag, w, power)
    return s / flag_tangent_product(flag, w)


def fiber_degree(w, power=7, relations=None, jobs=1):
    """Per-flag residue value, checked to agree across all 24 flags.

    Without relations the symbolic sum on the identity flag is
    returned in the published orientation.  With relations each flag's
    sum collapses to a number and the common value comes back; a
    disagreement (any power other than 7) raises ArithmeticError.  The
    flag sums of the relations' own system are reused when its weights
    and power are these.
    """
    w = tuple(validate_weights(w))
    if relations is None:
        return display_sum((0, 1, 2, 3), w, power)
    flags = enumerate_fixed_flags()
    system = relations.system
    if system is not None and (system.w, system.power) == (w, power):
        sums = system.flag_sums
    else:
        sums = [contribution_sum(f, w, power) for f in flags]
    values = [relations.substitute(s) for s in sums]
    for flag, val in zip(flags[1:], values[1:]):
        if val != values[0]:
            raise ArithmeticError(
                "per-flag values differ: %s on flag %s vs %s on flag %s"
                % (values[0], _flag_label(flags[0]), val, _flag_label(flag)))
    return values[0]


def component_degree(w, power=13, relations=None, jobs=1):
    """Global residue sum: flag sums over their six flag-tangent
    weights, added across all 24 flags."""
    w = tuple(validate_weights(w))
    total = TwistLinear()
    for flag in enumerate_fixed_flags():
        total = total + _global_summand(flag, w, power)
    if relations is None:
        return total
    return relations.substitute(total)


def per_flag_degrees(w, relations, jobs=1, power=13):
    """The 24 flag summands of the global degree, substituted."""
    w = tuple(validate_weights(w))
    return [(flag, relations.substitute(_global_summand(flag, w, power)))
            for flag in enumerate_fixed_flags()]


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
