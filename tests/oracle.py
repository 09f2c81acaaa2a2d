"""Generic residue arithmetic: the independent route to the flag sums.

``folbott.bottsum.contribution_sum`` evaluates every weight as an int
dot product and writes the line residues in closed form.  This module
gets the same residues through generic ring arithmetic instead: each
eigenweight is evaluated record by record with Fraction dot products,
and a line's residue is the h-coefficient of a first-order dual class
carrying TwistLinear forms.  It shares nothing with the integer engine
but the catalog records, so the tests compare the two.
"""

from fractions import Fraction

from folbott.bottsum import TwistLinear
from folbott.torus import DivByZeroWeight


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

    ``a`` is a Fraction; ``b`` may be a Fraction or any value supporting
    addition and scaling, which lets the h-part carry linear expressions
    in unknown twist degrees.  Inversion needs a nonzero pure part and
    raises DivByZeroWeight otherwise.
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
        return self.a == other and (self.b == 0 or
                                    (hasattr(self.b, "is_zero")
                                     and self.b.is_zero()))

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
    twist) with the twist a Fraction or TwistLinear.  Returns the
    h-coefficient of -nu_class^power * prod(weight + twist*h)^(-1).
    """
    symbolic = any(isinstance(t, TwistLinear) for _, t in normal_pairs)
    zero = TwistLinear() if symbolic else Fraction(0)
    prod = DualClass(Fraction(1), zero)
    for weight, twist in normal_pairs:
        if weight == 0:
            raise DivByZeroWeight("zero normal weight in a line term")
        if symbolic and isinstance(twist, (int, Fraction)):
            twist = TwistLinear.constant(twist)
        prod = prod * DualClass(Fraction(weight), twist)
    total = (-(nu_class ** power)) * prod.inverse()
    return total.h_coefficient()


def point_contribution(point, w, power):
    """Residue of one cataloged point at a weight vector."""
    return point_term(nu_value(point, w), tangent_values(point, w), power)


def line_contribution(line, w, power):
    """Residue of one cataloged line, linear in its six twist slots."""
    nu = DualClass(wfiber_value(line, w), TwistLinear())
    pairs = [(n, TwistLinear.unknown(slot))
             for n, slot in zip(normal_values(line, w), line.slots)]
    return line_term(nu, pairs, power)
