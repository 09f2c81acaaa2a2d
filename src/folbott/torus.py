"""Torus data: weight vectors, fixed flags, eigenweights.

The diagonal torus acts on projective three-space with integer weights
(w0, w1, w2, w3).  Localization needs those weights generic enough that
no two monomials of the same degree (up to three) share a weight; the
validator below enforces exactly that.  Fixed flags are the 24 full
coordinate flags, listed in a specific deterministic order so that
parallel runs fold results identically.
"""

from itertools import combinations_with_replacement


class WeightError(ValueError):
    """Weight vector fails the genericity tests; collisions listed."""

    def __init__(self, collisions):
        self.collisions = list(collisions)
        lines = "; ".join(self.collisions)
        super().__init__("weight vector is too special: %s" % lines)


class DivByZeroWeight(ZeroDivisionError):
    """An equivariant denominator vanished at the chosen weights."""


def validate_weights(w):
    """Require distinct sums of one, two and three weights.

    Repetitions are allowed inside a sum (w_i + w_i is a valid pair), so
    these are the degree <= 3 monomial weights.  Raises WeightError with
    every colliding pair of sums named.
    """
    w = tuple(w)
    if len(w) != 4:
        raise ValueError("expected four weights")
    collisions = []
    for size in (1, 2, 3):
        seen = {}
        for combo in combinations_with_replacement(range(4), size):
            total = sum(w[i] for i in combo)
            label = "+".join("w%d" % i for i in combo)
            if total in seen:
                collisions.append(
                    "%s = %s = %s" % (seen[total], label, total))
            else:
                seen[total] = label
        # All combos of a size checked against each other before growing.
    if collisions:
        raise WeightError(collisions)
    return w


def enumerate_fixed_flags(w=None):
    """The 24 torus-fixed coordinate flags point-in-plane-in-space.

    Order is deterministic: outer index runs over the flag's point
    coordinate, the remaining coordinates are taken in descending order
    and unfolded in a fixed interleave.  If a weight vector is supplied
    it is validated first.
    """
    if w is not None:
        validate_weights(w)
    flags = []
    for a in range(4):
        rem = sorted((i for i in range(4) if i != a), reverse=True)
        for b in range(3):
            p1 = rem[2 - b]
            rem2 = [i for i in rem if i != p1]
            for c in range(2):
                flags.append((a, p1, rem2[c], rem2[1 - c]))
    return flags


def flag_tangent_product(flag, w):
    """Product of the six flag tangent weights w[flag[j]] - w[flag[i]],
    i < j in flag position, at a weight vector."""
    a, b, c, d = [w[i] for i in flag]
    return (b - a) * (c - a) * (d - a) * (c - b) * (d - b) * (d - c)


class EigenWeight:
    """Integer combination of the four coordinate weights.

    Stored as a coefficient 4-tuple in the local frame of a flag; on a
    flag its value is the dot product with ``[w[i] for i in flag]``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != 4:
            raise ValueError("expected four coefficients")
        self.coeffs = coeffs

    @classmethod
    def zero(cls):
        return cls((0, 0, 0, 0))

    def __add__(self, other):
        return EigenWeight(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return EigenWeight(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return EigenWeight(-c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, EigenWeight):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return format_weight(self)

    def __repr__(self):
        return "EigenWeight(%r)" % (self.coeffs,)


def format_weight(ew):
    """Monomial-fraction rendering: (1,-2,1,0) -> 'x0*x2/x1^2'."""
    num = []
    den = []
    for i, c in enumerate(ew.coeffs):
        if c > 0:
            num.append("x%d" % i if c == 1 else "x%d^%d" % (i, c))
        elif c < 0:
            den.append("x%d" % i if c == -1 else "x%d^%d" % (i, -c))
    if not num and not den:
        return "1"
    top = "*".join(num) if num else "1"
    if not den:
        return top
    return "%s/%s" % (top, "*".join(den))


def parse_weight(text):
    """Inverse of format_weight for the fixture tables."""
    text = text.strip()
    coeffs = [0, 0, 0, 0]
    if text == "1":
        return EigenWeight(coeffs)
    if "/" in text:
        top, bottom = text.split("/", 1)
    else:
        top, bottom = text, ""
    for part, sign in ((top, 1), (bottom, -1)):
        if not part or part == "1":
            continue
        for factor in part.split("*"):
            factor = factor.strip()
            if "^" in factor:
                name, e = factor.split("^")
                e = int(e)
            else:
                name, e = factor, 1
            if not name.startswith("x"):
                raise ValueError("bad weight factor %r" % factor)
            coeffs[int(name[1:])] += sign * e
    return EigenWeight(coeffs)
