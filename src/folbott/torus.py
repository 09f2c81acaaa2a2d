"""Torus data: weight vectors, fixed flags, eigenweights.

The diagonal torus acts on projective three-space with integer weights
(w0, w1, w2, w3).  Localization needs those weights generic enough that
no two monomials of the same degree (up to three) share a weight; the
validator below enforces exactly that.  Fixed flags are the 24 full
coordinate flags, listed in one fixed order.
"""

from itertools import combinations_with_replacement, permutations


class WeightError(ValueError):
    """Weight vector fails the genericity tests; collisions listed."""

    def __init__(self, collisions):
        self.collisions = list(collisions)
        lines = "; ".join(self.collisions)
        super().__init__("weight vector is too special: %s" % lines)


class DivByZeroWeight(ZeroDivisionError):
    """An equivariant denominator vanished at the chosen weights."""


# The index tuples of the monomials of degree 1, 2 and 3, by degree.
_MONOMIALS = tuple(tuple(combinations_with_replacement(range(4), size))
                   for size in (1, 2, 3))


def validate_weights(w):
    """Require distinct sums of one, two and three weights.

    Repetitions are allowed inside a sum (w_i + w_i is a valid pair), so
    these are the degree <= 3 monomial weights.  Raises WeightError with
    every colliding pair of sums named; the sums are labelled only when
    a collision exists.  Raises TypeError on an entry that is not an
    int, before any sum is formed: the residue sums are exact integer
    arithmetic.
    """
    w = tuple(w)
    if len(w) != 4:
        raise ValueError("expected four weights")
    for i, value in enumerate(w):
        if not isinstance(value, int):
            raise TypeError("weight w%d must be an int, got %r" % (i, value))
    sums = [[sum(w[i] for i in combo) for combo in combos]
            for combos in _MONOMIALS]
    if all(len(set(totals)) == len(totals) for totals in sums):
        return w
    collisions = []
    for combos, totals in zip(_MONOMIALS, sums):
        # All combos of a size checked against each other before growing.
        seen = {}
        for combo, total in zip(combos, totals):
            label = "+".join("w%d" % i for i in combo)
            if total in seen:
                collisions.append(
                    "%s = %s = %s" % (seen[total], label, total))
            else:
                seen[total] = label
    raise WeightError(collisions)


def enumerate_fixed_flags():
    """The 24 torus-fixed coordinate flags point-in-plane-in-space.

    Order is deterministic: by the flag's point coordinate, then by its
    second coordinate, then by its third in descending order.
    """
    return sorted(permutations(range(4)),
                  key=lambda f: (f[0], f[1], -f[2]))


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
    def _of(cls, coeffs):
        """Wrap a 4-tuple of ints as it is, skipping __init__'s checks."""
        ew = object.__new__(cls)
        ew.coeffs = coeffs
        return ew

    def __add__(self, other):
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self.coeffs, other.coeffs
        return EigenWeight._of((a0 + b0, a1 + b1, a2 + b2, a3 + b3))

    def __sub__(self, other):
        (a0, a1, a2, a3), (b0, b1, b2, b3) = self.coeffs, other.coeffs
        return EigenWeight._of((a0 - b0, a1 - b1, a2 - b2, a3 - b3))

    def __eq__(self, other):
        if not isinstance(other, EigenWeight):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
    return EigenWeight._of(tuple(coeffs))
