"""Differential one-forms on projective three-space.

A form is a 4-tuple of coefficient polynomials (A0, A1, A2, A3) against
dx0..dx3.  Coefficients may involve fiber parameters as well as the
coordinates; only x0..x3 are differentiated.  A printed form is read
by ``parse_form`` with the polynomial grammar: dx0..dx3 are variables
of the ``ratpoly`` alphabet, and the text must be linear in them.

The central construction is ``build_omega``: for a cubic f and a quadric
g it forms 3*f*dg - 2*g*df and removes the factor x0 exactly.
The result is projective (contracts to zero against the Euler field) and
integrable (the Frobenius wedge vanishes), and both properties are cheap
to assert, so the blowup pipelines re-check them after every step.
"""

from fractions import Fraction

from .ratpoly import Polynomial, parse_poly, substitute_all

COORDS = ("x0", "x1", "x2", "x3")
DIFFERENTIALS = ("dx0", "dx1", "dx2", "dx3")


class OneForm:
    """Coefficients of a one-form in the fixed coordinate frame."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        comps = tuple(comps)
        if len(comps) != 4:
            raise ValueError("a one-form needs exactly four components")
        self.comps = comps

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def __sub__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return OneForm(a - b for a, b in zip(self.comps, other.comps))

    def __mul__(self, other):
        return OneForm(c * other for c in self.comps)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.comps == other.comps

    def substitute(self, mapping):
        return OneForm(substitute_all(self.comps, mapping))

    def exact_divide(self, divisor, context=None):
        return OneForm(c.exact_divide(divisor, context=context)
                       for c in self.comps)

    def proportional(self, other):
        """Single rational ratio between two forms, or None.

        The ratio must be shared by all four components; components that
        are zero on both sides are ignored.
        """
        ratio = None
        for a, b in zip(self.comps, other.comps):
            if a.is_zero() and b.is_zero():
                continue
            if a.is_zero() or b.is_zero():
                return None
            r = a.proportional(b)
            if r is None:
                return None
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        if ratio is None:
            return Fraction(1)
        return ratio

    def euler_pairing(self):
        """Contraction against the Euler vector field, sum x_i * A_i."""
        acc = Polynomial.zero()
        for name, comp in zip(COORDS, self.comps):
            acc = acc + Polynomial.variable(name) * comp
        return acc

    def __str__(self):
        parts = []
        for name, comp in zip(COORDS, self.comps):
            if not comp.is_zero():
                parts.append("(%s)*d%s" % (comp, name))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def differential(poly):
    """Exterior derivative in the coordinates, ignoring parameters."""
    return OneForm(poly.partial(name) for name in COORDS)


def build_omega(f, g):
    """Generator form attached to a cubic/quadric pair.

    Computes 3*f*dg - 2*g*df, then strips one factor of x0 exactly, as
    the paper's omega does.  Raises NotDivisible if the strip fails,
    which flags a pair that does not actually produce a projective form
    along this chart.
    """
    raw = 3 * f * differential(g) - 2 * g * differential(f)
    return raw.exact_divide(Polynomial.variable("x0"),
                            context=("initial", "x0"))


def integrability_defect(form):
    """Coefficients of the Frobenius wedge of the form with its own derivative.

    Returns the four independent coefficients B_{ijk} (i<j<k) of
    omega ^ d(omega); the form defines a foliation exactly when all four
    vanish.
    """
    a = form.comps
    d = [[a[k].partial(COORDS[j]) for j in range(4)] for k in range(4)]
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                b = (a[i] * (d[k][j] - d[j][k])
                     + a[j] * (d[i][k] - d[k][i])
                     + a[k] * (d[j][i] - d[i][j]))
                out.append(b)
    return out


def is_integrable(form):
    return all(b.is_zero() for b in integrability_defect(form))


def vanishes_on(form, parametrization):
    """Check that every component dies on a parametrized curve.

    parametrization: four polynomials in the y-symbols giving
    x0..x3.  Substitution happens component-wise; the form vanishes on
    the curve when all four pullback coefficients are zero.
    """
    mapping = {name: p for name, p in zip(COORDS, parametrization)}
    return all(c.substitute(mapping).is_zero() for c in form.comps)


def parse_form(text):
    """Parse 'P0*dx0 + P1*dx1 + ...' as a polynomial linear in dx0..dx3.

    Any ``parse_poly`` text is read, so ``x0*(dx0 + dx1)`` equals
    ``x0*dx0 + x0*dx1``.  Raises ValueError unless every term holds
    exactly one differential, to the first power.  Used for the printed
    forms and table cells.
    """
    parts = parse_poly(text).coefficients_in(DIFFERENTIALS)
    comps = [parts.pop(tuple(int(i == j) for j in range(4)),
                       Polynomial.zero()) for i in range(4)]
    if parts:
        raise ValueError("%r is not linear in dx0..dx3" % text)
    return OneForm(comps)


# ---------------------------------------------------------------------------
# Reference foliation: a pair whose generator form is known in closed
# form and whose singular set splits into a line, a conic and a twisted
# cubic with explicit parametrizations.
# ---------------------------------------------------------------------------

SAMPLE_CUBIC = "x0^2*x3 - x0*x1*x2 + 1/3*x1^3"
SAMPLE_QUADRIC = "x0*x2 - 1/2*x1^2"
SAMPLE_FORM = (
    "(x1*x2^2 - 2*x1^2*x3 + x0*x2*x3)*dx0"
    " + (3*x0*x1*x3 - 2*x0*x2^2)*dx1"
    " + (x0*x1*x2 - 3*x0^2*x3)*dx2"
    " + (2*x0^2*x2 - x0*x1^2)*dx3")
SAMPLE_CURVES = (
    ("line", ("0", "0", "y0", "y1")),
    ("conic", ("0", "y0^2", "2*y0*y1", "2*y1^2")),
    ("cubic", ("6*y0^3", "6*y0^2*y1", "3*y0*y1^2", "y1^3")),
)


def sample_foliation_report():
    """Run every closed-form check on the reference pair.

    Returns (checks, ratio) where checks is an ordered list of
    (label, bool) and ratio is the scalar between the computed form and
    its printed expansion.
    """
    f = parse_poly(SAMPLE_CUBIC)
    g = parse_poly(SAMPLE_QUADRIC)
    form = build_omega(f, g)
    printed = parse_form(SAMPLE_FORM)
    ratio = form.proportional(printed)
    checks = [("matches printed expansion", ratio is not None and ratio != 0)]
    checks.append(("projective", form.euler_pairing().is_zero()))
    checks.append(("integrable", is_integrable(form)))
    for label, curve in SAMPLE_CURVES:
        param = [parse_poly(p) for p in curve]
        checks.append(("vanishes on %s" % label, vanishes_on(form, param)))
    return checks, ratio
