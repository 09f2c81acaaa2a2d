"""Differential one-forms on projective three-space.

A form is one polynomial linear in dx0..dx3, sum A_i*dx_i: dx0..dx3 are
variables of the ``ratpoly`` alphabet, so the form substitutes and
compares as a ``Polynomial``, and a printed form is read by
``parse_form`` with the polynomial grammar.  The coefficients
(A0, A1, A2, A3) may involve fiber parameters as well as the
coordinates; only x0..x3 are differentiated.

The central construction is ``build_omega``: for a cubic f and a quadric
g it forms 3*f*dg - 2*g*df and removes the factor x0 exactly.
The result is projective (contracts to zero against the Euler field) and
integrable (the Frobenius wedge vanishes).  The blowup pipelines
re-check only the first, on every chart of every stage; integrability is
checked on the reference pair by ``sample_foliation_report``
(``folbott singular-locus``).
"""

from .ratpoly import Polynomial, parse_poly, variable_combination

COORDS = ("x0", "x1", "x2", "x3")
DIFFERENTIALS = ("dx0", "dx1", "dx2", "dx3")
_UNITS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
_EULER = {d: Polynomial.variable(x) for d, x in zip(DIFFERENTIALS, COORDS)}


class OneForm:
    """A one-form as the polynomial sum A_i*dx_i."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        self.poly = poly

    @property
    def comps(self):
        """(A0, A1, A2, A3); ValueError unless every term holds exactly
        one differential, to the first power."""
        parts = self.poly.coefficients_in(DIFFERENTIALS)
        comps = tuple(parts.pop(unit, Polynomial.zero()) for unit in _UNITS)
        if parts:
            raise ValueError("%s is not linear in dx0..dx3" % self.poly)
        return comps

    def is_zero(self):
        return self.poly.is_zero()

    def substitute(self, mapping):
        return OneForm(self.poly.substitute(mapping))

    def proportional(self, other):
        """Single rational ratio between two forms, or None."""
        return self.poly.proportional(other.poly)

    def euler_pairing(self):
        """Contraction against the Euler vector field, sum x_i * A_i."""
        return self.poly.substitute(_EULER)

    def __str__(self):
        parts = []
        for name, comp in zip(DIFFERENTIALS, self.comps):
            if not comp.is_zero():
                parts.append("(%s)*%s" % (comp, name))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def differential(poly):
    """Exterior derivative in the coordinates, ignoring parameters, as
    the polynomial sum dp/dx_i * dx_i."""
    return variable_combination(
        DIFFERENTIALS, [poly.partial(name) for name in COORDS])


def build_omega(f, g):
    """Generator form attached to a cubic/quadric pair.

    Computes 3*f*dg - 2*g*df, then strips one factor of x0 exactly, as
    the paper's omega does.  Raises NotDivisible if the strip fails,
    which flags a pair that does not actually produce a projective form
    along this chart.
    """
    raw = 3 * f * differential(g) - 2 * g * differential(f)
    return OneForm(raw.exact_divide("x0", context=("initial", "x0")))


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
    """Check that the form dies on a parametrized curve.

    parametrization: four polynomials in the y-symbols giving x0..x3.
    The differentials stay symbolic, so the pullback is zero exactly
    when all four of its coefficients are.
    """
    mapping = {name: p for name, p in zip(COORDS, parametrization)}
    return form.substitute(mapping).is_zero()


def parse_form(text):
    """Parse 'P0*dx0 + P1*dx1 + ...' as a polynomial linear in dx0..dx3.

    Any ``parse_poly`` text is read, so ``x0*(dx0 + dx1)`` equals
    ``x0*dx0 + x0*dx1``.  Raises ValueError unless every term holds
    exactly one differential, to the first power.  Used for the printed
    forms and table cells.
    """
    form = OneForm(parse_poly(text))
    try:
        form.comps
    except ValueError:
        raise ValueError("%r is not linear in dx0..dx3" % text) from None
    return form


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
