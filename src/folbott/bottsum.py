"""Equivariant residue sums over the fixed-point catalog.

The sum of one flag runs over the 72 isolated points and the 5 fixed
lines of ``fixlocus.build_catalog``.  Its records do not depend on the
flag, so the reference flag's catalog is read once, on first use, into
the weight arrangement below: the denominators as primitive forms,
and each nu and fiber weight as a 4-tuple in the local frame.  On a
flag each of those is one int dot product with the local weight vector
``[w[i] for i in flag]``.

A point contributes -nu^p / prod(t); the 72 of them are added as one
integer fraction, and points sharing a nu weight share one numerator.
A line's residue is the h-coefficient of
-nu^p * prod(n_i + d_i h)^-1 with h*h = 0, where d1..d30 are the
unknown twist degrees of the line normal bundles.  Since
prod(n_i + d_i h) = N (1 + sum(d_i / n_i) h) with N = prod(n_i), that
coefficient is sum(nu^p / (N n_i) * d_i): no constant, and one
closed-form coefficient per twist slot.  The result is an
affine-linear form in d1..d30 (TwistLinear), stored as one integer
row, 30 twist numerators and then the constant, over one positive
denominator in lowest terms.

This is the only residue arithmetic in the package.  The generic
route, a first-order dual class carrying {slot: Fraction} linear forms
and evaluated record by record with Fraction dot products, lives in
``tests/oracle.py`` as the independent check of this one.

Only nu^p and the fiber powers depend on the power p.  So
``flag_residues(flag, w)`` computes the rest once, as a FlagResidues:
a common denominator D of every point and line term, each nu value
with its integer numerator over D, and each line's fiber value with
one integer numerator over D per twist slot.  Its ``row(p)`` is the
flag's raw sum at power p, a dozen powers and one integer row over D
that is not reduced; ``at(p)`` is that row in lowest terms, a
TwistLinear, and ``contribution_sum(flag, w, p)`` is
``flag_residues(flag, w).at(p)``.

D comes from the catalog's weight arrangement (``_arrangement``).
Each tangent and normal weight is an integer s times a primitive form
L, and 18 forms occur in the denominators, each at most M times in
one term (the M sum to 29); K = 12 is the lcm of the terms' integer
constants c, the products of their s.  On a flag D is K * prod(L^M)
at the flag's weights: a common multiple of every term's denominator,
not their lcm, found with no gcd.  A term with exponents e has the
share (K / c) * prod(L^(M - e)) of it, an integer and a product of
powers of the 18 form values, and the factors a group of terms (the
points of one nu weight, the slots of one line) all carry are
multiplied in once per group, so no term needs a division.

Two orientations of the same sum are exposed.  ``contribution_sum``
adds the raw terms; substituting the solved twist relations into it
gives the fiber degree and, with the extra flag-tangent factors at
power 13, the component degree.  ``display_sum`` is its negative, the
orientation in which the reference coefficient freezes (the constant
49642909/3974400 and the d1 coefficient -729/320 on the identity flag
at weights (0, 1, 5, 25)) are stated.

One weight vector costs one pass over the 24 flags, whatever the
powers: ``relations.build_system`` keeps the 24 FlagResidues next to
their raw power-7 rows.  ``per_flag_fiber_values``, behind
``fiber_degree`` and ``fiber-degree --per-flag``, reuses those rows
when its weights and power match, and ``component_degree``,
``per_flag_degrees`` and the fiber values at any other power read
their rows off the kept FlagResidues when the weights match; only other
weights cost a pass of their own.

The degree path stays on raw integer rows until a value leaves it.
Each flag's raw row is substituted on its own, through the solved
relations' integer primitive ``reduce_row``, which leaves the constant
and the free columns; a per-flag value is that constant, checked to
have no free unknowns, as a Fraction.  ``component_degree`` reduces
each flag's power-13 row over its six flag-tangent weights first and
then adds the 24 reduced rows over their common denominator, so only
the constant and the free columns, zero at power 13, are scaled; the
check for leftover free unknowns runs once, on the summed free
columns, and the sum goes to lowest terms once, as the result.
Without relations (``--symbolic-d``) the same sum runs over all 31
columns and ends in one TwistLinear.  The flag sums always run
serially: they are pure-Python arithmetic, which threads do not speed
up under the interpreter lock.  Only ``component_degree`` still takes a
``jobs`` argument, and ignores it, because the jobs probe of
``perfbench`` passes one.
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
    constant and zero entries left out.  The engine builds forms from
    integer rows (``from_row``); negation is their only arithmetic.
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

    def __neg__(self):
        return TwistLinear.from_row([-n for n in self.nums], self.den)

    def __eq__(self, other):
        if not isinstance(other, TwistLinear):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

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


def _flag_label(flag):
    return ",".join(map(str, flag))


def _primitive(coeffs):
    """A weight 4-tuple as (L, s) with coeffs = s * L, L primitive and
    its first nonzero entry positive.  The zero tuple is its own form,
    with s = 1."""
    s = gcd(*coeffs) or 1
    if next((c for c in coeffs if c), 0) < 0:
        s = -s
    return tuple(c // s for c in coeffs), s


def _largest(exponents):
    """Each form's largest exponent over {form: exponent} dicts."""
    out = {}
    for exps in exponents:
        for form, k in exps.items():
            if k > out.get(form, 0):
                out[form] = k
    return out


class _Arrangement:
    """The catalog's denominators written over its primitive forms.

    Every tangent and normal weight is an integer s times a primitive
    form L (``_primitive``).  ``forms`` holds the forms that occur in a
    denominator, in order of first appearance (points, then lines, in
    catalog order), ``first`` the kind ("tangent" or "normal") and id
    of the record where each first appears, and ``powers`` each form's
    largest exponent M in one point's tangent product or one line
    slot's prod(n) * n_i.  ``scale`` is K, the lcm of those terms'
    integer constants c (the products of their s).  So a term with
    constant c and exponents e has a denominator that divides
    K * prod(L^M), and its share of that common multiple is the
    integer (K / c) * prod(L^(M - e)).

    The shares are grouped as the sums need them: points by their nu
    weight, line slots by their line.  A group's smallest cofactor,
    prod(L^(M - e_max)) with e_max the group's largest exponents, is
    ``common``, and each member keeps K / c and the indices of its
    remaining factors.  Factors are indices into the list of the form
    values' powers v, v^2, .., v^M, form by form (``flag_residues``).
    On the reference catalog: 18 forms, exponents summing to 29, K = 12.
    """

    __slots__ = ("forms", "first", "powers", "scale", "points", "lines")

    def __init__(self, catalog):
        first, split = {}, {}

        def factor(weights, kind, rid):
            exps, const = {}, 1
            for ew in weights:
                if ew.coeffs not in split:  # 42 distinct of 534 weights
                    split[ew.coeffs] = _primitive(ew.coeffs)
                form, s = split[ew.coeffs]
                exps[form] = exps.get(form, 0) + 1
                const *= s
                first.setdefault(form, (kind, rid))
            return exps, const

        point_terms = [
            (rec.nu.coeffs,) + factor(rec.tangent, "tangent", rec.id)
            for rec in catalog.points]
        line_terms = []
        for rec in catalog.lines:
            exps, const = factor(rec.normals, "normal", rec.id)
            slot_terms = []
            for ew, slot in zip(rec.normals, rec.slots):
                form, s = split[ew.coeffs]
                slot_exps = dict(exps)
                slot_exps[form] += 1
                slot_terms.append((slot - 1, slot_exps, const * s))
            line_terms.append((rec.wfiber.coeffs, slot_terms))
        terms = [t[1:] for t in point_terms] + \
            [t[1:] for _, slot_terms in line_terms for t in slot_terms]
        forms = tuple(first)
        top = _largest(exps for exps, _ in terms)
        scale = lcm(*(const for _, const in terms))
        offset, n = {}, 0
        for form in forms:
            offset[form] = n
            n += top[form]

        def factors(more, less):
            # The power-list indices of prod(L^(more - less)).
            return tuple(offset[form] + k - 1 for form, k0 in more.items()
                         for k in [k0 - less.get(form, 0)] if k)

        def group(members):
            # Pull out the factors every member's share carries.
            most = _largest(exps for exps, _ in members)
            return factors(top, most), tuple(
                (scale // const, factors(most, exps))
                for exps, const in members)

        by_nu = {}
        for nu, exps, const in point_terms:
            by_nu.setdefault(nu, []).append((exps, const))
        self.forms = forms
        self.first = tuple(first.values())
        self.powers = tuple(top[form] for form in forms)
        self.scale = scale
        self.points = tuple((nu,) + group(members)
                            for nu, members in by_nu.items())
        lines = []
        for fiber, slot_terms in line_terms:
            common, shares = group([t[1:] for t in slot_terms])
            lines.append((fiber, common, tuple(
                (j, coef, idx)
                for (j, _, _), (coef, idx) in zip(slot_terms, shares))))
        self.lines = tuple(lines)


@cache
def _arrangement():
    """The _Arrangement of the reference-flag catalog, derived on first
    use.  The records do not depend on the flag, so it serves all 24."""
    return _Arrangement(build_catalog((0, 1, 2, 3)))


class FlagResidues:
    """One flag's residue sum with the power left open.

    Everything but the powers of the nu and fiber values is fixed once
    the weights are: ``den`` is K * prod(L^M) over the catalog's
    arrangement (``_Arrangement``), a common multiple of every point's
    tangent product and every line's prod(n) * n_i, though not always
    their lcm; ``points`` holds (nu value, sum of den // prod(t) over
    the points with that nu weight), and ``lines`` holds (fiber value,
    (slot index, den // (prod(n) * n_i)) per slot).  ``row(power)`` is
    then the flag's sum at that power: a few powers and products, and
    one integer row over ``den``.
    """

    __slots__ = ("den", "points", "lines")

    def __init__(self, den, points, lines):
        self.den = den
        self.points = points
        self.lines = lines

    def row(self, power):
        """The raw residue sum at ``power`` as an integer row (d1..d30,
        then the constant) over ``den``, not reduced."""
        _check_power(power)
        row = [0] * WIDTH
        row[NUM_SLOTS] = -sum(nu ** power * q for nu, q in self.points)
        for fiber, entries in self.lines:
            top = fiber ** power
            if top:
                for j, value in entries:
                    row[j] = top * value
        return row

    def at(self, power):
        """The raw residue sum at ``power`` in lowest terms (see
        ``contribution_sum``)."""
        return TwistLinear.from_row(self.row(power), self.den)


def _check_power(power):
    if power < 0:
        raise ValueError("power must be a nonnegative integer")


def flag_residues(flag, w):
    """The power-free part of one flag's residue sum (FlagResidues).

    Each form of the arrangement is evaluated once.  A zero value
    raises DivByZeroWeight naming the first record, in catalog order,
    whose denominator carries that form, and the flag.  Each share of
    the common denominator is a product of powers of the form values:
    no gcd and no division.  See the module docstring.
    """
    plan = _arrangement()
    a, b, c, d = [w[i] for i in flag]
    vals = [t0 * a + t1 * b + t2 * c + t3 * d
            for t0, t1, t2, t3 in plan.forms]
    if not all(vals):
        kind, rid = plan.first[vals.index(0)]
        raise DivByZeroWeight("zero %s weight in %s on flag %s"
                              % (kind, rid, _flag_label(flag)))
    pw = []
    den = plan.scale
    for v, top in zip(vals, plan.powers):
        x = v
        pw.append(x)
        for _ in range(1, top):
            x *= v
            pw.append(x)
        den *= x
    points = []
    for (t0, t1, t2, t3), common, members in plan.points:
        total = 0
        for share, factors in members:
            for i in factors:
                share *= pw[i]
            total += share
        for i in common:
            total *= pw[i]
        points.append((t0 * a + t1 * b + t2 * c + t3 * d, total))
    lines = []
    for (t0, t1, t2, t3), common, members in plan.lines:
        g = 1
        for i in common:
            g *= pw[i]
        entries = []
        for j, share, factors in members:
            for i in factors:
                share *= pw[i]
            entries.append((j, share * g))
        lines.append((t0 * a + t1 * b + t2 * c + t3 * d, tuple(entries)))
    return FlagResidues(den, tuple(points), tuple(lines))


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
    if relations is not None and relations.system.w == w:
        return relations.system.residues
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
    """The 24 flag sums at ``power``, substituted.  The raw rows of the
    relations' own system are reused when its weights and power are
    these, and its FlagResidues when only the weights are."""
    w = tuple(validate_weights(w))
    system = relations.system
    if (system.w, system.power) == (w, power):
        rows = system.sum_rows
    else:
        rows = [(r.row(power), r.den) for r in _residues_for(w, relations)]
    return [(flag, relations.collapse(*relations.reduce_row(row, den)))
            for flag, (row, den) in zip(enumerate_fixed_flags(), rows)]


def _summands(w, power, relations):
    """Each flag's raw row at ``power`` over its denominator times its
    six flag-tangent weights."""
    return [(r.row(power), r.den * flag_tangent_product(flag, w))
            for flag, r in zip(enumerate_fixed_flags(),
                               _residues_for(w, relations))]


def _add_rows(summands):
    """The sum of integer rows over denominators, as one integer row
    over the lcm of the denominators; zero entries are not scaled."""
    den = lcm(*(d for _, d in summands))
    total = [0] * WIDTH
    for row, d in summands:
        scale = den // d
        for j, n in enumerate(row):
            if n:
                total[j] += n * scale
    return total, den


def component_degree(w, power=13, relations=None, jobs=1):
    """Global residue sum: each flag's sum over its six flag-tangent
    weights, substituted flag by flag, then added across all 24 flags
    over one common denominator.  Without relations the unsubstituted
    sum comes back as a TwistLinear."""
    w = tuple(validate_weights(w))
    summands = _summands(w, power, relations)
    if relations is None:
        return TwistLinear.from_row(*_add_rows(summands))
    return relations.collapse(*_add_rows(
        [relations.reduce_row(row, den) for row, den in summands]))


def per_flag_degrees(w, relations, power=13):
    """The 24 flag summands of the global degree, substituted."""
    w = tuple(validate_weights(w))
    return [(flag, relations.collapse(*relations.reduce_row(row, den)))
            for flag, (row, den) in zip(enumerate_fixed_flags(),
                                        _summands(w, power, relations))]


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
