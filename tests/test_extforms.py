import pytest
from hypothesis import given, settings, strategies as st

from folbott.extforms import (COORDS, DIFFERENTIALS, OneForm, build_omega,
                              integrability_defect, is_integrable,
                              parse_form, sample_foliation_report,
                              vanishes_on)
from folbott.ratpoly import Polynomial, parse_poly
from test_ratpoly import monomial


def test_known_pair_gives_printed_form():
    form = build_omega(parse_poly("x0^2*x2"), parse_poly("x0*x1"))
    assert form.comps == parse_form(
        "-x0*x1*x2*dx0 + 3*x0^2*x2*dx1 - 2*x0^2*x1*dx2").comps


def test_degenerate_pair_gives_zero():
    form = build_omega(parse_poly("x0^3"), parse_poly("x0^2"))
    assert form.is_zero()


def cubic_quadric_pairs():
    mono3 = st.sampled_from(["x0^3", "x0^2*x1", "x0^2*x2", "x0^2*x3",
                             "x0*x1^2", "x0*x1*x2"])
    mono2 = st.sampled_from(["x0^2", "x0*x1", "x0*x2", "x0*x3"])
    coeff = st.integers(min_value=-2, max_value=2)

    def build(row):
        (m3, c3), (m2, c2) = row
        f = Polynomial.constant(c3) * parse_poly(m3)
        g = Polynomial.constant(c2) * parse_poly(m2)
        return f, g

    return st.tuples(st.tuples(mono3, coeff), st.tuples(mono2, coeff)).map(build)


@settings(max_examples=40)
@given(cubic_quadric_pairs())
def test_omega_is_projective_and_integrable(pair):
    """Monomial pairs through x0 stay divisible, Euler-orthogonal and
    Frobenius-integrable."""
    f, g = pair
    form = build_omega(f, g)
    assert form.euler_pairing().is_zero()
    assert is_integrable(form)


def form_components():
    """Coefficients in the coordinates and one chart parameter."""
    names = ("x0", "x1", "x3", "b1")
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    expo = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)

    def build(terms):
        return sum((monomial(dict(zip(names, e)), c) for e, c in terms),
                   Polynomial.zero())

    return st.lists(st.tuples(expo, coeff), max_size=3).map(build)


@settings(max_examples=60)
@given(st.lists(form_components(), min_size=4, max_size=4))
def test_euler_pairing_is_the_sum_of_coordinate_products(comps):
    reference = Polynomial.zero()
    poly = Polynomial.zero()
    for name, diff, comp in zip(COORDS, DIFFERENTIALS, comps):
        reference = reference + Polynomial.variable(name) * comp
        poly = poly + Polynomial.variable(diff) * comp
    form = OneForm(poly)
    assert form.comps == tuple(comps)
    assert form.euler_pairing() == reference


def test_omega_is_bilinear():
    f, g = parse_poly("x0^2*x3"), parse_poly("x0*x2")
    lhs = build_omega(5 * f, -3 * g)
    assert lhs.poly == build_omega(f, g).poly * (-15)


def test_reference_pair_full_report():
    checks, ratio = sample_foliation_report()
    assert all(ok for _, ok in checks)
    assert ratio == -1


def test_parametrizations_lie_on_their_curves():
    conic = {"x0": parse_poly("0"), "x1": parse_poly("y0^2"),
             "x2": parse_poly("2*y0*y1"), "x3": parse_poly("2*y1^2")}
    assert parse_poly("x2^2 - 2*x1*x3").substitute(conic).is_zero()
    cubic = {"x0": parse_poly("6*y0^3"), "x1": parse_poly("6*y0^2*y1"),
             "x2": parse_poly("3*y0*y1^2"), "x3": parse_poly("y1^3")}
    for gen in ["2*x2^2 - 3*x1*x3", "x1*x2 - 3*x0*x3", "x1^2 - 2*x0*x2"]:
        assert parse_poly(gen).substitute(cubic).is_zero()


def test_generic_line_is_not_in_the_singular_set():
    from folbott.extforms import SAMPLE_CUBIC, SAMPLE_QUADRIC
    form = build_omega(parse_poly(SAMPLE_CUBIC), parse_poly(SAMPLE_QUADRIC))
    generic = [parse_poly(t) for t in ("y0", "y1", "0", "0")]
    assert not vanishes_on(form, generic)


def test_parse_form_reads_a_bare_differential():
    form = parse_form("dx0")
    assert form.comps[0] == Polynomial.constant(1)
    assert all(c.is_zero() for c in form.comps[1:])


@pytest.mark.parametrize("text", ["x0", "x0*dx0 + 1", "x0*dx0^2",
                                  "dx0*dx1", "q*dx0"])
def test_parse_form_rejects_terms_not_linear_in_the_differentials(text):
    with pytest.raises(ValueError):
        parse_form(text)


def test_parse_form_distributes_over_parentheses():
    assert parse_form("x0*(dx0 + dx1)").comps \
        == parse_form("x0*dx0 + x0*dx1").comps


@pytest.mark.parametrize("text", ["x0*dx0*dx1", "x0"])
def test_comps_reject_a_polynomial_not_linear_in_the_differentials(text):
    with pytest.raises(ValueError):
        OneForm(parse_poly(text)).comps


def test_contact_form_is_projective_but_not_integrable():
    form = parse_form("x0*dx1 - x1*dx0 + x2*dx3 - x3*dx2")
    assert form.euler_pairing().is_zero()
    assert integrability_defect(form) == [
        parse_poly(t) for t in ("-2*x3", "2*x2", "-2*x1", "2*x0")]
    assert not is_integrable(form)
