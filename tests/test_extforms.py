import pytest
from hypothesis import given, settings, strategies as st

from folbott.extforms import (build_omega, is_integrable, parse_form,
                              sample_foliation_report, vanishes_on)
from folbott.ratpoly import Polynomial, parse_poly


def test_known_pair_gives_printed_form():
    form = build_omega(parse_poly("x0^2*x2"), parse_poly("x0*x1"))
    assert form == parse_form(
        "-x0*x1*x2*dx0 + 3*x0^2*x2*dx1 - 2*x0^2*x1*dx2")


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


def test_omega_is_bilinear():
    f, g = parse_poly("x0^2*x3"), parse_poly("x0*x2")
    lhs = build_omega(5 * f, -3 * g)
    assert lhs == build_omega(f, g) * (-15)


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
                                  "dx0*dx1"])
def test_parse_form_rejects_terms_not_linear_in_the_differentials(text):
    with pytest.raises(ValueError):
        parse_form(text)


def test_parse_form_distributes_over_parentheses():
    assert parse_form("x0*(dx0 + dx1)") == parse_form("x0*dx0 + x0*dx1")
