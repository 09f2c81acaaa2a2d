from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from folbott.ratpoly import (MAX_DEGREE, VARIABLE_NAMES, NotDivisible,
                             Polynomial, format_poly, parse_poly)

# Two coordinates, a chart parameter and a stage fiber coordinate, so
# the packed exponent fields are far apart.
SMALL_VARIABLES = ("x0", "x1", "b1", "t3")


def monomial(exponents, coeff=1):
    """coeff * prod(var**exp) from a {name: exp} mapping."""
    term = Polynomial.constant(coeff)
    for name, e in exponents.items():
        term = term * Polynomial.variable(name) ** e
    return term


def small_polys():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    expo = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)

    def build(terms):
        p = Polynomial.zero()
        for exps, c in terms:
            p = p + monomial(dict(zip(SMALL_VARIABLES, exps)), c)
        return p

    return st.lists(st.tuples(expo, coeff), max_size=3).map(build)


def graded_lex_key(exponents):
    """The term order spelled out: total degree, then the exponent
    vector over VARIABLE_NAMES, earlier variables first."""
    return (sum(exponents), tuple(exponents))


def pairs(exponents):
    return tuple((i, e) for i, e in enumerate(exponents) if e)


exponent_vectors = st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]),
                            min_size=len(VARIABLE_NAMES),
                            max_size=len(VARIABLE_NAMES))


@settings(max_examples=100)
@given(exponent_vectors, exponent_vectors,
       st.permutations(range(len(VARIABLE_NAMES))), st.booleans())
def test_packed_order_is_graded_lex(e, f, perm, same_degree):
    if same_degree:
        f = [e[i] for i in perm]
    assume(sum(e) <= MAX_DEGREE and sum(f) <= MAX_DEGREE)
    a = monomial(dict(zip(VARIABLE_NAMES, e)))
    b = monomial(dict(zip(VARIABLE_NAMES, f)))
    (ka,), (kb,) = a.terms, b.terms
    assert (ka < kb) == (graded_lex_key(e) < graded_lex_key(f))
    assert (ka == kb) == (e == f)
    assert list(a.monomials()) == [(pairs(e), 1)]
    assert a.degree() == sum(e)
    expected = sorted({tuple(e), tuple(f)}, key=graded_lex_key, reverse=True)
    assert [m for m, _ in (a + b).monomials()] == [pairs(v) for v in expected]


def test_degree_past_the_field_limit_raises():
    x0, x1 = Polynomial.variable("x0"), Polynomial.variable("x1")
    top = x0 ** MAX_DEGREE
    assert list(top.monomials()) == [(((0, MAX_DEGREE),), 1)]
    assert top.exact_divide("x0") == x0 ** (MAX_DEGREE - 1)
    with pytest.raises(NotDivisible):
        (x1 ** MAX_DEGREE).exact_divide("x0")
    half = MAX_DEGREE // 2 + 1
    with pytest.raises(OverflowError):
        top * x1
    with pytest.raises(OverflowError):
        x0 ** (MAX_DEGREE + 1)
    with pytest.raises(OverflowError):
        (x0 * x1) ** half
    with pytest.raises(OverflowError):
        parse_poly("x0^%d" % (MAX_DEGREE + 1))
    with pytest.raises(OverflowError):
        parse_poly("x0^%d*x1^%d" % (half, half))
    with pytest.raises(OverflowError):
        monomial({"y3": MAX_DEGREE + 1})
    with pytest.raises(OverflowError):
        parse_poly("x0^%d" % half).substitute({"x0": x1 ** 2})


def test_parse_and_format_roundtrip():
    for text in ["x0^2 + 2*x1 - 1/2", "3*x0*x1^2 - x2", "0", "7",
                 "x1^3 - 1/3*x0*x2*x3"]:
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p


def test_parse_fraction_coefficients():
    p = parse_poly("1/3*x1^3")
    assert p.substitute({"x1": 3}).constant_value() == 9


@pytest.mark.parametrize("text", ["x0 x1", "(x0", "x0^", "x0^y", "1/",
                                  "1/x0", "$", "", "x0 +", "q", "1/0"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError) as err:
        parse_poly(text)
    assert repr(text) in str(err.value)


def test_parse_adds_plain_and_parenthesised_products_alike():
    x0, x1 = Polynomial.variable("x0"), Polynomial.variable("x1")
    assert parse_poly("1/2*x0 + (1/2)*x0") == x0
    assert parse_poly("x0*x1 - (x0)*x1").is_zero()
    assert parse_poly("0*x0 + 2*(x1) - x1") == x1


def test_unknown_names_are_parse_errors_but_variable_key_errors():
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        parse_poly("x0 + q")
    with pytest.raises(KeyError):
        Polynomial.variable("q")


def test_format_is_graded_lex():
    assert format_poly(parse_poly("2*x1 + x0^2 - 1/2")) == "x0^2 + 2*x1 - 1/2"


def test_product_difference_of_squares():
    x = Polynomial.variable("x0")
    one = Polynomial.constant(1)
    assert (x + one) * (x - one) == x * x - one


@settings(max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


def test_exact_divide_failure_carries_context():
    p = parse_poly("x0^2 + x1")
    with pytest.raises(NotDivisible) as err:
        p.exact_divide("x0", context=("here", 3))
    assert err.value.context == ("here", 3)


def test_exact_divide_failure_names_the_variable_and_the_term():
    # The message names the term left over, not the whole polynomial.
    p = parse_poly("x0^2*b1 + 3/2*x1*t3 - 4*x0")
    with pytest.raises(NotDivisible,
                       match=r"^x0 does not divide the term 3/2\*x1\*t3$"):
        p.exact_divide("x0")


exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
nonzero_fractions = st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4).filter(bool)


@settings(max_examples=60)
@given(small_polys(), st.sampled_from(SMALL_VARIABLES))
def test_one_term_divisor_inverts_multiplication(p, name):
    # The quotient keeps p's numerators and denominator as they are.
    quotient = (p * Polynomial.variable(name)).exact_divide(name)
    assert quotient == p
    assert (quotient.nums, quotient.den) == (p.nums, p.den)


@settings(max_examples=60)
@given(small_polys(), nonzero_fractions, exponents,
       st.sampled_from(range(len(SMALL_VARIABLES))))
def test_one_term_divisor_rejects_a_term_it_does_not_divide(p, c, exps,
                                                            index):
    # A term free of the variable is no multiple of it, and every term
    # of p times the variable is one, so nothing cancels it.
    name = SMALL_VARIABLES[index]
    free = dict(zip(SMALL_VARIABLES, exps))
    free[name] = 0
    stray = monomial(free, c)
    with pytest.raises(NotDivisible) as err:
        (p * Polynomial.variable(name) + stray).exact_divide(
            name, context=("chart", 1))
    assert err.value.context == ("chart", 1)


# The fiber coordinates of the blowup chart tests.  None of them is in
# SMALL_VARIABLES, so small_polys() draws polynomials free of them.
FIBERS = ("t0", "t1", "t2")
fiber_scales = st.lists(nonzero_fractions, min_size=3, max_size=3)
charts = st.integers(min_value=0, max_value=len(FIBERS) - 1)


def translated_forms():
    """Forms in a center's coordinates with no fiber-free term: sums of
    small polynomials times nonconstant monomials in the fibers."""
    fiber_exponents = st.tuples(*[st.integers(min_value=0, max_value=2)]
                                * len(FIBERS)).filter(any)

    def build(parts):
        form = Polynomial.zero()
        for exps, p in parts:
            form = form + monomial(dict(zip(FIBERS, exps))) * p
        return form

    return st.lists(st.tuples(fiber_exponents, small_polys()),
                    max_size=3).map(build)


def centers():
    """Nonconstant centers of one and two terms."""
    term = st.tuples(exponents, nonzero_fractions).map(
        lambda t: monomial(dict(zip(SMALL_VARIABLES, t[0])), t[1]))
    return st.lists(term, min_size=1, max_size=2).map(
        lambda ts: sum(ts, Polynomial.zero())).filter(
        lambda p: not p.is_constant())


def pullback(fibers, chart, center):
    """The chart's substitution of the fibers: name_j -> name_j*s_j*center
    for j != chart, and name_chart -> s_chart*center."""
    return {name: (scale * center if j == chart
                   else Polynomial.variable(name) * center * scale)
            for j, (name, scale) in enumerate(fibers)}


def blowup_chart(form, fibers, chart, center, context=None):
    """One chart of a blowup by the route of ``resolve._run_stage``:
    ``form`` is written in the center's coordinates, fibers[j] = (name_j,
    s_j) with name_j standing for y_j.  Each name_j is marked name_j*h,
    one h is divided out, and the chart's substitution sends name_j to
    name_j*s_j for j != chart, name_chart to s_chart and h to center."""
    h = Polynomial.variable("h")
    divided = form.substitute(
        {name: Polynomial.variable(name) * h for name, _ in fibers}
    ).exact_divide("h", context=context)
    mapping = {name: scale if j == chart
               else Polynomial.variable(name) * scale
               for j, (name, scale) in enumerate(fibers)}
    mapping["h"] = center
    return divided.substitute(mapping)


@settings(max_examples=60)
@given(translated_forms(), small_polys(), centers(), fiber_scales, charts)
def test_blowup_chart_inverts_multiplication(form, p, center, scales, chart):
    fibers = list(zip(FIBERS, scales))
    assert (blowup_chart(form, fibers, chart, center) * center
            == form.substitute(pullback(fibers, chart, center)))
    # p*y_chart pulls back to p*center, since p holds no fiber.
    y = Polynomial.variable(FIBERS[chart]) * (1 / scales[chart])
    assert blowup_chart(p * y, fibers, chart, center) == p


@settings(max_examples=60)
@given(translated_forms(), centers(), fiber_scales, charts)
def test_blowup_chart_rejects_a_remainder(form, center, scales, chart):
    with pytest.raises(NotDivisible) as err:
        blowup_chart(form + 1, list(zip(FIBERS, scales)), chart, center,
                     context=("stage", 2, 1))
    assert err.value.context == ("stage", 2, 1)


def test_blowup_chart_failure_carries_context():
    form = parse_poly("t0*x1 + x0")
    with pytest.raises(NotDivisible) as err:
        blowup_chart(form, [("t0", Fraction(1)), ("t1", Fraction(1, 2))], 1,
                     parse_poly("b1 - x1"), context=("chart", 3))
    assert err.value.context == ("chart", 3)


def test_blowup_chart_of_a_binomial_center():
    # y0 = t0*(b1 - 2)/2 and y1 = (b1 - 2)/3 on chart 1; one factor of
    # the center divides out of each term.
    form = parse_poly("t0*t1 + 5*t1 + x0*t0")
    fibers = [("t0", Fraction(1, 2)), ("t1", Fraction(1, 3))]
    assert blowup_chart(form, fibers, 1, parse_poly("b1 - 2")) == \
        parse_poly("1/6*t0*b1 - 1/3*t0 + 5/3 + 1/2*x0*t0")


@settings(max_examples=60)
@given(small_polys(), small_polys())
def test_substitution_is_a_homomorphism(p, q):
    mapping = {"x0": parse_poly("x1 + 1"), "x1": Fraction(2)}
    assert (p * q).substitute(mapping) == \
        p.substitute(mapping) * q.substitute(mapping)
    assert (p + q).substitute(mapping) == \
        p.substitute(mapping) + q.substitute(mapping)


def expand_term_by_term(p, mapping):
    """Substitution spelled out with products and powers only."""
    out = Polynomial.zero()
    for mono, c in p.monomials():
        term = Polynomial.constant(c)
        for idx, e in mono:
            name = VARIABLE_NAMES[idx]
            term = term * mapping.get(name, Polynomial.variable(name)) ** e
        out = out + term
    return out


def one_term_values():
    """Values that fold into each monomial: ints, Fractions and one-term
    polynomials, zero among each."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    monomials = st.tuples(exponents, coeff).map(
        lambda t: monomial(dict(zip(SMALL_VARIABLES, t[0])), t[1]))
    return st.one_of(st.integers(min_value=-2, max_value=2), coeff,
                     monomials)


substitution_mappings = st.one_of(
    st.dictionaries(st.sampled_from(SMALL_VARIABLES),
                    st.one_of(small_polys(), one_term_values())),
    st.dictionaries(st.sampled_from(SMALL_VARIABLES), one_term_values()))


@settings(max_examples=100)
@given(small_polys(), small_polys(), substitution_mappings)
def test_substitute_matches_term_by_term_expansion(p, q, mapping):
    # Values may be zero, rationals, one term (folded into each
    # monomial) or several terms (grouped), and may contain the replaced
    # variables.  A mapping of folded values only leaves every term in
    # the unmultiplied group.
    expected = [expand_term_by_term(p, mapping),
                expand_term_by_term(q, mapping)]
    assert [p.substitute(mapping), q.substitute(mapping)] == expected
    assert p.substitute(mapping) == expected[0]


def test_one_term_values_replace_simultaneously():
    x0, x1 = Polynomial.variable("x0"), Polynomial.variable("x1")
    p = parse_poly("x0^2*x1 + 3*x0 - x1^3")
    assert p.substitute({"x0": x1, "x1": 2 * x0}) == \
        parse_poly("2*x0*x1^2 + 3*x1 - 8*x0^3")


def test_coefficients_in_groups_by_exponent():
    p = parse_poly("a0*x0^2 + 3*a1*x0^2 + b0*x1")
    grouped = p.coefficients_in(("x0", "x1"))
    assert grouped[(2, 0)] == parse_poly("a0 + 3*a1")
    assert grouped[(0, 1)] == parse_poly("b0")


def test_proportional():
    p = parse_poly("2*x0 + 4*x1")
    q = parse_poly("x0 + 2*x1")
    assert p.proportional(q) == 2
    assert p.proportional(parse_poly("x0 + x1")) is None
    assert Polynomial.zero().proportional(Polynomial.zero()) == 1

