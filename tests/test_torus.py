from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from folbott.torus import (DivByZeroWeight, EigenWeight, WeightError,
                           enumerate_fixed_flags, flag_tangent_product,
                           format_weight, parse_weight, validate_weights)
from oracle import DualClass, evaluate


def test_validate_accepts_the_default_vector():
    assert validate_weights((0, 1, 5, 25)) == (0, 1, 5, 25)
    validate_weights((0, 1, 7, 37))
    validate_weights((1, 2, 9, 41))


def test_validate_rejects_pair_collision():
    with pytest.raises(WeightError) as err:
        validate_weights((0, 1, 2, 3))
    assert "w0+w3 = w1+w2" in str(err.value)


@pytest.mark.parametrize("entry", [25.0, Fraction(25), "25"],
                         ids=["float", "fraction", "string"])
def test_validate_rejects_an_entry_that_is_not_an_int(entry):
    with pytest.raises(TypeError) as err:
        validate_weights((0, 1, 5, entry))
    assert "w3" in str(err.value)
    assert repr(entry) in str(err.value)


def test_validate_rejects_repeated_weight():
    with pytest.raises(WeightError):
        validate_weights((1, 1, 5, 25))


@pytest.mark.parametrize("w, message", [
    ((0, 1, 2, 3),
     "w0+w2 = w1+w1 = 2; w0+w3 = w1+w2 = 3; w1+w3 = w2+w2 = 4; "
     "w0+w0+w2 = w0+w1+w1 = 2; w0+w0+w3 = w0+w1+w2 = 3; "
     "w0+w1+w3 = w0+w2+w2 = 4; w0+w0+w3 = w1+w1+w1 = 3; "
     "w0+w1+w3 = w1+w1+w2 = 4; w0+w2+w3 = w1+w1+w3 = 5; "
     "w0+w2+w3 = w1+w2+w2 = 5; w0+w3+w3 = w1+w2+w3 = 6; "
     "w0+w3+w3 = w2+w2+w2 = 6; w1+w3+w3 = w2+w2+w3 = 7"),
    ((1, 1, 5, 25),
     "w0 = w1 = 1; w0+w0 = w0+w1 = 2; w0+w0 = w1+w1 = 2; "
     "w0+w2 = w1+w2 = 6; w0+w3 = w1+w3 = 26; w0+w0+w0 = w0+w0+w1 = 3; "
     "w0+w0+w0 = w0+w1+w1 = 3; w0+w0+w2 = w0+w1+w2 = 7; "
     "w0+w0+w3 = w0+w1+w3 = 27; w0+w0+w0 = w1+w1+w1 = 3; "
     "w0+w0+w2 = w1+w1+w2 = 7; w0+w0+w3 = w1+w1+w3 = 27; "
     "w0+w2+w2 = w1+w2+w2 = 11; w0+w2+w3 = w1+w2+w3 = 31; "
     "w0+w3+w3 = w1+w3+w3 = 51"),
])
def test_validate_names_every_collision_in_order(w, message):
    with pytest.raises(WeightError) as err:
        validate_weights(w)
    assert str(err.value) == "weight vector is too special: " + message
    assert err.value.collisions == message.split("; ")


def _labelled_collisions(w):
    """Every pair of equal monomial sums of one size, labelled."""
    out = []
    for size in (1, 2, 3):
        seen = {}
        for combo in combinations_with_replacement(range(4), size):
            total = sum(w[i] for i in combo)
            label = "+".join("w%d" % i for i in combo)
            if total in seen:
                out.append("%s = %s = %s" % (seen[total], label, total))
            else:
                seen[total] = label
    return out


@settings(max_examples=200)
@given(st.tuples(*[st.integers(-6, 6)] * 4))
def test_validate_rejects_exactly_the_labelled_collisions(w):
    expected = _labelled_collisions(w)
    if not expected:
        assert validate_weights(w) == w
        return
    with pytest.raises(WeightError) as err:
        validate_weights(w)
    assert err.value.collisions == expected


def test_flag_enumeration():
    flags = enumerate_fixed_flags()
    assert len(flags) == 24
    assert len(set(flags)) == 24
    assert flags[0] == (0, 1, 3, 2)
    assert flags[1] == (0, 1, 2, 3)
    assert flags[6] == (1, 0, 3, 2)
    for flag in flags:
        assert sorted(flag) == [0, 1, 2, 3]
    # The whole order, which the per-flag outputs print in.
    assert flags == [
        (0, 1, 3, 2), (0, 1, 2, 3), (0, 2, 3, 1), (0, 2, 1, 3),
        (0, 3, 2, 1), (0, 3, 1, 2), (1, 0, 3, 2), (1, 0, 2, 3),
        (1, 2, 3, 0), (1, 2, 0, 3), (1, 3, 2, 0), (1, 3, 0, 2),
        (2, 0, 3, 1), (2, 0, 1, 3), (2, 1, 3, 0), (2, 1, 0, 3),
        (2, 3, 1, 0), (2, 3, 0, 1), (3, 0, 2, 1), (3, 0, 1, 2),
        (3, 1, 2, 0), (3, 1, 0, 2), (3, 2, 1, 0), (3, 2, 0, 1)]


def test_flag_tangent_product_reference_value():
    value = flag_tangent_product((0, 1, 2, 3), (0, 1, 5, 25))
    assert type(value) is int
    assert value == 240000


def test_flag_tangent_product_is_never_zero_on_valid_weights():
    w = validate_weights((0, 1, 7, 37))
    for flag in enumerate_fixed_flags():
        value = flag_tangent_product(flag, w)
        assert type(value) is int
        assert value != 0
        # The six tangent eigenweights x[flag[j]]/x[flag[i]], i < j.
        expected = 1
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            coeffs = [0, 0, 0, 0]
            coeffs[flag[j]] += 1
            coeffs[flag[i]] -= 1
            expected *= evaluate(EigenWeight(coeffs), w)
        assert value == expected, flag


ZERO_WEIGHT = EigenWeight((0, 0, 0, 0))


def coeff_tuples():
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)


@settings(max_examples=60)
@given(coeff_tuples(), coeff_tuples())
def test_eigenweight_addition_matches_evaluation(a, b):
    w = (0, 1, 5, 25)
    ea, eb = EigenWeight(a), EigenWeight(b)
    assert evaluate(ea + eb, w) == evaluate(ea, w) + evaluate(eb, w)
    assert evaluate(ea - eb, w) == evaluate(ea, w) - evaluate(eb, w)
    assert evaluate(ZERO_WEIGHT - ea, w) == -evaluate(ea, w)


def test_eigenweight_needs_four_coefficients():
    with pytest.raises(ValueError, match="expected four coefficients"):
        EigenWeight((1, 2, 3))
    with pytest.raises(ValueError, match="expected four coefficients"):
        EigenWeight((1, 2, 3, 4, 5))


@settings(max_examples=60)
@given(coeff_tuples(), coeff_tuples())
def test_eigenweight_arithmetic_equals_the_constructor(a, b):
    ea, eb = EigenWeight(a), EigenWeight(b)
    for got, want in ((ea + eb, [x + y for x, y in zip(a, b)]),
                      (ea - eb, [x - y for x, y in zip(a, b)]),
                      (ZERO_WEIGHT - ea, [-x for x in a])):
        assert got == EigenWeight(want)
        assert type(got.coeffs) is tuple
    assert parse_weight(format_weight(ea)) == ea


def test_weight_format_roundtrip():
    ew = EigenWeight((1, -2, 1, 0))
    assert format_weight(ew) == "x0*x2/x1^2"
    assert parse_weight("x0*x2/x1^2") == ew
    assert format_weight(EigenWeight((0, 0, 0, 0))) == "1"
    for text in ["x0^3*x1", "x1/x0", "x0*x3/x1*x2", "1"]:
        assert format_weight(parse_weight(text)) == text


def test_dual_class_multiplication():
    assert DualClass(2, 3) * DualClass(2, -3) == DualClass(4)


def test_dual_class_inverse_blocks_zero_weight():
    with pytest.raises(DivByZeroWeight):
        DualClass(0, 5).inverse()


@settings(max_examples=60)
@given(st.integers(min_value=-9, max_value=9).filter(lambda a: a != 0),
       st.integers(min_value=-9, max_value=9))
def test_dual_class_inverse_roundtrip(a, b):
    d = DualClass(Fraction(a), Fraction(b))
    assert d * d.inverse() == DualClass(1)
    assert (d ** 3).h_coefficient() == 3 * Fraction(a) ** 2 * Fraction(b)
