from fractions import Fraction

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


def test_validate_rejects_repeated_weight():
    with pytest.raises(WeightError):
        validate_weights((1, 1, 5, 25))


def test_flag_enumeration():
    flags = enumerate_fixed_flags()
    assert len(flags) == 24
    assert len(set(flags)) == 24
    assert flags[0] == (0, 1, 3, 2)
    assert flags[1] == (0, 1, 2, 3)
    assert flags[6] == (1, 0, 3, 2)
    for flag in flags:
        assert sorted(flag) == [0, 1, 2, 3]


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


def coeff_tuples():
    return st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4)


@settings(max_examples=60)
@given(coeff_tuples(), coeff_tuples())
def test_eigenweight_addition_matches_evaluation(a, b):
    w = (0, 1, 5, 25)
    ea, eb = EigenWeight(a), EigenWeight(b)
    assert evaluate(ea + eb, w) == evaluate(ea, w) + evaluate(eb, w)
    assert evaluate(-ea, w) == -evaluate(ea, w)


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
