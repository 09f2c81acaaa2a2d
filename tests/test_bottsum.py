from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from folbott import bottsum
from folbott.bottsum import (TwistLinear, component_degree, contribution_sum,
                             display_sum, fiber_degree, per_flag_degrees,
                             three_planes_demo)
from folbott.fixlocus import build_catalog
from folbott.relations import build_system, solve_relations
from folbott.torus import DivByZeroWeight, WeightError, enumerate_fixed_flags
from oracle import (DualClass, line_contribution, line_term, normal_values,
                    point_contribution, point_term)

W0 = (0, 1, 5, 25)
REF_FLAG = (0, 1, 2, 3)

_SOLVED = None


def solved():
    global _SOLVED
    if _SOLVED is None:
        _SOLVED = solve_relations(build_system(W0))
    return _SOLVED


def small_twists():
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    entry = st.tuples(st.integers(min_value=0, max_value=30), coeff)

    def build(entries):
        t = TwistLinear()
        for slot, c in entries:
            if slot == 0:
                t = t + TwistLinear.constant(c)
            elif c:
                t = t + TwistLinear.unknown(slot, c)
        return t

    return st.lists(entry, max_size=4).map(build)


@settings(max_examples=60)
@given(small_twists(), small_twists(), st.fractions(max_denominator=4))
def test_twist_linear_module_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) - b == a
    assert (a + b) * c == a * c + b * c
    assert a * 0 == TwistLinear()
    if c:
        assert (a / c) * c == a


def test_twist_linear_accessors():
    t = TwistLinear.unknown(4, 2) + TwistLinear.unknown(9, Fraction(-1, 3)) + 5
    assert t.coefficient(4) == 2
    assert t.coefficient(9) == Fraction(-1, 3)
    assert t.coefficient(10) == 0
    assert t.constant_part() == 5
    assert not t.is_zero()
    assert TwistLinear().is_zero()
    with pytest.raises(ValueError):
        TwistLinear.unknown(31)
    with pytest.raises(ValueError):
        TwistLinear.unknown(0)


def test_twist_linear_rendering():
    assert str(TwistLinear.unknown(1, 2) + TwistLinear.unknown(2) + 2) \
        == "2*d1 + d2 + 2"
    assert str(TwistLinear.unknown(3) - 1) == "d3 - 1"
    assert str(-TwistLinear.unknown(5)) == "-d5"
    assert str(TwistLinear()) == "0"
    assert str(TwistLinear.constant(Fraction(-1, 2))) == "-1/2"


def test_point_term_values():
    assert point_term(2, (1, 1, -1), 3) == 8
    assert point_term(-3, (2, 2, -1), 3) == Fraction(-27, 4)
    with pytest.raises(DivByZeroWeight):
        point_term(2, (1, 0), 3)


def test_line_term_numeric():
    nu = DualClass(Fraction(-1), Fraction(-1))
    pairs = [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(-1))]
    assert line_term(nu, pairs, 3) == Fraction(7, 4)
    with pytest.raises(DivByZeroWeight):
        line_term(nu, [(Fraction(0), Fraction(1))], 3)


def test_line_term_symbolic():
    nu = DualClass(Fraction(1), TwistLinear())
    pairs = [(Fraction(1), TwistLinear.unknown(1)), (Fraction(2), 0)]
    assert line_term(nu, pairs, 2) == TwistLinear.unknown(1, Fraction(1, 2))


def test_three_planes_demo():
    assert three_planes_demo() == [
        ("p2", Fraction(-8)),
        ("q1", Fraction(-27, 4)),
        ("q2", Fraction(27, 2)),
        ("r2", Fraction(1, 2)),
        ("line", Fraction(7, 4)),
        ("total", Fraction(1)),
    ]


def test_reference_flag_display_coefficients():
    disp = display_sum(REF_FLAG, W0, 7)
    assert disp.constant_part() == Fraction(49642909, 3974400)
    assert disp.coefficient(1) == Fraction(-729, 320)
    assert disp.coefficient(2) == Fraction(-729, 640)
    assert disp.coefficient(3) == Fraction(729, 1600)
    assert disp.coefficient(4) == Fraction(-729, 320)
    assert disp.coefficient(30) == Fraction(3125, 192)


def test_swapped_flag_display_coefficients():
    disp = display_sum((1, 0, 3, 2), W0, 7)
    assert disp.constant_part() == Fraction(-7491488544437, 5070000000)
    assert disp.coefficient(1) == Fraction(-1, 6000)
    assert disp.coefficient(2) == Fraction(-1, 12000)
    assert disp.coefficient(3) == Fraction(-1, 144000)
    assert disp.coefficient(4) == Fraction(-1, 6000)
    assert disp.coefficient(30) == Fraction(-210827008, 121875)


def test_line_contributions_and_their_reductions():
    cat = build_catalog(REF_FLAG)
    lines = {rec.id: rec for rec in cat.lines}
    raw1 = line_contribution(lines["line1"], W0, 7)
    assert raw1.coefficient(1) == Fraction(729, 320)
    assert raw1.coefficient(6) == Fraction(-243, 2560)
    assert raw1.constant_part() == 0
    rel = solved()
    assert rel.reduce(raw1) == TwistLinear.constant(Fraction(-2187, 800))
    assert rel.reduce(line_contribution(lines["line2"], W0, 7)) \
        == TwistLinear.constant(Fraction(-5, 864))
    assert rel.reduce(line_contribution(lines["line4"], W0, 7)) \
        == TwistLinear.constant(Fraction(256, 207))
    red3 = rel.reduce(line_contribution(lines["line3"], W0, 7))
    red5 = rel.reduce(line_contribution(lines["line5"], W0, 7))
    assert red3.coefficient(26) == Fraction(-15625, 4608)
    assert red3.coefficient(30) == Fraction(15625, 768)
    assert red3.constant_part() == Fraction(15625, 512)
    assert red5.coefficient(26) == Fraction(15625, 4608)
    assert red5.coefficient(30) == Fraction(-15625, 768)
    assert red5.constant_part() == Fraction(6875, 1536)
    assert (red3 + red5).coefficient(26) == 0
    assert (red3 + red5).coefficient(30) == 0


def test_line1_twist_degree_closed_form():
    cat = build_catalog(REF_FLAG)
    line1 = [rec for rec in cat.lines if rec.id == "line1"][0]
    rel = solved()
    for wv in [W0, (0, 1, 7, 37), (1, 2, 9, 41)]:
        normals = normal_values(line1, wv)
        big_w = reduce(lambda a, b: a * b, normals, Fraction(1))
        acc = TwistLinear()
        for n, slot in zip(normals, line1.slots):
            acc = acc + TwistLinear.unknown(slot) / n
        w0, w1, w2, w3 = [Fraction(x) for x in wv]
        closed = 2 * (w0-w1)**2 * (w2-w1) * (w3-w1) * (2*w0-w1-w2)
        assert rel.reduce(acc * big_w) == TwistLinear.constant(closed)


def test_fiber_degree():
    assert fiber_degree(W0, 7, solved()) == 21


def test_component_degree():
    assert component_degree(W0, 13, solved()) == 168208


def test_component_degree_threaded_matches_serial():
    assert component_degree(W0, 13, solved(), jobs=8) == 168208


def test_per_flag_summands():
    rows = per_flag_degrees(W0, solved())
    assert rows[0] == ((0, 1, 3, 2), Fraction(-21391604353, 750))
    assert rows[-2] == ((3, 2, 1, 0), Fraction(405018516854861, 80000))
    assert rows[-1] == ((3, 2, 0, 1), Fraction(-390626226881149, 80000))
    assert sum(v for _, v in rows) == 168208


def test_contribution_and_display_are_negatives():
    raw = contribution_sum(REF_FLAG, W0, 7)
    assert display_sum(REF_FLAG, W0, 7) == -raw
    assert solved().substitute(raw) == 21


def test_rejects_resonant_weights():
    with pytest.raises(WeightError):
        fiber_degree((0, 1, 2, 3), 7, solved())


@pytest.mark.parametrize("w", [W0, (0, 1, 7, 37),
                               (12345678, -98765432, 55555555, 3)])
def test_integer_sum_matches_the_dual_class_route(w):
    # The record-by-record sum through the oracle's point_term/line_term
    # and DualClass is the independent route to the same linear forms.
    for flag in enumerate_fixed_flags():
        catalog = build_catalog(flag)
        for power in (7, 13):
            oracle = TwistLinear()
            for rec in catalog.points:
                oracle = oracle + point_contribution(rec, w, power)
            for rec in catalog.lines:
                oracle = oracle + line_contribution(rec, w, power)
            assert contribution_sum(flag, w, power) == oracle, (flag, power)


def _with_zero_weight(catalog, record_id):
    """``catalog`` with the first tangent (or normal) weight of one
    record replaced by zero."""
    def zeroed(records):
        return tuple(
            rec[:2] + (((0, 0, 0, 0),) + rec[2][1:],) + rec[3:]
            if rec[0] == record_id else rec for rec in records)

    return lambda: tuple(zeroed(records) for records in catalog)


def test_zero_weights_name_their_record_and_flag(monkeypatch):
    catalog = bottsum._integer_catalog()
    monkeypatch.setattr(bottsum, "_integer_catalog",
                        _with_zero_weight(catalog, "base/r07"))
    with pytest.raises(DivByZeroWeight, match="zero tangent weight "
                       "in base/r07 on flag 1,0,3,2"):
        contribution_sum((1, 0, 3, 2), W0, 7)
    monkeypatch.setattr(bottsum, "_integer_catalog",
                        _with_zero_weight(catalog, "line3"))
    with pytest.raises(DivByZeroWeight, match="zero normal weight "
                       "in line3 on flag 0,1,2,3"):
        contribution_sum(REF_FLAG, W0, 13)
    with pytest.raises(ValueError):
        contribution_sum(REF_FLAG, W0, -1)


def test_flag_disagreement_names_both_flags():
    with pytest.raises(ArithmeticError,
                       match=r"per-flag values differ: \S+ on flag 0,1,3,2 "
                             r"vs \S+ on flag 0,1,2,3"):
        fiber_degree(W0, 13, solved())


def test_degree_path_reads_the_catalog_once(monkeypatch):
    calls = []

    def counting(flag):
        calls.append(flag)
        return build_catalog(flag)

    bottsum._integer_catalog.cache_clear()
    monkeypatch.setattr(bottsum, "build_catalog", counting)
    rel = solve_relations(build_system(W0))
    assert fiber_degree(W0, 7, rel) == 21
    assert component_degree(W0, 13, rel) == 168208
    assert len(calls) == 1


def test_one_power_7_pass_per_weight_vector(monkeypatch):
    calls = []
    engine = bottsum.contribution_sum

    def counting(flag, w, power):
        calls.append(power)
        return engine(flag, w, power)

    monkeypatch.setattr(bottsum, "contribution_sum", counting)
    rel = solve_relations(build_system(W0))
    assert fiber_degree(W0, 7, rel) == 21
    assert component_degree(W0, 13, rel) == 168208
    assert calls == [7] * 24 + [13] * 24
    calls.clear()
    assert fiber_degree((0, 1, 7, 37), 7, rel) == 21
    assert calls == [7] * 24
