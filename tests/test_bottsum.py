from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import Phase, given, settings, strategies as st

from folbott import bottsum
from folbott.bottsum import (TwistLinear, component_degree, contribution_sum,
                             display_sum, fiber_degree, per_flag_degrees,
                             three_planes_demo)
from folbott.fixlocus import build_catalog
from folbott.relations import build_system, solve_relations
from folbott.torus import (DivByZeroWeight, WeightError,
                           enumerate_fixed_flags, validate_weights)
from oracle import (DualClass, FractionLinear, line_contribution, line_term,
                    normal_values, point_contribution, point_term)

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


rationals = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds(Fraction, st.integers(-(1 << 80), 1 << 80),
              st.integers(1, 1 << 80)))
forms = st.dictionaries(st.integers(min_value=0, max_value=30), rationals,
                        max_size=6)


@settings(max_examples=150)
@given(forms, forms, rationals, st.integers(-50, 50))
def test_integer_rows_agree_with_the_fraction_reference(ca, cb, q, k):
    a, b = TwistLinear(ca), TwistLinear(cb)
    ra, rb = FractionLinear(ca), FractionLinear(cb)
    assert a.coeffs == ra.coeffs
    pairs = [(a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
             (a * k, ra * k), (k * a, k * ra), (a * q, ra * q),
             (a + q, ra + q), (q + a, q + ra), (a - k, ra - k)]
    if q:
        pairs.append((a / q, ra / q))
    if k:
        pairs.append((a / k, ra / k))
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert str(got) == str(want)
        assert hash(got) == hash(want)
        assert got.den > 0
        assert gcd(got.den, *got.nums) == 1
    assert (a == b) == (ra == rb)
    assert (a == q) == (ra == q)
    assert TwistLinear.constant(q) == q


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


@pytest.mark.parametrize("w", [W0, (3, -7, 11, 40)])
def test_bott_sums_vanish_below_the_dimension(w):
    # The global sum integrates over a 13-dimensional space and the
    # fiber sum over a 7-dimensional one, so both vanish below that
    # power; at 14 the global sum is linear in the weights.
    rel = solve_relations(build_system(w))
    assert [component_degree(w, p, rel) for p in range(13)] == [0] * 13
    assert component_degree(w, 13, rel) == 168208
    assert component_degree(w, 14, rel) == 2354912 * sum(w)
    assert [fiber_degree(w, p, rel) for p in range(7)] == [0] * 7


def test_rejects_resonant_weights():
    with pytest.raises(WeightError):
        fiber_degree((0, 1, 2, 3), 7, solved())


def _oracle_sum(catalog, w, power):
    """One flag's sum record by record through the oracle."""
    total = TwistLinear()
    for rec in catalog.points:
        total = total + point_contribution(rec, w, power)
    for rec in catalog.lines:
        total = total + line_contribution(rec, w, power)
    return total


@pytest.mark.parametrize("w", [W0, (0, 1, 7, 37),
                               (12345678, -98765432, 55555555, 3)])
def test_integer_sum_matches_the_dual_class_route(w):
    # The record-by-record sum through the oracle's point_term/line_term
    # and DualClass is the independent route to the same linear forms.
    for flag in enumerate_fixed_flags():
        catalog = build_catalog(flag)
        for power in (7, 13):
            assert contribution_sum(flag, w, power) \
                == _oracle_sum(catalog, w, power), (flag, power)


def _admissible(w):
    try:
        validate_weights(w)
    except WeightError:
        return False
    return True


# Each example runs 15 oracle sums, so a failure is reported unshrunk.
@settings(max_examples=6, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.tuples(*[st.integers(-40, 40)] * 4).filter(_admissible),
       st.sampled_from(enumerate_fixed_flags()))
def test_flag_residues_at_every_power_match_the_oracle(w, flag):
    residues = bottsum.flag_residues(flag, w)
    catalog = build_catalog(flag)
    for power in range(15):
        assert residues.at(power) == _oracle_sum(catalog, w, power), power


def test_component_degree_computes_residues_for_other_weights():
    # The relations were solved at W0, so these weights' residues are
    # computed, not read off the relation system.
    assert component_degree((0, 1, 7, 37), 13, solved()) == 168208


def test_per_flag_degrees_reuse_equals_recompute():
    wide = (67208900, -31429501, 99121929, -3756357)
    reused = per_flag_degrees(wide, solve_relations(build_system(wide)))
    computed = per_flag_degrees(wide, solved())
    assert reused == computed
    assert sum(v for _, v in reused) == 168208


def _with_zero_weight(catalog, record_id):
    """``catalog`` with the first tangent (or normal) weight of one
    record replaced by zero."""
    weights, points, lines = catalog
    zero = len(weights)

    def zeroed(records):
        return tuple(rec[:2] + ((zero,) + rec[2][1:],) + rec[3:]
                     if rec[0] == record_id else rec for rec in records)

    return lambda: (weights + ((0, 0, 0, 0),), zeroed(points),
                    zeroed(lines))


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
    # One weight vector costs one pass of flag_residues over the 24
    # flags, whatever the powers read off it afterwards.
    calls = []
    engine = bottsum.flag_residues

    def counting(flag, w):
        calls.append(w)
        return engine(flag, w)

    monkeypatch.setattr(bottsum, "flag_residues", counting)
    rel = solve_relations(build_system(W0))
    assert fiber_degree(W0, 7, rel) == 21
    assert component_degree(W0, 13, rel) == 168208
    assert calls == [W0] * 24
    with pytest.raises(ArithmeticError):
        fiber_degree(W0, 13, rel)
    assert sum(v for _, v in per_flag_degrees(W0, rel)) == 168208
    assert len(bottsum.per_flag_fiber_values(W0, rel, 13)) == 24
    assert calls == [W0] * 24
    calls.clear()
    assert fiber_degree((0, 1, 7, 37), 7, rel) == 21
    assert calls == [(0, 1, 7, 37)] * 24
