import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import oracle
from folbott import bottsum
from folbott.bottsum import (TwistLinear, component_degree, contribution_sum,
                             display_sum, fiber_degree, per_flag_degrees,
                             three_planes_demo)
from folbott.fixlocus import build_catalog
from folbott.relations import (ResidualUnknowns, SolvedRelations,
                               build_system, rref, solve_relations)
from folbott.torus import (DivByZeroWeight, EigenWeight, WeightError,
                           enumerate_fixed_flags, validate_weights)
from oracle import (DualClass, FractionLinear, line_contribution, line_term,
                    normal_values, point_contribution, point_term,
                    substituted_flag_sums)

W0 = (0, 1, 5, 25)
W_WIDE = (67208900, -31429501, 99121929, -3756357)
REF_FLAG = (0, 1, 2, 3)

_SOLVED = None


def solved():
    global _SOLVED
    if _SOLVED is None:
        _SOLVED = solve_relations(build_system(W0))
    return _SOLVED


rationals = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.builds(Fraction, st.integers(-(1 << 80), 1 << 80),
              st.integers(1, 1 << 80)))
forms = st.dictionaries(st.integers(min_value=0, max_value=30), rationals,
                        max_size=6)


@settings(max_examples=150)
@given(forms, forms, rationals, st.integers(-50, 50).filter(bool))
def test_integer_rows_agree_with_the_fraction_reference(ca, cb, q, k):
    # The dict constructor, from_row at any scale of the row, and
    # negation give the form the {slot: Fraction} reference holds.
    a, b = TwistLinear(ca), TwistLinear(cb)
    ra, rb = FractionLinear(ca), FractionLinear(cb)
    pairs = [(a, ra), (-a, -ra),
             (TwistLinear.from_row([n * k for n in a.nums], a.den * k), ra),
             (TwistLinear.constant(q), FractionLinear({0: q}))]
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert str(got) == str(want)
        assert got.den > 0
        assert gcd(got.den, *got.nums) == 1
    assert (a == b) == (ra == rb)


def test_twist_linear_accessors():
    t = TwistLinear({4: 2, 9: Fraction(-1, 3), 0: 5})
    assert t.coefficient(4) == 2
    assert t.coefficient(9) == Fraction(-1, 3)
    assert t.coefficient(10) == 0
    assert t.constant_part() == 5
    assert not t.is_zero()
    assert TwistLinear().is_zero()
    with pytest.raises(ValueError):
        TwistLinear({31: 1})


def test_twist_linear_rendering():
    assert str(TwistLinear({1: 2, 2: 1, 0: 2})) == "2*d1 + d2 + 2"
    assert str(TwistLinear({3: 1, 0: -1})) == "d3 - 1"
    assert str(-TwistLinear({5: 1})) == "-d5"
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
    nu = DualClass(Fraction(1), FractionLinear())
    pairs = [(Fraction(1), FractionLinear({1: 1})), (Fraction(2), 0)]
    assert line_term(nu, pairs, 2) == FractionLinear({1: Fraction(1, 2)})


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
    assert raw1.coeffs[1] == Fraction(729, 320)
    assert raw1.coeffs[6] == Fraction(-243, 2560)
    assert 0 not in raw1.coeffs
    rel = solved()

    def reduced(line_id):
        raw = line_contribution(lines[line_id], W0, 7)
        return rel.reduce(TwistLinear(raw.coeffs))

    assert reduced("line1") == TwistLinear.constant(Fraction(-2187, 800))
    assert reduced("line2") == TwistLinear.constant(Fraction(-5, 864))
    assert reduced("line4") == TwistLinear.constant(Fraction(256, 207))
    red3, red5 = reduced("line3"), reduced("line5")
    assert red3.coefficient(26) == Fraction(-15625, 4608)
    assert red3.coefficient(30) == Fraction(15625, 768)
    assert red3.constant_part() == Fraction(15625, 512)
    assert red5.coefficient(26) == Fraction(15625, 4608)
    assert red5.coefficient(30) == Fraction(-15625, 768)
    assert red5.constant_part() == Fraction(6875, 1536)
    assert red3.coefficient(26) + red5.coefficient(26) == 0
    assert red3.coefficient(30) + red5.coefficient(30) == 0


def test_line1_twist_degree_closed_form():
    cat = build_catalog(REF_FLAG)
    line1 = [rec for rec in cat.lines if rec.id == "line1"][0]
    rel = solved()
    for wv in [W0, (0, 1, 7, 37), (1, 2, 9, 41)]:
        normals = normal_values(line1, wv)
        big_w = reduce(lambda a, b: a * b, normals, Fraction(1))
        form = TwistLinear({slot: big_w / n
                            for n, slot in zip(normals, line1.slots)})
        w0, w1, w2, w3 = [Fraction(x) for x in wv]
        closed = 2 * (w0-w1)**2 * (w2-w1) * (w3-w1) * (2*w0-w1-w2)
        assert rel.reduce(form) == TwistLinear.constant(closed)


def test_fiber_degree():
    assert fiber_degree(W0, 7, solved()) == 21


def test_component_degree():
    assert component_degree(W0, 13, solved()) == 168208


def test_component_degree_accepts_an_ignored_jobs_argument():
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
    total = FractionLinear()
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
            assert contribution_sum(flag, w, power).coeffs \
                == _oracle_sum(catalog, w, power).coeffs, (flag, power)


def _admissible(w):
    try:
        validate_weights(w)
    except WeightError:
        return False
    return True


# Each example runs an oracle pass, so a failure is reported unshrunk.
@settings(max_examples=6, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.tuples(*[st.integers(-40, 40)] * 4).filter(_admissible),
       st.sampled_from(enumerate_fixed_flags()))
def test_flag_residues_at_every_power_match_the_oracle(w, flag):
    residues = bottsum.flag_residues(flag, w)
    sums = _oracle_sums(build_catalog(flag), w, range(15))
    for power, want in enumerate(sums):
        assert residues.at(power).coeffs == want.coeffs, power


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


@pytest.fixture
def fresh_arrangement():
    """The arrangement derived anew in the test and dropped after it,
    so that one built from a patched catalog reaches no other test."""
    bottsum._arrangement.cache_clear()
    yield
    bottsum._arrangement.cache_clear()


def _with_zero_weight(record_id):
    """``build_catalog`` with the first tangent (or normal) weight of
    one record replaced by zero."""
    def patched(flag):
        catalog = build_catalog(flag)
        zero = EigenWeight((0, 0, 0, 0))
        for rec in catalog.points:
            if rec.id == record_id:
                rec.tangent = (zero,) + rec.tangent[1:]
        for rec in catalog.lines:
            if rec.id == record_id:
                rec.normals = (zero,) + rec.normals[1:]
        return catalog

    return patched


def test_zero_weights_name_their_record_and_flag(monkeypatch,
                                                 fresh_arrangement):
    monkeypatch.setattr(bottsum, "build_catalog",
                        _with_zero_weight("base/r07"))
    with pytest.raises(DivByZeroWeight, match="zero tangent weight "
                       "in base/r07 on flag 1,0,3,2"):
        contribution_sum((1, 0, 3, 2), W0, 7)
    bottsum._arrangement.cache_clear()
    monkeypatch.setattr(bottsum, "build_catalog", _with_zero_weight("line3"))
    with pytest.raises(DivByZeroWeight, match="zero normal weight "
                       "in line3 on flag 0,1,2,3"):
        contribution_sum(REF_FLAG, W0, 13)
    with pytest.raises(ValueError):
        contribution_sum(REF_FLAG, W0, -1)


def _split(coeffs):
    """A weight 4-tuple as (L, s): coeffs = s * L with L primitive and
    its first nonzero entry positive."""
    s = gcd(*coeffs)
    if next(c for c in coeffs if c) < 0:
        s = -s
    return tuple(c // s for c in coeffs), s


def _global_forms(plan, tangents=False):
    """The arrangement's local forms placed on each of the 24 flags, as
    forms in w: {form: its largest exponent on one flag}.  With
    ``tangents`` each flag's six tangent weights w[flag[j]] - w[flag[i]]
    add one to their form's exponent on that flag."""
    out = {}
    for flag in enumerate_fixed_flags():
        exps = {}
        for local, power in zip(plan.forms, plan.powers):
            form = [0] * 4
            for position, i in enumerate(flag):
                form[i] = local[position]
            exps[_split(form)[0]] = power
        if tangents:
            for i in range(4):
                for j in range(i + 1, 4):
                    form = [0] * 4
                    form[flag[j]], form[flag[i]] = 1, -1
                    form = _split(form)[0]
                    exps[form] = exps.get(form, 0) + 1
        for form, power in exps.items():
            out[form] = max(out.get(form, 0), power)
    return out


def test_the_weight_arrangement_of_the_catalog():
    plan = bottsum._arrangement()
    assert (len(plan.forms), sum(plan.powers), plan.scale) == (18, 29, 12)
    top = dict(zip(plan.forms, plan.powers))
    catalog = build_catalog(REF_FLAG)

    def term(weights):
        exps, const = {}, 1
        for ew in weights:
            form, s = _split(ew.coeffs)
            exps[form] = exps.get(form, 0) + 1
            const *= s
        return exps, const

    terms = [term(rec.tangent) for rec in catalog.points]
    terms += [term(rec.normals + (n,)) for rec in catalog.lines
              for n in rec.normals]
    assert len(terms) == 72 + 30
    for exps, const in terms:
        # The term's denominator divides K * prod(L^M).
        assert plan.scale % const == 0
        assert all(k <= top[form] for form, k in exps.items()), exps
    # Over the 24 flags (ROADMAP item 1): 45 distinct forms in w, whose
    # lcm has degree 87, or 93 with the flag-tangent factors.
    forms = _global_forms(plan)
    assert (len(forms), sum(forms.values())) == (45, 87)
    forms = _global_forms(plan, tangents=True)
    assert (len(forms), sum(forms.values())) == (45, 93)


def test_each_vanishing_form_names_the_first_record_that_carries_it():
    # One vector on each of the 45 forms, w = (g.g) r - (g.r) g, and
    # three on several forms at once, where the order of the records
    # decides, past validate_weights: every flag raises what a
    # record-by-record scan finds first, or passes when it finds none.
    rng = random.Random(18)
    catalogs = [build_catalog(flag) for flag in enumerate_fixed_flags()]
    vectors = []
    for g in _global_forms(bottsum._arrangement()):
        r = [rng.randint(-1000, 1000) for _ in range(4)]
        gg = sum(x * x for x in g)
        gr = sum(x * y for x, y in zip(g, r))
        vectors.append(tuple(gg * ri - gr * gi for ri, gi in zip(r, g)))
    vectors += [(0, 1, 2, 3), (0, 0, 1, 2), (1, 1, 1, 1)]
    for w in vectors:
        raised = 0
        for catalog in catalogs:
            want = oracle.zero_weight_message(catalog, w)
            try:
                bottsum.flag_residues(catalog.flag, w)
                got = None
            except DivByZeroWeight as err:
                got = str(err)
                raised += 1
            assert got == want, (w, catalog.flag)
        assert raised, w


def _oracle_sums(catalog, w, powers):
    """``_oracle_sum`` at each power.  Every record's term at power p is
    its fiber or nu value to the p times its term at power 0, so the
    records' power-0 terms are added once per value."""
    by_nu = {}
    for nu, term in [(oracle.nu_value(rec, w), point_contribution(rec, w, 0))
                     for rec in catalog.points] + \
            [(oracle.wfiber_value(rec, w), line_contribution(rec, w, 0))
             for rec in catalog.lines]:
        by_nu[nu] = by_nu.get(nu, FractionLinear()) + term
    return [sum((t * nu ** p for nu, t in by_nu.items()), FractionLinear())
            for p in powers]


@pytest.mark.parametrize("w", [(0, 6, 30, 210), (0, 60, 84, 210),
                               (0, 2, 8, 32)])
def test_residues_are_exact_where_the_denominator_overshoots_the_lcm(w):
    # The form values share many small primes here, so K * prod(L^M)
    # has at least 1.5 times the bits of the lcm of the terms'
    # denominators on every flag.
    for flag in enumerate_fixed_flags():
        catalog = build_catalog(flag)
        dens = []
        for rec in catalog.points:
            dens.append(reduce(lambda x, y: x * y,
                               oracle.tangent_values(rec, w)).numerator)
        for rec in catalog.lines:
            normals = normal_values(rec, w)
            prod = reduce(lambda x, y: x * y, normals)
            dens += [(prod * n).numerator for n in normals]
        least = lcm(*dens)
        residues = bottsum.flag_residues(flag, w)
        assert residues.den % least == 0
        assert residues.den.bit_length() >= 1.5 * least.bit_length(), flag
        assert [residues.at(p).coeffs for p in range(15)] \
            == [s.coeffs for s in _oracle_sums(catalog, w, range(15))], flag
    rel = solve_relations(build_system(w))
    assert fiber_degree(w, 7, rel) == 21
    assert component_degree(w, 13, rel) == 168208


def test_flag_disagreement_names_both_flags():
    with pytest.raises(ArithmeticError,
                       match=r"per-flag values differ: \S+ on flag 0,1,3,2 "
                             r"vs \S+ on flag 0,1,2,3"):
        fiber_degree(W0, 13, solved())


def test_degree_path_reads_the_catalog_once(monkeypatch, fresh_arrangement):
    calls = []

    def counting(flag):
        calls.append(flag)
        return build_catalog(flag)

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


def _constants(values):
    """The constants of substituted FractionLinear forms, which must
    have no unknowns left."""
    assert all(set(form.coeffs) <= {0} for _, form in values)
    return [(flag, form.coeffs.get(0, Fraction(0))) for flag, form in values]


@settings(max_examples=6, deadline=None)
@given(st.tuples(*[st.integers(-10**8, 10**8)] * 4).filter(_admissible))
@example(W_WIDE)
def test_degree_path_equals_the_sum_then_substitute_reference(w):
    rel = solve_relations(build_system(w))
    assert component_degree(w, 13, rel) \
        == oracle.component_degree(w, 13, rel) == 168208
    symbolic = component_degree(w, 13)
    assert symbolic == oracle.component_degree(w, 13)
    assert gcd(symbolic.den, *symbolic.nums) == 1
    assert per_flag_degrees(w, rel) \
        == _constants(substituted_flag_sums(w, rel.rows, 13, tangents=True))
    fiber = _constants(substituted_flag_sums(w, rel.rows, 7))
    assert bottsum.per_flag_fiber_values(w, rel) == fiber
    assert fiber_degree(w, 7, rel) == fiber[0][1] == 21


def test_component_degree_with_a_row_missing_raises_like_substitute():
    # Dropping a row frees its pivot unknown; the global sum either
    # cancels it (d23) or raises, the same way on both routes.
    rel = solved()
    total = oracle.component_degree(W0, 13)
    outcomes = []
    for k in range(rel.rank):
        short = SolvedRelations(
            rref(rel.rows.scaled[:k] + rel.rows.scaled[k + 1:]), rel.system)
        try:
            want = short.substitute(total)
        except ResidualUnknowns as err:
            want = str(err)
        try:
            got = component_degree(W0, 13, short)
        except ResidualUnknowns as err:
            got = str(err)
        assert got == want, k
        outcomes.append(got)
    assert outcomes[17] == "unresolved twist unknowns: d29"
    assert outcomes[14] == 168208
    assert outcomes.count(168208) == 1
