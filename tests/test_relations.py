import hashlib
import json
import random
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from folbott.bottsum import (TwistLinear, component_degree, contribution_sum,
                             fiber_degree, per_flag_fiber_values)
from folbott import relations
from folbott.relations import (InconsistentSystem, RelationSystem,
                               ResidualUnknowns, build_system, integer_rows,
                               normal_twist_check, relation_strings,
                               row_space_equal, rref, solve_relations)
from folbott.torus import WeightError, enumerate_fixed_flags, validate_weights
from oracle import (FractionLinear, difference_rows, per_flag_values,
                    rref_mod, solve_differences, substitute_rows)

W0 = (0, 1, 5, 25)
W_WIDE = (67208900, -31429501, 99121929, -3756357)
# The first two primes of the multimodular elimination.
P, P2 = islice(relations._primes(), 2)

# Reference echelon relations, grouped by the line whose twist slots
# they pin down, listed bottom group first inside each group.
GROUP_LINE5 = [
    {29: 1},
    {27: 1, 0: 2},
    {25: 2, 26: 1, 28: 2, 30: 2, 0: 1},
]
GROUP_LINE4 = [
    {23: 1},
    {20: 1, 22: 1},
    {19: 1, 21: 1, 24: -1, 0: 2},
    {17: 1},
    {16: 1},
    {15: 1, 0: -1},
]
GROUP_LINE23 = [
    {13: 1, 14: 1, 18: 1, 0: 2},
    {11: 1},
    {9: 1, 30: 1, 0: 1},
    {8: 1, 12: 1},
]
GROUP_LINE1 = [
    {7: 2, 10: -2, 26: -1, 30: -2, 0: 1},
    {6: 1},
    {5: 1},
    {3: 1, 0: -1},
    {1: 2, 2: 1, 4: 2, 0: 2},
]
REFERENCE_RELATIONS = GROUP_LINE5 + GROUP_LINE4 + GROUP_LINE23 + GROUP_LINE1

EXPECTED_STRINGS = [
    "2*d1 + d2 + 2*d4 + 2 = 0",
    "d3 - 1 = 0",
    "d5 = 0",
    "d6 = 0",
    "2*d7 - 2*d10 - d26 - 2*d30 + 1 = 0",
    "d8 + d12 = 0",
    "d9 + d30 + 1 = 0",
    "d11 = 0",
    "d13 + d14 + d18 + 2 = 0",
    "d15 - 1 = 0",
    "d16 = 0",
    "d17 = 0",
    "d19 + d21 - d24 + 2 = 0",
    "d20 + d22 = 0",
    "d23 = 0",
    "2*d25 + d26 + 2*d28 + 2*d30 + 1 = 0",
    "d27 + 2 = 0",
    "d29 = 0",
]

_CACHE = {}


def system():
    if "system" not in _CACHE:
        _CACHE["system"] = build_system(W0)
    return _CACHE["system"]


def solved():
    if "solved" not in _CACHE:
        _CACHE["solved"] = solve_relations(system())
    return _CACHE["solved"]


def _tl(coeffs):
    return TwistLinear({k: Fraction(v) for k, v in coeffs.items()})


def test_system_shape():
    sys = system()
    assert len(sys.residues) == 24
    assert len(sys.sum_rows) == 24
    assert len(sys.equations) == 23
    assert RelationSystem.__slots__ == ("w", "power", "residues", "sum_rows")


def test_system_views_equal_the_lowest_terms_forms():
    sys = system()
    sums = [contribution_sum(flag, W0, 7) for flag in enumerate_fixed_flags()]
    assert [TwistLinear.from_row(*pair) for pair in sys.sum_rows] == sums
    reference = [FractionLinear(s.coeffs) for s in sums]
    assert [FractionLinear(eq.coeffs) for eq in sys.equations] \
        == [s - reference[0] for s in reference[1:]]
    differences = difference_rows(sys)
    assert [TwistLinear.from_row(*pair) for pair in differences] \
        == sys.equations
    assert [row for row, _ in differences] \
        != [eq.nums for eq in sys.equations]


def test_rref_carries_its_certified_integer_form():
    rows = solve_differences(system())
    fractions = rows.fractions
    denom = lcm(*(c.denominator for row in fractions for c in row))
    assert rows.denom == denom
    assert rows.scaled == [[int(c * denom) for c in row]
                           for row in fractions]
    assert relations.SolvedRelations(rows, None).assignments \
        == solved().assignments


def test_rank_and_pivots():
    rel = solved()
    assert rel.rank == 18
    assert sorted(rel.pivots) == [1, 3, 5, 6, 7, 8, 9, 11, 13, 15,
                                  16, 17, 19, 20, 23, 25, 27, 29]


def test_pinned_values():
    rel = solved()
    pinned = {3: 1, 5: 0, 6: 0, 11: 0, 15: 1, 16: 0, 17: 0, 23: 0,
              27: -2, 29: 0}
    for slot, value in pinned.items():
        assert rel.assignments[slot] == TwistLinear.constant(value), slot
    assert rel.assignments[1] == _tl({0: -1, 2: Fraction(-1, 2), 4: -1})


def test_row_space_matches_the_reference_table():
    reference = [_tl(c) for c in REFERENCE_RELATIONS]
    assert row_space_equal(system().equations, reference)


def test_row_space_differs_without_a_relation_or_with_a_moved_constant():
    reference = [_tl(c) for c in REFERENCE_RELATIONS]
    equations = system().equations
    for k in range(len(reference)):
        short = reference[:k] + reference[k + 1:]
        assert not row_space_equal(equations, short), k
    moved = dict(REFERENCE_RELATIONS[0])
    moved[0] = moved.get(0, 0) + 1
    assert not row_space_equal(equations, [_tl(moved)] + reference[1:])


def test_degree_path_builds_no_fraction_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("Echelon.fractions was read")

    monkeypatch.setattr(relations.Echelon, "fractions", property(refuse))
    rel = solve_relations(build_system(W0))
    assert rel.rank == 18
    assert relation_strings(rel) == EXPECTED_STRINGS
    assert fiber_degree(W0, 7, rel) == 21
    assert component_degree(W0, 13, rel) == 168208


def test_reference_relations_are_consequences():
    rel = solved()
    for coeffs in REFERENCE_RELATIONS:
        assert rel.reduce(_tl(coeffs)).is_zero(), coeffs


def test_relation_strings():
    assert relation_strings(solved()) == EXPECTED_STRINGS


def test_integer_rows_are_primitive():
    from math import gcd
    rel = solved()
    for row, echelon_row in zip(integer_rows(rel), rel.rows.fractions,
                                  strict=True):
        assert all(isinstance(c, int) for c in row)
        g = 0
        for c in row:
            g = gcd(g, abs(c))
        assert g == 1
        # A positive multiple of the Fraction row, led by its pivot.
        lead = next(c for c in row if c)
        assert lead > 0
        assert [Fraction(c, lead) for c in row] == list(echelon_row)


def test_relations_do_not_depend_on_the_weights():
    other = solve_relations(build_system((0, 1, 7, 37)))
    assert relation_strings(other) == EXPECTED_STRINGS


def _admissible(w):
    try:
        validate_weights(w)
    except WeightError:
        return False
    return True


@settings(max_examples=12, deadline=None)
@given(st.tuples(*[st.integers(min_value=-40, max_value=40)] * 4)
       .filter(_admissible))
def test_degrees_and_relations_do_not_depend_on_the_weights(w):
    rel = solve_relations(build_system(w))
    assert rel.rank == 18
    assert relation_strings(rel) == EXPECTED_STRINGS
    assert fiber_degree(w, 7, rel) == 21
    assert component_degree(w, 13, rel) == 168208


def test_headline_at_wide_weights():
    rel = solve_relations(build_system(W_WIDE))
    assert rel.rank == 18
    assert relation_strings(rel) == EXPECTED_STRINGS
    assert fiber_degree(W_WIDE, 7, rel) == 21
    assert component_degree(W_WIDE, 13, rel) == 168208


@settings(max_examples=3, deadline=None)
@given(st.tuples(*[st.integers(min_value=-10**8, max_value=10**8)] * 4)
       .filter(_admissible))
def test_degrees_and_relations_at_wide_weights(w):
    rel = solve_relations(build_system(w))
    assert rel.rank == 18
    assert relation_strings(rel) == EXPECTED_STRINGS
    assert fiber_degree(w, 7, rel) == 21
    assert component_degree(w, 13, rel) == 168208


def test_substitution_collapses_consequences():
    rel = solved()
    expr = _tl({1: 2, 2: 1, 4: 2})
    assert rel.substitute(expr) == -2
    assert rel.substitute(TwistLinear.constant(5)) == 5


def test_reduce_of_the_flag_sums_equals_the_fraction_substitution():
    rel = solved()
    rows = rel.rows.fractions
    for flag in enumerate_fixed_flags():
        for power in (7, 13):
            form = contribution_sum(flag, W0, power)
            oracle = substitute_rows(rows, FractionLinear(form.coeffs))
            assert rel.reduce(form).coeffs == oracle.coeffs, (flag, power)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=30),
                       st.fractions(max_denominator=1000), max_size=8))
def test_reduce_equals_the_fraction_substitution(coeffs):
    rel = solved()
    oracle = substitute_rows(rel.rows.fractions, FractionLinear(coeffs))
    assert rel.reduce(TwistLinear(coeffs)).coeffs == oracle.coeffs


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(min_value=0, max_value=30),
                       st.fractions(max_denominator=1000), max_size=8),
       st.integers(min_value=-10**6, max_value=10**6).filter(bool))
def test_reduce_row_does_not_depend_on_the_scale_of_its_row(coeffs, k):
    rel = solved()
    tl = TwistLinear(coeffs)
    row, den = rel.reduce_row([n * k for n in tl.nums], tl.den * k)
    assert TwistLinear.from_row(row, den) == rel.reduce(tl)
    outcomes = []
    for collapse in (lambda: rel.collapse(row, den),
                     lambda: rel.substitute(tl)):
        try:
            outcomes.append(collapse())
        except ResidualUnknowns as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


def test_free_unknowns_are_reported():
    rel = solved()
    with pytest.raises(ResidualUnknowns) as err:
        rel.substitute(_tl({26: 1}))
    assert "unresolved twist unknowns: d26" in str(err.value)


def test_empty_echelon_leaves_a_row_unchanged():
    # No rows means no width: nothing is substituted and no column is
    # cleared, whatever the length of the row.
    empty = relations.SolvedRelations(rref([]), None)
    row = [0] * 31
    row[4], row[25], row[30] = 2, -7, 5
    reduced, den = empty.reduce_row(row, 3)
    assert (reduced, den) == (row, 3)
    with pytest.raises(ResidualUnknowns) as err:
        empty.collapse(reduced, den)
    assert str(err.value) == "unresolved twist unknowns: d5, d26"


@pytest.mark.parametrize("w", [W0, W_WIDE, (0, 6, 30, 210)])
def test_relations_need_one_prime(monkeypatch, w):
    # A certificate that wrongly rejected a candidate would still end
    # with the right rows, but only after bringing in more primes.
    calls = []
    rref_mod = relations._rref_mod

    def counting(mat, p):
        calls.append(p)
        return rref_mod(mat, p)

    monkeypatch.setattr(relations, "_rref_mod", counting)
    rel = solve_relations(build_system(w))
    assert calls == [P]
    assert relation_strings(rel) == EXPECTED_STRINGS


def _echelon_form(rows):
    return rows.denom, rows.scaled, rows.pivots


@settings(max_examples=10, deadline=None)
@given(st.one_of(st.tuples(*[st.integers(-40, 40)] * 4),
                 st.tuples(*[st.integers(-10**8, 10**8)] * 4))
       .filter(_admissible))
@example(W_WIDE)
@example((0, 6, 30, 210))
@example((0, 60, 84, 210))
@example((0, 2, 8, 32))
def test_homogenized_solve_equals_the_difference_rows(w):
    # The rows after the first, column 0 dropped, are the echelon of the
    # 23 cross-multiplied differences in the same integer form, and the
    # first row is the value every flag reduces to on its own.
    sys = build_system(w)
    rel = solve_relations(sys)
    want = solve_differences(sys)
    assert _echelon_form(rel.rows) == _echelon_form(want)
    values = per_flag_values(sys, want)
    assert per_flag_fiber_values(w, rel) == values
    assert [v for _, v in values] == [21] * 24


def _small_system(rows, den=1):
    """A hand-made system at W0: flag k's raw power-7 row has the
    entries rows[k] maps to (twist columns 0-29, constant 30) over
    ``den``; the flags past those given take flag 0's row."""
    sums = []
    for k in range(24):
        row = [0] * 31
        for j, c in rows[k if k < len(rows) else 0].items():
            row[j] = c
        sums.append((row, den))
    return RelationSystem(W0, 7, None, sums)


def _moved(k, j):
    sys = system()
    sums = [(list(row), den) for row, den in sys.sum_rows]
    sums[k][0][j] += 1
    return RelationSystem(W0, 7, sys.residues, sums)


def _outcome(call):
    try:
        return call()
    except ResidualUnknowns as err:
        return str(err)


def _homogenized_verdict(sys):
    try:
        rel = solve_relations(sys)
    except InconsistentSystem as err:
        return "InconsistentSystem", str(err)
    values = _outcome(lambda: per_flag_fiber_values(sys.w, rel))
    value = _outcome(lambda: fiber_degree(sys.w, 7, rel))
    return _echelon_form(rel.rows), value, values


def _difference_verdict(sys):
    try:
        echelon = solve_differences(sys)
    except InconsistentSystem as err:
        return "InconsistentSystem", str(err)
    values = _outcome(lambda: per_flag_values(sys, echelon))
    if isinstance(values, str):
        return _echelon_form(echelon), values, values
    assert len({v for _, v in values}) == 1
    return _echelon_form(echelon), values[0][1], values


@pytest.mark.parametrize("case,sys,verdict", [
    # One flag's power-7 constant moved by +1.
    ("constant, flag 0", lambda: _moved(0, 30), "InconsistentSystem"),
    ("constant, flag 17", lambda: _moved(17, 30), "InconsistentSystem"),
    # One twist entry moved, at a pivot column (d1) and a free one
    # (d26): one more unknown is pinned, and the value stays.
    ("d1, flag 5", lambda: _moved(5, 0), (19, 21)),
    ("d26, flag 23", lambda: _moved(23, 25), (19, 21)),
    # Differences (1, 2 | 3) and (2, 4 + P | 6 + P): rank 2 over Q,
    # rank 1 modulo P only.
    ("rank drop mod P", lambda: _small_system(
        [{}, {0: 1, 1: 2, 30: 3}, {0: 2, 1: 4 + P, 30: 6 + P}]), (2, 0)),
    # Differences (1, 2 | 3) and (2, 4 | 6 + P): inconsistent over Q,
    # consistent modulo P only.
    ("inconsistency hidden mod P", lambda: _small_system(
        [{}, {0: 1, 1: 2, 30: 3}, {0: 2, 1: 4, 30: 6 + P}]),
     "InconsistentSystem"),
    # Differences d1 = 0 over 1, and the common value 1/3 over 3: the
    # relations keep their own denominator.
    ("fractional value", lambda: _small_system(
        [{30: 1}, {0: 3, 30: 1}], 3), (1, Fraction(1, 3))),
    # Every flag the same row, which keeps the free unknown d5.
    ("free unknown", lambda: _small_system([{4: 3, 30: 1}]),
     (0, "unresolved twist unknowns: d5")),
])
def test_disagreement_is_refused_at_the_solve(case, sys, verdict):
    sys = sys()
    got = _homogenized_verdict(sys)
    assert got == _difference_verdict(sys), case
    if verdict == "InconsistentSystem":
        assert got[0] == verdict, case
    else:
        assert (len(got[0][1]), got[1]) == verdict, case


def test_flag_rows_that_hide_rank_mod_p_bring_in_a_second_prime(monkeypatch):
    # P is unlucky for the homogenized rows as for their differences.
    calls = []
    rref_mod = relations._rref_mod

    def counting(mat, p):
        calls.append(p)
        return rref_mod(mat, p)

    monkeypatch.setattr(relations, "_rref_mod", counting)
    rel = solve_relations(_small_system(
        [{}, {0: 1, 1: 2, 30: 3}, {0: 2, 1: 4 + P, 30: 6 + P}]))
    assert relation_strings(rel) == ["d1 + 1 = 0", "d2 + 1 = 0"]
    assert calls == [P, P2]
    calls.clear()
    with pytest.raises(InconsistentSystem):
        solve_relations(_small_system(
            [{}, {0: 1, 1: 2, 30: 3}, {0: 2, 1: 4, 30: 6 + P}]))
    assert calls == [P, P2]


@pytest.mark.parametrize("w", [W0, W_WIDE])
def test_reduce_row_calls_of_one_degree_op(monkeypatch, w):
    # The certificate reduces each flag's homogenized row (32 wide) once
    # and the component degree each flag's power-13 row (31 wide) once;
    # the fiber value is read off the solve, and no flag-difference
    # equation is built.
    calls, solves = [], []
    reduce_row, solve = relations.Echelon.reduce_row, relations.rref

    def counting(self, nums, den=1):
        calls.append(len(nums))
        return reduce_row(self, nums, den)

    def counting_rref(mat):
        solves.append((len(mat), len(mat[0])))
        return solve(mat)

    def refuse(self):
        raise AssertionError("a flag-difference equation was built")

    monkeypatch.setattr(relations.Echelon, "reduce_row", counting)
    monkeypatch.setattr(relations, "rref", counting_rref)
    monkeypatch.setattr(RelationSystem, "equations", property(refuse))
    rel = solve_relations(build_system(w))
    assert fiber_degree(w, 7, rel) == 21
    assert component_degree(w, 13, rel) == 168208
    assert solves == [(24, 32)]
    assert calls == [32] * 24 + [31] * 24


def test_contradictory_equations_are_refused():
    eqs = [_tl({1: 1, 0: 1}), _tl({1: 1, 0: 2})]
    with pytest.raises(InconsistentSystem):
        rref([eq.nums for eq in eqs])


def _reference_rref(rows):
    """Plain Gauss-Jordan over Fractions; None when inconsistent."""
    mat = [[Fraction(c) for c in row] for row in rows]
    width = len(mat[0]) - 1 if mat else 0
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [c / mat[r][col] for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    if any(row[width] for row in mat[r:]):
        return None
    return tuple(tuple(row) for row in mat[:r])


@st.composite
def rational_systems(draw):
    """Small rational matrices; with a drawn flag, one extra row is a
    combination of the others with its constant moved by one, which
    makes the system inconsistent."""
    width = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-4, max_value=4, max_denominator=3))
    rows = draw(st.lists(st.lists(entry, min_size=width + 1,
                                  max_size=width + 1), max_size=5))
    if rows and draw(st.booleans()):
        scales = draw(st.lists(st.integers(min_value=-2, max_value=2),
                               min_size=len(rows), max_size=len(rows)))
        extra = [sum(k * row[j] for k, row in zip(scales, rows))
                 for j in range(width + 1)]
        extra[-1] += 1
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


def _scaled_to_ints(row):
    denom = lcm(*(c.denominator for c in row))
    return [int(c * denom) for c in row]


@settings(max_examples=100, deadline=None)
@given(rational_systems())
@example([[Fraction(1, 2), Fraction(-3, 4), Fraction(5)],
          [Fraction(2), Fraction(0), Fraction(7, 3)]])
def test_rref_equals_the_fraction_reference(rows):
    """rref takes integer rows: each rational row scaled to ints spans
    the same space, so it has the reference's reduced form."""
    ints = [_scaled_to_ints(row) for row in rows]
    expected = _reference_rref(rows)
    if expected is None:
        with pytest.raises(InconsistentSystem):
            rref(ints)
    else:
        assert rref(ints).fractions == expected


def _is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


@st.composite
def residue_systems(draw):
    """A prime p and integer rows for elimination mod p: widths 1-40,
    1-40 rows, each row zero, a multiple of p that is not zero, or
    entries that mix zeros, small values, multiples of p and values
    above 2^1000."""
    p = draw(st.sampled_from([2, 3, 5, P, P2]))
    width = draw(st.integers(min_value=1, max_value=40))
    huge = st.integers(min_value=1 << 1000, max_value=1 << 1010)
    entry = st.one_of(st.just(0), st.integers(-3, 3),
                      st.integers(-(1 << 40), 1 << 40).map(lambda k: k * p),
                      huge, huge.map(lambda k: -k),
                      st.integers(0, p - 1))
    row = st.one_of(
        st.just([0] * width),
        st.lists(st.integers(-(1 << 1010), 1 << 1010).map(lambda k: k * p),
                 min_size=width, max_size=width).filter(any),
        st.lists(entry, min_size=width, max_size=width))
    return p, draw(st.lists(row, min_size=1, max_size=40))


@settings(max_examples=120, deadline=None)
@given(residue_systems())
@example((P, [[0, 0], [3 * P, -P], [P - 1, 1]]))
def test_packed_rows_equal_the_list_reference(system):
    """The packed kernel returns the pivots and residues of
    Gauss-Jordan on lists of residues."""
    p, mat = system
    assert relations._rref_mod(mat, p) == rref_mod(mat, p)


def test_dense_system_mod_the_largest_prime_equals_the_list_reference():
    # Dense and of full rank: barring an entry that is zero mod P, every
    # row takes a step at every pivot, the most steps the field bound
    # P + 40*P^2 allows for.
    rng = random.Random(27)
    mat = [[rng.randrange(P) for _ in range(40)] for _ in range(40)]
    pivots, rows = relations._rref_mod(mat, P)
    assert (pivots, rows) == rref_mod(mat, P)
    assert pivots == tuple(range(40))


def test_elimination_primes_are_the_largest_below_2_30():
    # Literal values, so the check does not rest on trial division alone.
    assert list(islice(relations._primes(), 3)) == [
        1073741789, 1073741783, 1073741741]
    assert P == (1 << 30) - 35
    assert P2 < P
    assert _is_prime_by_trial_division(P)
    assert _is_prime_by_trial_division(P2)
    assert not any(_is_prime_by_trial_division(n)
                   for n in range(P2 + 1, 1 << 30) if n != P)


def test_constant_pivot_mod_p_is_not_an_inconsistency():
    # Modulo P the row reads (0, 1), yet over Q it says P*x = -1.
    assert rref([[P, 1]]).fractions == ((1, Fraction(1, P)),)


def test_unlucky_prime_is_skipped():
    # Mod P the pivot is column 0 and 1/P2 needs more primes to lift;
    # mod P2 the row reads (0, 1, 0), a later pivot, so P2 is skipped.
    assert rref([[P2, 1, 0]]).fractions == ((1, Fraction(1, P2), 0),)


def test_entry_past_the_one_prime_bound_is_joined_by_crt(monkeypatch):
    # x = -23171 and y = 23171: one past isqrt((P - 1)/2) = 23170, the
    # largest numerator one prime lifts, so a second prime joins by CRT.
    assert isqrt((P - 1) // 2) == 23170
    joins = []
    crt = relations._crt

    def counting(residues, modulus, more, p):
        joins.append((modulus, p))
        return crt(residues, modulus, more, p)

    monkeypatch.setattr(relations, "_crt", counting)
    rows = [[1, 1, 0], [1, -1, 46342]]
    assert rref(rows).fractions == _reference_rref(rows) \
        == ((1, 0, 23171), (0, 1, -23171))
    assert joins == [(P, P2)]


def test_rank_drop_mod_p_gives_the_rational_form():
    rows = [[1, 2, 3], [2, 4 + P, 6 + P]]
    assert rref(rows).fractions == _reference_rref(rows) \
        == ((1, 0, 1), (0, 1, 1))


def test_inconsistency_hidden_mod_p_is_found():
    # Row two minus twice row one is (0, 0, P): zero modulo P only.
    rows = [[1, 2, 3], [2, 4, 6 + P]]
    assert _reference_rref(rows) is None
    with pytest.raises(InconsistentSystem):
        rref(rows)


@st.composite
def wide_systems(draw):
    """Rational matrices with numerators or denominators above 2^130,
    so that the reduced form needs several primes."""
    width = draw(st.integers(min_value=1, max_value=4))
    big = st.integers(min_value=-(1 << 140), max_value=1 << 140)
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, big, st.integers(1, 1 << 140)),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    return draw(st.lists(st.lists(entry, min_size=width + 1,
                                  max_size=width + 1), max_size=4))


@settings(max_examples=60, deadline=None)
@given(wide_systems())
def test_rref_with_wide_entries_equals_the_fraction_reference(rows):
    ints = [_scaled_to_ints(row) for row in rows]
    expected = _reference_rref(rows)
    if expected is None:
        with pytest.raises(InconsistentSystem):
            rref(ints)
    else:
        assert rref(ints).fractions == expected


def test_single_blowup_cross_checks_up_to_twelve():
    # The equations are pinned by a digest of their text as first
    # printed; the drops follow the closed form m zeros, then ones.
    reports = []
    for n in range(3, 13):
        for m in range(1, n - 1):
            report = normal_twist_check(n, m)
            assert report.unique
            assert report.deltas == (0,) * m + (1,) * (n - 1 - m)
            reports.append([n, m, report.equations, report.solution])
    digest = hashlib.sha256(
        json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == ("b671df01a2b1fc7399a3c322b5744fa7"
                      "17b991ee4e96841f9afab9a89c1a4ce1")


def test_single_blowup_cross_check_small():
    report = normal_twist_check(4, 1)
    assert report.equations == [
        "6*a1 + 3*a2 + 2*a3 = 6*b1 + 3*b2 + 2*b3 + 5",
        "6*a1 + 4*a2 + 3*a3 = 6*b1 + 4*b2 + 3*b3 + 7",
        "20*a1 + 15*a2 + 12*a3 = 20*b1 + 15*b2 + 12*b3 + 27",
    ]
    assert report.unique
    assert report.deltas == (0, 1, 1)
    assert report.solution == {"b1": "a1", "b2": "a2 - 1", "b3": "a3 - 1"}


def test_single_blowup_cross_check_larger():
    report = normal_twist_check(5, 2)
    assert report.unique
    assert report.deltas == (0, 0, 1, 1)


@pytest.mark.parametrize("n,m", [(2, 1), (4, 0), (4, 3), (3, 2)])
def test_single_blowup_guard(n, m):
    with pytest.raises(ValueError):
        normal_twist_check(n, m)
