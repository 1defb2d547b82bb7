"""Exponent schedules, the power inequality, and replacement systems."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from conftest import parse_many
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import random_form
from test_dimension import criterion_03_families

from hyperpos import groebner, replace
from hyperpos.errors import DomainError
from hyperpos.groebner import DIMENSION_COUNTS, EMPTY, dim_at_most, normal_form, projective_dimension
from hyperpos.polyring import DimensionMismatch, poly_combine
from hyperpos.position import build_family, build_variety, dimension_profile
from hyperpos.replace import (
    BelowOne,
    NotIncreasing,
    NotSorted,
    PowerBudgetExceeded,
    ReplacementSystem,
    SameDegreeRequired,
    SearchExhausted,
    build_replacement,
    exponent_schedule,
    verify_power_inequality,
    verify_replacement,
)


def t_grids(max_n=3, t0_values=(0, 1), t_max=7):
    for n in range(1, max_n + 1):
        for t0 in t0_values:
            for rest in combinations(range(t0 + 1, t_max + 1), n):
                yield (t0,) + rest


A_VALUES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))


class TestExponentSchedule:
    def test_uniform_steps(self):
        sched = exponent_schedule((1, 2, 3))
        assert sched.delta == 1
        assert sched.m_values == (1, 1, 1)

    def test_early_jump(self):
        sched = exponent_schedule((1, 3, 4))
        assert sched.delta == 2
        assert sched.m_values == (2, 1, 2)
        assert sched.max_index == 1

    def test_late_jump(self):
        sched = exponent_schedule((0, 1, 3))
        assert sched.delta == Fraction(3, 2)
        assert sched.m_values == (Fraction(3, 2), 2, Fraction(3, 2))
        assert sched.max_index == 2

    def test_not_increasing(self):
        with pytest.raises(NotIncreasing):
            exponent_schedule((1, 1, 2))
        with pytest.raises(NotIncreasing):
            exponent_schedule((3,))

    def test_translation_invariance(self):
        for t in ((0, 1, 3), (1, 3, 4), (0, 2, 3, 7)):
            base = exponent_schedule(t)
            shifted = exponent_schedule(tuple(x + 5 for x in t))
            assert base.delta == shifted.delta
            assert base.m_values == shifted.m_values

    def test_m0_equals_delta_on_grid(self):
        # the first exponent always lands exactly on the slope maximum
        for t in t_grids():
            sched = exponent_schedule(t)
            assert sched.m_values[0] == sched.delta, t

    def test_m_at_least_delta_below_max_index(self):
        for t in t_grids():
            sched = exponent_schedule(t)
            for u in range(sched.max_index):
                assert sched.m_values[u] >= sched.delta, t


class TestPowerInequality:
    def test_equality_at_delta_one(self):
        res = verify_power_inequality((1, 2, 3), (5, 2))
        assert res.holds and res.equality
        assert (res.lhs, res.rhs, res.power) == (10, 10, 1)

    def test_strict_case(self):
        res = verify_power_inequality((1, 3, 4), (3, 2))
        assert res.holds and not res.equality
        assert (res.lhs, res.rhs) == (18, 36)

    def test_not_sorted(self):
        with pytest.raises(NotSorted):
            verify_power_inequality((1, 2, 3), (2, 3))

    def test_below_one(self):
        with pytest.raises(BelowOne):
            verify_power_inequality((1, 2, 3), (1, Fraction(1, 2)))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_power_inequality((1, 2, 3), (2,))

    def test_power_budget(self):
        # 3^9012 has 14284 bits, 3^9013 has 14286
        res = verify_power_inequality((0, 9012), (3,))
        assert res.lhs == 3 ** 9012
        with pytest.raises(PowerBudgetExceeded):
            verify_power_inequality((0, 9013), (3,))
        # every integer within the budget prints: int -> str takes 4300 digits
        assert len(str(2 ** replace.MAX_POWER_BITS - 1)) == 4300

    def test_huge_power_refused_before_it_is_formed(self, monkeypatch):
        def no_product(factors):
            raise AssertionError("a power was formed")
        monkeypatch.setattr(replace, "prod", no_product)
        with pytest.raises(PowerBudgetExceeded):
            verify_power_inequality((0, 10 ** 9), (3,))

    @pytest.mark.parametrize("t, a", [((0, 9012), (3,)), ((1, 3, 4), (Fraction(7, 2), 2)),
                                      ((0, 2, 7, 8), (Fraction(9, 4), 2, Fraction(5, 4)))])
    def test_power_bound_covers_every_printed_integer(self, monkeypatch, t, a):
        res = verify_power_inequality(t, a)
        widest = max(x.bit_length() for side in (res.lhs, res.rhs)
                     for x in (side.numerator, side.denominator))
        monkeypatch.setattr(replace, "MAX_POWER_BITS", widest - 1)
        with pytest.raises(PowerBudgetExceeded):
            verify_power_inequality(t, a)

    def test_small_grid_holds(self):
        for t in t_grids(max_n=2, t0_values=(1,), t_max=5):
            n = len(t) - 1
            for a in product(A_VALUES, repeat=n):
                a = tuple(sorted(a, reverse=True))
                assert verify_power_inequality(t, a).holds, (t, a)

    def test_chain_bound_stepwise(self):
        # lhs <= prod a_u^min(m_u, delta) <= rhs, all raised to denom(delta)
        for t in t_grids(max_n=2, t0_values=(0,), t_max=5):
            n = len(t) - 1
            sched = exponent_schedule(t)
            den = sched.delta.denominator
            for a in product(A_VALUES, repeat=n):
                a = tuple(sorted(a, reverse=True))
                lhs = prod(a[u] ** ((t[u + 1] - t[u]) * den) for u in range(n))
                mid = prod(a[u] ** (min(sched.m_values[u], sched.delta) * den)
                           for u in range(n))
                rhs = prod(a) ** sched.delta.numerator
                assert lhs <= mid <= rhs, (t, a)


def plane():
    return build_variety([], num_vars=3)


def linear_family(v, texts):
    return build_family(v, parse_many(texts, v.num_vars))


class TestBuildReplacement:
    def test_general_position_identity(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        sys = build_replacement(v, fam, prof)
        assert sys.replacements == fam.members
        assert sys.coeff_matrix == (
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        )

    def test_concurrent_lines_example(self):
        v = plane()
        fam = linear_family(v, ["x1", "x2", "x1 + x2", "x0"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        sys = build_replacement(v, fam, prof)
        assert sys.replacements[0] == fam.members[0]
        assert sys.coeff_matrix[1][2:] == (0, 0)
        assert sys.coeff_matrix[2][3] != 0  # must involve the completing member
        verdict = verify_replacement(v, sys)
        assert verdict.ok
        assert verdict.prefix_dims[-1] is EMPTY

    def test_same_degree_required(self):
        v = plane()
        fam = build_family(v, parse_many(["x0", "x1^2 + x2^2", "x2"], 3))
        prof_fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, prof_fam, (0, 1, 2))
        with pytest.raises(SameDegreeRequired):
            build_replacement(v, fam, prof)

    def test_deterministic(self):
        v = plane()
        fam = linear_family(v, ["x1", "x2", "x1 + x2", "x0"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        a = build_replacement(v, fam, prof)
        b = build_replacement(v, fam, prof)
        assert a.coeff_matrix == b.coeff_matrix
        assert a.replacements == b.replacements

    def test_rows_stay_in_span(self):
        v = plane()
        fam = linear_family(v, ["x1", "x1 - x2", "x2", "x0"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        sys = build_replacement(v, fam, prof)
        for u, row in enumerate(sys.coeff_matrix):
            t_u = prof.t_values[u]
            assert all(c == 0 for c in row[t_u + 1:])
        assert verify_replacement(v, sys).ok

    def test_quadric_surface_family(self):
        # nonlinear ambient: quadric in P^3, linear cuts
        v = build_variety(parse_many(["x0^2 + x1^2 + x2^2 - x3^2"], 4))
        fam = build_family(v, parse_many(["x0", "x1", "x2", "x3"], 4))
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        sys = build_replacement(v, fam, prof)
        verdict = verify_replacement(v, sys)
        assert verdict.ok
        assert verdict.prefix_dims[-1] is EMPTY


class TestVerifyReplacement:
    def test_good_system(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        verdict = verify_replacement(v, build_replacement(v, fam, prof))
        assert verdict.prefix_dims == (1, 0, EMPTY)
        assert verdict.bounds_met == (True, True, True)
        assert verdict.ok

    def test_corrupted_duplicate(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        good = build_replacement(v, fam, prof)
        bad = ReplacementSystem(
            (good.replacements[0], good.replacements[0], good.replacements[2]),
            good.coeff_matrix, prof, fam)
        verdict = verify_replacement(v, bad)
        assert not verdict.ok
        assert verdict.prefix_dims[1] == 1
        assert not verdict.bounds_met[1]

    def test_corrupted_matrix(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        good = build_replacement(v, fam, prof)
        rows = list(good.coeff_matrix)
        rows[1] = (Fraction(2), Fraction(1), Fraction(0))
        bad = ReplacementSystem(good.replacements, tuple(rows), prof, fam)
        verdict = verify_replacement(v, bad)
        assert not verdict.combination_ok
        assert not verdict.ok

    def test_first_row_must_be_the_unit_row(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        good = build_replacement(v, fam, prof)
        # P_0 = 2*x0 is the combination its row names and cuts as x0 does
        rows = ((Fraction(2), Fraction(0), Fraction(0)),) + good.coeff_matrix[1:]
        replacements = (fam.members[0] * 2,) + good.replacements[1:]
        verdict = verify_replacement(v, ReplacementSystem(replacements, rows, prof, fam))
        assert verdict.bounds_met == (True, True, True)
        assert not verdict.combination_ok

    def test_no_coefficient_past_t_u(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        assert prof.t_values == (0, 1, 2)
        good = build_replacement(v, fam, prof)
        assert good.replacements[1] == fam.members[1]
        # P_1 = x1 is what the row's first t_1 + 1 = 2 entries combine to, but
        # the row also names Q_2, past t_1
        rows = list(good.coeff_matrix)
        rows[1] = (Fraction(0), Fraction(1), Fraction(5))
        verdict = verify_replacement(v, ReplacementSystem(good.replacements, tuple(rows),
                                                           prof, fam))
        assert verdict.bounds_met == (True, True, True)
        assert not verdict.combination_ok


# ---------------------------------------------------------------------------
# the search rule: points of the moment curve up to the proven cap, each
# judged on its prefix dimension over Q

def search_cap(v, fam, u, t_u):
    """K * t_u + 1, with K = prod(deg g over V's generators) * d^u.

    K bounds the number of components of V cut by u members of degree d (the
    Bezout inequality), and the coefficient vectors that vanish on one of them
    meet the moment curve in at most t_u points.
    """
    return prod(g.degree for g in v.generators) * fam.degrees[0] ** u * t_u + 1


def curve_order(v, fam, u, t_u):
    """The coefficient vectors of step u, in the order the search tries them:
    (s^t_u, ..., s, 1) for s = 0 .. cap - 1."""
    for s in range(search_cap(v, fam, u, t_u)):
        yield tuple(s ** (t_u - i) for i in range(t_u + 1))


def q_rule_replacement(v, fam, profile):
    """The search with every candidate judged on its dimension over Q.

    The oracle asks `projective_dimension` itself, with V's generators and its
    own bounds, and skips a combination that is zero or vanishes on V: it
    accepts the first candidate of each level whose prefix has dimension at
    most n - u - 1 over Q.
    """
    n = v.dim_n
    ordered = [fam.members[i] for i in profile.ordering]
    width = profile.l_value + 1
    gens = list(v.generators)
    replacements = [ordered[0]]
    rows = [(Fraction(1),) + (Fraction(0),) * (width - 1)]
    prefix_dim = projective_dimension(gens + replacements, v.num_vars, n - 1)
    if not dim_at_most(prefix_dim, n - 1):
        raise SearchExhausted("leading member does not cut the variety")
    for u in range(1, n + 1):
        t_u = profile.t_values[u]
        lower = None if prefix_dim is EMPTY or prefix_dim < 1 else prefix_dim - 1
        for cand in curve_order(v, fam, u, t_u):
            combined = poly_combine(cand, ordered[:t_u + 1])
            if combined.is_zero or normal_form(combined, v.gb).is_zero:
                continue
            dim = projective_dimension(gens + replacements + [combined], v.num_vars, lower)
            if dim_at_most(dim, n - u - 1):
                break
        else:
            raise SearchExhausted(f"no admissible combination at step {u}")
        replacements.append(combined)
        rows.append(tuple(Fraction(c) for c in cand) + (Fraction(0),) * (width - len(cand)))
        prefix_dim = dim
    return tuple(replacements), tuple(rows)


def pair_products(nvars):
    """The bench's replace family: every x_i*x_j with i < j, and the sum of squares."""
    texts = [f"x{i}*x{j}" for i in range(nvars) for j in range(i + 1, nvars)]
    return texts + [" + ".join(f"x{i}^2" for i in range(nvars))]


def gate_cases():
    """(variety, family, ordering) of every replacement the gate builds."""
    for v, fam in criterion_03_families():
        yield v, fam, tuple(range(fam.q))
    v = plane()
    yield v, linear_family(v, ["x0", "x1", "x2"]), (0, 1, 2)  # criterion 10


def bench_cases():
    p3 = build_variety([], num_vars=4)
    yield p3, build_family(p3, parse_many(pair_products(4), 4)), tuple(range(7))
    p4 = build_variety([], num_vars=5)
    order = tuple(i - 1 for i in (2, 11, 6, 8, 5, 1, 3, 4, 10, 9, 7))
    pairs = build_family(p4, parse_many(pair_products(5), 5))
    yield p4, pairs, order
    yield p4, pairs, tuple(range(11))  # the natural order


def outcome(search, v, fam, ordering):
    """(replacements, coeff_matrix), or the name of the DomainError raised."""
    try:
        profile = dimension_profile(v, fam, ordering)
        return search(v, fam, profile)
    except DomainError as exc:
        return type(exc).__name__


def search_rule(v, fam, profile):
    system = build_replacement(v, fam, profile)
    assert verify_replacement(v, system).ok
    return system.replacements, system.coeff_matrix


SWEEP_VARIETIES = {
    "P2": (3, []),
    "P3": (4, []),
    "conic": (3, ["x0*x2 - x1^2"]),
    "twisted cubic": (4, ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"]),
    # a line and a point: X can have a top component inside the point
    "line and point": (3, ["x0*x1", "x0*x2"]),
}


@st.composite
def random_systems(draw):
    nvars, texts = SWEEP_VARIETIES[draw(st.sampled_from(sorted(SWEEP_VARIETIES)))]
    v = build_variety(parse_many(texts, nvars), num_vars=nvars)
    degree = draw(st.integers(1, 2))
    q = draw(st.integers(v.dim_n + 1, v.dim_n + 3))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    members = [random_form(rng, nvars, degree, spread=2, max_terms=4) for _ in range(q)]
    return v, members, draw(st.permutations(range(q)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_systems())
def test_random_systems_accept_below_the_cap(system):
    v, members, ordering = system
    try:
        fam = build_family(v, members)
        profile = dimension_profile(v, fam, ordering)
    except DomainError:
        assume(False)  # a member vanishes on V, or the ordering has no valid profile
    built = build_replacement(v, fam, profile)
    assert verify_replacement(v, built).ok
    for u in range(1, v.dim_n + 1):
        t_u = profile.t_values[u]
        row = built.coeff_matrix[u]
        s = row[t_u - 1]  # c(s) ends in (s, 1)
        assert row[:t_u + 1] == tuple(s ** (t_u - i) for i in range(t_u + 1))
        assert 0 <= s < search_cap(v, fam, u, t_u)


@pytest.mark.parametrize("cases", [gate_cases, bench_cases])
def test_modp_rule_equals_q_rule(cases):
    built = 0
    for v, fam, ordering in cases():
        expected = outcome(q_rule_replacement, v, fam, ordering)
        assert outcome(search_rule, v, fam, ordering) == expected, fam.members
        built += not isinstance(expected, str)
    assert built >= 2


def unlucky_cases():
    """The gate's cases, and one where s = 0 is rejected mod 3 but not over Q."""
    yield from gate_cases()
    # V(x0*x1) is [1:0] and [0:1]; step 1 tries s^2*Q0 + s*Q1 + Q2, which is
    # s + 3 at [0:1], so it vanishes there mod 3 for s = 0
    v = build_variety([], num_vars=2)
    yield v, build_family(v, parse_many(["x0*x1", "x1^2", "x0^2 + 3*x1^2"], 2)), (0, 1, 2)


def test_unlucky_small_prime_still_verifies(monkeypatch):
    expected = [(case, outcome(q_rule_replacement, *case)) for case in unlucky_cases()]
    assert sum(not isinstance(e, str) for _, e in expected) >= 2
    # an unlucky prime only costs a pass over Q: the accepted points are the Q rule's
    for prime in (2, 3):
        monkeypatch.setattr(groebner, "MODULUS", prime)
        for case, oracle in expected:
            assert outcome(search_rule, *case) == oracle, (prime, case[1].members)


def test_stale_profile_exhausts_after_q_fallback():
    # V is the line x0 = 0 and the point [1:0:0].  The profile is that of x1^2,
    # x1*x2, x2^2 + x0^2, t = (0, 2); the members are those of a family whose
    # every combination is a multiple of x1^2, so none cuts V(x1^2), the points
    # [0:0:1] and [1:0:0], away
    v = build_variety(parse_many(["x0*x1", "x0*x2"], 3), num_vars=3)
    profile = dimension_profile(
        v, build_family(v, parse_many(["x1^2", "x1*x2", "x2^2 + x0^2"], 3)), (0, 1, 2))
    assert profile.t_values == (0, 2)
    stale = build_family(v, parse_many(["x1^2", "2*x1^2", "-1*x1^2"], 3))
    cap = search_cap(v, stale, 1, 2)
    # deg x0*x1 * deg x0*x2 * d^1 * t_1 + 1; V's degree (1, from its line alone)
    # would give 5
    assert (v.degree_delta, cap) == (1, 2 * 2 * 2 * 2 + 1)
    DIMENSION_COUNTS.clear()
    with pytest.raises(SearchExhausted, match="step 1"):
        build_replacement(v, stale, profile)
    # the prefix settles mod p, then every point of the curve needs the pass over Q
    assert DIMENSION_COUNTS == {"modp": 1, "exact": cap}
    with pytest.raises(SearchExhausted):
        q_rule_replacement(v, stale, profile)


def conic():
    return build_variety(parse_many(["x0*x2 - x1^2"], 3), num_vars=3)


# W = V(Q0) meets the conic x0*x2 = x1^2 in [1:0:0], [0:0:1], [1:1:1] and
# [1:-1:1], and the profile's first three members meet on W in [1:0:0] and
# [0:0:1], so t = (0, 3).  Under its own profile no point of the curve is zero
# or vanishes on V: on the component of X where Q_0..Q_{t_u - 1} vanish, c(s)
# is Q_{t_u}.  So the families below run under this stale profile.  Step 1
# tries Q3 = x2^2, which vanishes at [1:0:0], then Q0 + Q1 + Q2 + Q3, then
# 8*Q0 + 4*Q1 + 2*Q2 + Q3, which is 2*x0^2 - x2^2 on W and is accepted.  In the
# first family Q0 + Q1 + Q2 + Q3 is the conic's equation, so it lies in its
# ideal; in the second it is the zero polynomial.
PROFILE_FAMILY = ["x0*x1 - x1*x2", "x1^2", "x1*x2", "x0^2 + x2^2"]
DEPENDENT_FAMILIES = {
    "in_ideal": ["x0*x1 - x1*x2", "x0^2", "x0*x2 - x1^2 - x0*x1 + x1*x2 - x0^2 - x2^2", "x2^2"],
    "zero": ["x0*x1 - x1*x2", "x0^2", "-1*x0*x1 + x1*x2 - x0^2 - x2^2", "x2^2"],
}


@pytest.mark.parametrize("name", sorted(DEPENDENT_FAMILIES))
def test_combination_vanishing_on_the_variety_is_rejected(monkeypatch, name):
    v = conic()
    profile = dimension_profile(v, build_family(v, parse_many(PROFILE_FAMILY, 3)), (0, 1, 2, 3))
    assert profile.t_values == (0, 3)
    fam = build_family(v, parse_many(DEPENDENT_FAMILIES[name], 3))
    tried = []

    def recording_combine(coeffs, polys):
        combined = poly_combine(coeffs, polys)
        tried.append(combined)
        return combined

    monkeypatch.setattr(replace, "poly_combine", recording_combine)
    system = build_replacement(v, fam, profile)
    vanishing = [i for i, c in enumerate(tried) if c.is_zero or normal_form(c, v.gb).is_zero]
    assert vanishing and vanishing[0] < len(tried) - 1
    assert verify_replacement(v, system).ok
    assert (system.replacements, system.coeff_matrix) == q_rule_replacement(v, fam, profile)
