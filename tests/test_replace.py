"""Exponent schedules, the power inequality, and replacement systems."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from conftest import cache_rows, parse_many
from test_dimension import criterion_03_families

from hyperpos import groebner, replace
from hyperpos.errors import DomainError
from hyperpos.groebner import (DIMENSION_COUNTS, EMPTY, dim_at_most, normal_form,
                               projective_dimension, set_cache_dir)
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
        sys = build_replacement(v, fam, prof, seed=1)
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
        sys = build_replacement(v, fam, prof, seed=1)
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
            build_replacement(v, fam, prof, seed=1)

    def test_deterministic(self):
        v = plane()
        fam = linear_family(v, ["x1", "x2", "x1 + x2", "x0"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        a = build_replacement(v, fam, prof, seed=7)
        b = build_replacement(v, fam, prof, seed=7)
        assert a.coeff_matrix == b.coeff_matrix
        assert a.replacements == b.replacements

    def test_rows_stay_in_span(self):
        v = plane()
        fam = linear_family(v, ["x1", "x1 - x2", "x2", "x0"])
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        sys = build_replacement(v, fam, prof, seed=3)
        for u, row in enumerate(sys.coeff_matrix):
            t_u = prof.t_values[u]
            assert all(c == 0 for c in row[t_u + 1:])
        assert verify_replacement(v, sys).ok

    def test_quadric_surface_family(self):
        # nonlinear ambient: quadric in P^3, linear cuts
        v = build_variety(parse_many(["x0^2 + x1^2 + x2^2 - x3^2"], 4))
        fam = build_family(v, parse_many(["x0", "x1", "x2", "x3"], 4))
        prof = dimension_profile(v, fam, (0, 1, 2, 3))
        sys = build_replacement(v, fam, prof, seed=2)
        verdict = verify_replacement(v, sys)
        assert verdict.ok
        assert verdict.prefix_dims[-1] is EMPTY


class TestVerifyReplacement:
    def test_good_system(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        verdict = verify_replacement(v, build_replacement(v, fam, prof, seed=1))
        assert verdict.prefix_dims == (1, 0, EMPTY)
        assert verdict.bounds_met == (True, True, True)
        assert verdict.ok

    def test_corrupted_duplicate(self):
        v = plane()
        fam = linear_family(v, ["x0", "x1", "x2"])
        prof = dimension_profile(v, fam, (0, 1, 2))
        good = build_replacement(v, fam, prof, seed=1)
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
        good = build_replacement(v, fam, prof, seed=1)
        rows = list(good.coeff_matrix)
        rows[1] = (Fraction(2), Fraction(1), Fraction(0))
        bad = ReplacementSystem(good.replacements, tuple(rows), prof, fam)
        verdict = verify_replacement(v, bad)
        assert not verdict.combination_ok
        assert not verdict.ok


# ---------------------------------------------------------------------------
# the search rule: mod p first, Q only when a level is exhausted mod p

def candidate_order(t_u, level, seed, max_bound):
    """The coefficient vectors of one level, in the order the search tries them."""
    for bound in (b for b in (1, 2, 4, 8) if b <= max_bound):
        values = [0] + [s * k for k in range(1, bound + 1) for s in (1, -1)]
        tried = (c for c in product(values, repeat=t_u + 1) if any(c))
        for count, cand in enumerate(tried, 1):
            if count > replace._SPIRAL_LEVEL_CAP:
                break
            yield cand
    rng = random.Random(seed * 1000003 + level)
    for spread, tries in replace._RANDOM_STAGES:
        for _ in range(tries):
            cand = tuple(rng.randint(-spread, spread) for _ in range(t_u + 1))
            if any(cand):
                yield cand


def q_rule_replacement(v, fam, profile, seed=0, max_bound=8):
    """The search with every candidate judged on its dimension over Q.

    This is the rule that the mod-p search replaced, kept as its oracle: it
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
        for cand in candidate_order(t_u, u, seed, max_bound):
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
    """(variety, family, ordering, seed) of every replacement the gate builds."""
    for v, fam in criterion_03_families():
        yield v, fam, tuple(range(fam.q)), 11
    v = plane()
    yield v, linear_family(v, ["x0", "x1", "x2"]), (0, 1, 2), 7  # criterion 10


def bench_cases():
    p3 = build_variety([], num_vars=4)
    yield p3, build_family(p3, parse_many(pair_products(4), 4)), tuple(range(7)), 0
    p4 = build_variety([], num_vars=5)
    order = tuple(i - 1 for i in (2, 11, 6, 8, 5, 1, 3, 4, 10, 9, 7))
    yield p4, build_family(p4, parse_many(pair_products(5), 5)), order, 0


def outcome(search, v, fam, ordering, seed):
    """(replacements, coeff_matrix), or the name of the DomainError raised."""
    try:
        profile = dimension_profile(v, fam, ordering)
        return search(v, fam, profile, seed)
    except DomainError as exc:
        return type(exc).__name__


def modp_rule(v, fam, profile, seed):
    system = build_replacement(v, fam, profile, seed=seed)
    assert verify_replacement(v, system).ok
    return system.replacements, system.coeff_matrix


@pytest.mark.parametrize("cases", [gate_cases, bench_cases])
def test_modp_rule_equals_q_rule(cases):
    built = 0
    for v, fam, ordering, seed in cases():
        expected = outcome(q_rule_replacement, v, fam, ordering, seed)
        assert outcome(modp_rule, v, fam, ordering, seed) == expected, fam.members
        built += not isinstance(expected, str)
    assert built >= 2


SMALL_PRIME = 3


def test_unlucky_small_prime_still_verifies(monkeypatch):
    monkeypatch.setattr(groebner, "MODULUS", SMALL_PRIME)
    differs = 0
    for v, fam, ordering, seed in gate_cases():
        try:
            profile = dimension_profile(v, fam, ordering)
            system = build_replacement(v, fam, profile, seed=seed)
        except DomainError:
            continue
        assert verify_replacement(v, system).ok, fam.members
        oracle = q_rule_replacement(v, fam, profile, seed)
        differs += (system.replacements, system.coeff_matrix) != oracle
    # some rejection mod 3 was wrong, and the search took a later candidate
    assert differs > 0


def test_modp_records_of_one_modulus_never_read_under_another(monkeypatch, tmp_path):
    large = groebner.MODULUS
    v = plane()
    # x0 + 3*x1 is x0 mod 3: level 1 accepts it over Q but rejects it mod 3
    fam = linear_family(v, ["x0", "x0 + 3*x1", "x2"])
    profile = dimension_profile(v, fam, (0, 1, 2))

    def search(modulus):
        monkeypatch.setattr(groebner, "MODULUS", modulus)
        DIMENSION_COUNTS.clear()
        system = build_replacement(v, fam, profile, seed=1)
        assert verify_replacement(v, system).ok
        return system.coeff_matrix, DIMENSION_COUNTS["modp_bound"]

    small_rows, small_passes = search(SMALL_PRIME)
    large_rows, large_passes = search(large)
    assert small_rows != large_rows  # so reading a record across moduli would show

    set_cache_dir(str(tmp_path))
    assert search(SMALL_PRIME) == (small_rows, small_passes)
    assert {modulus for _, modulus, _ in cache_rows(tmp_path)} == {0, SMALL_PRIME}
    # recomputed under the large prime, not read from the small-prime records
    assert search(large) == (large_rows, large_passes)
    # each modulus reads its own records back
    assert search(SMALL_PRIME) == (small_rows, 0)
    assert search(large) == (large_rows, 0)


def test_stale_profile_exhausts_after_q_fallback(monkeypatch):
    v = plane()
    # the profile of three coordinate lines, with the members of a family whose
    # first two lines coincide: no combination of them cuts the line to a point
    profile = dimension_profile(v, linear_family(v, ["x0", "x1", "x2"]), (0, 1, 2))
    stale = linear_family(v, ["x0", "2*x0", "x1"])
    monkeypatch.setattr(replace, "_SPIRAL_LEVEL_CAP", 4)
    monkeypatch.setattr(replace, "_RANDOM_STAGES", ((3, 5),))
    DIMENSION_COUNTS.clear()
    with pytest.raises(SearchExhausted, match="step 1"):
        build_replacement(v, stale, profile, seed=1)
    assert DIMENSION_COUNTS["modp_bound"] > 0
    assert DIMENSION_COUNTS["exact"] > 0  # the level was searched again over Q
    with pytest.raises(SearchExhausted):
        q_rule_replacement(v, stale, profile, seed=1)


def conic():
    return build_variety(parse_many(["x0*x2 - x1^2"], 3), num_vars=3)


# W = V(Q0) meets the conic x0*x2 = x1^2 in [1:0:0], [0:0:1], [1:1:1] and
# [1:-1:1].  On W, Q1 = -Q2, and Q3, Q2 + Q3 and Q2 - Q3 each vanish at one of
# those points, so every earlier candidate is rejected before Q1 + Q2, which
# is zero on the conic.  The first variant writes Q1 as -Q2 plus the conic's
# equation, so Q1 + Q2 lies in its ideal; the second writes Q1 = -Q2, so
# Q1 + Q2 is the zero polynomial.
DEPENDENT_FAMILIES = {
    "in_ideal": ["x0*x1 - x1*x2", "x0*x2 - x1^2 - x2^2", "x2^2", "x0^2 - x0*x1 - x0*x2"],
    "zero": ["x0*x1 - x1*x2", "-1*x2^2", "x2^2", "x0^2 - x0*x1 - x0*x2"],
}


@pytest.mark.parametrize("name", sorted(DEPENDENT_FAMILIES))
def test_combination_vanishing_on_the_variety_is_rejected(monkeypatch, name):
    v = conic()
    fam = build_family(v, parse_many(DEPENDENT_FAMILIES[name], 3))
    profile = dimension_profile(v, fam, (0, 1, 2, 3))
    assert profile.t_values == (0, 3)
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
