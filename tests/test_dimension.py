"""The certified dimension engine against the exact basis over Q.

`projective_dimension` answers from a mod-p basis when that answer is
proven and falls back to the exact basis otherwise.  Every test here
compares it with `ideal_profile(groebner_basis(...))`, the exact route.
"""

import importlib.util
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dimension_of_leads, modp_lead_monomials
from test_acceptance import _check_replacement, random_form

from hyperpos import groebner
from hyperpos.errors import DomainError
from hyperpos.groebner import (
    DIMENSION_COUNTS,
    EMPTY,
    GREVLEX,
    MODULUS,
    PAIR_COUNTS,
    PackedDegreeExceeded,
    groebner_basis,
    ideal_profile,
    projective_dimension,
)
from hyperpos.polyring import HomoPoly, parse_poly
from hyperpos.position import (
    build_family,
    build_variety,
    dimension_profile,
    distributive_constant,
    intersection_dimension,
)
from hyperpos.replace import build_replacement


def exact_dim(gens, num_vars):
    return ideal_profile(groebner_basis(gens, GREVLEX, num_vars=num_vars)).projective_dimension


def family_of(nvars, texts, variety=()):
    v = build_variety([parse_poly(t, nvars) for t in variety], num_vars=nvars)
    return v, build_family(v, [parse_poly(t, nvars) for t in texts])


def assert_engine_agrees(v, fam):
    """Every subset, walked by size as the front ends do, then with no bound."""
    for size in range(1, fam.q + 1):
        for combo in combinations(range(fam.q), size):
            gens = list(v.generators) + [fam.members[i] for i in combo]
            expected = exact_dim(gens, v.num_vars)
            assert intersection_dimension(v, fam, combo) == expected, combo
            assert projective_dimension(gens, v.num_vars) == expected, combo


def criterion_01_families():
    rng = random.Random(41)
    for nvars in (3, 4):
        v = build_variety([], num_vars=nvars)
        n = v.dim_n
        for _ in range(18):
            q = rng.choice((n + 1, n + 2, n + 3))
            members = [random_form(rng, nvars, 2 if rng.random() < 0.25 else 1)
                       for _ in range(q)]
            yield v, build_family(v, members)


def criterion_03_families():
    explicit = [
        (3, ("x0", "x1", "x0 + x1", "x0 - x1", "x2")),
        (3, ("x0", "x1", "x0 + 2*x1", "x0 + x1 + x2")),
        (4, ("x0", "x1", "x0 + x1", "x0 - x1", "x2", "x3")),
        (3, ("x0^2", "x1^2", "x2^2")),
        (3, ("x0*x1", "x1*x2", "x0*x2 - x1^2", "x0^2 + x2^2")),
    ]
    for nvars, texts in explicit:
        yield family_of(nvars, texts)
    # the same draws as the gate, including the ones it discards
    rng = random.Random(53)
    for nvars in (3, 4):
        v = build_variety([], num_vars=nvars)
        n = v.dim_n
        made = 0
        while made < 8:
            q = rng.choice((n + 1, n + 2, n + 3))
            members = [random_form(rng, nvars, 1, spread=2) for _ in range(q)]
            try:
                fam = build_family(v, members)
            except DomainError:
                continue
            yield v, fam
            try:
                _check_replacement(v, fam)
            except DomainError:
                continue
            made += 1


def other_gate_families():
    # criterion 9 margin families and the criterion 10 configuration
    yield family_of(2, ("x0", "x1", "x0 + x1"))
    yield family_of(3, ("x0", "x1", "x2", "x0 + x1 + x2"))
    yield family_of(3, ("x0", "x1", "x2"))
    # criterion 6 coordinate subspaces on its three varieties
    for nvars, variety in ((2, ()), (3, ("x0*x2 - x1^2",)),
                           (4, ("x0^2 + x1^2 + x2^2 - x3^2",))):
        yield family_of(nvars, [f"x{i}" for i in range(nvars)], variety)


@pytest.mark.parametrize("families", [criterion_01_families, criterion_03_families,
                                      other_gate_families])
def test_engine_matches_exact_on_gate_families(families):
    checked = 0
    for v, fam in families():
        assert_engine_agrees(v, fam)
        checked += 1
    assert checked >= 6


@st.composite
def small_families(draw):
    nvars = draw(st.integers(2, 4))
    q = draw(st.integers(1, 4))
    members = []
    for _ in range(q):
        degree = draw(st.integers(1, 2))
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        members.append(random_form(rng, nvars, degree, spread=draw(st.integers(1, 4))))
    return nvars, members


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_families())
def test_engine_matches_exact_on_small_families(case):
    nvars, members = case
    v = build_variety([], num_vars=nvars)
    try:
        fam = build_family(v, members)
    except DomainError:
        return
    assert_engine_agrees(v, fam)


def test_unlucky_prime_falls_back_to_exact():
    # x0 - p*x1 is x0 mod p, so the mod-p pass sees a line where Q has a point
    v, fam = family_of(3, ("x0", f"x0 - {MODULUS}*x1"))
    gens = [parse_poly("x0", 3), parse_poly(f"x0 - {MODULUS}*x1", 3)]
    mults, _ = packing = groebner._packing(GREVLEX, 3)
    leads, _ = groebner._buchberger(
        [groebner._pack_poly({m: int(c) for m, c in g.terms.items()}, mults, MODULUS) for g in gens],
        packing, MODULUS)
    assert groebner._dimension_of_leads(leads, 3) == 1
    assert intersection_dimension(v, fam, [0]) == 1
    assert intersection_dimension(v, fam, [1]) == 1
    DIMENSION_COUNTS.clear()
    assert intersection_dimension(v, fam, [0, 1]) == 0
    assert DIMENSION_COUNTS == {"exact": 1}


def assert_modp_loop_matches_oracle(gens, nvars):
    """The packed loop mod MODULUS against the mod-p pass it replaced: the same
    minimal lead ideal and the same dim_p.

    `_modp_dimension` may stop early under a bound, and must still give the
    full pass's dim_p under no bound and under every bound 0 .. dim_p.  A
    proven bound is at most dim_Q <= dim_p, and the stop's proof needs only
    bound <= dim_p, so this covers every bound a caller can pass.
    """
    basis = [g.content_free() for g in gens if not g.is_zero]
    polys = [{m: c.numerator for m, c in g.terms.items()} for g in basis]
    old = modp_lead_monomials(polys, nvars)
    mults, _ = packing = groebner._packing(GREVLEX, nvars)
    try:
        leads, _ = groebner._buchberger(
            [groebner._pack_poly(poly, mults, groebner.MODULUS) for poly in polys],
            packing, groebner.MODULUS)
        new = [groebner._unpack(lead, nvars) for lead in leads]
    except PackedDegreeExceeded:
        new = None
    assert (new is None) == (old is None)
    if old is not None:
        assert set(groebner._minimal_monomials(new)) == set(groebner._minimal_monomials(old))
        expected = dimension_of_leads(old, nvars)
        for bound in [None] + ([] if expected is EMPTY else list(range(expected + 1))):
            assert groebner._modp_dimension(basis, nvars, bound) == expected, bound


SMALL_PRIMES = (None, 7, 2)


def bench_pool_families():
    """The dense quadric families of the benchmark pools: P^2 q=11, P^3 q=6."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for nvars, q in ((3, 11), (4, 6)):
        for index in range(workloads.POOL):
            yield nvars, [parse_poly(t, nvars) for t in workloads.quadric_family(nvars, q, index)]


@pytest.mark.parametrize("prime", SMALL_PRIMES)
def test_modp_loop_matches_oracle_on_gate_families(monkeypatch, prime):
    if prime:
        monkeypatch.setattr(groebner, "MODULUS", prime)
    for families in (criterion_01_families, criterion_03_families, other_gate_families):
        for v, fam in families():
            for size in range(1, fam.q + 1):
                for combo in combinations(range(fam.q), size):
                    assert_modp_loop_matches_oracle(
                        list(v.generators) + [fam.members[i] for i in combo], v.num_vars)


@pytest.mark.parametrize("prime", SMALL_PRIMES)
def test_modp_loop_matches_oracle_on_bench_pools(monkeypatch, prime):
    if prime:
        monkeypatch.setattr(groebner, "MODULUS", prime)
    checked = 0
    for nvars, members in bench_pool_families():
        q = len(members)
        # every prefix, and every cyclic window of n + 1 members (EMPTY in general position)
        for k in range(1, q + 1):
            assert_modp_loop_matches_oracle(members[:k], nvars)
            assert_modp_loop_matches_oracle([members[(k + i) % q] for i in range(nvars)], nvars)
            checked += 2
    assert checked == 16 * 2 * (11 + 6)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_families())
def test_modp_loop_matches_oracle_on_small_families(case):
    nvars, members = case
    for prime in SMALL_PRIMES:
        with pytest.MonkeyPatch.context() as mp:
            if prime:
                mp.setattr(groebner, "MODULUS", prime)
            for size in range(1, len(members) + 1):
                for combo in combinations(members, size):
                    assert_modp_loop_matches_oracle(list(combo), nvars)


def coincident_families():
    """(nvars, variety, members) whose members meet more than general position
    allows: a repeated member, members through a common point or a common
    line, and reducible varieties."""
    yield 3, (), ("x0 + x1", "x2^2 - x0*x1", "x0 + x1", "3*x0 + 3*x1", "x2")
    yield 3, (), ("x0", "x1", "x0 + x1", "x0 - 2*x1", "x0*x2 + x1^2", "x2^2")
    yield 4, (), ("x0", "x1", "x0*x2 + x1*x3", "x0*x3 - x1*x2", "x0^2 + x1*x2", "x2 + x3")
    yield 4, (), ("x0 + x1", "x0*x2 - x1*x3", "x2", "x0*x3 + x1^2", "x3")
    yield 4, ("x0*x1",), ("x2", "x3", "x0 + x2", "x1 + x3", "x2^2 - x0*x3")
    yield 4, ("x0*x1", "x0*x2"), ("x3", "x1 + x2", "x0 - x3", "x1*x3 + x2^2")
    yield 3, ("x0*x1*x2",), ("x0 + x1 + x2", "x0*x1 + x1*x2", "x2", "x0 - x1")


@pytest.mark.parametrize("prime", SMALL_PRIMES)
def test_modp_loop_matches_oracle_on_coincident_families(monkeypatch, prime):
    if prime:
        monkeypatch.setattr(groebner, "MODULUS", prime)
    for nvars, variety, members in coincident_families():
        variety = [parse_poly(t, nvars) for t in variety]
        members = [parse_poly(t, nvars) for t in members]
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                assert_modp_loop_matches_oracle(variety + list(combo), nvars)


@st.composite
def coincident_draws(draw):
    """A random family forced to coincide: one member repeated and scaled,
    every member through a coordinate point or a coordinate line, or V the
    product of two linear forms."""
    nvars = draw(st.integers(3, 4))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    kind = draw(st.sampled_from(("repeat", "point", "line", "reducible")))
    variables = [HomoPoly(nvars, {tuple(int(i == k) for i in range(nvars)): 1})
                 for k in range(nvars)]
    variety = []
    if kind in ("point", "line"):
        # in the ideal of the point where x0..x_{n-1} vanish, or the line x0 = x1 = 0
        through = variables[:nvars - 1 if kind == "point" else 2]
        members = []
        for _ in range(draw(st.integers(2, 4))):
            degree = draw(st.integers(1, 2))
            member = HomoPoly(nvars, {})
            for x in through:
                member = member + x * random_form(rng, nvars, degree - 1, spread=2)
            members.append(member if not member.is_zero else through[0] ** degree)
    else:
        members = [random_form(rng, nvars, draw(st.integers(1, 2)), spread=2)
                   for _ in range(draw(st.integers(2, 4)))]
        if kind == "repeat":
            members += [members[0], members[0] * -3]
        else:
            variety = [random_form(rng, nvars, 1, spread=2) * random_form(rng, nvars, 1, spread=2)]
    return nvars, variety, members


@settings(derandomize=True, max_examples=40, deadline=None)
@given(coincident_draws())
def test_modp_loop_matches_oracle_on_random_coincident_families(case):
    nvars, variety, members = case
    for prime in SMALL_PRIMES:
        with pytest.MonkeyPatch.context() as mp:
            if prime:
                mp.setattr(groebner, "MODULUS", prime)
            for size in range(1, len(members) + 1):
                for combo in combinations(members, size):
                    assert_modp_loop_matches_oracle(variety + list(combo), nvars)


def test_void_subsets_stop_with_pairs_queued(monkeypatch):
    """The top level of a family in general position: each 4-subset of dense
    P^3 quadrics is void, and the pass with no bound stops with pairs still
    queued, so it reduces fewer S-polynomials, with the full pass's answer."""
    reductions = Counter()  # calls of `_reduce` under each threshold
    reduce = groebner._reduce

    def counted(*args):
        reductions[stop] += 1
        return reduce(*args)

    monkeypatch.setattr(groebner, "_reduce", counted)
    rng = random.Random(5)
    members = [dense_quadric(rng, 4).content_free() for _ in range(6)]
    mults, _ = packing = groebner._packing(GREVLEX, 4)
    for combo in combinations(members, 4):
        polys = [groebner._pack_poly({m: c.numerator for m, c in g.terms.items()}, mults, MODULUS)
                 for g in combo]
        reductions.clear()
        leads = {}
        for stop in (-1, 0):
            leads[stop], _ = groebner._buchberger(polys, packing, MODULUS, stop)
        assert leads[0] == leads[-1][:len(leads[0])]
        assert reductions[0] < reductions[-1]
        assert groebner._dimension_of_leads(leads[0], 4) is EMPTY
        assert groebner._modp_dimension(list(combo), 4) is EMPTY


@pytest.mark.parametrize("prime", (7, 2))
def test_exact_pass_forms_every_pair(monkeypatch, prime):
    """Only the mod-p pass stops early.  Under an unlucky prime some queries
    go to the pass over Q with a bound that its dimension meets, and that pass
    still does the pair work of `groebner_basis` on the same generators."""
    monkeypatch.setattr(groebner, "MODULUS", prime)
    exact = 0
    for gens, nvars, lower in memo_queries():
        PAIR_COUNTS.clear()
        DIMENSION_COUNTS.clear()
        dim = projective_dimension(fresh(gens), nvars, lower)
        if DIMENSION_COUNTS != {"exact": 1}:
            continue
        counts = Counter(PAIR_COUNTS)
        PAIR_COUNTS.clear()
        assert exact_dim(gens, nvars) == dim
        assert counts == PAIR_COUNTS, gens
        exact += dim == lower or lower is None and dim is EMPTY
    assert exact > 0


def memo_queries():
    """(gens, nvars, lower) for every subset of some families, sharing their
    member objects as the walk does: a bench pool family, the small gate
    families, and a family with rational coefficients for which the primes 2
    and 7 are unlucky."""
    nvars, members = next(bench_pool_families())
    configurations = [(build_variety([], num_vars=nvars), members[:6])]
    for v, fam in other_gate_families():
        configurations.append((v, list(fam.members)))
    v, fam = family_of(3, ("1/2*x0 + 3/4*x1", "x0 - 14*x1", "x2 - 7/3*x0", "x1^2 - 2*x0*x2"))
    configurations.append((v, list(fam.members)))
    for v, members in configurations:
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                lower = v.dim_n - size
                yield list(v.generators) + list(combo), v.num_vars, lower if lower >= 0 else None


def fresh(polys):
    return [HomoPoly(g.nvars, g.terms) for g in polys]


def test_packed_memo_never_changes_an_answer(monkeypatch):
    """Each member is packed once per modulus and kept on the polynomial; the
    same objects asked again under another modulus answer as fresh ones do."""
    queries = list(memo_queries())
    answers = {}
    for prime in (MODULUS, 7, 2, MODULUS):
        monkeypatch.setattr(groebner, "MODULUS", prime)
        answers[prime] = []
        for gens, nvars, lower in queries:
            for query in (projective_dimension, groebner._modp_dimension):
                answer = query(gens, nvars, lower)
                assert answer == query(fresh(gens), nvars, lower), (prime, query, gens)
                answers[prime].append(answer)
    # each small prime is unlucky for some query, so a memo read under the
    # wrong modulus would show
    assert answers[7] != answers[MODULUS] and answers[2] != answers[MODULUS]
    assert all(EMPTY in dims and 0 in dims for dims in answers.values())


def dense_quadric(rng, nvars):
    """Every degree-2 monomial, each with a nonzero coefficient."""
    terms = {}
    for i, j in combinations_with_replacement(range(nvars), 2):
        exp = [0] * nvars
        exp[i] += 1
        exp[j] += 1
        terms[tuple(exp)] = rng.choice((-3, -2, -1, 1, 2, 3))
    return HomoPoly(nvars, terms)


def test_general_position_family_settles_mod_p():
    rng = random.Random(5)
    v = build_variety([], num_vars=4)
    fam = build_family(v, [dense_quadric(rng, 4) for _ in range(6)])
    DIMENSION_COUNTS.clear()
    report = distributive_constant(v, fam)
    assert report.delta == 1
    assert DIMENSION_COUNTS["exact"] == 0
    # the members and the size-4 subsets are computed, the size-4 ones EMPTY
    # mod p; sizes 2 and 3 are settled from them, and the larger subsets are
    # void through a void immediate subset
    assert DIMENSION_COUNTS["modp"] == 6 + 15
    assert DIMENSION_COUNTS["inferred"] == 15 + 20


def test_replacement_candidates_settle_mod_p():
    # the pair products of P^2: t = (0, 2, 3), the first prefix and two
    # accepted candidates are settled by their mod-p passes alone; the
    # rejected one (x1*x2, which vanishes on the line x1 = 0 of V(x0*x1))
    # stays above the bound mod p, so a pass over Q confirms it
    v, fam = family_of(3, ("x0*x1", "x0*x2", "x1*x2", "x0^2 + x1^2 + x2^2"))
    profile = dimension_profile(v, fam, (0, 1, 2, 3))
    DIMENSION_COUNTS.clear()
    build_replacement(v, fam, profile)
    assert DIMENSION_COUNTS == {"modp": 3, "exact": 1}


def test_empty_mod_p_is_empty_without_bound():
    gens = [parse_poly(t, 3) for t in ("x0", "x1", "x2 + x0")]
    DIMENSION_COUNTS.clear()
    assert projective_dimension(gens, 3) is EMPTY
    assert DIMENSION_COUNTS == {"modp": 1}


def test_unsettled_without_bound_goes_exact():
    DIMENSION_COUNTS.clear()
    assert projective_dimension([parse_poly("x0*x2 - x1^2", 3)], 3) == 1
    assert DIMENSION_COUNTS == {"exact": 1}


def test_whole_space_and_unit_ideal():
    assert projective_dimension([], 3) == 2
    assert projective_dimension([HomoPoly(3, {(0, 0, 0): 5})], 3) is EMPTY
