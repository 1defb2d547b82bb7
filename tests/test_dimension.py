"""The certified dimension engine against the exact basis over Q.

`projective_dimension` answers from a mod-p basis when that answer is
proven and falls back to the exact basis otherwise.  Every test here
compares it with `ideal_profile(groebner_basis(...))`, the exact route.
"""

import importlib.util
import random
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import modp_lead_monomials
from test_acceptance import _check_replacement, random_form

from hyperpos import groebner
from hyperpos.errors import DomainError
from hyperpos.groebner import (
    DIMENSION_COUNTS,
    EMPTY,
    GREVLEX,
    MODULUS,
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
    leads, _, _ = groebner._buchberger([{m: int(c) for m, c in g.terms.items()} for g in gens],
                                       groebner._packing(GREVLEX, 3), MODULUS)
    assert groebner._dimension_of_leads(leads, 3) == 1
    assert intersection_dimension(v, fam, [0]) == 1
    assert intersection_dimension(v, fam, [1]) == 1
    DIMENSION_COUNTS.clear()
    assert intersection_dimension(v, fam, [0, 1]) == 0
    assert DIMENSION_COUNTS == {"exact": 1}


def assert_modp_loop_matches_oracle(gens, nvars):
    """The packed loop mod MODULUS against the mod-p pass it replaced: the same
    minimal lead ideal and the same dim_p."""
    basis = [g.content_free() for g in gens if not g.is_zero]
    polys = [{m: c.numerator for m, c in g.terms.items()} for g in basis]
    old = modp_lead_monomials(polys, nvars)
    try:
        new, _, _ = groebner._buchberger(polys, groebner._packing(GREVLEX, nvars),
                                         groebner.MODULUS)
    except PackedDegreeExceeded:
        new = None
    assert (new is None) == (old is None)
    if old is not None:
        assert set(groebner._minimal_monomials(new)) == set(groebner._minimal_monomials(old))
        assert groebner._modp_dimension(basis, nvars) == groebner._dimension_of_leads(old, nvars)


SMALL_PRIMES = (None, 7)


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
    # sizes 1..3 are computed, the size-4 subsets are EMPTY mod p, and the
    # larger ones are void through a void immediate subset
    assert DIMENSION_COUNTS["modp"] == 6 + 15 + 20 + 15


def test_replacement_candidates_settle_mod_p():
    # the pair products of P^2: t = (0, 2, 3), the first prefix is one
    # projective_dimension query, then two accepted and three rejected
    # candidates, each settled by its mod-p pass alone (the Q rule built three
    # bases over Q for the rejections)
    v, fam = family_of(3, ("x0*x1", "x0*x2", "x1*x2", "x0^2 + x1^2 + x2^2"))
    profile = dimension_profile(v, fam, (0, 1, 2, 3))
    DIMENSION_COUNTS.clear()
    build_replacement(v, fam, profile)
    assert DIMENSION_COUNTS == {"modp": 1, "modp_bound": 5}


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
