"""Groebner engine: bases, normal forms, dimension, degree, Hilbert counts."""

import copy
import hashlib
import json
import os
import pickle
import random
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from conftest import (cache_rows, certify, leading_monomial, lex, parse_many, s_polynomial,
                      write_rows)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cache_key as key_oracle
from oracles import dimension_of_leads, reduce_terms, tuple_groebner_basis

from hyperpos import groebner
from hyperpos.groebner import (
    DIMENSION_COUNTS,
    EMPTY,
    GREVLEX,
    PAIR_COUNTS,
    MixedAmbient,
    MonomialBudgetExceeded,
    MonomialOrder,
    PackedDegreeExceeded,
    groebner_basis,
    hilbert_function,
    ideal_profile,
    normal_form,
    projective_dimension,
    set_cache_dir,
    standard_monomials,
    weighted_order,
)
from hyperpos.polyring import HomoPoly, parse_poly, poly_to_json


def P(text, nvars):
    return parse_poly(text, nvars)


CONIC = "x0*x2 - x1^2"


class TestOrders:
    def test_grevlex_x1sq_beats_x0x2(self):
        assert leading_monomial(P(CONIC, 3), GREVLEX) == (0, 2, 0)

    def test_lex_x0_first(self):
        assert leading_monomial(P("x0 + x1", 2), lex(2)) == (1, 0)
        assert leading_monomial(P(CONIC, 3), lex(3)) == (1, 0, 1)

    def test_weighted_picks_heavy_variable(self):
        p = P("x0*x1 + x1^2", 2)
        assert leading_monomial(p, weighted_order([1, 0])) == (1, 1)
        assert leading_monomial(p, weighted_order([0, 1])) == (0, 2)

    def test_weighted_ties_break_by_grevlex(self):
        p = P("x0^2 + x0*x1", 2)
        assert leading_monomial(p, weighted_order([1, 1])) == (2, 0)

    def test_multiplicative(self):
        for order in (GREVLEX, lex(3), weighted_order([2, 1, 0])):
            for u, v in [((1, 0, 0), (0, 1, 0)), ((0, 2, 0), (1, 0, 1)), ((1, 1, 0), (0, 0, 2))]:
                if order.key(u) < order.key(v):
                    u, v = v, u
                w = (1, 2, 1)
                ku = order.key(tuple(a + b for a, b in zip(u, w)))
                kv = order.key(tuple(a + b for a, b in zip(v, w)))
                assert ku > kv

    def test_negative_weight_rejected(self):
        with pytest.raises(Exception):
            weighted_order([1, -1])


class TestRecords:
    """Orders and bases are values: equal ones compare and hash alike, and
    no field takes an assignment."""

    def test_orders_are_values(self):
        a, b = weighted_order([1, 2]), weighted_order((Fraction(1), Fraction(4, 2)))
        assert a == b and hash(a) == hash(b)
        assert MonomialOrder() == GREVLEX and hash(MonomialOrder()) == hash(GREVLEX)
        assert a != GREVLEX and a != weighted_order([2, 1])
        with pytest.raises(AttributeError):
            GREVLEX.weights = (1, 1)
        with pytest.raises(AttributeError):
            a.weights = None

    def test_bases_are_values(self):
        gens = parse_many([CONIC, "x0^2 - x1*x2", "x0*x1 - x2^2"], 3)
        a, b = groebner_basis(gens, GREVLEX), groebner_basis(gens[::-1], GREVLEX)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != groebner_basis(gens, lex(3))
        assert a != groebner_basis(gens[:2], GREVLEX)
        for name in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, None)

    def test_reducers_are_the_packed_monic_generators(self):
        gens = parse_many([CONIC, "x0^2 - x1*x2"], 3)
        for order in (GREVLEX, lex(3), weighted_order([1, 3, 2])):
            gb = groebner_basis(gens, order)
            mults, _ = groebner._packing(order, 3)
            leads, tails = gb.reducers
            assert len(leads) == len(tails) == len(gb.generators)
            for g, lm, lead, tail in zip(gb.generators, gb.leading_monomials, leads, tails):
                assert g.terms[lm] == 1 and groebner._pack(lm, mults) == lead
                assert dict(tail) == {groebner._pack(m, mults): -c
                                      for m, c in g.terms.items() if m != lm}


class TestBasis:
    def test_single_variable(self):
        gb = groebner_basis(parse_many(["x0"], 2), GREVLEX)
        assert gb.generators == (P("x0", 2),)
        certify(gb)

    def test_conic_principal(self):
        gb = groebner_basis([P(CONIC, 3)], GREVLEX)
        # reduced means monic, so the sign flips onto the x1^2 lead
        assert gb.generators == (P("x1^2 - x0*x2", 3),)
        certify(gb)

    def test_linear_pair_eliminates(self):
        gb = groebner_basis(parse_many(["x0 + x1", "x0 - x1"], 2), GREVLEX)
        assert set(gb.generators) == {P("x0", 2), P("x1", 2)}
        assert normal_form(P("x0", 2), gb).is_zero
        assert normal_form(P("x1", 2), gb).is_zero
        certify(gb)

    def test_generators_sorted_ascending(self):
        gb = groebner_basis(parse_many(["x0 + x1", "x0 - x1"], 2), GREVLEX)
        keys = [GREVLEX.key(leading_monomial(g, GREVLEX)) for g in gb.generators]
        assert keys == sorted(keys)

    def test_two_quadrics(self):
        gb = groebner_basis(parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3), GREVLEX)
        certify(gb)
        for g in parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3):
            assert normal_form(g, gb).is_zero

    def test_twisted_cubic(self):
        gens = parse_many(["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"], 4)
        gb = groebner_basis(gens, GREVLEX)
        certify(gb)
        for g in gens:
            assert normal_form(g, gb).is_zero

    def test_deterministic(self):
        gens = parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3)
        assert groebner_basis(gens, GREVLEX) == groebner_basis(gens, GREVLEX)

    def test_zero_ideal(self):
        gb = groebner_basis([], GREVLEX, num_vars=3)
        assert gb.generators == ()
        assert normal_form(P(CONIC, 3), gb) == P(CONIC, 3)

    def test_zero_polys_dropped(self):
        gb = groebner_basis([HomoPoly.zero(2), P("x0", 2)], GREVLEX)
        assert gb.generators == (P("x0", 2),)

    def test_mixed_ambient(self):
        with pytest.raises(MixedAmbient):
            groebner_basis([P("x0", 2), P("x0", 3)], GREVLEX)

    def test_reduced_shape(self):
        # no generator term divisible by another generator's lead; all monic
        gens = parse_many(["x0^2 - x1^2", "x0*x1 - x2^2", "x0*x2 - x1*x2"], 3)
        gb = groebner_basis(gens, GREVLEX)
        certify(gb)
        leads = list(gb.leading_monomials)
        for i, g in enumerate(gb.generators):
            assert g.terms[leads[i]] == 1
            for mono in g.terms:
                for j, lm in enumerate(leads):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lm, mono))


class TestNormalForm:
    def test_membership(self):
        gb = groebner_basis([P("x0", 2)], GREVLEX)
        assert normal_form(P("x0", 2), gb).is_zero

    def test_conic_rewrite(self):
        gb = groebner_basis([P(CONIC, 3)], GREVLEX)
        assert normal_form(P("x1^2", 3), gb) == P("x0*x2", 3)

    def test_untouched(self):
        gb = groebner_basis([P("x0", 2)], GREVLEX)
        assert normal_form(P("x1", 2), gb) == P("x1", 2)

    def test_idempotent(self):
        gens = parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3)
        gb = groebner_basis(gens, GREVLEX)
        for text in ("x0^3", "x0^2*x1 - x2^3", "x1^4 + x0*x2^3"):
            once = normal_form(P(text, 3), gb)
            assert normal_form(once, gb) == once

    def test_linear_over_ideal(self):
        gb = groebner_basis(parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3), GREVLEX)
        a, b = P("x0^3", 3), P("x1^3", 3)
        lhs = normal_form(a + b, gb)
        rhs = normal_form(a, gb) + normal_form(b, gb)
        assert normal_form(lhs - rhs, gb).is_zero

    def test_mixed_ambient(self):
        gb = groebner_basis([P("x0", 2)], GREVLEX)
        with pytest.raises(MixedAmbient):
            normal_form(P("x0", 3), gb)


class TestProfile:
    def test_ambient_plane(self):
        prof = ideal_profile(groebner_basis([], GREVLEX, num_vars=3))
        assert prof.projective_dimension == 2
        assert prof.degree == 1

    def test_conic(self):
        prof = ideal_profile(groebner_basis([P(CONIC, 3)], GREVLEX))
        assert prof.projective_dimension == 1
        assert prof.degree == 2

    def test_irrelevant_ideal(self):
        gb = groebner_basis(parse_many(["x0", "x1", "x2"], 3), GREVLEX)
        assert ideal_profile(gb).projective_dimension is EMPTY
        assert ideal_profile(gb).degree is None

    def test_unit_like_ideal(self):
        # constant in the ideal: cone collapses entirely
        gb = groebner_basis([P("1", 2)], GREVLEX)
        assert ideal_profile(gb).projective_dimension is EMPTY

    def test_twisted_cubic_degree(self):
        gens = parse_many(["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"], 4)
        prof = ideal_profile(groebner_basis(gens, GREVLEX))
        assert prof.projective_dimension == 1
        assert prof.degree == 3

    def test_four_points_by_bezout(self):
        gens = parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3)
        prof = ideal_profile(groebner_basis(gens, GREVLEX))
        assert prof.projective_dimension == 0
        assert prof.degree == 4

    def test_dimension_order_invariant(self):
        ideals = [
            (["x0"], 2),
            ([CONIC], 3),
            (["x0^2 - x1^2", "x0*x1 - x2^2"], 3),
            (["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"], 4),
            (["x0", "x1", "x2"], 3),
            (["x0*x1"], 3),
        ]
        for texts, nv in ideals:
            gens = parse_many(texts, nv)
            dim_g = ideal_profile(groebner_basis(gens, GREVLEX)).projective_dimension
            dim_l = ideal_profile(groebner_basis(gens, lex(nv))).projective_dimension
            assert dim_g == dim_l, texts


def walk_hilbert(gb, u):
    """Oracle of `hilbert_function`: inclusion-exclusion over every subset of
    the leading monomials, one signed binomial per subset lcm of degree <= u."""
    ambient = gb.num_vars - 1
    lms = gb.leading_monomials
    total = 0

    def dfs(start, cur, sign):
        nonlocal total
        deg = sum(cur)
        if deg > u:
            return  # every superset lcm is at least this large
        total += sign * comb(ambient + u - deg, ambient)
        for k in range(start, len(lms)):
            dfs(k + 1, tuple(max(a, b) for a, b in zip(cur, lms[k])), -sign)

    dfs(0, (0,) * gb.num_vars, 1)
    return total


def interpolated_degree(gb, dim):
    """Oracle of the degree: the dim-th finite difference of `walk_hilbert`.

    Beyond the lcm degrees every inclusion-exclusion binomial is a true
    polynomial in u, so H agrees with its Hilbert polynomial from s0 on; the
    difference must also stay put over a window of three steps.
    """
    s0 = max(0, sum(sum(m) for m in gb.leading_monomials) - (gb.num_vars - 1))
    window = []
    for s in range(s0, s0 + 61):
        window.append(sum((-1) ** (dim - k) * comb(dim, k) * walk_hilbert(gb, s + k)
                          for k in range(dim + 1)))
        if len(window) >= 3 and window[-1] == window[-2] == window[-3]:
            assert window[-1] > 0
            return window[-1]
    pytest.fail("Hilbert polynomial fit did not stabilize")


@st.composite
def small_ideals(draw):
    """1-3 homogeneous forms of degree 1-2 in 2-4 variables, small integer coefficients."""
    nvars = draw(st.integers(2, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 2))
        monos = list(groebner._all_monomials(nvars, degree))
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coefs = draw(st.lists(st.integers(-4, 4).filter(bool),
                              min_size=len(chosen), max_size=len(chosen)))
        gens.append(HomoPoly(nvars, dict(zip(chosen, coefs))))
    return nvars, gens


@st.composite
def monomial_ideals(draw):
    """Up to 7 distinct monomials with exponents 0-3 in 1-5 variables, not
    necessarily minimal; the zero monomial makes the unit ideal."""
    nvars = draw(st.integers(1, 5))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=7, unique=True))
    return nvars, monos


@st.composite
def pure_power_ideals(draw):
    """Pure powers x_i^e (e = 1-3) of some of 1-10 variables, and up to 6 more
    monomials with exponents 0-2, so that the read-off forces some variables
    and scans the rest."""
    nvars = draw(st.integers(1, 10))
    powers = draw(st.dictionaries(st.integers(0, nvars - 1), st.integers(1, 3), max_size=nvars))
    monos = [tuple(e if v == i else 0 for v in range(nvars)) for i, e in powers.items()]
    monos += draw(st.lists(st.tuples(*[st.integers(0, 2)] * nvars), max_size=6))
    return nvars, list(dict.fromkeys(monos))


def _matches_oracles(gb):
    for u in range(9):
        assert hilbert_function(gb, u) == walk_hilbert(gb, u), u
    prof = ideal_profile(gb)
    if prof.projective_dimension is EMPTY:
        assert prof.degree is None
    else:
        assert prof.degree == interpolated_degree(gb, prof.projective_dimension)
    return prof


class TestHilbert:
    def test_ambient_counts(self):
        gb = groebner_basis([], GREVLEX, num_vars=3)
        assert hilbert_function(gb, 2) == 6
        for u in range(7):
            assert hilbert_function(gb, u) == comb(2 + u, 2)

    def test_conic_line_count(self):
        gb = groebner_basis([P(CONIC, 3)], GREVLEX)
        assert hilbert_function(gb, 3) == 7
        for u in range(1, 8):
            assert hilbert_function(gb, u) == 2 * u + 1

    def test_hypersurface_closed_form(self):
        for nv, d in [(2, 1), (3, 2), (4, 3)]:
            gens = [HomoPoly.variable(nv, 0, d) + HomoPoly.variable(nv, nv - 1, d)]
            gb = groebner_basis(gens, GREVLEX)
            for u in range(7):
                expect = comb(nv - 1 + u, nv - 1) - comb(nv - 1 + u - d, nv - 1) if u >= d \
                    else comb(nv - 1 + u, nv - 1)
                assert hilbert_function(gb, u) == expect

    def test_matches_enumeration(self):
        gens = parse_many(["x0^2 - x1^2", "x0*x1 - x2^2"], 3)
        gb = groebner_basis(gens, GREVLEX)
        for u in range(6):
            assert hilbert_function(gb, u) == len(standard_monomials(gb, u))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(monomial_ideals())
    @example((3, [(0, 0, 0)]))                         # unit ideal
    @example((3, [(0, 0, 0), (1, 1, 0)]))              # unit ideal, not minimal
    @example((1, []))
    @example((1, [(3,)]))
    @example((3, [(2, 0, 0), (0, 3, 0), (0, 0, 1)]))   # pure powers, EMPTY
    @example((4, [(2, 0, 0, 0), (0, 0, 3, 0)]))        # pure powers, a line of degree 6
    def test_numerator_matches_the_walk(self, case):
        nvars, monos = case
        _matches_oracles(groebner_basis([HomoPoly(nvars, {m: 1}) for m in monos], GREVLEX, nvars))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(small_ideals())
    def test_lex_and_weighted_bases_match_the_walk(self, case):
        nvars, gens = case
        orders = (GREVLEX, lex(nvars), weighted_order(range(nvars, 0, -1)))
        profiles = {_matches_oracles(groebner_basis(gens, order)) for order in orders}
        # the Hilbert function, so dimension and degree, depend on no order
        assert len(profiles) == 1


class TestStandardMonomials:
    def test_line_degree_two(self):
        gb = groebner_basis([], GREVLEX, num_vars=2)
        assert standard_monomials(gb, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_conic_degree_one(self):
        gb = groebner_basis([P(CONIC, 3)], GREVLEX)
        assert standard_monomials(gb, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_conic_degree_two(self):
        gb = groebner_basis([P(CONIC, 3)], GREVLEX)
        monos = standard_monomials(gb, 2)
        assert len(monos) == 5
        assert (0, 2, 0) not in monos
        keys = [GREVLEX.key(m) for m in monos]
        assert keys == sorted(keys, reverse=True)

    def test_budget_is_exact(self, monkeypatch):
        # degree 4 in 3 variables: comb(6, 2) = 15 monomials to enumerate
        gb = groebner_basis([P(CONIC, 3)], GREVLEX)
        monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", 15)
        assert len(standard_monomials(gb, 4)) == 9
        monkeypatch.setattr(groebner, "MAX_STANDARD_MONOMIALS", 14)
        with pytest.raises(MonomialBudgetExceeded, match="15 monomials of degree 4"):
            standard_monomials(gb, 4)

    def test_refused_before_the_first_monomial(self):
        # the call itself raises: no generator is returned, nothing is listed
        with pytest.raises(MonomialBudgetExceeded, match=str(comb(100002, 2))):
            groebner._all_monomials(3, 100000)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_empty_survives_copies(clone):
    # answers are compared with `is EMPTY`, so a copy must be the one sentinel
    assert clone(EMPTY) is EMPTY


class TestDiskCache:
    # two conics meeting in finitely many points: dimension 0, settled over Q
    GENS = ("x0^2 - x1^2", "x0*x1 - x2^2")

    def test_hit_returns_equal_dimension(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        first = projective_dimension(gens, 3)
        assert len(cache_rows(tmp_path)) == 1
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) == first == 0
        assert DIMENSION_COUNTS == {"cached": 1}
        assert len(cache_rows(tmp_path)) == 1

    def test_key_ignores_generator_listing_order(self, tmp_path):
        set_cache_dir(str(tmp_path))
        a = parse_many(self.GENS, 3)
        projective_dimension(a, 3)
        groebner.close_cache()
        DIMENSION_COUNTS.clear()
        projective_dimension(tuple(reversed(a)), 3)
        assert DIMENSION_COUNTS == {"cached": 1}
        assert len(cache_rows(tmp_path)) == 1

    def test_disabled_cache_writes_nothing(self, tmp_path):
        set_cache_dir(None)
        projective_dimension(parse_many(self.GENS, 3), 3)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_recomputed(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        dim = projective_dimension(gens, 3)
        assert cache_rows(tmp_path)
        (tmp_path / groebner.CACHE_FILE).write_bytes(b"not a database" * 100)
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) == dim
        assert DIMENSION_COUNTS == {"exact": 1}
        groebner.close_cache()  # the write is dropped, and nothing is raised

    def test_stores_wait_for_close(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        assert projective_dimension(gens, 3) == 0
        assert list(tmp_path.iterdir()) == []
        set_cache_dir(None)  # a library caller's stores are written here
        assert cache_rows(tmp_path) == [(groebner.cache_key(gens, 3), 0)]

    def test_stores_written_at_exit(self, tmp_path):
        # a library caller that never closes the cache
        script = ("import sys\n"
                  "from hyperpos.groebner import projective_dimension, set_cache_dir\n"
                  "from hyperpos.polyring import parse_poly\n"
                  "set_cache_dir(sys.argv[1])\n"
                  f"print(projective_dimension([parse_poly(t, 3) for t in {self.GENS!r}], 3))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(groebner.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == "0\n"
        assert cache_rows(tmp_path) == [(groebner.cache_key(parse_many(self.GENS, 3), 3), 0)]

    def test_one_exit_hook_writes_each_directory(self, tmp_path):
        # a library caller that moves to a second directory and never closes
        # the cache: the move writes the first, the exit hook the second
        first, second = tmp_path / "a", tmp_path / "b"
        script = ("import sys\n"
                  "from hyperpos.groebner import projective_dimension, set_cache_dir\n"
                  "from hyperpos.polyring import parse_poly\n"
                  "set_cache_dir(sys.argv[1])\n"
                  f"print(projective_dimension([parse_poly(t, 3) for t in {self.GENS!r}], 3))\n"
                  "set_cache_dir(sys.argv[2])\n"
                  "print(projective_dimension([parse_poly('x0', 3)], 3))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(groebner.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(first), str(second)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == "0\n1\n"
        assert cache_rows(first) == [(groebner.cache_key(parse_many(self.GENS, 3), 3), 0)]
        assert cache_rows(second) == [(groebner.cache_key(parse_many(("x0",), 3), 3), 1)]

    def test_busy_database_misses_and_drops_the_write(self, tmp_path):
        gens = parse_many(self.GENS, 3)
        write_rows(tmp_path, (groebner.cache_key(gens, 3), 0))
        with closing(sqlite3.connect(tmp_path / groebner.CACHE_FILE,
                                     isolation_level=None)) as other:
            other.execute("BEGIN EXCLUSIVE")  # another process in the middle of a write
            set_cache_dir(str(tmp_path))
            DIMENSION_COUNTS.clear()
            start = time.perf_counter()
            assert projective_dimension(gens, 3) == 0
            assert projective_dimension(parse_many(("x0",), 3), 3) == 1
            groebner.close_cache()
            # one timed-out read turns reads off; the flush gives up once more
            assert time.perf_counter() - start < 10 * groebner._BUSY_TIMEOUT_S
            assert DIMENSION_COUNTS == {"exact": 2}
            other.execute("ROLLBACK")
        assert cache_rows(tmp_path) == [(groebner.cache_key(gens, 3), 0)]


class TestPairQueue:
    TWISTED_CUBIC = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")

    def counts(self, texts, nvars):
        PAIR_COUNTS.clear()
        groebner_basis(parse_many(texts, nvars), GREVLEX)
        counts = dict(PAIR_COUNTS)
        # every formed pair ends in exactly one of the four outcomes
        assert counts["pairs"] == sum(counts.get(k, 0)
                                      for k in ("coprime", "chain", "zero", "generators"))
        return counts

    def test_twisted_cubic_counts(self):
        # already a grevlex basis: no new generator, every S-polynomial is zero
        assert self.counts(self.TWISTED_CUBIC, 4) == {"pairs": 3, "coprime": 1, "zero": 2}

    def test_counts_with_chain_and_new_generator(self):
        # the third input reduces by the first two before it forms a pair
        texts = ("x0^2 - x1*x2", "x1^2 - x0*x2", "x0^2 - x1^2", "x0*x1")
        assert self.counts(texts, 3) == {
            "pairs": 10, "coprime": 3, "chain": 1, "zero": 5, "generators": 1}

    def test_exact_dimension_counts_and_mod_p_does_not(self):
        # two conics meeting in four points: no lower bound, so the pass over Q decides
        gens = parse_many(("x0^2 - x1^2", "x0*x1 - x2^2"), 3)
        PAIR_COUNTS.clear()
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) == 0
        assert DIMENSION_COUNTS == {"exact": 1}
        assert PAIR_COUNTS == {"pairs": 3, "coprime": 1, "zero": 1, "generators": 1}
        PAIR_COUNTS.clear()
        assert groebner._modp_dimension(gens, 3) == 0
        assert PAIR_COUNTS == {}

    def test_bases_are_not_cached(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.TWISTED_CUBIC, 4)
        groebner_basis(gens, GREVLEX)
        assert list(tmp_path.iterdir()) == []
        PAIR_COUNTS.clear()
        groebner_basis(gens, GREVLEX)
        assert PAIR_COUNTS["pairs"] > 0


def orders_of(nvars):
    """Grevlex, lex, integer weights, rational weights and weights with zeros."""
    rational = [Fraction(1, 2), Fraction(1, 3), 1, Fraction(2, 5)][:nvars]
    return (GREVLEX, lex(nvars), weighted_order(range(nvars, 0, -1)),
            weighted_order(rational), weighted_order([0] + [1] * (nvars - 1)),
            weighted_order([0] * (nvars - 1) + [3]), weighted_order([0] * nvars))


class TestTupleLoopOracle:
    """The packed loop over Q against the loop on exponent tuples it replaced."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(small_ideals())
    def test_bases_equal_the_oracle(self, case):
        nvars, gens = case
        for order in orders_of(nvars):
            expected, _ = tuple_groebner_basis(gens, order)
            got = groebner_basis(gens, order)
            assert got.generators == expected.generators, order
            assert got.leading_monomials == expected.leading_monomials, order

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(small_ideals(), st.integers(0, 10 ** 6))
    def test_normal_forms_equal_the_oracle(self, case, seed):
        nvars, gens = case
        rng = random.Random(seed)
        for order in orders_of(nvars):
            gb = groebner_basis(gens, order)
            reducers = [(lm, g.terms[lm], g.terms)
                        for lm, g in zip(gb.leading_monomials, gb.generators)]
            for degree in (1, 2, 3):
                monos = list(groebner._all_monomials(nvars, degree))
                p = HomoPoly(nvars, {m: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                     for m in rng.sample(monos, min(len(monos), 5))})
                expected = HomoPoly(nvars, reduce_terms(p.terms, reducers, order))
                assert normal_form(p, gb) == expected, (order, p)

    def test_weighted_field_orders_like_the_key(self):
        # within one degree, the smaller packed int is the larger monomial
        for nvars in (2, 3, 4):
            for order in orders_of(nvars):
                mults, _ = groebner._packing(order, nvars)
                for degree in (1, 2, 3, 5):
                    monos = list(groebner._all_monomials(nvars, degree))
                    by_key = sorted(monos, key=order.key, reverse=True)
                    assert sorted(monos, key=lambda m: groebner._pack(m, mults)) == by_key
                    assert [groebner._unpack(groebner._pack(m, mults), nvars)
                            for m in monos] == monos


class TestPackedDegreeLimit:
    @staticmethod
    def high_degree():
        # degree 33 * 1000 >= 2^15, built by products under MAX_DEGREE each
        base = P("x0^1000 + x1^1000", 2)
        out = base
        for _ in range(32):
            out = out * base
        assert out.degree == 33000
        return out

    def test_basis_refuses_the_degree(self):
        with pytest.raises(PackedDegreeExceeded, match="degree 33000 exceeds the limit of 32767"):
            groebner_basis([self.high_degree()], GREVLEX)

    def test_normal_form_refuses_the_degree(self):
        gb = groebner_basis([P("x0 - x1", 2)], GREVLEX)
        with pytest.raises(PackedDegreeExceeded, match="degree 33000"):
            normal_form(self.high_degree(), gb)

    def test_pair_degree_refused(self):
        # each input fits a packed field, the lcm of their leads does not,
        # and the leads share both variables, so the pair must be reduced
        gens = [HomoPoly(2, {(16384, 1): 1}), HomoPoly(2, {(1, 16384): 1})]
        with pytest.raises(PackedDegreeExceeded, match="degree 32768 exceeds"):
            groebner_basis(gens, GREVLEX)

    def test_coprime_pair_of_any_degree_is_skipped(self):
        # the lcm of x0^16384 and x1^16384 has degree 2^15, but coprime leads
        # are skipped before the degree is tested: the inputs are their own basis
        gens = [HomoPoly(2, {(16384, 0): 1}), HomoPoly(2, {(0, 16384): 1})]
        assert set(groebner_basis(gens, GREVLEX).generators) == set(gens)
        # in P^2 the point (0:0:1) is left, settled by the pass over Q
        gens = [HomoPoly(3, {(16384, 0, 0): 1}), HomoPoly(3, {(0, 16384, 0): 1})]
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) == 0
        assert DIMENSION_COUNTS == {"exact": 1}

    def test_modp_overflow_is_handed_to_projective_dimension(self):
        assert groebner._modp_dimension([self.high_degree()], 2) is None
        DIMENSION_COUNTS.clear()
        with pytest.raises(PackedDegreeExceeded):
            projective_dimension([self.high_degree()], 2)
        # the mod-p pass had no answer, so the query went to the pass over Q
        assert DIMENSION_COUNTS == {"exact": 1}

    @staticmethod
    def overflowing_family(nvars):
        # the pair of x0^16384*x1 and x0*x1^16384 has degree 2^15 and is not
        # coprime; x0^16385 and x1^16385 force x0 and x1, and neither divides
        # the pair's lcm, so the chain criterion does not skip it
        pad = (0,) * (nvars - 2)
        return [HomoPoly(nvars, {(16384, 1) + pad: 1}), HomoPoly(nvars, {(1, 16384) + pad: 1}),
                HomoPoly(nvars, {(16385, 0) + pad: 1}), HomoPoly(nvars, {(0, 16385) + pad: 1})]

    def test_settled_modp_pass_stops_before_the_overflowing_pair(self):
        # once the four leads are in, every variable of P^1 is forced and the
        # mod-p pass stops with the overflowing pair still queued
        gens = self.overflowing_family(2)
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 2) is EMPTY
        assert DIMENSION_COUNTS == {"modp": 1}
        with pytest.raises(PackedDegreeExceeded, match="degree 32768"):
            groebner_basis(gens, GREVLEX)
        # in P^2 one variable stays free: the bound 0 settles the query, no
        # bound does not, and then the pair is popped and refused
        gens = self.overflowing_family(3)
        assert projective_dimension(gens, 3, lower=0) == 0
        with pytest.raises(PackedDegreeExceeded, match="degree 32768"):
            projective_dimension(gens, 3)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_overflowing_modp_dimension_keys_and_passes_once(self, tmp_path, monkeypatch, recorded):
        # no lead forces a variable, so the mod-p pass pops the pair and fails,
        # and the pass over Q fails on it too; a record under the key is read
        # before either pass
        gens = [HomoPoly(3, {(16384, 1, 0): 1}), HomoPoly(3, {(1, 16384, 0): 1})]
        if recorded:
            write_rows(tmp_path, (groebner.cache_key(gens, 3), 1))
        set_cache_dir(str(tmp_path))
        keys, passes = [], []
        cache_key, buchberger = groebner.cache_key, groebner._buchberger
        monkeypatch.setattr(groebner, "cache_key", lambda *a: keys.append(a) or cache_key(*a))
        monkeypatch.setattr(groebner, "_buchberger", lambda polys, packing, p, *a:
                            passes.append(p) or buchberger(polys, packing, p, *a))
        DIMENSION_COUNTS.clear()
        if recorded:
            assert projective_dimension(gens, 3) == 1
            assert passes == []
            assert DIMENSION_COUNTS == {"cached": 1}
        else:
            with pytest.raises(PackedDegreeExceeded, match="degree 32768"):
                projective_dimension(gens, 3)
            assert passes == [groebner.MODULUS, groebner.RATIONALS]
            assert DIMENSION_COUNTS == {"exact": 1}
        assert len(keys) == 1


FIELD_MAX = 2 ** 15 - 1


@st.composite
def packed_cases(draw):
    """1-32 variables, grevlex or a weighted order on them with rational weights
    (so the weight field has multipliers of several sizes), and a seeded rng
    for the exponents."""
    nvars = draw(st.integers(1, 32))
    rng = random.Random(draw(st.integers(0, 10 ** 9)))
    if draw(st.booleans()):
        return nvars, GREVLEX, rng
    return nvars, weighted_order([Fraction(rng.randint(0, 9), rng.randint(1, 6))
                                  for _ in range(nvars)]), rng


def exponents(rng, nvars):
    """Exponents up to 2^15 - 1, a third of them 0 and some 2^15 - 1."""
    return tuple(rng.choice((0, FIELD_MAX, rng.randint(1, FIELD_MAX))) for _ in range(nvars))


def low_degree(rng, nvars):
    """Exponents up to 2^15 - 1 of degree below 2^15, as every monomial of the
    loop has: the gaps between sorted cuts of the degree, some set to 0."""
    degree = rng.randint(0, FIELD_MAX)
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    gaps = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    rng.shuffle(gaps)
    return tuple(e if rng.random() < 0.7 else 0 for e in gaps)


class TestPackedPairs:
    """The loop's packed pair arithmetic against exponent-tuple arithmetic."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(packed_cases())
    def test_lcm_coprimality_and_support(self, case):
        nvars, order, rng = case
        a, b = exponents(rng, nvars), exponents(rng, nvars)
        mults, guard = groebner._packing(order, nvars)
        pa, pb = groebner._pack(a, mults), groebner._pack(b, mults)
        lcm = tuple(max(x, y) for x, y in zip(a, b))
        packed = groebner._lcm(pa, pb, guard, mults)
        assert packed == groebner._pack(lcm, mults)
        # without the multipliers only the weight field can be wrong
        assert groebner._unpack(groebner._lcm(pa, pb, guard), nvars) == lcm
        if order == GREVLEX:
            assert groebner._lcm(pa, pb, guard) == packed
        assert (packed == pa + pb) == all(x == 0 or y == 0 for x, y in zip(a, b))
        for mono, packed_mono in ((a, pa), (b, pb), (lcm, packed)):
            support = sum(groebner._FIELD_TOP << (16 * i) for i, e in enumerate(mono) if e)
            assert groebner._support(packed_mono, guard) == support

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(packed_cases())
    def test_lcm_degree(self, case):
        nvars, order, rng = case
        a, b = low_degree(rng, nvars), low_degree(rng, nvars)
        mults, guard = groebner._packing(order, nvars)
        fields = (1 << (16 * nvars)) - 1
        pa, pb = groebner._pack(a, mults), groebner._pack(b, mults)
        assert groebner._degree(pa, fields) == sum(a)
        lcm = groebner._lcm(pa, pb, guard, mults)
        assert groebner._degree(lcm, fields) == sum(max(x, y) for x, y in zip(a, b))

    def test_largest_lcm_degree(self):
        # two leads of degree 2^15 - 1 have an lcm of degree 2^16 - 2, one
        # below the modulus of the field sum; they are coprime, and the loop
        # skips them
        a, b = (FIELD_MAX, 0, 0), (0, 1, FIELD_MAX - 1)
        mults, guard = groebner._packing(GREVLEX, 3)
        lcm = groebner._lcm(groebner._pack(a, mults), groebner._pack(b, mults), guard)
        assert groebner._degree(lcm, (1 << 48) - 1) == 2 * FIELD_MAX
        gens = [HomoPoly(3, {a: 1}), HomoPoly(3, {b: 1})]
        assert set(groebner_basis(gens, GREVLEX).generators) == set(gens)
        # leads that share a variable have an lcm of degree at most 2^16 - 3,
        # and the loop refuses it
        gens = [HomoPoly(3, {(FIELD_MAX - 1, 1, 0): 1}), HomoPoly(3, {b: 1})]
        with pytest.raises(PackedDegreeExceeded, match=f"degree {2 * FIELD_MAX - 1} exceeds"):
            groebner_basis(gens, GREVLEX)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(monomial_ideals() | pure_power_ideals())
    def test_read_off_matches_the_tuple_oracle(self, case):
        nvars, monos = case
        expected = dimension_of_leads(monos, nvars)
        for order in (GREVLEX, weighted_order(range(nvars, 0, -1))):
            mults, _ = groebner._packing(order, nvars)
            leads = [groebner._pack(m, mults) for m in monos]
            assert groebner._dimension_of_leads(leads, nvars) == expected, order

    def test_read_off_in_many_variables(self):
        # the point ideal (x0, ..., x_{N-2}) and one quadric in N = 12 variables
        nvars = 12
        point = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars - 1)]
        quadric = [(1,) + (0,) * (nvars - 2) + (1,)]
        mults, _ = groebner._packing(GREVLEX, nvars)
        for monos, dim in ((point, 0), (quadric, nvars - 2), ([], nvars - 1)):
            assert dimension_of_leads(monos, nvars) == dim
            assert groebner._dimension_of_leads([groebner._pack(m, mults) for m in monos],
                                                nvars) == dim

    def test_forced_variables_skip_the_scan(self):
        # in 32 variables the scan of all 2^32 subsets would take hours: the
        # point ideal, every variable, and x0^3 beside a lead on the other 31
        nvars = 32
        unit = [tuple(int(i == j) for i in range(nvars)) for j in range(nvars)]
        mults, _ = groebner._packing(GREVLEX, nvars)
        for monos, dim in ((unit[:-1], 0), (unit, EMPTY),
                           ([(3,) + (0,) * 31, (0,) + (1,) * 31], nvars - 3)):
            assert groebner._dimension_of_leads([groebner._pack(m, mults) for m in monos],
                                                nvars) == dim


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _monic_terms(gb):
    return {frozenset(g.terms.items()) for g in gb.generators}


class TestSympyOracle:
    """Reduced bases against sympy's, which is an independent implementation."""

    @staticmethod
    def sympy_basis(sympy, gens, nvars, order):
        xs = sympy.symbols(f"x0:{nvars}")
        exprs = [sum(int(c) * sympy.prod(x ** e for x, e in zip(xs, m))
                     for m, c in g.terms.items()) for g in gens]
        out = set()
        for poly in sympy.groebner(exprs, *xs, order=order, domain="QQ").polys:
            terms = poly.terms(order=order)
            lead = terms[0][1]
            out.add(frozenset((m, Fraction(int(c.p), int(c.q)) / Fraction(int(lead.p), int(lead.q)))
                              for m, c in terms))
        return out

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(small_ideals())
    def test_grevlex_and_lex_match_sympy(self, sympy, case):
        nvars, gens = case
        for order, name in ((GREVLEX, "grevlex"), (lex(nvars), "lex")):
            gb = groebner_basis(gens, order)
            certify(gb)
            assert _monic_terms(gb) == self.sympy_basis(sympy, gens, nvars, name), name

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(small_ideals())
    def test_weighted_with_zero_weight_spans_the_same_ideal(self, sympy, case):
        nvars, gens = case
        # x0 weighs nothing, so ties on the weight fall through to grevlex
        gb = groebner_basis(gens, weighted_order([0] + [1] * (nvars - 1)))
        certify(gb)
        reference = groebner_basis(gens, GREVLEX)
        assert _monic_terms(reference) == self.sympy_basis(sympy, gens, nvars, "grevlex")
        assert all(normal_form(g, gb).is_zero for g in gens)
        assert all(normal_form(h, reference).is_zero for h in gb.generators)


class TestCacheRecords:
    # two lines in the plane: dimension at least 2 - 2 = 0, and 0 mod p
    GENS = ("x0", "x1")

    def dim_record(self, tmp_path):
        set_cache_dir(str(tmp_path))
        assert projective_dimension(parse_many(self.GENS, 3), 3, 0) == 0
        (row,) = cache_rows(tmp_path)
        return row

    def test_dimension_record_repeats_its_key(self, tmp_path):
        row = self.dim_record(tmp_path)
        assert row == (groebner.cache_key(parse_many(self.GENS, 3), 3), 0)
        DIMENSION_COUNTS.clear()
        assert projective_dimension(parse_many(self.GENS, 3), 3, 0) == 0
        assert DIMENSION_COUNTS == {"cached": 1}

    def test_empty_dimension_record(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(["x0", "x1", "x2"], 3)
        assert projective_dimension(gens, 3) is EMPTY
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) is EMPTY
        assert DIMENSION_COUNTS == {"cached": 1}

    def test_key_carries_version_format_and_kind(self, monkeypatch):
        gens = parse_many(self.GENS, 3)
        base = groebner.cache_key(gens, 3)
        monkeypatch.setattr(groebner, "CACHE_FORMAT", "other")
        assert groebner.cache_key(gens, 3) != base
        monkeypatch.undo()
        monkeypatch.setattr(groebner, "__version__", "0.0.0")
        assert groebner.cache_key(gens, 3) != base

    def test_record_under_other_tag_never_read(self, tmp_path, monkeypatch):
        gens = parse_many(self.GENS, 3)
        monkeypatch.setattr(groebner, "CACHE_FORMAT", "other")
        stale_key = groebner.cache_key(gens, 3)
        monkeypatch.undo()
        key = groebner.cache_key(gens, 3)
        assert stale_key != key
        # a wrong answer filed under the old key
        write_rows(tmp_path, (stale_key, 2))
        set_cache_dir(str(tmp_path))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3, 0) == 0
        assert DIMENSION_COUNTS == {"modp": 1}

    @pytest.mark.parametrize("edit", [
        lambda r: ("0" * 64, r[1]),
        lambda r: (r[0], 0.0),
        lambda r: (r[0], -3),
        lambda r: (r[0], "2"),
        lambda r: (r[0], "empty"),
        lambda r: (r[0], b"\x00"),
        lambda r: (r[0], None),
    ])
    def test_edited_record_is_a_miss(self, tmp_path, edit):
        row = self.dim_record(tmp_path)
        write_rows(tmp_path, edit(row))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(parse_many(self.GENS, 3), 3, 0) == 0
        assert DIMENSION_COUNTS == {"modp": 1}
        assert row in cache_rows(tmp_path)  # rewritten

    def test_exact_query_writes_one_dimension_record(self, tmp_path):
        set_cache_dir(str(tmp_path))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(parse_many(TestDiskCache.GENS, 3), 3) == 0
        assert DIMENSION_COUNTS == {"exact": 1}
        key = groebner.cache_key(parse_many(TestDiskCache.GENS, 3), 3)
        assert cache_rows(tmp_path) == [(key, 0)]

    def test_modp_overflow_goes_to_projective_dimension(self, tmp_path, monkeypatch):
        # an overflowing mod-p pass has no answer: one pass over Q settles the
        # query, even under a bound the mod-p answer would have met
        monkeypatch.setattr(groebner, "_modp_dimension", lambda gens, nv, lower=None: None)
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3, 0) == 0
        assert DIMENSION_COUNTS == {"exact": 1}
        assert cache_rows(tmp_path) == [(groebner.cache_key(gens, 3), 0)]

    def test_planted_basis_of_larger_ideal_is_not_read(self, tmp_path):
        # the reduced basis of the inputs ends in x1^3 - x0*x2^2; the edited one
        # is a reduced basis of a strictly larger ideal that contains the inputs
        gens = parse_many(TestDiskCache.GENS, 3)
        edited = parse_many(("x0*x1 - x2^2", "x0^2 - x1^2", "x1^3 - 2*x0*x2^2"), 3)
        # filed as a basis record under the key layout of hyperpos-cache/2
        payload = json.dumps({
            "format": "hyperpos-cache/2", "version": groebner.__version__, "kind": "basis",
            "vars": 3, "order": "grevlex",
            "generators": sorted(json.dumps(poly_to_json(g), sort_keys=True,
                                            separators=(",", ":")) for g in gens),
        }, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(payload.encode()).hexdigest()
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "key": key, "kind": "basis",
            "value": {"vars": 3, "order": "grevlex", "reduced": True,
                      "generators": [poly_to_json(g) for g in edited]}}))
        expected = groebner_basis(gens, GREVLEX)
        assert expected.generators[-1] == P("x1^3 - x0*x2^2", 3)
        set_cache_dir(str(tmp_path))
        assert groebner_basis(gens, GREVLEX) == expected


@st.composite
def rational_quadrics(draw, nvars=3, size=(1, 4)):
    monos = list(groebner._all_monomials(nvars, 2))
    out = []
    for _ in range(draw(st.integers(*size))):
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        coefs = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6)
                              .filter(bool), min_size=len(chosen), max_size=len(chosen)))
        out.append(HomoPoly(nvars, dict(zip(chosen, coefs))))
    return out


class TestCacheKey:
    # a non-primitive member, a rational one with the same content-free form,
    # and a negative rational one
    GENS = ("x0^2 - x1*x2", "2*x0*x1 + 4*x2^2", "1/2*x0*x1 + x2^2", "-3*x1^2 + 9/4*x0*x2")
    # cache_key of GENS in hyperpos 0.1.0 under hyperpos-cache/4, the first
    # format keyed by per-polynomial digests
    RECORDED = "3c0b364479d30634d54b9e0de018c4b227e890103dc0faff33856097d83a0f6e"

    def test_key_bytes_unchanged(self):
        gens = parse_many(self.GENS, 3)
        assert groebner.cache_key(gens, 3) == self.RECORDED
        # memoized digests give the same key, in any generator order
        assert groebner.cache_key(gens[::-1], 3) == self.RECORDED

    def test_format_and_file(self):
        # keys changed meaning with the digests; the table lost its modulus
        # column after them, so the file name moved on and the tag did not
        assert groebner.CACHE_FORMAT == "hyperpos-cache/4"
        assert groebner.CACHE_FILE == "dimensions-5.sqlite3"

    @settings(derandomize=True, max_examples=60, deadline=None)
    # members whose coefficient texts differ at their second character
    @example(gens=list(parse_many(("x0^2 + 12*x1^2", "12*x0^2 + x1^2"), 3)),
             other=parse_many(("x0*x1",), 3), c=Fraction(-1, 2))
    @given(rational_quadrics(), rational_quadrics(size=(1, 1)),
           st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool))
    def test_key_matches_oracle(self, gens, other, c):
        (q,) = other
        for g in gens:
            groebner._key_digest(g)  # fill the memo before deriving new polynomials
        derived = [g + q for g in gens] + [g * q for g in gens] + [g.scale(c) for g in gens]
        for batch in (gens, derived, gens + derived):
            batch = [g for g in batch if not g.is_zero]
            assert groebner.cache_key(batch, 3) == key_oracle(batch, 3)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(rational_quadrics(), st.randoms(use_true_random=False),
           st.lists(st.fractions(min_value=0, max_value=9, max_denominator=6).filter(bool),
                    min_size=4, max_size=4))
    def test_key_names_the_generator_multiset_and_the_tag(self, gens, rng, scales):
        key = groebner.cache_key(gens, 3)
        assert key == key_oracle(gens, 3)
        # any order and any positive rescaling: the content-free forms are the same
        scaled = [g.scale(c) for g, c in zip(gens, scales)]
        rng.shuffle(scaled)
        assert groebner.cache_key(scaled, 3) == key
        # a repeated or dropped generator, another ring size, format or version
        others = {groebner.cache_key(gens + gens[:1], 3), groebner.cache_key(gens[1:], 3),
                  groebner.cache_key(gens, 4)}
        with patch.object(groebner, "CACHE_FORMAT", "hyperpos-cache/3"):
            others.add(groebner.cache_key(gens, 3))
        with patch.object(groebner, "__version__", "0.0.0"):
            others.add(groebner.cache_key(gens, 3))
        assert len(others) == 5 and key not in others

    def test_record_under_recorded_key_is_cached(self, tmp_path):
        write_rows(tmp_path, (self.RECORDED, "EMPTY"))
        set_cache_dir(str(tmp_path))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(parse_many(self.GENS, 3), 3) is EMPTY
        assert DIMENSION_COUNTS == {"cached": 1}

    def test_hit_does_not_scale_generators(self, tmp_path, monkeypatch):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        assert projective_dimension(gens, 3) is EMPTY
        monkeypatch.setattr(HomoPoly, "content_free",
                            lambda self: pytest.fail("content_free on a cache hit"))
        monkeypatch.setattr(HomoPoly, "_primitive_form",
                            lambda self: pytest.fail("primitive form computed on a cache hit"))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) is EMPTY
        assert DIMENSION_COUNTS == {"cached": 1}


def test_spoly_degree_homogeneous():
    f = P("x0^2 - x1^2", 3)
    g = P("x0*x1 - x2^2", 3)
    s = s_polynomial(f, g, GREVLEX)
    assert s.is_zero or s.degree == 3
