"""Groebner engine: bases, normal forms, dimension, degree, Hilbert counts."""

import hashlib
import json
from fractions import Fraction
from math import comb

import pytest
from conftest import certify, parse_many
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpos import groebner
from hyperpos.groebner import (
    DIMENSION_COUNTS,
    EMPTY,
    GREVLEX,
    LEX,
    PAIR_COUNTS,
    GroebnerBasis,
    MixedAmbient,
    MonomialBudgetExceeded,
    MonomialOrder,
    groebner_basis,
    hilbert_function,
    ideal_profile,
    leading_monomial,
    normal_form,
    projective_dimension,
    s_polynomial,
    set_cache_dir,
    standard_monomials,
    weighted_order,
)
from hyperpos.polyring import HomoPoly, mono_lcm, parse_poly, poly_to_json


def P(text, nvars):
    return parse_poly(text, nvars)


CONIC = "x0*x2 - x1^2"


class TestOrders:
    def test_grevlex_x1sq_beats_x0x2(self):
        assert leading_monomial(P(CONIC, 3), GREVLEX) == (0, 2, 0)

    def test_lex_x0_first(self):
        assert leading_monomial(P("x0 + x1", 2), LEX) == (1, 0)
        assert leading_monomial(P(CONIC, 3), LEX) == (1, 0, 1)

    def test_weighted_picks_heavy_variable(self):
        p = P("x0*x1 + x1^2", 2)
        assert leading_monomial(p, weighted_order([1, 0])) == (1, 1)
        assert leading_monomial(p, weighted_order([0, 1])) == (0, 2)

    def test_weighted_ties_break_by_grevlex(self):
        p = P("x0^2 + x0*x1", 2)
        assert leading_monomial(p, weighted_order([1, 1])) == (2, 0)

    def test_multiplicative(self):
        for order in (GREVLEX, LEX, weighted_order([2, 1, 0])):
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


class TestBasis:
    def test_single_variable(self):
        gb = groebner_basis(parse_many(["x0"], 2), GREVLEX)
        assert gb.generators == (P("x0", 2),)
        assert gb.reduced
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
        gb = GroebnerBasis([P("1", 2)], GREVLEX, True, 2)
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
            dim_l = ideal_profile(groebner_basis(gens, LEX)).projective_dimension
            assert dim_g == dim_l, texts


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


class TestDiskCache:
    # two conics meeting in finitely many points: dimension 0, settled over Q
    GENS = ("x0^2 - x1^2", "x0*x1 - x2^2")

    def test_hit_returns_equal_dimension(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        first = projective_dimension(gens, 3)
        assert len(list(tmp_path.glob("*.json"))) == 1
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) == first == 0
        assert DIMENSION_COUNTS == {"cached": 1}
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_key_ignores_generator_listing_order(self, tmp_path):
        set_cache_dir(str(tmp_path))
        a = parse_many(self.GENS, 3)
        projective_dimension(a, 3)
        DIMENSION_COUNTS.clear()
        projective_dimension(tuple(reversed(a)), 3)
        assert DIMENSION_COUNTS == {"cached": 1}
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_disabled_cache_writes_nothing(self, tmp_path):
        set_cache_dir(None)
        projective_dimension(parse_many(self.GENS, 3), 3)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_recomputed(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.GENS, 3)
        dim = projective_dimension(gens, 3)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{broken")
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3) == dim
        assert DIMENSION_COUNTS == {"exact": 1}


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
        texts = ("x0^2 - x1*x2", "x1^2 - x0*x2", "x0^2 - x1^2")
        assert self.counts(texts, 3) == {
            "pairs": 6, "coprime": 3, "chain": 1, "zero": 1, "generators": 1}

    def test_bases_are_not_cached(self, tmp_path):
        set_cache_dir(str(tmp_path))
        gens = parse_many(self.TWISTED_CUBIC, 4)
        groebner_basis(gens, GREVLEX)
        assert list(tmp_path.iterdir()) == []
        PAIR_COUNTS.clear()
        groebner_basis(gens, GREVLEX)
        assert PAIR_COUNTS["pairs"] > 0

    @pytest.mark.parametrize("order", [GREVLEX, LEX, weighted_order([0, 1, 2])])
    def test_s_terms_match_s_polynomial(self, order):
        gens = [g.scale(Fraction(k + 2, 3)) for k, g in enumerate(
            parse_many(["x0^2 - 3*x1*x2", "2*x1^2 - x0*x2 + x2^2", "x0*x1 - 5*x2^2"], 3))]
        for f, g in [(a, b) for a in gens for b in gens if a is not b]:
            lmf, lmg = leading_monomial(f, order), leading_monomial(g, order)
            got = groebner._s_terms((lmf, f.terms[lmf], f.terms),
                                    (lmg, g.terms[lmg], g.terms),
                                    mono_lcm(lmf, lmg))
            assert got == s_polynomial(f, g, order).terms


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


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
        for order, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
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
        (entry,) = tmp_path.glob("*.json")
        return entry, json.loads(entry.read_text())

    def test_dimension_record_repeats_its_key(self, tmp_path):
        entry, record = self.dim_record(tmp_path)
        assert record == {"key": entry.stem, "value": 0}
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
        set_cache_dir(str(tmp_path))
        # a wrong answer filed under the current key, but labelled with the old one
        (tmp_path / f"{key}.json").write_text(json.dumps({"key": stale_key, "value": 2}))
        (tmp_path / f"{stale_key}.json").write_text(json.dumps({"key": stale_key, "value": 2}))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(gens, 3, 0) == 0
        assert DIMENSION_COUNTS == {"modp": 1}

    @pytest.mark.parametrize("edit", [
        lambda r: {**r, "key": "0" * 64},
        lambda r: {**r, "value": 0.0},
        lambda r: {**r, "value": -3},
        lambda r: {**r, "value": "2"},
        lambda r: {**r, "value": True},
        lambda r: {"key": r["key"]},
        lambda r: [r],
    ])
    def test_edited_record_is_a_miss(self, tmp_path, edit):
        entry, record = self.dim_record(tmp_path)
        entry.write_text(json.dumps(edit(record)))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(parse_many(self.GENS, 3), 3, 0) == 0
        assert DIMENSION_COUNTS == {"modp": 1}
        assert json.loads(entry.read_text()) == record  # rewritten

    def test_exact_query_writes_one_dimension_record(self, tmp_path):
        set_cache_dir(str(tmp_path))
        DIMENSION_COUNTS.clear()
        assert projective_dimension(parse_many(TestDiskCache.GENS, 3), 3) == 0
        assert DIMENSION_COUNTS == {"exact": 1}
        (entry,) = tmp_path.glob("*.json")
        assert json.loads(entry.read_text()) == {"key": entry.stem, "value": 0}

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


def test_spoly_degree_homogeneous():
    f = P("x0^2 - x1^2", 3)
    g = P("x0*x1 - x2^2", 3)
    s = s_polynomial(f, g, GREVLEX)
    assert s.is_zero or s.degree == 3
