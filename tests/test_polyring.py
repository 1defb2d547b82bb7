"""Polynomial ring layer: parser, arithmetic, JSON round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpos.groebner import GREVLEX, groebner_basis, normal_form
from hyperpos.polyring import (
    MAX_DEGREE,
    ConstantMember,
    DegreeBudgetExceeded,
    DegreeMismatch,
    DimensionMismatch,
    EmptyInput,
    HomoPoly,
    NotHomogeneous,
    PolySyntaxError,
    VariableOutOfRange,
    ZeroPolynomial,
    eval_poly,
    lcm_degree,
    parse_poly,
    poly_combine,
    poly_from_json,
    poly_to_json,
    rat_from_str,
    rat_to_str,
)


def P(text, nvars):
    return parse_poly(text, nvars)


class TestParser:
    def test_conic_terms(self):
        p = P("x0^2 - x1*x2", 3)
        assert p.terms == {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-1)}
        assert p.degree == 2

    def test_single_variable(self):
        p = P("x0", 2)
        assert p.terms == {(1, 0): Fraction(1)}
        assert p.degree == 1

    def test_not_homogeneous_names_degrees(self):
        with pytest.raises(NotHomogeneous) as err:
            P("x0^2 + x1", 2)
        assert err.value.degrees == (2, 1)

    def test_variable_out_of_range(self):
        with pytest.raises(VariableOutOfRange):
            P("x3", 3)

    def test_rational_coefficients(self):
        p = P("1/2*x0 + x1", 2)
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1)}

    def test_negative_coefficient_needs_digits(self):
        # the grammar has no unary minus on bare variables
        with pytest.raises(PolySyntaxError):
            P("-x0", 2)
        p = P("-1*x0", 2)
        assert p.terms == {(1, 0): Fraction(-1)}

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            P("x0 + ", 2)
        assert err.value.position == 5

    def test_implicit_product_after_coefficient(self):
        assert P("3x0x1", 2).terms == {(1, 1): Fraction(3)}
        assert P("3*x0*x1", 2) == P("3x0x1", 2)

    def test_factor_branch_requires_stars(self):
        with pytest.raises(PolySyntaxError):
            P("x0x1", 2)

    def test_repeated_variable_multiplies(self):
        assert P("x0*x0", 2).terms == {(2, 0): Fraction(1)}

    def test_zero_denominator_rejected(self):
        with pytest.raises(PolySyntaxError):
            P("1/0*x0", 2)

    def test_cancellation_to_zero(self):
        p = P("x0 - x0", 2)
        assert p.is_zero
        with pytest.raises(ZeroPolynomial):
            p.degree

    def test_whitespace_ignored(self):
        assert P("  x0 ^ 2  -  x1 * x2 ", 3) == P("x0^2-x1*x2", 3)

    def test_constant_polynomial(self):
        p = P("5", 2)
        assert p.degree == 0
        assert p.terms == {(0, 0): Fraction(5)}


class TestPrinting:
    CASES = ["x0^2 - x1*x2", "x0", "1/2*x0 + x1", "-1*x0^2 + 3*x1*x2", "2*x0^3", "0"]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        p = P(text, 3)
        assert parse_poly(str(p), 3) == p

    def test_random_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            nvars = rng.randint(1, 4)
            degree = rng.randint(0, 4)
            terms = {}
            for _ in range(rng.randint(0, 6)):
                exp = [0] * nvars
                for _ in range(degree):
                    exp[rng.randrange(nvars)] += 1
                terms[tuple(exp)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            p = HomoPoly(nvars, terms)
            assert parse_poly(str(p), nvars) == p

    def test_grevlex_descending_iteration(self):
        p = P("x2^2 + x0*x2 + x1^2", 3)
        monos = [m for m, _ in p.sorted_terms()]
        assert monos == [(0, 2, 0), (1, 0, 1), (0, 0, 2)]


class TestEval:
    def test_on_conic(self):
        p = P("x0*x2 - x1^2", 3)
        assert eval_poly(p, (1, 1, 1)) == 0
        assert eval_poly(p, (1, 2, 3)) == -1

    def test_zero_vector(self):
        assert eval_poly(P("x0^3 + x1^3", 2), (0, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_poly(P("x0", 2), (1, 2, 3))

    def test_homogeneity_scaling(self):
        rng = random.Random(11)
        for _ in range(100):
            p = P("x0^2*x1 - 2*x1^3 + 1/3*x0*x1*x2", 3)
            pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            lam = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 5))
            assert eval_poly(p, tuple(lam * x for x in pt)) == lam ** 3 * eval_poly(p, pt)


class TestCombine:
    def test_cancellation(self):
        assert poly_combine((1, -1), (P("x0", 2), P("x0", 2))).is_zero

    def test_sum(self):
        assert poly_combine((1, 1), (P("x1", 3), P("x2", 3))) == P("x1 + x2", 3)

    def test_weighted(self):
        out = poly_combine((2, 3), (P("x0^2", 3), P("x1*x2", 3)))
        assert out == P("2*x0^2 + 3*x1*x2", 3)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            poly_combine((1, 1), (P("x0", 2), P("x0^2", 2)))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            poly_combine((), ())

    def test_linearity(self):
        polys = (P("x0^2", 3), P("x1*x2", 3), P("x2^2", 3))
        a = (Fraction(1, 2), Fraction(-3), Fraction(2))
        b = (Fraction(5), Fraction(1, 3), Fraction(0))
        lhs = poly_combine(tuple(x + y for x, y in zip(a, b)), polys)
        rhs = poly_combine(a, polys) + poly_combine(b, polys)
        assert lhs == rhs


class TestLcmDegree:
    def test_all_ones(self):
        out = lcm_degree((P("x0", 2), P("x1", 2), P("x0+x1", 2)))
        assert out.degree == 1
        assert out.lifted == (P("x0", 2), P("x1", 2), P("x0+x1", 2))

    def test_two_three(self):
        assert lcm_degree((P("x0^2", 2), P("x1^3", 2))).degree == 6

    def test_four_six_ten(self):
        out = lcm_degree((P("x0^4", 2), P("x1^6", 2), P("x0^10", 2)))
        assert out.degree == 60
        assert all(p.degree == 60 for p in out.lifted)

    def test_power_lift_values(self):
        out = lcm_degree((P("x0", 2), P("x0+x1", 2), P("x1^2", 2)))
        assert out.degree == 2
        assert out.lifted[0] == P("x0^2", 2)
        assert out.lifted[1] == P("x0^2 + 2*x0*x1 + x1^2", 2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            lcm_degree((P("x0", 2), HomoPoly.zero(2)))

    def test_constant_rejected(self):
        with pytest.raises(ConstantMember, match="member 0"):
            lcm_degree((P("2", 2), P("x0", 2)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            lcm_degree(())


class TestDegreeBudget:
    def test_parse_at_and_over_budget(self):
        assert P(f"x0^{MAX_DEGREE}", 2).degree == MAX_DEGREE
        with pytest.raises(DegreeBudgetExceeded):
            P(f"x0^{MAX_DEGREE} * x1", 2)

    def test_json_over_budget(self):
        obj = {"vars": 2, "terms": [{"exp": [MAX_DEGREE, 1], "coef": "1/1"}]}
        with pytest.raises(DegreeBudgetExceeded):
            poly_from_json(obj)

    def test_power_checked_before_multiplying(self, monkeypatch):
        monkeypatch.setattr(HomoPoly, "__mul__", lambda *args: pytest.fail("multiplied"))
        with pytest.raises(DegreeBudgetExceeded):
            P("x0 + x1", 2) ** (10 ** 12)
        with pytest.raises(DegreeBudgetExceeded):
            P("x0^2 + x1^2", 2) ** (MAX_DEGREE // 2 + 1)

    def test_lcm_degree_checked_before_lifting(self, monkeypatch):
        monkeypatch.setattr(HomoPoly, "__pow__", lambda *args: pytest.fail("lifted"))
        # lcm(31, 37) = 1147
        with pytest.raises(DegreeBudgetExceeded):
            lcm_degree((P("x0^31", 2), P("x1^37", 2)))


@given(
    num=st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
    den=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_rational_arithmetic_exact(num, den):
    x = Fraction(num, den)
    assert x * (1 / x) == 1
    assert rat_from_str(rat_to_str(x)) == x


COEFS = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2),
                         Fraction(1, 2), Fraction(1), Fraction(2)])


@st.composite
def homopolys(draw, nvars, degree):
    """Up to four terms of one degree; coefficients from a small set, so sums cancel often."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = [0] * nvars
        for i in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
            exp[i] += 1
        terms[tuple(exp)] = draw(COEFS)
    return HomoPoly(nvars, terms)


@st.composite
def arithmetic_results(draw):
    nvars = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 3))
    p, q = draw(homopolys(nvars, degree)), draw(homopolys(nvars, degree))
    c = draw(COEFS)
    mono = draw(homopolys(nvars, draw(st.integers(0, 2))).filter(lambda m: not m.is_zero))
    shift = next(iter(mono.terms))
    gb = groebner_basis([q], GREVLEX, num_vars=nvars)
    # the cross terms of (p + q) * (p - q) cancel inside one product
    return [p + q, p - q, -p, p - p, p.scale(c), p.scale(0), p * q, (p + q) * (p - q),
            p * c, p.mul_term(shift, c), p.mul_term(shift, 0), p.content_free(),
            normal_form(p, gb), *gb.generators]


@given(arithmetic_results())
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_match_validated_construction(results):
    def degree(f):
        return None if f.is_zero else f.degree

    for r in results:
        checked = HomoPoly(r.nvars, r.terms)
        assert r == checked
        assert degree(r) == degree(checked)
        assert all(type(c) is Fraction and c != 0 for c in r.terms.values())
        assert all(type(m) is tuple and len(m) == r.nvars for m in r.terms)


class TestJson:
    def test_shape(self):
        obj = poly_to_json(P("x0^2 - x1*x2", 3))
        assert obj == {
            "vars": 3,
            "terms": [
                {"exp": [2, 0, 0], "coef": "1/1"},
                {"exp": [0, 1, 1], "coef": "-1/1"},
            ],
        }

    def test_round_trip(self):
        for text in ("x0^2 - x1*x2", "1/2*x0 + x1", "0"):
            p = P(text, 3)
            assert poly_from_json(poly_to_json(p)) == p

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(PolySyntaxError):
            poly_from_json({"vars": 2, "terms": [
                {"exp": [1, 0], "coef": "1/1"},
                {"exp": [1, 0], "coef": "2/1"},
            ]})
