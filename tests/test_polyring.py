"""Polynomial ring layer: parser, arithmetic, JSON round-trips."""

import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import test_golden
from oracles import content_free
from hyperpos import polyring
from hyperpos.errors import DomainError
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
    TermBudgetExceeded,
    VariableBudgetExceeded,
    VariableOutOfRange,
    ZeroPolynomial,
    ascii_int,
    grevlex_key,
    int_from_json,
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

    @pytest.mark.parametrize("text, position, expected", [
        ("x0^\u00b2", 3, "exponent"),  # superscript two
        ("x0^\u0663", 3, "exponent"),  # Arabic-Indic three
        ("x\u0661", 1, "variable index"),
        ("\u00b2x0", 0, "coefficient or variable"),
        ("-\u0663*x0", 0, "digits after sign"),
        ("3/\u0663*x0", 2, "denominator"),
        ("x0^1\uff10 + x1^2", 4, "'+', '-' or end of input"),  # fullwidth zero
    ])
    def test_digits_are_ascii(self, text, position, expected):
        with pytest.raises(PolySyntaxError) as err:
            P(text, 2)
        assert err.value.position == position
        assert err.value.message == f"at position {position}: expected {expected}"

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


def golden_texts():
    """(text, nvars) of every polynomial that the golden set's inputs write as text."""
    texts = []
    for content in test_golden.FILES.values():
        if isinstance(content, dict):
            texts += [(t, content["ambient"] + 1) for key in ("variety", "family", "polys")
                      for t in content.get(key, []) if isinstance(t, str)]
    for argv in test_golden.CASES:
        if "--poly" in argv and "--nvars" in argv:
            texts.append((argv[argv.index("--poly") + 1], int(argv[argv.index("--nvars") + 1])))
    return texts


@st.composite
def written_polys(draw):
    """Text of 1 to 6 terms of one degree in 1 to 4 variables, with zero
    coefficients and repeated monomials, so terms merge and may cancel."""
    nvars = draw(st.integers(1, 4))
    monos = [tuple(combo.count(i) for i in range(nvars))
             for combo in combinations_with_replacement(range(nvars), draw(st.integers(0, 3)))]
    terms = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3), st.sampled_from(monos)),
                          min_size=1, max_size=6))
    return " + ".join("*".join([f"{num}/{den}"] + [f"x{i}^{e}" for i, e in enumerate(mono) if e])
                      for num, den, mono in terms), nvars


class TestParseBuildsUnchecked:
    """parse_poly checks each written term once and builds its result without
    the constructor's checks; the result is the one the checked constructor
    makes from the same terms."""

    @staticmethod
    def assert_as_checked(text, nvars):
        p = parse_poly(text, nvars)
        checked = HomoPoly(nvars, p.terms)
        assert p == checked and list(p.terms) == list(checked.terms)
        assert all(type(c) is Fraction and c for c in p.terms.values())
        assert p.is_zero == checked.is_zero
        assert p.is_zero or p.degree == checked.degree

    def test_golden_texts(self):
        texts = golden_texts()
        assert len(texts) > 20
        for text, nvars in texts:
            self.assert_as_checked(text, nvars)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(written_polys())
    @example(("x0^2 - x0^2 + x1^2", 2))
    @example(("0*x0 + 0*x1", 2))
    def test_written_terms(self, case):
        self.assert_as_checked(*case)

    def test_homogeneity_is_checked_before_cancellation(self):
        with pytest.raises(NotHomogeneous):
            P("x0^2 - x0^2 + x1", 2)
        assert P("x0 - x0", 2).is_zero
        assert P("x0 - x0", 2) == HomoPoly.zero(2)


# the grammar's alphabet, and characters on which a tokenizer may disagree
# with `str.isdigit` or `str.isspace`: Unicode digits, a fullwidth zero, the
# ideographic and no-break spaces, the file separator and the next-line mark
PARSER_ALPHABET = ["x", *"0123456789", "+", "-", "*", "/", "^", " ", "\t", "\n",
                   "\u00b2", "\u0663", "\uff10", "\u3000", "\xa0", "\x1c", "\x85"]
PARSER_FRAGMENTS = ["x0", "x1", "x2", "x3", "^2", "^3", " + ", " - ", "*", "/0", "/3",
                    "12", "1 2", "-1", "x 1", " ^ ", "\t\n"]


def parse_outcome(parse, text, nvars):
    """The terms in insertion order and the degree, or the refusal's class,
    message and position."""
    try:
        p = parse(text, nvars)
    except DomainError as exc:
        return type(exc), exc.message, getattr(exc, "position", None)
    return list(p.terms.items()), None if p.is_zero else p.degree


@st.composite
def parser_texts(draw):
    """Text of single characters and fragments, mostly outside the grammar."""
    pieces = st.sampled_from(PARSER_ALPHABET) | st.sampled_from(PARSER_FRAGMENTS)
    return "".join(draw(st.lists(pieces, max_size=24))), draw(st.integers(1, 4))


@st.composite
def spoiled_polys(draw):
    """A written polynomial with up to three characters or fragments put in."""
    text, nvars = draw(written_polys())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(PARSER_ALPHABET) | st.sampled_from(PARSER_FRAGMENTS))
        text = text[:at] + piece + text[at:]
    return text, nvars


class TestAgainstTheScanner:
    """parse_poly reads a token list; the scanner it replaced read one
    character per call.  Both give the same terms in the same order, or the
    same refusal at the same position."""

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(parser_texts() | spoiled_polys())
    @example(("1 2*x0", 2))
    @example(("x0^2 + x1 + *", 2))
    @example(("x0^1\u0663 + x1^2", 2))
    @example(("2\u00b2*x0", 2))
    @example(("x0 +\u3000x1\xa0-\x1c3*x2\x85", 3))
    @example(("\t1/0*x0", 1))
    @example(("x0^2 \n- x1^2 +", 2))
    @example(("x0 + x9 + x0^2 +", 4))
    def test_same_terms_or_same_refusal(self, case):
        text, nvars = case
        assert parse_outcome(parse_poly, text, nvars) == parse_outcome(
            oracles.parse_poly_scanner, text, nvars)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(parser_texts() | spoiled_polys(), st.integers(0, 8))
    @example(("x0 + 3*x1 -\t-2*x0^2 + *", 2), 2)
    @example(("x0^2 + x1 - 3*x1", 2), 0)
    def test_same_in_chunks_of_any_size(self, case, chunk):
        # chunks of `chunk` characters and more, each cut where a term ends
        text, nvars = case
        default, polyring._CHUNK = polyring._CHUNK, chunk
        try:
            ours = parse_outcome(parse_poly, text, nvars)
        finally:
            polyring._CHUNK = default
        assert ours == parse_outcome(oracles.parse_poly_scanner, text, nvars)

    @pytest.mark.parametrize("tail", ["", " + x1^2", " + x2 x1", " - 1/0*x0*x1", " + x0"])
    def test_same_on_a_text_of_many_chunks(self, tail):
        rng = random.Random(3)
        text = " ".join(f"{rng.choice('+-')} {rng.randint(1, 99)}*x{rng.randrange(3)}*x{rng.randrange(3)}"
                        for _ in range(20000)) + tail
        assert len(text) > 3 * polyring._CHUNK
        assert parse_outcome(parse_poly, text, 3) == parse_outcome(oracles.parse_poly_scanner, text, 3)

    def test_whitespace_is_what_str_isspace_says(self):
        # every code point is either whitespace or the start of a token
        token = polyring._TOKENS.match
        assert [c for c in map(chr, range(sys.maxunicode + 1))
                if (token(c) is None) != c.isspace()] == []


# each integer of the grammar written with one digit more than `int` reads at
# the default limit, as (text, what the parser expected there)
TOO_LONG = "9" * (sys.int_info.default_max_str_digits + 1)
TOO_MANY_DIGITS = [
    (f"{TOO_LONG}*x0", "integer coefficient"),
    (f"x1 - {TOO_LONG}*x0", "integer coefficient"),
    (f"1/{TOO_LONG}*x0", "denominator"),
    (f"x0 + x{TOO_LONG}", "variable index"),
    (f"x0^ {TOO_LONG} + x1", "exponent"),
]


@pytest.mark.usefixtures("default_digit_limit")
@pytest.mark.parametrize("text, expected", TOO_MANY_DIGITS)
def test_too_many_digits_refused_where_written(text, expected):
    position = text.index(TOO_LONG)
    with pytest.raises(PolySyntaxError) as err:
        P(text, 2)
    assert err.value.position == position
    assert err.value.message == f"{expected} at position {position} has too many digits"
    assert parse_outcome(parse_poly, text, 2) == parse_outcome(oracles.parse_poly_scanner, text, 2)


@st.composite
def one_degree_polys(draw):
    """A polynomial in 1 to 4 variables: up to 12 monomials of one degree,
    the zero polynomial among them."""
    nvars = draw(st.integers(1, 4))
    monos = [tuple(combo.count(i) for i in range(nvars))
             for combo in combinations_with_replacement(range(nvars), draw(st.integers(0, 4)))]
    terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-5, 5), max_size=12))
    return HomoPoly(nvars, terms)


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

    # the canonical text, exactly: a spelling that merely parses back is not enough
    @pytest.mark.parametrize("text, nvars", [
        ("5", 1), ("-5", 1), ("-1/2", 1),
        ("-1*x0", 1),
        ("x0 - x1", 2),
        ("-1/2*x0 + x1", 2),
        ("x0^2*x1 - 3*x2^3", 3),
    ])
    def test_canonical_text(self, text, nvars):
        assert str(P(text, nvars)) == text

    def test_grevlex_descending_iteration(self):
        p = P("x2^2 + x0*x2 + x1^2", 3)
        monos = [m for m, _ in p.sorted_terms()]
        assert monos == [(0, 2, 0), (1, 0, 1), (0, 0, 2)]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(one_degree_polys())
    @example(HomoPoly(1, {(3,): 2}))
    @example(HomoPoly.zero(1))
    @example(HomoPoly.zero(4))
    def test_sorted_terms_match_the_grevlex_key(self, p):
        # one degree: grevlex-descending is ascending in the reversed exponents
        monos = sorted(p.terms, key=grevlex_key, reverse=True)
        assert p.sorted_terms() == [(m, p.terms[m]) for m in monos]


class TestEval:
    def test_on_conic(self):
        p = P("x0*x2 - x1^2", 3)
        assert p.evaluate((1, 1, 1)) == 0
        assert p.evaluate((1, 2, 3)) == -1

    def test_zero_vector(self):
        assert P("x0^3 + x1^3", 2).evaluate((0, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            P("x0", 2).evaluate((1, 2, 3))

    def test_homogeneity_scaling(self):
        rng = random.Random(11)
        for _ in range(100):
            p = P("x0^2*x1 - 2*x1^3 + 1/3*x0*x1*x2", 3)
            pt = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
            lam = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 5))
            assert p.evaluate(tuple(lam * x for x in pt)) == lam ** 3 * p.evaluate(pt)


@st.composite
def evaluation_cases(draw):
    """A polynomial with rational coefficients (or zero) of degree 0 to 4 in 1
    to 4 variables, and a point of integer or Fraction coordinates, negative
    ones included."""
    nvars = draw(st.integers(1, 4))
    monos = [tuple(combo.count(i) for i in range(nvars))
             for combo in combinations_with_replacement(range(nvars), draw(st.integers(0, 4)))]
    coefficient = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    chosen = draw(st.lists(st.sampled_from(monos), max_size=6, unique=True))
    p = HomoPoly(nvars, {m: draw(coefficient) for m in chosen})
    coordinate = st.integers(-30, 30) | st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
    return p, tuple(draw(st.lists(coordinate, min_size=nvars, max_size=nvars)))


class TestEvalAgainstOracle:
    """evaluate sums in integers; the oracle builds a Fraction per coordinate and term."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(evaluation_cases())
    @example((HomoPoly.zero(3), (Fraction(1, 2), -3, 4)))
    @example((HomoPoly(2, {(0, 0): Fraction(-7, 3)}), (Fraction(-5, 6), 2)))
    @example((P("1/2*x0^2 - 2/3*x1*x2", 3), (Fraction(-3, 4), Fraction(5, 6), -2)))
    @example((P("1/6*x0^3 - 7/4*x1^3", 2), (12, -35)))
    def test_equals_the_oracle(self, case):
        p, point = case
        value = p.evaluate(point)
        assert type(value) is Fraction
        assert value == oracles.evaluate(p, point)

    def test_repeated_calls_and_bool_coordinates(self):
        p = P("1/2*x0*x1 + x1^2", 2)
        for point in ((1, 2), (True, 2), (Fraction(4, 2), 1)):
            assert p.evaluate(point) == oracles.evaluate(p, point)


@st.composite
def combine_cases(draw):
    """1 to 5 polynomials of one degree (0 to 3) in 1 to 4 variables, some of
    them zero, with integer or rational coefficients, some of them zero; a
    last member may cancel the sum of the others to the zero polynomial."""
    nvars = draw(st.integers(1, 4))
    monos = [tuple(combo.count(i) for i in range(nvars))
             for combo in combinations_with_replacement(range(nvars), draw(st.integers(0, 3)))]
    rational = st.integers(-6, 6) | st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
    polys, coeffs = [], []
    for _ in range(draw(st.integers(1, 5))):
        chosen = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
        polys.append(HomoPoly(nvars, {m: draw(rational) for m in chosen}))
        coeffs.append(draw(rational))
    if draw(st.booleans()):
        polys.append(-oracles.fold_combine(coeffs, polys))
        coeffs.append(1)
    return tuple(coeffs), tuple(polys)


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

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(combine_cases())
    @example(((0, Fraction(1, 2)), (P("x0", 2), HomoPoly.zero(2))))
    @example(((2, -1), (P("x0 + 1/2*x1", 2), P("2*x0 + x1", 2))))
    def test_matches_the_fold(self, case):
        coeffs, polys = case
        out, expected = poly_combine(coeffs, polys), oracles.fold_combine(coeffs, polys)
        assert out == expected
        assert out._degree == expected._degree
        assert all(type(c) is Fraction and c for c in out.terms.values())


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


class TestTermBudget:
    def test_default_is_far_above_inputs(self):
        assert polyring.MAX_TERMS == 10 ** 6

    def test_parse_at_and_over_budget(self, monkeypatch):
        monkeypatch.setattr(polyring, "MAX_TERMS", 3)
        assert len(P("x0^2 + x0*x1 + x1^2", 2).terms) == 3
        with pytest.raises(TermBudgetExceeded):
            P("x0^3 + x0^2*x1 + x0*x1^2 + x1^3", 2)
        # repeated monomials are one term
        assert len(P("x0^3 + x0^3 + x1^3 + 2*x1^3", 2).terms) == 2

    def test_json_checked_before_reading_rows(self, monkeypatch):
        monkeypatch.setattr(polyring, "MAX_TERMS", 2)
        obj = {"vars": 2, "terms": [{"exp": [1, 0], "coef": "1/1"},
                                    {"exp": [0, 1], "coef": "1/1"}]}
        assert poly_from_json(obj) == P("x0 + x1", 2)
        # the third row would be refused as malformed if it were read
        obj["terms"].append("not a row")
        with pytest.raises(TermBudgetExceeded):
            poly_from_json(obj)

    def test_product_checked_before_multiplying(self, monkeypatch):
        p = P("x0 + x1 + x2", 3)
        monkeypatch.setattr(polyring, "mono_mul", lambda *args: pytest.fail("multiplied"))
        # 3 * 3 pairs of terms, but only comb(4, 2) = 6 quadric monomials
        monkeypatch.setattr(polyring, "MAX_TERMS", 5)
        with pytest.raises(TermBudgetExceeded):
            p * p
        with pytest.raises(TermBudgetExceeded):
            p ** 2
        monkeypatch.undo()
        monkeypatch.setattr(polyring, "MAX_TERMS", 6)
        assert len((p * p).terms) == 6
        assert p ** 2 == p * p

    def test_pairs_count_when_fewer_than_monomials(self, monkeypatch):
        monkeypatch.setattr(polyring, "MAX_TERMS", 3)
        # 2 * 2 pairs of terms, far fewer than the quartic monomials in P^3
        a, b = P("x0^2 + x1^2", 4), P("x2^2 + x3^2", 4)
        with pytest.raises(TermBudgetExceeded):
            a * b
        monkeypatch.setattr(polyring, "MAX_TERMS", 4)
        assert len((a * b).terms) == 4


class TestVariableBudget:
    def test_default_is_far_above_inputs(self):
        # the tests and the benchmark use at most 6 variables
        assert polyring.MAX_VARIABLES == 32

    def test_at_and_over_budget(self):
        top = polyring.MAX_VARIABLES
        assert P(f"x{top - 1}", top).degree == 1
        with pytest.raises(VariableBudgetExceeded):
            P("x0", top + 1)
        with pytest.raises(VariableBudgetExceeded):
            HomoPoly.variable(top + 1, 0)
        with pytest.raises(VariableBudgetExceeded):
            poly_from_json({"vars": top + 1, "terms": []})

    def test_no_variables(self):
        with pytest.raises(EmptyInput):
            P("1", 0)
        with pytest.raises(EmptyInput):
            HomoPoly.zero(0)

    def test_basis_ring_size_checked(self):
        with pytest.raises(EmptyInput):
            groebner_basis([], GREVLEX, num_vars=0)
        with pytest.raises(VariableBudgetExceeded):
            groebner_basis([], GREVLEX, num_vars=polyring.MAX_VARIABLES + 1)
        assert groebner_basis([], GREVLEX, num_vars=1).generators == ()


@given(
    num=st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
    den=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_rational_arithmetic_exact(num, den):
    x = Fraction(num, den)
    assert x * (1 / x) == 1
    assert rat_from_str(rat_to_str(x)) == x


class TestAsciiInt:
    """One reader for every integer of the CLI and of JSON input: an optional
    sign and ASCII digits; `int` alone takes underscores and Unicode digits."""

    @given(st.from_regex(r" ?[+-]?[0-9]{1,30} ?", fullmatch=True))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_sign_and_ascii_digits_read_as_int_does(self, text):
        assert ascii_int(text) == int(text)

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "1\u0663", "\uff11", "", "-", "+-1",
                                      "1 0", "0x10", "1.0", "\u00b2"])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(ValueError):
            ascii_int(text)

    @pytest.mark.parametrize("text", ["1_0/\u0663", "\u0663", "1/1_0", "1_0"])
    def test_rational_refuses_them(self, text):
        with pytest.raises(PolySyntaxError):
            rat_from_str(text)

    @pytest.mark.parametrize("value", ["\u0663", "1_0", " \u0661\u0660"])
    def test_json_integer_refuses_them(self, value):
        with pytest.raises(DomainError, match="must be an integer"):
            int_from_json(value, "ambient")

    def test_json_integer_reads_as_before(self):
        assert [int_from_json(x, "n") for x in (7, -3, "12", " -4 ", "+5")] == [7, -3, 12, -4, 5]


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
            p * c, p * HomoPoly(nvars, {shift: c}), p * HomoPoly(nvars, {shift: 0}),
            p.content_free(),
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


@given(arithmetic_results(), st.data())
@settings(max_examples=150, deadline=None)
def test_primitive_form_matches_the_oracle(results, data):
    for r in results:
        num, den, free, _ = r._primitive_form()
        assert num > 0 and den > 0 and gcd(num, den) == 1
        content = Fraction(num, den)
        m = r.content_free()
        assert r.content_free() is m and m is (r if free is None else free)
        assert (m is r) == (content == 1)
        assert m == content_free(r) and r == m.scale(content)
        assert all(c.denominator == 1 for c in m.terms.values())
        assert gcd(*(c.numerator for c in m.terms.values())) == (1 if m.terms else 0)
        point = data.draw(st.lists(st.integers(-9, 9), min_size=r.nvars, max_size=r.nvars))
        value = oracles.evaluate(r, point)
        assert r.evaluate(point) == value
        assert r.integer_value(point) * content == value
        assert m.integer_value(point) == r.integer_value(point)


def test_content_free_keeps_the_signs():
    p = P("-2*x0 + 4*x1", 2)
    assert p.content_free() == P("-1*x0 + 2*x1", 2) == content_free(p)
    assert p.integer_value((1, 1)) == 1 and p.evaluate((1, 1)) == 2
    primitive = P("-1*x0 + 2*x1", 2)
    assert primitive.content_free() is primitive


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

    @pytest.mark.parametrize("obj, message", [
        ({"vars": 3.7, "terms": [{"exp": [1.9, 0, 0.5], "coef": "1/1"}]}, "vars must be an integer, got 3.7"),
        ({"vars": True, "terms": [{"exp": [1], "coef": "1/1"}]}, "vars must be an integer, got True"),
        ({"vars": 3, "terms": [{"exp": [1.0, 0, 0], "coef": "1/1"}]}, "exponent must be an integer, got 1.0"),
        ({"vars": 2, "terms": [{"exp": [False, True], "coef": "1/1"}]}, "exponent must be an integer, got False"),
    ])
    def test_float_or_bool_refused(self, obj, message):
        with pytest.raises(PolySyntaxError, match=message):
            poly_from_json(obj)

    def test_integer_strings_accepted(self):
        obj = {"vars": "2", "terms": [{"exp": ["1", 0], "coef": "1/1"}]}
        assert poly_from_json(obj) == P("x0", 2)

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(PolySyntaxError):
            poly_from_json({"vars": 2, "terms": [
                {"exp": [1, 0], "coef": "1/1"},
                {"exp": [1, 0], "coef": "2/1"},
            ]})
