"""Places, heights, Weil functions, and the margin pipeline."""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from hyperpos.errors import DomainError
import hyperpos.heights as heights
import hyperpos.replace as replace
from hyperpos.heights import (
    INFINITE,
    MAX_PRIME_TEST,
    FactorBudgetExceeded,
    LOG_ONE,
    LogRational,
    MarginReport,
    Place,
    PointNotOnVariety,
    PointOnHypersurface,
    SAMPLE_COUNTS,
    RationalPoint,
    SampleBudgetExceeded,
    ZeroInput,
    default_places,
    height_point,
    height_poly,
    height_scalar,
    normalized_abs,
    product_formula_check,
    sample_points,
    summarize_margins,
    theorem15_margin,
    weil_function,
    weil_support,
)
from hyperpos.polyring import DegreeBudgetExceeded, ZeroPolynomial, HomoPoly, parse_poly
from hyperpos.position import build_family, build_variety
from hyperpos.replace import MAX_POWER_BITS, PowerBudgetExceeded


@pytest.fixture(scope="module")
def p1():
    return build_variety([], num_vars=2)


@pytest.fixture(scope="module")
def fam3(p1):
    return build_family(p1, [parse_poly(s, 2) for s in ("x0", "x1", "x0 + x1")])


class TestPlaces:
    def test_finite_requires_prime(self):
        for bad in (0, 1, 4, 9, -3):
            with pytest.raises(DomainError):
                Place.finite(bad)

    def test_equality(self):
        assert Place.finite(5) == Place.finite(5)
        assert Place.finite(5) != INFINITE
        assert len({INFINITE, Place.finite(2), Place.finite(2)}) == 2

    def test_default_set(self):
        places = default_places()
        assert places[0] is INFINITE
        assert [p.prime for p in places[1:]] == [2, 3, 5, 7, 11, 13]


class TestNormalizedAbs:
    def test_six_at_two(self):
        assert normalized_abs(6, Place.finite(2)) == F(1, 2)

    def test_unit_everywhere(self):
        for v in (INFINITE, Place.finite(2), Place.finite(7)):
            assert normalized_abs(1, v) == 1
            assert normalized_abs(-1, v) == 1

    def test_archimedean(self):
        assert normalized_abs(F(-3, 4), INFINITE) == F(3, 4)

    def test_denominator_blows_up(self):
        assert normalized_abs(F(1, 8), Place.finite(2)) == 8

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            normalized_abs(0, INFINITE)


def trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


# the least composites that pass Miller-Rabin to the first 1, 4, 9 and 12 prime
# bases; the 13 bases up to 41 settle every n below PSI_13, the least composite
# that passes them all
STRONG_PSEUDOPRIMES = (2047, 3215031751, 3825123056546413051, 318665857834031151167461)
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


class TestPrimes:
    def test_small_range_matches_trial_division(self):
        assert [n for n in range(-5, 5000) if heights._is_prime(n)] == \
            [n for n in range(-5, 5000) if trial_is_prime(n)]

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + (561, 1105, 41 * 43, 43 * 43))
    def test_pseudoprimes_are_composite(self, n):
        assert not heights._is_prime(n)

    @pytest.mark.parametrize("n", (43, 1000003, 10 ** 9 + 7, 10 ** 18 + 3, 2 ** 61 - 1))
    def test_primes(self, n):
        assert heights._is_prime(n)

    def test_limit_is_where_the_test_stops_being_exact(self, monkeypatch):
        assert PSI_13 == MAX_PRIME_TEST + 1 == 1287836182261 * 2575672364521
        with pytest.raises(FactorBudgetExceeded):
            heights._is_prime(PSI_13)
        # one past the limit the test would call a composite prime
        monkeypatch.setattr(heights, "MAX_PRIME_TEST", PSI_13)
        assert heights._is_prime(PSI_13)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 8), st.integers(1, 10 ** 8), st.integers(1, 3))
    def test_factors_against_sympy(self, a, b, k):
        """With trial division up to 1000, the part of n made of larger primes
        must be 1 or a prime, or n is refused."""
        sympy = pytest.importorskip("sympy")
        n = a ** k * b
        factors = sympy.factorint(n)
        large = math.prod(p ** e for p, e in factors.items() if p > 1000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heights, "MAX_TRIAL_DIVISOR", 1000)
            if large > 1 and not sympy.isprime(large):
                with pytest.raises(FactorBudgetExceeded):
                    heights._prime_factors(n)
            else:
                assert heights._prime_factors(n) == sorted(factors)

    def test_cofactor_past_the_trial_budget(self, monkeypatch):
        monkeypatch.setattr(heights, "MAX_TRIAL_DIVISOR", 100)
        assert heights._prime_factors(8 * 10007) == [2, 10007]
        assert heights._prime_factors(-(3 ** 4) * 101) == [3, 101]
        assert heights._prime_factors(10 ** 18 + 3) == [10 ** 18 + 3]
        for composite in (101 * 103, 101 ** 2, 7 * 101 * 103):
            with pytest.raises(FactorBudgetExceeded, match="no prime factor up to 100"):
                heights._prime_factors(composite)

    def test_large_primes_skip_trial_division(self):
        # trial division alone spends about 0.06 s on each 40-bit prime
        primes = [p for p in range(2 ** 40 - 600, 2 ** 40) if heights._is_prime(p)]
        assert len(primes) >= 10
        start = time.perf_counter()
        for p in primes:
            assert heights._prime_factors(p) == [p]
            assert heights._prime_factors(-1009 * p) == [1009, p]
        assert time.perf_counter() - start < 0.5

    def test_prime_test_leaves_other_numbers_to_trial_division(self):
        # past MAX_PRIME_TEST the test would refuse; small factors still split
        assert heights._prime_factors(2 ** 100) == [2]
        assert heights._prime_factors(43 ** 20) == [43]
        assert heights._prime_factors(3 ** 50 * 10007) == [3, 10007]
        assert heights._prime_factors(2 ** 5 * (2 ** 61 - 1)) == [2, 2 ** 61 - 1]
        with pytest.raises(FactorBudgetExceeded, match="past"):
            heights._prime_factors(2 ** 89 - 1)

    def test_semiprime_past_the_real_budget(self):
        with pytest.raises(FactorBudgetExceeded):
            heights._prime_factors((10 ** 9 + 7) * (10 ** 9 + 9))

    def test_place_needs_a_settled_prime(self):
        assert Place.finite(10 ** 18 + 3).prime == 10 ** 18 + 3
        with pytest.raises(DomainError, match="need a prime"):
            Place.finite(318665857834031151167461)
        with pytest.raises(FactorBudgetExceeded):
            Place.finite(2 ** 89 - 1)


class TestProductFormula:
    def test_six(self):
        res = product_formula_check(6)
        assert res.ok and res.product == 1
        assert [p.prime for p in res.places] == [None, 2, 3]

    def test_negative_fraction(self):
        res = product_formula_check(F(-20, 9))
        assert res.ok
        assert [p.prime for p in res.places] == [None, 2, 3, 5]

    def test_unit(self):
        assert product_formula_check(1).places == (INFINITE,)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            product_formula_check(F(0))

    def test_seeded_batch(self):
        rng = random.Random(20240817)
        for _ in range(300):
            x = F(rng.randint(-9999, 9999) or 1, rng.randint(1, 9999))
            assert product_formula_check(x).product == 1

    @given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9))
    def test_always_one(self, a, b):
        if a == 0:
            a = 1
        assert product_formula_check(F(a, b)).product == 1


class TestRationalPoint:
    def test_canonicalization(self):
        assert RationalPoint((2, 4, 6)).coords == (1, 2, 3)

    def test_sign_normalization(self):
        assert RationalPoint((-1, 2)).coords == (1, -2)
        assert RationalPoint((0, -2)).coords == (0, 1)

    def test_integral_fractions_accepted(self):
        assert RationalPoint((F(4, 2), 3)).coords == (2, 3)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            RationalPoint((F(1, 2), 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            RationalPoint((0, 0, 0))

    def test_equality_and_repr(self):
        assert RationalPoint((3, 6)) == RationalPoint((1, 2))
        assert repr(RationalPoint((1, 2, 3))) == "(1:2:3)"


class TestLogRational:
    def test_render(self):
        assert float(LOG_ONE) == 0.0
        assert float(LogRational(8)) == pytest.approx(math.log(8), abs=1e-14)

    def test_addition_multiplies_arguments(self):
        assert (LogRational(6) + LogRational(10)).argument == 60
        assert (LogRational(6) - LogRational(2)).argument == 3

    def test_cross_root_equality(self):
        assert LogRational(4) == LogRational(16, 2)
        assert LogRational(2) < LogRational(9, 2)

    def test_scale(self):
        assert LogRational(3).scale(F(5, 2)) == LogRational(243, 2)
        assert LogRational(7).scale(0) == LOG_ONE

    def test_rejects_bad_argument(self):
        with pytest.raises(DomainError):
            LogRational(0)
        with pytest.raises(DomainError):
            LogRational(-2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            LogRational(2).argument = F(3)

    def test_hash_agrees_with_cross_root_equality(self):
        assert len({LogRational(4, 2), LogRational(2)}) == 1
        assert hash(LogRational(4, 2)) == hash(LogRational(2))
        assert hash(LogRational(8, 3)) == hash(LogRational(2))
        assert hash(LogRational(1, 5)) == hash(LOG_ONE)
        assert LogRational(1, 5) == LOG_ONE
        assert len({LogRational(F(9, 4), 2), LogRational(F(3, 2)), LogRational(F(27, 8), 3)}) == 1
        # equal arguments under different roots are different values
        assert len({LogRational(4, 2), LogRational(4), LogRational(2, 2)}) == 3

    ARGS = (1, 2, 3, 4, 7, 8, 9, 1000, 1024, F(1, 2), F(3, 2), F(4, 7), F(27, 8),
            F(16, 31), F(2, 1025))  # some near each end of their bit-length window

    def test_comparison_equals_the_lifted_arguments(self):
        # log(a)/r against log(b)/s is a^(l/r) against b^(l/s), l = lcm(r, s)
        values = [LogRational(a, r) for a in self.ARGS for r in (1, 2, 3, 5, 10, 77)]
        for x, y in product(values, repeat=2):
            lift = math.lcm(x.root, y.root)
            a, b = x.argument ** (lift // x.root), y.argument ** (lift // y.root)
            assert (x < y, x <= y, x == y) == (a < b, a <= b, a == b), (x, y)

    def test_logarithms_order_as_the_lifted_arguments(self, monkeypatch):
        # with no power budget every pair is compared by logarithms
        monkeypatch.setattr(replace, "MAX_POWER_BITS", 0)
        values = [LogRational(a, r) for a in self.ARGS for r in (1, 2, 5, 77)]
        for x, y in product(values, repeat=2):
            lift = math.lcm(x.root, y.root)
            a, b = x.argument ** (lift // x.root), y.argument ** (lift // y.root)
            assert x._compare(y) == (a > b) - (a < b), (x, y)

    def test_lifts_past_the_budget_compare_by_logarithms(self):
        assert LogRational(2, 10 ** 9 + 7) < LogRational(8)
        assert not LogRational(8) <= LogRational(2, 10 ** 9 + 7)
        assert LogRational(F(1, 8), 10 ** 9) < LogRational(8, 10 ** 9 + 1)
        assert LogRational(3, 10 ** 9 + 1) < LogRational(3, 10 ** 9)
        # log 2 both: equal, though no precision of the logarithms shows it
        assert LogRational(2 ** 100019, 100019) == LogRational(2 ** 100003, 100003)
        assert LogRational(2 ** 100019, 100019) <= LogRational(2 ** 100003, 100003)
        # one bit of width apart, and a lift to 270001 bits: within 1/20 of
        # each other, and settled as the lifted arguments are
        a = 10 ** 20
        x, y = LogRational(F(3 * (a + 1) ** 2, a * (2 * a + 3))), LogRational(a + 1, 2000)
        assert (x.argument ** 2000 < y.argument) == (x < y) is False
        assert x != y and y < x
        # a^m one part in 10^30 either side of b^k, lifts past the budget
        above = LogRational(F(7 ** 100003 * (10 ** 30 + 1), 10 ** 30), 100003 * 3)
        below = LogRational(F(7 ** 100003 * (10 ** 30 - 1), 10 ** 30), 100003 * 3)
        assert below < LogRational(7, 3) < above
        assert not above <= LogRational(7, 3) and not LogRational(7, 3) <= below

    def test_huge_power_refused_before_it_is_formed(self):
        # the bound on the bits of 3^e is 2e + 1, past 16 * MAX_POWER_BITS from e = 114272 on
        limit = (16 * MAX_POWER_BITS - 1) // 2
        assert LogRational(3).scale(limit).argument == 3 ** limit
        with pytest.raises(PowerBudgetExceeded):
            LogRational(3).scale(limit + 1)
        with pytest.raises(PowerBudgetExceeded):
            LogRational(2).scale(F(10 ** 9 + 11, 2))


@given(num=st.integers(1, 50), den=st.integers(1, 50), root=st.integers(1, 6),
       power=st.integers(1, 6))
def test_log_hash_ignores_the_chosen_root(num, den, root, power):
    x = LogRational(F(num, den), root)
    y = LogRational(F(num, den) ** power, root * power)
    assert x == y and hash(x) == hash(y)


class TestHeights:
    def test_point_examples(self):
        assert height_point(RationalPoint((1, 2, 3))) == LogRational(3)
        assert height_point(RationalPoint((0, 1))) == LOG_ONE
        assert height_point(RationalPoint((2, 4, 6))) == LogRational(3)

    def test_rescaling_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            coords = [rng.randint(-9, 9) for _ in range(3)]
            if all(c == 0 for c in coords):
                coords[0] = 1
            lam = rng.choice((2, 3, -5))
            a = height_point(RationalPoint(coords))
            b = height_point(RationalPoint([lam * c for c in coords]))
            assert a == b

    def test_zero_height_classification(self):
        assert height_point(RationalPoint((1, -1, 0))) == LOG_ONE
        assert height_point(RationalPoint((1, 1, 1))) == LOG_ONE
        assert height_point(RationalPoint((1, 2))) > LOG_ONE

    def test_scalar_log_plus(self):
        assert height_scalar(F(3, 2)) == LogRational(3)
        assert height_scalar(F(-1, 5)) == LogRational(5)
        assert height_scalar(1) == LOG_ONE
        assert height_scalar(7) == LogRational(7)
        with pytest.raises(ZeroInput):
            height_scalar(0)

    def test_poly_examples(self):
        assert height_poly(parse_poly("x0", 2)) == LOG_ONE
        assert height_poly(parse_poly("2*x0 + 3*x1", 2)) == LogRational(3)
        assert height_poly(parse_poly("1/2*x0 + x1", 2)) == LogRational(2)

    def test_poly_scaling_invariance(self):
        q = parse_poly("3*x0^2 - 5*x1^2", 2)
        for lam in (F(3), F(1, 2), F(-7, 6)):
            assert height_poly(q.scale(lam)) == height_poly(q)

    def test_poly_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            height_poly(HomoPoly.zero(2))


class TestWeilFunction:
    def test_archimedean_example(self):
        q = parse_poly("x0", 2)
        assert weil_function(q, RationalPoint((1, 2)), INFINITE) == LogRational(2)

    def test_finite_example(self):
        q = parse_poly("x0", 2)
        assert weil_function(q, RationalPoint((1, 2)), Place.finite(2)) == LOG_ONE

    def test_point_on_hypersurface(self):
        with pytest.raises(PointOnHypersurface):
            weil_function(parse_poly("x1", 2), RationalPoint((1, 0)), INFINITE)

    @pytest.mark.parametrize("coords", [(1, 2), (3, 5), (2, -7), (9, 4)])
    @pytest.mark.parametrize("qtext", ["x0", "x0 + x1", "3*x0^2 - 5*x1^2", "1/2*x0^2 + x1^2"])
    def test_finite_nonnegative(self, qtext, coords):
        q = parse_poly(qtext, 2)
        x = RationalPoint(coords)
        for p in (2, 3, 5, 7):
            assert weil_function(q, x, Place.finite(p)) >= LOG_ONE

    @pytest.mark.parametrize("coords", [(1, 2), (3, 5), (2, -7), (1, -1)])
    @pytest.mark.parametrize("qtext", ["x0", "2*x0 + 3*x1", "3*x0^2 - 5*x1^2"])
    def test_full_place_identity(self, qtext, coords):
        q = parse_poly(qtext, 2)
        x = RationalPoint(coords)
        total = LOG_ONE
        for v in weil_support(q, x):
            total = total + weil_function(q, x, v)
        assert total == height_point(x).scale(q.degree) + height_poly(q)

    def test_outside_support_vanishes(self):
        q = parse_poly("2*x0 + 3*x1", 2)
        x = RationalPoint((1, 1))
        support = weil_support(q, x)
        assert Place.finite(7) not in support
        assert weil_function(q, x, Place.finite(7)) == LOG_ONE


class TestMargin:
    def test_frozen_point(self, p1, fam3):
        reports = theorem15_margin(p1, fam3, 1, F(1, 2), None, [RationalPoint((2, 3))])
        rep = reports[0]
        assert rep.lhs == LogRational(27)
        assert rep.rhs == LogRational(243, 2)
        assert rep.slack == pytest.approx(-math.log(3) / 2, abs=1e-12)

    def test_slack_closed_form(self, p1, fam3):
        # 13-smooth member values give slack = -h/2; a 17 adds its outside-S mass
        reports = theorem15_margin(
            p1, fam3, 1, F(1, 2), None,
            [RationalPoint((17, 1)), RationalPoint((27, 5))])
        assert reports[0].slack == pytest.approx(math.log(17) / 2, abs=1e-12)
        assert reports[1].slack == pytest.approx(-math.log(27) / 2, abs=1e-12)

    def test_summary_flags_negative(self, p1, fam3):
        pts = [RationalPoint((2, 3)), RationalPoint((17, 1))]
        summary = summarize_margins(theorem15_margin(p1, fam3, 1, F(1, 2), None, pts))
        assert summary.min_slack == pytest.approx(-math.log(3) / 2, abs=1e-12)
        assert summary.negative_points == (RationalPoint((2, 3)),)

    def test_summary_sign_is_exact(self):
        # log(10^60) - log(10^60 + 1) is about -1e-60: zero as a float
        below, tie = RationalPoint((1, 2)), RationalPoint((1, 3))
        lhs, rhs = LogRational(10 ** 60 + 1), LogRational(10 ** 60)
        slack = float(rhs.value() - lhs.value())
        assert slack == 0.0
        reports = [MarginReport(below, lhs, rhs, slack),
                   MarginReport(tie, LogRational(4, 2), LogRational(2), 0.0)]
        assert summarize_margins(reports).negative_points == (below,)

    def test_empty_summary(self):
        summary = summarize_margins([])
        assert summary.min_slack is None and summary.negative_points == ()

    def test_point_on_member_named(self, p1):
        fam = build_family(p1, [parse_poly("x0", 2), parse_poly("x0 - x1", 2)])
        with pytest.raises(PointOnHypersurface, match="member 2"):
            theorem15_margin(p1, fam, 1, 1, None, [RationalPoint((1, 1))])

    def test_point_not_on_variety(self):
        conic = build_variety([parse_poly("x0*x2 - x1^2", 3)])
        fam = build_family(conic, [parse_poly("x0", 3), parse_poly("x2", 3)])
        with pytest.raises(PointNotOnVariety):
            theorem15_margin(conic, fam, 1, 1, None, [RationalPoint((1, 1, 2))])

    def test_single_member_band(self, p1):
        fam = build_family(p1, [parse_poly("x0", 2)])
        pts = [x for x in sample_points(p1, 40)
               if x.coords[0] != 0 and height_point(x) >= LogRational(2)]
        reports = theorem15_margin(p1, fam, 1, 3, None, pts)
        assert pts and all(r.slack > 0 for r in reports)

    def test_rejects_bad_eps(self, p1, fam3):
        with pytest.raises(DomainError):
            theorem15_margin(p1, fam3, 1, 0, None, [])

    def test_rejects_duplicate_places(self, p1, fam3):
        with pytest.raises(DomainError):
            theorem15_margin(p1, fam3, 1, 1, (INFINITE, INFINITE), [])

    def test_rejects_wrong_ambient(self, p1, fam3):
        with pytest.raises(DomainError):
            theorem15_margin(p1, fam3, 1, 1, None, [RationalPoint((1, 1, 1))])

    def test_lcm_within_the_degree_budget(self, p1):
        # as `polyring.lcm_degree`, an lcm of 1000 is taken and one of 1001 refused
        fam = build_family(p1, [parse_poly(f"x0^{d} + x1^{d}", 2) for d in (8, 125)])
        assert fam.lcm_d == 1000
        assert theorem15_margin(p1, fam, 1, 1, None, [RationalPoint((1, 1))])[0].lhs == LOG_ONE
        fam = build_family(p1, [parse_poly(f"x0^{d} + x1^{d}", 2) for d in (7, 11, 13)])
        with pytest.raises(DegreeBudgetExceeded, match="lcm of the degrees 1001"):
            theorem15_margin(p1, fam, 1, 1, None, [RationalPoint((1, 1))])

    def test_reports_keep_input_order(self, p1, fam3):
        pts = [RationalPoint((5, 2)), RationalPoint((2, 5)), RationalPoint((3, 4))]
        reports = theorem15_margin(p1, fam3, 1, F(1, 2), None, pts)
        assert [r.point for r in reports] == pts


def weil_product(fam, x, places):
    """lhs of the margin as the product of weil_function over places and members."""
    arg = F(1)
    for place in places:
        for member, d in zip(fam.members, fam.degrees):
            arg *= weil_function(member, x, place).argument ** (fam.lcm_d // d)
    return arg


# degrees 1, 2, 1, 3 (lift 6); |2|_2 = 1/2, |6|_3 = 1/3 and |1/2|_2 = 2 make
# coefficient norms other than 1 at 2 and 3
MIXED = ("2*x0", "3*x1^2 - 4*x0*x2", "6*x0 + 9*x2", "1/2*x0^3 + x1^3 - 5*x2^3")


def _margin_cases():
    p2 = build_variety([], num_vars=3)
    conic = build_variety([parse_poly("x0*x2 - x1^2", 3)])
    return [
        # acceptance criterion 9: q = n + 2 monic linear forms
        ("P1", build_variety([], num_vars=2), ("x0", "x1", "x0 + x1"), None),
        ("P2", p2, ("x0", "x1", "x2", "x0 + x1 + x2"), None),
        ("mixed", p2, MIXED, None),
        ("conic", conic, ("x0", "x2", "2*x0 + 3*x1 - x2"), None),
        ("places", p2, MIXED, (Place.finite(2), INFINITE, Place.finite(7))),
    ]


class TestMarginAgainstWeil:
    """Each lhs is the product of the Weil functions it stands for."""

    @pytest.mark.parametrize("name,v,texts,places", _margin_cases(),
                             ids=lambda x: x if isinstance(x, str) else None)
    def test_lhs_is_weil_product(self, name, v, texts, places):
        fam = build_family(v, [parse_poly(t, v.num_vars) for t in texts])
        points = [x for x in sample_points(v, 40)
                  if all(m.evaluate(x.coords) != 0 for m in fam.members)]
        reports = theorem15_margin(v, fam, 1, F(1, 2), places, points)
        used = default_places() if places is None else places
        assert len(reports) == len(points) > 5
        for rep, x in zip(reports, points):
            assert rep.point == x
            assert rep.lhs.root == fam.lcm_d
            assert rep.lhs.argument == weil_product(fam, x, used), x

    def test_mixed_family_exercises_the_factors(self):
        fam = build_family(build_variety([], num_vars=3), [parse_poly(t, 3) for t in MIXED])
        assert fam.lcm_d == 6
        two, three = Place.finite(2), Place.finite(3)
        assert heights._poly_norm(fam.members[0], two) == F(1, 2)
        assert heights._poly_norm(fam.members[2], three) == F(1, 3)
        assert heights._poly_norm(fam.members[3], two) == 2


# Small primes of S divide the member values of points with small coordinates.
ORACLE_PLACES = (INFINITE,) + tuple(Place.finite(p) for p in (2, 3, 5, 7, 11))
ORACLE_VARIETIES = {"P1": build_variety([], num_vars=2), "P2": build_variety([], num_vars=3),
                    "conic": build_variety([parse_poly("x0*x2 - x1^2", 3)])}


class TestSNorm:
    """The one-pass product over S against the product of per-place values."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 6) | st.integers(-10 ** 6, 10 ** 6).filter(bool),
           st.lists(st.sampled_from((2, 3, 5, 7, 11)), max_size=6),
           st.lists(st.sampled_from((2, 3, 5, 7, 11)), max_size=6),
           st.permutations(ORACLE_PLACES),
           st.integers(0, 6))
    @example(1, [2, 2, 3], [5], ORACLE_PLACES, 6)
    @example(-7, [], [2, 2, 2, 11], ORACLE_PLACES[1:] + ORACLE_PLACES[:1], 4)
    def test_product_of_places(self, unit, up, down, order, k):
        x = F(unit * math.prod(up), math.prod(down))
        places = order[:k]
        expected = math.prod((oracles.normalized_abs(x, v) for v in places), start=F(1))
        assert heights._s_norm(x, places) == expected
        for v in places:
            assert normalized_abs(x, v) == oracles.normalized_abs(x, v)


def oracle_case(name, members, coords, places, delta=1, eps=F(1, 2)):
    """theorem15_margin's arguments, keeping only the points off every member."""
    v = ORACLE_VARIETIES[name]
    fam = build_family(v, members)
    points = [RationalPoint(c) for c in coords
              if any(c) and all(m.evaluate(c) != 0 for m in members)]
    return v, fam, F(delta), F(eps), places, points


def _monomials(nvars, degree):
    return [tuple(combo.count(i) for i in range(nvars))
            for combo in combinations_with_replacement(range(nvars), degree)]


@st.composite
def oracle_cases(draw):
    """Non-monic members with rational coefficients and degrees 1 to 3, points
    with coordinates up to 12 (or conic points (a^2:ab:b^2)), and places S
    drawn from oo, 2, 3, 5, 7, 11, with or without oo, or the default set."""
    name = draw(st.sampled_from(sorted(ORACLE_VARIETIES)))
    nvars = ORACLE_VARIETIES[name].num_vars
    coefficient = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 30))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        monos = draw(st.lists(st.sampled_from(_monomials(nvars, draw(st.integers(1, 3)))),
                              min_size=1, max_size=3, unique=True))
        members.append(HomoPoly(nvars, {m: draw(coefficient) for m in monos}))
    if name == "conic":
        # build_family refuses a member that vanishes on the conic, as at (4:2:1)
        assume(all(m.evaluate((4, 2, 1)) != 0 for m in members))
        ab = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda t: math.gcd(*t) == 1)
        coords = [(a * a, a * b, b * b) for a, b in draw(st.lists(ab, min_size=1, max_size=6))]
    else:
        coords = draw(st.lists(st.tuples(*[st.integers(-12, 12)] * nvars), min_size=1, max_size=6))
    places = draw(st.none() | st.permutations(ORACLE_PLACES).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda k: tuple(order[:k]))))
    delta = draw(st.fractions(0, 3, max_denominator=6))
    eps = draw(st.fractions(F(1, 10), 2, max_denominator=10))
    case = oracle_case(name, members, coords, places, delta, eps)
    assume(case[-1])
    return case


# MIXED has |Q_j|_v != 1 at 2 and 3; the points' member values carry 2, 3 and 5
MIXED_POINTS = [(2, 3, 1), (4, 1, 3), (6, 5, 2), (1, 10, 9)]


class TestMarginAgainstOracle:
    """The margin and the Weil function read |x|_v off the coprime coordinates;
    the oracles take max_i |x_i|_v at every place."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(oracle_cases())
    @example(oracle_case("P2", [parse_poly(t, 3) for t in MIXED], MIXED_POINTS,
                         (Place.finite(3), Place.finite(2))))
    @example(oracle_case("P2", [parse_poly(t, 3) for t in MIXED], MIXED_POINTS,
                         (Place.finite(5), INFINITE, Place.finite(2))))
    def test_margin(self, case):
        def rows(reports):
            return [(r.point, r.lhs.argument, r.lhs.root, r.rhs.argument, r.rhs.root, r.slack)
                    for r in reports]

        assert rows(theorem15_margin(*case)) == rows(oracles.theorem15_margin(*case))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(oracle_cases())
    @example(oracle_case("P2", [parse_poly(t, 3) for t in MIXED], MIXED_POINTS, None))
    def test_weil_function(self, case):
        _, fam, _, _, _, points = case
        for member, x, place in product(fam.members, points, default_places()):
            new, old = weil_function(member, x, place), oracles.weil_function(member, x, place)
            assert (new.argument, new.root) == (old.argument, old.root), (member, x, place)


# P^1 and P^2 families with rational coefficients
MEMO_FAMILIES = {"P1": ("1/2*x0 + 3*x1", "x1", "2/3*x0 - 5/4*x1"),
                 "P2": ("x0", "3/2*x1 + x2", "x2", "x0 + 1/6*x1 - x2")}
MEMO_PLACES = {"default": None, "none": (),
               "primes": (Place.finite(2), Place.finite(3), Place.finite(5)),
               "oo-3-7": (Place.finite(3), INFINITE, Place.finite(7))}


def memo_case(name, count):
    v = ORACLE_VARIETIES[name]
    members = [parse_poly(t, v.num_vars) for t in MEMO_FAMILIES[name]]
    points = [x for x in sample_points(v, count) if all(m.evaluate(x.coords) for m in members)]
    return v, build_family(v, members), points


class TestLogMemo:
    """The margin takes each logarithm once per call; the oracle takes both of
    every value afresh."""

    @pytest.mark.parametrize("places", sorted(MEMO_PLACES))
    @pytest.mark.parametrize("name", sorted(MEMO_FAMILIES))
    def test_slack_equals_unmemoized(self, name, places):
        v, fam, points = memo_case(name, 80)
        reports = theorem15_margin(v, fam, 1, F(1, 2), MEMO_PLACES[places], points)
        assert len(reports) == len(points) > 40
        for r in reports:
            assert r.slack == float(oracles.log_value(r.rhs) - oracles.log_value(r.lhs)), r.point

    def test_one_logarithm_per_integer(self, monkeypatch):
        taken = Counter()

        class CountingDecimal(heights.Decimal):
            def ln(self, context=None):
                taken[int(self)] += 1
                return super().ln(context)

        monkeypatch.setattr(heights, "Decimal", CountingDecimal)
        v, fam, points = memo_case("P1", 120)
        reports = theorem15_margin(v, fam, 1, F(1, 2), None, points)
        integers = {n for r in reports for lr in (r.lhs, r.rhs)
                    for n in (lr.argument.numerator, lr.argument.denominator)}
        assert taken == Counter(integers)
        # four logarithms per point without the memo
        assert len(integers) < 2 * len(points)

    def test_memo_is_keyed_by_precision(self):
        logs = {}
        x = LogRational(F(10, 3), 2)
        assert x.value(10, logs) == oracles.log_value(x, 10)
        assert x.value(40, logs) == oracles.log_value(x, 40)
        assert sorted(logs) == [(3, 20), (3, 50), (10, 20), (10, 50)]


class TestSamplePoints:
    def test_p1_prefix(self, p1):
        pts = sample_points(p1, 8)
        assert [p.coords for p in pts] == [
            (0, 1), (1, -1), (1, 0), (1, 1), (1, -2), (1, 2), (2, -1), (2, 1)]

    def test_on_conic(self):
        conic = build_variety([parse_poly("x0*x2 - x1^2", 3)])
        pts = sample_points(conic, 12)
        assert len(pts) == 12
        for x in pts:
            assert x.coords[0] * x.coords[2] == x.coords[1] ** 2
            assert math.gcd(*x.coords) == 1

    def test_pointless_conic_exhausts(self):
        v = build_variety([parse_poly("x0^2 + x1^2 + x2^2", 3)])
        with pytest.raises(DomainError, match="only 0 points found within max-norm 6"):
            sample_points(v, 1, max_shell=6)

    def test_rejects_bad_count(self, p1):
        with pytest.raises(DomainError):
            sample_points(p1, 0)


def cube_scan(v, count, max_shell=64):
    """Reference enumeration: every tuple of each shell's full cube, in order."""
    found = []
    for shell in range(1, max_shell + 1):
        for tup in product(range(-shell, shell + 1), repeat=v.num_vars):
            if max(abs(t) for t in tup) != shell:
                continue
            lead = next((t for t in tup if t != 0), 0)
            if lead < 0 or math.gcd(*tup) != 1:
                continue
            if any(g.evaluate(tup) != 0 for g in v.generators):
                continue
            found.append(tup)
            if len(found) == count:
                return found
    raise DomainError(f"only {len(found)} points found within max-norm {max_shell}")


def variety(texts, nvars):
    return build_variety([parse_poly(t, nvars) for t in texts], num_vars=nvars)


class TestSampleOracle:
    @pytest.mark.parametrize("texts, nvars, count", [
        ((), 2, 60),
        ((), 3, 60),
        (("x0*x2 - x1^2",), 3, 20),
        (("x0*x3 - x1*x2",), 4, 60),
        (("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"), 4, 6),
        (("x0^2 + x1^2 - x2^2",), 3, 20),
        # the reduced basis is x1^2 - 2/3*x0*x2: the pivot has a denominator
        (("2*x0*x2 - 3*x1^2",), 3, 12),
        # the pivot does not involve the last variable
        (("x0^2 - x1^2",), 3, 30),
        # y^2 z = x^3 - x z^2: 0 is a root of the pivot where x = 0
        (("x1^2*x2 - x0^3 + x0*x2^2",), 3, 4),
    ])
    def test_same_points_as_cube_scan(self, texts, nvars, count):
        v = variety(texts, nvars)
        assert [p.coords for p in sample_points(v, count)] == cube_scan(v, count)

    def test_counts_on_conic(self):
        SAMPLE_COUNTS.clear()
        sample_points(variety(["x0*x2 - x1^2"], 3), 12)
        # shells 1..8 solve 2s^2 + 2s + 1 prefixes each (488); the 12th point,
        # (4:6:9), is reached at the 83rd prefix of shell 9
        assert SAMPLE_COUNTS == {"prefixes": 571, "candidates": 12, "points": 12}


class TestSampleBudget:
    def test_shell_past_budget_is_refused(self, monkeypatch):
        # the conic's 12th point lies on shell 9; shells 1..9 cost 3^2 + ... + 19^2 = 1329
        v = variety(["x0*x2 - x1^2"], 3)
        monkeypatch.setattr(heights, "MAX_SAMPLE_PREFIXES", 1329)
        assert len(sample_points(v, 12)) == 12
        monkeypatch.setattr(heights, "MAX_SAMPLE_PREFIXES", 1328)
        with pytest.raises(SampleBudgetExceeded, match="shell 9"):
            sample_points(v, 12)

    def test_many_variables_refused_before_walking(self):
        # 20 variables: shell 1 alone has 3^19 prefixes, far past the budget
        v = variety([" + ".join(f"x{i}^2" for i in range(20))], 20)
        SAMPLE_COUNTS.clear()
        with pytest.raises(SampleBudgetExceeded, match="shell 1 "):
            sample_points(v, 1)
        assert not +SAMPLE_COUNTS
