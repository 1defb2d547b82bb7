"""Places, heights, Weil functions, and the margin pipeline."""

import gc
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
from hyperpos import groebner, polyring
from hyperpos.errors import DomainError
import hyperpos.heights as heights
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
from hyperpos.polyring import (MAX_POWER_BITS, DegreeBudgetExceeded, DimensionMismatch,
                               PowerBudgetExceeded, ZeroPolynomial, HomoPoly, parse_poly)
from hyperpos.position import build_family, build_variety


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

    def test_values_hashes_and_repr(self):
        assert hash(Place.finite(5)) == hash(Place.finite(5)) and Place() == INFINITE
        assert repr(INFINITE) == "Place(oo)" and repr(Place.finite(7)) == "Place(7)"
        with pytest.raises(DomainError, match="finite places need a prime, got 4"):
            Place.finite(4)
        with pytest.raises(AttributeError):
            INFINITE.prime = 2

    def test_default_set(self):
        places = default_places()
        assert places[0] is INFINITE
        assert [p.prime for p in places[1:]] == [2, 3, 5, 7, 11, 13]


def test_varieties_and_families_compare_by_identity():
    # the subset memo keys on the variety: equal generators make distinct varieties
    gens = [parse_poly("x0*x2 - x1^2", 3)]
    v, w = build_variety(gens), build_variety(gens)
    assert v != w and v == v and len({v, w}) == 2
    members = [parse_poly(t, 3) for t in ("x0", "x1")]
    assert build_family(v, members) != build_family(v, members)


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

    def test_hash_follows_equality(self):
        assert hash(RationalPoint((3, 6))) == hash(RationalPoint((-1, -2)))
        assert len({RationalPoint((3, 6)), RationalPoint((1, 2)), RationalPoint((2, 1))}) == 2
        assert RationalPoint((1, 2)) != (1, 2)

    def test_immutable(self):
        x = RationalPoint((1, 2))
        with pytest.raises(AttributeError):
            x.coords = (2, 4)
        with pytest.raises(AttributeError):
            del x.coords
        with pytest.raises(AttributeError):
            x.ambient = 3
        assert x.coords == (1, 2)


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
        for lr in (LogRational(2, 3), LogRational._trusted(F(2), 3)):
            with pytest.raises(AttributeError):
                lr.root = 1
            with pytest.raises(AttributeError):
                del lr.argument
            assert (lr.argument, lr.root) == (2, 3)

    def test_hash_agrees_with_cross_root_equality(self):
        assert len({LogRational(4, 2), LogRational(2)}) == 1
        assert hash(LogRational(4, 2)) == hash(LogRational(2))
        assert hash(LogRational(8, 3)) == hash(LogRational(2))
        assert hash(LogRational(1, 5)) == hash(LOG_ONE)
        assert LogRational(1, 5) == LOG_ONE
        assert len({LogRational(F(9, 4), 2), LogRational(F(3, 2)), LogRational(F(27, 8), 3)}) == 1
        # equal arguments under different roots are different values
        assert len({LogRational(4, 2), LogRational(4), LogRational(2, 2)}) == 3

    def test_hash_of_a_root_past_the_factoring_budget(self):
        # the root (10^9 + 7)(10^9 + 9) has no prime factor up to MAX_TRIAL_DIVISOR
        root = (10 ** 9 + 7) * (10 ** 9 + 9)
        assert hash(LogRational(2, root)) == hash(LogRational(4, 2 * root))
        assert hash(LogRational(F(8, 27), 3 * root)) == hash(LogRational(F(2, 3), root))
        assert hash(LogRational(1, root)) == hash(LOG_ONE)

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
        monkeypatch.setattr(polyring, "MAX_POWER_BITS", 0)
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


POSITIVE = (st.fractions(F(1, 1000), 1000, max_denominator=1000).filter(bool)
            | st.builds(F, st.integers(1, 2 ** 70), st.integers(1, 2 ** 70)))


@st.composite
def log_pairs(draw):
    """Two LogRationals with arguments above and below 1, often one value held
    two ways, log(c^p)/(r p) and log(c^q)/(r q)."""
    base = draw(POSITIVE)
    if draw(st.booleans()):
        r, p, q = (draw(st.integers(1, 6)) for _ in range(3))
        return LogRational(base ** p, r * p), LogRational(base ** q, r * q)
    return LogRational(base, draw(st.integers(1, 40))), LogRational(draw(POSITIVE), draw(st.integers(1, 40)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(log_pairs())
@example((LogRational(4, 2), LogRational(2)))
@example((LogRational(F(1, 4), 2), LogRational(F(1, 2))))
@example((LogRational(F(27, 8), 3), LogRational(F(9, 4), 2)))
@example((LogRational(F(1, 2), 3), LogRational(F(1, 3), 5)))
@example((LogRational(1, 7), LogRational(1)))
def test_comparison_against_the_lifted_oracle(pair):
    x, y = pair
    assert x._compare(y) == oracles.compare(x, y)
    assert y._compare(x) == oracles.compare(y, x)


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

    def test_poly_coefficients_are_not_factored(self):
        # 41 coefficients 1000003 * p, p a 40-bit prime: factoring each took 0.06 s
        primes = [p for p in range(2 ** 40 - 2000, 2 ** 40) if heights._is_prime(p)][-41:]
        assert len(primes) == 41
        q = HomoPoly(2, {(i, 40 - i): 1000003 * p for i, p in enumerate(primes)})
        start = time.perf_counter()
        h = height_poly(q)
        assert time.perf_counter() - start < 0.05
        assert (h.argument, h.root) == (max(primes), 1)


SMALL_PRIME_PRODUCTS = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)),
                                max_size=10).map(math.prod)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_height_poly_against_the_place_by_place_oracle(nvars, degree, data):
    """Coefficients made of small primes keep the oracle's factoring cheap."""
    coefficient = st.builds(lambda sign, num, den: sign * F(num, den), st.sampled_from((1, -1)),
                            SMALL_PRIME_PRODUCTS, SMALL_PRIME_PRODUCTS)
    monos = data.draw(st.lists(st.sampled_from(_monomials(nvars + 1, degree)),
                               min_size=1, max_size=6, unique=True))
    q = HomoPoly(nvars + 1, {m: data.draw(coefficient) for m in monos})
    new, old = height_poly(q), oracles.height_poly(q)
    assert (new.argument, new.root) == (old.argument, old.root), str(q)


class TestWeilFunction:
    def test_archimedean_example(self):
        q = parse_poly("x0", 2)
        assert weil_function(q, RationalPoint((1, 2)), INFINITE) == LogRational(2)

    def test_finite_example(self):
        q = parse_poly("x0", 2)
        assert weil_function(q, RationalPoint((1, 2)), Place.finite(2)) == LOG_ONE

    def test_point_of_another_ring(self):
        with pytest.raises(DimensionMismatch, match="point has 3 coordinates, ring has 2 variables"):
            weil_function(parse_poly("x0", 2), RationalPoint((1, 2, 3)), INFINITE)

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

    def test_support_reads_the_primitive_value_only(self):
        # 6*x0 + 12*x1 = 6·(x0 + 2*x1), and m(1, 1) = 3: the primes of 6 are not listed
        assert weil_support(parse_poly("6*x0 + 12*x1", 2), RationalPoint((1, 1))) == (
            INFINITE, Place.finite(3))

    def test_support_factors_no_coefficient(self):
        # the coefficient is (10^9 + 7)(10^9 + 9), past the factoring budget;
        # m(1, 1) = (10^9 + 8)^2 = 2^6 · 3^4 · 7^2 · 109^4 · 167^2
        q = parse_poly("1000000016000000063*x0 + x1", 2)
        x = RationalPoint((1, 1))
        support = weil_support(q, x)
        assert support == (INFINITE,) + tuple(Place.finite(p) for p in (2, 3, 7, 109, 167))
        total = LOG_ONE
        for v in support:
            total = total + weil_function(q, x, v)
        assert total == height_point(x).scale(q.degree) + height_poly(q)


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

    def test_refusals_in_order(self, p1, fam3):
        # the multiplier is 2 * delta + eps: -3/2 below, and with eps = 1/10000019
        # the rhs h^20000039 needs far more bits than the power budget for h > 1
        negative, huge = (-1, F(1, 2)), (1, F(1, 10000019))
        assert theorem15_margin(p1, fam3, *negative, None, []) == []
        assert theorem15_margin(p1, fam3, *huge, None, []) == []
        on_member, off = RationalPoint((1, -1)), RationalPoint((1, 2))
        for knobs in (negative, huge):
            with pytest.raises(PointOnHypersurface, match=r"^\(1:-1\) lies on family member 3$"):
                theorem15_margin(p1, fam3, *knobs, None, [on_member, off])
            with pytest.raises(DomainError, match="3 coordinates"):
                theorem15_margin(p1, fam3, *knobs, None, [RationalPoint((1, 0, 1)), off])
        with pytest.raises(DomainError, match=r"^scale factor must be non-negative, got -3/2$"):
            theorem15_margin(p1, fam3, *negative, None, [off, on_member])
        with pytest.raises(PowerBudgetExceeded, match="power 20000039"):
            theorem15_margin(p1, fam3, *huge, None, [off, on_member])
        # h = 1: every power of it is 1, and nothing is refused
        assert theorem15_margin(p1, fam3, *huge, None, [RationalPoint((1, 1))])[0].rhs == LOG_ONE

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
        assert oracles._poly_norm(fam.members[0], two) == F(1, 2)
        assert oracles._poly_norm(fam.members[2], three) == F(1, 3)
        assert oracles._poly_norm(fam.members[3], two) == 2


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


def margin_rows(reports):
    return [(r.point, r.lhs.argument, r.lhs.root, r.rhs.argument, r.rhs.root, r.slack)
            for r in reports]


# MIXED has |Q_j|_v != 1 at 2 and 3; the points' member values carry 2, 3 and 5
MIXED_POINTS = [(2, 3, 1), (4, 1, 3), (6, 5, 2), (1, 10, 9)]


def test_one_primitive_form_per_polynomial(monkeypatch):
    """The cache key, the packings over Z/p and over Q, and a margin all read
    each member's one primitive form: it is worked out once per object."""
    built = Counter()
    build = HomoPoly._primitive_form

    def counting(self):
        built[id(self)] += 1
        return build(self)

    monkeypatch.setattr(HomoPoly, "_primitive_form", counting)
    v = build_variety([], num_vars=3)
    fam = build_family(v, [parse_poly(t, 3) for t in MIXED])
    groebner.cache_key(fam.members, 3)
    for prime in (groebner.MODULUS, groebner.RATIONALS):
        for g in fam.members:
            groebner._member_terms(g, prime)
    points = [RationalPoint(c) for c in MIXED_POINTS]
    assert len(theorem15_margin(v, fam, 1, F(1, 2), None, points)) == len(points)
    assert built == Counter(id(g) for g in fam.members)


def test_memos_make_no_reference_cycle():
    """A polynomial whose memos are all filled is freed by reference counting
    alone: a primitive one does not hold itself as its own primitive form."""
    gc.collect()
    gc.disable()
    try:
        for text in ("x0^2 - x1*x2", "2*x0*x1 + 4*x2^2", "1/2*x0*x1 + x2^2"):
            q = parse_poly(text, 3)
            groebner.cache_key([q], 3)
            groebner._member_terms(q, groebner.MODULUS)
            assert q.integer_value((1, 2, 3)) != 0
            del q
        assert gc.collect() == 0
    finally:
        gc.enable()


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
        new, old = theorem15_margin(*case), oracles.theorem15_margin(*case)
        assert margin_rows(new) == margin_rows(old)
        assert summarize_margins(new).negative_points == oracles.negative_points(old)

    @pytest.mark.parametrize("name, count", [("P1", 420), ("P2", 300)])
    def test_bench_inputs(self, name, count):
        """The benchmark's two margin sessions: the first canonical points off
        the members x0, x1, x0 + x1 (and x0 + x1 + x2), eps 1/2 and delta 1."""
        nvars = ORACLE_VARIETIES[name].num_vars
        members = [parse_poly(f"x{i}", nvars) for i in range(nvars)]
        members.append(parse_poly(" + ".join(f"x{i}" for i in range(nvars)), nvars))
        coords = [x.coords for x in sample_points(ORACLE_VARIETIES[name], count)]
        case = oracle_case(name, members, coords, None)
        new, old = theorem15_margin(*case), oracles.theorem15_margin(*case)
        assert len(new) > count // 2
        assert margin_rows(new) == margin_rows(old)
        summary = summarize_margins(new)
        assert summary == (min(r.slack for r in old), oracles.negative_points(old))
        assert summary.negative_points

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

    def test_one_right_side_per_height(self, monkeypatch):
        rendered = []
        value = LogRational.value

        def counting_value(self, *args, **kwargs):
            rendered.append(self)
            return value(self, *args, **kwargs)

        monkeypatch.setattr(LogRational, "value", counting_value)
        v, fam, points = memo_case("P2", 120)
        reports = theorem15_margin(v, fam, 1, F(1, 2), None, points)
        heights_seen = {max(map(abs, x.coords)) for x in points}
        # one value per point for the left side, one per distinct h(x) for the right
        assert len(rendered) == len(points) + len(heights_seen) < 2 * len(points)
        for r in reports:
            assert r.rhs == LogRational(max(map(abs, r.point.coords))).scale(F(7, 2))
            assert r.slack == float(oracles.log_value(r.rhs) - oracles.log_value(r.lhs)), r.point

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


def outcome(sampler, v, count, max_shell):
    """The sampler's points, or the message it stops with."""
    try:
        return [tuple(getattr(p, "coords", p)) for p in sampler(v, count, max_shell)]
    except DomainError as exc:
        return str(exc)


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
        # the lines x2 = x0 + x1, x2 = 2*x1, x2 = -x0: the pivot has degree 3
        # in the last variable, with roots past the prefix's shell
        (("2*x0^2*x1 + 2*x0*x1^2 - x0^2*x2 - x0*x1*x2 + 2*x1^2*x2 - 3*x1*x2^2 + x2^3",), 3, 40),
        # the lines x2 = x0 + 2*x1 and x2 = x1 - 3*x0: two integer roots on every prefix
        (("-3*x0^2 - 5*x0*x1 + 2*x1^2 + 2*x0*x2 - 3*x1*x2 + x2^2",), 3, 40),
        # x2 = x1^2/x0 lies on a later shell than the prefix (x0, x1) for most points
        (("x0*x2 - x1^2",), 3, 30),
    ])
    def test_same_points_as_cube_scan(self, texts, nvars, count):
        v = variety(texts, nvars)
        assert [p.coords for p in sample_points(v, count)] == cube_scan(v, count)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.data())
    def test_random_plane_curves(self, degree, count, data):
        monos = data.draw(st.lists(st.sampled_from(_monomials(3, degree)),
                                   min_size=1, max_size=4, unique=True))
        coefficients = st.integers(-3, 3).filter(bool)
        v = build_variety([HomoPoly(3, {m: F(data.draw(coefficients)) for m in monos})])
        assert outcome(sample_points, v, count, 3) == outcome(cube_scan, v, count, 3)

    def test_counts_on_conic(self):
        SAMPLE_COUNTS.clear()
        sample_points(variety(["x0*x2 - x1^2"], 3), 12)
        # the 12th point, (4:6:9), lies on shell 9: shells 1..9 walk every
        # canonical prefix of norm <= 9 once, ((2·9 + 1)^2 + 1)/2 = 181 of them
        assert SAMPLE_COUNTS == {"prefixes": 181, "candidates": 12, "points": 12}

    def test_conic_walks_each_prefix_once(self):
        # the cube walk took 181161 prefixes through shell 64, its whole cube each shell
        SAMPLE_COUNTS.clear()
        points = sample_points(variety(["x0*x2 - x1^2"], 3), 80)
        shell = max(map(abs, points[-1].coords))
        assert shell == 64
        assert SAMPLE_COUNTS["prefixes"] == ((2 * shell + 1) ** 2 + 1) // 2


@st.composite
def fibres(draw):
    """Coefficients a[0], a[1], ... of a polynomial in t: planted integer roots
    in [-12, 12] times a rest with coefficients in [-9, 9], whose own integer
    roots divide a number of at most 9, so that every integer root lies in
    [-12, 12].  Up to two leading coefficients are zero."""
    planted = draw(st.lists(st.integers(-12, 12), max_size=4))
    a = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=5 - len(planted)).filter(any))
    for r in planted:
        a = [x - r * y for x, y in zip([0] + a, a + [0])]
    return a + [0] * draw(st.integers(0, 2))


class TestIntegerRoots:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(fibres(), st.integers(0, 15))
    @example([1, 0, 1], 5)              # t^2 + 1: no roots
    @example([0, 0, 3], 0)              # 3t^2: only 0
    @example([6, -5, 1, 0, 0], 1)       # (t - 2)(t - 3), leading coefficients 0
    @example([4, 0, -5, 0, 1], 1)       # (t^2 - 1)(t^2 - 4): roots past the shell
    def test_against_brute_force(self, a, shell):
        expected = [t for t in range(-40, 41) if heights._horner(a, t) == 0]
        roots, bound = heights._integer_roots(a, shell)
        nonzero = [k for k, c in enumerate(a) if c]
        if nonzero[-1] - nonzero[0] <= 2:
            assert bound == 0
        # with a bound, the roots left out lie on the shells past `shell` up to it
        assert sorted(roots) == [t for t in expected if not bound or abs(t) <= shell]
        assert all(abs(t) <= max(shell, bound) for t in expected if bound)


class TestSampleBudget:
    def test_shell_past_budget_is_refused(self, monkeypatch):
        # the conic's 12th point lies on shell 9.  Shells 1..9 walk 181 prefixes
        # (test_counts_on_conic); the pivot vanishes on no nonzero prefix, and
        # the zero prefix is never re-tested, so nothing is tested twice
        v = variety(["x0*x2 - x1^2"], 3)
        monkeypatch.setattr(heights, "MAX_SAMPLE_PREFIXES", 181)
        assert len(sample_points(v, 12)) == 12
        monkeypatch.setattr(heights, "MAX_SAMPLE_PREFIXES", 180)
        with pytest.raises(SampleBudgetExceeded, match="shell 9"):
            sample_points(v, 12)

    def test_retests_count(self, monkeypatch):
        # P^1's 8th point, (2:1), lies on shell 2: the prefixes 0, 1 and 2 are
        # walked, and 1, which keeps every t, is tested again at shell 2
        v = variety([], 2)
        monkeypatch.setattr(heights, "MAX_SAMPLE_PREFIXES", 4)
        assert len(sample_points(v, 8)) == 8
        monkeypatch.setattr(heights, "MAX_SAMPLE_PREFIXES", 3)
        with pytest.raises(SampleBudgetExceeded, match="shell 2"):
            sample_points(v, 8)

    def test_many_variables_refused_before_walking(self):
        # 20 variables: shell 1 alone has 3^19 prefixes, far past the budget
        v = variety([" + ".join(f"x{i}^2" for i in range(20))], 20)
        SAMPLE_COUNTS.clear()
        with pytest.raises(SampleBudgetExceeded, match="shell 1 "):
            sample_points(v, 1)
        assert not +SAMPLE_COUNTS
