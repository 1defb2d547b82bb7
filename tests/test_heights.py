"""Places, heights, Weil functions, and the margin pipeline."""

import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpos.errors import DomainError
import hyperpos.heights as heights
from hyperpos.heights import (
    INFINITE,
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
from hyperpos.polyring import ZeroPolynomial, HomoPoly, parse_poly
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
