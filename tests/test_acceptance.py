"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Every expected value is recomputed inside the test from first principles
(closed forms, Abel summation, prime factorization) rather than read back
from the library, so each criterion is an independent cross-examination.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod

from hyperpos import cli
from hyperpos.errors import DomainError
from hyperpos.groebner import GREVLEX, groebner_basis, hilbert_function, ideal_profile
from hyperpos.heights import (LOG_ONE, RationalPoint, height_point, height_poly,
                              product_formula_check, sample_points,
                              summarize_margins, theorem15_margin, weil_function,
                              weil_support)
from hyperpos.polyring import parse_poly, poly_from_json
from hyperpos.position import (build_family, build_variety, classify_position,
                               dimension_profile, distributive_constant,
                               remark_bounds)
from hyperpos.replace import (build_replacement, verify_power_inequality,
                              verify_replacement)
from hyperpos.weights import (SubsetNotEmptyOnV, compare_bounds,
                              ef_lower_bound_check, hilbert_weight,
                              hilbert_weight_bruteforce, truncation_m0)


def random_form(rng, nvars, degree, spread=3, max_terms=None):
    """Random nonzero homogeneous form with distinct exponent vectors."""
    pool = list(combinations_with_replacement(range(nvars), degree))
    k = len(pool) if max_terms is None else min(max_terms, len(pool))
    chosen = rng.sample(pool, rng.randint(1, k))
    terms = []
    for combo in sorted(chosen):
        coef = 0
        while coef == 0:
            coef = rng.randint(-spread, spread)
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        terms.append({"coef": str(coef), "exp": exp})
    return poly_from_json({"vars": nvars, "terms": terms})


def t_grids(max_n=3, t0_values=(0, 1), t_max=7):
    for n in range(1, max_n + 1):
        for t0 in t0_values:
            for rest in combinations(range(t0 + 1, t_max + 1), n):
                yield (t0,) + rest


A_VALUES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))

WEIGHT_GRIDS = {
    2: ((1, 1), (1, 0), (2, 1), (1, 2), (3, 1)),
    3: ((1, 1, 1), (1, 0, 0), (2, 1, 0), (1, 2, 3), (0, 0, 1)),
    4: ((1, 1, 1, 1), (1, 0, 0, 0), (2, 1, 0, 0), (1, 2, 3, 4), (0, 1, 0, 2)),
}


def p1_variety():
    return build_variety([], num_vars=2)


def conic_variety():
    return build_variety([parse_poly("x0*x2 - x1^2", 3)], num_vars=3)


def quadric_variety():
    return build_variety([parse_poly("x0^2 + x1^2 + x2^2 - x3^2", 4)], num_vars=4)


def test_criterion_01_remark_consistency():
    """Delta respects all four position bounds on 36 random families."""
    rng = random.Random(41)
    start = time.perf_counter()
    checked = 0
    for nvars in (3, 4):
        v = build_variety([], num_vars=nvars)
        n = v.dim_n
        for _ in range(18):
            q = rng.choice((n + 1, n + 2, n + 3))
            members = [random_form(rng, nvars, 2 if rng.random() < 0.25 else 1)
                       for _ in range(q)]
            fam = build_family(v, members)
            delta = distributive_constant(v, fam).delta
            cls = classify_position(v, fam)
            bounds = remark_bounds(v, cls)
            if cls.general_position:
                assert delta == 1, (nvars, [str(m) for m in members])
            if bounds.subgeneral is not None:
                assert delta <= bounds.subgeneral, (nvars, [str(m) for m in members])
            assert delta <= bounds.t_vector, (nvars, [str(m) for m in members])
            if bounds.index is not None:
                assert delta <= bounds.index, (nvars, [str(m) for m in members])
            checked += 1
    assert checked >= 30
    assert time.perf_counter() - start < 60.0


def equality_region(t, a):
    """Abel-summation characterization of equality in the chain bound.

    Sum of (delta - step_u) * log a_u telescopes into partial sums
    C_k = (k+1) delta - (t_{k+1} - t_0) >= 0 against the decreasing
    log a; it vanishes iff every Abel term does.
    """
    n = len(t) - 1
    delta = max(Fraction(t[s] - t[0], s) for s in range(1, n + 1))
    for k in range(n - 1):
        if (k + 1) * delta != t[k + 1] - t[0] and a[k] != a[k + 1]:
            return False
    return n * delta == t[n] - t[0] or a[n - 1] == 1


def test_criterion_02_power_inequality_grid():
    """Exhaustive grid: the bound holds, equality exactly on the Abel region."""
    pairs = 0
    for t in t_grids():
        n = len(t) - 1
        delta = max(Fraction(t[s] - t[0], s) for s in range(1, n + 1))
        a_grid = {tuple(sorted(a, reverse=True)) for a in product(A_VALUES, repeat=n)}
        for a in sorted(a_grid):
            res = verify_power_inequality(t, a)
            assert res.holds, (t, a)
            assert res.equality == equality_region(t, a), (t, a)
            # named sufficient cases: uniform steps, equal a with a tight
            # endpoint, and the all-ones vector
            if len({t[i + 1] - t[i] for i in range(n)}) == 1:
                assert res.equality, (t, a)
            if len(set(a)) == 1 and n * delta == t[n] - t[0]:
                assert res.equality, (t, a)
            if set(a) == {Fraction(1)}:
                assert res.equality, (t, a)
            pairs += 1
    assert pairs == 13 * 4 + 36 * 10 + 55 * 20


def _check_replacement(v, fam):
    prof = dimension_profile(v, fam, tuple(range(fam.q)))
    system = build_replacement(v, fam, prof)
    verdict = verify_replacement(v, system)
    assert verdict.ok
    width = prof.l_value + 1
    assert len(system.coeff_matrix) == v.dim_n + 1
    for u, row in enumerate(system.coeff_matrix):
        assert len(row) == width
        assert any(row)
        # P_u is a combination of the first t_u + 1 ordered members only
        assert all(c == 0 for c in row[prof.t_values[u] + 1:])
        assert max(abs(c) for c in row) <= 8


def test_criterion_03_replacement_construction():
    """Replacement systems build with coefficients within 8 and re-verify."""
    rng = random.Random(53)
    explicit = [
        # concurrent lines through (0:0:1) plus a void-completing member
        (3, ("x0", "x1", "x0 + x1", "x0 - x1", "x2")),
        (3, ("x0", "x1", "x0 + 2*x1", "x0 + x1 + x2")),
        (4, ("x0", "x1", "x0 + x1", "x0 - x1", "x2", "x3")),
        (3, ("x0^2", "x1^2", "x2^2")),
        (3, ("x0*x1", "x1*x2", "x0*x2 - x1^2", "x0^2 + x2^2")),
    ]
    built = 0
    for nvars, texts in explicit:
        v = build_variety([], num_vars=nvars)
        fam = build_family(v, [parse_poly(t, nvars) for t in texts])
        _check_replacement(v, fam)
        built += 1
    for nvars in (3, 4):
        v = build_variety([], num_vars=nvars)
        n = v.dim_n
        made = 0
        while made < 8:
            q = rng.choice((n + 1, n + 2, n + 3))
            members = [random_form(rng, nvars, 1, spread=2) for _ in range(q)]
            try:
                fam = build_family(v, members)
                _check_replacement(v, fam)
            except DomainError:
                continue  # ordering never empties; draw a fresh family
            made += 1
            built += 1
    assert built >= 20


def test_criterion_04_hilbert_weight_oracle():
    """Weighted-basis route equals the brute-force maximizer everywhere."""
    instances = (
        (p1_variety(), (1, 2, 3)),
        (conic_variety(), (1, 2)),
        (quadric_variety(), (1,)),
    )
    for v, u_range in instances:
        for u in u_range:
            for c in WEIGHT_GRIDS[v.num_vars]:
                fast = hilbert_weight(v, u, c).weight
                slow = hilbert_weight_bruteforce(v, u, c)
                assert fast == slow, (v.num_vars, u, c)


def test_criterion_05_hilbert_closed_forms():
    """H matches the binomial closed forms; the conic profile is (1, 2)."""
    for nvars in (2, 3, 4):
        ambient = nvars - 1
        free = groebner_basis([], GREVLEX, num_vars=nvars)
        for u in range(7):
            assert hilbert_function(free, u) == comb(ambient + u, ambient)
        for d in (1, 2, 3):
            text = (f"x0^{d} - x{ambient}^{d}" if d > 1 else f"x0 - x{ambient}")
            gb = groebner_basis([parse_poly(text, nvars)], GREVLEX, num_vars=nvars)
            for u in range(7):
                lower = ambient + u - d
                expected = comb(ambient + u, ambient) - (
                    comb(lower, ambient) if lower >= 0 else 0)
                assert hilbert_function(gb, u) == expected, (nvars, d, u)
    profile = ideal_profile(conic_variety().gb)
    assert profile.projective_dimension == 1
    assert profile.degree == 2


def test_criterion_06_chained_lower_bound():
    """The weight lower bound holds on every admissible subset and level."""
    instances = (p1_variety(), conic_variety(), quadric_variety())
    for v in instances:
        n = v.dim_n
        delta = v.degree_delta
        qualified = 0
        for u in (delta + 1, delta + 2, delta + 3):
            for subset in combinations(range(v.num_vars), n + 1):
                for c in WEIGHT_GRIDS[v.num_vars]:
                    try:
                        res = ef_lower_bound_check(v, u, c, subset)
                    except SubsetNotEmptyOnV:
                        break  # emptiness is independent of the weights
                    assert res.holds, (v.num_vars, u, subset, c)
                    qualified += 1
        assert qualified > 0, v.num_vars


def test_criterion_07_bound_formulas():
    """Certified floor gives 32; the comparison table matches its formulas."""
    report = truncation_m0(1, 1, 1, Fraction(1), 3, Fraction(6))
    assert report.m0 == 32
    tuples = ((2, 4, 4, 1, 9), (3, 6, 6, 2, 12), (1, 1, 1, 1, 5),
              (2, 3, 3, 2, 7), (2, 5, 6, 3, 9))
    for n, ambient, l_value, kappa, q in tuples:
        table = compare_bounds(n, ambient, l_value, kappa, q)
        entries = table.entries
        assert entries["nochka"] == 2 * ambient - n + 1
        assert entries["eremenko_sodin"] == 2 * ambient
        assert entries["ru"] == n + 1
        assert entries["quang_subgeneral"] == (l_value - n + 1) * (n + 1)
        spread = max(1, min(l_value - n, kappa))
        assert entries["jyy_index"] == (Fraction(l_value - n, spread) + 1) * (n + 1)
        assert table.this_paper == Fraction(l_value - n + kappa, kappa) * (n + 1)


def test_criterion_08_heights_suite():
    """Product formula, full-place Weil identity, positivity, and h((1:2:3))."""
    rng = random.Random(67)
    for _ in range(1000):
        num = rng.randint(-10 ** 6, 10 ** 6) or 1
        den = rng.randint(1, 10 ** 6)
        res = product_formula_check(Fraction(num, den))
        assert res.ok and res.product == 1, (num, den)

    done = 0
    while done < 200:
        nvars = rng.choice((2, 3))
        q = random_form(rng, nvars, rng.randint(1, 3), spread=5)
        coords = tuple(rng.randint(-40, 40) for _ in range(nvars))
        if all(c == 0 for c in coords):
            continue
        x = RationalPoint(coords)
        if q.evaluate(x.coords) == 0:
            continue
        total = LOG_ONE
        for place in weil_support(q, x):
            lam = weil_function(q, x, place)
            if place.is_finite:
                assert LOG_ONE <= lam, (str(q), x, place)
            total = total + lam
        assert total == height_point(x).scale(q.degree) + height_poly(q), (str(q), x)
        done += 1

    rendered = float(height_point(RationalPoint((1, 2, 3))).value())
    assert abs(rendered - math.log(3)) < 1e-12


def rough_part(m):
    """The factor of |m| left after removing every prime up to 13."""
    m = abs(m)
    for p in (2, 3, 5, 7, 11, 13):
        while m % p == 0:
            m //= p
    return m


def _margin_campaign(v, member_texts, count):
    fam = build_family(v, [parse_poly(t, v.num_vars) for t in member_texts])
    assert distributive_constant(v, fam).delta == 1
    points = [x for x in sample_points(v, count)
              if all(m.evaluate(x.coords) != 0 for m in fam.members)]
    reports = theorem15_margin(v, fam, Fraction(1), Fraction(1, 2), None, points)
    summary = summarize_margins(reports)
    # closed form: members are q = n + 2 monic linear forms, so the part of
    # the left side outside the places up to 13 is the rough factor of the
    # member-value product and slack = log rough - h/2 exactly
    for r in reports:
        values = prod(int(m.evaluate(r.point.coords)) for m in fam.members)
        h_arg = max(abs(c) for c in r.point.coords)
        expected = math.log(rough_part(values)) - math.log(h_arg) / 2
        assert abs(r.slack - expected) < 1e-9, r.point
    flagged = set(summary.negative_points)
    assert flagged == {r.point for r in reports if r.slack < 0}
    for r in reports:
        h_arg = max(abs(c) for c in r.point.coords)
        if h_arg >= 2 and r.point not in flagged:
            assert r.slack > 0, r.point
    assert flagged, "no exceptional candidates sampled"
    return len(reports)


def test_criterion_09_empirical_margin():
    """Slack is positive at height >= 2 except flagged candidates; >= 500 points."""
    start = time.perf_counter()
    total = _margin_campaign(p1_variety(), ("x0", "x1", "x0 + x1"), 420)
    total += _margin_campaign(build_variety([], num_vars=3),
                              ("x0", "x1", "x2", "x0 + x1 + x2"), 300)
    assert total >= 500
    assert time.perf_counter() - start < 120.0


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Every subcommand emits byte-identical reports across two runs."""
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(
        {"ambient": 2, "variety": [], "family": ["x0", "x1", "x2"], "seed": 7}))
    ideal = tmp_path / "conic.json"
    ideal.write_text(json.dumps({"ambient": 2, "polys": ["x0*x2 - x1^2"]}))
    pts = tmp_path / "pts.txt"
    pts.write_text("1,1,2\n1,2,3\n")
    cache = str(tmp_path / "cache")
    invocations = [
        ["parse", "--poly", "x0^2 + x1*x2", "--nvars", "3"],
        ["dim", "--ideal", str(ideal)],
        ["delta", "--config", str(conf), "--table"],
        ["classify", "--config", str(conf)],
        ["profile", "--config", str(conf)],
        ["replace", "--config", str(conf)],
        ["schedule", "--t", "0,1,2"],
        ["ineq", "--t", "0,1,2", "--a", "3/2,1"],
        ["hilbert", "--ideal", str(ideal), "--u", "4"],
        ["hweight", "--variety", str(ideal), "--u", "2", "--c", "1,0,0", "--oracle"],
        ["efcheck", "--variety", str(ideal), "--u", "3", "--c", "1,1,0",
         "--subset", "0,2"],
        ["m0", "--n", "1", "--d", "1", "--degv", "1", "--delta", "1",
         "--q", "3", "--eps", "6"],
        ["compare", "--n", "2", "--ambient", "4", "--l", "4", "--kappa", "1",
         "--q", "9"],
        ["height", "--point", "1,2,3"],
        ["weil", "--poly", "x0 + x1", "--nvars", "2", "--point", "1,3",
         "--place", "2"],
        ["pfcheck", "--x=-20/9"],
        ["margin", "--config", str(conf), "--points", str(pts), "--eps", "1/2"],
    ]
    registered = next(action.choices for action in cli._build_parser()._actions
                      if action.choices is not None)
    assert sorted(registered) == sorted(argv[0] for argv in invocations)
    for argv in invocations:
        full = argv + ["--cache-dir", cache]
        first_code = cli.main(full)
        first_out = capsys.readouterr().out
        second_code = cli.main(full)
        second_out = capsys.readouterr().out
        assert first_code == 0 and second_code == 0, argv
        assert first_out == second_out, argv[0]
