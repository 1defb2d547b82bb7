"""Hilbert weights, the EF inequality check, and the explicit bound formulas."""

import math
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from hyperpos import weights
from hyperpos.errors import DomainError
from hyperpos.groebner import (
    GREVLEX,
    groebner_basis,
    hilbert_function,
    normal_form,
    standard_monomials,
)
from hyperpos.polyring import DimensionMismatch, HomoPoly, parse_poly
from hyperpos.position import IndexOutOfRange, build_variety
from hyperpos.weights import (
    DEFAULT_ORACLE_CAP,
    FloorAmbiguous,
    OracleTooLarge,
    SubsetNotEmptyOnV,
    UTooSmall,
    compare_bounds,
    defect_total,
    ef_lower_bound_check,
    hilbert_weight,
    hilbert_weight_bruteforce,
    truncation_coefficient,
    truncation_m0,
    truncation_m0_subgeneral,
)


@pytest.fixture(scope="module")
def p1():
    return build_variety([], num_vars=2)


@pytest.fixture(scope="module")
def conic():
    return build_variety([parse_poly("x0*x2 - x1^2", 3)])


def weight_of(monos, c):
    return sum((sum(F(e) * F(x) for e, x in zip(m, c)) for m in monos), F(0))


def rank(rows) -> int:
    """Rank of a matrix over Q by Gaussian elimination."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def combination_scan(v, u, cs):
    """The oracle as a plain scan: rank every full-size combination of the
    degree-u monomial residues and keep the independent ones.  Returns the
    largest weight of a kept combination under each weight vector in `cs`,
    and the number kept."""
    monos = standard_monomials(groebner_basis([], GREVLEX, num_vars=v.num_vars), u)
    size = hilbert_function(v.gb, u)
    coords = {m: i for i, m in enumerate(standard_monomials(v.gb, u))}
    residues = []
    for m in monos:
        nf = normal_form(HomoPoly(v.num_vars, {m: F(1)}), v.gb)
        vec = [F(0)] * size
        for mm, cc in nf.terms.items():
            vec[coords[mm]] = cc
        residues.append(vec)
    kept = [combo for combo in combinations(range(len(monos)), size)
            if rank([residues[i] for i in combo]) == size]
    best = []
    for c in cs:
        mono_weights = [weight_of([m], c) for m in monos]
        best.append(max(sum((mono_weights[i] for i in combo), F(0)) for combo in kept))
    return best, len(kept)


class TestHilbertWeight:
    def test_p1_forced_basis(self, p1):
        # only one monomial basis in degree 2, so S = 2 + 1 + 0
        rep = hilbert_weight(p1, 2, (1, 0))
        assert rep.weight == 3
        assert sorted(rep.basis) == [(0, 2), (1, 1), (2, 0)]

    def test_p1_symmetric_weights(self, p1):
        assert hilbert_weight(p1, 2, (1, 1)).weight == 6

    def test_zero_weights_give_zero(self, conic):
        rep = hilbert_weight(conic, 2, (0, 0, 0))
        assert rep.weight == 0
        assert len(rep.basis) == 5

    def test_weight_matches_basis_sum(self, conic):
        c = (F(1, 2), F(2), F(0))
        rep = hilbert_weight(conic, 2, c)
        assert rep.weight == weight_of(rep.basis, c)

    def test_basis_size_is_hilbert_value(self, conic):
        # conic has H(u) = 2u + 1
        for u in (1, 2, 3):
            assert len(hilbert_weight(conic, u, (1, 0, 0)).basis) == 2 * u + 1

    def test_basis_residues_independent(self, conic):
        rep = hilbert_weight(conic, 2, (1, 0, 0))
        from hyperpos.groebner import normal_form
        from hyperpos.polyring import HomoPoly

        coords = {m: i for i, m in enumerate(standard_monomials(conic.gb, 2))}
        rows = []
        for m in rep.basis:
            nf = normal_form(HomoPoly(3, {m: F(1)}), conic.gb)
            vec = [F(0)] * len(coords)
            for mm, cc in nf.terms.items():
                vec[coords[mm]] = cc
            rows.append(vec)
        assert rank(rows) == len(rep.basis)

    def test_rejects_bad_u(self, p1):
        with pytest.raises(DomainError):
            hilbert_weight(p1, 0, (1, 1))

    def test_rejects_wrong_length(self, p1):
        with pytest.raises(DimensionMismatch):
            hilbert_weight(p1, 2, (1, 1, 1))

    def test_rejects_negative_entry(self, p1):
        with pytest.raises(DomainError):
            hilbert_weight(p1, 2, (1, -1))


class TestOracle:
    def test_zero_ideal_degree_one(self, conic):
        # only basis is the variables themselves
        p2 = build_variety([], num_vars=3)
        assert hilbert_weight_bruteforce(p2, 1, (5, 7, 11)) == 23

    def test_conic_degree_one(self, conic):
        assert hilbert_weight_bruteforce(conic, 1, (1, 1, 0)) == 2

    def test_conic_asymmetric(self, conic):
        # the value that separates the two order conventions
        assert hilbert_weight_bruteforce(conic, 2, (1, 0, 0)) == 4

    @pytest.mark.parametrize("u", [1, 2, 3])
    @pytest.mark.parametrize("c", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (F(1, 2), 1)])
    def test_matches_fast_route_on_p1(self, p1, u, c):
        assert hilbert_weight(p1, u, c).weight == hilbert_weight_bruteforce(p1, u, c)

    @pytest.mark.parametrize("u", [1, 2])
    @pytest.mark.parametrize(
        "c", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 2), (2, 1, 1), (1, 1, 1)])
    def test_matches_fast_route_on_conic(self, conic, u, c):
        assert hilbert_weight(conic, u, c).weight == hilbert_weight_bruteforce(conic, u, c)

    def test_counts_pinned_on_conic(self, conic):
        before = weights.ORACLE_COUNTS.copy()
        assert hilbert_weight_bruteforce(conic, 4, (1, 0, 0)) == 16
        done = weights.ORACLE_COUNTS - before
        assert done == {"rows": 961, "dependent": 423, "bases": 48}

    def test_cap_enforced(self, conic):
        with pytest.raises(OracleTooLarge):
            hilbert_weight_bruteforce(conic, 5, (1, 0, 0))

    def test_cap_parameter(self, conic):
        with pytest.raises(OracleTooLarge):
            hilbert_weight_bruteforce(conic, 1, (1, 0, 0), cap=2)


class TestWeightProperties:
    @pytest.mark.parametrize("lam", [F(2), F(1, 2), F(3)])
    def test_positive_scaling(self, conic, lam):
        c = (F(1), F(0), F(2))
        base = hilbert_weight(conic, 2, c)
        scaled = hilbert_weight(conic, 2, tuple(lam * x for x in c))
        assert scaled.weight == lam * base.weight
        assert scaled.basis == base.basis

    @pytest.mark.parametrize("c", [(1, 0, 0), (0, 2, 1), (3, 1, 2)])
    def test_dominates_canonical_basis(self, conic, c):
        canonical = standard_monomials(conic.gb, 2)
        assert hilbert_weight(conic, 2, c).weight >= weight_of(canonical, c)


class TestEfCheck:
    def test_p1_example(self, p1):
        res = ef_lower_bound_check(p1, 2, (1, 1), (0, 1))
        assert res.holds
        assert res.lhs == 1
        assert res.rhs == F(-1, 2)

    def test_zero_weights(self, p1):
        res = ef_lower_bound_check(p1, 2, (0, 0), (0, 1))
        assert res.holds
        assert res.lhs == 0 and res.rhs == 0

    @pytest.mark.parametrize("c", [(a, b, d) for a in (0, 1, 2) for b in (0, 1) for d in (0, 1, 3)])
    def test_conic_grid_holds(self, conic, c):
        res = ef_lower_bound_check(conic, 3, c, (0, 2))
        assert res.holds

    def test_u_too_small(self, conic):
        with pytest.raises(UTooSmall):
            ef_lower_bound_check(conic, 2, (1, 1, 0), (0, 2))

    def test_subset_meets_variety(self, conic):
        # V cap {x0 = x1 = 0} is the point (0:0:1)
        with pytest.raises(SubsetNotEmptyOnV):
            ef_lower_bound_check(conic, 3, (1, 1, 0), (0, 1))

    def test_subset_wrong_size(self, conic):
        with pytest.raises(IndexOutOfRange):
            ef_lower_bound_check(conic, 3, (1, 1, 0), (0, 1, 2))

    def test_subset_duplicate(self, p1):
        with pytest.raises(IndexOutOfRange):
            ef_lower_bound_check(p1, 2, (1, 1), (0, 0))

    def test_subset_out_of_range(self, p1):
        with pytest.raises(IndexOutOfRange):
            ef_lower_bound_check(p1, 2, (1, 1), (0, 5))


class TestTruncationBound:
    def test_frozen_example(self):
        # 12e = 32.619..., floor 32
        rep = truncation_m0(1, 1, 1, 1, 3, 6)
        assert rep.m0 == 32
        assert rep.defect_total == 2
        assert rep.coefficient == -5

    @pytest.mark.parametrize(
        "args", [(1, 1, 1, 1, 3, 6), (1, 2, 1, 1, 2, 1), (2, 1, 2, F(3, 2), 4, 2)])
    def test_float_cross_check(self, args):
        n, d, deg_v, delta, q, eps = args
        rep = truncation_m0(*args)
        approx = (d ** (n * n + n) * deg_v ** (n + 1) * math.e ** n * float(delta) ** n
                  * (2 * n + 4) ** n * (n + 1) ** n * math.factorial(q) ** n / float(eps) ** n)
        assert abs(approx - round(approx)) > 1e-6
        assert rep.m0 == math.floor(approx)

    def test_monotone(self):
        base = truncation_m0(2, 2, 3, F(3, 2), 5, 1).m0
        assert truncation_m0(2, 2, 3, F(3, 2), 5, F(1, 2)).m0 >= base
        assert truncation_m0(2, 3, 3, F(3, 2), 5, 1).m0 >= base
        assert truncation_m0(2, 2, 4, F(3, 2), 5, 1).m0 >= base
        assert truncation_m0(2, 2, 3, F(2), 5, 1).m0 >= base
        assert truncation_m0(2, 2, 3, F(3, 2), 6, 1).m0 >= base

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            truncation_m0(1, 1, 1, 1, 3, 0)
        with pytest.raises(DomainError):
            truncation_m0(0, 1, 1, 1, 3, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_defect_at_delta_one(self, n):
        assert defect_total(1, n) == n + 1

    def test_defect_fractional(self):
        assert defect_total(F(3, 2), 2) == F(9, 2)

    def test_coefficient_at_eps_zero(self):
        assert truncation_coefficient(3, 1, 1, 0) == 1

    def test_subgeneral_variant(self):
        # same inputs as the frozen example but without the (n+1)^n factor
        rep = truncation_m0_subgeneral(1, 1, 1, 1, 3, 6)
        assert rep.m0 == 16
        assert rep.defect_total == 2
        assert rep.coefficient == -5

    def test_subgeneral_matches_ratio(self):
        # at l = n the two formulas differ by exactly (n+1)^n inside the floor
        full = truncation_m0(2, 1, 1, 1, 4, 1).m0
        sub = truncation_m0_subgeneral(2, 1, 1, 2, 4, 1).m0
        assert sub <= full

    def test_subgeneral_rejects_l_below_n(self):
        with pytest.raises(DomainError):
            truncation_m0_subgeneral(2, 1, 1, 1, 3, 1)

    def test_floor_ambiguous_is_domain_error(self):
        # reachable once the factor passes 513!/2, see the tests below
        assert issubclass(FloorAmbiguous, DomainError)
        assert FloorAmbiguous.code == "FloorAmbiguous"

    def test_huge_factor_refused_before_any_power(self):
        with pytest.raises(FloorAmbiguous, match="factor exceeds 2\\^4641"):
            truncation_m0(40, 3, 2, 2, 20, F(1, 2))

    def test_factorial_bound_refuses_before_q_factorial(self, monkeypatch):
        # sum(floor(log2 i)) for i <= 20 is 54 against the exact 61 bits - 1,
        # so with the bound in use the stated size drops by 40 * 7
        monkeypatch.setattr(weights, "_EXACT_FACTORIAL_MAX", 0)
        with pytest.raises(FloorAmbiguous, match="factor exceeds 2\\^4361,"):
            truncation_m0(40, 3, 2, 2, 20, F(1, 2))
        with pytest.raises(FloorAmbiguous, match="factor exceeds 2\\^4321,"):
            truncation_m0_subgeneral(40, 3, 2, 79, 20, F(1, 2))

    def test_factorial_bound_below_the_limit_goes_on(self, monkeypatch):
        # eps = 2^12 takes the bound to 3841 < 3884, while the exact 4121 refuses
        answers = [truncation_m0(2, 2, 3, F(3, 2), 5, 1), truncation_m0_subgeneral(2, 1, 1, 2, 4, 1)]
        monkeypatch.setattr(weights, "_EXACT_FACTORIAL_MAX", 0)
        with pytest.raises(FloorAmbiguous, match="factor exceeds 2\\^4121,"):
            truncation_m0(40, 3, 2, 2, 20, 2 ** 12)
        assert answers == [truncation_m0(2, 2, 3, F(3, 2), 5, 1),
                           truncation_m0_subgeneral(2, 1, 1, 2, 4, 1)]

    def test_huge_factor_is_ambiguous_at_every_term_count(self, monkeypatch):
        # without the early refusal the enclosure runs to 512 terms and still
        # straddles an integer; the message stays short
        monkeypatch.setattr(weights, "_AMBIGUOUS_FACTOR_BITS", 10 ** 9)
        with pytest.raises(FloorAmbiguous) as info:
            truncation_m0(40, 3, 2, 2, 20, F(1, 2))
        assert info.value.message == "enclosure still straddles an integer at 512 terms"


class TestCompareBounds:
    def test_general_position_beats_chen_ru_yan(self):
        for n in (2, 3):
            table = compare_bounds(n, n, n, n, 9)
            assert table.this_paper == n + 1
            assert table.entries["chen_ru_yan"] == n * (n + 1)
            assert table.strictly_better["chen_ru_yan"]

    def test_general_position_ties_ru(self):
        table = compare_bounds(2, 2, 2, 2, 9)
        assert table.entries["ru"] == 3
        assert not table.strictly_better["ru"]

    def test_l_2n_kappa_one(self):
        table = compare_bounds(2, 4, 4, 1, 9)
        assert table.this_paper == 9
        assert table.entries["shi_ru"] == 9
        table3 = compare_bounds(3, 6, 6, 1, 9)
        assert table3.this_paper == 16
        assert table3.entries["shi_ru"] == F(120, 7)
        assert table3.strictly_better["shi_ru"]

    def test_kappa_equals_l_minus_n(self):
        table = compare_bounds(2, 3, 5, 3, 9)
        assert table.this_paper == 6
        assert table.entries["jyy_index"] == 6
        assert not table.strictly_better["jyy_index"]

    def test_jyy_at_general_position(self):
        # l = n makes the JYY expression collapse to n + 1
        table = compare_bounds(3, 3, 3, 2, 9)
        assert table.entries["jyy_index"] == 4

    def test_shi_ru_omitted_on_line(self):
        table = compare_bounds(1, 1, 1, 1, 5)
        assert "shi_ru" not in table.entries

    def test_ambient_entries(self):
        table = compare_bounds(2, 5, 6, 1, 9)
        assert table.entries["nochka"] == 2 * 5 - 2 + 1
        assert table.entries["eremenko_sodin"] == 10
        assert table.entries["quang_subgeneral"] == (6 - 2 + 1) * 3

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            compare_bounds(2, 2, 1, 1, 9)
        with pytest.raises(DomainError):
            compare_bounds(2, 2, 2, 0, 9)


def _scan_cases():
    def variety(texts, nvars):
        return build_variety([parse_poly(t, nvars) for t in texts], num_vars=nvars)

    def up_to_cap(ambient):
        return [u for u in range(1, DEFAULT_ORACLE_CAP)
                if comb(ambient + u, ambient) <= DEFAULT_ORACLE_CAP]

    cases = [("P1", variety((), 2), u) for u in up_to_cap(1)]
    cases += [("P2", variety((), 3), u) for u in up_to_cap(2)]
    cases += [("conic", variety(("x0*x2 - x1^2",), 3), u) for u in up_to_cap(2)]
    for name, texts in (("quadric", ("x0*x3 - x1*x2",)),
                        ("cubic", ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"))):
        cases += [(name, variety(texts, 4), u) for u in (1, 2)]
    for name, text in (("squares", "x0^2 + x1^2 + x2^2"),
                       ("dense", "2*x0^2 - 3*x0*x1 + 5*x1^2 + 7*x0*x2 - x1*x2 + 4*x2^2")):
        cases += [(name, variety((text,), 3), u) for u in range(1, 5)]
    return cases


def _weights_for(num_vars):
    """Zero, repeated and fractional weights, cut or padded to num_vars."""
    base = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 2, 2), (F(1, 2), F(2, 3), 0), (3, 1, 2))
    return [(c + (1,))[:num_vars] for c in base]


class TestOracleAgainstScan:
    """The depth-first walk weighs exactly the combinations the scan keeps."""

    @pytest.mark.parametrize("name,v,u", _scan_cases(),
                             ids=lambda x: x if isinstance(x, str) else None)
    def test_walk_matches_scan(self, name, v, u):
        cs = _weights_for(v.num_vars)
        best, kept = combination_scan(v, u, cs)
        for c, expected in zip(cs, best):
            before = weights.ORACLE_COUNTS.copy()
            assert hilbert_weight_bruteforce(v, u, c) == expected, c
            assert (weights.ORACLE_COUNTS - before)["bases"] == kept
