"""Hilbert weights, the chained Evertse-Ferretti inequality check, and the
explicit truncation-level bound formulas with prior-work comparisons.

The weight S(u,c) is computed from the initial ideal under a weighted order
built from complementary weights: leading monomials then carry minimal
c-weight, so the surviving standard monomials carry maximal c-weight.  That
route is standard but not proved here, so the brute-force oracle stays as a
permanent cross-check, not a scaffold.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, floor, gcd, prod
from typing import NamedTuple

from .errors import DomainError
from .groebner import (EMPTY, GREVLEX, groebner_basis, normal_form, standard_monomials,
                       weighted_order)
from .polyring import DimensionMismatch, HomoPoly
from .position import IndexOutOfRange, Variety, meet_dimension


class OracleTooLarge(DomainError):
    code = "OracleTooLarge"


class SubsetNotEmptyOnV(DomainError):
    code = "SubsetNotEmptyOnV"


class UTooSmall(DomainError):
    code = "UTooSmall"


class FloorAmbiguous(DomainError):
    code = "FloorAmbiguous"


def _weight_vector(v: Variety, c) -> tuple:
    c = tuple(Fraction(x) for x in c)
    if len(c) != v.num_vars:
        raise DimensionMismatch(f"weight vector has {len(c)} entries, ambient needs {v.num_vars}")
    if any(x < 0 for x in c):
        raise DomainError(f"weight entries must be non-negative, got {c}")
    return c


def _mono_weight(mono, c) -> Fraction:
    return sum((Fraction(e) * x for e, x in zip(mono, c)), Fraction(0))


# ---------------------------------------------------------------------------
# Hilbert weight

class HilbertWeightReport(NamedTuple):
    u: int
    weight: Fraction
    basis: tuple


def hilbert_weight(v: Variety, u: int, c) -> HilbertWeightReport:
    """Max total c-weight over monomial bases of the degree-u quotient."""
    if u < 1:
        raise DomainError(f"u must be positive, got {u}")
    c = _weight_vector(v, c)
    top = max(c)
    # complementary weights: the order pushes low-c monomials into the lead
    order = weighted_order(tuple(top - x for x in c))
    gb = groebner_basis(v.generators, order, num_vars=v.num_vars)
    basis = tuple(standard_monomials(gb, u))
    weight = sum((_mono_weight(m, c) for m in basis), Fraction(0))
    return HilbertWeightReport(u, weight, basis)


DEFAULT_ORACLE_CAP = 16


# Work of hilbert_weight_bruteforce, summed over runs: residue "rows" reduced
# against a chosen prefix, "dependent" rows that cut their branch, and "bases"
# (independent subsets of full size) weighed.
ORACLE_COUNTS = Counter()


def hilbert_weight_bruteforce(v: Variety, u: int, c, cap: int = DEFAULT_ORACLE_CAP) -> Fraction:
    """Exhaustive S(u,c): the largest c-weight of any independent subset of the
    degree-u monomials whose size is the Hilbert value.

    A depth-first walk picks monomial indices in increasing order.  It keeps an
    echelon form of the residues of the chosen prefix and enters a branch only
    when the next residue stays nonzero after reduction against it.  Every
    subset of an independent set is independent, so cutting a branch at a
    dependent prefix loses no independent subset of full size: the walk weighs
    exactly the subsets that a scan of every combination would keep.  Rank is
    decided exactly over the integers; weight never prunes a branch.
    """
    if u < 1:
        raise DomainError(f"u must be positive, got {u}")
    c = _weight_vector(v, c)
    ambient = v.ambient
    total = comb(ambient + u, ambient)
    if total > cap:
        raise OracleTooLarge(f"{total} degree-{u} monomials exceeds the oracle cap {cap}")
    monos = standard_monomials(groebner_basis([], GREVLEX, num_vars=v.num_vars), u)
    coords = {m: i for i, m in enumerate(standard_monomials(v.gb, u))}
    size = len(coords)
    residues = []
    for m in monos:
        # a residue enters as its primitive integer form: a positive scale
        # leaves every rank decision of `_reduce_row` unchanged
        nf = normal_form(HomoPoly(v.num_vars, {m: Fraction(1)}), v.gb).content_free()
        row = [0] * size
        for mm, cc in nf.terms.items():
            row[coords[mm]] = cc.numerator
        residues.append(row)
    weights = [_mono_weight(m, c) for m in monos]
    echelon = []  # (pivot column, row) per chosen index, in the order chosen
    best = None

    def walk(start, weight):
        nonlocal best
        depth = len(echelon)
        if depth == size:
            ORACLE_COUNTS["bases"] += 1
            if best is None or weight > best:
                best = weight
            return
        # stop where too few indices are left to reach full size
        for i in range(start, total - size + depth + 1):
            ORACLE_COUNTS["rows"] += 1
            reduced = _reduce_row(residues[i], echelon)
            if reduced is None:
                ORACLE_COUNTS["dependent"] += 1
                continue
            echelon.append(reduced)
            walk(i + 1, weight + weights[i])
            echelon.pop()

    walk(0, Fraction(0))
    return best


def _reduce_row(row, echelon):
    """(pivot, primitive row) of `row` reduced against the echelon rows, or
    None when it reduces to zero.  Each echelon row is zero at the pivots
    before its own, so one pass in order clears every pivot column."""
    for pivot, e in echelon:
        a = row[pivot]
        if a:
            b = e[pivot]
            row = [b * x - a * y for x, y in zip(row, e)]
    pivot = next((j for j, x in enumerate(row) if x), None)
    if pivot is None:
        return None
    g = gcd(*row)
    return pivot, [x // g for x in row]


# ---------------------------------------------------------------------------
# chained Evertse-Ferretti lower bound

class EfCheckResult(NamedTuple):
    holds: bool
    lhs: Fraction
    rhs: Fraction
    u: int
    subset: tuple


def ef_lower_bound_check(v: Variety, u: int, c, coord_subset) -> EfCheckResult:
    """Check S/(uH) against the coordinate-sum consequence of the EF theorem."""
    c = _weight_vector(v, c)
    subset = tuple(coord_subset)
    n = v.dim_n
    if len(set(subset)) != len(subset) or len(subset) != n + 1:
        raise IndexOutOfRange(f"need {n + 1} distinct coordinate indices, got {subset}")
    if any(not 0 <= i < v.num_vars for i in subset):
        raise IndexOutOfRange(f"coordinate index outside 0..{v.num_vars - 1}: {subset}")
    delta = v.degree_delta
    if u <= delta:
        raise UTooSmall(f"u must exceed the variety degree {delta}, got {u}")
    dim = meet_dimension(v, [HomoPoly.variable(v.num_vars, i) for i in subset])
    if dim is not EMPTY:
        raise SubsetNotEmptyOnV(
            f"variety meets the coordinate subspace {subset} in dimension {dim}")
    # the degree-u standard monomials of any basis number H(u) (Macaulay)
    report = hilbert_weight(v, u, c)
    lhs = report.weight / (u * len(report.basis))
    rhs = sum(c[i] for i in subset) / Fraction(n + 1) - (2 * n + 1) * delta * max(c) / Fraction(u)
    return EfCheckResult(lhs >= rhs, lhs, rhs, u, subset)


# ---------------------------------------------------------------------------
# explicit bounds

def defect_total(delta, n: int) -> Fraction:
    return Fraction(delta) * (n + 1)


def truncation_coefficient(q: int, delta, n: int, eps) -> Fraction:
    return q - defect_total(delta, n) - Fraction(eps)


def _e_enclosure(terms: int):
    lo = sum(Fraction(1, factorial(i)) for i in range(terms + 1))
    return lo, lo + Fraction(2, factorial(terms + 1))


# At 512 terms the enclosure of factor * e^n is at least factor * 2/513! wide,
# and an enclosure wider than 1 always straddles an integer.
_AMBIGUOUS_FACTOR_BITS = (factorial(513) // 2).bit_length()


# Up to this q, q! is cheap and formed before the size check; past it, a lower
# bound on its size is checked first.
_EXACT_FACTORIAL_MAX = 10 ** 4


def _refuse_ambiguous(low_bits: int) -> None:
    if low_bits >= _AMBIGUOUS_FACTOR_BITS:
        raise FloorAmbiguous(
            f"factor exceeds 2^{low_bits}, so the enclosure straddles an integer at 512 terms")


def _certified_floor_times_e_power(powers, q: int, n: int) -> int:
    """floor(q!^n * factor * e^n), enclosure widened until the floor is certain.

    The factor is prod(b ** k) over the (positive rational b, k >= 0) powers.
    A numerator p is at least 2^(bits(p) - 1) and a denominator r at most
    2^bits(r - 1), so a factor past 513!/2 is refused before any power is formed.
    Past _EXACT_FACTORIAL_MAX, q! is formed only after the same check with
    sum(floor(log2 i) for i <= q), a lower bound on bits(q!) - 1, in its place.
    """
    low_bits = sum(k * (b.numerator.bit_length() - 1 - (b.denominator - 1).bit_length())
                   for b, k in powers)
    if q > _EXACT_FACTORIAL_MAX:
        # each i in [2^j, 2^(j+1)) adds j: O(log q) integer steps
        _refuse_ambiguous(low_bits + n * sum(j * (min(q + 1, 2 << j) - (1 << j))
                                             for j in range(q.bit_length())))
    q_factorial = factorial(q)
    _refuse_ambiguous(low_bits + n * (q_factorial.bit_length() - 1))
    rational_factor = q_factorial ** n * prod(b ** k for b, k in powers)
    terms = 8
    while terms <= 512:
        lo_e, hi_e = _e_enclosure(terms)
        lo = rational_factor * lo_e ** n
        hi = rational_factor * hi_e ** n
        if floor(lo) == floor(hi):
            return floor(lo)
        terms *= 2
    raise FloorAmbiguous("enclosure still straddles an integer at 512 terms")


class BoundReport(NamedTuple):
    m0: int
    defect_total: Fraction
    coefficient: Fraction


def _check_positive(**named):
    for name, value in named.items():
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value}")


def truncation_m0(n: int, d: int, deg_v: int, delta, q: int, eps) -> BoundReport:
    """Truncation level and defect data for the distributive-constant bound."""
    delta = Fraction(delta)
    eps = Fraction(eps)
    _check_positive(n=n, d=d, deg_v=deg_v, delta=delta, q=q, eps=eps)
    m0 = _certified_floor_times_e_power(
        ((d, n * n + n), (deg_v, n + 1), (delta, n), (2 * n + 4, n), (n + 1, n),
         (1 / eps, n)), q, n)
    return BoundReport(m0, defect_total(delta, n),
                       truncation_coefficient(q, delta, n, eps))


def truncation_m0_subgeneral(n: int, d: int, deg_v: int, l: int, q: int, eps) -> BoundReport:
    """Variant with (l-n+1)^n in place of Delta^n (n+1)^n."""
    eps = Fraction(eps)
    _check_positive(n=n, d=d, deg_v=deg_v, q=q, eps=eps)
    if l < n:
        raise DomainError(f"l must be at least n, got l={l}, n={n}")
    m0 = _certified_floor_times_e_power(
        ((deg_v, n + 1), (d, n * n + n), (l - n + 1, n), (2 * n + 4, n),
         (1 / eps, n)), q, n)
    delta_eff = Fraction(l - n + 1)
    return BoundReport(m0, defect_total(delta_eff, n),
                       truncation_coefficient(q, delta_eff, n, eps))


# ---------------------------------------------------------------------------
# prior-work comparison

class ComparisonTable(NamedTuple):
    entries: dict
    this_paper: Fraction
    strictly_better: dict
    n: int
    ambient: int
    l: int
    kappa: int
    q: int


def compare_bounds(n: int, ambient: int, l: int, kappa: int, q: int) -> ComparisonTable:
    """Total-defect bounds from the literature next to the index-based one."""
    if n < 1 or ambient < n or l < n or kappa < 1 or q < 1:
        raise DomainError(
            f"need 1 <= n <= ambient, l >= n, kappa >= 1, q >= 1; "
            f"got n={n}, ambient={ambient}, l={l}, kappa={kappa}, q={q}")
    entries = {
        "nochka": Fraction(2 * ambient - n + 1),
        "eremenko_sodin": Fraction(2 * ambient),
        "ru": Fraction(n + 1),
        "chen_ru_yan": Fraction(l * (n + 1)),
        "quang_subgeneral": Fraction((l - n + 1) * (n + 1)),
        "jyy_index": (Fraction(l - n, max(1, min(l - n, kappa))) + 1) * (n + 1),
    }
    if l + n - 2 > 0:
        entries["shi_ru"] = Fraction(l * (l - 1) * (n + 1), l + n - 2)
    this = Fraction(l - n + kappa, kappa) * (n + 1)
    better = {name: this < value for name, value in entries.items()}
    return ComparisonTable(entries, this, better, n, ambient, l, kappa, q)
