"""Constructive replacement of an ordered family by n+1 well-placed
hypersurfaces, plus the exponent-schedule inequality machinery.

The replacement search tries small integer coefficient vectors first in a
fixed spiral order, then falls back to seeded random draws; every accepted
candidate has passed the prefix dimension check, nothing is trusted on the
strength of genericity alone.  A candidate is judged on its dimension mod p,
an upper bound on its dimension over Q; only when no candidate of a level
meets the bound mod p is that level searched again over Q.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod
from typing import NamedTuple, Sequence

from .errors import DomainError
from .groebner import dim_at_most, modp_dimension, projective_dimension
from .polyring import DimensionMismatch, poly_combine
from .position import DimensionProfile, HypersurfaceFamily, Variety, meet_dimension


class NotIncreasing(DomainError):
    code = "NotIncreasing"


class NotSorted(DomainError):
    code = "NotSorted"


class BelowOne(DomainError):
    code = "BelowOne"


class SameDegreeRequired(DomainError):
    code = "SameDegreeRequired"


class SearchExhausted(DomainError):
    code = "SearchExhausted"


# ---------------------------------------------------------------------------
# exponent schedules

class ExponentSchedule(NamedTuple):
    t_values: tuple
    delta: Fraction
    m_values: tuple
    max_index: int


def _check_increasing(t_values):
    t = tuple(int(x) for x in t_values)
    if len(t) < 2:
        raise NotIncreasing("need at least t_0 and t_1")
    if any(a >= b for a, b in zip(t, t[1:])):
        raise NotIncreasing(f"values must strictly increase, got {t}")
    return t


def exponent_schedule(t_values: Sequence[int]) -> ExponentSchedule:
    """Slope maximum and the descending m-recursion for a t-sequence."""
    t = _check_increasing(t_values)
    n = len(t) - 1
    slopes = [Fraction(t[s] - t[0], s) for s in range(1, n + 1)]
    delta = max(slopes)
    max_index = slopes.index(delta) + 1
    m = [Fraction(0)] * (n + 1)
    m[n] = delta
    for u in range(n - 1, -1, -1):
        m[u] = t[u + 1] - t[u] + max(Fraction(0), m[u + 1] - delta)
    return ExponentSchedule(t, delta, tuple(m), max_index)


# an integer of at most 14284 bits has at most 4300 decimal digits, the most
# that int -> str accepts
MAX_POWER_BITS = 14284


class PowerBudgetExceeded(DomainError):
    code = "PowerBudgetExceeded"


def _power_bits(pairs):
    """Upper bound on the bit length of prod(x ** e) for the (int x >= 1, e) pairs."""
    return sum(e * (x - 1).bit_length() for x, e in pairs) + 1


class PowerInequalityResult(NamedTuple):
    """Both sides raised to denom(delta), keeping the comparison in integers."""

    holds: bool
    equality: bool
    lhs: Fraction
    rhs: Fraction
    power: int


def verify_power_inequality(t_values: Sequence[int], a_values: Sequence) -> PowerInequalityResult:
    t = _check_increasing(t_values)
    n = len(t) - 1
    a = tuple(Fraction(x) for x in a_values)
    if len(a) != n:
        raise DimensionMismatch(f"need {n} a-values for {n + 1} t-values, got {len(a)}")
    if any(x < y for x, y in zip(a, a[1:])):
        raise NotSorted(f"a-values must be non-increasing, got {a}")
    if any(x < 1 for x in a):
        raise BelowOne(f"a-values must be at least 1, got {a}")
    delta = exponent_schedule(t).delta
    power = delta.denominator
    exps = [(t[u + 1] - t[u]) * power for u in range(n)]
    # every a is at least 1, so its numerator bounds its denominator; the
    # bound on the unreduced sides is at most twice the bits of integer
    # inputs, so it only guards against forming huge powers
    nums = [x.numerator for x in a]
    bound = max(_power_bits(zip(nums, exps)), _power_bits((x, delta.numerator) for x in nums))
    if bound > 16 * MAX_POWER_BITS:
        raise PowerBudgetExceeded(
            f"the sides may need {bound} bits, far past the budget of {MAX_POWER_BITS}")
    lhs = prod(a[u] ** exps[u] for u in range(n))
    rhs = prod(a) ** delta.numerator
    bits = max(lhs.numerator.bit_length(), rhs.numerator.bit_length())
    if bits > MAX_POWER_BITS:
        raise PowerBudgetExceeded(f"the sides need {bits} bits, past the budget of {MAX_POWER_BITS}")
    return PowerInequalityResult(lhs <= rhs, lhs == rhs, lhs, rhs, power)


# ---------------------------------------------------------------------------
# replacement systems

class ReplacementSystem(NamedTuple):
    replacements: tuple
    coeff_matrix: tuple
    source_profile: DimensionProfile
    family: HypersurfaceFamily


def _spiral_values(bound):
    out = [0]
    for k in range(1, bound + 1):
        out.extend((k, -k))
    return out


_SPIRAL_LEVEL_CAP = 20000
_RANDOM_STAGES = ((16, 300), (64, 300), (1024, 400))


def build_replacement(v: Variety, fam: HypersurfaceFamily, profile: DimensionProfile,
                      seed: int = 0, max_bound: int = 8) -> ReplacementSystem:
    """Realize the profile by n+1 combinations with strictly dropping prefixes."""
    if len(set(fam.degrees)) != 1:
        raise SameDegreeRequired(
            f"members must share one degree, got {sorted(set(fam.degrees))}; lift by lcm powers first")
    if max_bound < 1:
        raise BelowOne(f"coefficient pool bound must be at least 1, got {max_bound}")
    n = v.dim_n
    order = profile.ordering
    ordered = [fam.members[i] for i in order]
    width = profile.l_value + 1

    def accept(candidate, prefix, prefix_dim, level, dimension):
        # Under modp_dimension, dim_p <= n - level - 1 proves acceptance, since
        # dim_p bounds dim_Q from above, and it is the exact dimension, since
        # `meet_dimension`'s lower bound for level + 1 members is n - level - 1.
        # A combination that is zero or vanishes on V leaves the prefix at
        # n - level, so both rules reject it with no test of its own.
        combined = poly_combine(candidate, ordered[:len(candidate)])
        dim = meet_dimension(v, prefix + [combined], (prefix_dim,), dimension)
        if dim_at_most(dim, n - level - 1):
            return combined, dim
        return None

    rows = [tuple(Fraction(1 if j == 0 else 0) for j in range(width))]
    replacements = [ordered[0]]
    prefix_dim = meet_dimension(v, replacements)
    if not dim_at_most(prefix_dim, n - 1):
        raise SearchExhausted("leading member does not cut the variety; profile is stale")
    for u in range(1, n + 1):
        t_u = profile.t_values[u]

        def candidates():
            for bound in (b for b in (1, 2, 4, 8) if b <= max_bound):
                count = 0
                for cand in product(_spiral_values(bound), repeat=t_u + 1):
                    if all(c == 0 for c in cand):
                        continue
                    count += 1
                    if count > _SPIRAL_LEVEL_CAP:
                        break
                    yield cand
            rng = random.Random(seed * 1000003 + u)
            for spread, tries in _RANDOM_STAGES:
                for _ in range(tries):
                    cand = tuple(rng.randint(-spread, spread) for _ in range(t_u + 1))
                    if any(cand):
                        yield cand

        # A wrong rejection mod p only moves the search to a later candidate.
        # The level reruns over Q when the mod-p search finds nothing, so
        # SearchExhausted means that no candidate works over Q.
        hit = None
        for dimension in (modp_dimension, projective_dimension):
            for cand in candidates():
                accepted = accept(cand, replacements, prefix_dim, u, dimension)
                if accepted is not None:
                    hit = (cand,) + accepted
                    break
            if hit is not None:
                break
        if hit is None:
            raise SearchExhausted(
                f"no admissible combination at step {u} after spiral bound {max_bound} "
                f"and random spread {_RANDOM_STAGES[-1][0]}")
        cand, combined, prefix_dim = hit
        replacements.append(combined)
        rows.append(tuple(Fraction(c) for c in cand) + (Fraction(0),) * (width - len(cand)))
    return ReplacementSystem(tuple(replacements), tuple(rows), profile, fam)


class ReplacementVerdict(NamedTuple):
    prefix_dims: tuple
    bounds_met: tuple
    combination_ok: bool

    @property
    def ok(self):
        return self.combination_ok and all(self.bounds_met)


def verify_replacement(v: Variety, sys: ReplacementSystem) -> ReplacementVerdict:
    """Recompute every prefix dimension from scratch and recheck each claim."""
    n = v.dim_n
    profile = sys.source_profile
    ordered = [sys.family.members[i] for i in profile.ordering]
    dims = []
    met = []
    for t in range(n + 1):
        dim = meet_dimension(v, sys.replacements[:t + 1], dims[-1:])
        dims.append(dim)
        met.append(dim_at_most(dim, n - t - 1))
    combo_ok = len(sys.replacements) == n + 1 and len(sys.coeff_matrix) == n + 1
    if combo_ok and sys.coeff_matrix[0][0] != 1:
        combo_ok = False  # first row must be the unit row: P_0 is Q_order(0) itself
    for u, (row, p_u) in enumerate(zip(sys.coeff_matrix, sys.replacements)):
        t_u = profile.t_values[u]
        if any(c != 0 for c in row[t_u + 1:]):
            combo_ok = False
            continue
        if poly_combine(row[:t_u + 1], ordered[:t_u + 1]) != p_u:
            combo_ok = False
    return ReplacementVerdict(tuple(dims), tuple(met), combo_ok)
