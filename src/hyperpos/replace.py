"""Constructive replacement of an ordered family by n+1 well-placed
hypersurfaces, plus the exponent-schedule inequality machinery.

Step u of the replacement search tries the points c(s) = (s^t_u, ..., s, 1)
of the moment curve for s = 0, 1, ... up to a cap that the Bezout inequality
proves large enough; every accepted candidate has passed the prefix
dimension check, nothing is trusted on the strength of genericity alone.  A
candidate is judged on its prefix dimension over Q, the question
`meet_dimension` answers for the subset walk too, so the accepted point does
not depend on the prime of the mod-p pass.  `verify_replacement` asks its
n + 1 prefix dimensions as one `meet_dimensions` batch.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple, Sequence

from .errors import DomainError
from .groebner import dim_at_most
from .polyring import (MAX_POWER_BITS, DimensionMismatch, PowerBudgetExceeded, check_power_bound,
                       poly_combine)
from .position import DimensionProfile, HypersurfaceFamily, Variety, meet_dimension, meet_dimensions


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
    check_power_bound("the sides", zip(nums, exps), [(x, delta.numerator) for x in nums])
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


def build_replacement(v: Variety, fam: HypersurfaceFamily,
                      profile: DimensionProfile) -> ReplacementSystem:
    """Realize the profile by n+1 combinations with strictly dropping prefixes."""
    if len(set(fam.degrees)) != 1:
        raise SameDegreeRequired(
            f"members must share one degree, got {sorted(set(fam.degrees))}; lift by lcm powers first")
    n = v.dim_n
    ordered = [fam.members[i] for i in profile.ordering]
    width = profile.l_value + 1
    rows = [tuple(Fraction(1 if j == 0 else 0) for j in range(width))]
    replacements = [ordered[0]]
    if not dim_at_most(meet_dimension(v, replacements), n - 1):
        raise SearchExhausted("leading member does not cut the variety; profile is stale")
    for u in range(1, n + 1):
        t_u = profile.t_values[u]
        # X = V cut by P_0..P_{u-1} has at most K = prod(deg g) * d^u components
        # (Bezout), and the c that vanish on one of its top components meet the
        # curve c(s) = (s^t_u, ..., s, 1) in at most t_u points; so K * t_u + 1
        # points hold one accepted over Q.  s = 0 is Q_{t_u} alone.
        cap = prod(g.degree for g in v.generators) * fam.degrees[0] ** u * t_u + 1
        for s in range(cap):
            # n - u - 1 is `meet_dimension`'s lower bound for u + 1 members, so
            # a dim_p at most n - u - 1 accepts in the mod-p pass, and any
            # other candidate is judged over Q.  The prefix so far has
            # dimension exactly n - u, so it gives no tighter bound.  A
            # combination that is zero or vanishes on V (only a stale profile
            # gives one) leaves the prefix at n - u and is rejected.
            cand = tuple(s ** (t_u - i) for i in range(t_u + 1))
            combined = poly_combine(cand, ordered[:t_u + 1])
            if dim_at_most(meet_dimension(v, replacements + [combined]), n - u - 1):
                break
        else:
            # one of the cap points is accepted whenever the profile is that
            # of the family, so exhaustion means a stale profile
            raise SearchExhausted(
                f"no admissible combination at step {u} among {cap} points of the moment curve")
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
    # no parents: t + 1 <= n hypersurfaces always meet V, and while the earlier
    # bounds hold, d_{t-1} - 1 is at most the batch's bound n - t - 1
    dims = tuple(meet_dimensions(v, [(sys.replacements[:t + 1], ()) for t in range(n + 1)]))
    met = [dim_at_most(dim, n - t - 1) for t, dim in enumerate(dims)]
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
    return ReplacementVerdict(dims, tuple(met), combo_ok)
