"""Variety-plus-family configurations and their position invariants.

The distributive constant, position classes, and dimension profiles all
reduce to projective dimensions of subset intersections, which come from
`groebner.projective_dimension`.  Subset dimensions are memoized per family.
The walks enumerate subsets by size, so the immediate subsets S - {i} of S
are usually memoized already: if one is void, S is void without further
work, and otherwise max_i dim(S - {i}) - 1 is a proven lower bound that lets
the mod-p pass settle dim S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .groebner import (EMPTY, GREVLEX, GroebnerBasis, dim_at_most, groebner_basis,
                       ideal_profile, normal_form, projective_dimension)
from .polyring import (ConstantMember, EmptyInput, HomoPoly, lcm_degree, parse_poly,
                       poly_from_json)


class EmptyVariety(DomainError):
    code = "EmptyVariety"


class ZeroDimensional(DomainError):
    code = "ZeroDimensional"


class VanishingMember(DomainError):
    code = "VanishingMember"


class IndexOutOfRange(DomainError):
    code = "IndexOutOfRange"


class SubsetCapExceeded(DomainError):
    code = "SubsetCapExceeded"


class UnboundedRatio(DomainError):
    code = "UnboundedRatio"


class NeverEmpty(DomainError):
    code = "NeverEmpty"


class ProfileInvalid(DomainError):
    code = "ProfileInvalid"


DEFAULT_SUBSET_CAP = 14


# ---------------------------------------------------------------------------
# configuration types

# Identity equality and hashing: `_subset_dim` keys its memo on the variety,
# and value equality would hash every generator on every lookup.
@dataclass(eq=False, slots=True)
class Variety:
    """Projective variety V with cached basis, dimension n and degree."""

    generators: tuple
    gb: GroebnerBasis = field(repr=False)
    dim_n: int
    degree_delta: int
    num_vars: int

    @property
    def ambient(self):
        return self.num_vars - 1


def build_variety(gens: Sequence[HomoPoly], num_vars: Optional[int] = None) -> Variety:
    gb = groebner_basis(gens, GREVLEX, num_vars=num_vars)
    prof = ideal_profile(gb)
    if prof.projective_dimension is EMPTY:
        raise EmptyVariety("ideal cuts out the empty projective set")
    if prof.projective_dimension == 0:
        raise ZeroDimensional("variety must have dimension at least 1")
    return Variety(gb.generators, gb, prof.projective_dimension, prof.degree, gb.num_vars)


@dataclass(eq=False, slots=True)
class HypersurfaceFamily:
    """Hypersurfaces Q_1..Q_q, none vanishing identically on the variety."""

    members: tuple
    degrees: tuple
    lcm_d: int
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def q(self):
        return len(self.members)


def build_family(v: Variety, members: Sequence[HomoPoly]) -> HypersurfaceFamily:
    members = tuple(members)
    if not members:
        raise EmptyInput("family needs at least one hypersurface")
    for i, m in enumerate(members):
        if m.is_zero or normal_form(m, v.gb).is_zero:
            raise VanishingMember(f"member {i} vanishes identically on the variety")
        if m.degree == 0:
            raise ConstantMember(f"member {i} is a nonzero constant and cuts out no hypersurface")
    degrees = tuple(m.degree for m in members)
    return HypersurfaceFamily(members, degrees, lcm(*degrees))


def power_lift(v: Variety, fam: HypersurfaceFamily) -> HypersurfaceFamily:
    """Replace each member by the power raising it to the common lcm degree."""
    lift = lcm_degree(fam.members)
    return build_family(v, lift.lifted)


# ---------------------------------------------------------------------------
# subset intersection dimensions

def _validate_subset(fam, subset):
    idxs = frozenset(subset)
    if not idxs:
        raise EmptyInput("subset must be non-empty")
    for i in idxs:
        if not isinstance(i, int) or not 0 <= i < fam.q:
            raise IndexOutOfRange(f"index {i} outside 0..{fam.q - 1}")
    return idxs


def _subset_dim(v, fam, idxs):
    memo = fam._memo
    key = (v, idxs)
    if key in memo:
        return memo[key]
    # projective dimension theorem: each member cuts at most one dimension,
    # so n - |S| bounds dim S from below, and so does dim(S - {i}) - 1;
    # an immediate subset that was never computed only weakens the bound
    lower = v.dim_n - len(idxs)
    for i in idxs:
        parent = memo.get((v, idxs - {i}))
        if parent is EMPTY:
            memo[key] = EMPTY
            return EMPTY
        if parent is not None:
            lower = max(lower, parent - 1)
    gens = list(v.generators) + [fam.members[i] for i in sorted(idxs)]
    dim = projective_dimension(gens, v.num_vars, lower if lower >= 0 else None)
    memo[key] = dim
    return dim


def intersection_dimension(v: Variety, fam: HypersurfaceFamily, subset):
    """Projective dimension of V meet the named members, or EMPTY."""
    return _subset_dim(v, fam, _validate_subset(fam, subset))


# ---------------------------------------------------------------------------
# distributive constant

class DistributiveReport(NamedTuple):
    delta: Fraction
    witness: tuple
    per_subset: Optional[dict]


def distributive_constant(v: Variety, fam: HypersurfaceFamily,
                          cap: int = DEFAULT_SUBSET_CAP,
                          include_table: bool = False) -> DistributiveReport:
    """Exact distributive constant with a deterministic maximizing witness.

    Void subsets carry dim = -infinity and are left out of the max; ties
    go to the smallest subset, then the lexicographically least one.
    """
    if fam.q > cap:
        raise SubsetCapExceeded(
            f"family has {fam.q} members, enumeration cap is {cap}; raise the cap to proceed")
    n = v.dim_n
    best = None
    witness = None
    table = {} if include_table else None
    for size in range(1, fam.q + 1):
        for combo in combinations(range(fam.q), size):
            dim = _subset_dim(v, fam, frozenset(combo))
            if dim is EMPTY:
                continue
            drop = n - dim
            if drop <= 0:
                # a member vanishes on a whole component: Def 3.3's ratio
                # has no finite value, so surface it instead of guessing
                raise UnboundedRatio(
                    f"subset {combo} meets the variety in dimension {dim}, not below {n}")
            ratio = Fraction(size, drop)
            if table is not None:
                table[combo] = (size, dim, ratio)
            if best is None or ratio > best:
                best = ratio
                witness = combo
    return DistributiveReport(best, witness, table)


# ---------------------------------------------------------------------------
# position classification

class PositionClass(NamedTuple):
    l_value: Optional[int]
    general_position: bool
    kappa: int
    t_vector: tuple


def _max_dims_by_size(v, fam):
    """max_dims[m] = largest intersection dimension over size-m subsets.

    EMPTY stands in for -infinity when every size-m subset is void.
    """
    n = v.dim_n
    out = {}
    for size in range(1, fam.q + 1):
        best = EMPTY
        for combo in combinations(range(fam.q), size):
            dim = _subset_dim(v, fam, frozenset(combo))
            if dim is EMPTY:
                continue
            if best is EMPTY or dim > best:
                best = dim
            if best == n:
                break  # cannot grow past the variety itself
        out[size] = best
    return out


def classify_position(v: Variety, fam: HypersurfaceFamily) -> PositionClass:
    n = v.dim_n
    max_dims = _max_dims_by_size(v, fam)
    nonempty_sizes = [m for m, d in max_dims.items() if d is not EMPTY]
    s_max = max(nonempty_sizes)  # size 1 always present
    l_value = s_max if s_max < fam.q else None
    general = l_value == n

    kappa = 0
    for m in range(1, n + 1):
        d = max_dims.get(m, EMPTY)
        if d is not EMPTY and d > n - m:
            break
        kappa = m

    t_vector = []
    for s in range(1, n + 1):
        t_s = 0
        for m in range(1, fam.q + 1):
            d = max_dims[m]
            if d is not EMPTY and d > n - s - 1:
                t_s = m
        t_vector.append(t_s)
    return PositionClass(l_value, general, kappa, tuple(t_vector))


class BoundSet(NamedTuple):
    subgeneral: Optional[Fraction]
    t_vector: Optional[Fraction]
    index: Optional[Fraction]


def remark_bounds(v: Variety, cls: PositionClass) -> BoundSet:
    """Upper bounds on the distributive constant implied by the class."""
    n = v.dim_n
    sub = None
    idx = None
    if cls.l_value is not None:
        sub = Fraction(cls.l_value - n + 1)
        if cls.kappa >= 1:
            idx = Fraction(cls.l_value - n + cls.kappa, cls.kappa)
    tv = max(Fraction(t, k + 1) for k, t in enumerate(cls.t_vector)) if cls.t_vector else None
    return BoundSet(sub, tv, idx)


# ---------------------------------------------------------------------------
# dimension profiles along an ordering

class DimensionProfile(NamedTuple):
    ordering: tuple
    t_values: tuple
    l_value: int
    prefix_dims: tuple


def dimension_profile(v: Variety, fam: HypersurfaceFamily,
                      ordering: Sequence[int]) -> DimensionProfile:
    """The t-sequence 0 = t_0 < ... < t_n = l along the given ordering."""
    order = tuple(ordering)
    if sorted(order) != list(range(fam.q)):
        raise IndexOutOfRange(f"ordering must be a permutation of 0..{fam.q - 1}")
    n = v.dim_n
    prefix_dims = []
    for p in range(1, fam.q + 1):
        dim = _subset_dim(v, fam, frozenset(order[:p]))
        prefix_dims.append(dim)
        if dim is EMPTY:
            break
    if prefix_dims[-1] is not EMPTY:
        raise NeverEmpty("no prefix of the ordering voids the intersection")

    t_values = [0]
    for u in range(1, n + 1):
        t_u = next(s for s in range(len(prefix_dims)) if dim_at_most(prefix_dims[s], n - u - 1))
        t_values.append(t_u)
    if t_values[0] != 0 or any(a >= b for a, b in zip(t_values, t_values[1:])):
        raise ProfileInvalid(f"prefix dimensions do not step correctly: {prefix_dims}")
    if not dim_at_most(prefix_dims[0], n - 1):
        raise ProfileInvalid("first member does not cut the variety to dimension n-1")
    return DimensionProfile(order, tuple(t_values), t_values[-1], tuple(prefix_dims))


# ---------------------------------------------------------------------------
# configuration input

def load_configuration(obj: dict):
    """Build (Variety, HypersurfaceFamily) from {"ambient", "variety", "family"}."""
    try:
        ambient = int(obj["ambient"])
        variety_raw = obj["variety"]
        family_raw = obj["family"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"configuration needs ambient, variety, family: {exc}")
    for name, raw in (("variety", variety_raw), ("family", family_raw)):
        if not isinstance(raw, (list, tuple)):
            raise DomainError(f"{name} must be a list, got {type(raw).__name__}")
    num_vars = ambient + 1
    if num_vars < 2:
        raise DomainError("ambient dimension must be at least 1")

    def one(entry):
        if isinstance(entry, str):
            return parse_poly(entry, num_vars)
        return poly_from_json(entry)

    v = build_variety([one(e) for e in variety_raw], num_vars=num_vars)
    fam = build_family(v, [one(e) for e in family_raw])
    return v, fam
