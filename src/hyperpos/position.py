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

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from .errors import DomainError
from .groebner import (EMPTY, GREVLEX, groebner_basis, ideal_profile, normal_form,
                       projective_dimension)
from .polyring import EmptyInput, HomoPoly, lcm_degree, parse_poly, poly_from_json


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

class Variety:
    """Projective variety V with cached basis, dimension n and degree."""

    __slots__ = ("generators", "gb", "dim_n", "degree_delta", "num_vars")

    def __init__(self, generators, gb, dim_n, degree_delta, num_vars):
        self.generators = tuple(generators)
        self.gb = gb
        self.dim_n = dim_n
        self.degree_delta = degree_delta
        self.num_vars = num_vars

    @property
    def ambient(self):
        return self.num_vars - 1

    def __repr__(self):
        return f"Variety(n={self.dim_n}, deg={self.degree_delta}, ambient=P^{self.ambient})"


def build_variety(gens: Sequence[HomoPoly], num_vars: Optional[int] = None) -> Variety:
    gb = groebner_basis(gens, GREVLEX, num_vars=num_vars)
    prof = ideal_profile(gb)
    if prof.projective_dimension is EMPTY:
        raise EmptyVariety("ideal cuts out the empty projective set")
    if prof.projective_dimension == 0:
        raise ZeroDimensional("variety must have dimension at least 1")
    return Variety(gb.generators, gb, prof.projective_dimension, prof.degree, gb.num_vars)


class HypersurfaceFamily:
    """Hypersurfaces Q_1..Q_q, none vanishing identically on the variety."""

    __slots__ = ("members", "degrees", "lcm_d", "_memo")

    def __init__(self, members, degrees, lcm_d):
        self.members = tuple(members)
        self.degrees = tuple(degrees)
        self.lcm_d = lcm_d
        self._memo = {}

    @property
    def q(self):
        return len(self.members)

    def __repr__(self):
        return f"HypersurfaceFamily(q={self.q}, degrees={self.degrees})"


def build_family(v: Variety, members: Sequence[HomoPoly]) -> HypersurfaceFamily:
    members = tuple(members)
    if not members:
        raise EmptyInput("family needs at least one hypersurface")
    for i, m in enumerate(members):
        if m.is_zero or normal_form(m, v.gb).is_zero:
            raise VanishingMember(f"member {i} vanishes identically on the variety")
    degrees = tuple(m.degree for m in members)
    return HypersurfaceFamily(members, degrees, lcm(*degrees) if len(degrees) > 1 else degrees[0])


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

class DistributiveReport:
    __slots__ = ("delta", "witness", "per_subset")

    def __init__(self, delta, witness, per_subset):
        self.delta = delta
        self.witness = witness
        self.per_subset = per_subset

    def __repr__(self):
        return f"DistributiveReport(delta={self.delta}, witness={self.witness})"


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

class PositionClass:
    __slots__ = ("l_value", "general_position", "kappa", "t_vector")

    def __init__(self, l_value, general_position, kappa, t_vector):
        self.l_value = l_value
        self.general_position = general_position
        self.kappa = kappa
        self.t_vector = t_vector

    def __repr__(self):
        return (f"PositionClass(l={self.l_value}, general={self.general_position}, "
                f"kappa={self.kappa}, t={self.t_vector})")


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


class BoundSet:
    __slots__ = ("subgeneral", "t_vector", "index")

    def __init__(self, subgeneral, t_vector, index):
        self.subgeneral = subgeneral
        self.t_vector = t_vector
        self.index = index

    def __repr__(self):
        return f"BoundSet(subgeneral={self.subgeneral}, t={self.t_vector}, index={self.index})"


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

class DimensionProfile:
    __slots__ = ("ordering", "t_values", "l_value", "prefix_dims")

    def __init__(self, ordering, t_values, l_value, prefix_dims):
        self.ordering = ordering
        self.t_values = t_values
        self.l_value = l_value
        self.prefix_dims = prefix_dims

    def __repr__(self):
        return f"DimensionProfile(t={self.t_values}, l={self.l_value})"


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

    def below(dim, bound):
        return dim is EMPTY or dim <= bound

    t_values = [0]
    for u in range(1, n + 1):
        t_u = next(s for s in range(len(prefix_dims)) if below(prefix_dims[s], n - u - 1))
        t_values.append(t_u)
    if t_values[0] != 0 or any(a >= b for a, b in zip(t_values, t_values[1:])):
        raise ProfileInvalid(f"prefix dimensions do not step correctly: {prefix_dims}")
    if not below(prefix_dims[0], n - 1):
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
