"""Variety-plus-family configurations and their position invariants.

The distributive constant, position classes, and dimension profiles all
reduce to projective dimensions of subset intersections.  `meet_dimensions`
answers a batch of them, for the replacement search and `weights` too, with
V's generators and the proven lower bounds that let the mod-p pass settle
each answer, always the answer over Q.  Subset dimensions are memoized per
family.  `delta` and `classify` share one walk over the non-void subsets,
which are down-closed: a set is visited only when its immediate subsets
S - {i} are all non-void and memoized, each tightening the bound.  A level is
one batch.  A subset of full dimension n ends its level, and the next level
scans every combination one at a time.  The walk visits at most MAX_WALK_SUBSETS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .groebner import (EMPTY, GREVLEX, GroebnerBasis, dim_at_most, groebner_basis,
                       ideal_profile, normal_form, projective_dimensions)
from .polyring import (ConstantMember, EmptyInput, HomoPoly, int_from_json, lcm_degree,
                       polys_from_json)


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


MAX_WALK_SUBSETS = 2 ** 14 - 1


# ---------------------------------------------------------------------------
# configuration types

# Identity equality and hashing: `_subset_dims` keys its memo on the variety,
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


def meet_dimensions(v: Variety, queries):
    """Projective dimensions of V cut by each `polys` of the `(polys, parents)`
    queries, or EMPTY, yielded lazily in their order.

    Each member cuts at most one dimension (Hartshorne I.7.2), so an answer is
    at least n - len(polys), and d - 1 for each known d in `parents`, the
    dimensions of V cut by all but one of `polys`.  A void parent makes it
    EMPTY with no query; the other queries go to `projective_dimensions` as
    one batch.
    """
    void, batch = [], []
    for polys, parents in queries:
        void.append(any(parent is EMPTY for parent in parents))
        if not void[-1]:
            lower = max([v.dim_n - len(polys)] + [d - 1 for d in parents if d is not None])
            batch.append((list(v.generators) + list(polys), lower if lower >= 0 else None))
    dims = projective_dimensions(batch, v.num_vars)
    for is_void in void:
        yield EMPTY if is_void else next(dims)


def meet_dimension(v: Variety, polys: Sequence[HomoPoly], parents=()):
    """Projective dimension of V cut by `polys`, or EMPTY: a batch of one."""
    return next(meet_dimensions(v, [(polys, parents)]))


def _subset_dims(v, fam, subsets):
    """Memoized dimensions of V cut by each frozenset of member indices in
    `subsets`, yielded lazily in order; the ones not memoized yet are one
    `meet_dimensions` batch, with the memoized immediate subsets as parents."""
    memo = fam._memo
    todo = [idxs for idxs in dict.fromkeys(subsets) if (v, idxs) not in memo]
    dims = meet_dimensions(v, [([fam.members[i] for i in sorted(idxs)],
                                [memo.get((v, idxs - {i})) for i in idxs]) for idxs in todo])
    for idxs in subsets:
        if (v, idxs) not in memo:
            memo[v, idxs] = next(dims)
        yield memo[v, idxs]


def intersection_dimension(v: Variety, fam: HypersurfaceFamily, subset):
    """Projective dimension of V meet the named members, or EMPTY."""
    return next(_subset_dims(v, fam, [_validate_subset(fam, subset)]))


# ---------------------------------------------------------------------------
# distributive constant

class DistributiveReport(NamedTuple):
    delta: Fraction
    witness: tuple
    per_subset: Optional[dict]


def _nonvoid_subsets(v, fam):
    """Yield (combo, dim) for the non-void subsets, by size, then lexicographically.

    A size-(k+1) candidate extends a non-void k-set c by some j > max(c) and
    is kept only when its k-subsets holding j are non-void too (the Apriori
    candidate rule); extending the k-sets in order keeps each level sorted.
    A subset of full dimension n (its members vanish on a component of V)
    ends its level: no subset of its size can pass it, and `delta` refuses
    it.  That level is then only partly known, so the next one scans every
    combination, lazily, and void immediate subsets settle what they can.
    A fully known level is asked as one `_subset_dims` batch; the lazy scan
    asks one subset at a time.  Either way no subset after a cut is asked.
    """
    visited = 0

    def visit(combos):
        nonlocal visited
        for combo in combos:
            visited += 1
            if visited > MAX_WALK_SUBSETS:
                raise SubsetCapExceeded(
                    f"the subset walk would visit more than {MAX_WALK_SUBSETS} "
                    f"subsets by size {len(combo)}")
            yield combo

    level, cut = [()], False
    for size in range(1, fam.q + 1):
        if cut:
            found = ((c, intersection_dimension(v, fam, c))
                     for c in visit(combinations(range(fam.q), size)))
        else:
            nonvoid = set(level)
            candidates = list(visit(
                c + (j,) for c in level for j in range(c[-1] + 1 if c else 0, fam.q)
                if all(c[:i] + c[i + 1:] + (j,) in nonvoid for i in range(len(c)))))
            found = zip(candidates, _subset_dims(v, fam, [frozenset(c) for c in candidates]))
        level, cut = [], False
        for combo, dim in found:
            if dim is not EMPTY:
                level.append(combo)
                yield combo, dim
                if dim == v.dim_n:
                    cut = True
                    break
        if not level:
            return


def distributive_constant(v: Variety, fam: HypersurfaceFamily,
                          include_table: bool = False) -> DistributiveReport:
    """Exact distributive constant with a deterministic maximizing witness.

    Void subsets carry dim = -infinity and are left out of the max; ties
    go to the smallest subset, then the lexicographically least one.
    """
    n = v.dim_n
    best = None
    witness = None
    table = {} if include_table else None
    for combo, dim in _nonvoid_subsets(v, fam):
        drop = n - dim
        if drop <= 0:
            # a member vanishes on a whole component: Def 3.3's ratio
            # has no finite value, so surface it instead of guessing
            raise UnboundedRatio(
                f"subset {combo} meets the variety in dimension {dim}, not below {n}")
        ratio = Fraction(len(combo), drop)
        if table is not None:
            table[combo] = (len(combo), dim, ratio)
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


def classify_position(v: Variety, fam: HypersurfaceFamily) -> PositionClass:
    n = v.dim_n
    # max_dims[m]: largest dimension over the non-void size-m subsets; a size
    # with none is left out and reads as -1, below every dimension compared
    max_dims = {}
    for combo, dim in _nonvoid_subsets(v, fam):
        max_dims[len(combo)] = max(dim, max_dims.get(len(combo), 0))
    s_max = max(max_dims)  # size 1 always present
    l_value = s_max if s_max < fam.q else None
    general = l_value == n

    kappa = 0
    for m in range(1, n + 1):
        if max_dims.get(m, -1) > n - m:
            break
        kappa = m

    t_vector = tuple(max((m for m, d in max_dims.items() if d > n - s - 1), default=0)
                     for s in range(1, n + 1))
    return PositionClass(l_value, general, kappa, t_vector)


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
        dim = intersection_dimension(v, fam, order[:p])
        prefix_dims.append(dim)
        if dim is EMPTY:
            break
    if prefix_dims[-1] is not EMPTY:
        raise NeverEmpty("no prefix of the ordering voids the intersection")

    t_values = [0]
    for u in range(1, n + 1):
        t_u = next(s for s in range(len(prefix_dims)) if dim_at_most(prefix_dims[s], n - u - 1))
        t_values.append(t_u)
    if any(a >= b for a, b in zip(t_values, t_values[1:])):
        raise ProfileInvalid(f"prefix dimensions do not step correctly: {prefix_dims}")
    if not dim_at_most(prefix_dims[0], n - 1):
        raise ProfileInvalid("first member does not cut the variety to dimension n-1")
    return DimensionProfile(order, tuple(t_values), t_values[-1], tuple(prefix_dims))


# ---------------------------------------------------------------------------
# configuration input

def load_configuration(obj: dict):
    """Build (Variety, HypersurfaceFamily) from {"ambient", "variety", "family"}."""
    try:
        ambient = int_from_json(obj["ambient"], "ambient")
        variety_raw = obj["variety"]
        family_raw = obj["family"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"configuration needs ambient, variety, family: {exc}")
    num_vars = ambient + 1
    if num_vars < 2:
        raise DomainError("ambient dimension must be at least 1")
    v = build_variety(polys_from_json(variety_raw, num_vars, "variety"), num_vars=num_vars)
    fam = build_family(v, polys_from_json(family_raw, num_vars, "family"))
    return v, fam
