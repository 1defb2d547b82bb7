"""Variety-plus-family configurations and their position invariants.

The distributive constant, position classes, and dimension profiles all
reduce to projective dimensions of subset intersections, which
`meet_dimensions` answers in batches, for the replacement search and
`weights` too, always over Q.  Subset dimensions are memoized per family,
and the memo bounds every subset S it does not hold yet: dim S lies in an
interval [lo, hi] read off the memoized immediate subsets and supersets of S
(`_interval`).  A subset whose interval closes is settled with no query; any
other is asked with `lower = lo`, which lets its mod-p pass settle it.
`delta` and `classify` read one walk summary (`walk_summary`): for each size
m with a non-void subset, D(m), the largest dimension of an m-subset, and
W(m), the lexicographically least m-subset of that dimension.  Delta is
max_m m/(n - D(m)) with witness W(m) for the least maximizing m, and the
class reads l, kappa and the t-vector off D.  With a cache directory the
summary is one record, read before any walk and stored after a walk that
completed, so a warm `delta` or `classify` walks nothing; `delta --table`
always walks.  The walk visits at most MAX_WALK_SUBSETS subsets.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .groebner import (DIMENSION_COUNTS, EMPTY, GREVLEX, dim_at_most, groebner_basis,
                       ideal_profile, normal_form, projective_dimensions, read_summary,
                       store_summary)
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

# Plain slotted classes with identity equality and hashing: the family's memo
# is keyed on the variety, and `_interval` reads q keys a subset, so value
# equality would hash every generator on every lookup.
class Variety:
    """Projective variety V with cached basis, dimension n and degree."""

    __slots__ = ("generators", "gb", "dim_n", "degree_delta", "num_vars")

    def __init__(self, generators, gb, dim_n, degree_delta, num_vars):
        self.generators = generators
        self.gb = gb
        self.dim_n = dim_n
        self.degree_delta = degree_delta
        self.num_vars = num_vars

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


class HypersurfaceFamily:
    """Hypersurfaces Q_1..Q_q, none vanishing identically on the variety."""

    __slots__ = ("members", "degrees", "lcm_d", "_memo")

    def __init__(self, members, degrees, lcm_d):
        self.members = members
        self.degrees = degrees
        self.lcm_d = lcm_d
        self._memo = {}

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
    """Projective dimensions of V cut by each `polys` of the `(polys, lower)`
    queries, or EMPTY, yielded lazily in their order by one
    `projective_dimensions` batch.  `lower` is a proven lower bound, a
    zero-argument callable returning one, or None for n - len(polys): each
    member cuts at most one dimension (Hartshorne I.7.2)."""
    gens = list(v.generators)
    return projective_dimensions([(gens + list(polys), v.dim_n - len(polys) if lower is None
                                   else lower) for polys, lower in queries], v.num_vars)


def meet_dimension(v: Variety, polys: Sequence[HomoPoly]):
    """Projective dimension of V cut by `polys`, or EMPTY: a batch of one."""
    return next(meet_dimensions(v, [(polys, None)]))


def _interval(v, fam, idxs):
    """[lo, hi] on dim S, S = V cut by the members `idxs`, off the memoized
    S - {i} and S + {j}.  A member cuts at most one dimension (Hartshorne
    I.7.2) and never raises one, so with EMPTY read as -1,
    lo = max(n - |S|, dim(S - {i}) - 1, dim(S + {j})) and
    hi = min(n, dim(S + {j}) + 1); hi is EMPTY under a void S - {i}."""
    memo, n = fam._memo, v.dim_n
    below = [memo.get((v, idxs - {i})) for i in idxs]
    if any(dim is EMPTY for dim in below):
        return n - len(idxs), EMPTY
    above = [memo.get((v, idxs | {j})) for j in range(fam.q) if j not in idxs]
    above = [-1 if dim is EMPTY else dim for dim in above if dim is not None]
    return (max([n - len(idxs)] + [dim - 1 for dim in below if dim is not None] + above),
            min([n] + [dim + 1 for dim in above]))


def _settle(v, fam, idxs):
    """Memoize S when its interval closes, EMPTY when hi is, and lo = hi
    counted "inferred"; the lo of an open interval, or None when S is known."""
    if (v, idxs) in fam._memo:
        return None
    lo, hi = _interval(v, fam, idxs)
    if hi is not EMPTY and lo != hi:
        return lo
    fam._memo[v, idxs] = hi
    if lo == hi:
        DIMENSION_COUNTS["inferred"] += 1


def _subset_dims(v, fam, subsets):
    """Memoized dimensions of V cut by each frozenset of member indices in
    `subsets`, yielded lazily in order.  One not memoized is settled, or asked
    with `lower = lo`; the asked ones are one `meet_dimensions` batch."""
    memo, lowers = fam._memo, {}
    for idxs in subsets:
        if (lo := _settle(v, fam, idxs)) is not None:
            lowers[idxs] = lo
    dims = meet_dimensions(v, [([fam.members[i] for i in sorted(idxs)], lo)
                               for idxs, lo in lowers.items()])
    for idxs in subsets:
        if (v, idxs) not in memo:
            memo[v, idxs] = next(dims)
        yield memo[v, idxs]


def intersection_dimension(v: Variety, fam: HypersurfaceFamily, subset):
    """Projective dimension of V meet the named members, or EMPTY."""
    return next(_subset_dims(v, fam, [_validate_subset(fam, subset)]))


# ---------------------------------------------------------------------------
# the non-void subset walk

def _nonvoid_subsets(v, fam):
    """Yield (combo, dim) for the non-void subsets, by size, then lexicographically.

    A size-(k+1) candidate extends a non-void k-set c by some j > max(c) and
    is kept only when its k-subsets holding j are non-void too (the Apriori
    candidate rule); extending the k-sets in order keeps each level sorted,
    and a level is one `_subset_dims` batch.  A subset of full dimension n
    (its members vanish on a component of V) ends its level, and `delta`
    refuses it; the next level then scans every combination, one at a time.
    No subset after a cut is asked.  With no cut at level 1 and 2 <= n < q,
    levels 2..n+1 hold every combination: they are counted against the
    budget, and level n + 1 is asked before level 2 (`_ask_top_level`).
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

    n, level, cut = v.dim_n, [()], False
    for size in range(1, fam.q + 1):
        if size == 2 and not cut and 2 <= n < fam.q:
            # levels 2..n+1 hold every combination: count them before any query;
            # the walk below visits them again
            list(visit(c for k in range(2, n + 2) for c in combinations(range(fam.q), k)))
            visited = fam.q
            _ask_top_level(v, fam)
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
                if dim == n:
                    cut = True
                    break
        if not level:
            return


def _ask_top_level(v, fam):
    """Ask every (n+1)-subset as one batch, then settle levels n..2 downward,
    each off the level above.  A top subset asks its proper subsets, bottom-up,
    for its bound only when its mod-p pass answers a dimension."""
    n, memo = v.dim_n, fam._memo

    def asked_bound(idxs):
        for size in range(2, n + 1):
            list(_subset_dims(v, fam, [frozenset(c) for c in combinations(sorted(idxs), size)]))
        return _interval(v, fam, idxs)[0]

    tops = [s for s in map(frozenset, combinations(range(fam.q), n + 1)) if (v, s) not in memo]
    dims = meet_dimensions(v, [([fam.members[i] for i in sorted(s)], lambda s=s: asked_bound(s))
                               for s in tops])
    for idxs, dim in zip(tops, dims):
        memo[v, idxs] = dim
    for size in range(n, 1, -1):
        for idxs in map(frozenset, combinations(range(fam.q), size)):
            _settle(v, fam, idxs)


# ---------------------------------------------------------------------------
# the walk summary: delta and classify

class WalkSummary(NamedTuple):
    """D(m) = `max_dims[m - 1]`, the largest dimension of a non-void m-subset,
    and W(m) = `witnesses[m - 1]`, the lexicographically least m-subset of
    dimension D(m), for each size m = 1..l that has a non-void subset."""
    max_dims: tuple
    witnesses: tuple


def walk_summary(v: Variety, fam: HypersurfaceFamily, bounded: bool = False,
                 table: Optional[list] = None) -> WalkSummary:
    """The family's summary: its cache record when one holds it, else one walk.

    A completed walk stores the record.  With `bounded` the walk stops at its
    first subset of dimension n, which is a singleton (its members each cut
    V in dimension n), and the summary so far, with D(1) = n, is not stored.
    A `table` list gets every (combo, dim) of the walk; the record is then
    neither read nor written.
    """
    key = None
    if table is None:
        key, text = read_summary(v.generators, fam.members, v.num_vars, MAX_WALK_SUBSETS)
        summary = _decode_summary(text, v.dim_n, fam.q)
        if summary is not None:
            return summary
    dims, witnesses = [], []
    for combo, dim in _nonvoid_subsets(v, fam):
        if table is not None:
            table.append((combo, dim))
        if len(combo) > len(dims):
            dims.append(dim)
            witnesses.append(combo)
        elif dim > dims[-1]:
            dims[-1], witnesses[-1] = dim, combo
        if bounded and dim == v.dim_n:
            return WalkSummary(tuple(dims), tuple(witnesses))
    summary = WalkSummary(tuple(dims), tuple(witnesses))
    if key is not None:
        store_summary(key, _encode_summary(summary))
    return summary


def _encode_summary(summary):
    """The record's text: "D(m):W(m)" per size, sizes joined by ";"."""
    return ";".join(f"{dim}:{','.join(map(str, combo))}"
                    for dim, combo in zip(summary.max_dims, summary.witnesses))


def _decode_summary(text, n, q):
    """The summary of a record, or None when there is no record or it is not
    one the walk could store for q members on a V of dimension n: the
    canonical text of sizes 1..l <= q, D non-increasing in 0..n, each W(m) an
    increasing m-tuple of indices below q."""
    if type(text) is not str:
        return None
    try:
        levels = [level.split(":") for level in text.split(";")]
        dims = tuple(int(dim) for dim, _ in levels)
        witnesses = tuple(tuple(map(int, combo.split(","))) for _, combo in levels)
    except ValueError:
        return None
    summary = WalkSummary(dims, witnesses)
    if (len(dims) > q or _encode_summary(summary) != text
            or any(not 0 <= d <= n for d in dims)
            or any(a < b for a, b in zip(dims, dims[1:]))
            or any(len(combo) != m or list(combo) != sorted(set(combo))
                   or not 0 <= combo[0] <= combo[-1] < q
                   for m, combo in enumerate(witnesses, 1))):
        return None
    return summary


class DistributiveReport(NamedTuple):
    delta: Fraction
    witness: tuple
    per_subset: Optional[dict]


def distributive_constant(v: Variety, fam: HypersurfaceFamily,
                          include_table: bool = False) -> DistributiveReport:
    """Exact distributive constant with a deterministic maximizing witness.

    Delta = max_m m/(n - D(m)) over the walk summary; the witness is W(m) for
    the least m that attains it, the smallest, then lexicographically least,
    maximizing subset.  `include_table` walks, for the ratio of every
    non-void subset.
    """
    n = v.dim_n
    table = [] if include_table else None
    summary = walk_summary(v, fam, bounded=True, table=table)
    if summary.max_dims[0] == n:
        # a member vanishes on a whole component: Def 3.3's ratio
        # has no finite value, so surface it instead of guessing
        raise UnboundedRatio(
            f"subset {summary.witnesses[0]} meets the variety in dimension {n}, not below {n}")
    ratios = [Fraction(m, n - dim) for m, dim in enumerate(summary.max_dims, 1)]
    best = max(ratios)
    per_subset = None if table is None else {
        combo: (len(combo), dim, Fraction(len(combo), n - dim)) for combo, dim in table}
    return DistributiveReport(best, summary.witnesses[ratios.index(best)], per_subset)


class PositionClass(NamedTuple):
    l_value: Optional[int]
    general_position: bool
    kappa: int
    t_vector: tuple


def classify_position(v: Variety, fam: HypersurfaceFamily) -> PositionClass:
    n = v.dim_n
    # D(m) of the walk summary; a size with no non-void subset is left out
    # and reads as -1, below every dimension compared
    max_dims = dict(enumerate(walk_summary(v, fam).max_dims, 1))
    s_max = len(max_dims)  # size 1 always present
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
    sub = idx = None
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
