"""Buchberger engine: reduced bases, normal forms, dimension, degree, Hilbert data.

Bases, normal forms and Hilbert data are exact rational arithmetic.
Dimensions come out of the leading-term ideal combinatorially, so no primary
decomposition or radical computation is ever needed.

`projective_dimension` is the one place that answers "what is dim V(gens)?".
It first runs a lean Buchberger loop over the integers mod MODULUS.  For
integer generators the Macaulay matrix has rank mod p at most its rank over Q
in every degree, so H_p(u) >= H_Q(u) and dim_p >= dim_Q.  An EMPTY answer mod
p is therefore EMPTY over Q, and a dim_p equal to a proven lower bound is the
exact dimension.  Every other query falls back to the exact basis over Q.

The on-disk cache holds one record kind under versioned keys: the settled
dimensions of `projective_dimension`.  Reduced bases are never cached.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from . import __version__
from .errors import DomainError
from .polyring import (
    EmptyInput,
    HomoPoly,
    grevlex_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    poly_to_json,
)


class MixedAmbient(DomainError):
    code = "MixedAmbient"


class _EmptySentinel:
    """Dimension marker for the empty projective set (dim = -infinity)."""

    __slots__ = ()

    def __repr__(self):
        return "EMPTY"

    def __reduce__(self):
        # copies and pickles resolve to the one module-level EMPTY
        return "EMPTY"


EMPTY = _EmptySentinel()


def dim_at_most(dim, bound) -> bool:
    """True when a dimension is EMPTY or at most `bound`."""
    return dim is EMPTY or dim <= bound


# ---------------------------------------------------------------------------
# monomial orders

@dataclass(frozen=True, slots=True)
class MonomialOrder:
    """Total multiplicative monomial order; larger key means larger monomial."""

    kind: str
    weights: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "weighted"):
            raise DomainError(f"unknown monomial order kind {self.kind!r}")
        if self.kind == "weighted":
            if self.weights is None:
                raise DomainError("weighted order needs a weight vector")
            weights = tuple(Fraction(w) for w in self.weights)
            if any(w < 0 for w in weights):
                raise DomainError("weights must be non-negative")
            object.__setattr__(self, "weights", weights)
        elif self.weights is not None:
            raise DomainError(f"{self.kind} order takes no weights")

    def key(self, mono):
        if self.kind == "grevlex":
            return grevlex_key(mono)
        if self.kind == "lex":
            return tuple(mono)
        if len(mono) != len(self.weights):
            raise MixedAmbient(
                f"monomial has {len(mono)} variables, weight vector has {len(self.weights)}")
        wdeg = sum(w * e for w, e in zip(self.weights, mono))
        return (wdeg, grevlex_key(mono))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def weighted_order(weights) -> MonomialOrder:
    return MonomialOrder("weighted", weights)


def leading_monomial(p: HomoPoly, order: MonomialOrder):
    return max(p.terms, key=order.key)


# ---------------------------------------------------------------------------
# division

def _reduce_terms(terms, reducers, order):
    """Full remainder of a term dict modulo (lm, lc, terms) reducer triples."""
    work = dict(terms)
    remainder = {}
    while work:
        mono = max(work, key=order.key)
        coef = work.pop(mono)
        if coef == 0:
            continue
        hit = None
        for lm, lc, tms in reducers:
            if mono_divides(lm, mono):
                hit = (lm, lc, tms)
                break
        if hit is None:
            remainder[mono] = coef
            continue
        lm, lc, tms = hit
        shift = mono_div(mono, lm)
        factor = coef / lc
        for gm, gc in tms.items():
            if gm == lm:
                continue
            mm = mono_mul(gm, shift)
            nv = work.get(mm, Fraction(0)) - factor * gc
            if nv == 0:
                work.pop(mm, None)
            else:
                work[mm] = nv
    return remainder


def s_polynomial(f: HomoPoly, g: HomoPoly, order: MonomialOrder) -> HomoPoly:
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    big = mono_lcm(lmf, lmg)
    a = f.mul_term(mono_div(big, lmf), 1 / f.terms[lmf])
    b = g.mul_term(mono_div(big, lmg), 1 / g.terms[lmg])
    return a - b


def _s_terms(red_f, red_g, big):
    """Term dict of the S-polynomial of two (lm, lc, terms) reducer triples.

    `big` is the lcm of the two leads.  Equals `s_polynomial(f, g).terms`
    without building any intermediate HomoPoly; the leads cancel exactly.
    """
    lmf, lcf, tf = red_f
    lmg, lcg, tg = red_g
    shift = mono_div(big, lmf)
    out = {mono_mul(m, shift): c / lcf for m, c in tf.items() if m != lmf}
    shift = mono_div(big, lmg)
    for m, c in tg.items():
        if m == lmg:
            continue
        mm = mono_mul(m, shift)
        v = out.get(mm, 0) - c / lcg
        if v:
            out[mm] = v
        else:
            del out[mm]
    return out


# ---------------------------------------------------------------------------
# Groebner bases

@dataclass(frozen=True, slots=True)
class GroebnerBasis:
    """Reduced basis plus its order; immutable, safe to share across threads."""

    generators: tuple
    order: MonomialOrder
    reduced: bool = field(compare=False)
    num_vars: int
    leading_monomials: tuple = field(init=False, repr=False, compare=False)
    _reducers: tuple = field(init=False, repr=False, compare=False)
    _hilbert: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        for g in gens:
            if g.nvars != self.num_vars:
                raise MixedAmbient(f"generator in {g.nvars} variables, ambient has {self.num_vars}")
        lead = tuple(leading_monomial(g, self.order) for g in gens)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "leading_monomials", lead)
        object.__setattr__(self, "_reducers",
                           tuple((lm, g.terms[lm], g.terms) for lm, g in zip(lead, gens)))
        object.__setattr__(self, "_hilbert", {})


def normal_form(p: HomoPoly, gb: GroebnerBasis) -> HomoPoly:
    if p.nvars != gb.num_vars:
        raise MixedAmbient(f"polynomial in {p.nvars} variables, basis in {gb.num_vars}")
    if p.is_zero or not gb.generators:
        return p
    return HomoPoly._trusted(p.nvars, _reduce_terms(p.terms, gb._reducers, gb.order))


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def _ring_size(gens, num_vars):
    sizes = {g.nvars for g in gens}
    if num_vars is not None:
        sizes.add(num_vars)
    if len(sizes) > 1:
        raise MixedAmbient(f"generators live in different ambient rings: {sorted(sizes)}")
    if not sizes:
        raise EmptyInput("no generators and no ambient size given")
    return sizes.pop()


def groebner_basis(gens: Sequence[HomoPoly], order: MonomialOrder,
                   num_vars: Optional[int] = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>, deterministic for fixed input."""
    nv = _ring_size(gens, num_vars)
    basis = [g.content_free() for g in gens if not g.is_zero]
    lms = [leading_monomial(g, order) for g in basis]
    reducers = [(lm, g.terms[lm], g.terms) for lm, g in zip(lms, basis)]
    # normal selection: a heap of (lcm key, i, j, lcm), each key computed once
    # when the pair is formed; it pops in the order of the smallest key with
    # ties broken by (i, j).  `pending` mirrors the heap for the chain criterion.
    queue = []
    for j in range(len(basis)):
        for i in range(j):
            big = mono_lcm(lms[i], lms[j])
            queue.append((order.key(big), i, j, big))
    heapq.heapify(queue)
    pending = {(i, j) for _, i, j, _ in queue}
    counts = Counter(pairs=len(queue))
    while queue:
        _, i, j, big = heapq.heappop(queue)
        pending.discard((i, j))
        if big == mono_mul(lms[i], lms[j]):
            counts["coprime"] += 1
            continue
        if any(k != i and k != j and mono_divides(lms[k], big)
               and _pair(i, k) not in pending and _pair(j, k) not in pending
               for k in range(len(basis))):
            counts["chain"] += 1
            continue
        red = _reduce_terms(_s_terms(reducers[i], reducers[j], big), reducers, order)
        if not red:
            counts["zero"] += 1
            continue
        h = HomoPoly._trusted(nv, red).content_free()
        lm = leading_monomial(h, order)
        new = len(basis)
        for k in range(new):
            big = mono_lcm(lms[k], lm)
            heapq.heappush(queue, (order.key(big), k, new, big))
            pending.add((k, new))
        counts["pairs"] += new
        counts["generators"] += 1
        basis.append(h)
        lms.append(lm)
        reducers.append((lm, h.terms[lm], h.terms))
    PAIR_COUNTS.update(counts)

    # minimalize: ascending scan keeps only generators with undominated leads
    basis.sort(key=lambda g: order.key(leading_monomial(g, order)))
    minimal = []
    min_lms = []
    for g in basis:
        lm = leading_monomial(g, order)
        if not any(mono_divides(m, lm) for m in min_lms):
            minimal.append(g)
            min_lms.append(lm)

    # interreduce: leads are pairwise underivable so one full pass suffices
    for idx in range(len(minimal)):
        others = [(min_lms[k], minimal[k].terms[min_lms[k]], minimal[k].terms)
                  for k in range(len(minimal)) if k != idx]
        minimal[idx] = HomoPoly._trusted(nv, _reduce_terms(minimal[idx].terms, others, order))
    monic = [g.scale(1 / g.terms[leading_monomial(g, order)]) for g in minimal]
    monic.sort(key=lambda g: order.key(leading_monomial(g, order)))
    return GroebnerBasis(monic, order, True, nv)


# ---------------------------------------------------------------------------
# dimension / Hilbert data

def _cone_dimension(lead_monomials, num_vars):
    """Krull dimension of the affine cone cut out by the leading-term ideal.

    Largest variable subset S with no leading monomial supported inside S;
    -1 flags the unit ideal.
    """
    if any(mono_degree(m) == 0 for m in lead_monomials):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead_monomials]
    for size in range(num_vars, 0, -1):
        for sub in combinations(range(num_vars), size):
            sset = frozenset(sub)
            if not any(sup <= sset for sup in supports):
                return size
    return 0


def hilbert_function(gb: GroebnerBasis, u: int) -> int:
    """Count of degree-u monomials outside the leading-term ideal."""
    if u < 0:
        raise DomainError(f"degree must be non-negative, got {u}")
    cache = gb._hilbert
    if u in cache:
        return cache[u]
    ambient = gb.num_vars - 1
    lms = gb.leading_monomials
    total = 0

    def dfs(start, cur, sign):
        nonlocal total
        deg = mono_degree(cur)
        if deg > u:
            return  # every superset lcm is at least this large
        total += sign * comb(ambient + u - deg, ambient)
        for k in range(start, len(lms)):
            dfs(k + 1, mono_lcm(cur, lms[k]), -sign)

    dfs(0, (0,) * gb.num_vars, 1)
    cache[u] = total
    return total


# Most degree-u monomials one enumeration may list.  There are
# comb(num_vars - 1 + u, num_vars - 1) of them; a larger count is refused
# before the first one is made.
MAX_STANDARD_MONOMIALS = 10 ** 6


class MonomialBudgetExceeded(DomainError):
    code = "MonomialBudgetExceeded"


def _all_monomials(num_vars, u):
    """Every degree-u monomial in num_vars variables, lexicographically descending."""
    count = comb(num_vars - 1 + u, num_vars - 1)
    if count > MAX_STANDARD_MONOMIALS:
        raise MonomialBudgetExceeded(
            f"{count} monomials of degree {u} in {num_vars} variables exceed the budget "
            f"of {MAX_STANDARD_MONOMIALS}")
    return _monomials(num_vars, u)


def _monomials(num_vars, u):
    if num_vars == 1:
        yield (u,)
        return
    for head in range(u, -1, -1):
        for tail in _monomials(num_vars - 1, u - head):
            yield (head,) + tail


def standard_monomials(gb: GroebnerBasis, u: int):
    """Degree-u monomial basis of the quotient, order-descending."""
    if u < 0:
        raise DomainError(f"degree must be non-negative, got {u}")
    lms = gb.leading_monomials
    out = [m for m in _all_monomials(gb.num_vars, u)
           if not any(mono_divides(lm, m) for lm in lms)]
    out.sort(key=gb.order.key, reverse=True)
    return out


class IdealProfile:
    """Projective dimension plus lazily interpolated degree for one basis."""

    __slots__ = ("gb", "projective_dimension", "_degree")

    def __init__(self, gb: GroebnerBasis):
        self.gb = gb
        self.projective_dimension = _dimension_of_leads(gb.leading_monomials, gb.num_vars)
        self._degree = None

    @property
    def degree(self):
        """Normalized leading Hilbert coefficient; None for the empty set."""
        if self.projective_dimension is EMPTY:
            return None
        if self._degree is None:
            self._degree = _interpolated_degree(self.gb, self.projective_dimension)
        return self._degree

    def __repr__(self):
        return f"IdealProfile(dim={self.projective_dimension!r})"


def _interpolated_degree(gb: GroebnerBasis, dim: int) -> int:
    # beyond the lcm degrees every inclusion-exclusion binomial is a true
    # polynomial in u, so H agrees with its Hilbert polynomial from s0 on;
    # the stability window is a belt-and-braces check on top of that bound
    s0 = max(0, sum(mono_degree(m) for m in gb.leading_monomials) - (gb.num_vars - 1))
    window = []
    s = s0
    while s <= s0 + 60:
        diff = sum((-1) ** (dim - k) * comb(dim, k) * hilbert_function(gb, s + k)
                   for k in range(dim + 1))
        window.append(diff)
        if len(window) >= 3 and window[-1] == window[-2] == window[-3]:
            if window[-1] <= 0:
                raise DomainError("Hilbert leading coefficient not positive")
            return window[-1]
        s += 1
    raise DomainError("Hilbert polynomial fit did not stabilize")


def ideal_profile(gb: GroebnerBasis) -> IdealProfile:
    return IdealProfile(gb)


# ---------------------------------------------------------------------------
# certified dimensions: a mod-p pass, settled by a proven lower bound

# largest prime below 2^30, so residues and their products stay small ints
MODULUS = 1073741789
# How each projective_dimension query was settled: "cached", "modp" or "exact".
DIMENSION_COUNTS = Counter()
# Work of the Buchberger loop over Q, summed over groebner_basis runs: "pairs"
# formed, pairs skipped as "coprime" or by the "chain" criterion, S-polynomials
# reduced to "zero", and new "generators".
PAIR_COUNTS = Counter()

# Monomials in the mod-p loop are exponent fields packed into one int, x_0 in
# the lowest field.  For two monomials of one degree the smaller packed int is
# the larger one in grevlex, monomial products are sums, and the spare top bit
# of every field lets one subtraction test divisibility.
_FIELD_BITS = 16
_FIELD_TOP = 1 << (_FIELD_BITS - 1)


def _modp_lead_monomials(polys, num_vars):
    """Leading monomials of a grevlex Groebner basis of <polys> mod MODULUS.

    `polys` are dicts from exponent tuple to int.  Returns None when a degree
    would overflow a packed field; the caller then has no mod-p answer.
    """
    p = MODULUS
    shifts = [_FIELD_BITS * i for i in range(num_vars)]
    guard = sum(_FIELD_TOP << s for s in shifts)
    leads = []      # packed leading monomial of each basis element
    lead_exps = []  # the same as exponent tuples
    tails = []      # the rest of each monic element, as (monomial, -coefficient)
    pairs = []      # heap of (lcm degree, packed lcm, i, j)
    pending = set()

    def pack(mono):
        return sum(e << s for e, s in zip(mono, shifts))

    def reduce(work):
        rest = {}
        while work:
            mono = min(work)
            coef = work.pop(mono)
            probe = mono | guard
            for lead, tail in zip(leads, tails):
                if (probe - lead) & guard == guard:
                    shift = mono - lead
                    for t, neg in tail:
                        t += shift
                        v = (work.get(t, 0) + coef * neg) % p
                        if v:
                            work[t] = v
                        else:
                            del work[t]
                    break
            else:
                rest[mono] = coef
        return rest

    def add(poly):
        lead = min(poly)
        inv = pow(poly[lead], -1, p)
        exps = tuple((lead >> s) & (_FIELD_TOP - 1) for s in shifts)
        new = len(leads)
        for j, other in enumerate(lead_exps):
            lcm = tuple(a if a > b else b for a, b in zip(exps, other))
            heapq.heappush(pairs, (sum(lcm), pack(lcm), j, new))
            pending.add((j, new))
        leads.append(lead)
        lead_exps.append(exps)
        tails.append([(m, (-c * inv) % p) for m, c in poly.items() if m != lead])

    for poly in polys:
        if sum(next(iter(poly))) >= _FIELD_TOP:
            return None
        rest = reduce({pack(m): c % p for m, c in poly.items() if c % p})
        if rest:
            add(rest)
    while pairs:
        degree, lcm, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if degree >= _FIELD_TOP:
            return None
        if all(a == 0 or b == 0 for a, b in zip(lead_exps[i], lead_exps[j])):
            continue  # coprime leading monomials
        probe = lcm | guard
        if any(k != i and k != j and (probe - leads[k]) & guard == guard
               and _pair(i, k) not in pending and _pair(j, k) not in pending
               for k in range(len(leads))):
            continue  # chain criterion
        # S-polynomial of two monic elements: the leads cancel, the tails remain
        work = {t + lcm - leads[i]: p - neg for t, neg in tails[i]}
        shift = lcm - leads[j]
        for t, neg in tails[j]:
            t += shift
            v = (work.get(t, 0) + neg) % p
            if v:
                work[t] = v
            else:
                del work[t]
        rest = reduce(work)
        if rest:
            add(rest)
    return lead_exps


def _dimension_of_leads(lead_monomials, num_vars):
    cone = _cone_dimension(lead_monomials, num_vars)
    return EMPTY if cone <= 0 else cone - 1


def projective_dimension(gens: Sequence[HomoPoly], num_vars: Optional[int] = None,
                         lower: Optional[int] = None):
    """Projective dimension of V(gens) over Q, or EMPTY.

    `lower`, when given, must be a proven lower bound on the answer, such as
    dim W - 1 for V(gens) = W cut by one more hypersurface (Hartshorne I.7.2).
    The mod-p dimension is an upper bound, so it is the answer when it is
    EMPTY or equals `lower`; otherwise the reduced basis over Q decides.
    Settled dimensions are cached as dimension records.
    """
    nv = _ring_size(gens, num_vars)
    basis = [g.content_free() for g in gens if not g.is_zero]
    key = cache_key(basis, nv) if _CACHE_DIR is not None else None
    dim = _cache_fetch(key)
    if dim is not None:
        DIMENSION_COUNTS["cached"] += 1
        return dim
    leads = _modp_lead_monomials(
        [{m: c.numerator for m, c in g.terms.items()} for g in basis], nv)
    dim = None if leads is None else _dimension_of_leads(leads, nv)
    if dim is not None and (dim is EMPTY or dim == lower):
        DIMENSION_COUNTS["modp"] += 1
    else:
        DIMENSION_COUNTS["exact"] += 1
        dim = ideal_profile(groebner_basis(basis, GREVLEX, num_vars=nv)).projective_dimension
    _cache_store(key, dim)
    return dim


# ---------------------------------------------------------------------------
# on-disk cache of settled dimensions

_CACHE_DIR = None
# bump when the layout of a record or the meaning of a key changes
CACHE_FORMAT = "hyperpos-cache/3"


def set_cache_dir(path: Optional[str]) -> None:
    """Enable (or with None disable) the on-disk dimension cache."""
    global _CACHE_DIR
    _CACHE_DIR = path
    if path is not None:
        os.makedirs(path, exist_ok=True)


def cache_key(gens: Sequence[HomoPoly], num_vars: int) -> str:
    payload = json.dumps(
        {
            "format": CACHE_FORMAT,
            "version": __version__,
            "vars": num_vars,
            "generators": sorted(
                json.dumps(poly_to_json(g), sort_keys=True, separators=(",", ":"))
                for g in gens
            ),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_fetch(key):
    """The dimension stored under `key`; None for a miss.

    A record repeats its own key.  A file that does not, or whose value is
    neither "EMPTY" nor a non-negative int, is a miss and gets recomputed.
    """
    if _CACHE_DIR is None or key is None:
        return None
    path = os.path.join(_CACHE_DIR, key + ".json")
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record["key"] != key:
            return None
        value = record["value"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if value == "EMPTY":
        return EMPTY
    if type(value) is not int or value < 0:
        return None
    return value


def _cache_store(key, value):
    if _CACHE_DIR is None or key is None:
        return
    # called only after a miss, so this also replaces a malformed record
    path = os.path.join(_CACHE_DIR, key + ".json")
    # json.dumps runs the C encoder; json.dump would stream through the Python one
    text = json.dumps({"key": key, "value": "EMPTY" if value is EMPTY else value},
                      sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=_CACHE_DIR, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
