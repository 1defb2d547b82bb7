"""Buchberger engine: reduced bases, normal forms, dimension, degree, Hilbert data.

There is one Buchberger loop, `_buchberger`.  It works on monomials packed
into ints (`_packing`) and runs over the integers mod MODULUS or over Q; only
the coefficient arithmetic differs between the two fields.  A pair's lcm, its
degree and the coprimality test are a few int operations on guard-bit masks
(`_lcm`, `_degree`), so no exponent tuple is made in the loop.  Bases, normal
forms and Hilbert data are exact rational arithmetic, and the reduced basis
and `normal_form` share the loop's one reducer, `_reduce`.  Dimensions come
out of the leading-term ideal combinatorially, so no primary decomposition or
radical computation is ever needed: `_dimension_of_leads` reads them off the
support masks of the packed leads.  Hilbert values and degrees come from one
numerator of the leading-term ideal's Hilbert series (`_hilbert_numerator`).

`projective_dimensions` is the one place that answers "what is dim V(gens)?".
It first runs the loop over the integers mod MODULUS.  For integer generators
the Macaulay matrix has rank mod p at most its rank over Q in every degree, so
H_p(u) >= H_Q(u) and dim_p >= dim_Q.  An EMPTY answer mod p is therefore EMPTY
over Q, and a dim_p equal to a proven lower bound is the exact dimension.
The mod-p pass stops with pairs still queued once its leads that are powers
of one variable prove that answer (`_modp_dimension`); the loop over Q always
finishes.  Every other query runs the loop over Q and reads the dimension off
its leads.
A polynomial enters both passes as its primitive form, packed once per
modulus and kept on it beside its cache-key digest (`_member_terms`).

The on-disk cache is one SQLite table per cache directory.  It holds settled
dimensions, one row per versioned key.  `projective_dimensions` hashes each
key of a batch, such as a walk level, once and reads the batch's rows in one
statement per _PREFETCH_CHUNK keys; a family's walk summary is one more row
(`summary_key`).  Stores are held in memory and written by `close_cache` in
one transaction.  Reduced bases are never cached.
"""

from __future__ import annotations

import atexit
import hashlib
import heapq
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import NamedTuple, Optional, Sequence

from . import __version__
from .errors import DomainError
from .polyring import EmptyInput, HomoPoly, check_num_vars, grevlex_key, mono_degree, mono_divides


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

class MonomialOrder(NamedTuple):
    """Total multiplicative monomial order; larger key means larger monomial.

    `weights` None is grevlex; a weight vector, which `weighted_order`
    validates, ranks by weight first and breaks ties by grevlex.
    """

    weights: Optional[tuple] = None

    def key(self, mono):
        if self.weights is None:
            return grevlex_key(mono)
        if len(mono) != len(self.weights):
            raise MixedAmbient(
                f"monomial has {len(mono)} variables, weight vector has {len(self.weights)}")
        wdeg = sum(w * e for w, e in zip(self.weights, mono))
        return (wdeg, grevlex_key(mono))


GREVLEX = MonomialOrder()


def weighted_order(weights) -> MonomialOrder:
    weights = tuple(Fraction(w) for w in weights)
    if any(w < 0 for w in weights):
        raise DomainError("weights must be non-negative")
    return MonomialOrder(weights)


# ---------------------------------------------------------------------------
# packed monomials

# A monomial is packed into one int: exponent fields of _FIELD_BITS bits, x_0
# in the lowest.  For two monomials of one degree the smaller packed int is the
# larger one in grevlex, monomial products are sums, and the spare top bit of
# every field lets one subtraction test divisibility.  A weighted order adds one
# field above the exponents that holds sum c_i*e_i, c_i = (max w - w_i)*L for L
# the lcm of the weight denominators; within one degree D, w.e = D*max w -
# (c.e)/L, so that field ranks by weight first (README "How dimensions are
# computed").
_FIELD_BITS = 16
_FIELD_TOP = 1 << (_FIELD_BITS - 1)
_PACKINGS = {}


class PackedDegreeExceeded(DomainError):
    code = "PackedDegreeExceeded"

    def __init__(self, degree):
        super().__init__(f"degree {degree} exceeds the limit of {_FIELD_TOP - 1} "
                         "for a packed monomial")


def _packing(order, num_vars):
    """(multipliers, guard) of `order` in `num_vars` variables: a monomial packs
    to sum e_i*multiplier_i, and `guard` holds the top bit of every exponent field."""
    packing = _PACKINGS.get((order, num_vars))
    if packing is None:
        shifts = range(0, _FIELD_BITS * num_vars, _FIELD_BITS)
        weights = (0,) * num_vars if order.weights is None else order.weights
        if len(weights) != num_vars:
            raise MixedAmbient(
                f"monomial has {num_vars} variables, weight vector has {len(weights)}")
        scale = lcm(*(w.denominator for w in weights))
        top = max(weights)
        weight_shift = _FIELD_BITS * num_vars
        mults = tuple((1 << s) + (int((top - w) * scale) << weight_shift)
                      for s, w in zip(shifts, weights))
        packing = _PACKINGS[order, num_vars] = (mults, sum(_FIELD_TOP << s for s in shifts))
    return packing


def _pack(mono, mults):
    return sum(e * m for e, m in zip(mono, mults))


def _pack_poly(terms, mults, p):
    """Packed term dict of `terms` (exponent tuple -> coefficient) over the field
    of `p`; residues that vanish are dropped."""
    degree = sum(next(iter(terms)))
    if degree >= _FIELD_TOP:
        raise PackedDegreeExceeded(degree)
    return {_pack(m, mults): c % p for m, c in terms.items() if c % p}


def _unpack(mono, num_vars):
    return tuple((mono >> s) & (_FIELD_TOP - 1)
                 for s in range(0, _FIELD_BITS * num_vars, _FIELD_BITS))


def _lcm(a, b, guard, weighted=None):
    """Packed lcm of the packed monomials a and b: in each field the larger
    exponent.  `weighted` is the multipliers of a packing with a weight field,
    which is then recomputed; None for a packing without one."""
    # the guard bit of a field survives (a | guard) - b exactly where a's
    # exponent is at least b's, and g - (g >> 15) fills those fields below it
    g = ((a | guard) - b) & guard
    mask = g - (g >> (_FIELD_BITS - 1))
    lcm = (a & mask) | (b & ~mask)
    return lcm if weighted is None else _pack(_unpack(lcm, len(weighted)), weighted)


# 2^16 is 1 mod 2^16 - 1, so a packed int is congruent to the sum of its fields
_FIELD_SUM = (1 << _FIELD_BITS) - 1


def _degree(mono, fields):
    """Degree of the packed monomial `mono`, if it is below 2^16 - 1: the sum of
    its exponent fields, the bits of `fields`, which leave out a weight field.
    The lcm of two monomials of degree below 2^15 has degree below 2^16 - 1."""
    return (mono & fields) % _FIELD_SUM


def _support(mono, guard):
    """The guard bits of the fields where the packed monomial `mono` has a
    nonzero exponent: e + 2^15 - 1 keeps its top bit exactly when e >= 1."""
    return ((mono | guard) - (guard >> (_FIELD_BITS - 1))) & guard


class _Rationals:
    """Q as the modulus of the loop's arithmetic: `x % RATIONALS` is x."""

    __slots__ = ()

    def __rmod__(self, x):
        return x


RATIONALS = _Rationals()


def _monic(poly, p):
    """(lead, tail) of a nonempty packed term dict scaled to lead coefficient 1;
    the tail is the rest, as (monomial, -coefficient) pairs."""
    lead = min(poly)
    inv = 1 / poly[lead] if p is RATIONALS else pow(poly[lead], -1, p)
    return lead, [(m, -c * inv % p) for m, c in poly.items() if m != lead]


def _reduce(work, leads, tails, guard, p):
    """Full remainder of the packed term dict `work`, which it consumes, modulo
    the monic elements (leads[k], tails[k]); the first lead that divides wins."""
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


def _pair(a, b):
    return (a, b) if a < b else (b, a)


# Work of the Buchberger loop over Q, summed over runs: "pairs" formed, pairs
# skipped as "coprime" or by the "chain" criterion, S-polynomials reduced to
# "zero", and new "generators".
PAIR_COUNTS = Counter()


def _buchberger(polys, packing, p, stop=-1):
    """Monic Groebner basis of <polys> over Z/p, or over Q for p = RATIONALS.

    `polys` are nonempty packed term dicts, as `_pack_poly` makes them, each
    homogeneous; they are read, not changed.  Returns (leads, tails): the
    packed lead of each element and its tail as in `_monic`.  Raises
    PackedDegreeExceeded when a pair that neither the coprime test nor the
    chain criterion skips has a degree that would overflow a packed field.

    A variable is forced once some lead is a power of it alone.  The loop
    returns, with pairs still queued, as soon as at most `stop` variables are
    not forced; the elements so far are then only part of a basis.  The
    default -1 never stops, and only `_modp_dimension` passes a threshold.
    """
    mults, guard = packing
    nv = len(mults)
    fields = (1 << (_FIELD_BITS * nv)) - 1  # the exponent fields, below any weight field
    weighted = mults if any(m > fields for m in mults) else None
    leads, tails = [], []
    pairs = []      # heap of (lcm degree, packed lcm, i, j)
    pending = set()
    coprime = chain = zero = generators = 0
    forced = 0      # the single-guard-bit supports of the leads so far, ORed
    free = nv       # the variables not in `forced`

    def add(poly):
        nonlocal forced, free
        lead, tail = _monic(poly, p)
        support = _support(lead, guard)
        if not support & (support - 1):
            forced |= support
            free = nv - forced.bit_count()
        new = len(leads)
        for j, other in enumerate(leads):
            lcm = _lcm(lead, other, guard, weighted)
            # every element has a degree below 2^15, so its lcms have degrees below 2^16 - 1
            heapq.heappush(pairs, (_degree(lcm, fields), lcm, j, new))
            pending.add((j, new))
        leads.append(lead)
        tails.append(tail)

    for poly in polys:
        rest = _reduce(dict(poly), leads, tails, guard, p)
        if rest:
            add(rest)
    while pairs and free > stop:
        degree, lcm, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        # both tests hold at any lcm degree: every field of an lcm is below 2^15
        if lcm == leads[i] + leads[j]:  # the two sum to lcm + gcd, so the gcd is 1
            coprime += 1
            continue
        probe = lcm | guard
        if any(k != i and k != j and (probe - leads[k]) & guard == guard
               and _pair(i, k) not in pending and _pair(j, k) not in pending
               for k in range(len(leads))):
            chain += 1
            continue
        if degree >= _FIELD_TOP:
            raise PackedDegreeExceeded(degree)
        # S-polynomial of two monic elements: the leads cancel, the tails remain
        work = {t + lcm - leads[i]: -neg % p for t, neg in tails[i]}
        shift = lcm - leads[j]
        for t, neg in tails[j]:
            t += shift
            v = (work.get(t, 0) + neg) % p
            if v:
                work[t] = v
            else:
                del work[t]
        rest = _reduce(work, leads, tails, guard, p)
        if rest:
            add(rest)
            generators += 1
        else:
            zero += 1
    if p is RATIONALS:
        # every pair of elements was formed once and popped once
        counts = {"pairs": comb(len(leads), 2), "coprime": coprime, "chain": chain,
                  "zero": zero, "generators": generators}
        PAIR_COUNTS.update({k: v for k, v in counts.items() if v})
    return leads, tails


# ---------------------------------------------------------------------------
# Groebner bases

class GroebnerBasis(NamedTuple):
    """Reduced basis plus its order; immutable, safe to share across threads.
    Only `groebner_basis` makes one."""

    generators: tuple
    order: MonomialOrder
    num_vars: int
    leading_monomials: tuple
    # (leads, tails) of the packed monic generators, as `_reduce` takes them
    reducers: tuple


def normal_form(p: HomoPoly, gb: GroebnerBasis) -> HomoPoly:
    if p.nvars != gb.num_vars:
        raise MixedAmbient(f"polynomial in {p.nvars} variables, basis in {gb.num_vars}")
    if p.is_zero or not gb.generators:
        return p
    mults, guard = _packing(gb.order, gb.num_vars)
    leads, tails = gb.reducers
    rest = _reduce(_pack_poly(p.terms, mults, RATIONALS), leads, tails, guard, RATIONALS)
    return HomoPoly._trusted(p.nvars, {_unpack(m, p.nvars): c for m, c in rest.items()})


def _ring_size(gens, num_vars):
    sizes = {g.nvars for g in gens}
    if num_vars is not None:
        sizes.add(num_vars)
    if len(sizes) > 1:
        raise MixedAmbient(f"generators live in different ambient rings: {sorted(sizes)}")
    if not sizes:
        raise EmptyInput("no generators and no ambient size given")
    return check_num_vars(sizes.pop())


def groebner_basis(gens: Sequence[HomoPoly], order: MonomialOrder,
                   num_vars: Optional[int] = None) -> GroebnerBasis:
    """Reduced Groebner basis of <gens>, deterministic for fixed input."""
    nv = _ring_size(gens, num_vars)
    mults, guard = packing = _packing(order, nv)
    leads, tails = _buchberger([_pack_poly(g.terms, mults, RATIONALS) for g in gens if not g.is_zero],
                               packing, RATIONALS)
    # minimalize: the leads are distinct, so keep each one that no other divides
    keep = [i for i, lead in enumerate(leads)
            if not any(k != i and ((lead | guard) - other) & guard == guard
                       for k, other in enumerate(leads))]
    lead_exps = {i: _unpack(leads[i], nv) for i in keep}
    keep.sort(key=lambda i: order.key(lead_exps[i]))
    min_leads = [leads[i] for i in keep]
    min_tails = [tails[i] for i in keep]
    # interreduce: no lead divides another or a term of its own element, so one
    # pass against the minimal elements leaves the reduced basis
    monic, reduced_tails = [], []
    for i in keep:
        terms = {lead_exps[i]: Fraction(1)}
        rest = _reduce({m: -neg for m, neg in tails[i]}, min_leads, min_tails, guard, RATIONALS)
        terms.update((_unpack(m, nv), c) for m, c in rest.items())
        monic.append(HomoPoly._trusted(nv, terms))
        reduced_tails.append(tuple((m, -c) for m, c in rest.items()))
    return GroebnerBasis(tuple(monic), order, nv, tuple(lead_exps[i] for i in keep),
                         (tuple(min_leads), tuple(reduced_tails)))


# ---------------------------------------------------------------------------
# dimension / Hilbert data

def _minimal_monomials(monos):
    """Minimal generators of the monomial ideal <monos>, by ascending degree."""
    out = []
    for m in sorted(set(monos), key=mono_degree):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def _hilbert_numerator(lead_monomials):
    """K(t) as {degree: coefficient}: the Hilbert series of the quotient by the
    monomial ideal I = <lead_monomials> in N variables is K(t)/(1 - t)^N.

    For x_i^e exactly dividing a generator that is not a pure power, the exact
    sequence 0 -> S/(I : x_i^e)(-e) -> S/I -> S/(I + <x_i^e>) -> 0 gives
    K(I) = K(I + <x_i^e>) + t^e K(I : x_i^e) (Bigatti 1997).  Both new ideals
    have a smaller total degree of generators that are not pure powers, and pure
    powers x_i^d give prod(1 - t^d).  The pivots run from a work list, so a
    long chain of them costs no Python recursion.
    """
    numerator = Counter()
    work = [(_minimal_monomials(lead_monomials), 0)]
    while work:
        gens, shift = work.pop()
        mixed = [m for m in gens if sum(1 for e in m if e) > 1]
        if not mixed:
            leaf = Counter({shift: 1})
            for m in gens:
                step = Counter(leaf)
                for k, c in leaf.items():
                    step[k + mono_degree(m)] -= c
                leaf = step
            numerator.update(leaf)
            continue
        # pivot on the variable in the most mixed generators, at the median
        # of its exponents there
        nv = len(gens[0])
        i = max(range(nv), key=lambda v: sum(1 for m in mixed if m[v]))
        exps = sorted(m[i] for m in mixed if m[i])
        e = exps[len(exps) // 2]
        pivot = tuple(e if v == i else 0 for v in range(nv))
        # the generators that the pivot divides leave I + <pivot>, which stays minimal
        work.append(([m for m in gens if m[i] < e] + [pivot], shift))
        work.append((_minimal_monomials([tuple(max(a - b, 0) for a, b in zip(m, pivot))
                                         for m in gens]), shift + e))
    return {k: c for k, c in numerator.items() if c}


def hilbert_function(gb: GroebnerBasis, u: int) -> int:
    """Count of degree-u monomials outside the leading-term ideal."""
    if u < 0:
        raise DomainError(f"degree must be non-negative, got {u}")
    ambient = gb.num_vars - 1
    return sum(c * comb(ambient + u - k, ambient)
               for k, c in _hilbert_numerator(gb.leading_monomials).items() if k <= u)


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


class IdealProfile(NamedTuple):
    """Projective dimension of one basis's ideal, and its degree (None for EMPTY)."""

    projective_dimension: object
    degree: Optional[int]


def ideal_profile(gb: GroebnerBasis) -> IdealProfile:
    dim = _dimension_of_leads(gb.reducers[0], gb.num_vars)
    if dim is EMPTY:
        return IdealProfile(EMPTY, None)
    # the numerator is (1 - t)^codim Q(t) with Q(1) the degree, so the
    # degree is (-1)^codim K^(codim)(1) / codim!
    codim = gb.num_vars - 1 - dim
    numerator = _hilbert_numerator(gb.leading_monomials)
    return IdealProfile(dim, (-1) ** codim * sum(c * comb(k, codim) for k, c in numerator.items()))


# ---------------------------------------------------------------------------
# certified dimensions: a mod-p pass, settled by a proven lower bound

# largest prime below 2^30, so residues and their products stay small ints
MODULUS = 1073741789
# How each dimension query was settled: "cached", "modp" or "exact"; and
# "inferred", the walk subsets that `position` settles with no query.
DIMENSION_COUNTS = Counter()


def _dimension_of_leads(leads, num_vars):
    """Projective dimension, or EMPTY, of an ideal whose leading-term ideal the
    packed `leads` generate.

    The affine cone of the leading-term ideal has Krull dimension |S| for the
    largest variable subset S that holds the support of no lead, that is, whose
    complement meets every support.  No lead or a constant lead is the whole
    space or the unit ideal.  A variable that alone is the support of a lead
    lies in every such complement, so only subsets of the other, free
    variables are scanned, against the supports that the forced ones leave
    unhit; when every variable is forced, no S is left and the answer is EMPTY.
    """
    tops = [_FIELD_TOP << s for s in range(0, _FIELD_BITS * num_vars, _FIELD_BITS)]
    guard = sum(tops)
    supports = {_support(lead, guard) for lead in leads}
    if 0 in supports:
        return EMPTY
    forced = 0
    for support in supports:
        if not support & (support - 1):  # a single guard bit
            forced |= support
    unhit = [support for support in supports if not support & forced]
    free = [top for top in tops if not top & forced]
    for size in range(len(free)):
        for complement in combinations(free, size):
            mask = sum(complement)
            if all(support & mask for support in unhit):
                return len(free) - size - 1
    return EMPTY


def _member_terms(g, p):
    """Packed grevlex term dict of g's content-free form over the field of `p`.

    It is made once per polynomial and modulus and kept on `g` beside its key
    digest; the modulus is part of the key because MODULUS may change between
    calls.  Callers must not change the dict.
    """
    memo = getattr(g, "_groebner_memo", None)
    if memo is None:
        memo = g._groebner_memo = {}
    terms = memo.get(p)
    if terms is None:
        free = g.content_free()
        coefficients = free.terms if p is RATIONALS else {m: c.numerator for m, c in free.terms.items()}
        terms = memo[p] = _pack_poly(coefficients, _packing(GREVLEX, g.nvars)[0], p)
    return terms


def _modp_dimension(gens, num_vars, lower=None):
    """dim_p of the nonzero `gens`; None when a degree overflows a packed field.

    `lower` is a proven lower bound on the dimension over Q (EMPTY read as
    -1), or None.  The pass stops once its leads leave f variables free with
    f - 1 <= `lower`, or f = 0 with no bound or a negative one.  The leads so far lie in the leading-term ideal
    mod p, so dim_p <= f - 1 <= lower <= dim_Q <= dim_p: dim_p is `lower`,
    or EMPTY when f = 0, and the leads so far read it off.
    """
    try:
        leads, _ = _buchberger([_member_terms(g, MODULUS) for g in gens],
                               _packing(GREVLEX, num_vars), MODULUS,
                               0 if lower is None else max(lower + 1, 0))
    except PackedDegreeExceeded:
        return None
    return _dimension_of_leads(leads, num_vars)


def projective_dimensions(queries, num_vars: Optional[int] = None):
    """Projective dimensions over Q, or EMPTY, of the `(gens, lower)` queries,
    yielded lazily in their order.

    `lower`, when not None, must be a proven lower bound on the answer
    (EMPTY as -1), such as dim W - 1 for V(gens) = W cut by one more
    hypersurface (Hartshorne I.7.2).  The mod-p dimension is an upper bound,
    so it is the answer when it is EMPTY or equals `lower`; otherwise the
    leads of a basis over Q decide.  A zero-argument callable `lower` (the
    walk's top level) is a deferred bound: the mod-p pass runs with none,
    and it is called only when that pass answers a dimension.  The first answer asked for hashes each key once and reads
    the batch's rows in one prefetch; a query runs only when its answer is
    asked for.  Every settled dimension is cached under its key.
    """
    batch = []
    for gens, lower in queries:
        nv = _ring_size(gens, num_vars)
        gens = [g for g in gens if not g.is_zero]
        batch.append((gens, nv, lower, cache_key(gens, nv) if _CACHE_DIR is not None else None))
    if _CACHE_DIR is not None:
        _cache_session().prefetch([key for *_, key in batch])
    for gens, nv, lower, key in batch:
        dim = _cache_fetch(key)
        if dim is None:
            deferred = callable(lower)
            dim = _modp_dimension(gens, nv, None if deferred else lower)
            if deferred and dim is not None and dim is not EMPTY:
                lower = lower()
            if dim is not None and (dim is EMPTY or dim == lower):
                DIMENSION_COUNTS["modp"] += 1
            else:
                DIMENSION_COUNTS["exact"] += 1
                leads, _ = _buchberger([_member_terms(g, RATIONALS) for g in gens],
                                       _packing(GREVLEX, nv), RATIONALS)
                dim = _dimension_of_leads(leads, nv)
            _cache_store(key, dim)
        yield dim


def projective_dimension(gens: Sequence[HomoPoly], num_vars: Optional[int] = None,
                         lower: Optional[int] = None):
    """Projective dimension of V(gens) over Q, or EMPTY: a batch of one."""
    return next(projective_dimensions([(gens, lower)], num_vars))


# ---------------------------------------------------------------------------
# on-disk cache of settled dimensions

_CACHE_DIR = None
# bump when the meaning of a key changes
CACHE_FORMAT = "hyperpos-cache/4"
# the one database file in a cache directory; its number is the storage
# layout, bumped when the table changes
CACHE_FILE = "dimensions-5.sqlite3"
_CREATE_TABLE = "CREATE TABLE IF NOT EXISTS dimensions (key TEXT PRIMARY KEY, value) WITHOUT ROWID"
# seconds one statement waits for another process's lock before it gives up;
# a read then misses and a flush is dropped, so a shared directory never stalls
_BUSY_TIMEOUT_S = 0.25
# most keys one batched read names, below SQLite's historic limit of 999
# parameters per statement
_PREFETCH_CHUNK = 500
_session = None


def set_cache_dir(path: Optional[str]) -> None:
    """Enable (or with None disable) the on-disk dimension cache.

    The dimensions stored under the previous directory are written first.  A
    directory that cannot be made leaves the cache disabled.
    """
    global _CACHE_DIR
    close_cache()
    _CACHE_DIR = None
    if path is not None:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError:
            return
        _CACHE_DIR = path


def close_cache() -> None:
    """Write the dimensions stored since the cache was opened, and close it.

    The rows go in one transaction.  A busy lock or a broken database file
    drops them, and the dimensions are recomputed when next asked for.  The
    cache stays enabled: the next fetch or store opens it again.
    """
    global _session
    session, _session = _session, None
    if session is not None:
        atexit.unregister(close_cache)
        session.close()


class _CacheSession:
    """The cache database between two flushes: rows read a query batch at a
    time, stores held in memory."""

    __slots__ = ("path", "stored", "read", "db", "readable")

    def __init__(self, directory):
        self.path = os.path.join(directory, CACHE_FILE)
        self.stored = {}  # key -> "EMPTY" or int, as the row will hold it
        self.read = {}  # key -> the value a read found, or None for no row
        self.db = None
        # a new directory has nothing to read: the database is made by the first flush
        self.readable = os.path.isfile(self.path)

    def connect(self):
        import sqlite3
        if self.db is None:
            # transactions are begun explicitly; the exit hook may close the
            # connection from another thread than the one that opened it
            self.db = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S,
                                      isolation_level=None, check_same_thread=False)
        return self.db

    def fetch(self, key):
        return self.stored[key] if key in self.stored else self.read.get(key)

    def prefetch(self, keys):
        """Read the records of `keys` that this session does not know yet,
        _PREFETCH_CHUNK keys per statement, into `read`."""
        keys = [k for k in keys if k not in self.stored and k not in self.read]
        if not keys or not self.readable:
            return
        import sqlite3
        try:
            db = self.connect()
            for start in range(0, len(keys), _PREFETCH_CHUNK):
                chunk = keys[start:start + _PREFETCH_CHUNK]
                found = dict(db.execute("SELECT key, value FROM dimensions WHERE key IN "
                                        f"({','.join('?' * len(chunk))})", chunk))
                for key in chunk:
                    self.read[key] = found.get(key)
        except (sqlite3.Error, OSError):
            self.readable = False  # busy, unreadable or not a database: no more reads

    def close(self):
        if not self.stored and self.db is None:
            return
        import sqlite3
        try:
            if self.stored:
                db = self.connect()
                db.execute("BEGIN IMMEDIATE")
                db.execute(_CREATE_TABLE)
                db.executemany("INSERT OR REPLACE INTO dimensions VALUES (?, ?)",
                               self.stored.items())
                db.execute("COMMIT")
        except (sqlite3.Error, OSError):
            pass  # the rows are dropped; closing rolls back an open transaction
        finally:
            if self.db is not None:
                self.db.close()


def _cache_session():
    global _session
    if _session is None:
        _session = _CacheSession(_CACHE_DIR)
        # a library caller that never calls close_cache still gets its rows written
        atexit.register(close_cache)
    return _session


def _key_digest(g):
    """SHA-256 digest of g's content-free form m, made once per polynomial:
    the terms of m, grevlex-descending, each as the line "c:e_0,...,e_n"."""
    memo = getattr(g, "_groebner_memo", None)
    if memo is None:
        memo = g._groebner_memo = {}
    digest = memo.get("key")
    if digest is None:
        lines = "".join([f"{c.numerator}:{','.join(map(str, m))}\n"
                         for m, c in g.content_free().sorted_terms()])
        digest = memo["key"] = hashlib.sha256(lines.encode()).digest()
    return digest


def cache_key(gens: Sequence[HomoPoly], num_vars: int) -> str:
    """SHA-256 key of the content-free generators, independent of their order.

    The hashed bytes are the lines CACHE_FORMAT, __version__ and num_vars,
    then the generators' 32-byte digests (`_key_digest`) in sorted order; a
    repeated generator is hashed twice.
    """
    # read per call: CACHE_FORMAT and __version__ may be rebound
    head = f"{CACHE_FORMAT}\n{__version__}\n{num_vars}\n".encode()
    return hashlib.sha256(head + b"".join(sorted(map(_key_digest, gens)))).hexdigest()


def summary_key(generators: Sequence[HomoPoly], members: Sequence[HomoPoly], num_vars: int,
                budget: int) -> str:
    """SHA-256 key of the walk summary of `members` on V(`generators`): the
    lines "walk-summary", CACHE_FORMAT, __version__, num_vars, the walk's
    budget and len(generators), then the generators' digests sorted and the
    members' in family order, as a witness names members by their place."""
    head = (f"walk-summary\n{CACHE_FORMAT}\n{__version__}\n{num_vars}\n{budget}\n"
            f"{len(generators)}\n").encode()
    return hashlib.sha256(head + b"".join(sorted(map(_key_digest, generators)))
                          + b"".join(map(_key_digest, members))).hexdigest()


def read_summary(generators, members, num_vars, budget):
    """(key, stored value or None) of a walk summary, read in one statement;
    (None, None) with the cache off."""
    if _CACHE_DIR is None:
        return None, None
    key = summary_key(generators, members, num_vars, budget)
    session = _cache_session()
    session.prefetch([key])
    return key, session.fetch(key)


def store_summary(key, text):
    """Hold a walk summary's text under `key` for the invocation's one write."""
    if _CACHE_DIR is not None:
        _cache_session().stored[key] = text


def _cache_fetch(key):
    """The dimension stored under `key`, counted as "cached"; None for a miss.

    A stored value that is neither "EMPTY" nor a non-negative int is a miss
    and gets recomputed; so is every read that the database refuses.
    """
    if _CACHE_DIR is None or key is None:
        return None
    value = _cache_session().fetch(key)
    if value == "EMPTY":
        value = EMPTY
    elif type(value) is not int or value < 0:
        return None
    DIMENSION_COUNTS["cached"] += 1
    return value


def _cache_store(key, value):
    if _CACHE_DIR is None or key is None:
        return
    # called only after a miss, so the flush also replaces a malformed row
    _cache_session().stored[key] = "EMPTY" if value is EMPTY else value
