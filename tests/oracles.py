"""The two Buchberger loops that `groebner._buchberger` replaced, kept as oracles.

`tuple_groebner_basis` is the loop over Q on exponent tuples, with its own
reducer and S-polynomial builder; `modp_lead_monomials` is the grevlex pass
mod `groebner.MODULUS` on packed ints.  Both are the code as it stood before
the one packed loop ran over both fields.
"""

import heapq
from collections import Counter
from fractions import Fraction

from hyperpos import groebner
from hyperpos.groebner import GroebnerBasis
from hyperpos.polyring import HomoPoly, mono_divides, mono_mul


def mono_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def leading_monomial(p, order):
    return max(p.terms, key=order.key)


def reduce_terms(terms, reducers, order):
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


def s_terms(red_f, red_g, big):
    """Term dict of the S-polynomial of two (lm, lc, terms) reducer triples."""
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


def tuple_groebner_basis(gens, order, num_vars=None):
    """Reduced Groebner basis of <gens> over Q, by the loop on exponent tuples.

    Returns the GroebnerBasis and the Counter of its pair outcomes.
    """
    nv = groebner._ring_size(gens, num_vars)
    basis = [g.content_free() for g in gens if not g.is_zero]
    lms = [leading_monomial(g, order) for g in basis]
    reducers = [(lm, g.terms[lm], g.terms) for lm, g in zip(lms, basis)]
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
        red = reduce_terms(s_terms(reducers[i], reducers[j], big), reducers, order)
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

    basis.sort(key=lambda g: order.key(leading_monomial(g, order)))
    minimal = []
    min_lms = []
    for g in basis:
        lm = leading_monomial(g, order)
        if not any(mono_divides(m, lm) for m in min_lms):
            minimal.append(g)
            min_lms.append(lm)
    for idx in range(len(minimal)):
        others = [(min_lms[k], minimal[k].terms[min_lms[k]], minimal[k].terms)
                  for k in range(len(minimal)) if k != idx]
        minimal[idx] = HomoPoly._trusted(nv, reduce_terms(minimal[idx].terms, others, order))
    monic = [g.scale(1 / g.terms[leading_monomial(g, order)]) for g in minimal]
    monic.sort(key=lambda g: order.key(leading_monomial(g, order)))
    return GroebnerBasis(monic, order, nv), counts


FIELD_BITS = 16
FIELD_TOP = 1 << (FIELD_BITS - 1)


def modp_lead_monomials(polys, num_vars):
    """Leading monomials of a grevlex Groebner basis of <polys> mod MODULUS.

    `polys` are dicts from exponent tuple to int.  Returns None when a degree
    would overflow a packed field.
    """
    p = groebner.MODULUS
    shifts = [FIELD_BITS * i for i in range(num_vars)]
    guard = sum(FIELD_TOP << s for s in shifts)
    leads = []
    lead_exps = []
    tails = []
    pairs = []
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
        exps = tuple((lead >> s) & (FIELD_TOP - 1) for s in shifts)
        new = len(leads)
        for j, other in enumerate(lead_exps):
            lcm = tuple(a if a > b else b for a, b in zip(exps, other))
            heapq.heappush(pairs, (sum(lcm), pack(lcm), j, new))
            pending.add((j, new))
        leads.append(lead)
        lead_exps.append(exps)
        tails.append([(m, (-c * inv) % p) for m, c in poly.items() if m != lead])

    for poly in polys:
        if sum(next(iter(poly))) >= FIELD_TOP:
            return None
        rest = reduce({pack(m): c % p for m, c in poly.items() if c % p})
        if rest:
            add(rest)
    while pairs:
        degree, lcm, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        if degree >= FIELD_TOP:
            return None
        if all(a == 0 or b == 0 for a, b in zip(lead_exps[i], lead_exps[j])):
            continue
        probe = lcm | guard
        if any(k != i and k != j and (probe - leads[k]) & guard == guard
               and _pair(i, k) not in pending and _pair(j, k) not in pending
               for k in range(len(leads))):
            continue
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
