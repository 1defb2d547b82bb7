"""Earlier implementations that the package replaced, kept as oracles.

`tuple_groebner_basis` is the loop over Q on exponent tuples, with its own
reducer and S-polynomial builder; `modp_lead_monomials` is the grevlex pass
mod `groebner.MODULUS` on packed ints.  Both are the code as it stood before
the one packed loop ran over both fields: they form each pair's lcm, degree
and coprimality test on exponent tuples, where the loop uses guard-bit masks.
`cone_dimension` is the dimension read-off on exponent tuples, by frozensets
of variables, that `groebner._dimension_of_leads` replaced with support masks
of the packed leads.

`content_free` is `HomoPoly.content_free` as it stood before the content and
the primitive form were worked out once per polynomial and kept on it: two
passes over the coefficients and a scale on every call.

`cache_key` is not an earlier implementation: it writes `groebner.cache_key`
out from its definition, on `content_free` and its own grevlex sort, so it
shares neither the memoized digests nor `HomoPoly.sorted_terms`.

`parse_poly_scanner` is `polyring.parse_poly` as it stood before it read the
text as one list of tokens: a scanner that steps one character per call,
skipping whitespace after each token, and a list of every written term,
merged and checked for one degree once the text has parsed.

`fold_combine` is `polyring.poly_combine` as it stood before it summed every
scaled member into one dict: a fold of `+` over `HomoPoly.scale`, from the
zero polynomial.

`theorem15_margin` and `weil_function` are the margin and the Weil function
that take the norm |x|_v of the point at every place, as they stood before
`heights` read it off the coprime-coordinate invariant (max|x_i| at oo, 1 at
every prime).  They and `height_poly` also take the norm |Q|_v of each
polynomial place by place, where `heights` reads every one of them off the
polynomial's primitive integer form; `height_poly` factors the coefficients
to find their places.  `evaluate` is the earlier `HomoPoly.evaluate`, which
builds a Fraction for every coordinate and term, where the margin takes each
member value as one int from `HomoPoly.integer_value`; `normalized_abs` takes
one place at a time, where `heights` strips every prime of S in one pass; and
`log_value` takes both logarithms afresh, where the margin memoizes them.
`compare` is `LogRational._compare` as it stood before it compared the
cross products a_num^m * b_den^k and b_num^k * a_den^m as ints: it forms the
lifted Fractions a^m and b^k.

`walk_distributive_constant` and `walk_classify_position` are
`position.distributive_constant` and `position.classify_position` as they
stood before both read the walk summary: each runs its own loop over every
subset that `position._nonvoid_subsets` yields.  `render` is `cli._render`'s
printer as it stood before its own encoder: one `json.dumps` with `indent=2`.

What they still share with `heights`: the checked `LogRational` constructor,
`LogRational.scale` (the oracle margin's right side, through
`heights._power`), and `compare`'s power budget and, past it,
`heights._log_sign`, which decides a sign both ways.
"""

import hashlib
import heapq
import json
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod
from typing import NamedTuple

from hyperpos import groebner, heights, position
from hyperpos.cli import _json_value
from hyperpos.errors import DomainError
from hyperpos.heights import (INFINITE, LogRational, MarginReport, PointNotOnVariety,
                              PointOnHypersurface, ZeroInput, _coefficient_places,
                              default_places)
from hyperpos.polyring import (_DIGITS, DimensionMismatch, HomoPoly, NotHomogeneous,
                               PolySyntaxError, PowerBudgetExceeded, VariableOutOfRange,
                               ZeroPolynomial, _check_terms, check_degree, check_num_vars,
                               mono_degree, mono_divides, mono_mul)


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


class TupleBasis(NamedTuple):
    """The monic reduced basis, ascending, and the leading monomial of each element."""

    generators: tuple
    leading_monomials: tuple


def tuple_groebner_basis(gens, order, num_vars=None):
    """Reduced Groebner basis of <gens> over Q, by the loop on exponent tuples.

    Returns the TupleBasis and the Counter of its pair outcomes.
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
    return TupleBasis(tuple(monic), tuple(leading_monomial(g, order) for g in monic)), counts


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


def cone_dimension(lead_monomials, num_vars):
    """Krull dimension of the affine cone cut out by the leading-term ideal.

    Largest variable subset S with no leading monomial supported inside S;
    -1 flags the unit ideal.
    """
    if any(sum(m) == 0 for m in lead_monomials):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead_monomials]
    for size in range(num_vars, 0, -1):
        for sub in combinations(range(num_vars), size):
            sset = frozenset(sub)
            if not any(sup <= sset for sup in supports):
                return size
    return 0


def dimension_of_leads(lead_monomials, num_vars):
    """Projective dimension, or EMPTY, read off exponent-tuple leads by `cone_dimension`."""
    cone = cone_dimension(lead_monomials, num_vars)
    return groebner.EMPTY if cone <= 0 else cone - 1


class _Scanner:
    __slots__ = ("text", "pos")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.skip_ws()

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.text[self.pos]
        self.pos += 1
        self.skip_ws()
        return ch

    def digits(self, what):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            raise PolySyntaxError(start, what)
        s = self.text[start:self.pos]
        self.skip_ws()
        try:
            return int(s)
        except ValueError:  # longer than the interpreter's int digit limit
            raise PolySyntaxError(start, what, f"{what} at position {start} has too many digits")


def _scan_factor(sc, num_vars, exp):
    """Read one factor x<index>^<power> and add its power to `exp`."""
    if sc.peek() != "x":
        raise PolySyntaxError(sc.pos, "variable 'x<index>'")
    sc.take()
    index = sc.digits("variable index")
    if index >= num_vars:
        raise VariableOutOfRange(index, num_vars)
    power = 1
    if sc.peek() == "^":
        sc.take()
        power = sc.digits("exponent")
    exp[index] += power


def _scan_term(sc, num_vars):
    """One term as (coefficient, exponent tuple)."""
    exp = [0] * num_vars
    ch = sc.peek()
    if ch == "x":
        _scan_factor(sc, num_vars, exp)
        while sc.peek() == "*":
            sc.take()
            _scan_factor(sc, num_vars, exp)
        return Fraction(1), tuple(exp)
    if ch in _DIGITS or ch in ("+", "-"):
        sign = 1
        if ch in ("+", "-"):
            pos = sc.pos
            sign = -1 if sc.take() == "-" else 1
            if sc.peek() not in _DIGITS:
                raise PolySyntaxError(pos, "digits after sign")
        num = sc.digits("integer coefficient")
        coef = Fraction(sign * num)
        if sc.peek() == "/":
            sc.take()
            dpos = sc.pos
            den = sc.digits("denominator")
            if den == 0:
                raise PolySyntaxError(dpos, "positive denominator")
            coef = Fraction(sign * num, den)
        while sc.peek() in ("*", "x"):
            if sc.peek() == "*":
                sc.take()
            _scan_factor(sc, num_vars, exp)
        return coef, tuple(exp)
    raise PolySyntaxError(sc.pos, "coefficient or variable")


def parse_poly_scanner(text, num_vars):
    """`polyring.parse_poly` read one character at a time."""
    check_num_vars(num_vars)
    sc = _Scanner(text)
    terms = []  # (coefficient, monomial) with duplicates allowed
    coef, mono = _scan_term(sc, num_vars)
    terms.append((coef, mono))
    while sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
        coef, mono = _scan_term(sc, num_vars)
        terms.append((sign * coef, mono))
    if sc.pos != len(sc.text):
        raise PolySyntaxError(sc.pos, "'+', '-' or end of input")
    # homogeneity is a property of the written terms, before any cancellation
    degree = mono_degree(terms[0][1])
    for _, mono in terms[1:]:
        if mono_degree(mono) != degree:
            raise NotHomogeneous(degree, mono_degree(mono))
    check_degree(degree)
    merged = {}
    for coef, mono in terms:
        merged[mono] = merged.get(mono, Fraction(0)) + coef
    _check_terms(len(merged))
    return HomoPoly._trusted(num_vars, {m: c for m, c in merged.items() if c})


def fold_combine(coeffs, polys):
    """Sum of coeffs[i] * polys[i], one intermediate polynomial per member."""
    out = HomoPoly.zero(polys[0].nvars)
    for c, p in zip(coeffs, polys):
        out = out + p.scale(c)
    return out


def content_free(p):
    """The primitive integer form of p by two passes over its coefficients,
    an lcm of the denominators and a gcd of the scaled numerators, and a scale."""
    if p.is_zero:
        return p
    den = 1
    for c in p.terms.values():
        den = lcm(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    if den == num == 1:
        return p
    return p.scale(Fraction(den, num))


def cache_key(gens, num_vars):
    """The cache key by its definition: SHA-256 of the lines CACHE_FORMAT,
    __version__ and num_vars, then the sorted SHA-256 digests of the
    generators' content-free forms.  A digest hashes one line "c:e_0,...,e_n"
    per term, grevlex-descending: within one degree, ascending in the
    reversed exponent tuple."""
    digests = []
    for g in gens:
        free = content_free(g)
        text = "".join(f"{int(free.terms[m])}:{','.join(str(e) for e in m)}\n"
                       for m in sorted(free.terms, key=lambda m: m[::-1]))
        digests.append(hashlib.sha256(text.encode()).digest())
    head = f"{groebner.CACHE_FORMAT}\n{groebner.__version__}\n{num_vars}\n"
    return hashlib.sha256(head.encode() + b"".join(sorted(digests))).hexdigest()


def evaluate(q, point):
    """q at `point`, a Fraction built term by term."""
    if len(point) != q.nvars:
        raise DimensionMismatch(f"point has {len(point)} coordinates, ring has {q.nvars} variables")
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for m, c in q.terms.items():
        v = c
        for x, e in zip(pt, m):
            if e:
                v *= x ** e
        total += v
    return total


def normalized_abs(x, v):
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("absolute value of zero has no normalization")
    if not v.is_finite:
        return abs(x)
    p = v.prime
    ord_p = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        ord_p += 1
    while den % p == 0:
        den //= p
        ord_p -= 1
    return Fraction(1, p ** ord_p) if ord_p >= 0 else Fraction(p ** -ord_p)


def log_value(lr, digits=50):
    """LogRational.value without a memo."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        out = (Decimal(lr.argument.numerator).ln() - Decimal(lr.argument.denominator).ln()) / lr.root
    with localcontext() as ctx:
        ctx.prec = digits
        return +out


def compare(x, y):
    """LogRational._compare on lifted Fractions: log(a)/r against log(b)/s as
    a^(l/r) against b^(l/s), l = lcm(r, s), with lifts past the power budget
    left to `heights._log_sign`."""
    r = lcm(x.root, y.root)
    m, k = r // x.root, r // y.root
    try:
        a, b = heights._power(x.argument, m), heights._power(y.argument, k)
    except PowerBudgetExceeded:
        return heights._log_sign(x.argument, m, y.argument, k)
    return (a > b) - (a < b)


def negative_points(reports):
    """summarize_margins' negative points, each sign taken by `compare`."""
    return tuple(r.point for r in reports if compare(r.rhs, r.lhs) < 0)


def _poly_norm(q, v):
    return max(normalized_abs(c, v) for c in q.terms.values())


def height_poly(q):
    """The product of |Q|_v over oo and the primes of the coefficients."""
    coeffs = list(q.terms.values())
    if not coeffs:
        raise ZeroPolynomial("height of the zero polynomial is undefined")
    return LogRational(prod(_poly_norm(q, v) for v in (INFINITE,) + _coefficient_places(coeffs)))


def _point_norm(x, v):
    return max(normalized_abs(c, v) for c in x.coords if c != 0)


def _value_off_hypersurface(q, x):
    if not q.terms:
        raise ZeroPolynomial("Weil function of the zero polynomial is undefined")
    value = evaluate(q, x.coords)
    if value == 0:
        raise PointOnHypersurface(f"{x!r} lies on the hypersurface")
    return value


def weil_function(q, x, v):
    value = _value_off_hypersurface(q, x)
    return LogRational(_point_norm(x, v) ** q.degree * _poly_norm(q, v) / normalized_abs(value, v))


def theorem15_margin(v, fam, delta, eps, places, points):
    """Per-point slack of the truncated inequality over the given places."""
    delta = Fraction(delta)
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    places = default_places() if places is None else tuple(places)
    if len(set(places)) != len(places):
        raise DomainError("duplicate places in S")
    lift = fam.lcm_d
    multiplier = delta * (v.dim_n + 1) + eps
    # lhs is the product over places and members of weil_function(Q_j, x, v)
    # raised to lift/d_j, with each factor computed where it varies:
    #   |x|_v^(sum_j d_j e_j) * prod_j |Q_j|_v^e_j / |prod_j Q_j(x)^e_j|_v
    exponents = [lift // d for d in fam.degrees]
    point_power = sum(d * e for d, e in zip(fam.degrees, exponents))
    coefficient_norms = [prod(_poly_norm(m, place) ** e for m, e in zip(fam.members, exponents))
                         for place in places]
    reports = []
    for x in points:
        if x.ambient + 1 != v.num_vars:
            raise DomainError(f"{x!r} has {x.ambient + 1} coordinates, ambient needs {v.num_vars}")
        for g in v.generators:
            if evaluate(g, x.coords) != 0:
                raise PointNotOnVariety(f"{x!r} does not satisfy a defining equation")
        value = 1
        for j, (member, e) in enumerate(zip(fam.members, exponents)):
            val = evaluate(member, x.coords)
            if val == 0:
                raise PointOnHypersurface(f"{x!r} lies on family member {j + 1}")
            value *= val ** e
        arg = Fraction(1)
        for place, norm in zip(places, coefficient_norms):
            arg *= _point_norm(x, place) ** point_power * norm / normalized_abs(value, place)
        lhs = LogRational(arg, lift)
        rhs = LogRational(max(abs(c) for c in x.coords)).scale(multiplier)
        slack = float(log_value(rhs) - log_value(lhs))
        reports.append(MarginReport(x, lhs, rhs, slack))
    return reports


def walk_distributive_constant(v, fam, include_table=False):
    """Delta and the first maximizing subset, by size then lexicographically,
    of the walk; it refuses at the first subset of full dimension n."""
    n = v.dim_n
    best = None
    witness = None
    table = {} if include_table else None
    for combo, dim in position._nonvoid_subsets(v, fam):
        drop = n - dim
        if drop <= 0:
            raise position.UnboundedRatio(
                f"subset {combo} meets the variety in dimension {dim}, not below {n}")
        ratio = Fraction(len(combo), drop)
        if table is not None:
            table[combo] = (len(combo), dim, ratio)
        if best is None or ratio > best:
            best = ratio
            witness = combo
    return position.DistributiveReport(best, witness, table)


def walk_classify_position(v, fam):
    """The class from the largest dimension of each size the walk yields."""
    n = v.dim_n
    max_dims = {}
    for combo, dim in position._nonvoid_subsets(v, fam):
        max_dims[len(combo)] = max(dim, max_dims.get(len(combo), 0))
    s_max = max(max_dims)
    l_value = s_max if s_max < fam.q else None
    kappa = 0
    for m in range(1, n + 1):
        if max_dims.get(m, -1) > n - m:
            break
        kappa = m
    t_vector = tuple(max((m for m, d in max_dims.items() if d > n - s - 1), default=0)
                     for s in range(1, n + 1))
    return position.PositionClass(l_value, l_value == n, kappa, t_vector)


def render(report):
    """The report's text by `json.dumps`, keys sorted, two-space indent."""
    return json.dumps(report, indent=2, sort_keys=True, default=_json_value,
                      check_circular=False) + "\n"
