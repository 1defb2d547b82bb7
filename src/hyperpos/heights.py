"""Places of the rationals, normalized absolute values, logarithmic heights,
Weil functions, and empirical margin checks for the defect-relation statement.

Everything is carried multiplicatively as exact rationals; logarithms are taken
only when a report is rendered.  Over the rationals every place has local degree
one, so the normalized norm is the plain absolute value at each place.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple, Optional

from .errors import DomainError
from .polyring import (DimensionMismatch, HomoPoly, PowerBudgetExceeded, ZeroPolynomial,
                       check_degree, check_power_bound)
from .position import HypersurfaceFamily, Variety


class ZeroInput(DomainError):
    code = "ZeroInput"


class PointOnHypersurface(DomainError):
    code = "PointOnHypersurface"


class PointNotOnVariety(DomainError):
    code = "PointNotOnVariety"


class FactorBudgetExceeded(DomainError):
    code = "FactorBudgetExceeded"


# Largest trial divisor `_prime_factors` tries.  What is left of n after it is
# settled by the primality test, or refused when it is composite.
MAX_TRIAL_DIVISOR = 2 ** 20

# Largest n that `_is_prime` settles.  Miller-Rabin with the 13 primes up to
# 41 as bases is exact below 3317044064679887385961981, the least composite
# that passes it (Sorenson & Webster 2015).
MAX_PRIME_TEST = 3317044064679887385961980

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact: a proven answer for every n up to MAX_PRIME_TEST, and
    FactorBudgetExceeded above it."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n > MAX_PRIME_TEST:
        raise FactorBudgetExceeded(
            f"{n} is past {MAX_PRIME_TEST}, the largest integer the primality test settles")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strip(n: int, primes) -> tuple:
    """n with every factor of the given primes divided out, and the part of n
    made of them, the product of p^ord_p(n)."""
    part = 1
    for p in primes:
        while n % p == 0:
            n //= p
            part *= p
    return n, part


# Cofactors past this size, where trial division up to the root is costly,
# are offered to the primality test before it.
_PRIME_TEST_FIRST = 2 ** 32


def _large_prime(n: int) -> bool:
    """n is past _PRIME_TEST_FIRST, within MAX_PRIME_TEST, and prime."""
    return _PRIME_TEST_FIRST < n <= MAX_PRIME_TEST and _is_prime(n)


def _prime_factors(n: int) -> list:
    """The primes dividing n, ascending, by trial division up to
    MAX_TRIAL_DIVISOR; a cofactor left past it must pass the primality test.
    A large prime n or cofactor ends the division at once."""
    n = abs(n)
    out = []
    d = 2
    done = _large_prime(n)
    while not done and d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            if not _is_prime(n):
                raise FactorBudgetExceeded(
                    f"{n} has no prime factor up to {MAX_TRIAL_DIVISOR} and is not prime")
            break
        if n % d == 0:
            out.append(d)
            n, _ = _strip(n, (d,))
            done = _large_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _exact_root(n: int, k: int) -> Optional[int]:
    """The non-negative r with r**k == n, or None when n is no k-th power."""
    if n < 2:
        return n
    if n.bit_length() <= k:  # r >= 2 gives r**k >= 2**k
        return None
    r = 1 << -(-n.bit_length() // k)  # at least the k-th root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k == n else None


# ---------------------------------------------------------------------------
# places and absolute values

class Place(NamedTuple):
    """A place of the rationals: the archimedean one (prime None) or a prime."""

    prime: Optional[int] = None

    @classmethod
    def finite(cls, p: int) -> "Place":
        if not _is_prime(p):
            raise DomainError(f"finite places need a prime, got {p}")
        return cls(p)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    # the CLI digest hashes this text for `weil --place oo`: keep it byte for byte
    def __repr__(self):
        return "Place(oo)" if self.prime is None else f"Place({self.prime})"


INFINITE = Place()


def default_places(prime_bound: int = 13) -> tuple:
    places = [INFINITE]
    places.extend(Place.finite(p) for p in range(2, prime_bound + 1) if _is_prime(p))
    return tuple(places)


def _s_norm(x, places) -> Fraction:
    """The product of |x|_v over the distinct places v in `places`.

    With N and D the parts of x's numerator and denominator made of the primes
    in `places`, the product over those primes is D/N; with oo among the places
    it is |x| * D/N, which is |x| with those primes stripped.
    """
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("absolute value of zero has no normalization")
    primes = [v.prime for v in places if v.is_finite]
    num, num_part = _strip(abs(x.numerator), primes)
    den, den_part = _strip(x.denominator, primes)
    return Fraction(num, den) if INFINITE in places else Fraction(den_part, num_part)


def normalized_abs(x, v: Place) -> Fraction:
    return _s_norm(x, (v,))


class ProductFormulaResult(NamedTuple):
    product: Fraction
    ok: bool
    places: tuple


def product_formula_check(x) -> ProductFormulaResult:
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("product formula needs a nonzero rational")
    places = (INFINITE,) + _coefficient_places([x])
    product = prod(normalized_abs(x, v) for v in places)
    return ProductFormulaResult(product, product == 1, places)


# ---------------------------------------------------------------------------
# points and log values

def _refuse_change(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


class RationalPoint:
    """Projective point with coprime integer coordinates, first nonzero positive."""

    __slots__ = ("coords",)
    __setattr__ = __delattr__ = _refuse_change

    def __init__(self, coords):
        raw = []
        for c in coords:
            if type(c) is int:
                raw.append(c)
                continue
            f = Fraction(c)
            if f.denominator != 1:
                raise DomainError(f"point coordinates must be integers, got {c}")
            raw.append(f.numerator)
        if not raw or all(c == 0 for c in raw):
            raise ZeroInput("projective points need a nonzero coordinate")
        g = gcd(*raw)
        lead = next(c for c in raw if c != 0)
        if lead < 0:
            g = -g
        object.__setattr__(self, "coords", tuple(c // g for c in raw))

    def __eq__(self, other):
        if not isinstance(other, RationalPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    @property
    def ambient(self) -> int:
        return len(self.coords) - 1

    # error messages print this form
    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def _power(x: Fraction, e: int) -> Fraction:
    """x ** e for x > 0, refused before it is formed when it may pass the
    power budget that `ineq` uses."""
    check_power_bound(f"a log argument to the power {e}", [(max(x.numerator, x.denominator), e)])
    return x ** e


def _ln(n: int, bits: int) -> Decimal:
    """ln(n) for n >= 1 from its leading `bits` bits, low by under 2^(1 - bits)."""
    s = max(n.bit_length() - bits, 0)
    return Decimal(n >> s).ln() + s * Decimal(2).ln()


def _log_sign(a: Fraction, m: int, b: Fraction, k: int) -> int:
    """The sign of m log(a) - k log(b), exactly, for coprime m and k.

    The logarithms are taken at a precision that doubles until the difference
    passes its error bound.  A difference that a precision leaves open is
    checked for zero, which no precision settles: a^m = b^k exactly when
    a = c^k and b = c^m for a rational c.
    """
    digits = 20
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            terms = [Fraction(w * _ln(n, 4 * digits)) for n, w in (
                (a.numerator, m), (a.denominator, -m), (b.numerator, -k), (b.denominator, k))]
        # five roundings and the cut to leading bits leave each term off by
        # under 3 * 10^(1 - digits) of its size; the bound is 30 times that
        diff = sum(terms)
        if abs(diff) > sum(map(abs, terms)) / 10 ** (digits - 3):
            return 1 if diff > 0 else -1
        roots = [_exact_root(n, e) for n, e in ((a.numerator, k), (a.denominator, k),
                                                (b.numerator, m), (b.denominator, m))]
        if None not in roots and roots[:2] == roots[2:]:
            return 0
        digits *= 2


class LogRational:
    """log(argument)/root held exactly; the log itself is taken only on render.

    Equal values can be held differently, as log(4)/2 and log(2) are.
    """

    __slots__ = ("argument", "root")
    __setattr__ = __delattr__ = _refuse_change

    def __init__(self, argument, root: int = 1):
        argument = Fraction(argument)
        if argument <= 0:
            raise DomainError(f"log argument must be positive, got {argument}")
        if root < 1:
            raise DomainError(f"root must be a positive integer, got {root}")
        object.__setattr__(self, "argument", argument)
        object.__setattr__(self, "root", root)

    @classmethod
    def _trusted(cls, argument: Fraction, root: int) -> "LogRational":
        """log(argument)/root for a positive Fraction and a positive int root;
        nothing is checked or converted."""
        lr = object.__new__(cls)
        object.__setattr__(lr, "argument", argument)
        object.__setattr__(lr, "root", root)
        return lr

    def _key(self, other):
        """Both arguments lifted to the common root r, and r."""
        r = lcm(self.root, other.root)
        return _power(self.argument, r // self.root), _power(other.argument, r // other.root), r

    def __add__(self, other):
        a, b, r = self._key(other)
        return LogRational(a * b, r)

    def __sub__(self, other):
        a, b, r = self._key(other)
        return LogRational(a / b, r)

    def scale(self, factor) -> "LogRational":
        factor = Fraction(factor)
        if factor < 0:
            raise DomainError(f"scale factor must be non-negative, got {factor}")
        return LogRational(_power(self.argument, factor.numerator), self.root * factor.denominator)

    def value(self, digits: int = 50, logs: Optional[dict] = None) -> Decimal:
        """log(argument)/root to `digits` significant digits.

        `logs` memoizes Decimal(n).ln() by (n, working precision) across calls.
        Decimal.ln is correctly rounded, so a memoized logarithm is the one a
        fresh call would take, digit for digit.
        """
        logs = {} if logs is None else logs
        with localcontext() as ctx:
            ctx.prec = digits + 10

            def ln(n):
                key = (n, ctx.prec)
                if key not in logs:
                    logs[key] = Decimal(n).ln()
                return logs[key]

            out = (ln(self.argument.numerator) - ln(self.argument.denominator)) / self.root
        with localcontext() as ctx:
            ctx.prec = digits
            return +out

    def __float__(self):
        return float(self.value())

    def _compare(self, other):
        """-1, 0 or 1 as self is below, equal to or above other, exactly.

        With m and k the lcm of the two roots over each root, a^m is compared
        with b^k in integers, as a_num^m * b_den^k against b_num^k * a_den^m;
        lifts past the power budget are compared by `_log_sign` instead.  The
        lifts m and k are coprime.
        """
        r = lcm(self.root, other.root)
        m, k = r // self.root, r // other.root
        a, b = self.argument, other.argument
        try:
            check_power_bound("a lifted log argument", [(max(a.numerator, a.denominator), m)],
                              [(max(b.numerator, b.denominator), k)])
        except PowerBudgetExceeded:
            return _log_sign(a, m, b, k)
        left = a.numerator ** m * b.denominator ** k
        right = b.numerator ** k * a.denominator ** m
        return (left > right) - (left < right)

    def __eq__(self, other):
        if not isinstance(other, LogRational):
            return NotImplemented
        return self._compare(other) == 0

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __hash__(self):
        # divide out of the root every k for which the argument is a k-th power;
        # a k-th power other than 1 has more than k bits, and log(1)/r is 0 for every r
        num, den = self.argument.numerator, self.argument.denominator
        root = 1 if num == den else self.root
        for k in range(2, min(root, max(num.bit_length(), den.bit_length())) + 1):
            while root % k == 0:
                a, b = _exact_root(num, k), _exact_root(den, k)
                if a is None or b is None:
                    break
                num, den, root = a, b, root // k
        return hash((num, den, root))

    def __repr__(self):
        if self.root == 1:
            return f"log({self.argument})"
        return f"log({self.argument})/{self.root}"


LOG_ONE = LogRational(1)


# ---------------------------------------------------------------------------
# heights

def height_point(x: RationalPoint) -> LogRational:
    """Coprime integer coordinates leave only the archimedean contribution."""
    return LogRational(max(abs(c) for c in x.coords))


def height_scalar(x) -> LogRational:
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("height of zero scalar is undefined")
    return LogRational(max(abs(x.numerator), x.denominator))


def _coefficient_places(values) -> tuple:
    primes = set()
    for val in values:
        primes.update(_prime_factors(val.numerator))
        primes.update(_prime_factors(val.denominator))
    return tuple(Place.finite(p) for p in sorted(primes))


def height_poly(q: HomoPoly) -> LogRational:
    """H(q) = max|m_i| for the primitive integer form m of q.

    With q = g·m, g > 0 and the coefficients of m coprime integers, max_i |c_i|_p
    is |g|_p at every prime p and max_i |c_i| = g·max|m_i|, so the product
    formula leaves max|m_i|: no coefficient is factored.
    """
    if q.is_zero:
        raise ZeroPolynomial("height of the zero polynomial is undefined")
    return LogRational(max(map(abs, q.content_free().terms.values())))


# ---------------------------------------------------------------------------
# Weil functions

def _value_off_hypersurface(q: HomoPoly, x: RationalPoint) -> int:
    """m(x) for the primitive integer form m of q, refused when it is 0."""
    if not q.terms:
        raise ZeroPolynomial("Weil function of the zero polynomial is undefined")
    if len(x.coords) != q.nvars:
        raise DimensionMismatch(f"point has {len(x.coords)} coordinates, ring has {q.nvars} variables")
    value = q.integer_value(x.coords)
    if value == 0:
        raise PointOnHypersurface(f"{x!r} lies on the hypersurface")
    return value


def weil_function(q: HomoPoly, x: RationalPoint, v: Place) -> LogRational:
    # a scale of q cancels between |q|_v and |q(x)|_v, so q enters as its
    # primitive integer form m, with |m|_p = 1 at every prime and |m|_oo = H(m);
    # |x|_v is max|x_i| at oo, and 1 at every prime: the coordinates are coprime integers
    value = _value_off_hypersurface(q, x)
    if v.is_finite:
        return LogRational(1 / normalized_abs(value, v))
    return LogRational(height_point(x).argument ** q.degree * height_poly(q).argument / abs(value))


def weil_support(q: HomoPoly, x: RationalPoint) -> tuple:
    """Places where the Weil function can be nonzero: all others contribute 0.

    At a prime p it is log(1/|m(x)|_p) for the primitive integer form m of q,
    so only the primes of the integer m(x) are listed; no coefficient is factored.
    """
    return (INFINITE,) + _coefficient_places([_value_off_hypersurface(q, x)])


# ---------------------------------------------------------------------------
# margins for the defect-relation inequality

class MarginReport(NamedTuple):
    point: RationalPoint
    lhs: LogRational
    rhs: LogRational
    slack: float


class MarginSummary(NamedTuple):
    min_slack: Optional[float]
    negative_points: tuple


def theorem15_margin(v: Variety, fam: HypersurfaceFamily, delta, eps,
                     places, points) -> list:
    """Per-point slack of the truncated inequality over the given places.

    Negative slack marks a candidate member of the exceptional locus; such
    points are reported alongside the rest, never dropped.
    """
    delta = Fraction(delta)
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    places = default_places() if places is None else tuple(places)
    if len(set(places)) != len(places):
        raise DomainError("duplicate places in S")
    lift = fam.lcm_d
    check_degree(lift, "lcm of the degrees")  # as `lcm_degree` does, before any power
    multiplier = delta * (v.dim_n + 1) + eps
    # lhs is the product over v in S and members of weil_function(Q_j, x, v)^e_j,
    # e_j = lift/d_j: C * h(x)^P / |V|_S with V = prod_j m_j(x)^e_j, m_j the
    # primitive integer form of Q_j, C = prod_j H(m_j)^e_j and P = sum_j d_j e_j
    # = q * lift when oo is in S, and C = 1, P = 0 otherwise.  A scale of Q_j
    # cancels between C and |V|_S, and |x|_v = 1 at every prime for coprime
    # coordinates.  V is an integer, so |V|_S is |V| with the primes of S
    # stripped when oo is in S, and 1 over the part stripped otherwise.  Each
    # Q_j gives m_j(x) as `integer_value` and H(m_j) as `height_poly`.
    exponents = [lift // d for d in fam.degrees]
    archimedean = INFINITE in places
    primes = [p.prime for p in places if p.is_finite]
    point_power = len(fam.members) * lift if archimedean else 0
    coefficients = prod(height_poly(m).argument.numerator ** e
                        for m, e in zip(fam.members, exponents)) if archimedean else 1
    # rhs is h(x) scaled by the multiplier, log(h^power)/root, as `LogRational.scale`
    # forms it; it depends on h alone, so it and its value are made once per h
    power, root = multiplier.numerator, multiplier.denominator
    logs = {}  # each Decimal(n).ln() is taken once per call
    sides = {}  # h -> (rhs, rhs value)
    reports = []
    for x in points:
        coords = x.coords
        if len(coords) != v.num_vars:
            raise DomainError(f"{x!r} has {len(coords)} coordinates, ambient needs {v.num_vars}")
        for g in v.generators:
            if g.integer_value(coords) != 0:
                raise PointNotOnVariety(f"{x!r} does not satisfy a defining equation")
        value = 1
        for j, (member, e) in enumerate(zip(fam.members, exponents)):
            val = member.integer_value(coords)
            if val == 0:
                raise PointOnHypersurface(f"{x!r} lies on family member {j + 1}")
            value *= val ** e
        if power < 0:
            raise DomainError(f"scale factor must be non-negative, got {multiplier}")
        h = max(map(abs, coords))
        if h not in sides:
            check_power_bound(f"a log argument to the power {power}", [(h, power)])
            rhs = LogRational._trusted(Fraction(h ** power), root)
            sides[h] = rhs, rhs.value(logs=logs)
        rhs, rhs_value = sides[h]
        rough, part = _strip(abs(value), primes)
        lhs = LogRational._trusted(
            Fraction(coefficients * h ** point_power, rough) if archimedean else Fraction(part), lift)
        slack = float(rhs_value - lhs.value(logs=logs))
        reports.append(MarginReport(x, lhs, rhs, slack))
    return reports


def summarize_margins(reports) -> MarginSummary:
    """Smallest approximate slack, and the points whose slack is negative.

    The sign is decided exactly, rhs < lhs on LogRationals; the float slack
    is for display only.
    """
    if not reports:
        return MarginSummary(None, ())
    return MarginSummary(min(r.slack for r in reports),
                         tuple(r.point for r in reports if r.rhs < r.lhs))


# ---------------------------------------------------------------------------
# point sampling

# Most prefix tests one sample_points call may make.  Each canonical prefix of
# the first N coordinates is walked once, on its own shell: in P^N, shells
# 1..s hold ((2s+1)^N + 1)/2 of them.  A prefix whose pivot vanishes, or has
# degree 3 or more in the last coordinate, is tested again at each later shell,
# and each such test counts too.  A shell that would take the running total
# past this budget is refused before any of it is walked.
MAX_SAMPLE_PREFIXES = 10 ** 7

# Work of sample_points, summed over runs: "prefixes" of the first N
# coordinates walked (each once), "candidates" (coprime tuples that reach the
# check of every generator) and "points" kept.
SAMPLE_COUNTS = Counter()


class SampleBudgetExceeded(DomainError):
    code = "SampleBudgetExceeded"


def _surface(shell: int, length: int):
    """Canonical prefixes (first nonzero entry positive) of max-norm exactly
    `shell`, generated without the cube.  x_j is the first entry of norm
    `shell`.  The entries before it are all zero, with x_j = shell, or a
    canonical head of smaller norm, with x_j = ±shell; those after it run over
    [-shell, shell]."""
    full = [range(-shell, shell + 1)]
    inner = [range(1 - shell, shell)]
    for j in range(length):
        tail = full * (length - 1 - j)
        yield from iter_product(*[(0,)] * j, (shell,), *tail)
        for k in range(j):
            yield from iter_product(*[(0,)] * k, range(1, shell), *inner * (j - 1 - k),
                                    (-shell, shell), *tail)


def _pivot_terms(pivot: HomoPoly) -> tuple:
    """The pivot's primitive integer form, which has the pivot's integer roots,
    as (k, coef, ((i, e), ...)) per term: an integer coef times x_last^k times
    the prefix powers x_i^e."""
    return tuple((m[-1], int(c), tuple((i, e) for i, e in enumerate(m[:-1]) if e))
                 for m, c in pivot.content_free().terms.items())


def _horner(a: list, t: int) -> int:
    val = 0
    for c in reversed(a):
        val = val * t + c
    return val


def _integer_roots(a: list, shell: int) -> tuple:
    """Integer roots of the nonzero polynomial a[0] + a[1] t + ..., as
    (roots, bound).

    0 is a root iff a[0] = 0; the rest are roots of the polynomial left after
    t^m is factored out.  If that has degree 1, its root comes from one exact
    division, and if degree 2, from the integer square root of the
    discriminant: every root is listed and bound is 0.  From degree 3 on, only
    the roots with |t| <= shell are listed, and any other one has
    shell < |t| <= bound: it divides the lowest nonzero coefficient, and lies
    inside Cauchy's bound.
    """
    m, d = 0, len(a) - 1
    while not a[m]:
        m += 1
    while not a[d]:
        d -= 1
    roots = [0] if m else []
    if d - m == 1:
        t, r = divmod(-a[m], a[d])
        if not r:
            roots.append(t)
    elif d - m == 2:
        c, b, a2 = a[m:d + 1]
        disc = b * b - 4 * a2 * c
        r = isqrt(disc) if disc >= 0 else -1
        if r * r == disc:
            for num in {-b - r, -b + r}:
                t, rem = divmod(num, 2 * a2)
                if not rem:
                    roots.append(t)
    elif d - m > 2:
        low = abs(a[m])
        bound = min(low, 1 + max(map(abs, a[m:d])) // abs(a[d]))
        near = min(shell, bound)
        roots += (t for t in range(-near, near + 1) if t and low % t == 0 and _horner(a, t) == 0)
        return roots, bound
    return roots, 0


def sample_points(v: Variety, count: int, max_shell: int = 64) -> tuple:
    """First `count` canonical rational points on V, enumerated by max-norm.

    Shell by shell, each in lexicographic order of the coordinates.  Each
    canonical prefix of the first N coordinates is walked once, on the surface
    of its own shell s'.  Substituted into the first generator (the pivot), it
    leaves a polynomial in the last coordinate t whose integer roots are found
    with no shell bound (`_integer_roots`), and each candidate goes into the
    bucket of its own shell max(s', |t|).  A prefix on which the pivot
    vanishes identically (every prefix when V is all of P^N) keeps every t of
    shell s' and then t = ±s at each later shell s; a fibre of degree 3 or
    more is tested at t = ±s until s passes its root bound.  Once every prefix
    of norm <= s is walked, bucket s is complete: it is sorted, and every
    generator is checked exactly on each coprime candidate in turn.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    gens = v.generators
    length = v.num_vars - 1
    terms = _pivot_terms(gens[0]) if gens else ()
    degree = gens[0].degree if gens else 0
    buckets = {}
    vanishing = []      # prefixes that keep every t
    pending = []        # (prefix, fibre, lowest coefficient, root bound) of degree >= 3
    found = []
    retests = 0
    for shell in range(1, max_shell + 1):
        pending = [p for p in pending if p[3] >= shell]
        retests += len(vanishing) + len(pending)
        tests = ((2 * shell + 1) ** length + 1) // 2 + retests
        if tests > MAX_SAMPLE_PREFIXES:
            raise SampleBudgetExceeded(
                f"shell {shell} would take the walk to {tests} prefix tests, "
                f"past the budget of {MAX_SAMPLE_PREFIXES}")
        bucket = buckets.setdefault(shell, [])
        ends = (-shell, shell)
        for prefix in vanishing:
            bucket += [prefix + (t,) for t in ends]
        for prefix, a, low, _ in pending:
            bucket += [prefix + (t,) for t in ends if low % t == 0 and _horner(a, t) == 0]
        if shell == 1:
            # the zero prefix: of its tuples only (0, ..., 0, 1) is canonical and coprime
            SAMPLE_COUNTS["prefixes"] += 1
            axis = (0,) * length + (1,)
            if not gens or gens[0].integer_value(axis) == 0:
                bucket.append(axis)
        for prefix in _surface(shell, length):
            SAMPLE_COUNTS["prefixes"] += 1
            a = [0] * (degree + 1)
            for k, c, powers in terms:
                for i, e in powers:
                    c *= prefix[i] ** e
                a[k] += c
            if not any(a):
                vanishing.append(prefix)
                bucket += [prefix + (t,) for t in range(-shell, shell + 1)]
                continue
            roots, bound = _integer_roots(a, shell)
            if bound > shell:
                pending.append((prefix, a, next(filter(None, a)), bound))
            for t in roots:
                s = abs(t)
                if s <= shell:
                    bucket.append(prefix + (t,))
                elif s <= max_shell:
                    buckets.setdefault(s, []).append(prefix + (t,))
        for tup in sorted(buckets.pop(shell)):
            if gcd(*tup) != 1:
                continue
            SAMPLE_COUNTS["candidates"] += 1
            if any(g.integer_value(tup) != 0 for g in gens):
                continue
            found.append(RationalPoint(tup))
            SAMPLE_COUNTS["points"] += 1
            if len(found) == count:
                return tuple(found)
    raise DomainError(f"only {len(found)} points found within max-norm {max_shell}")
