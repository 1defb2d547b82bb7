"""Places of the rationals, normalized absolute values, logarithmic heights,
Weil functions, and empirical margin checks for the defect-relation statement.

Everything is carried multiplicatively as exact rationals; logarithms are taken
only when a report is rendered.  Over the rationals every place has local degree
one, so the normalized norm is the plain absolute value at each place.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm, prod
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .polyring import HomoPoly, ZeroPolynomial, check_degree
from .position import HypersurfaceFamily, Variety
from .replace import PowerBudgetExceeded, check_power_bound


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


def _strip(n: int, p: int) -> tuple:
    """n with every factor p divided out, and the p-part p^ord_p(n) of n."""
    part = 1
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
            n, _ = _strip(n, d)
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

@dataclass(frozen=True, slots=True)
class Place:
    """A place of the rationals: the archimedean one or a prime."""

    prime: Optional[int] = None

    def __post_init__(self):
        if self.prime is not None and not _is_prime(self.prime):
            raise DomainError(f"finite places need a prime, got {self.prime}")

    @classmethod
    def finite(cls, p: int) -> "Place":
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
    num, den = abs(x.numerator), x.denominator
    num_part = den_part = 1
    archimedean = False
    for v in places:
        if v.prime is None:
            archimedean = True
            continue
        num, part = _strip(num, v.prime)
        num_part *= part
        den, part = _strip(den, v.prime)
        den_part *= part
    return Fraction(num, den) if archimedean else Fraction(den_part, num_part)


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

@dataclass(frozen=True, slots=True)
class RationalPoint:
    """Projective point with coprime integer coordinates, first nonzero positive."""

    coords: tuple

    def __post_init__(self):
        raw = []
        for c in self.coords:
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


@dataclass(frozen=True, slots=True)
class LogRational:
    """log(argument)/root held exactly; the log itself is taken only on render.

    Equal values can be held differently, as log(4)/2 and log(2) are.
    """

    argument: Fraction
    root: int = 1

    def __post_init__(self):
        argument = Fraction(self.argument)
        if argument <= 0:
            raise DomainError(f"log argument must be positive, got {argument}")
        if self.root < 1:
            raise DomainError(f"root must be a positive integer, got {self.root}")
        object.__setattr__(self, "argument", argument)

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

        The arguments are lifted to the common root and compared; lifts past
        the power budget are compared by `_log_sign` instead.  The lifts m and
        k, the lcm of the two roots over each root, are coprime.
        """
        r = lcm(self.root, other.root)
        m, k = r // self.root, r // other.root
        try:
            a, b = _power(self.argument, m), _power(other.argument, k)
        except PowerBudgetExceeded:
            return _log_sign(self.argument, m, other.argument, k)
        return (a > b) - (a < b)

    def __eq__(self, other):
        if not isinstance(other, LogRational):
            return NotImplemented
        return self._compare(other) == 0

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __hash__(self):
        # divide out of the root every k for which the argument is a k-th power
        num, den, root = self.argument.numerator, self.argument.denominator, self.root
        for k in _prime_factors(root):
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
    coeffs = list(q.terms.values())
    if not coeffs:
        raise ZeroPolynomial("height of the zero polynomial is undefined")
    arg = max(abs(c) for c in coeffs)
    for v in _coefficient_places(coeffs):
        arg *= max(normalized_abs(c, v) for c in coeffs)
    return LogRational(arg)


# ---------------------------------------------------------------------------
# Weil functions

def _poly_norm(q: HomoPoly, v: Place) -> Fraction:
    return max(normalized_abs(c, v) for c in q.terms.values())


def _value_off_hypersurface(q: HomoPoly, x: RationalPoint) -> Fraction:
    if not q.terms:
        raise ZeroPolynomial("Weil function of the zero polynomial is undefined")
    value = q.evaluate(x.coords)
    if value == 0:
        raise PointOnHypersurface(f"{x!r} lies on the hypersurface")
    return value


def weil_function(q: HomoPoly, x: RationalPoint, v: Place) -> LogRational:
    value = _value_off_hypersurface(q, x)
    # |x|_v is max|x_i| at oo, and 1 at every prime: the coordinates are coprime integers
    point = 1 if v.is_finite else height_point(x).argument ** q.degree
    return LogRational(point * _poly_norm(q, v) / normalized_abs(value, v))


def weil_support(q: HomoPoly, x: RationalPoint) -> tuple:
    """Places where the Weil function can be nonzero: all others contribute 0."""
    value = _value_off_hypersurface(q, x)
    return (INFINITE,) + _coefficient_places(list(q.terms.values()) + [value])


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
    # e_j = lift/d_j.  Coprime integer coordinates give |x|_v = 1 at every prime,
    # so it is C * h(x)^P / prod_v |prod_j Q_j(x)^e_j|_v with C = prod_v prod_j
    # |Q_j|_v^e_j, h(x) = max|x_i|, P = sum_j d_j e_j, and h(x)^P only if oo is in S.
    exponents = [lift // d for d in fam.degrees]
    point_power = sum(d * e for d, e in zip(fam.degrees, exponents)) if INFINITE in places else 0
    coefficients = prod(_poly_norm(m, place) ** e
                        for place in places for m, e in zip(fam.members, exponents))
    logs = {}  # each Decimal(n).ln() is taken once per call
    reports = []
    for x in points:
        if x.ambient + 1 != v.num_vars:
            raise DomainError(f"{x!r} has {x.ambient + 1} coordinates, ambient needs {v.num_vars}")
        for g in v.generators:
            if g.evaluate(x.coords) != 0:
                raise PointNotOnVariety(f"{x!r} does not satisfy a defining equation")
        value = 1
        for j, (member, e) in enumerate(zip(fam.members, exponents)):
            val = member.evaluate(x.coords)
            if val == 0:
                raise PointOnHypersurface(f"{x!r} lies on family member {j + 1}")
            value *= val ** e
        h = height_point(x)
        lhs = LogRational(coefficients * h.argument ** point_power / _s_norm(value, places), lift)
        rhs = h.scale(multiplier)
        slack = float(rhs.value(logs=logs) - lhs.value(logs=logs))
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

# Most coordinate prefixes one sample_points call may walk.  In P^N, shell s
# has (2s+1)^N prefixes of the first N coordinates; a shell that would take
# the running total past this budget is refused before it is enumerated.
MAX_SAMPLE_PREFIXES = 10 ** 7

# Work of sample_points, summed over runs: "prefixes" of the first N
# coordinates solved for the last one, "candidates" (coprime tuples that reach
# the check of every generator) and "points" kept.
SAMPLE_COUNTS = Counter()


class SampleBudgetExceeded(DomainError):
    code = "SampleBudgetExceeded"


def _prefixes(shell: int, length: int):
    """Tuples in [-shell, shell]^length whose first nonzero entry is positive,
    and the zero tuple, in lexicographic order."""
    if length == 0:
        yield ()
        return
    for rest in _prefixes(shell, length - 1):
        yield (0,) + rest
    full = range(-shell, shell + 1)
    yield from iter_product(range(1, shell + 1), *[full] * (length - 1))


def _pivot_terms(pivot: HomoPoly) -> tuple:
    """The pivot with cleared denominators, as (k, coef, ((i, e), ...)) per
    term: an integer coef times x_last^k times the prefix powers x_i^e."""
    den = lcm(*(c.denominator for c in pivot.terms.values()))
    return tuple((m[-1], int(c * den), tuple((i, e) for i, e in enumerate(m[:-1]) if e))
                 for m, c in pivot.terms.items())


def _horner(a: list, t: int) -> int:
    val = 0
    for c in reversed(a):
        val = val * t + c
    return val


def _last_coordinates(terms, degree, prefix, shell) -> Sequence:
    """Values t of the last coordinate that keep prefix + (t,) on the shell
    with a positive first entry, narrowed to the integer roots of the pivot."""
    norm = max(map(abs, prefix), default=0)
    if norm == shell:
        allowed = range(-shell, shell + 1)
    else:
        allowed = (-shell, shell) if norm else (shell,)
    if terms is None:
        return allowed
    a = [0] * (degree + 1)
    for k, c, powers in terms:
        for i, e in powers:
            c *= prefix[i] ** e
        a[k] += c
    ak = next((c for c in a if c), 0)
    if not ak:
        return allowed
    # a nonzero root divides the lowest nonzero coefficient ak
    return [t for t in allowed if (t == 0 or ak % t == 0) and _horner(a, t) == 0]


def sample_points(v: Variety, count: int, max_shell: int = 64) -> tuple:
    """First `count` canonical rational points on V, enumerated by max-norm.

    Shell by shell, each in lexicographic order of the coordinates.  Only the
    surface of each shell is walked: the first N coordinates run over the
    shell's cube and the last one is solved for as an integer root of the
    first generator (the pivot).  The pivot only narrows the candidates; every
    generator is still checked exactly on each of them.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    gens = v.generators
    length = v.num_vars - 1
    terms = _pivot_terms(gens[0]) if gens else None
    degree = gens[0].degree if gens else 0
    found = []
    walked = 0
    for shell in range(1, max_shell + 1):
        walked += (2 * shell + 1) ** length
        if walked > MAX_SAMPLE_PREFIXES:
            raise SampleBudgetExceeded(
                f"shell {shell} would take the walk to {walked} coordinate prefixes, "
                f"past the budget of {MAX_SAMPLE_PREFIXES}")
        for prefix in _prefixes(shell, length):
            SAMPLE_COUNTS["prefixes"] += 1
            for t in _last_coordinates(terms, degree, prefix, shell):
                tup = prefix + (t,)
                if gcd(*tup) != 1:
                    continue
                SAMPLE_COUNTS["candidates"] += 1
                if any(g.evaluate(tup) != 0 for g in gens):
                    continue
                found.append(RationalPoint(tup))
                SAMPLE_COUNTS["points"] += 1
                if len(found) == count:
                    return tuple(found)
    raise DomainError(f"only {len(found)} points found within max-norm {max_shell}")
