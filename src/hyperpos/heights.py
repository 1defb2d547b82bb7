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
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple, Optional, Sequence

from .errors import DomainError
from .polyring import HomoPoly, ZeroPolynomial
from .position import HypersurfaceFamily, Variety


class ZeroInput(DomainError):
    code = "ZeroInput"


class PointOnHypersurface(DomainError):
    code = "PointOnHypersurface"


class PointNotOnVariety(DomainError):
    code = "PointNotOnVariety"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    return all(p % d for d in range(3, isqrt(p) + 1, 2))


def _prime_factors(n: int) -> list:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _exact_root(n: int, k: int) -> Optional[int]:
    """The non-negative r with r**k == n, or None when n is no k-th power."""
    if n < 2:
        return n
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


def normalized_abs(x, v: Place) -> Fraction:
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


class ProductFormulaResult(NamedTuple):
    product: Fraction
    ok: bool
    places: tuple


def product_formula_check(x) -> ProductFormulaResult:
    x = Fraction(x)
    if x == 0:
        raise ZeroInput("product formula needs a nonzero rational")
    primes = sorted(set(_prime_factors(x.numerator)) | set(_prime_factors(x.denominator)))
    places = (INFINITE,) + tuple(Place.finite(p) for p in primes)
    prod = Fraction(1)
    for v in places:
        prod *= normalized_abs(x, v)
    return ProductFormulaResult(prod, prod == 1, places)


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

    def __iter__(self):
        return iter(self.coords)

    # error messages print this form
    def __repr__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


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
        return self.argument ** (r // self.root), other.argument ** (r // other.root), r

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
        return LogRational(self.argument ** factor.numerator, self.root * factor.denominator)

    def value(self, digits: int = 50) -> Decimal:
        with localcontext() as ctx:
            ctx.prec = digits + 10
            num = Decimal(self.argument.numerator).ln()
            den = Decimal(self.argument.denominator).ln()
            out = (num - den) / self.root
        with localcontext() as ctx:
            ctx.prec = digits
            return +out

    def __float__(self):
        return float(self.value())

    def __eq__(self, other):
        if not isinstance(other, LogRational):
            return NotImplemented
        a, b, _ = self._key(other)
        return a == b

    def __lt__(self, other):
        a, b, _ = self._key(other)
        return a < b

    def __le__(self, other):
        a, b, _ = self._key(other)
        return a <= b

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


def _point_norm(x: RationalPoint, v: Place) -> Fraction:
    return max(normalized_abs(c, v) for c in x.coords if c != 0)


def _value_off_hypersurface(q: HomoPoly, x: RationalPoint) -> Fraction:
    if not q.terms:
        raise ZeroPolynomial("Weil function of the zero polynomial is undefined")
    value = q.evaluate(x.coords)
    if value == 0:
        raise PointOnHypersurface(f"{x!r} lies on the hypersurface")
    return value


def weil_function(q: HomoPoly, x: RationalPoint, v: Place) -> LogRational:
    value = _value_off_hypersurface(q, x)
    return LogRational(_point_norm(x, v) ** q.degree * _poly_norm(q, v) / normalized_abs(value, v))


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
            if g.evaluate(x.coords) != 0:
                raise PointNotOnVariety(f"{x!r} does not satisfy a defining equation")
        value = 1
        for j, (member, e) in enumerate(zip(fam.members, exponents)):
            val = member.evaluate(x.coords)
            if val == 0:
                raise PointOnHypersurface(f"{x!r} lies on family member {j + 1}")
            value *= val ** e
        arg = Fraction(1)
        for place, norm in zip(places, coefficient_norms):
            arg *= _point_norm(x, place) ** point_power * norm / normalized_abs(value, place)
        lhs = LogRational(arg, lift)
        rhs = height_point(x).scale(multiplier)
        slack = float(rhs.value() - lhs.value())
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
    k = next((k for k, c in enumerate(a) if c), None)
    if k is None:
        return allowed
    # a nonzero root divides the lowest nonzero coefficient a_k; 0 is a root iff k > 0
    ak = a[k]
    if norm == shell:
        divisors = [d for d in range(1, min(shell, abs(ak)) + 1) if ak % d == 0]
        ts = sorted([-d for d in divisors] + ([0] if k else []) + divisors)
    else:
        ts = [t for t in allowed if ak % t == 0]
    return [t for t in ts if _horner(a, t) == 0]


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
    counts = Counter()
    try:
        for shell in range(1, max_shell + 1):
            walked += (2 * shell + 1) ** length
            if walked > MAX_SAMPLE_PREFIXES:
                raise SampleBudgetExceeded(
                    f"shell {shell} would take the walk to {walked} coordinate prefixes, "
                    f"past the budget of {MAX_SAMPLE_PREFIXES}")
            for prefix in _prefixes(shell, length):
                counts["prefixes"] += 1
                for t in _last_coordinates(terms, degree, prefix, shell):
                    tup = prefix + (t,)
                    if gcd(*tup) != 1:
                        continue
                    counts["candidates"] += 1
                    if any(g.evaluate(tup) != 0 for g in gens):
                        continue
                    found.append(RationalPoint(tup))
                    counts["points"] += 1
                    if len(found) == count:
                        return tuple(found)
    finally:
        SAMPLE_COUNTS.update(counts)
    raise DomainError(f"only {len(found)} points found within max-norm {max_shell}")
