"""Exact homogeneous polynomial arithmetic over Q in N+1 variables.

Monomials are plain exponent tuples of length nvars. A polynomial stores a
dict from exponent tuple to nonzero Fraction; every stored monomial shares one
total degree. The zero polynomial is the empty dict and carries no degree.
Iteration and printing order is graded reverse lexicographic, largest first,
so all outputs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError


class PolySyntaxError(DomainError):
    code = "SyntaxError"

    def __init__(self, position, expected, message=None):
        self.position = position
        self.expected = expected
        super().__init__(message or f"at position {position}: expected {expected}")


class NotHomogeneous(DomainError):
    code = "NotHomogeneous"

    def __init__(self, degree_a, degree_b):
        self.degrees = (degree_a, degree_b)
        super().__init__(f"mixed term degrees {degree_a} and {degree_b}")


class VariableOutOfRange(DomainError):
    code = "VariableOutOfRange"

    def __init__(self, index, num_vars):
        self.index = index
        self.num_vars = num_vars
        super().__init__(f"variable x{index} outside x0..x{num_vars - 1}")


class DimensionMismatch(DomainError):
    code = "DimensionMismatch"


class DegreeMismatch(DomainError):
    code = "DegreeMismatch"


class EmptyInput(DomainError):
    code = "EmptyInput"


class ZeroPolynomial(DomainError):
    code = "ZeroPolynomial"


class ConstantMember(DomainError):
    code = "ConstantMember"


# Largest total degree accepted at the input boundary or produced by `**` and
# `lcm_degree`.  Hilbert data, standard monomials and point heights all grow
# with the degree, so a larger one is refused before any work is done.
MAX_DEGREE = 1000


class DegreeBudgetExceeded(DomainError):
    code = "DegreeBudgetExceeded"

    def __init__(self, degree, what="degree"):
        self.degree = degree
        super().__init__(f"{what} {degree} exceeds the budget of {MAX_DEGREE}")


def _check_degree(degree, what="degree"):
    if degree > MAX_DEGREE:
        raise DegreeBudgetExceeded(degree, what)


# ---------------------------------------------------------------------------
# monomials

def mono_degree(m):
    return sum(m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(m):
    # total degree first; ties broken by the reversed negated tail, so the
    # monomial whose last differing exponent is smaller compares larger
    return (sum(m), tuple(-e for e in reversed(m)))


def rat_to_str(x: Fraction) -> str:
    """Serialize as "a/b" with the denominator always present."""
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(text: str) -> Fraction:
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            n, d = int(num), int(den)
        except ValueError:
            raise PolySyntaxError(0, "rational of the form a/b", f"bad rational {text!r}")
        if d <= 0:
            raise PolySyntaxError(0, "positive denominator", f"bad rational {text!r}")
        return Fraction(n, d)
    try:
        return Fraction(int(s))
    except ValueError:
        raise PolySyntaxError(0, "integer or a/b rational", f"bad rational {text!r}")


# ---------------------------------------------------------------------------
# polynomials

class HomoPoly:
    """Homogeneous polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_degree")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise EmptyInput("need at least one variable")
        self.nvars = nvars
        clean = {}
        degree = None
        for mono, coef in (terms or {}).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != nvars:
                raise DimensionMismatch(f"exponent vector {mono} has length {len(mono)}, ring has {nvars} variables")
            if any(e < 0 for e in mono):
                raise DomainError(f"negative exponent in {mono}")
            coef = Fraction(coef)
            if coef == 0:
                continue
            d = sum(mono)
            if degree is None:
                degree = d
            elif d != degree:
                raise NotHomogeneous(degree, d)
            clean[mono] = clean.get(mono, Fraction(0)) + coef
        self.terms = {m: c for m, c in clean.items() if c != 0}
        self._degree = degree if self.terms else None

    # construction helpers -------------------------------------------------
    @classmethod
    def _trusted(cls, nvars, terms):
        """Result of arithmetic: `terms` maps int-tuple monomials of one degree
        to nonzero Fractions, and nothing is checked or copied."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._degree = sum(next(iter(terms))) if terms else None
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def variable(cls, nvars, index, power=1):
        if not 0 <= index < nvars:
            raise VariableOutOfRange(index, nvars)
        exp = [0] * nvars
        exp[index] = power
        return cls(nvars, {tuple(exp): Fraction(1)})

    # basic queries --------------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        if self._degree is None:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return self._degree

    def sorted_terms(self):
        """Terms as (monomial, coefficient), grevlex-descending."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=grevlex_key, reverse=True)]

    def __eq__(self, other):
        return isinstance(other, HomoPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # arithmetic -----------------------------------------------------------
    def _check_ring(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} vs {other.nvars} variables")

    def __add__(self, other):
        self._check_ring(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._degree != other._degree:
            raise DegreeMismatch(f"degrees {self._degree} and {other._degree}")
        merged = dict(self.terms)
        for m, c in other.terms.items():
            merged[m] = merged.get(m, 0) + c
        return HomoPoly._trusted(self.nvars, {m: c for m, c in merged.items() if c})

    def __neg__(self):
        return HomoPoly._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return HomoPoly.zero(self.nvars)
        return HomoPoly._trusted(self.nvars, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return HomoPoly._trusted(self.nvars, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise DomainError("negative power")
        if k and not self.is_zero:
            _check_degree(self.degree * k, "degree of the power")
        out = HomoPoly(self.nvars, {(0,) * self.nvars: Fraction(1)})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def mul_term(self, mono, coef):
        """Multiply by coef * x^mono."""
        coef = Fraction(coef)
        if coef == 0:
            return HomoPoly.zero(self.nvars)
        return HomoPoly._trusted(self.nvars, {mono_mul(m, mono): c * coef for m, c in self.terms.items()})

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point has {len(point)} coordinates, ring has {self.nvars} variables")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for x, e in zip(pt, m):
                if e:
                    v *= x ** e
            total += v
        return total

    def content_free(self):
        """Integer-primitive scalar multiple (positive leading content)."""
        if self.is_zero:
            return self
        den = 1
        for c in self.terms.values():
            den = lcm(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator * (den // c.denominator)))
        if den == num == 1:
            return self  # already integer-primitive
        return self.scale(Fraction(den, num))

    # printing -------------------------------------------------------------
    def __str__(self):
        if self.is_zero:
            return "0"
        pieces = []
        for i, (mono, coef) in enumerate(self.sorted_terms()):
            factors = []
            for j, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{j}")
                elif e > 1:
                    factors.append(f"x{j}^{e}")
            mono_s = "*".join(factors)
            mag = abs(coef)
            mag_s = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if i == 0:
                # a leading negative sign must stay inside the coefficient to
                # remain inside the grammar, so print it explicitly
                if coef < 0:
                    body = f"-{mag_s}*{mono_s}" if mono_s else f"-{mag_s}"
                elif mono_s and mag == 1:
                    body = mono_s
                else:
                    body = f"{mag_s}*{mono_s}" if mono_s else mag_s
                pieces.append(body)
            else:
                joiner = " - " if coef < 0 else " + "
                if mono_s and mag == 1:
                    pieces.append(joiner + mono_s)
                else:
                    pieces.append(joiner + (f"{mag_s}*{mono_s}" if mono_s else mag_s))
        return "".join(pieces)

    def __repr__(self):
        return f"HomoPoly({self.nvars}, {str(self)!r})"


# ---------------------------------------------------------------------------
# parser
#
# poly    := term (('+'|'-') term)*
# term    := coeff ('*'? factor)* | factor ('*' factor)*
# factor  := var ('^' uint)?
# var     := 'x' uint
# coeff   := int ('/' uint)?
# whitespace ignored

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolySyntaxError(start, what)
        s = self.text[start:self.pos]
        self.skip_ws()
        try:
            return int(s)
        except ValueError:  # longer than the interpreter's int digit limit
            raise PolySyntaxError(start, what, f"{what} at position {start} has too many digits")


def _parse_factor(sc: _Scanner, num_vars, exp):
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


def _parse_term(sc: _Scanner, num_vars):
    """One term as (coefficient, exponent tuple)."""
    exp = [0] * num_vars
    ch = sc.peek()
    if ch == "x":
        _parse_factor(sc, num_vars, exp)
        while sc.peek() == "*":
            sc.take()
            _parse_factor(sc, num_vars, exp)
        return Fraction(1), tuple(exp)
    if ch.isdigit() or ch in ("+", "-"):
        sign = 1
        if ch in ("+", "-"):
            pos = sc.pos
            sign = -1 if sc.take() == "-" else 1
            if not sc.peek().isdigit():
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
            _parse_factor(sc, num_vars, exp)
        return coef, tuple(exp)
    raise PolySyntaxError(sc.pos, "coefficient or variable")


def parse_poly(text: str, num_vars: int) -> HomoPoly:
    """Parse the grammar above; rejects non-homogeneous input."""
    if num_vars < 1:
        raise EmptyInput("need at least one variable")
    sc = _Scanner(text)
    terms = []  # (coefficient, monomial) with duplicates allowed
    coef, mono = _parse_term(sc, num_vars)
    terms.append((coef, mono))
    while sc.peek() in ("+", "-"):
        sign = -1 if sc.take() == "-" else 1
        coef, mono = _parse_term(sc, num_vars)
        terms.append((sign * coef, mono))
    if sc.pos != len(sc.text):
        raise PolySyntaxError(sc.pos, "'+', '-' or end of input")
    # homogeneity is a property of the written terms, before any cancellation
    degree = mono_degree(terms[0][1])
    for _, mono in terms[1:]:
        if mono_degree(mono) != degree:
            raise NotHomogeneous(degree, mono_degree(mono))
    _check_degree(degree)
    merged = {}
    for coef, mono in terms:
        merged[mono] = merged.get(mono, Fraction(0)) + coef
    return HomoPoly(num_vars, merged)


# ---------------------------------------------------------------------------
# spec operations

def eval_poly(p: HomoPoly, point: Sequence) -> Fraction:
    return p.evaluate(point)


def poly_combine(coeffs: Sequence, polys: Sequence[HomoPoly]) -> HomoPoly:
    """Sum of coeffs[i] * polys[i]; nonzero inputs must share one degree."""
    if len(coeffs) != len(polys):
        raise DimensionMismatch(f"{len(coeffs)} coefficients for {len(polys)} polynomials")
    if not polys:
        raise EmptyInput("nothing to combine")
    nvars = polys[0].nvars
    degree = None
    for p in polys:
        if p.nvars != nvars:
            raise DimensionMismatch(f"{p.nvars} vs {nvars} variables")
        if p.is_zero:
            continue
        if degree is None:
            degree = p.degree
        elif p.degree != degree:
            raise DegreeMismatch(f"degrees {degree} and {p.degree}")
    out = HomoPoly.zero(nvars)
    for c, p in zip(coeffs, polys):
        out = out + p.scale(c)
    return out


class LcmLift(NamedTuple):
    """Result of lcm_degree: the lcm and the power-lifted family."""

    degree: int
    lifted: tuple


def lcm_degree(family: Sequence[HomoPoly]) -> LcmLift:
    """lcm d of the degrees plus each member raised to d/d_i."""
    if not family:
        raise EmptyInput("empty family")
    degrees = [p.degree for p in family]  # ZeroPolynomial for a zero member
    if 0 in degrees:
        raise ConstantMember(f"member {degrees.index(0)} is a nonzero constant")
    d = lcm(*degrees)
    _check_degree(d, "lcm of the degrees")
    lifted = tuple(p ** (d // di) for p, di in zip(family, degrees))
    return LcmLift(d, lifted)


# ---------------------------------------------------------------------------
# JSON encoding

def poly_to_json(p: HomoPoly) -> dict:
    return {
        "vars": p.nvars,
        "terms": [{"exp": list(m), "coef": rat_to_str(c)} for m, c in p.sorted_terms()],
    }


def poly_from_json(obj: dict) -> HomoPoly:
    try:
        nvars = int(obj["vars"])
        rows = obj["terms"]
    except (KeyError, TypeError, ValueError):
        raise PolySyntaxError(0, 'object with "vars" and "terms"')
    if not isinstance(rows, list):
        raise PolySyntaxError(0, '"terms" as a list', f"terms must be a list, got {type(rows).__name__}")
    terms = {}
    for row in rows:
        if not (isinstance(row, dict) and isinstance(row.get("exp"), list)
                and isinstance(row.get("coef"), str)):
            raise PolySyntaxError(0, 'term row {"exp": [integers], "coef": "a/b"}', f"bad term row {row!r}")
        try:
            exp = tuple(int(e) for e in row["exp"])
        except (TypeError, ValueError):
            raise PolySyntaxError(0, "integer exponents", f"bad exponent vector {row['exp']!r}")
        if len(exp) != nvars:
            raise DimensionMismatch(f"exponent vector {exp} has length {len(exp)}, ring has {nvars} variables")
        if exp in terms:
            raise PolySyntaxError(0, "distinct exponent vectors", f"duplicate exponent {exp}")
        _check_degree(sum(exp))
        terms[exp] = rat_from_str(row["coef"])
    return HomoPoly(nvars, terms)
