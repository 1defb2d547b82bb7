"""Exact homogeneous polynomial arithmetic over Q in N+1 variables.

Monomials are plain exponent tuples of length nvars. A polynomial stores a
dict from exponent tuple to nonzero Fraction; every stored monomial shares one
total degree. The zero polynomial is the empty dict and carries no degree.
Iteration and printing order is graded reverse lexicographic, largest first,
so all outputs are reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import NamedTuple, Sequence

from .errors import DomainError


class PolySyntaxError(DomainError):
    code = "SyntaxError"

    def __init__(self, position, expected, message=None):
        self.position = position
        super().__init__(message or f"at position {position}: expected {expected}")


class NotHomogeneous(DomainError):
    code = "NotHomogeneous"

    def __init__(self, degree_a, degree_b):
        self.degrees = (degree_a, degree_b)
        super().__init__(f"mixed term degrees {degree_a} and {degree_b}")


class VariableOutOfRange(DomainError):
    code = "VariableOutOfRange"

    def __init__(self, index, num_vars):
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
        super().__init__(f"{what} {degree} exceeds the budget of {MAX_DEGREE}")


def check_degree(degree, what="degree"):
    if degree > MAX_DEGREE:
        raise DegreeBudgetExceeded(degree, what)


# Most terms one polynomial may have, checked where a polynomial is parsed or
# read from JSON and before a product is formed.
MAX_TERMS = 10 ** 6


class TermBudgetExceeded(DomainError):
    code = "TermBudgetExceeded"

    def __init__(self, count, what="polynomial"):
        super().__init__(f"{what} with {count} terms exceeds the budget of {MAX_TERMS}")


def _check_terms(count, what="polynomial"):
    if count > MAX_TERMS:
        raise TermBudgetExceeded(count, what)


# Most bits of an integer power that `ineq` prints or a log argument is lifted
# to (`replace`, `heights`): an integer of at most 14284 bits has at most 4300
# decimal digits, the most that int -> str accepts.
MAX_POWER_BITS = 14284


class PowerBudgetExceeded(DomainError):
    code = "PowerBudgetExceeded"


def _power_bits(pairs):
    """Upper bound on the bit length of prod(x ** e) for the (int x >= 1, e) pairs."""
    return sum(e * (x - 1).bit_length() for x, e in pairs) + 1


def check_power_bound(what, *sides):
    """Refuse, before they are formed, the products of powers over each side's
    (x, e) pairs when the widest bound `_power_bits` puts on them passes 16
    times the budget."""
    bits = max(_power_bits(side) for side in sides)
    if bits > 16 * MAX_POWER_BITS:
        raise PowerBudgetExceeded(f"{what} may need {bits} bits, far past the budget of {MAX_POWER_BITS}")


# Most variables a ring may have, checked before anything of that length is
# made.  `groebner._dimension_of_leads` skips the variables that a lead on one
# variable forces, but an ideal with no such lead may make it test all 2^N
# variable subsets, over 4 * 10^9 at 32, so no larger ring could be answered.
MAX_VARIABLES = 32


class VariableBudgetExceeded(DomainError):
    code = "VariableBudgetExceeded"


def check_num_vars(num_vars):
    """`num_vars`, unless the ring has no variables or more than MAX_VARIABLES."""
    if num_vars < 1:
        raise EmptyInput("need at least one variable")
    if num_vars > MAX_VARIABLES:
        raise VariableBudgetExceeded(f"{num_vars} variables exceed the budget of {MAX_VARIABLES}")
    return num_vars


# ---------------------------------------------------------------------------
# monomials

def mono_degree(m):
    return sum(m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def grevlex_key(m):
    # total degree first; ties broken by the reversed negated tail, so the
    # monomial whose last differing exponent is smaller compares larger
    return (sum(m), tuple(-e for e in reversed(m)))


def rat_to_str(x: Fraction) -> str:
    """Serialize as "a/b" with the denominator always present."""
    return f"{x.numerator}/{x.denominator}"


_DIGITS = frozenset("0123456789")


def ascii_int(text: str) -> int:
    """`text` read as an optional sign and ASCII digits, whitespace around them
    allowed, else ValueError; `int` also takes `_` and any Unicode digit."""
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not digits or not _DIGITS.issuperset(digits):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(s)


def rat_from_str(text: str) -> Fraction:
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            n, d = ascii_int(num), ascii_int(den)
        except ValueError:
            raise PolySyntaxError(0, "rational of the form a/b", f"bad rational {text!r}")
        if d <= 0:
            raise PolySyntaxError(0, "positive denominator", f"bad rational {text!r}")
        return Fraction(n, d)
    try:
        return Fraction(ascii_int(s))
    except ValueError:
        raise PolySyntaxError(0, "integer or a/b rational", f"bad rational {text!r}")


def int_from_json(value, name: str) -> int:
    """A JSON integer or a string of one (`ascii_int`); a float or a bool is refused."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return ascii_int(value) if isinstance(value, str) else int(value)
        except ValueError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# polynomials

class HomoPoly:
    """Homogeneous polynomial with exact rational coefficients.

    Q = γ·m for its content γ > 0 and its primitive integer form m, worked
    out on first use and kept in `_primitive`; nothing changes `terms` in place.
    """

    # `_groebner_memo` is the one memo that another module fills: `groebner`
    # keeps packed term dicts and a cache-key digest there; it is unset until then
    __slots__ = ("nvars", "terms", "_degree", "_primitive", "_groebner_memo")

    def __init__(self, nvars: int, terms=None):
        check_num_vars(nvars)
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
        self._primitive = None

    # construction helpers -------------------------------------------------
    @classmethod
    def _trusted(cls, nvars, terms):
        """Result of arithmetic: `terms` maps int-tuple monomials of one degree
        to nonzero Fractions, and nothing is checked or copied."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        p._degree = sum(next(iter(terms))) if terms else None
        p._primitive = None
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def variable(cls, nvars, index, power=1):
        if not 0 <= index < check_num_vars(nvars):
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
        count = len(self.terms) * len(other.terms)
        if count > MAX_TERMS:
            # a product has at most as many terms as its degree has monomials
            n = self.nvars - 1
            _check_terms(min(count, comb(n + self._degree + other._degree, n)), "product")
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
            check_degree(self.degree * k, "degree of the power")
        out = HomoPoly(self.nvars, {(0,) * self.nvars: Fraction(1)})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        """Q(point) as one Fraction: the sum is taken in integers."""
        if len(point) != self.nvars:
            raise DimensionMismatch(f"point has {len(point)} coordinates, ring has {self.nvars} variables")
        pt = [x if type(x) is int else Fraction(x) for x in point]
        if not self.terms:
            return Fraction(0)
        # the point is a/b with integers a_i: Q(a/b) = Q(a)/b^d, since Q is homogeneous
        b = lcm(*(x.denominator for x in pt))
        a = [x.numerator * (b // x.denominator) for x in pt]
        num, den, _, _ = self._primitive or self._primitive_form()  # Q = (num/den)·m
        return Fraction(self.integer_value(a) * num, den * b ** self._degree)

    def integer_value(self, point: Sequence) -> int:
        """m(point) = Q(point) / γ for a point of `nvars` integers, m the
        primitive integer form: Q(point) itself for a primitive Q.  The length
        of the point is not checked."""
        memo = self._primitive or self._primitive_form()
        if memo[3] is None:
            # m's coefficients as ints, each with the nonzero powers (i, e) of its monomial
            memo[3] = tuple((c.numerator, tuple((i, e) for i, e in enumerate(m) if e))
                            for m, c in self.content_free().terms.items())
        total = 0
        for c, powers in memo[3]:
            for i, e in powers:
                c *= point[i] ** e
            total += c
        return total

    def content_free(self):
        """The primitive integer form m of Q = γ·m: content γ > 0, so the signs
        are kept (-2*x0 + 4*x1 gives -x0 + 2*x1).  `self` when Q is already
        primitive, otherwise one polynomial made on first use."""
        free = (self._primitive or self._primitive_form())[2]
        return self if free is None else free

    def _primitive_form(self):
        """Fill `_primitive` with [num, den, m, None] for γ = num/den in lowest
        terms, m None when it is `self` (so the memo makes no reference cycle);
        `integer_value` fills in the last entry on its first call."""
        ratios = [c.as_integer_ratio() for c in self.terms.values()]
        den = lcm(*[d for _, d in ratios])
        num = gcd(*[n * (den // d) for n, d in ratios]) or 1  # 0 only for the zero polynomial
        free = None if den == num == 1 else HomoPoly._trusted(self.nvars, {
            m: Fraction(n * (den // d) // num) for m, (n, d) in zip(self.terms, ratios)})
        self._primitive = [num, den, free, None]
        return self._primitive

    # printing -------------------------------------------------------------
    def __str__(self):
        if self.is_zero:
            return "0"
        text = ""
        for mono, coef in self.sorted_terms():
            term = "*".join(f"x{j}^{e}" if e > 1 else f"x{j}" for j, e in enumerate(mono) if e)
            mag = str(abs(coef))
            # a leading negative sign must stay inside the coefficient to
            # remain inside the grammar, so that term keeps its magnitude: "-1*x0"
            lead_minus = not text and coef < 0
            if mag != "1" or not term or lead_minus:
                term = f"{mag}*{term}" if term else mag
            sign = (" - " if coef < 0 else " + ") if text else "-" if lead_minus else ""
            text += sign + term
        return text

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
# uint    := ASCII digits 0-9 (`_DIGITS`), one or more; int is a uint with an
#            optional sign
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
            _parse_factor(sc, num_vars, exp)
        return coef, tuple(exp)
    raise PolySyntaxError(sc.pos, "coefficient or variable")


def parse_poly(text: str, num_vars: int) -> HomoPoly:
    """Parse the grammar above; rejects non-homogeneous input."""
    check_num_vars(num_vars)
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
    check_degree(degree)
    merged = {}
    for coef, mono in terms:
        merged[mono] = merged.get(mono, Fraction(0)) + coef
    _check_terms(len(merged))
    return HomoPoly._trusted(num_vars, {m: c for m, c in merged.items() if c})


# ---------------------------------------------------------------------------
# spec operations

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
    out = {}
    for c, p in zip(coeffs, polys):
        c = Fraction(c)
        if c:
            for m, v in p.terms.items():
                out[m] = out.get(m, 0) + c * v
    return HomoPoly._trusted(nvars, {m: v for m, v in out.items() if v})


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
    check_degree(d, "lcm of the degrees")
    lifted = tuple(p ** (d // di) for p, di in zip(family, degrees))
    return LcmLift(d, lifted)


# ---------------------------------------------------------------------------
# JSON encoding

def poly_to_json(p: HomoPoly) -> dict:
    return {
        "vars": p.nvars,
        "terms": [{"exp": list(m), "coef": rat_to_str(c)} for m, c in p.sorted_terms()],
    }


def _syntax_int(value, name: str) -> int:
    """`int_from_json`, refusing with PolySyntaxError: a float or a bool is no integer."""
    try:
        return int_from_json(value, name)
    except DomainError as exc:
        raise PolySyntaxError(0, f"integer {name}", exc.message) from None


def poly_from_json(obj: dict) -> HomoPoly:
    try:
        raw_vars, rows = obj["vars"], obj["terms"]
    except (KeyError, TypeError):
        raise PolySyntaxError(0, 'object with "vars" and "terms"')
    nvars = _syntax_int(raw_vars, "vars")
    if not isinstance(rows, list):
        raise PolySyntaxError(0, '"terms" as a list', f"terms must be a list, got {type(rows).__name__}")
    _check_terms(len(rows))
    terms = {}
    for row in rows:
        if not (isinstance(row, dict) and isinstance(row.get("exp"), list)
                and isinstance(row.get("coef"), str)):
            raise PolySyntaxError(0, 'term row {"exp": [integers], "coef": "a/b"}', f"bad term row {row!r}")
        exp = tuple(_syntax_int(e, "exponent") for e in row["exp"])
        if len(exp) != nvars:
            raise DimensionMismatch(f"exponent vector {exp} has length {len(exp)}, ring has {nvars} variables")
        if exp in terms:
            raise PolySyntaxError(0, "distinct exponent vectors", f"duplicate exponent {exp}")
        check_degree(sum(exp))
        terms[exp] = rat_from_str(row["coef"])
    return HomoPoly(nvars, terms)


def polys_from_json(raw, num_vars: int, name: str) -> list:
    """A JSON list of polynomials in `num_vars` variables, each entry either
    text for `parse_poly` or an object for `poly_from_json`."""
    if not isinstance(raw, (list, tuple)):
        raise DomainError(f"{name} must be a list, got {type(raw).__name__}")
    return [parse_poly(e, num_vars) if isinstance(e, str) else poly_from_json(e) for e in raw]
