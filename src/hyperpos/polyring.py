"""Exact homogeneous polynomial arithmetic over Q in N+1 variables.

Monomials are plain exponent tuples of length nvars. A polynomial stores a
dict from exponent tuple to nonzero Fraction; every stored monomial shares one
total degree. The zero polynomial is the empty dict and carries no degree.
Iteration and printing order is graded reverse lexicographic, largest first,
so all outputs are reproducible bit for bit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, gcd, lcm
from operator import itemgetter
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


# m -> m[::-1]: ascending in it is grevlex-descending among monomials of one degree
_REVERSED = itemgetter(slice(None, None, -1))


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
        """Terms as (monomial, coefficient), grevlex-descending: as every
        monomial has one degree, ascending in the reversed exponent tuple."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_REVERSED)]

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
# uint    := ASCII digits 0-9, one or more; int is a uint with an optional sign
#
# The grammar reads tokens: a run of ASCII digits (`[0-9]`, never `\d`, which
# takes any Unicode digit) or one other character that is not whitespace
# (`\S`: exactly the characters for which `str.isspace` is false).
# Whitespace only separates tokens, so "x0 ^ 2" reads as "x0^2" while
# "1 2*x0" is the integer 1 followed by the token 2.  A long text is read
# in chunks of about _CHUNK characters, each cut before a '+' or '-' that
# follows a digit: there one term has ended and the next begins, so the
# walk decides as it would on the whole list, and the list stays short.

_TOKENS = re.compile(r"[0-9]+|\S")
_TERM_BREAK = re.compile(r"[0-9]\s*[+-]")
_CHUNK = 1 << 16


class _Unparsed(Exception):
    """A syntax error at a token, with args (its index in the chunk, what was
    expected, whether its digits were too many); only a failure needs its
    position."""

    def error(self, text, start, end):
        """The PolySyntaxError at the token's position in the chunk
        text[start:end]; the end marker, one past its last token, stands at `end`."""
        index, expected, *too_long = self.args
        position = next((m.start() for k, m in enumerate(_TOKENS.finditer(text, start, end))
                         if k == index), end)
        message = f"{expected} at position {position} has too many digits" if too_long else None
        return PolySyntaxError(position, expected, message)


def _chunk(text, start):
    """The tokens of text[start:end], with the end marker "", and `end`."""
    end = len(text)
    if end - start > _CHUNK:
        cut = _TERM_BREAK.search(text, start + _CHUNK)
        if cut:
            end = cut.end() - 1
    toks = _TOKENS.findall(text, start, end)
    toks.append("")
    return toks, end


def _uint(toks, i, what):
    """The integer of the digit token toks[i]."""
    tok = toks[i]
    if not "0" <= tok < ":":  # the one kind of token that starts with 0-9
        raise _Unparsed(i, what)
    try:
        return int(tok)
    except ValueError:  # longer than the interpreter's int digit limit
        raise _Unparsed(i, what, True) from None


def _parse_factor(toks, i, num_vars, exp):
    """Read the factor x<index>^<power> at toks[i], add its power to `exp` and
    return the index past it."""
    if toks[i] != "x":
        raise _Unparsed(i, "variable 'x<index>'")
    index = _uint(toks, i + 1, "variable index")
    if index >= num_vars:
        raise VariableOutOfRange(index, num_vars)
    if toks[i + 2] == "^":
        exp[index] += _uint(toks, i + 3, "exponent")
        return i + 4
    exp[index] += 1
    return i + 2


def _parse_term(toks, i, num_vars):
    """The term at toks[i] as (index past it, numerator, denominator, exponent list)."""
    exp = [0] * num_vars
    tok = toks[i]
    if tok == "x":
        i = _parse_factor(toks, i, num_vars, exp)
        while toks[i] == "*":
            i = _parse_factor(toks, i + 1, num_vars, exp)
        return i, 1, 1, exp
    if tok == "+" or tok == "-":
        if not "0" <= toks[i + 1] < ":":
            raise _Unparsed(i, "digits after sign")
        i += 1
    elif not "0" <= tok < ":":
        raise _Unparsed(i, "coefficient or variable")
    num = _uint(toks, i, "integer coefficient")
    if tok == "-":
        num = -num
    den = 1
    i += 1
    if toks[i] == "/":
        den = _uint(toks, i + 1, "denominator")
        if not den:
            raise _Unparsed(i + 1, "positive denominator")
        i += 2
    while True:
        tok = toks[i]
        if tok == "*":
            i = _parse_factor(toks, i + 1, num_vars, exp)
        elif tok == "x":
            i = _parse_factor(toks, i, num_vars, exp)
        else:
            return i, num, den, exp


def parse_poly(text: str, num_vars: int) -> HomoPoly:
    """Parse the grammar above; rejects non-homogeneous input.  Each written
    term is merged into the result as it is read; homogeneity, a property of
    the written terms before any cancellation, is refused only once the whole
    text has parsed, so a syntax error anywhere wins."""
    check_num_vars(num_vars)
    start = 0
    toks, end = _chunk(text, start)
    merged = {}
    degree = mismatch = None
    negate = False
    i = 0
    try:
        while True:
            i, num, den, exp = _parse_term(toks, i, num_vars)
            mono = tuple(exp)
            coef = Fraction(-num if negate else num, den)
            prior = merged.get(mono)
            merged[mono] = coef if prior is None else prior + coef
            d = sum(exp)
            if degree is None:
                degree = d
            elif d != degree and mismatch is None:
                mismatch = d
            tok = toks[i]
            if not tok and end < len(text):  # the next chunk starts with '+' or '-'
                start = end
                toks, end = _chunk(text, start)
                i, tok = 0, toks[0]
            if tok != "+" and tok != "-":
                break
            negate = tok == "-"
            i += 1
        if tok:
            raise _Unparsed(i, "'+', '-' or end of input")
    except _Unparsed as stop:
        raise stop.error(text, start, end) from None
    if mismatch is not None:
        raise NotHomogeneous(degree, mismatch)
    check_degree(degree)
    _check_terms(len(merged))
    if not all(merged.values()):
        merged = {m: c for m, c in merged.items() if c}
    return HomoPoly._trusted(num_vars, merged)


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
