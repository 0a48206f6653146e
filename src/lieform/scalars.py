"""Exact coefficient field: rational functions over Q in declared parameters.

A ``Poly`` is a multivariate polynomial with exact rational coefficients,
stored sparsely as a map from exponent vectors to coefficients.  A ``Scalar``
is a quotient of two such polynomials and is the coefficient field used
everywhere else in the package.

Arithmetic runs on Python ints wherever the values allow it: a ``Poly``
stores an integral coefficient as an ``int`` and only a proper fraction as a
``Fraction`` (the int normal form), and multiplies over Z after clearing
denominators.  An ``int`` prints, compares and hashes like the equal
``Fraction``, so the normal form changes no output.

Equality of scalars compares numerators over equal denominators and
cross-multiplies otherwise, so correctness never depends on polynomial GCDs.
A cheap normalization (rational content and common monomial factors) keeps
sizes under control; a scalar whose denominator is 1 is a polynomial and
skips it.  Arithmetic skips identity work, and each shortcut returns the
(num, den) pair the general formula builds, without its products: a product
returns a zero factor, or the other factor of a one, as it is (zero is
always the pair (0, 1), and normalization is idempotent); a sum or
difference returns the other operand of a zero summand; a constant factor
scales coefficients; a denominator of 1 is not multiplied; and a difference
subtracts directly instead of adding a negation.  Every denominator 1 is
the shared ``Poly.one`` of its parameters, told by identity.  A constant
(denominator 1, numerator at most a constant term) records its value, an
``int`` or a ``Fraction`` (0 for zero), as ``Scalar.rational`` when it is
built, also when the normalization leaves one (``6/4``, ``(2*a)/a``).
Constants add, subtract, multiply, negate, invert and divide by one
rational operation on those values, which is all the general formula does
to them: it keeps the denominator 1 and builds the one numerator term,
dropped when zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from numbers import Rational
from operator import add, mul, sub, truediv


class ScalarError(Exception):
    pass


class DenominatorVanishes(ScalarError):
    """The denominator of a scalar vanishes at the requested parameter point."""

    def __init__(self, point):
        self.point = dict(point)
        at = ", ".join(f"{name}={v}" for name, v in self.point.items())
        super().__init__(f"denominator vanishes at {at}")


class ParameterValueError(ScalarError):
    """A point gives a parameter no value, or a value that is not rational."""

    def __init__(self, name, msg):
        self.name = name
        super().__init__(f"parameter {name!r}: {msg}")


class ScalarParseError(ScalarError):
    def __init__(self, text, pos, msg):
        self.text = text
        self.pos = pos
        super().__init__(f"parse error at position {pos} in {text!r}: {msg}")


def _grlex_key(expts):
    return (sum(expts), expts)


class Poly:
    """Sparse multivariate polynomial over Q in a fixed parameter list.

    ``terms`` maps exponent tuples to nonzero coefficients.  An integral
    coefficient is always an ``int``, a proper fraction a ``Fraction``.
    """

    __slots__ = ("params", "terms")
    _units = {}  # the one Poly of each parameter tuple (Poly.one)

    def __init__(self, params, terms):
        self.params = tuple(params)
        self.terms = {e: c.numerator if c.denominator == 1 else c
                      for e, c in terms.items() if c}

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, params, value):
        """value is an int or a Fraction: a float would be read inexactly."""
        if not isinstance(value, (int, Fraction)):
            raise ScalarError(
                f"constant {value!r} is not an int or a Fraction")
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def one(cls, params):
        """The one over params: one shared instance per parameter tuple, so
        that a scalar's denominator of one is told by identity."""
        params = tuple(params)
        unit = cls._units.get(params)
        if unit is None:
            unit = cls._units[params] = cls.const(params, 1)
        return unit

    @classmethod
    def var(cls, params, name):
        params = tuple(params)
        i = params.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(params)))
        return cls(params, {e: 1})

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def is_one(self):
        return (len(self.terms) == 1
                and self.terms.get((0,) * len(self.params)) == 1)

    def total_degree(self):
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        """Leading (exponent, coefficient) under graded lexicographic order."""
        if self.is_zero():
            raise ScalarError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def content(self):
        """Positive rational content (gcd of coefficients)."""
        if self.is_zero():
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def monomial_gcd(self):
        """Elementwise-minimum exponent vector over all terms."""
        n = len(self.params)
        if self.is_zero():
            return (0,) * n
        it = iter(self.terms)
        m = list(next(it))
        for e in it:
            for i in range(n):
                if e[i] < m[i]:
                    m[i] = e[i]
        return tuple(m)

    def shift_down(self, mono):
        if all(x == 0 for x in mono):
            return self
        return Poly(self.params, {
            tuple(a - b for a, b in zip(e, mono)): c for e, c in self.terms.items()
        })

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.params != other.params:
            raise ScalarError(
                f"parameter mismatch: {self.params} vs {other.params}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.params, terms)

    def __neg__(self):
        return Poly(self.params, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return Poly(self.params, terms)

    def _integral(self):
        """(l, terms times l), l the lcm of the coefficient denominators."""
        l = lcm(*(c.denominator for c in self.terms.values()))
        if l == 1:
            return 1, self.terms
        return l, {e: c.numerator * (l // c.denominator)
                   for e, c in self.terms.items()}

    def _scaled(self, c):
        """self times the int or Fraction c; self itself when c is 1."""
        if c == 1:
            return self
        return Poly(self.params, {e: x * c for e, x in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):  # an int or a Fraction
            return self._scaled(other)
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        # a constant operand scales the other one's coefficients
        zero = (0,) * len(self.params)
        if len(other.terms) == 1 and zero in other.terms:
            return self._scaled(other.terms[zero])
        if len(self.terms) == 1 and zero in self.terms:
            return other._scaled(self.terms[zero])
        # multiply over Z and divide each product term once
        l1, a = self._integral()
        l2, b = other._integral()
        terms = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        l = l1 * l2
        if l != 1:
            terms = {e: Fraction(c, l) for e, c in terms.items()}
        return Poly(self.params, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ScalarError("negative power of a polynomial")
        result = Poly.one(self.params)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def substitute(self, assignment):
        """Substitute a subset of the parameters by exact rationals.

        The result lives over the same parameter list; substituted variables
        simply no longer occur.  Other values raise ParameterValueError.
        """
        _check_rational(assignment)
        vals = {p: Fraction(v) for p, v in assignment.items()}
        idx = [i for i, p in enumerate(self.params) if p in vals]
        if not idx:
            return self
        terms = {}
        for e, c in self.terms.items():
            for i in idx:
                if e[i]:
                    c = c * vals[self.params[i]] ** e[i]
            if c == 0:
                continue
            e2 = tuple(0 if i in idx else k for i, k in enumerate(e))
            terms[e2] = terms.get(e2, 0) + c
        return Poly(self.params, terms)

    def compiled(self):
        """(l, deg, terms) for evaluating at points X / D over Z (see
        ``Evaluator``): l the lcm of the coefficient denominators, deg the
        total degree (0 for the zero polynomial) and terms the triples
        (l c_e, deg - |e|, ((i, e_i) for each e_i != 0))."""
        l, terms = self._integral()
        deg = max(self.total_degree(), 0)
        return l, deg, [(c, deg - sum(e),
                         tuple((i, k) for i, k in enumerate(e) if k))
                        for e, c in terms.items()]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            try:
                text = str(c)
            except ValueError as exc:  # more digits than int -> str allows
                raise ScalarError("coefficient too long to print") from exc
            mono = "*".join(
                p if k == 1 else f"{p}^{k}"
                for p, k in zip(self.params, e) if k)
            if mono:
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                else:
                    term = f"{text}*{mono}"
            else:
                term = text
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"Poly({self})"


class Scalar:
    """Element of the rational-function field Q(p1,...,pm).

    Immutable.  The denominator is normalized so that its rational content is
    1 (so all its coefficients are ints) and its graded-lex leading
    coefficient is positive; common monomial factors of numerator and
    denominator are cancelled.  A polynomial (denominator None or 1) is
    already in this form and is kept as given.
    """

    __slots__ = ("num", "den", "rational")

    def __init__(self, num, den=None):
        one = Poly.one(num.params)
        if den is None:
            den = one
        elif den is not one:
            if num.params != den.params:
                raise ScalarError("parameter mismatch in scalar")
            if den.is_zero():
                raise ScalarError("zero denominator")
            if not num.terms or den.is_one():
                den = one
            else:
                m_num = num.monomial_gcd()
                m_den = den.monomial_gcd()
                mono = tuple(min(a, b) for a, b in zip(m_num, m_den))
                num = num.shift_down(mono)
                den = den.shift_down(mono)
                c = den.content()
                _, lead = den.leading()
                if lead < 0:
                    c = -c
                if c != 1:
                    inv = Fraction(1) / c
                    num = num * inv
                    den = den * inv
                if den.is_one():
                    den = one
        self.num = num
        self.den = den
        # the value of a constant (0 for zero), None for any other scalar
        terms = num.terms
        self.rational = (None if den is not one or len(terms) > 1 else
                         terms.get((0,) * len(num.params)) if terms else 0)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, params, value):
        return cls(Poly.const(params, value))

    @classmethod
    def zero(cls, params):
        return cls(Poly.zero(params))

    @classmethod
    def one(cls, params):
        return cls(Poly.one(params))

    @classmethod
    def var(cls, params, name):
        return cls(Poly.var(params, name))

    # -- queries ------------------------------------------------------

    @property
    def params(self):
        return self.num.params

    def is_zero(self):
        return not self.num.terms

    def substitute(self, assignment):
        """Partial specialization of parameters; exact.

        Raises DenominatorVanishes when the substitution kills the
        denominator.
        """
        den = self.den.substitute(assignment)
        if den.is_zero():
            raise DenominatorVanishes(assignment)
        return Scalar(self.num.substitute(assignment), den)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.const(self.params, other)
        return None

    def _sum(self, other, op):
        """self + other or self - other, for op the Poly add or sub."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self.num._check(other.num)
        if other.is_zero():
            return self
        if self.is_zero():
            return other if op is add else -other
        if (a := self.rational) is not None and \
                (b := other.rational) is not None:
            return Scalar.const(self.params, op(a, b))
        if self.den == other.den:
            return Scalar(op(self.num, other.num), self.den)
        return Scalar(op(self.num * other.den, other.num * self.den),
                      self.den * other.den)

    def __add__(self, other):
        return self._sum(other, add)

    __radd__ = __add__

    def __neg__(self):
        if (a := self.rational) is not None:
            return Scalar.const(self.params, -a)
        return Scalar(-self.num, self.den)

    def __sub__(self, other):
        return self._sum(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self.num._check(other.num)
        if self.is_zero() or other.rational == 1:
            return self
        if other.is_zero() or self.rational == 1:
            return other
        if (a := self.rational) is not None and \
                (b := other.rational) is not None:
            return Scalar.const(self.params, a * b)
        one = Poly.one(self.params)
        if self.den is one:
            den = other.den
        elif other.den is one:
            den = self.den
        else:
            den = self.den * other.den
        return Scalar(self.num * other.num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self.num._check(other.num)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if (a := self.rational) is not None and \
                (b := other.rational) is not None:
            return Scalar.const(self.params, Fraction(a) / b)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if (a := self.rational) is not None:
            return Scalar.const(self.params, Fraction(a.denominator,
                                                      a.numerator))
        return Scalar(self.den, self.num)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return Scalar(self.num ** k, self.den ** k)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        # cross-multiplication; no GCD needed for correctness
        return (self.num * other.den - other.num * self.den).is_zero()

    # equal quotients can have different num/den pairs until scalars have
    # a canonical form, so no hash agrees with ==
    __hash__ = None

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        # the denominator must re-parse as a single '/' operand, so wrap it
        # unless it is a constant or a bare power of one variable
        e, c = self.den.leading()
        atomic = len(self.den.terms) == 1 and (
            sum(1 for k in e if k) == 0 or
            (c == 1 and sum(1 for k in e if k) == 1))
        if not atomic:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Scalar({self})"


def _check_rational(assignment):
    """ParameterValueError for a value that is not an int or a Fraction."""
    for name, v in assignment.items():
        if not isinstance(v, Rational):
            raise ParameterValueError(name, f"value {v!r} is not rational")


def integer_point(params, assignment):
    """(D, X): a point of ints and Fractions as X / D over Z, with D > 0 the
    lcm of its denominators and X the list of D times each value, in the
    order of params.  Raises ParameterValueError for a missing parameter and
    for a value that is not an int or a Fraction."""
    _check_rational(assignment)
    for p in params:
        if p not in assignment:
            raise ParameterValueError(p, "no value given")
    vals = [assignment[p] for p in params]
    D = lcm(*(v.denominator for v in vals))
    return D, [v.numerator * (D // v.denominator) for v in vals]


class Evaluator:
    """Scalars over one parameter list, compiled once (``Poly.compiled``)
    for evaluation over Z at many points X / D (``integer_point``): from
    power tables of D and each X_i, a polynomial of total degree deg is
    v / s with v = sum l c_e X^e D^(deg-|e|) and s = l D^deg, and a scalar
    num / den is the int pair (v_num s_den, s_num v_den).  A constant
    polynomial's pair (v, s) = (l c, l) is the same at every point, so it
    is taken once, when the scalars are compiled."""

    def __init__(self, params, scalars):
        self.params = tuple(params)
        compiled = [p.compiled() for s in scalars for p in (s.num, s.den)]
        self.polys = [(c, _value(c, (1,), ()) if c[1] == 0 else None)
                      for c in compiled]
        self.degree = max((deg for _, deg, _ in compiled), default=0)

    def __call__(self, assignment):
        """[(num, den)], den != 0, for the scalars at the point.  Raises
        DenominatorVanishes and ParameterValueError (``integer_point``)."""
        D, X = integer_point(self.params, assignment)
        powers = range(self.degree + 1)
        Dp = [D ** k for k in powers]
        Xp = [[x ** k for k in powers] for x in X]
        out = []
        polys = (pair or _value(c, Dp, Xp) for c, pair in self.polys)
        for (v_num, s_num), (v_den, s_den) in zip(polys, polys):
            if v_den == 0:
                raise DenominatorVanishes(
                    {p: Fraction(v) for p, v in assignment.items()})
            out.append((v_num * s_den, s_num * v_den))
        return out


def _value(compiled, Dp, Xp):
    """(v, s) of a compiled polynomial from the power tables Dp and Xp."""
    l, deg, terms = compiled
    v = 0
    for c, r, mono in terms:
        t = c * Dp[r]
        for i, k in mono:
            t *= Xp[i][k]
        v += t
    return v, l * Dp[deg]


def scalar_eval(s, assignment):
    """Evaluate a scalar at a point of ints and Fractions; exact result.

    One compiled evaluation (``Evaluator``) reduced to a Fraction.  Raises
    DenominatorVanishes when the point lies on the denominator locus and
    ParameterValueError for a missing or non-rational value.
    """
    (num, den), = Evaluator(s.params, [s])(assignment)
    return Fraction(num, den)


CScalar = None  # read only by the bench's result sizer, bench/spans.py


# ---------------------------------------------------------------------------
# Scalar literal grammar: integers, parameter identifiers, + - * / ^ with
# integer exponents, parentheses.  Example: -(1+a^2)/b
# ---------------------------------------------------------------------------

# Limits that keep a short literal from exhausting the stack or building a
# huge power.  The literals of the shipped documents and demos nest at most 2
# deep and raise only monomials to at most the 2nd power.
MAX_NESTING = 100      # open parentheses and unary minus signs
MAX_POWER_TERMS = 100  # C(t+k-1, k): terms of a t-term polynomial to the k
MAX_POWER_BITS = 4096  # |k| times the bit length of the largest coefficient

_OPERATORS = {"+": add, "-": sub, "*": mul, "/": truediv}


class Parser:
    """Recursive descent over the literal grammar.  Identifiers are read by
    name() and operators applied by combine(), which a subclass may extend
    to values other than scalars."""

    def __init__(self, text, params):
        self.text = text
        self.params = tuple(params)
        self.pos = 0
        self.depth = 0

    def error(self, msg):
        raise ScalarParseError(self.text, self.pos, msg)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return value

    def expr(self):
        ch = self.peek()
        if ch == "+":
            self.pos += 1
            value = self.term()
        elif ch == "-":
            self.pos += 1
            value = -self.term()
        else:
            value = self.term()
        return self.fold(value, ("+", "-"), self.term)

    def term(self):
        return self.fold(self.power(), ("*", "/"), self.power)

    def fold(self, value, ops, operand):
        """value op operand op operand ..., left to right, for ops in ops."""
        while (op := self.peek()) in ops:
            at = self.pos
            self.pos += 1
            value = self.combine(op, at, value, operand())
        return value

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        at = self.pos
        self.pos += 1
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        return self.combine("^", at, base, sign * self.integer())

    def combine(self, op, at, a, b):
        """a op b, for the operator op read at position at."""
        if op == "^":
            self.check_power(a, b)
            return a ** b
        if op == "/" and b.is_zero():
            self.error("division by zero")
        return _OPERATORS[op](a, b)

    def check_power(self, base, k):
        """Reject base^k before computing it when it would be large."""
        if k < 0 and base.is_zero():
            self.error("division by zero")
        polys = (base.num, base.den)
        # first, since it also bounds k, and so the cost of comb()
        bits = max(max(abs(c.numerator), c.denominator).bit_length()
                   for p in polys for c in p.terms.values())
        k = abs(k)
        if k * bits > MAX_POWER_BITS:
            self.error(f"power may have {k * bits}-bit coefficients "
                       f"(limit {MAX_POWER_BITS})")
        terms = comb(max(len(p.terms) for p in polys) + k - 1, k)
        if terms > MAX_POWER_TERMS:
            self.error(f"power may have {terms} terms "
                       f"(limit {MAX_POWER_TERMS})")

    def atom(self):
        ch = self.peek()
        if ch in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"nesting deeper than {MAX_NESTING}")
            self.pos += 1
            if ch == "(":
                value = self.expr()
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
            else:
                value = -self.atom()
            self.depth -= 1
            return value
        if ch.isdigit():
            return Scalar.const(self.params, self.integer())
        if ch.isalpha() or ch == "_":
            return self.name(self.identifier())
        self.error("expected number, parameter or '('")

    def name(self, name):
        """The value of an identifier."""
        if name not in self.params:
            self.error(f"unknown parameter {name!r}")
        return Scalar.var(self.params, name)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts
            self.error("integer too long")

    def identifier(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]


def parse_scalar(text, params):
    """Parse a scalar literal like ``-(1+a^2)/b`` over the given parameters."""
    return Parser(str(text), params).parse()
