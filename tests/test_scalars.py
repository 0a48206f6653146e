"""Exact scalar field: arithmetic, equality, substitution, parsing."""

import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lieform.scalars import (MAX_NESTING, DenominatorVanishes, Evaluator,
                             ParameterValueError, Poly, Scalar, ScalarError,
                             ScalarParseError, parse_scalar, scalar_eval)

P = ("a", "b")


def S(text):
    return parse_scalar(text, P)


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_poly_construction_drops_zero_terms():
    p = Poly(P, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert list(p.terms) == [(0, 1)]


@pytest.mark.parametrize("value", [0.1, 0.5, Decimal("0.1"), "1/2"])
def test_a_constant_is_an_int_or_a_fraction(value):
    # Fraction(0.1) is 3602879701896397/36028797018963968, which no exact
    # input means; a constant is built from an int or a Fraction only
    for make in (Poly.const, Scalar.const):
        with pytest.raises(ScalarError) as exc:
            make(P, value)
        assert str(exc.value) == \
            f"constant {value!r} is not an int or a Fraction"
    assert Scalar.const(P, 3) == S("3")
    assert Scalar.const(P, Fraction(1, 2)) == S("1/2")


def test_poly_arithmetic_known_values():
    a = Poly.var(P, "a")
    b = Poly.var(P, "b")
    one = Poly.one(P)
    # (a + b)^2 = a^2 + 2ab + b^2
    sq = (a + b) * (a + b)
    assert sq == a * a + 2 * (a * b) + b * b
    assert (a - a).is_zero()
    assert (a * b - b * a).is_zero()
    assert (a + one).total_degree() == 1
    assert ((a + one) ** 3).total_degree() == 3


def test_scalar_eval_exact():
    p = S("(a^2 + 1) * b - 3")
    assert scalar_eval(p, {"a": Fraction(1, 2), "b": Fraction(4)}) == \
        Fraction(5, 4) * 4 - 3


def test_poly_substitute_is_partial():
    p = S("a^2 * b + b + 1").num
    q = p.substitute({"a": Fraction(2)})
    assert q.params == P
    assert q == S("5*b + 1").num


def test_poly_content_and_monomial_gcd():
    p = S("4*a^2*b + 6*a*b^2").num
    assert p.content() == Fraction(2)
    assert p.monomial_gcd() == (1, 1)


def test_poly_str_is_parsable():
    p = S("-a^2 + 3*b - 1/2").num
    assert parse_scalar(str(p), P) == Scalar(p)


# ---------------------------------------------------------------------------
# Scalar field
# ---------------------------------------------------------------------------

def test_scalar_equality_without_gcd():
    # (a^2 - 1)/(a - 1) == a + 1 holds by cross-multiplication even though
    # no polynomial division is ever performed
    lhs = S("(a^2 - 1)/(a - 1)")
    rhs = S("a + 1")
    assert lhs == rhs


@pytest.mark.parametrize("lhs, rhs", [
    ("(a^2 - 1)/(a - 1)", "a + 1"),
    ("(2*a + 2)/(a + 1)", "2"),
])
def test_scalar_is_unhashable(lhs, rhs):
    # equal scalars can be stored as different num/den pairs, so no hash
    # would agree with ==
    assert S(lhs) == S(rhs)
    for x in (S(lhs), S(rhs)):
        with pytest.raises(TypeError):
            hash(x)


def test_scalar_field_known_identities():
    a, b = S("a"), S("b")
    assert a / b * b == a
    assert (a + b) * (a - b) == a * a - b * b
    assert (1 / (a + 1)) + (1 / (a - 1)) == S("2*a/(a^2 - 1)")
    assert a ** -2 == 1 / (a * a)
    assert (a / b).inverse() == b / a


def test_scalar_parameter_mismatch_rejected():
    other = Scalar.var(("c",), "c")
    for x in (Scalar.zero(P), S("a"), S("1/a")):
        for op in (lambda u, v: u + v, lambda u, v: u * v,
                   lambda u, v: u == v):
            with pytest.raises(ScalarError, match="parameter mismatch"):
                op(x, other)
            with pytest.raises(ScalarError, match="parameter mismatch"):
                op(other, x)
    # two constants, which combine by one rational operation, and a quotient
    two, three = Scalar.const(("c",), 2), Scalar.const(P, 3)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: u / v, lambda u, v: u == v):
        for u, v in ((two, three), (three, two), (two, S("1/a"))):
            with pytest.raises(ScalarError, match="parameter mismatch"):
                op(u, v)


def test_scalar_zero_denominator_rejected():
    with pytest.raises(ScalarError):
        Scalar(Poly.one(P), Poly.zero(P))
    with pytest.raises(ZeroDivisionError):
        S("a") / Scalar.zero(P)
    # a constant's inverse and quotient test for zero first, too
    for zero in (Scalar.zero(()), Scalar.zero(P), S("0/a")):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            Scalar.const(zero.params, 3) / zero
    with pytest.raises(ScalarParseError, match="division by zero"):
        S("3/(2 - 2)")


def test_scalar_substitute_and_denominator_locus():
    s = S("(a + b)/(a - 1)")
    assert s.substitute({"a": 2}) == S("b + 2")
    with pytest.raises(DenominatorVanishes) as exc:
        s.substitute({"a": Fraction(1)})
    assert exc.value.point == {"a": Fraction(1)}
    assert str(exc.value) == "denominator vanishes at a=1"
    # a float would be read as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968
    for value in (0.1, 0.5, Decimal("0.1")):
        for x in (s, Poly.var(("a",), "a")):
            with pytest.raises(ParameterValueError) as exc:
                x.substitute({"a": value})
            assert str(exc.value) == \
                f"parameter 'a': value {value!r} is not rational"


def test_scalar_eval_exact_and_denominator_guard():
    s = S("(a^2 + b)/(2*b)")
    assert scalar_eval(s, {"a": Fraction(1, 3), "b": 2}) == \
        (Fraction(1, 9) + 2) / 4
    with pytest.raises(DenominatorVanishes):
        scalar_eval(s, {"a": 1, "b": 0})


@pytest.mark.parametrize("point, message", [
    ({"a": 1}, "parameter 'b': no value given"),
    ({"a": 1, "b": "x"}, "parameter 'b': value 'x' is not rational"),
    ({"a": 1, "b": 0.5}, "parameter 'b': value 0.5 is not rational"),
    # a value that is not rational is named before a missing parameter
    ({"b": 0.5}, "parameter 'b': value 0.5 is not rational"),
])
def test_scalar_eval_names_a_missing_or_non_rational_parameter(point,
                                                               message):
    with pytest.raises(ParameterValueError) as exc:
        scalar_eval(S("(a^2 + b)/(2*b)"), point)
    assert str(exc.value) == message
    assert exc.value.name == "b"


def test_scalar_str_round_trip():
    for text in ("-(1+a^2)/b", "a/2 - b/3", "(a + b)/(a*b - 1)", "0", "7/4"):
        s = S(text)
        assert parse_scalar(str(s), P) == s


# ---------------------------------------------------------------------------
# Parser errors
# ---------------------------------------------------------------------------

def test_parse_errors_carry_positions():
    with pytest.raises(ScalarParseError) as e:
        S("a + ")
    assert e.value.pos == 4
    with pytest.raises(ScalarParseError):
        S("c + 1")          # unknown parameter
    with pytest.raises(ScalarParseError):
        S("(a + 1")         # unbalanced
    with pytest.raises(ScalarParseError):
        S("1/0")


@pytest.mark.parametrize("text", [
    "(" * 5000 + "a" + ")" * 5000,
    "-" * 5000 + "a",
    "(a+b+1)^60",       # C(62, 60) = 1891 terms
    "(a+b+1)^-13",      # C(15, 13) = 105 terms
    "2^99999999999",
    "(2^64)^64",        # 64 * 65 bits
    "0^-1",
    "9" * 5000,         # more digits than int() converts
])
def test_parse_limits_reject_before_computing(text):
    with pytest.raises(ScalarParseError):
        S(text)


def test_parse_limits_admit_literals_at_the_bounds():
    assert S("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) == S("a")
    assert S("-" * MAX_NESTING + "a") == S("a")
    assert len(S("(a+b+1)^12").num.terms) == 91
    assert S("2^2048") == Scalar.const(P, 2 ** 2048)
    assert S("0^0") == Scalar.one(P)


def test_str_rejects_a_coefficient_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int -> str conversion has no digit limit")
    with pytest.raises(ScalarError, match="too long to print"):
        str(S("a") * Scalar.const(P, 10 ** limit))


def test_parser_precedence():
    assert S("1 + 2*a^2") == 1 + 2 * S("a") ** 2
    assert S("-a^2") == -(S("a") ** 2)
    assert S("6/2/3") == Scalar.one(P)
    assert S("2^-1") == Scalar.const(P, Fraction(1, 2))


# ---------------------------------------------------------------------------
# Property tests: field axioms and round trips
# ---------------------------------------------------------------------------

small = st.integers(-5, 5)


@st.composite
def scalars(draw, nonzero=False):
    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[e] = Fraction(draw(small), draw(st.integers(1, 3)))
        return Poly(P, terms)

    num = poly()
    den = poly()
    while den.is_zero():
        den = poly()
    if nonzero:
        while num.is_zero():
            num = poly()
    return Scalar(num, den)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + Scalar.zero(P) == x
    assert x * Scalar.one(P) == x
    assert (x - x).is_zero()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(scalars(), scalars(nonzero=True))
def test_division_inverts_multiplication(x, y):
    assert (x / y) * y == x
    assert y * y.inverse() == Scalar.one(P)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(scalars())
def test_str_parse_round_trip(x):
    assert parse_scalar(str(x), P) == x


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(scalars(), st.fractions(min_value=-3, max_value=3))
def test_substitute_agrees_with_evaluate(x, v):
    point = {"a": v, "b": Fraction(2)}
    try:
        expect = scalar_eval(x, point)
    except DenominatorVanishes:
        return
    try:
        sub = x.substitute({"a": v})
    except DenominatorVanishes:
        # substitution may reject a denominator that only vanishes partially
        return
    assert scalar_eval(sub, point) == expect


def _substitute_by_fractions(poly, assignment):
    """Reference for ``Poly.substitute``: every value read as a Fraction,
    the substituted indices in a list."""
    for name, v in assignment.items():
        if not isinstance(v, Rational):
            raise ParameterValueError(name, f"value {v!r} is not rational")
    vals = {p: Fraction(v) for p, v in assignment.items()}
    idx = [i for i, p in enumerate(poly.params) if p in vals]
    if not idx:
        return poly
    terms = {}
    for e, c in poly.terms.items():
        for i in idx:
            if e[i]:
                c = c * vals[poly.params[i]] ** e[i]
        if c == 0:
            continue
        e2 = tuple(0 if i in idx else k for i, k in enumerate(e))
        terms[e2] = terms.get(e2, 0) + c
    return Poly(poly.params, terms)


@st.composite
def polys(draw):
    """A polynomial over P with int and Fraction coefficients, zero too."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = Fraction(draw(small), draw(st.integers(1, 3)))
    return Poly(P, terms)


_values = st.one_of(st.integers(-4, 4),
                    st.fractions(-3, 3, max_denominator=5),
                    st.booleans())
_non_rational = st.sampled_from([0.5, Decimal("0.1"), "1/2", None])


@settings(max_examples=200, deadline=None)
@given(polys(),
       st.dictionaries(st.sampled_from(P + ("c",)),
                       st.one_of(_values, _values, _non_rational)))
@example(Poly(P, {(2, 1): Fraction(1, 2), (0, 1): -2}), {"a": 2})
@example(Poly(P, {(1, 0): 3, (0, 0): 1}), {"a": Fraction(-1, 3), "b": 5})
@example(Poly(P, {(1, 1): 1, (0, 1): 1}), {"a": 0.5, "b": "1/2"})
def test_substitute_matches_the_fraction_algorithm(p, point):
    # partial and full points, int, Fraction and bool values and a name
    # that is not a parameter: the same terms, an int wherever the
    # coefficient is integral, and the same first error
    try:
        want = _substitute_by_fractions(p, point)
    except ParameterValueError as exc:
        with pytest.raises(ParameterValueError) as got:
            p.substitute(point)
        assert (str(got.value), got.value.name) == (str(exc), exc.name)
        return
    got = p.substitute(point)
    assert {e: (type(c), c) for e, c in got.terms.items()} == \
        {e: (type(c), c) for e, c in want.terms.items()}


def _value_by_fractions(poly, point):
    """Reference evaluation: every power, product and partial sum as a
    Fraction."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        t = Fraction(c)
        for p, k in zip(poly.params, e):
            t *= Fraction(point[p]) ** k
        total += t
    return total


_points = st.fixed_dictionaries({p: st.fractions(-3, 3, max_denominator=6)
                                 for p in P})


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(st.lists(scalars(), min_size=1, max_size=4), _points)
@example([Scalar.zero(P)], {"a": Fraction(1, 2), "b": Fraction(-2, 3)})
@example([Scalar.const(P, Fraction(-7, 3)), S("a^2*b^2 - 1/5")],
         {"a": Fraction(5, 4), "b": 0})
@example([S("b/3"), S("(a^2 - b/3)/(2*a - 1)")], {"a": Fraction(1, 2), "b": 1})
def test_evaluator_matches_the_fraction_route(xs, point):
    # each polynomial is one positive scale L D^deg times its value at the
    # point X / D, the same scale for every polynomial compiled together:
    # L the lcm of all their coefficient denominators and deg their largest
    # total degree, which also sizes the shared power tables
    polys = [p for x in xs for p in (x.num, x.den)]
    values = Evaluator(P, polys)(point)
    scale = (lcm(*(c.denominator for p in polys for c in p.terms.values()))
             * lcm(*(Fraction(v).denominator for v in point.values()))
             ** max(max(p.total_degree(), 0) for p in polys))
    assert scale > 0
    assert all(type(v) is int for v in values)
    assert values == [scale * _value_by_fractions(p, point) for p in polys]
    for x, num, den in zip(xs, values[::2], values[1::2]):
        if den == 0:
            with pytest.raises(DenominatorVanishes):
                scalar_eval(x, point)
        else:
            assert scalar_eval(x, point) == Fraction(num, den)


# ---------------------------------------------------------------------------
# Int normal form, against a Fraction-only reference
# ---------------------------------------------------------------------------

def _assert_normal_form(s):
    for c in s.num.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert all(type(c) is int for c in s.den.terms.values())


# The reference keeps every coefficient a Fraction and repeats the
# polynomial arithmetic and normalization of the Fraction-only design.

def _ref_add(p, q):
    terms = dict(p)
    for e, c in q.items():
        terms[e] = terms.get(e, Fraction(0)) + c
    return {e: c for e, c in terms.items() if c != 0}


def _ref_mul(p, q):
    terms = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in terms.items() if c != 0}


def _ref_substitute_a(p, v):
    terms = {}
    for e, c in p.items():
        e2 = (0,) + e[1:]
        terms[e2] = terms.get(e2, Fraction(0)) + c * v ** e[0]
    return {e: c for e, c in terms.items() if c != 0}


def _ref_scalar(num, den):
    if not num:
        den = {(0,) * len(P): Fraction(1)}
    else:
        mono = tuple(map(min, *num, *den))
        num, den = ({tuple(a - b for a, b in zip(e, mono)): c
                     for e, c in p.items()} for p in (num, den))
    top, bottom = 0, 1
    for d in den.values():
        top = gcd(top, d.numerator)
        bottom = lcm(bottom, d.denominator)
    c = Fraction(top, bottom)
    if den[max(den, key=lambda e: (sum(e), e))] < 0:
        c = -c
    return ({e: v / c for e, v in num.items()},
            {e: v / c for e, v in den.items()})


def _ref(s):
    return ({e: Fraction(c) for e, c in s.num.terms.items()},
            {e: Fraction(c) for e, c in s.den.terms.items()})


def _ref_plus(x, y):
    if x[1] == y[1]:
        return _ref_scalar(_ref_add(x[0], y[0]), x[1])
    return _ref_scalar(_ref_add(_ref_mul(x[0], y[1]), _ref_mul(y[0], x[1])),
                       _ref_mul(x[1], y[1]))


def _ref_str(pair):
    """Render a reference pair with the Poly and Scalar printers, bypassing
    the constructors so that the coefficients stay Fractions."""
    s = object.__new__(Scalar)
    s.num, s.den = object.__new__(Poly), object.__new__(Poly)
    for p, terms in ((s.num, pair[0]), (s.den, pair[1])):
        assert all(type(c) is Fraction for c in terms.values())
        p.params, p.terms = P, terms
    return str(s)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(scalars(), scalars(), st.fractions(min_value=-3, max_value=3))
def test_int_normal_form_prints_like_the_fraction_reference(x, y, v):
    (xn, xd), (yn, yd) = rx, ry = _ref(x), _ref(y)
    cases = [
        (x + y, _ref_plus(rx, ry)),
        (x - y, _ref_plus(rx, ({e: -c for e, c in yn.items()}, yd))),
        (x * y, _ref_scalar(_ref_mul(xn, yn), _ref_mul(xd, yd))),
        (x ** 3, _ref_scalar(_ref_mul(xn, _ref_mul(xn, xn)),
                             _ref_mul(xd, _ref_mul(xd, xd)))),
    ]
    if not y.is_zero():
        cases.append((x / y, _ref_scalar(_ref_mul(xn, yd), _ref_mul(xd, yn))))
    den = _ref_substitute_a(xd, v)
    if den:
        cases.append((x.substitute({"a": v}),
                      _ref_scalar(_ref_substitute_a(xn, v), den)))
    for got, want in cases:
        _assert_normal_form(got)
        _assert_normal_form(parse_scalar(str(got), P))
        assert str(got) == _ref_str(want)


@st.composite
def _quotient_terms(draw):
    """Term maps (num, den) of a quotient to normalize: int or Fraction
    coefficients, a denominator content of 1, 2 or 6, either sign, and a
    monomial factor common to both."""
    def terms(values):
        out = {}
        for _ in range(draw(st.integers(1, 3))):
            e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            c = draw(values)
            if draw(st.booleans()):
                c = Fraction(c, draw(st.integers(1, 3)))
            out[e] = c
        return {e: c for e, c in out.items() if c}

    num = terms(st.integers(-4, 4))
    den = terms(st.sampled_from([1, -1, 2, -3, 4]))
    k = draw(st.sampled_from([1, 2, 6, -1, -2, -6]))
    m = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    shift = lambda p: {(e[0] + m[0], e[1] + m[1]): c for e, c in p.items()}
    return shift(num), {e: c * k for e, c in shift(den).items()}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(_quotient_terms())
@example(({(1, 0): 3}, {(2, 1): -6, (1, 0): 4}))
@example(({(0, 1): 1}, {(1, 0): Fraction(-2, 3), (0, 0): Fraction(4, 9)}))
@example(({(1, 1): 5}, {(0, 0): 1}))
def test_normalization_matches_the_fraction_reference(pair):
    # the int content (math.gcd) and the Fraction content (Poly.content)
    # give the (num, den) pair and int normal form of the reference
    num, den = pair
    s = Scalar(Poly(P, num), Poly(P, den))
    want = _ref_scalar(*({e: Fraction(c) for e, c in p.items()}
                         for p in (num, den)))
    assert _ref(s) == want
    _assert_normal_form(s)
    assert (s.den is Poly.one(P)) is (want[1] == {(0, 0): 1})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(scalars())
def test_polynomial_fast_path_matches_normalization(x):
    p = x.num
    fast = Scalar(p, Poly.one(P))
    slow = Scalar(p * 2, Poly.const(P, 2))
    assert fast == slow and str(fast) == str(slow)
    assert fast.num == slow.num and fast.den == slow.den


# ---------------------------------------------------------------------------
# Identity shortcuts, against the general formulas
# ---------------------------------------------------------------------------

polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    min_size=1, max_size=3).map(lambda terms: Poly(P, terms))


def _z_product(p, q):
    """The product over Z with no shortcut: clear the denominators of both
    factors, multiply every pair of terms, divide once."""
    l1, a = p._integral()
    l2, b = q._integral()
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return Poly(p.params, {e: Fraction(c, l1 * l2) for e, c in terms.items()})


def _assert_same_poly(got, want):
    assert got.terms == want.terms
    assert {e: type(c) for e, c in got.terms.items()} == \
        {e: type(c) for e, c in want.terms.items()}
    assert str(got) == str(want)


@settings(max_examples=60, deadline=None)
@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_poly_times_constant_matches_the_z_product(p, c):
    const = Poly.const(P, c)
    for got in (p * const, const * p, p * c):
        _assert_same_poly(got, _z_product(p, const))
    _assert_same_poly(p * Poly.zero(P), Poly.zero(P))
    assert p * 1 is p
    if not p.is_zero():
        assert p * Poly.one(P) is p


@st.composite
def shortcut_pairs(draw):
    """Two scalars over (a, b), each a zero, a constant, a polynomial, a
    quotient over a denominator the pair shares, or a general quotient; or
    two zeros or constants over no parameters.  In some pairs the second is
    the negated first, so that their sum cancels."""
    params = draw(st.sampled_from([P, ()]))
    # constant term 1 and a positive leading coefficient: a normalized
    # denominator that Scalar keeps as given
    shared = Poly(P, {(0, 0): 1,
                      (draw(st.integers(0, 2)), draw(st.integers(1, 2))):
                      draw(st.integers(1, 3))})

    def operand():
        kind = draw(st.sampled_from(
            ["zero", "constant", "polynomial", "shared", "general"]
            if params else ["zero", "constant"]))
        if kind == "zero":
            return Scalar.zero(params)
        if kind == "constant":
            return Scalar.const(params, draw(st.fractions(
                min_value=-3, max_value=3, max_denominator=4)))
        if kind == "polynomial":
            return Scalar(draw(polys))
        if kind == "shared":
            return Scalar(draw(polys), shared)
        return draw(scalars())

    x = operand()
    if draw(st.integers(0, 3)) == 0:
        return x, Scalar(-x.num, x.den)
    return x, operand()


def _sum_formula(x, y):
    if x.den == y.den:
        return Scalar(x.num + y.num, x.den)
    return Scalar(_z_product(x.num, y.den) + _z_product(y.num, x.den),
                  _z_product(x.den, y.den))


def _assert_same_scalar(got, want):
    assert (str(got.num), str(got.den)) == (str(want.num), str(want.den))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(shortcut_pairs())
@example((Scalar.const(P, Fraction(3, 2)), Scalar.const(P, Fraction(-3, 2))))
@example((Scalar.const((), Fraction(-7, 3)), Scalar.const((), Fraction(7, 3))))
def test_shortcuts_match_the_general_formulas(pair):
    x, y = pair
    params = x.params
    _assert_same_scalar(x + y, _sum_formula(x, y))
    _assert_same_scalar(y + x, _sum_formula(y, x))
    _assert_same_scalar(x - y, _sum_formula(x, Scalar(-y.num, y.den)))
    _assert_same_scalar(x + 0, _sum_formula(x, Scalar.zero(params)))
    _assert_same_scalar(0 + x, _sum_formula(Scalar.zero(params), x))
    _assert_same_scalar(x * y, Scalar(_z_product(x.num, y.num),
                                      _z_product(x.den, y.den)))
    # a zero factor and a factor of one, on either side of any operand kind,
    # quotients included
    for c, k in ((Scalar.zero(params), 0), (Scalar.one(params), 1)):
        for z in (x, y):
            want = Scalar(_z_product(c.num, z.num), _z_product(c.den, z.den))
            for got in (c * z, z * c, k * z, z * k):
                _assert_same_scalar(got, want)
    cross = (_z_product(x.num, y.den) - _z_product(y.num, x.den)).is_zero()
    assert (x == y) is cross and (y == x) is cross
    assert x == x


# ---------------------------------------------------------------------------
# The recorded value of a constant, against its definition
# ---------------------------------------------------------------------------

def _value_by_definition(x):
    """The int or Fraction c when x has the shared denominator one and a
    numerator of at most the constant term c (0 for zero); else None."""
    terms = x.num.terms
    if x.den is not Poly.one(x.params) or any(sum(e) for e in terms):
        return None
    return next(iter(terms.values()), 0)


def _assert_same_pair(got, want):
    for p, q in ((got.num, want.num), (got.den, want.den)):
        assert p.terms == q.terms
        assert {e: type(c) for e, c in p.terms.items()} == \
            {e: type(c) for e, c in q.terms.items()}


@st.composite
def slot_pairs(draw):
    """Two scalars over () or (a, b), each a zero, a one, a minus one, an
    int, a Fraction, a quotient of constants or of monomials that the
    normalization turns into a constant (6/4, (2*a)/a), or over (a, b) a
    polynomial or a general quotient."""
    params = draw(st.sampled_from([P, ()]))
    ints = st.sampled_from([0, 1, -1]) | st.integers(-50, 50)

    def operand():
        kind = draw(st.sampled_from(
            ["int", "fraction", "quotient"] +
            (["monomials", "polynomial", "general"] if params else [])))
        if kind == "int":
            return Scalar.const(params, draw(ints))
        if kind == "fraction":
            return Scalar.const(params, draw(st.fractions(
                min_value=-9, max_value=9, max_denominator=6)))
        if kind == "quotient":
            return Scalar(Poly.const(params, draw(ints)), Poly.const(
                params, draw(st.integers(1, 9) | st.integers(-9, -1))))
        if kind == "monomials":
            e = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            return Scalar(Poly(P, {e: draw(ints)}),
                          Poly(P, {e: draw(st.integers(1, 9))}))
        if kind == "polynomial":
            return Scalar(draw(polys))
        return draw(scalars())

    return operand(), operand()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(slot_pairs())
@example((S("6/4"), S("(2*a)/a")))
@example((S("-3/2"), Scalar.const(P, Fraction(2, 3))))
@example((Scalar.zero(()), Scalar.const((), -1)))
def test_recorded_value_and_constant_shortcuts(pair):
    x, y = pair
    for z in (x, y, -x, x * y, x + y, x - y):
        want = _value_by_definition(z)
        assert z.rational == want and type(z.rational) is type(want)
    if x.rational is None or y.rational is None:
        return
    # constants: each shortcut builds the pair of the general formula
    _assert_same_pair(x * y, Scalar(_z_product(x.num, y.num),
                                    _z_product(x.den, y.den)))
    _assert_same_pair(x + y, _sum_formula(x, y))
    _assert_same_pair(x - y, _sum_formula(x, Scalar(-y.num, y.den)))
    _assert_same_pair(-x, Scalar(-x.num, x.den))
    if not x.is_zero():
        _assert_same_pair(x.inverse(), Scalar(x.den, x.num))
    if not y.is_zero():
        _assert_same_pair(x / y, Scalar(_z_product(x.num, y.den),
                                        _z_product(x.den, y.num)))
