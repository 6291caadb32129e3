"""Exact polynomial arithmetic: examples, ring axioms, calculus identities."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen.errors import ArityError, DataFormatError
from nodal_degen.polynomials import (
    MINUS_INFINITY,
    MultiPoly,
    format_point,
    grlex_key,
    monomials_of_degree,
    parse_rational,
)
from oracles import (
    evaluate,
    parse_rational_by_regex,
    poly,
    translate_by_compose,
    translate_by_taylor_shift,
    value_gradient_hessian_by_derivatives,
    value_gradient_hessian_by_translate,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZU = ("x", "y", "z", "u")


# ---------------------------------------------------------------- arithmetic


def test_add_cancellation():
    assert poly("x + y", XY) + poly("x - y", XY) == poly("2*x", XY)


def test_add_identity():
    p = poly("x**2 - 3*y", XY)
    assert p + MultiPoly.zero(2) == p


def test_add_coefficients():
    assert poly("x**2 + 1/2*y", XY) + poly("1/2*y", XY) == poly("x**2 + y", XY)


def test_mul_basic():
    assert poly("x", XY) * poly("y", XY) == poly("x*y", XY)
    assert poly("x + y", XY) * poly("x - y", XY) == poly("x**2 - y**2", XY)


def test_mul_annihilator():
    p = poly("x**3 - 7*x*y + 2", XY)
    assert (p * MultiPoly.zero(2)).is_zero()


def test_mul_degree_adds():
    p = poly("x**2 + y", XY)
    q = poly("x*y - 1", XY)
    assert (p * q).degree() == p.degree() + q.degree()


def test_arity_mismatch_raises():
    with pytest.raises(ArityError):
        poly("x", XY) + poly("x", XYZ)
    with pytest.raises(ArityError):
        poly("x", XY) * poly("x", XYZ)


def test_zero_degree_sentinel():
    assert MultiPoly.zero(3).degree() == MINUS_INFINITY
    assert MultiPoly.zero(3).degree() < 0


# ------------------------------------------------------------------ calculus


def test_derive_examples():
    assert poly("x**2*y", XY).derive(0) == poly("2*x*y", XY)
    assert poly("x + y + z**2 + u**2", XYZU).derive(2) == poly("2*z", XYZU)
    assert MultiPoly.const(4, 5).derive(3).is_zero()


def test_derive_index_range():
    with pytest.raises(ArityError):
        poly("x", XY).derive(2)


def test_eval_examples():
    assert poly("x**2 + y", XY).eval_at([2, 3]) == 7
    p = poly("x**3 - 1/2*x*y + 4", XY)
    assert p.eval_at([0, 0]) == p.constant_term()


def test_translate_examples():
    assert poly("x**2", ("x",)).translate([1]) == poly("x**2 + 2*x + 1", ("x",))
    p = poly("x**2*y - y + 3", XY)
    assert p.translate([0, 0]) == p
    for point in ([0], [0, 0, 0], [1, 2, 3]):
        with pytest.raises(ArityError):
            p.translate(point)
    q = poly("x*y + x - y - 1", XY)  # (x-1)(y+1)
    assert q.translate([1, -1]) == poly("x*y", XY)


def test_substitute_elimination_example():
    # x := y + 2 + z**2 + u**2 into x*y + 1
    target = poly("x*y + 1", XYZU)
    expr = poly("y + 2 + z**2 + u**2", XYZU)
    expected = poly("y**2 + 2*y + y*z**2 + y*u**2 + 1", XYZU)
    assert target.substitute(0, expr) == expected


def test_substitute_identity_and_zero():
    p = poly("x*y - x + 2", XY)
    assert p.substitute(0, poly("x", XY)) == p
    assert poly("x*y", XY).substitute(0, MultiPoly.zero(2)).is_zero()


def test_set_var_examples():
    X = ("x",)
    assert poly("x**2 - 3*x + 2", X).set_var(0, 1).is_zero()
    assert poly("x**2 + 3", X).set_var(0, 0) == MultiPoly.const(1, 3)
    assert poly("x**2*y + x - y", XY).set_var(0, Fraction(1, 2)) == poly("1/2 - 3/4*y", XY)
    with pytest.raises(ArityError):
        poly("x", XY).set_var(2, 1)


def test_dehomogenize():
    assert poly("x*w + y**2", ("x", "y", "w")).dehomogenize(2) == poly("x + y**2", XY)


def test_dehomogenize_requires_homogeneous():
    with pytest.raises(ValueError):
        poly("x + y**2", XY).dehomogenize(0)


# ------------------------------------------------------------------ plumbing


def test_scalar_ratio():
    p = poly("2*x - 4*y", XY)
    q = poly("x - 2*y", XY)
    assert p.scalar_ratio(q) == 2
    assert q.scalar_ratio(p) == Fraction(1, 2)
    assert p.scalar_ratio(poly("x + y", XY)) is None
    assert MultiPoly.zero(2).scalar_ratio(MultiPoly.zero(2)) == 1
    assert MultiPoly.zero(2).scalar_ratio(q) is None


def test_permute_and_drop():
    p = poly("x**2*y + z", XYZ)
    assert p.permute_vars((2, 0, 1)) == poly("y**2*z + x", XYZ)
    q = poly("x**2*y + 3*x*z - y**2 + 1", XYZ)
    # the restriction to x = 0 and the normal coefficient, in the slots (y, z)
    assert q.coefficient_in(0, 0) == poly("-x**2 + 1", XY)
    assert q.coefficient_in(0, 1) == poly("3*y", XY)
    assert q.coefficient_in(0, 2) == poly("x", XY)
    assert q.coefficient_in(0, 3).is_zero()
    assert q.coefficient_in(2, 0) == poly("x**2*y - y**2 + 1", XY)
    for var in (-1, 3):
        with pytest.raises(ArityError):
            q.coefficient_in(var, 0)


def test_json_round_trip_and_canonical_order():
    p = poly("3/2*x**2 - y + 7", XY)
    doc = p.to_json(XY)
    assert [t["c"] for t in doc["terms"]] == ["3/2", "-1", "7"]
    assert MultiPoly.from_json(doc) == p


def test_parse_rejects_garbage():
    with pytest.raises(DataFormatError):
        poly("x + q", XY)
    with pytest.raises(DataFormatError):
        poly("", XY)


def test_zero_denominator_is_a_data_format_error():
    for text in ("1/0", "-1/0", "0/0", "+7/00"):
        with pytest.raises(DataFormatError, match="zero denominator"):
            parse_rational(text)
    with pytest.raises(DataFormatError):
        poly("1/0*x + y", XY)
    assert parse_rational("-3/6") == Fraction(-1, 2)


@pytest.mark.parametrize(
    "doc",
    [
        {"arity": 2, "terms": [{"e": [1, -1], "c": "1"}]},  # negative exponent
        {"arity": 2, "terms": [{"e": [1, 0, 0], "c": "1"}]},  # too many exponents
        {"arity": 2, "terms": [{"e": [1], "c": "1"}]},  # too few exponents
        {"arity": -1, "terms": []},
        {"arity": 2, "terms": [{"e": [1.7, True], "c": "1"}]},  # float, boolean
        {"arity": 2, "terms": [{"e": ["1", 0], "c": "1"}]},  # string exponent
        {"arity": 2.9, "terms": []},
        {"arity": True, "terms": []},
        {"arity": 2, "terms": [{"e": [1, 0], "c": "1/0"}]},
        {"arity": 2, "terms": [{"e": [1, 0]}]},
        {"arity": 2, "terms": [{"e": [1, 0], "c": "1"}, {"e": [1, 0], "c": "2"}]},
        {"terms": []},
        {"arity": 2},
        ["not", "a", "document"],
        {"arity": 3, "vars": ["x"], "terms": []},  # vars disagree with arity
        {"arity": 1, "vars": [7], "terms": []},  # a variable name that is no string
        {"arity": 2, "terms": [{"e": "10", "c": "1"}]},  # exponents as one string
        {"arity": 2, "terms": [{"e": [1.0, 0], "c": "1"}]},  # integral float exponent
        {"arity": 2, "terms": [{"e": [1, 0], "c": 0.1}]},  # float coefficient
    ],
)
def test_from_json_malformed_is_a_data_format_error(doc):
    with pytest.raises(DataFormatError, match="malformed polynomial document"):
        MultiPoly.from_json(doc)


@pytest.mark.parametrize(
    "terms",
    [
        {(1.7, 0): 1},  # float exponent
        {(1.0, 0): 1},  # integral float exponent
        {("1", 0): 1},  # string exponent
        {(True, 0): 1},  # boolean exponent
        {(1, 0): 0.1},  # float coefficient
        {(1, 0): 0.5},  # float coefficient with an exact binary value
        {(1, 0): "3/2"},  # string coefficient
        {(1, 0): True},  # boolean coefficient
    ],
)
def test_constructor_rejects_inexact_terms(terms):
    with pytest.raises(TypeError, match="is not an int"):
        MultiPoly(2, terms)


def test_constructor_accepts_int_and_fraction_coefficients():
    p = MultiPoly(2, {(1, 0): 3, (0, 1): Fraction(1, 2), (0, 0): 0})
    assert p.terms() == (((1, 0), Fraction(3)), ((0, 1), Fraction(1, 2)))
    assert all(type(c) is Fraction for _, c in p.terms())
    with pytest.raises(TypeError):
        MultiPoly.const(2, 0.5)
    with pytest.raises(TypeError):
        poly("x", XY) + 0.5
    # a scalar factor is read like a summand: exactly, or not at all
    for scalar in (0.5, True):
        with pytest.raises(TypeError, match=f"coefficient {scalar} is not an int"):
            MultiPoly.variable(2, 0) * scalar
    with pytest.raises(TypeError, match="coefficient 0.5 is not an int or a Fraction"):
        0.5 * MultiPoly.variable(2, 0)
    assert 2 * poly("x", XY) * Fraction(1, 4) == poly("1/2*x", XY)


@pytest.mark.parametrize(
    "method, args",
    [
        ("eval_at", ((0.1, 0),)),  # read as a float: 3602879701896397/36028797018963968
        ("eval_at", (("1", 0),)),
        ("eval_at", ((True, 0),)),
        ("value_gradient_hessian", ((0, 0.5),)),
        ("translate", ((0.0, 0),)),
        ("set_var", (0, 0.1)),
    ],
)
def test_points_reject_inexact_coordinates(method, args):
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        getattr(poly("x", XY), method)(*args)


# signs, whitespace, zero denominators, decimal points, exponents, other
# bases, digit separators, and decimal digits of other scripts (Arabic-Indic,
# Extended Arabic-Indic, NKo, fullwidth) next to digits that are not decimal
# (superscript, vulgar fraction, Roman numeral)
_RATIONAL_CORPUS = [
    "7", "-7", "+7", " 3/2 ", "\t-3/6\n", "\u00a05\u00a0", "0/5", "-0", "007/010",
    "1/0", "-1/0", "0/0", "+7/00", "1.5", ".5", "1.", "1e3", "1E3", "0x10", "0b1",
    "1_000", "1/2/3", "3/-2", "3/+2", "+-1", "--1", "", " ", "-", "+", "/", "1/",
    "/2", "1 /2", "1/ 2", "- 1", "1 2", "inf", "nan", "\u0663/\u0664",
    "-\u06f1\u06f2", "\u07c2/\u07c3", "\uff11\uff12", "\u00b3", "\u00bd", "\u216b",
]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except DataFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("text", _RATIONAL_CORPUS)
def test_parse_rational_agrees_with_the_regex_reference(text):
    assert _parse_outcome(parse_rational, text) == _parse_outcome(parse_rational_by_regex, text)


@settings(max_examples=300)
@given(st.text(alphabet="0123456789+-/ .e_x\u0663\u06f2\uff15\u00b3\t", max_size=8))
def test_parse_rational_agrees_with_the_regex_reference_on_random_text(text):
    assert _parse_outcome(parse_rational, text) == _parse_outcome(parse_rational_by_regex, text)


def test_format_point():
    assert format_point((Fraction(1), Fraction(-1, 8), 0)) == "(1, -1/8, 0)"
    assert format_point(()) == "()"


def test_value_gradient_hessian_examples():
    p = poly("x**2*y - 3*y**3 + 1/2*x + 5", XY)
    value, grad, hess = p.value_gradient_hessian((2, -1))
    assert value == -4 - 3 * (-1) ** 3 + 1 + 5
    assert grad == (2 * 2 * -1 + Fraction(1, 2), 4 - 9)
    assert hess == ((-2, 4), (4, 18))
    # at a zero coordinate: a square contributes to the Hessian only
    assert poly("x**2", XY).value_gradient_hessian((0, 7)) == (0, (0, 0), ((2, 0), (0, 0)))
    assert poly("x*y*z", XYZ).value_gradient_hessian((0, 0, 3)) == (
        0, (0, 0, 0), ((0, 3, 0), (3, 0, 0), (0, 0, 0))
    )
    assert poly("x**3*y", XY).value_gradient_hessian((0, 0)) == (0, (0, 0), ((0, 0), (0, 0)))
    assert MultiPoly.const(0, 4).value_gradient_hessian(()) == (4, (), ())
    with pytest.raises(ArityError):
        poly("x", XY).value_gradient_hessian((1,))


def test_monomials_of_degree_count():
    assert len(list(monomials_of_degree(3, 4))) == 15
    assert list(monomials_of_degree(2, 1)) == [(1, 0), (0, 1)]
    for arity in range(6):
        for degree in range(-1, 9):
            every = [e for e in product(range(degree + 1), repeat=arity) if sum(e) == degree]
            every.sort(key=grlex_key, reverse=True)
            assert list(monomials_of_degree(arity, degree)) == every, (arity, degree)


def test_equal_polynomials_hash_equal():
    p = poly("x**2*y - 3/2*z + 1", XYZ)
    q = MultiPoly(3, dict(reversed(p.terms())))
    assert q == p and hash(q) == hash(p)
    assert len({p, q, p + 0, p * 1, poly("x", XYZ)}) == 2


# ------------------------------------------------------- ring axiom sweeps


@st.composite
def polys(draw, arity=3, max_degree=3, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(arity)
        )
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 4))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return MultiPoly(arity, terms)


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(polys(arity=4, max_degree=3))
def test_mixed_partials_commute(p):
    assert p.derive(0).derive(1) == p.derive(1).derive(0)
    assert p.derive(2).derive(3) == p.derive(3).derive(2)


@settings(max_examples=60)
@given(
    polys(),
    st.tuples(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
    ),
)
def test_translate_matches_eval(p, q):
    point = [Fraction(x) for x in q]
    assert p.translate(point).eval_at([0, 0, 0]) == p.eval_at(point)


@st.composite
def polys_of_total_degree(draw, max_degree=6, max_terms=8, min_arity=1, arity=None):
    """A polynomial in min_arity to 4 variables (or exactly ``arity``) of
    total degree at most max_degree."""
    if arity is None:
        arity = draw(st.integers(min_arity, 4))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        budget = draw(st.integers(0, max_degree))
        exps = []
        for _ in range(arity):
            exps.append(draw(st.integers(0, budget)))
            budget -= exps[-1]
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return MultiPoly(arity, terms)


rationals_with_zero = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
)


@settings(max_examples=150)
@given(polys_of_total_degree(), st.data())
def test_translate_matches_compose_oracle(p, data):
    point = data.draw(st.lists(rationals_with_zero, min_size=p.arity, max_size=p.arity))
    assert p.translate(point) == translate_by_compose(p, point)
    assert p.translate(point) == MultiPoly(p.arity, translate_by_taylor_shift(p, point))


@settings(max_examples=150)
@given(polys_of_total_degree(), st.data())
def test_set_var_matches_substitute(p, data):
    var = data.draw(st.integers(0, p.arity - 1))
    value = data.draw(rationals_with_zero)
    assert p.set_var(var, value) == p.substitute(var, MultiPoly.const(p.arity, value))


@settings(max_examples=150)
@given(polys_of_total_degree(min_arity=0), st.data())
def test_value_gradient_hessian_matches_derivative_oracle(p, data):
    point = data.draw(st.lists(rationals_with_zero, min_size=p.arity, max_size=p.arity))
    value, grad, hess = p.value_gradient_hessian(point)
    assert (value, grad, hess) == value_gradient_hessian_by_derivatives(p, point)
    assert (value, grad, hess) == value_gradient_hessian_by_translate(p, point)
    assert all(type(x) is Fraction for x in (value, *grad, *sum(hess, ())))
    assert p.eval_at(point) == value == evaluate(p, point)
    assert type(p.eval_at(point)) is Fraction


def _assert_canonical(p):
    """p equals its terms rebuilt by the validating constructor, and every
    term is an int exponent tuple of the arity with a nonzero Fraction."""
    assert p == MultiPoly(p.arity, dict(p.terms()))
    for e, c in p.terms():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == p.arity
        assert all(type(k) is int for k in e)


@settings(max_examples=150)
@given(polys_of_total_degree(min_arity=0), st.data())
def test_trusted_results_are_canonical(p, data):
    n = p.arity
    q = data.draw(polys_of_total_degree(arity=n))
    scalar = data.draw(rationals_with_zero)
    point = data.draw(st.lists(rationals_with_zero, min_size=n, max_size=n))
    results = [p + q, p - q, -p, p * q, p * scalar, scalar * p, p - p, p**2]
    results += [p.translate(point), p.extend(data.draw(st.integers(0, 2)))]
    results += [p.degree_part(k) for k in range(7)]
    results.append(p.permute_vars(data.draw(st.permutations(range(n)))))
    results.append(p.compose([q] * n) if n else p.compose([]))
    if n:
        var = data.draw(st.integers(0, n - 1))
        results += [p.derive(var), p.set_var(var, scalar), p.substitute(var, q)]
        results += [p.coefficient_in(var, k) for k in range(4)]
        results += [p.degree_part(k).dehomogenize(var) for k in range(7)]
    for r in results:
        _assert_canonical(r)
    assert p.translate([0] * n) == p


@settings(max_examples=40)
@given(polys(arity=2, max_degree=4))
def test_canonical_invariants(p):
    terms = p.terms()
    # no zero coefficients, distinct exponents, descending graded-lex order
    assert all(c != 0 for _, c in terms)
    exps = [e for e, _ in terms]
    assert len(set(exps)) == len(exps)
    keys = [(sum(e), e) for e in exps]
    assert keys == sorted(keys, reverse=True)
