"""Smoothing-family slices, the limit-Hessian identity, and F0 arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen.degeneration import (
    FIBRE,
    chow_f0_identities,
    deformation_slice,
    f0_dot,
    hessian_limit_check,
    limit_hessian,
    minimal_effective_multiplicity,
    rational_sqrt,
    render_f0,
    slice_chart,
    tangent_cone_prediction,
    theta_restriction_class,
    verify_t1_to_node,
)
from nodal_degen.linalg import RatMatrix
from nodal_degen.polynomials import MultiPoly, monomials_of_degree
from nodal_degen.singularities import NODE_A1, classify_point
from oracles import limit_hessian_by_derivatives, poly

YZU = ("y", "z", "u")
XYZU = ("x", "y", "z", "u")


# ------------------------------------------------------------------- slices


def test_slice_at_minus_one():
    s = deformation_slice(-1)
    assert s.alpha == 2
    assert s.surface_chart == poly("y**2 + 2*y + y*z**2 + y*u**2 + 1", YZU)


def test_literal_charts_are_canonical():
    cases = ((Fraction(-1), Fraction(2)), (Fraction(3), Fraction(0)), (Fraction(-1, 4), 1))
    for t, alpha in cases:
        for chart in (slice_chart(t, alpha), tangent_cone_prediction(alpha)):
            assert chart == MultiPoly(3, dict(chart.terms()))
            assert all(type(c) is Fraction and c for _, c in chart.terms())
    assert slice_chart(Fraction(3), Fraction(0)) == poly("y**2 + y*z**2 + y*u**2 - 3", YZU)


def test_slice_alpha_values():
    assert deformation_slice(-4).alpha == 4
    assert deformation_slice(Fraction(-1, 4)).alpha == 1
    assert deformation_slice(1) is None  # -4 is not a rational square


def test_slice_rejects_zero():
    with pytest.raises(ValueError):
        deformation_slice(0)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def test_node_at_minus_one():
    r = verify_t1_to_node(deformation_slice(-1))
    assert r.kind == NODE_A1
    assert r.point == (Fraction(-1), Fraction(0), Fraction(0))
    assert r.witness["hessian_det"] == 8
    assert r.witness["tangent_cone_ratio"] == Fraction(1, 2)


def test_node_at_minus_quarter():
    r = verify_t1_to_node(deformation_slice(Fraction(-1, 4)))
    assert r.kind == NODE_A1
    assert r.point == (Fraction(-1, 2), Fraction(0), Fraction(0))


def test_node_rejects_central_fibre():
    with pytest.raises(ValueError, match="central fibre"):
        verify_t1_to_node(deformation_slice(0))


def test_node_family_converges_to_origin():
    """Sampled slices with |t| up to 10**4: always NodeA1, with the node
    coordinate |y| = alpha/2 shrinking to 0 as t does."""
    samples = [Fraction(-10_000)] + [Fraction(-(n * n), 4) for n in range(20, 0, -1)]
    previous = None
    for t in samples:
        assert abs(t) <= 10**4
        r = verify_t1_to_node(deformation_slice(t))
        assert r.kind == NODE_A1
        y = abs(r.point[0])
        assert y == abs(r.witness["alpha"]) / 2
        assert r.point[1] == r.point[2] == 0
        if previous is not None:
            assert y < previous
        previous = y


def test_general_fibre_sample_is_all_nodes():
    family = deformation_slice(Fraction(-9, 4))
    assert classify_point(family.surface_chart, family.node_point()).kind == NODE_A1


def test_two_slices_multiply_to_algebraic_family():
    # eliminating x from (x - y - z**2 - u**2)**2 = -4t on xy = t and
    # clearing the y**2 denominator gives (y**2 + y*(z**2 + u**2) - t)**2
    # + 4t*y**2, the product of the charts of the slices +alpha and -alpha
    for t in (Fraction(-1), Fraction(-9, 4), Fraction(-25), Fraction(-1, 16)):
        alpha = deformation_slice(t).alpha
        y, z, u = (MultiPoly.variable(3, i) for i in range(3))
        core = y * y + y * (z * z + u * u) - t
        algebraic = core * core + 4 * t * y * y
        assert slice_chart(t, alpha) * slice_chart(t, -alpha) == algebraic


# -------------------------------------------------------------- limit matrix


def test_limit_hessian_examples():
    cases = [
        ("x + y + z**2 + u**2", Fraction(1)),
        ("x + y + z*u", Fraction(-1, 4)),
        ("x + y + z**2", Fraction(0)),
    ]
    for text, expected in cases:
        res = hessian_limit_check(poly(text, XYZU))
        assert res.verdict == "Verified"
        assert res.det_b0 == expected == res.discriminant


def test_limit_hessian_structure():
    b0 = limit_hessian(poly("x + y + x*z + 3*y*z + z**2 - z*u + 2*u**2", XYZU))
    # first column is (1, 0, 0); the (1,2) entry is (pyz - pxz)/2 = (3-1)/2
    assert [b0.entry(i, 0) for i in range(3)] == [1, 0, 0]
    assert b0.entry(0, 1) == 1
    assert b0.entry(1, 1) == 1 and b0.entry(2, 2) == 2
    assert b0.entry(1, 2) == b0.entry(2, 1) == Fraction(-1, 2)


def test_limit_hessian_normal_form_guard():
    for bad in ("x + 2*y + z**2", "x + y + z + u**2", "1 + x + y"):
        with pytest.raises(ValueError):
            hessian_limit_check(poly(bad, XYZU))
    with pytest.raises(ValueError):
        hessian_limit_check(poly("x + y", ("x", "y")))


def test_limit_hessian_randomized_sweep():
    """The identity holds for arbitrary normal-form polynomials, degenerate
    quadratic parts included; any Refuted would be a bug."""
    rng = random.Random(40)
    quad_exps = [
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 2, 0, 0),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2),
    ]
    for trial in range(100):
        terms = {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1)}
        for e in quad_exps:
            terms[e] = terms.get(e, Fraction(0)) + Fraction(
                rng.randint(-9, 9), rng.randint(1, 3)
            )
        if trial % 5 == 0:  # force a rank-deficient restriction to (z, u)
            for e in ((0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)):
                terms.pop(e, None)
            terms[(0, 0, 2, 0)] = Fraction(rng.randint(0, 3))
        if trial % 3 == 0:  # degree-3 tail must not affect the identity
            terms[(1, 0, 2, 0)] = Fraction(rng.randint(-5, 5))
            terms[(0, 0, 3, 0)] = Fraction(rng.randint(-5, 5))
        res = hessian_limit_check(MultiPoly(4, terms))
        assert res.verdict == "Verified", res.to_json()


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def near_normal_forms(draw):
    """4-variable polynomials of degree <= 4, mostly in the normal form
    x + y + (degree >= 2), sometimes off it in the constant or linear part."""
    terms = {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1)}
    for degree in range(2, 5):
        for e in draw(st.lists(st.sampled_from(list(monomials_of_degree(4, degree))), max_size=6)):
            terms[e] = draw(small_rationals)
    if draw(st.integers(0, 3)) == 0:
        e = draw(st.sampled_from([(0, 0, 0, 0), *monomials_of_degree(4, 1)]))
        terms[e] = draw(small_rationals)
    return MultiPoly(4, terms)


def _outcome(fn, p):
    try:
        return fn(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150)
@given(near_normal_forms())
def test_limit_hessian_matches_derivative_oracle(p):
    assert _outcome(limit_hessian, p) == _outcome(limit_hessian_by_derivatives, p)


def test_limit_hessian_guards_match_derivative_oracle():
    for text, names in (("x + y + z*u", XYZU), ("x + y", ("x", "y")), ("x + y + z", XYZU[:3])):
        p = poly(text, names)
        assert _outcome(limit_hessian, p) == _outcome(limit_hessian_by_derivatives, p)
    for bad in ("x + 2*y + z**2", "x + y + z + u**2", "1 + x + y", "x + y - u + z*u"):
        p = poly(bad, XYZU)
        got = _outcome(limit_hessian, p)
        assert got.startswith("ValueError: normal form requires")
        assert got == _outcome(limit_hessian_by_derivatives, p)


# ------------------------------------------------------------- F0 arithmetic


def test_intersection_form():
    sigma = (1, 0)
    assert f0_dot(sigma, sigma) == 0
    assert f0_dot(FIBRE, FIBRE) == 0
    assert f0_dot(sigma, FIBRE) == 1
    assert f0_dot((-1, -1), (-1, -1)) == 2


def test_chow_identities():
    ids = chow_f0_identities()
    assert ids["e"] == [-1, -1]
    assert ids["theta_restriction"] == [-1, -1]
    assert ids["second_exceptional_restriction"] == [1, -1]
    assert f0_dot(FIBRE, ids["e"]) == -1
    assert f0_dot(ids["e"], ids["e"]) == 2
    assert all(ids["checks"].values())


def test_chow_system_uniqueness():
    # the staged constraint system has nonzero determinant, so e is unique
    assert RatMatrix.from_rows([[1, 0], [0, -2]]).det() != 0


def test_theta_restriction_classes():
    zero = theta_restriction_class(0)
    assert (zero["fibre_coeff"], zero["e_coeff"]) == (-2, 0)
    assert not zero["effective"]
    one = theta_restriction_class(1)
    assert (one["fibre_coeff"], one["e_coeff"]) == (0, 1) and one["effective"]
    two = theta_restriction_class(2)
    assert (two["fibre_coeff"], two["e_coeff"]) == (2, 2) and two["effective"]
    assert minimal_effective_multiplicity() == 1
    with pytest.raises(ValueError):
        theta_restriction_class(-1)


def test_divisor_rendering():
    assert render_f0((-1, -1)) == "-sigma - f"
    assert render_f0((1, -1)) == "sigma - f"
    assert render_f0((0, 0)) == "0"
    assert render_f0((2, 3)) == "2*sigma + 3*f"
