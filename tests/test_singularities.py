"""Singularity classification: chart examples, invariances, exclusion checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen.errors import ArityError, GluingError, PointNotOnSurface
from nodal_degen.linalg import RatMatrix
from nodal_degen.polynomials import MultiPoly, poly
from nodal_degen.singularities import (
    CERTIFIED,
    DEGENERATE,
    INCONCLUSIVE,
    NODE_A1,
    REFUTED,
    SMOOTH,
    T1,
    LocalChart,
    S0Spec,
    certify_node_set,
    certify_t1,
    classify_point,
    exclude_extra_singularities,
)
from oracles import solve_unique

SVW = ("s", "v", "w")
YZU = ("y", "z", "u")
XZU = ("x", "z", "u")

CHART_A = LocalChart(3, YZU)
CHART_B = LocalChart(3, XZU)


def _spec(ga_text: str, gb_text: str, **kw) -> S0Spec:
    return S0Spec(poly(ga_text, YZU), poly(gb_text, XZU), CHART_A, CHART_B, **kw)


# ------------------------------------------------------------ classify_point


def test_cone_point_is_node():
    r = classify_point(poly("s**2 + v**2 + w**2", SVW), (0, 0, 0))
    assert r.kind == NODE_A1
    assert r.witness["hessian_det"] == 8


def test_nonzero_gradient_is_smooth():
    r = classify_point(poly("s + v**2", SVW), (0, 0, 0))
    assert r.kind == SMOOTH


def test_eliminated_family_chart_node():
    # chart of the smoothing family at base value -1, after eliminating x
    f = poly("y**2 + 2*y + y*z**2 + y*u**2 + 1", YZU)
    r = classify_point(f, (-1, 0, 0))
    assert r.kind == NODE_A1
    assert r.witness["hessian_det"] == 8
    hess = r.witness["hessian"]
    assert [hess.entry(i, i) for i in range(3)] == [2, -2, -2]


def test_rank_two_critical_point():
    r = classify_point(poly("s**2 + v**2", SVW), (0, 0, 0))
    assert r.kind == DEGENERATE
    assert r.hessian_rank == 2


def test_point_off_surface_is_an_error():
    with pytest.raises(PointNotOnSurface):
        classify_point(poly("s**2 + v**2 + w**2", SVW), (1, 0, 0))
    with pytest.raises(ArityError):
        classify_point(poly("x + y", ("x", "y")), (0, 0))


def test_report_json_shape():
    r = classify_point(poly("s**2 + v**2 + w**2", SVW), (0, 0, 0))
    doc = r.to_json()
    assert doc["class"] == "NodeA1"
    assert doc["hessian_det"] == "8"
    assert doc["all_exact"] is True
    assert doc["point"] == ["0", "0", "0"]


def test_scaling_invariance():
    f = poly("s**2 + v**2 + w**2", SVW)
    for lam in (Fraction(3), Fraction(-1, 7)):
        assert classify_point(lam * f, (0, 0, 0)).kind == NODE_A1
    g = poly("s + v*w", SVW)
    for lam in (Fraction(2), Fraction(-5)):
        assert classify_point(lam * g, (0, 0, 0)).kind == SMOOTH


def _random_affine_map(rng: random.Random):
    """Invertible rational 3x3 matrix A and shift b, as substitution polys."""
    while True:
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        det = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        if det != 0:
            break
    b = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
    subs = [
        MultiPoly(3, {(1, 0, 0): a[i][0], (0, 1, 0): a[i][1], (0, 0, 1): a[i][2]})
        + b[i]
        for i in range(3)
    ]
    return a, b, subs


def test_classification_invariant_under_affine_conjugation():
    cases = [
        (poly("s**2 + v**2 + w**2", SVW), NODE_A1),
        (poly("s + v**2", SVW), SMOOTH),
        (poly("s**2 + v**2", SVW), DEGENERATE),
        (poly("s**2 - v*w", SVW), NODE_A1),
    ]
    rng = random.Random(2024)
    for f, expected in cases:
        for _ in range(6):
            a, b, subs = _random_affine_map(rng)
            g = f.compose(subs)  # g(v) = f(Av + b)
            # the original point is the origin; its preimage solves Aq' + b = 0
            q = solve_unique(RatMatrix.from_rows(a), [-x for x in b])
            assert classify_point(g, q).kind == expected


# ---------------------------------------------------------------- certify_t1


def test_t1_normal_form_node():
    spec = _spec("y + z*u", "x + z*u")
    assert certify_t1(spec, (0, 0)).kind == T1


def test_t1_cusp_restriction_refuted():
    spec = _spec("y + z**2", "x + z**2")
    r = certify_t1(spec, (0, 0))
    assert r.kind == REFUTED
    assert r.reason == "C has degenerate double point"


def test_t1_smooth_curve_refuted():
    spec = _spec("y + z + u", "x + z + u")
    r = certify_t1(spec, (0, 0))
    assert r.kind == REFUTED
    assert r.reason == "C smooth at p"


def test_t1_singular_component_refuted():
    spec = _spec("y**2 + z*u", "x + z*u")
    r = certify_t1(spec, (0, 0))
    assert r.kind == REFUTED
    assert r.reason == "S_A singular at p"


def test_t1_gluing_mismatch_raises():
    spec = _spec("y + z*u", "x + z*u + z**2")
    with pytest.raises(GluingError):
        certify_t1(spec, (0, 0))


def test_t1_point_off_curve():
    spec = _spec("y + z*u", "x + z*u")
    with pytest.raises(PointNotOnSurface):
        certify_t1(spec, (1, 1))


def test_t1_restriction_scalar_freedom():
    spec = _spec("y + z*u", "x + 3*z*u")
    r = certify_t1(spec, (0, 0))
    assert r.kind == T1
    assert r.witness["gluing_scalar"] == Fraction(1, 3)


@settings(max_examples=80)
@given(st.data())
def test_t1_iff_half_hessian_nonzero(data):
    # f2 a random quadratic with no constant or linear part
    coeffs = {}
    exps = [
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 2, 0, 0),
        (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2),
    ]
    for e in exps:
        coeffs[e] = Fraction(data.draw(st.integers(-3, 3)))
    f2 = MultiPoly(4, coeffs)
    g_a = MultiPoly.variable(3, 0) + f2.set_var(0, 0).without_var(0)
    g_b = MultiPoly.variable(3, 0) + f2.set_var(1, 0).without_var(1)
    spec = S0Spec(g_a, g_b, CHART_A, CHART_B)
    a = f2.coefficient((0, 0, 2, 0))
    b = f2.coefficient((0, 0, 1, 1))
    c = f2.coefficient((0, 0, 0, 2))
    half_hessian_det = a * c - b * b / 4
    report = certify_t1(spec, (0, 0))
    assert (report.kind == T1) == (half_hessian_det != 0)


# ----------------------------------------------------------- node-set checks


def test_node_set_cone():
    r = certify_node_set(poly("s**2 + v**2 + w**2", SVW), [(0, 0, 0)])
    assert r.all_nodes and len(r.reports) == 1


def test_node_set_vacuous():
    r = certify_node_set(poly("s**2 + v**2 + w**2", SVW), [])
    assert r.all_nodes and r.reports == ()


def test_node_set_duplicates_rejected():
    with pytest.raises(ValueError):
        certify_node_set(poly("s**2 + v**2 + w**2", SVW), [(0, 0, 0), (0, 0, 0)])


# ------------------------------------------------------------- exclusion op


def test_exclusion_smooth_chart():
    assert exclude_extra_singularities(poly("s + v**2", SVW), []).status == CERTIFIED


def test_exclusion_cone():
    assert (
        exclude_extra_singularities(poly("s**2 + v**2 + w**2", SVW), [(0, 0, 0)]).status
        == CERTIFIED
    )


def test_exclusion_missing_claim_refuted():
    cone = poly("s**2 + v**2 + w**2", SVW)
    r = exclude_extra_singularities(cone, [])
    assert r.status == REFUTED
    assert r.detail == "unexpected singular points [(0, 0, 0)]"
    r = exclude_extra_singularities(cone, [(0, 0, 0), (Fraction(1, 2), 0, 0)])
    assert r.status == REFUTED
    assert r.detail == "claimed points not singular [(1/2, 0, 0)]"


def test_exclusion_positive_dimensional_refuted():
    r = exclude_extra_singularities(poly("s**2", SVW), [])
    assert r.status == REFUTED
    assert "positive-dimensional" in r.detail


def test_exclusion_two_nodes():
    f = poly("s**4 - 2*s**3 + s**2 + v**2 + w**2", SVW)
    r = exclude_extra_singularities(f, [(0, 0, 0), (1, 0, 0)])
    assert r.status == CERTIFIED
    assert set(r.singular_points) == {(0, 0, 0), (1, 0, 0)}


def test_exclusion_irrational_points_inconclusive():
    # singular points at s**2 = 2: not rational, never guessed
    f = poly("s**4 - 4*s**2 + v**2 + w**2 + 4", SVW)
    r = exclude_extra_singularities(f, [])
    assert r.status == INCONCLUSIVE


def test_exclusion_cap_inconclusive_reports_residual():
    f = poly("s**4 - 2*s**3 + s**2 + v**2 + w**2", SVW)
    r = exclude_extra_singularities(f, [(0, 0, 0), (1, 0, 0)], degree_cap=4)
    assert r.status in (CERTIFIED, INCONCLUSIVE)
    if r.status == INCONCLUSIVE:
        assert r.residual_basis


def test_exclusion_implies_critical_at_allowed():
    # Certified exclusion means every allowed point is genuinely critical.
    f = poly("s**4 - 2*s**3 + s**2 + v**2 + w**2", SVW)
    r = exclude_extra_singularities(f, [(0, 0, 0), (1, 0, 0)])
    assert r.status == CERTIFIED
    reports = certify_node_set(f, [(0, 0, 0), (1, 0, 0)])
    assert all(rep.kind != SMOOTH for rep in reports.reports)
    assert reports.all_nodes


def test_exclusion_arity_guard():
    with pytest.raises(ArityError):
        exclude_extra_singularities(poly("x**2", ("x", "y")), [])
