"""Singularity classification: chart examples, invariances, exclusion checks."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nodal_degen.constructions import build_witness, central_fibre
from nodal_degen.errors import ArityError, GluingError, PointNotOnSurface
from nodal_degen.linalg import RatMatrix
from nodal_degen.groebner import groebner_basis
from nodal_degen.polynomials import MultiPoly, monomials_of_degree
from nodal_degen.singularities import (
    CERTIFIED,
    DEGENERATE,
    INCONCLUSIVE,
    NODE_A1,
    REFUTED,
    SMOOTH,
    T1,
    S0Spec,
    SingularityReport,
    _rational_roots,
    certify_t1,
    classify_point,
    curve_double_point,
    exclude_extra_singularities,
)
from oracles import certify_t1_by_gradients, poly, rational_roots_by_divisors, solve_unique

SVW = ("s", "v", "w")
YZU = ("y", "z", "u")
XZU = ("x", "z", "u")


def _spec(ga_text: str, gb_text: str, **kw) -> S0Spec:
    return S0Spec(poly(ga_text, YZU), poly(gb_text, XZU), **kw)


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


@pytest.mark.parametrize(
    "text, rank", [("s**3 + v**3 + w**3", 0), ("s**2 + v**3 + w**3", 1)]
)
def test_low_rank_critical_points(text, rank):
    # det = 0, so the rank comes from elimination and no determinant is reported
    r = classify_point(poly(text, SVW), (0, 0, 0))
    assert r.kind == DEGENERATE
    assert r.hessian_rank == rank
    doc = r.to_json()
    assert doc["class"] == DEGENERATE and doc["hessian_rank"] == rank
    assert "hessian_det" not in doc


def test_point_off_surface_is_an_error():
    with pytest.raises(PointNotOnSurface):
        classify_point(poly("s**2 + v**2 + w**2", SVW), (1, 0, 0))
    with pytest.raises(ArityError):
        classify_point(poly("x + y", ("x", "y")), (0, 0))


def test_point_off_surface_messages_are_readable():
    with pytest.raises(PointNotOnSurface) as err:
        classify_point(poly("s**2 + v**2 + w**2", SVW), (Fraction(1, 2), 0, -1))
    assert str(err.value) == "point (1/2, 0, -1) not on surface (value 5/4)"
    with pytest.raises(PointNotOnSurface) as err:
        curve_double_point(poly("z*u - 1", ("z", "u")), (3, Fraction(-1, 8)))
    assert str(err.value) == "point (3, -1/8) not on curve (value -11/8)"
    with pytest.raises(PointNotOnSurface) as err:
        certify_t1(_spec("y + z*u", "x + z*u"), (Fraction(2, 3), 1))
    assert str(err.value) == "point (2/3, 1) not on C (value 2/3)"


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
    g_a = MultiPoly.variable(3, 0) + f2.coefficient_in(0, 0)
    g_b = MultiPoly.variable(3, 0) + f2.coefficient_in(1, 0)
    spec = S0Spec(g_a, g_b)
    a = f2.coefficient((0, 0, 2, 0))
    b = f2.coefficient((0, 0, 1, 1))
    c = f2.coefficient((0, 0, 0, 2))
    half_hessian_det = a * c - b * b / 4
    report = certify_t1(spec, (0, 0))
    assert (report.kind == T1) == (half_hessian_det != 0)


_T1_REASONS = (
    None,  # T1
    "S_A singular at p",
    "S_B singular at p",
    "C smooth at p",
    "C has degenerate double point",
)


@st.composite
def _glued_fibres(draw):
    """(spec, p, reason): g = v0*N + r*v0**2 + C in each chart, with C_B = C / lam
    and N, C drawn around the origin so that certify_t1 refutes with the drawn
    reason (None: T1 holds), then moved from the origin of R to p."""
    small = st.integers(-3, 3).map(Fraction)
    nonzero = small.filter(bool)
    reason = draw(st.sampled_from(_T1_REASONS))

    def form(k: int, v0: int = 0) -> MultiPoly:
        """A drawn form of degree k in (z, u), times v0**v0."""
        return MultiPoly(3, {(v0, i, k - i): draw(small) for i in range(k + 1)})

    if reason == "C smooth at p":
        linear = MultiPoly(3, {(0, 1, 0): draw(nonzero), (0, 0, 1): draw(small)})
        curve = linear + form(2)
    elif reason == "C has degenerate double point":
        curve = form(1) ** 2 * draw(small)
    elif reason is None:
        a, b, c = draw(small), draw(small), draw(small)
        assume(b * b != 4 * a * c)
        curve = MultiPoly(3, {(0, 2, 0): a, (0, 1, 1): b, (0, 0, 2): c})
    else:
        curve = form(2)
    curve = curve + form(3)
    n_a, n_b = draw(nonzero), draw(nonzero)
    if reason == "S_A singular at p":
        n_a, n_b = Fraction(0), draw(small)  # S_B may be singular too; S_A is named first
    elif reason == "S_B singular at p":
        n_b = Fraction(0)
    lam = draw(nonzero)
    v0 = MultiPoly.variable(3, 0)
    g_a = v0 * n_a + form(1, 1) + form(0, 2) + curve
    g_b = v0 * n_b + form(1, 1) + form(0, 2) + curve * (1 / lam)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    p = (draw(rational), draw(rational))
    shift = (0, -p[0], -p[1])
    return S0Spec(g_a.translate(shift), g_b.translate(shift)), p, reason


def _assert_t1_routes_agree(spec: S0Spec, p) -> SingularityReport:
    fast, slow = certify_t1(spec, p), certify_t1_by_gradients(spec, p)
    assert (fast.kind, fast.reason) == (slow.kind, slow.reason)
    for key in ("gradient_a", "gradient_b", "gluing_scalar", "curve_hessian_det"):
        assert fast.witness.get(key) == slow.witness.get(key), key
    return fast


@settings(max_examples=150, deadline=None)
@given(_glued_fibres())
def test_t1_agrees_with_gradient_polynomials(case):
    spec, p, reason = case
    report = _assert_t1_routes_agree(spec, p)
    assert report.reason == reason
    assert (report.kind == T1) == (reason is None)


def test_t1_agrees_with_gradient_polynomials_on_witnesses():
    for d in (3, 4, 5):
        for seed in range(5):
            spec = central_fibre(build_witness(d, seed))
            for p in spec.claimed_t1:
                assert _assert_t1_routes_agree(spec, p).kind == T1, (d, seed, p)


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
    reports = [classify_point(f, p) for p in [(0, 0, 0), (1, 0, 0)]]
    assert all(rep.kind == NODE_A1 for rep in reports)


def test_exclusion_arity_guard():
    with pytest.raises(ArityError):
        exclude_extra_singularities(poly("x**2", ("x", "y")), [])


@pytest.mark.parametrize("point", [(0, 0), (0, 0, 0, 0)])
def test_exclusion_allowed_point_of_wrong_length(point):
    with pytest.raises(ArityError):
        exclude_extra_singularities(poly("s**2 + v**2 + w**2", SVW), [point])


TWO_NODES = "s**4 - 2*s**3 + s**2 + v**2 + w**2"


@pytest.mark.parametrize(
    "text, allowed, status, detail, points",
    [
        # an A2 point: two standard monomials for one known zero, no early stop
        ("s**3 + v**2 + w**2", [(0, 0, 0)], CERTIFIED,
         "singular locus is exactly the 1 allowed point(s)", [(0, 0, 0)]),
        (TWO_NODES, [(0, 0, 0)], REFUTED,
         "unexpected singular points [(1, 0, 0)]", [(0, 0, 0), (1, 0, 0)]),
        (TWO_NODES, [(0, 0, 0), (1, 0, 0), (5, 0, 0)], REFUTED,
         "claimed points not singular [(5, 0, 0)]", [(0, 0, 0), (1, 0, 0)]),
    ],
)
def test_exclusion_verdict_json(text, allowed, status, detail, points):
    r = exclude_extra_singularities(poly(text, SVW), allowed)
    assert r.to_json() == {
        "status": status,
        "detail": detail,
        "singular_points": [[str(x) for x in p] for p in points],
    }


@st.composite
def _nodal_charts(draw):
    """Q + C3 (+ C4) with Q a nondegenerate quadratic form, recentred at P.

    P is a node, but the higher terms may add singular points elsewhere:
    v0*v2**2 + v0*v2 + v1**2 has a second node at (0, 0, -1)."""
    coeff = st.integers(-4, 4).map(Fraction)
    q = MultiPoly(3, {e: draw(coeff) for e in monomials_of_degree(3, 2)})
    assume(RatMatrix.from_rows(q.value_gradient_hessian((0, 0, 0))[2]).det() != 0)
    terms = dict(q.terms())
    for k in range(3, draw(st.integers(3, 4)) + 1):
        terms.update({e: draw(coeff) for e in monomials_of_degree(3, k)})
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    P = tuple(draw(rational) for _ in range(3))
    return MultiPoly(3, terms).translate([-x for x in P]), P


@settings(max_examples=25, deadline=None)
@given(_nodal_charts())
@example((poly("s*w**2 + s*w + v**2", SVW), (0, 0, 0)))
def test_nodal_chart_stop_keeps_basis_and_verdict(chart):
    f, P = chart
    gens = [f, *f.gradient()]
    full = groebner_basis(gens).basis
    assert groebner_basis(gens, zeros=[P]).basis == full
    # at a node the Jacobian ideal is locally the ideal of P, so P is the
    # whole singular locus iff the full basis is that ideal's
    only_p = set(full) == {MultiPoly.variable(3, i) - P[i] for i in range(3)}
    r = exclude_extra_singularities(f, [P])
    assert (r.status == CERTIFIED) == only_p
    if only_p:
        assert r.singular_points == (P,)


def test_exclusion_large_end_coefficients_certified():
    # h = 10**14*s**2 + 4*10**7*s - 21 = (10**7*s - 3)*(10**7*s + 7): its end
    # coefficients are far beyond any divisor enumeration
    h = poly("100000000000000*s**2 + 40000000*s - 21", SVW)
    f = h * h + poly("v**2 + w**2", SVW)
    allowed = [(Fraction(3, 10**7), 0, 0), (Fraction(-7, 10**7), 0, 0)]
    r = exclude_extra_singularities(f, allowed)
    assert r.status == CERTIFIED
    assert set(r.singular_points) == {tuple(map(Fraction, p)) for p in allowed}


# ---------------------------------------------------------- root extraction


def _expand(factors) -> list[Fraction]:
    """Coefficients (lowest degree first) of a product of coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# irreducible over Q: complex pairs, real quadratic irrationals, cubics
_IRREDUCIBLE = [
    [1, 0, 1],
    [-2, 0, 1],
    [1, 1, 1],
    [-5, 0, 3],
    [-1, -1, 1],
    [-2, 0, 0, 1],
    [1, 1, 0, 1],
    [1, -3, 0, 1],
]


@st.composite
def _split_or_not(draw):
    linear = st.tuples(st.integers(-6, 6), st.integers(1, 4))
    roots = draw(st.lists(linear, max_size=4))
    roots += draw(st.lists(st.sampled_from(roots), max_size=2)) if roots else []
    extra = draw(st.lists(st.sampled_from(_IRREDUCIBLE), max_size=1))
    scale = draw(st.integers(-7, 7).filter(bool))
    denom = draw(st.integers(1, 5))
    factors = [[Fraction(-p), Fraction(q)] for p, q in roots] + extra
    factors.append([Fraction(scale, denom)])
    return _expand(factors)


@settings(max_examples=150, deadline=None)
@given(_split_or_not())
def test_rational_roots_match_divisor_oracle(coeffs):
    expected = rational_roots_by_divisors(coeffs)
    got = _rational_roots(coeffs)
    if expected is None:
        assert got is None
    else:
        assert got is not None and set(got) == set(expected)


@pytest.mark.parametrize(
    "roots",
    [
        [0, 0, 1, 1, 1],  # repeated roots and a root at zero
        [1, 2, -4, 8],  # integers on the dyadic bisection midpoints
        [0, -1, Fraction(1, 2), Fraction(-3, 4)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)],
    ],
)
def test_rational_roots_of_split_polynomials(roots):
    coeffs = _expand([[-Fraction(r), Fraction(1)] for r in roots])
    assert _rational_roots(coeffs) == sorted(set(map(Fraction, roots)))
    assert _rational_roots([3 * c for c in coeffs]) == sorted(set(map(Fraction, roots)))


@pytest.mark.parametrize(
    "factors",
    [
        # +-sqrt(2) are isolated in (1.25, 1.5] and (-1.5, -1.25], whose
        # midpoints round to the rational roots +-1 outside those intervals
        [[-1, 0, 1], [-2, 0, 1]],
        # 1 +- sqrt(2)/1000 next to the rational root 1
        [[-1, 1], [Fraction(999998, 1000000), -2, 1]],
    ],
)
def test_rational_roots_irrational_root_next_to_rational(factors):
    coeffs = _expand(factors)
    assert rational_roots_by_divisors(coeffs) is None
    assert _rational_roots(coeffs) is None


@pytest.mark.parametrize("c", [720720, 963761198400])
def test_rational_roots_large_end_coefficients_fast(c):
    # irreducible with end coefficients of 240 and 6720 divisors
    start = time.perf_counter()
    assert _rational_roots([Fraction(c), Fraction(1), Fraction(c)]) is None
    assert time.perf_counter() - start < 1.0
