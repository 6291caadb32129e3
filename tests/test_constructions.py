"""Witness construction and the certificate chain, fixtures and failures."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nodal_degen import constructions
from nodal_degen.constructions import (
    LineArrangement,
    build_witness,
    central_fibre,
    certify_witness,
    witness_from_json,
    witness_to_json,
)
from nodal_degen.errors import DataFormatError, GenericityError, GluingError
from nodal_degen.polynomials import MultiPoly, format_point
from oracles import (
    PLANT_KINDS,
    PLANTED_STAGES,
    arrangement_nodes_by_determinants,
    certify_t1_by_gradients,
    coprime_by_specialisation,
    plant_hypothesis_failure,
    plant_sa_singularity,
    poly,
    sa_smooth_by_general_route,
    sa_smooth_by_structure,
)
from nodal_degen.singularities import (
    CERTIFIED,
    REFUTED,
    T1,
    certify_t1,
    curve_double_point,
    exclude_extra_singularities,
)

P2 = ("x", "y", "z")

TRIANGLE = [poly("x", P2), poly("y", P2), poly("x + y - z", P2)]


def triangle() -> LineArrangement:
    return LineArrangement.from_lines(TRIANGLE)


# --------------------------------------------------------------- arrangements


def test_triangle_nodes():
    nodes = triangle().nodes
    assert set(nodes) == {
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(0), Fraction(1)),
    }


def test_triangle_product_vanishes_at_node():
    # the arrangement product evaluated at a node is zero
    assert triangle().product().eval_at((0, 0, 1)) == 0


def test_proportional_lines_rejected():
    with pytest.raises(ValueError, match="proportional"):
        LineArrangement.from_lines([poly("x", P2), poly("2*x", P2)])


def test_concurrent_lines_rejected():
    with pytest.raises(ValueError, match="concurrent"):
        LineArrangement.from_lines([poly("x", P2), poly("y", P2), poly("x + y", P2)])


_SMALL_LINE = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SMALL_LINE, min_size=2, max_size=6))
def test_from_lines_matches_determinant_oracle(coeffs):
    # coefficient height 2 makes proportional pairs and concurrent triples
    # common; the node-set decision agrees with pairwise ratios and triple
    # determinants on accept/reject, the rejection keyword and the nodes
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    lines = [MultiPoly(3, {e: Fraction(c) for e, c in zip(units, row)}) for row in coeffs]
    try:
        expected = arrangement_nodes_by_determinants(lines)
    except ValueError as exc:
        keyword = "proportional" if "proportional" in str(exc) else "concurrent"
        with pytest.raises(ValueError, match=keyword):
            LineArrangement.from_lines(lines)
    else:
        assert LineArrangement.from_lines(lines).nodes == expected


_LINE_HEIGHT_3 = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@settings(max_examples=100, deadline=None)
@given(st.lists(_LINE_HEIGHT_3, min_size=2, max_size=6))
@example([(1, 0, 0), (0, 1, 0), (1, 1, -1)])  # the triangle: nodes on x = 0 and on y = 0
def test_permuted_matches_from_lines(coeffs):
    # height 3 keeps most drawn arrangements general while putting a zero
    # coordinate into some node of most of them, so some permutation moves
    # a zero into the first slot, where canonical_point rescales by another
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    lines = [MultiPoly(3, {e: Fraction(c) for e, c in zip(units, row)}) for row in coeffs]
    try:
        arr = LineArrangement.from_lines(lines)
    except ValueError:
        assume(False)
    for perm in permutations(range(3)):
        expected = LineArrangement.from_lines([l.permute_vars(perm) for l in arr.lines])
        assert arr.permuted(perm) == expected


@pytest.mark.parametrize("retries", [0, -1])
def test_general_lines_rejects_empty_budget(retries):
    # a usage error, not the retryable GenericityError
    with pytest.raises(ValueError, match="retries must be at least 1"):
        build_witness(3, 0, retries=retries)


def test_witness_draws_at_most_retries_arrangements(monkeypatch):
    # with no chart accepted and coefficient height 1 (so that non-general
    # draws are common), the budget still bounds the arrangement draws
    draws = []
    draw_form = constructions._draw_form

    def counting(rng, arity, degree):
        if (arity, degree) == (3, 1):
            draws.append(degree)
        return draw_form(rng, arity, degree)

    monkeypatch.setattr(constructions, "COEFF_BOUND", 1)
    monkeypatch.setattr(constructions, "_draw_form", counting)
    monkeypatch.setattr(constructions, "_chart_permutation", lambda arrangement: None)
    for seed in range(3):
        draws.clear()
        with pytest.raises(
            GenericityError,
            match="could not draw 3 general lines with a common node chart within budget 8",
        ):
            build_witness(4, seed, retries=8)
        assert len(draws) == 8 * 3  # 8 arrangements of d - 1 = 3 lines


def test_witness_rejects_wrong_line_count_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew a form")

    monkeypatch.setattr(constructions, "_draw_form", no_draws)
    with pytest.raises(ValueError, match="needs 3 lines, got 2"):
        build_witness(4, 0, lines=TRIANGLE[:2])


# -------------------------------------------------------------- construction


def test_degree_three_fixture_chart():
    # phi1 = x*y, phi2 = z**3.  The only node [0:0:1] forces the z-first
    # chart, where phi1 becomes v*w and phi2 the constant 1.
    w = build_witness(3, 0, lines=[poly("x", P2), poly("y", P2)], phi2=poly("z**3", P2))
    assert w.blowup_chart_a == poly("s + v*w", ("s", "v", "w"))
    assert w.delta == 1
    affine = w.projective_equation.dehomogenize(3)
    assert min(sum(e) for e, _ in affine.terms()) == 2  # double point at the centre
    assert certify_witness(w).verdict == "Certified"


def test_degree_three_chart_without_permutation():
    # nodes away from the coordinate planes leave the draw coordinates alone,
    # so the chart is literally phi1(1,v,w) + s*phi2(1,v,w)
    lines = [poly("x - z", P2), poly("y - z", P2)]
    w = build_witness(3, 0, lines=lines, phi2=poly("z**3", P2))
    assert w.arrangement.nodes == ((Fraction(1), Fraction(1), Fraction(1)),)
    svw = ("s", "v", "w")
    phi1_chart = poly("1 - w", svw) * poly("v - w", svw)  # (1-w)(v-w)
    assert w.blowup_chart_a == phi1_chart + poly("s*w**3", svw)


def test_triangle_witness_certifies():
    w = build_witness(4, 0, lines=TRIANGLE)
    bundle = certify_witness(w)
    assert bundle.verdict == "Certified"
    assert bundle.t1_count == 3
    assert bundle.regularity_rank == 3
    assert [s.name for s in bundle.stages] == [
        "structure", "gluing", "nodes", "t1", "smoothness", "regularity",
    ]


def test_singular_witness_chart_refuted_at_smoothness():
    # the d=5, seed 615096 draw passes every genericity check, but its S_A
    # chart is singular at (s, v, w) = (12, 1, 1)
    bundle = certify_witness(build_witness(5, 615096))
    assert bundle.verdict == "Refuted"
    assert bundle.failed_stage == "smoothness"
    detail = bundle.stages[-1].detail
    assert detail.startswith("S_A chart: ")
    assert "(12, 1, 1)" in detail


def _verdict_summary(witness):
    bundle = certify_witness(witness)
    return bundle.verdict, bundle.failed_stage, bundle.t1_count, bundle.regularity_rank


@pytest.mark.parametrize(
    "d, seed, verdict, failed_stage",
    [(d, seed, "Certified", None) for d in (3, 4, 5) for seed in range(3)]
    + [(5, 615096, "Refuted", "smoothness")],
)
def test_verdict_is_independent_of_line_order_and_scale(d, seed, verdict, failed_stage):
    """Reordering the lines, scaling one line or scaling phi2 describes the
    same surface, so the rebuilt witness gets the same verdict."""
    w = build_witness(d, seed)
    summary = _verdict_summary(w)
    assert summary[:2] == (verdict, failed_stage)
    lines = list(w.arrangement.lines)
    for changed_lines, phi2 in (
        (lines[::-1], w.phi2),
        ([lines[0] * Fraction(-3, 2)] + lines[1:], w.phi2),
        (lines, w.phi2 * Fraction(5, 7)),
    ):
        rebuilt = build_witness(d, seed, lines=changed_lines, phi2=phi2)
        assert _verdict_summary(rebuilt) == summary


#: The integer change of coordinates x -> x + y (determinant 1).
X_TO_X_PLUS_Y = [poly("x + y", P2), poly("y", P2), poly("z", P2)]


def _changed_coordinates(w, change):
    """The lines and phi2 of ``w`` composed with a change of (x, y, z)."""
    return [line.compose(change) for line in w.arrangement.lines], w.phi2.compose(change)


@pytest.mark.parametrize("d, seed", [(d, seed) for d in (3, 4, 5) for seed in range(3)])
def test_verdict_is_independent_of_coordinates_and_psi_scale(d, seed):
    """x -> x + y carries the surface to the same surface in new coordinates,
    and scaling psi by 5/7 (which sends S_B to its tau = 1 chart route)
    describes the same S_B, so either rebuilt witness gets the same verdict."""
    w = build_witness(d, seed)
    summary = _verdict_summary(w)
    lines, phi2 = _changed_coordinates(w, X_TO_X_PLUS_Y)
    assert _verdict_summary(build_witness(d, seed, lines=lines, phi2=phi2)) == summary
    if d <= 4:
        lines = list(w.arrangement.lines)
        scaled = build_witness(d, seed, lines=lines, phi2=w.phi2, psi=w.psi * Fraction(5, 7))
        assert _verdict_summary(scaled) == summary


@pytest.mark.parametrize("d", range(3, 8))
def test_built_witnesses_satisfy_the_structural_invariants(d):
    # build_witness does not re-check its own output; the structure stage does
    for seed in range(5):
        assert constructions._structural_defect(build_witness(d, seed)) is None


def test_witnesses_built_from_overrides_satisfy_the_structural_invariants():
    P4 = ("x", "y", "z", "tau")
    triangle = build_witness(
        4, 0, lines=TRIANGLE, phi2=poly("x**4 + y**4 + z**4", P2),
        psi=poly("x**2 + y**2 + z**2 + tau**2", P4),
    )
    assert constructions._structural_defect(triangle) is None
    assert constructions._structural_defect(
        build_witness(3, 0, lines=[poly("x", P2), poly("y", P2)], phi2=poly("z**3", P2))
    ) is None


def test_blowup_chart_identity():
    for d, seed in ((3, 1), (4, 5), (5, 2)):
        w = build_witness(d, seed)
        s, v, wv = (MultiPoly.variable(3, i) for i in range(3))
        pulled = (w.phi1 + w.phi2).compose([s, s * v, s * wv])
        s_power = MultiPoly(3, {(d - 1, 0, 0): Fraction(1)})
        assert pulled == s_power * w.blowup_chart_a
        # restriction to the exceptional plane is the dehomogenized arrangement
        restricted = w.blowup_chart_a.coefficient_in(0, 0)
        assert restricted == w.phi1.dehomogenize(0)


def test_chart_nodes_match_projective_nodes():
    w = build_witness(5, 3)
    assert all(p[0] == 1 for p in w.arrangement.nodes)
    assert w.chart_nodes() == tuple((p[1], p[2]) for p in w.arrangement.nodes)


def test_phi2_override_vanishing_at_node_fails():
    through_node = poly("x*z**3", P2)  # degree 4, vanishes at the node [0:0:1]
    with pytest.raises(GenericityError, match="phi2"):
        build_witness(4, 0, lines=TRIANGLE, phi2=through_node)


def test_construction_requires_degree_three():
    with pytest.raises(ValueError):
        build_witness(2, 0)


def test_witness_determinism():
    a = build_witness(6, 3)
    b = build_witness(6, 3)
    assert a == b
    assert witness_to_json(a) == witness_to_json(b)
    ca = certify_witness(a)
    cb = certify_witness(b)
    assert ca.to_json() == cb.to_json()


# SHA-256 of each certified witness document: the seeded draws, the derived
# equations and every stage text must reproduce byte for byte
_PINNED_DOCUMENTS = {
    (3, 1): "14e58554107779a5f232bb350d767aaf6093a374abeb54029531c2ac1b711e8b",
    (4, 5): "52283ad43fa1cff386b409831615830c7513281aeb264368bf79ec40f771a3d8",
    (5, 2): "12c9eb28171b1f1ad9c7fa0bd23b6bbec12a422f2fd8b0e731c6b8dcae8be13d",
    (6, 0): "b0b13751fb91b2acf59dff14a2bd86386d183ff803cac887921a9324d865baf6",
    # refuted at smoothness: the S_A chart is singular
    (5, 615096): "a94f8ee1ffe9bff4a4a00a2f549071933600ca51dc6673529b1557dde7c49447",
}


@pytest.mark.parametrize("d, seed", sorted(_PINNED_DOCUMENTS))
def test_witness_documents_are_pinned(d, seed):
    w = build_witness(d, seed)
    doc = json.dumps(witness_to_json(w, certify_witness(w)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == _PINNED_DOCUMENTS[d, seed]


# ------------------------------------------------------------- S_B smoothness

# y, z, x - y - z: V = 1, so c_max = 4/27; phi1(1, ., .) has one critical
# point off the lines, (1/3, 1/3) with value 1/27, where x = -18 and c = -108
# make S_B singular at (-18, -6, -6, 1)
BOUNDED_TRIANGLE = [poly("y", P2), poly("z", P2), poly("x - y - z", P2)]


def _with_psi(lines, c) -> constructions.SurfaceWitness:
    return build_witness(4, 0, lines=lines, psi=constructions._sb_psi(4, Fraction(c)))


@pytest.mark.parametrize("d", range(3, 8))
def test_default_sb_certified_by_the_bound(d):
    for seed in range(5):
        w = build_witness(d, seed)
        assert constructions._sb_smooth_by_bound(w)
        # the premise behind the bound: f_y and f_z share no component, so
        # Bezout leaves room only for the nodes and one point per chamber
        f = w.phi1.dehomogenize(0)
        assert coprime_by_specialisation(f.derive(0), f.derive(1))


@pytest.mark.parametrize("d", [4, 5])
def test_structured_sb_certified_by_both_routes(d):
    for seed in range(6):
        w = build_witness(d, seed)
        assert constructions._sb_smooth_by_bound(w)
        chart = w.sb_equation.dehomogenize(3)
        assert exclude_extra_singularities(chart, []).status == CERTIFIED


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([4, 5]), st.integers(0, 10**6), st.integers(1, 15))
def test_sb_routes_agree_below_the_bound(d, seed, sixteenths):
    # any 0 < c < c_max, not only c_max / 2; at d = 5 some c > 0 are
    # singular, so the bound is what keeps these smooth
    w = build_witness(d, seed)
    c = constructions._sb_c_max(d, w.arrangement) * sixteenths / 16
    psi = constructions._sb_psi(d, c)
    sb = w.phi1.extend(1) + MultiPoly.variable(4, 3) * psi
    w = dataclasses.replace(w, psi=psi, sb_equation=sb)
    assert constructions._sb_smooth_by_bound(w)
    assert exclude_extra_singularities(w.sb_equation.dehomogenize(3), []).status == CERTIFIED


def test_sb_bound_on_the_bounded_triangle():
    w = build_witness(4, 0, lines=BOUNDED_TRIANGLE)
    assert constructions._sb_c_max(4, w.arrangement) == Fraction(4, 27)
    assert w.psi == constructions._sb_psi(4, Fraction(2, 27))
    bundle = certify_witness(w)
    assert bundle.verdict == "Certified"
    assert bundle.stages[4].detail.endswith(
        "S_B in P3: 0 < c < c_max (critical-value bound)"
    )


def test_sb_critical_value_refuted_on_tau_chart():
    bundle = certify_witness(_with_psi(BOUNDED_TRIANGLE, -108))
    assert bundle.verdict == "Refuted"
    assert bundle.failed_stage == "smoothness"
    assert bundle.stages[-1].detail == (
        "S_B chart tau = 1: unexpected singular points [(-18, -6, -6)]"
    )


@pytest.mark.parametrize("c", [-107, Fraction(-1, 1000), 1])
def test_sb_off_the_bound_certified_on_tau_chart(c):
    w = _with_psi(BOUNDED_TRIANGLE, c)
    assert not constructions._sb_smooth_by_bound(w)
    bundle = certify_witness(w)
    assert bundle.verdict == "Certified"
    assert "S_B chart tau = 1: empty singular locus" in bundle.stages[4].detail


@pytest.mark.parametrize("psi", ["x**2 + y*z + 1/27*tau**2", "2*x**2 + 1/27*tau**2"])
def test_sb_bound_needs_the_exact_shape(psi):
    w = build_witness(4, 0, lines=BOUNDED_TRIANGLE, psi=poly(psi, ("x", "y", "z", "tau")))
    assert not constructions._sb_smooth_by_bound(w)


def test_sb_without_tau_power_not_certified():
    # c = 0: S_B = phi1 + tau*x**2 is singular at [0:0:0:1]
    bundle = certify_witness(_with_psi(BOUNDED_TRIANGLE, 0))
    assert bundle.verdict != "Certified"
    assert bundle.failed_stage == "smoothness"


def _tau_free_default(d: int, seed: int) -> constructions.SurfaceWitness:
    """build_witness(d, seed) with the tau-free psi that earlier versions
    drew after phi2 from the same random stream: the first form of degree
    d - 2, like phi2 of degree d, that vanishes at no node."""
    w = build_witness(d, seed)
    rng = random.Random(seed)
    constructions._draw_arrangement(rng, d - 1, constructions.DEFAULT_RETRIES)

    def draw(degree):
        while True:
            form = constructions._draw_form(rng, 3, degree)
            if all(form.eval_at(p) != 0 for p in w.arrangement.nodes):
                return form

    assert draw(d) == w.phi2
    psi = draw(d - 2).extend(1)
    sb = w.phi1.extend(1) + MultiPoly.variable(4, 3) * psi
    return dataclasses.replace(w, psi=psi, sb_equation=sb)


def test_tau_free_psi_caught_on_tau_chart():
    # [0:0:0:1] has multiplicity d - 2 on these S_B, which no x = 1 chart sees
    four = certify_witness(_tau_free_default(4, 0))
    assert four.verdict == "Refuted"
    assert four.stages[-1].detail == "S_B chart tau = 1: unexpected singular points [(0, 0, 0)]"
    five = certify_witness(_tau_free_default(5, 0))
    assert five.verdict != "Certified"
    assert five.failed_stage == "smoothness"


# ------------------------------------------------------------- S_A smoothness


def _sa_by_structure(w) -> bool:
    return sa_smooth_by_structure(w.phi2, w.arrangement.lines, w.arrangement.nodes)


def _sa_off_chart() -> constructions.SurfaceWitness:
    """On the line y = 0, phi2 = x**2*(x**2 + z**2) has a double root at
    [0:0:1], so w*phi1 + phi2 has zero value and gradient at
    [x:y:z:w] = [0:0:1:1], a point with x = 0 outside the blow-up chart x = 1."""
    phi2 = poly("x**4 + x**2*z**2 + y**4 + y*z**3", P2)
    return build_witness(4, 0, lines=BOUNDED_TRIANGLE, phi2=phi2)


def _sa_at_infinity() -> constructions.SurfaceWitness:
    """On the line y = 0, phi2 = (z - 2x)**2*(x**2 + z**2) has a double root
    at [1:0:2], so w*phi1 + phi2 has zero value and gradient at
    [x:y:z:w] = [1:0:2:0], in the plane w = 0 that the blow-up chart misses."""
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    phi2 = y * ((z - 2 * x) * x**2 + y**3) + (z - 2 * x) ** 2 * (x**2 + z**2)
    return build_witness(4, 0, lines=BOUNDED_TRIANGLE, phi2=phi2)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_sa_structure_agrees_with_the_chart_route(d):
    for seed in range(3):
        w = build_witness(d, seed)
        chart = exclude_extra_singularities(w.blowup_chart_a, []).status
        assert _sa_by_structure(w) == (chart == CERTIFIED)


def test_sa_structure_and_chart_route_refute_a_chart_singularity():
    w = build_witness(5, 615096)
    assert not _sa_by_structure(w)
    assert exclude_extra_singularities(w.blowup_chart_a, []).status == REFUTED


def test_sa_structure_refutes_the_off_chart_singularity():
    w = _sa_off_chart()
    f, point = w.projective_equation, (0, 0, 1, 1)
    assert f.eval_at(point) == 0
    assert not any(g.eval_at(point) for g in f.gradient())
    assert not _sa_by_structure(w)
    # the chart route cannot see the point
    assert exclude_extra_singularities(w.blowup_chart_a, []).status == CERTIFIED


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 1: S_A is certified on its blow-up chart x = 1 only",
)
def test_sa_off_chart_singularity_not_certified():
    assert certify_witness(_sa_off_chart()).verdict != "Certified"


def test_sa_structure_refutes_the_singularity_at_infinity():
    w = _sa_at_infinity()
    f, point = w.projective_equation, (1, 0, 2, 0)
    assert f.eval_at(point) == 0
    assert not any(g.eval_at(point) for g in f.gradient())
    assert not _sa_by_structure(w)
    # the chart route cannot see the point
    assert exclude_extra_singularities(w.blowup_chart_a, []).status == CERTIFIED


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 1: S_A is certified on its blow-up chart only, "
    "which lies in w = 1 and misses the singular point [1:0:2:0]",
)
def test_sa_singularity_at_infinity_not_certified():
    assert certify_witness(_sa_at_infinity()).verdict != "Certified"


def test_sa_structure_refutes_a_default_witness():
    """build_witness(5, 131466), drawn with no overrides: on the line
    9x + y = 0, phi2 has a double root at x = 0, so w*phi1 + phi2 has zero
    value and gradient at [x:y:z:w] = [0:0:1:-1/18], off the blow-up chart."""
    w = build_witness(5, 131466)
    f, point = w.projective_equation, (0, 0, 1, Fraction(-1, 18))
    assert f.eval_at(point) == 0
    assert not any(g.eval_at(point) for g in f.gradient())
    assert w.arrangement.lines[0] == poly("9*x + y", P2)
    s, t = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    on_line = w.phi2.compose([s, -9 * s, t])  # (x, y, z) = (s, -9s, t)
    assert on_line.coefficient((0, 5)) == on_line.coefficient((1, 4)) == 0
    assert on_line.coefficient((2, 3)) != 0
    assert not _sa_by_structure(w)
    # the chart route cannot see the point
    assert exclude_extra_singularities(w.blowup_chart_a, []).status == CERTIFIED


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 1: S_A of the default witness d=5, seed 131466 is "
    "singular at [0:0:1:-1/18], where x = 0, off the blow-up chart x = 1",
)
def test_sa_singularity_of_a_default_witness_not_certified():
    assert certify_witness(build_witness(5, 131466)).verdict != "Certified"


@pytest.mark.parametrize("d", [3, 4])
def test_sa_general_route_agrees_with_the_structure(d):
    for seed in range(3):
        w = build_witness(d, seed)
        assert sa_smooth_by_general_route(w) == _sa_by_structure(w)


def test_sa_general_route_refutes_both_off_chart_singularities():
    assert not sa_smooth_by_general_route(_sa_off_chart())
    assert not sa_smooth_by_general_route(_sa_at_infinity())


@pytest.mark.parametrize(
    "change",
    [
        [poly("x", P2), poly("y + x", P2), poly("z", P2)],
        [poly("x", P2), poly("y", P2), poly("z + x", P2)],
        [poly("y", P2), poly("x", P2), poly("z", P2)],
    ],
    ids=["y->y+x", "z->z+x", "x<->y"],
)
def test_sa_refutation_survives_a_change_of_coordinates(change):
    w = build_witness(5, 615096)
    lines, phi2 = _changed_coordinates(w, change)
    assert _verdict_summary(build_witness(5, 615096, lines=lines, phi2=phi2)) == (
        "Refuted", "smoothness", 6, None,
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 1: x -> x + y moves the singular point [1:1:1] of "
    "S_A to x = 0, off the blow-up chart x = 1 that S_A is certified on",
)
def test_sa_refutation_survives_x_to_x_plus_y():
    lines, phi2 = _changed_coordinates(build_witness(5, 615096), X_TO_X_PLUS_Y)
    rebuilt = build_witness(5, 615096, lines=lines, phi2=phi2)
    assert not _sa_by_structure(rebuilt)
    assert certify_witness(rebuilt).verdict == "Refuted"


# ---------------------------------------------------------- planted failures

_PLANTED = [(d, seed) for d in (3, 4, 5) for seed in (0, 1)]


@pytest.mark.parametrize("kind", PLANT_KINDS)
@pytest.mark.parametrize("d, seed", _PLANTED)
def test_planted_sa_singularity_is_refuted_by_the_oracles(d, seed, kind):
    w, point = plant_sa_singularity(d, seed, kind)
    f = w.projective_equation
    assert f.eval_at(point) == 0
    assert not any(g.eval_at(point) for g in f.gradient())
    assert (point[0] == 0, point[3] == 0) == (kind == "x=0", kind == "w=0")
    assert not _sa_by_structure(w)
    if d <= 4:
        assert not sa_smooth_by_general_route(w)


@pytest.mark.parametrize("d, seed", _PLANTED)
def test_planted_chart_singularity_refuted_at_smoothness(d, seed):
    w, (x, y, z, w0) = plant_sa_singularity(d, seed, "chart")
    bundle = certify_witness(w)
    assert (bundle.verdict, bundle.failed_stage) == ("Refuted", "smoothness")
    detail = bundle.stages[-1].detail
    assert detail.startswith("S_A chart: unexpected singular points")
    # the affine point (x, y, z)/w0 in blow-up coordinates (s, s*v, s*w)
    assert format_point((x / w0, y / x, z / x)) in detail


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 1: S_A is certified on its blow-up chart x = 1 "
    "only, which misses every point with x = 0 or w = 0",
)
@pytest.mark.parametrize("kind", ["x=0", "w=0"])
@pytest.mark.parametrize("d, seed", _PLANTED)
def test_planted_off_chart_singularity_not_certified(d, seed, kind):
    w, _ = plant_sa_singularity(d, seed, kind)
    assert certify_witness(w).verdict != "Certified"


@pytest.mark.parametrize(
    "stage, d, seed",
    [(stage, d, seed) for stage in PLANTED_STAGES for d in (4, 5) for seed in (0, 1)],
)
def test_planted_hypothesis_failure_refuted_at_its_stage(stage, d, seed):
    """One planted failure per hypothesis besides a smooth S_A and a smooth
    S_B; the S_B one, c = -108, is test_sb_critical_value_refuted_on_tau_chart."""
    bundle = certify_witness(plant_hypothesis_failure(stage, d, seed))
    assert (bundle.verdict, bundle.failed_stage) == ("Refuted", stage)
    detail = bundle.stages[-1].detail
    assert {
        "structure": detail == "claimed nodes are not pairwise distinct",
        "nodes": detail.startswith("claimed node "),
        "t1": detail.endswith(": S_B singular at p"),
    }[stage]


def test_coprimality_oracle_sees_a_common_factor():
    yz = ("y", "z")
    f = poly("y**3 + 3*y**2*z + 3*y*z**2 + z**3", yz)  # (y + z)**3
    assert not coprime_by_specialisation(f.derive(0), f.derive(1))
    assert coprime_by_specialisation(poly("y*z - 1", yz), poly("y + z", yz))


# -------------------------------------------------------------- central fibre


def test_central_fibre_t1_points():
    w = build_witness(4, 0, lines=TRIANGLE)
    spec = central_fibre(w)
    assert len(w.chart_nodes()) == 3
    for p in w.chart_nodes():
        assert certify_t1(spec, curve_double_point(spec.curve_a(), p)).kind == T1


def test_central_fibre_gluing_and_transversality():
    w = build_witness(5, 9)
    spec = central_fibre(w)
    assert spec.gluing_scalar() == 1
    # the restriction of the blow-up chart is the curve of the arrangement
    assert spec.curve_a() == w.phi1.dehomogenize(0)


def test_tampered_companion_surface_fails_gluing():
    w = build_witness(4, 2)
    # adding y**(d-1) keeps the companion surface a degree d-1 form but
    # changes its restriction to R by more than a scalar
    y4 = MultiPoly.variable(4, 1)
    tampered = type(w)(
        d=w.d,
        seed=w.seed,
        arrangement=w.arrangement,
        phi1=w.phi1,
        phi2=w.phi2,
        psi=w.psi,
        projective_equation=w.projective_equation,
        blowup_chart_a=w.blowup_chart_a,
        sb_equation=w.sb_equation + y4 ** (w.d - 1),
    )
    with pytest.raises(GluingError):
        central_fibre(tampered)
    bundle = certify_witness(tampered)
    assert bundle.verdict == "Refuted"
    assert bundle.failed_stage == "gluing"


def _psi_vanishing_at_a_node() -> constructions.SurfaceWitness:
    w = build_witness(4, 0)
    assert w.chart_nodes()[0] == (Fraction(-1, 8), Fraction(5, 16))
    # psi = (x + 8*y)*(16*z - 5*x) vanishes at the node (1, -1/8, 5/16) only,
    # so S_B is singular there
    psi = poly("16*x*z - 5*x**2 + 128*y*z - 40*x*y", ("x", "y", "z", "tau"))
    tau = MultiPoly.variable(4, 3)
    return type(w)(
        d=w.d,
        seed=w.seed,
        arrangement=w.arrangement,
        phi1=w.phi1,
        phi2=w.phi2,
        psi=psi,
        projective_equation=w.projective_equation,
        blowup_chart_a=w.blowup_chart_a,
        sb_equation=w.phi1.extend(1) + tau * psi,
    )


def _phi2_vanishing_at_a_node() -> constructions.SurfaceWitness:
    """build_witness(5, 1) with x**5 times phi2's value at the second node
    taken off phi2; x = 1 at every node, so S_A is singular there."""
    w = build_witness(5, 1)
    phi2 = w.phi2 - w.phi2.eval_at(w.arrangement.nodes[1]) * MultiPoly.variable(3, 0) ** 5
    projective, chart = constructions._derived_equations(w.phi1, phi2)
    return dataclasses.replace(w, phi2=phi2, projective_equation=projective, blowup_chart_a=chart)


def test_psi_vanishing_at_node_refuted_at_t1_with_rational_text():
    bundle = certify_witness(_psi_vanishing_at_a_node())
    assert bundle.verdict == "Refuted"
    assert bundle.failed_stage == "t1"
    assert bundle.stages[-1].detail == "point (-1/8, 5/16): S_B singular at p"


@pytest.mark.parametrize(
    "witness, failed_stage",
    [
        (lambda: build_witness(3, 2), None),
        (lambda: build_witness(4, 1), None),
        (lambda: build_witness(5, 0), None),
        (_psi_vanishing_at_a_node, "t1"),
        (_phi2_vanishing_at_a_node, "t1"),
    ],
    ids=["d3", "d4", "d5", "psi-at-node", "phi2-at-node"],
)
def test_witness_pipeline_classifies_each_node_once(monkeypatch, witness, failed_stage):
    """The nodes stage classifies C once per claimed node, and the t1 stage
    extends those reports to what the gradient oracle finds."""
    w = witness()
    jet = MultiPoly.value_gradient_hessian
    jets, t1_reports = [], []

    def counted_jet(self, point):
        jets.append(point)
        return jet(self, point)

    def recorded_t1(spec, node):
        t1_reports.append((spec, certify_t1(spec, node)))
        return t1_reports[-1][1]

    monkeypatch.setattr(MultiPoly, "value_gradient_hessian", counted_jet)
    monkeypatch.setattr(constructions, "certify_t1", recorded_t1)
    bundle = certify_witness(w)
    assert bundle.failed_stage == failed_stage
    assert len(jets) == w.delta
    assert t1_reports
    for spec, report in t1_reports:
        slow = certify_t1_by_gradients(spec, report.point)
        assert (report.point, report.kind, report.reason, report.witness) == (
            slow.point, slow.kind, slow.reason, slow.witness
        )
    assert t1_reports[-1][1].kind == (T1 if failed_stage is None else REFUTED)


def test_claimed_node_off_c_refuted_at_nodes():
    w = build_witness(4, 0)
    nodes = list(w.arrangement.nodes)
    x, y, z = nodes[0]
    nodes[0] = (x, y + 1, z)
    off_curve = LineArrangement(w.arrangement.lines, tuple(nodes))
    bundle = certify_witness(dataclasses.replace(w, arrangement=off_curve))
    assert (bundle.verdict, bundle.failed_stage) == ("Refuted", "nodes")
    assert bundle.stages[-1].detail == "claimed node (7/8, 5/16) is not on C"


def test_tampered_chart_fails_structure():
    w = build_witness(4, 2)
    broken = type(w)(
        d=w.d,
        seed=w.seed,
        arrangement=w.arrangement,
        phi1=w.phi1,
        phi2=w.phi2,
        psi=w.psi,
        projective_equation=w.projective_equation,
        blowup_chart_a=w.blowup_chart_a + MultiPoly.const(3, 1),
        sb_equation=w.sb_equation,
    )
    bundle = certify_witness(broken)
    assert bundle.verdict == "Refuted"
    assert bundle.failed_stage == "structure"


def _with_node(w, node):
    nodes = w.arrangement.nodes[:-1] + (node,)
    return dataclasses.replace(w, arrangement=LineArrangement(w.arrangement.lines, nodes))


def _with_quadric_line(w):
    """The first line times x: the lines multiply to a form of degree d."""
    lines = (w.arrangement.lines[0] * MultiPoly.variable(3, 0),) + w.arrangement.lines[1:]
    arrangement = LineArrangement(lines, w.arrangement.nodes)
    return dataclasses.replace(w, arrangement=arrangement, phi1=arrangement.product())


@pytest.mark.parametrize(
    "tamper, defect",
    [
        (lambda w: dataclasses.replace(w, d=2), "degree below 3"),
        (lambda w: dataclasses.replace(w, d=5), "arrangement size is not d - 1"),
        (
            lambda w: dataclasses.replace(
                w, arrangement=LineArrangement(w.arrangement.lines, w.arrangement.nodes[:-1])
            ),
            "node count differs from C(d-1, 2)",
        ),
        (
            lambda w: _with_node(w, (Fraction(0), Fraction(1), Fraction(0))),
            "a node lies outside the glue chart",
        ),
        (lambda w: dataclasses.replace(w, phi1=w.phi1 * 2), "phi1 is not the arrangement product"),
        (_with_quadric_line, "phi1 is not a degree d-1 form"),
        (lambda w: dataclasses.replace(w, phi2=w.phi2 + 1), "phi2 is not a degree d form"),
        (
            lambda w: dataclasses.replace(w, projective_equation=w.projective_equation + 1),
            "projective equation differs from w*phi1 + phi2",
        ),
        (
            lambda w: dataclasses.replace(w, sb_equation=w.sb_equation + 1),
            "companion surface is not a degree d-1 form",
        ),
    ],
    ids=[
        "degree", "size", "count", "chart", "product", "phi1-degree",
        "phi2-degree", "projective", "companion",
    ],
)
def test_each_structural_defect_is_refuted_at_structure(tamper, defect):
    """The blow-up chart defect is test_tampered_chart_fails_structure, and
    nodes that are not pairwise distinct are
    test_planted_hypothesis_failure_refuted_at_its_stage[structure-*]."""
    bundle = certify_witness(tamper(build_witness(4, 2)))
    assert (bundle.verdict, bundle.failed_stage) == ("Refuted", "structure")
    assert bundle.stages[-1].detail == defect


# ------------------------------------------------------------- serialization


def test_witness_json_round_trip():
    w = build_witness(4, 42)
    bundle = certify_witness(w)
    doc = json.loads(json.dumps(witness_to_json(w, bundle)))
    assert witness_from_json(doc) == w
    assert doc["verdict"] == "Certified"
    assert len(doc["certificates"]) == 6


def test_witness_json_malformed():
    with pytest.raises(DataFormatError):
        witness_from_json({"d": 4})
    w = build_witness(4, 1)
    doc = witness_to_json(w)
    doc["nodes"] = doc["nodes"][:-1]  # stored nodes no longer match the lines
    with pytest.raises(DataFormatError):
        witness_from_json(doc)
