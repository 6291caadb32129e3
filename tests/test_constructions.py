"""Witness construction and the certificate chain, fixtures and failures."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen import constructions
from nodal_degen.constructions import (
    LineArrangement,
    build_witness,
    central_fibre,
    certify_witness,
    general_lines,
    witness_from_json,
    witness_to_json,
)
from nodal_degen.errors import DataFormatError, GenericityError, GluingError
from nodal_degen.polynomials import MultiPoly
from oracles import arrangement_nodes_by_determinants, poly
from nodal_degen.singularities import T1, certify_t1

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


def test_two_lines_one_node():
    assert len(general_lines(2, 7).nodes) == 1


def test_four_general_lines_seed_42():
    arr = general_lines(4, 42)
    assert len(arr.nodes) == 6
    assert len(set(arr.nodes)) == 6


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


def test_general_lines_determinism():
    assert general_lines(5, 11).lines == general_lines(5, 11).lines


@pytest.mark.parametrize("retries", [0, -1])
def test_general_lines_rejects_empty_budget(retries):
    # a usage error, like build_witness, not the retryable GenericityError
    with pytest.raises(ValueError, match="retries must be at least 1"):
        general_lines(3, 0, retries=retries)
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
        with pytest.raises(GenericityError, match="budget 8"):
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
    (3, 1): "ba6f09b16820d44f0cf07a3cbe958e5fb951b77e1b2e99e550a27a4241166d59",
    (4, 5): "3bf87788a69b1e03fdf8f0c2ee0eb78c07e42087f23daa0e3a33805ccaa2b13b",
    (5, 2): "f2ed540441a936d634e4bc3491427a7293972f2f68529be50d250022e33be4a5",
    (6, 0): "0f7cd602ec8230c8d05361ceffd6582d651b178ea9aa7186b4f42d5e6fb5fe3d",
    # refuted at smoothness: the S_A chart is singular
    (5, 615096): "2d588721c52c33e96ad09be4caf2fe04f574442e90f3979e1310648ed50253a8",
}


@pytest.mark.parametrize("d, seed", sorted(_PINNED_DOCUMENTS))
def test_witness_documents_are_pinned(d, seed):
    w = build_witness(d, seed)
    doc = json.dumps(witness_to_json(w, certify_witness(w)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == _PINNED_DOCUMENTS[d, seed]


# -------------------------------------------------------------- central fibre


def test_central_fibre_t1_points():
    w = build_witness(4, 0, lines=TRIANGLE)
    spec = central_fibre(w)
    assert len(spec.claimed_t1) == 3
    for p in spec.claimed_t1:
        assert certify_t1(spec, p).kind == T1


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


def test_psi_vanishing_at_node_refuted_at_t1_with_rational_text():
    w = build_witness(4, 0)
    assert w.chart_nodes()[0] == (Fraction(-1, 8), Fraction(5, 16))
    # psi = (x + 8*y)*(16*z - 5*x) vanishes at the node (1, -1/8, 5/16) only,
    # so S_B is singular there
    psi = poly("16*x*z - 5*x**2 + 128*y*z - 40*x*y", ("x", "y", "z", "tau"))
    tau = MultiPoly.variable(4, 3)
    tampered = type(w)(
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
    bundle = certify_witness(tampered)
    assert bundle.verdict == "Refuted"
    assert bundle.failed_stage == "t1"
    assert bundle.stages[-1].detail == "point (-1/8, 5/16): S_B singular at p"


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
