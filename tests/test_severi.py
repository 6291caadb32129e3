"""Dimension bounds, the multiplication-rank oracle, and condition ranks."""

from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen.constructions import build_witness
from nodal_degen.errors import ArityError, DataFormatError, PointNotOnSurface, ToolkitError
from nodal_degen.linalg import RatMatrix
from nodal_degen.polynomials import MultiPoly
from nodal_degen.severi import (
    SystemSpec,
    canonical_point,
    condition_matrix,
    heuristic_floor,
    independence_rank,
    linear_system_dim,
    max_regular_delta,
    parse_points,
    primitive_integer_point,
)
from oracles import condition_rows_by_fractions, poly, restricted_dim_oracle

XYZW = ("x", "y", "z", "w")


def test_linear_system_dims():
    assert linear_system_dim(SystemSpec("p3", 1)) == 3
    assert linear_system_dim(SystemSpec("p3", 4)) == 34
    assert linear_system_dim(SystemSpec("p3", 8)) == 164
    assert linear_system_dim(SystemSpec("p2", 3)) == 9
    assert linear_system_dim(SystemSpec("ci4", 3, 2)) == 19


@pytest.mark.parametrize("space, h", [("p2", None), ("p3", None), ("ci4", 2)])
def test_monomial_count_is_the_basis_length(space, h):
    for d in range(1 if h else 0, 9):
        spec = SystemSpec(space, d, h)
        assert spec.monomial_count() == len(spec.monomial_basis())


def test_restricted_oracle_spot_values():
    fixture = poly("x**2 + y**2 + z**2 - w**2", XYZW)
    assert restricted_dim_oracle(2, 3, fixture) == 19
    assert restricted_dim_oracle(2, 1) == 3
    assert restricted_dim_oracle(3, 2) == 9


def test_restricted_oracle_full_grid():
    for h in range(2, 6):
        for d in range(h - 1, 9):
            assert restricted_dim_oracle(h, d) == linear_system_dim(
                SystemSpec("ci4", d, h)
            ), (h, d)


def test_restricted_oracle_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        restricted_dim_oracle(2, 3, MultiPoly.zero(4))
    with pytest.raises(ValueError):
        restricted_dim_oracle(2, 5, poly("x + y", XYZW))  # wrong degree


def test_max_regular_delta():
    assert max_regular_delta(SystemSpec("p3", 4)) == 3
    assert max_regular_delta(SystemSpec("p3", 8)) == 21
    assert max_regular_delta(SystemSpec("p3", 2)) == 0
    assert max_regular_delta(SystemSpec("ci4", 3, 2)) == 19
    with pytest.raises(ValueError):
        max_regular_delta(SystemSpec("p3", 1))
    with pytest.raises(ValueError):
        max_regular_delta(SystemSpec("p2", 3))


def test_delta_below_dimension():
    for d in range(2, 51):
        spec = SystemSpec("p3", d)
        assert max_regular_delta(spec) <= linear_system_dim(spec)


def test_heuristic_floor():
    assert heuristic_floor(SystemSpec("p3", 4)) == 8
    assert heuristic_floor(SystemSpec("p3", 1)) == 0
    assert heuristic_floor(SystemSpec("ci4", 3, 2)) == 4
    assert heuristic_floor(SystemSpec("p3", 8)) == 41


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec("p4", 3)
    with pytest.raises(ValueError):
        SystemSpec("ci4", 3)  # missing h
    with pytest.raises(ValueError):
        SystemSpec("ci4", 1, 3)  # d < h - 1


# ------------------------------------------------------------ condition rank


def test_three_general_points_vs_lines():
    spec = SystemSpec("p2", 1)
    matrix = condition_matrix(spec, [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    r = independence_rank(spec, matrix)
    assert r.rank == 3 and r.regular


def test_collinear_points_vs_lines():
    spec = SystemSpec("p2", 1)
    matrix = condition_matrix(spec, [(0, 0, 1), (0, 1, 1), (0, 1, 2)])
    r = independence_rank(spec, matrix)
    assert r.rank == 2 and not r.regular


def test_triangle_nodes_vs_cubics():
    spec = SystemSpec("p2", 3)
    matrix = condition_matrix(spec, [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
    r = independence_rank(spec, matrix)
    assert (r.rank, r.regular, r.tangent_dim) == (3, True, 6)


def test_modular_rank_above_the_rational_rank_is_a_fault(monkeypatch):
    # reduction mod p never raises a rank, so a larger modular rank can
    # only be an internal fault, and no report is made
    spec = SystemSpec("p2", 1)
    matrix = condition_matrix(spec, [(0, 0, 1), (0, 1, 1), (0, 1, 2)])
    monkeypatch.setattr(RatMatrix, "rank_mod", lambda self: self.rank() + 1)
    with pytest.raises(ToolkitError, match="^modular rank exceeded the rational rank$"):
        independence_rank(spec, matrix)


@pytest.mark.parametrize("d", range(8, 13))
def test_large_arrangement_nodes_are_regular(d):
    # k lines with no three concurrent impose independent conditions in every
    # degree >= k - 2 (induction on k with the residual sequence), so the
    # nodes of d - 1 general lines have full rank against degree d - 1
    nodes = build_witness(d, d).arrangement.nodes
    spec = SystemSpec("p2", d - 1)
    r = independence_rank(spec, condition_matrix(spec, nodes))
    assert (r.rank, r.regular) == (comb(d - 1, 2), True)


def test_regular_means_expected_codimension():
    points = [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)]
    spec = SystemSpec("p3", 2)
    r = independence_rank(spec, condition_matrix(spec, points))
    assert r.regular
    assert r.tangent_dim == linear_system_dim(spec) - r.delta


def test_duplicate_points_rejected():
    with pytest.raises(ValueError):
        condition_matrix(SystemSpec("p2", 1), [(0, 0, 1), (0, 0, 2)])  # same point


def test_point_off_surface_rejected():
    spec = SystemSpec("ci4", 3, 2, surface=poly("x*y - z*w", XYZW))
    condition_matrix(spec, [(1, 0, 0, 1), (0, 1, 1, 0)])  # on the quadric
    with pytest.raises(PointNotOnSurface):
        condition_matrix(spec, [(1, 1, 1, 0)])


def test_condition_matrix_messages_are_readable():
    spec = SystemSpec("ci4", 3, 2, surface=poly("x*y - z*w", XYZW))
    with pytest.raises(PointNotOnSurface) as err:
        condition_matrix(spec, [(2, 2, 2, Fraction(1, 3))])
    assert str(err.value) == "point (1, 1, 1, 1/6) is not on the ci4 surface"
    with pytest.raises(ArityError) as err:
        condition_matrix(SystemSpec("p3", 2), [(1, Fraction(1, 2), 0)])
    assert str(err.value) == "point (1, 1/2, 0) does not match ambient arity 4"


def test_empty_node_set_is_vacuously_regular():
    spec = SystemSpec("p2", 2)
    r = independence_rank(spec, condition_matrix(spec, []))
    assert r.rank == 0 and r.regular and r.delta == 0


@settings(max_examples=40)
@given(st.data())
def test_rank_invariances(data):
    points = [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    spec = SystemSpec("p2", 2)
    base = independence_rank(spec, condition_matrix(spec, points))
    # rescaling homogeneous coordinates
    scales = [
        Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
        for _ in points
    ]
    rescaled = [tuple(s * x for x in p) for s, p in zip(scales, points)]
    r1 = independence_rank(spec, condition_matrix(spec, rescaled))
    # permuting the list
    perm = data.draw(st.permutations(points))
    r2 = independence_rank(spec, condition_matrix(spec, list(perm)))
    assert (r1.rank, r1.regular) == (base.rank, base.regular)
    assert (r2.rank, r2.regular) == (base.rank, base.regular)


def _primitive_rescaling(row: list[Fraction]) -> tuple[int, ...]:
    """The coprime integer row positively proportional to a nonzero row."""
    scale = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _assert_rows_match_fraction_oracle(spec: SystemSpec, points):
    matrix = condition_matrix(spec, points)
    canonical = [canonical_point(p) for p in points]
    fraction_rows = condition_rows_by_fractions(spec.monomial_basis(), canonical)
    oracle = RatMatrix.from_rows(fraction_rows)
    primitive = tuple(_primitive_rescaling(row) for row in fraction_rows)
    assert matrix.int_rows == primitive
    assert matrix.multipliers == (1,) * len(primitive)
    report = independence_rank(spec, matrix)
    assert report.rank == oracle.rank()
    assert report.modular_rank == oracle.rank_mod()
    return report


_MERSENNE = 2**31 - 1

_coordinates = st.builds(
    Fraction,
    st.integers(-12, 12),
    st.one_of(st.integers(1, 12), st.just(_MERSENNE)),
)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_rows_match_the_fraction_oracle(data):
    space = data.draw(st.sampled_from(["p2", "p3", "ci4"]))
    if space == "ci4":
        h = data.draw(st.integers(2, 3))
        spec = SystemSpec(
            "ci4", data.draw(st.integers(h - 1, 5)), h, poly("x*y - z*w", XYZW)
        )
    else:
        spec = SystemSpec(space, data.draw(st.integers(0, 6 if space == "p2" else 5)))
    seen = set()
    points = []
    for _ in range(data.draw(st.integers(0, 8))):
        if space == "ci4":  # Segre points (ac, bd, ad, bc) lie on x*y = z*w
            a, b, c, d = (data.draw(_coordinates) for _ in range(4))
            p = (a * c, b * d, a * d, b * c)
        else:
            p = tuple(data.draw(_coordinates) for _ in range(spec.ambient_arity))
        if any(p) and canonical_point(p) not in seen:
            seen.add(canonical_point(p))
            points.append(p)
    _assert_rows_match_fraction_oracle(spec, points)


def test_integer_rows_with_word_size_denominators():
    eps = Fraction(1, _MERSENNE)
    points = [(1, eps, 0, -eps), (0, -2, Fraction(5, _MERSENNE), 1), (3, 0, 0, 1)]
    report = _assert_rows_match_fraction_oracle(SystemSpec("p3", 4), points)
    assert report.regular
    segre = [(1, 0, eps, 0), (eps, -eps, eps * eps, -1), (0, 0, 0, 1)]
    spec = SystemSpec("ci4", 3, 2, poly("x*y - z*w", XYZW))
    assert _assert_rows_match_fraction_oracle(spec, segre).regular


def test_primitive_integer_point():
    assert primitive_integer_point((1, Fraction(-2, 3), 0)) == [3, -2, 0]
    assert primitive_integer_point((Fraction(2), 4, -6)) == [1, 2, -3]
    assert primitive_integer_point((0, Fraction(1, 2), Fraction(-1, 4))) == [0, 2, -1]


def test_canonical_point():
    assert canonical_point((0, 2, 4)) == (0, 1, 2)
    with pytest.raises(ValueError):
        canonical_point((0, 0, 0))
    # read as a float, 0.1 would scale z to 36028797018963968/3602879701896397
    with pytest.raises(TypeError, match="coordinate 0.1 is not an int"):
        canonical_point((0.1, 0, 1))


def test_points_file_round_trip():
    doc = {"points": [["0", "0", "1"], ["1/2", "1", "0"]]}
    pts = parse_points(doc)
    assert pts[1] == (Fraction(1, 2), Fraction(1), Fraction(0))
    with pytest.raises(DataFormatError):
        parse_points({"wrong": []})


@pytest.mark.parametrize(
    "doc",
    [
        {"points": ["123"]},
        {"points": [{"1": 0, "2": 0, "3": 0, "4": 0}]},
        {"points": [["0", "0", "1"], 7]},
        {"points": "001"},
    ],
)
def test_points_must_be_lists(doc):
    with pytest.raises(DataFormatError, match="malformed points document"):
        parse_points(doc)


def test_system_spec_from_json():
    surface = {"arity": 4, "terms": [{"e": [1, 1, 0, 0], "c": "1"}, {"e": [0, 0, 1, 1], "c": "-1"}]}
    doc = {"space": "ci4", "d": 3, "h": 2, "surface": surface}
    spec = SystemSpec("ci4", 3, 2, surface=poly("x*y - z*w", XYZW))
    assert SystemSpec.from_json(doc) == spec
    with pytest.raises(DataFormatError):
        SystemSpec.from_json({"space": "p3"})


@pytest.mark.parametrize(
    "doc",
    [
        {"space": "p3", "d": 8.7},
        {"space": "p3", "d": 4.0},
        {"space": "p3", "d": True},
        {"space": "p3", "d": "4"},
        {"space": "ci4", "d": 3, "h": 2.5},
        {"space": "ci4", "d": 3, "h": False},
        {"space": "ci4", "d": 3, "h": "2"},
    ],
)
def test_system_spec_degrees_must_be_json_integers(doc):
    with pytest.raises(DataFormatError, match="must be a JSON integer"):
        SystemSpec.from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"space": "p3", "d": 3, "h": 7},  # h outside ci4
        {"space": "p2", "d": 3, "h": 2},
        {"space": "p3", "d": 3, "h": None},
        {"space": "p3", "d": 2, "surface": {"arity": 4, "terms": [{"e": [1, 1, 0, 0], "c": "1"}]}},
        {"space": "ci4", "d": 3, "h": 2, "surface": {}},  # empty, not absent
        {"space": "ci4", "d": 3, "h": 2, "surface": None},
    ],
)
def test_system_spec_reads_every_field_it_accepts(doc):
    with pytest.raises(DataFormatError):
        SystemSpec.from_json(doc)


def test_system_spec_takes_h_and_surface_for_ci4_only():
    surface = poly("x*y - z*w", XYZW)
    for space in ("p2", "p3"):
        with pytest.raises(ValueError, match="belong to ci4"):
            SystemSpec(space, 3, 2)
        with pytest.raises(ValueError, match="belong to ci4"):
            SystemSpec(space, 3, surface=surface)
    assert SystemSpec.from_json({"space": "ci4", "d": 3, "h": 2}).surface is None
