"""Buchberger postconditions: reduction to zero, S-pair closure, degree caps,
the verified-zeros stop, and agreement with a plain Buchberger oracle."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodal_degen import groebner
from nodal_degen.errors import ArityError
from nodal_degen.groebner import default_degree_cap, groebner_basis
from nodal_degen.polynomials import MultiPoly, grlex_key
from oracles import buchberger, normal_form, poly, s_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")
SVW = ("s", "v", "w")


def test_linear_generators_dominate():
    gens = [poly("2*x", XYZ), poly("2*y", XYZ), poly("2*z", XYZ),
            poly("x**2 + y**2 + z**2", XYZ)]
    res = groebner_basis(gens)
    assert res.status == "ok"
    assert set(res.basis) == {poly("x", XYZ), poly("y", XYZ), poly("z", XYZ)}


def test_unit_ideal():
    res = groebner_basis([poly("1", XYZ)])
    assert res.basis == (MultiPoly.const(3, 1),)
    assert res.is_unit_ideal()


def test_smooth_quadric_chart_jacobian_is_unit():
    f = poly("s**2 + v**2 + w**2 - 1", SVW)
    res = groebner_basis([f, *f.gradient()])
    assert res.status == "ok" and res.is_unit_ideal()


def test_postconditions_generators_and_spairs_reduce_to_zero():
    gens = [poly("x**2 + y", XYZ), poly("x*y - z", XYZ), poly("y**2 - x*z", XYZ)]
    res = groebner_basis(gens, degree_cap=12)
    assert res.status == "ok"
    basis = list(res.basis)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_basis_is_reduced():
    res = groebner_basis([poly("x**2 - y", XYZ), poly("x*y - z", XYZ)])
    assert res.status == "ok"
    for i, b in enumerate(res.basis):
        assert b.leading()[1] == 1  # monic
        others = [c for j, c in enumerate(res.basis) if j != i]
        assert normal_form(b, others) == b  # no term reducible by the others


def test_degree_cap_inconclusive():
    # The surviving pair has lcm x**2*y**2 of degree 4, above the cap.
    gens = [poly("x*y**2 - x", XYZ), poly("x**2*y - y", XYZ)]
    res = groebner_basis(gens, degree_cap=3)
    assert res.status == "inconclusive"
    # the residual view: the inputs, neither reducible by the other
    assert res.basis == (poly("x**2*y - y", XYZ), poly("x*y**2 - x", XYZ))
    assert groebner_basis(gens, degree_cap=6).status == "ok"


def test_degree_cap_below_generators_rejected():
    with pytest.raises(ValueError):
        groebner_basis([poly("x**3", XYZ)], degree_cap=2)


def test_default_degree_cap():
    gens = [poly("x**3", XYZ), poly("y**2", XYZ)]
    assert default_degree_cap(gens) == 10


def test_arity_mismatch():
    with pytest.raises(ArityError):
        groebner_basis([poly("x", XYZ), poly("x", ("x", "y"))])


def test_zero_ideal():
    res = groebner_basis([MultiPoly.zero(3), MultiPoly.zero(3)])
    assert res.status == "ok" and res.basis == ()


def test_zero_ideal_reports_the_cap_passed():
    zero = [MultiPoly.zero(2)]
    assert groebner_basis(zero, degree_cap=0).degree_cap == 0
    assert groebner_basis(zero, degree_cap=7).degree_cap == 7
    assert groebner_basis(zero).degree_cap == default_degree_cap(zero) == 4


@pytest.mark.parametrize("gens", [[], [MultiPoly.zero(2)], [poly("x", XY)]])
def test_negative_degree_cap_rejected(gens):
    with pytest.raises(ValueError):
        groebner_basis(gens, degree_cap=-3)


def test_normal_form_membership():
    gens = [poly("x - y", XYZ), poly("y - z", XYZ)]
    basis = list(groebner_basis(gens).basis)
    assert normal_form(poly("x - z", XYZ), basis).is_zero()
    assert not normal_form(poly("x + z", XYZ), basis).is_zero()


# ---------------------------------------------------------- packed monomials


@st.composite
def _packed_cases(draw):
    """A packing and exponent vectors up to its field limit 2**(width - 1) - 1:
    a pair whose product stays within the limit, and a pair whose lcm does."""
    arity = draw(st.integers(0, 4))
    cap = draw(st.sampled_from([0, 15, 2**15, 2**20]))
    # the width rule, restated: a guard bit above room for twice the cap
    limit = 2 ** (max(16, cap.bit_length() + 2) - 1) - 1

    def vector(budget):
        e = []
        for _ in range(arity):
            e.append(draw(st.integers(0, budget)))
            budget -= e[-1]
        return tuple(draw(st.permutations(e)))

    a = vector(limit)
    b = vector(limit - sum(a))
    c, d = [], []
    for x in vector(limit):  # the lcm: one of c, d has x in this field
        y = draw(st.integers(0, x))
        u, v = (x, y) if draw(st.booleans()) else (y, x)
        c.append(u)
        d.append(v)
    return groebner._Packing(arity, cap), a, b, tuple(c), tuple(d)


@settings(max_examples=400, deadline=None)
@given(_packed_cases())
def test_packing_matches_tuple_definitions(case):
    pk, a, b, c, d = case
    pa, pb, pc, pd = (pk.pack(e) for e in (a, b, c, d))
    ab = tuple(x + y for x, y in zip(a, b))
    for e in (a, b, c, d, ab):
        assert pk.unpack(pk.pack(e)) == e
    for x, y, px, py in ((a, b, pa, pb), (c, d, pc, pd), (a, ab, pa, pk.pack(ab))):
        assert (px < py) == (grlex_key(x) < grlex_key(y))
        assert (px == py) == (x == y)
        assert pk.divides(px, py) == all(u <= v for u, v in zip(x, y))
        assert pk.divides(py, px) == all(v <= u for u, v in zip(x, y))
    assert pa + pb == pk.pack(ab) and pk.pack(ab) - pb == pa
    assert pk.lcm(pc, pd) == pk.lcm(pd, pc) == pk.pack(tuple(map(max, c, d)))
    assert pk.lcm(pa, pb) == pk.pack(tuple(map(max, a, b)))


# ------------------------------------------------ plain Buchberger oracle


@pytest.mark.parametrize(
    "texts, names",
    [
        (["x*y - 1", "x**2 - y", "y**2 - x**3"], XY),  # unit ideal
        (["x**2 - 1", "y**2 - x", "x*y - y"], XY),  # zero-dimensional
        (["x**2 + y*z - 2", "y**2 - x*z", "z**2 - x - y"], XYZ),  # zero-dimensional
        (["x*y", "x*z"], XYZ),  # the plane x = 0 and the line y = z = 0
        (["x**3 - y**2", "x*y*z - z**2"], XYZ),  # positive-dimensional
    ],
)
def test_basis_matches_plain_buchberger_on_fixed_ideals(texts, names):
    gens = [poly(t, names) for t in texts]
    res = groebner_basis(gens)
    assert res.status == "ok"
    assert res.basis == buchberger(gens)


@st.composite
def _small_ideals(draw):
    arity = draw(st.sampled_from([2, 3]))
    monomial = st.tuples(*[st.integers(0, 3)] * arity).filter(lambda e: sum(e) <= 3)
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)
    terms = st.dictionaries(monomial, coeff, min_size=1, max_size=3)
    return [MultiPoly(arity, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=150, deadline=None)
@given(_small_ideals())
def test_basis_matches_plain_buchberger(gens):
    oracle = buchberger(gens)
    res = groebner_basis(gens, degree_cap=24)
    assert res.status == "ok"
    assert res.basis == oracle
    for b in res.basis:  # built by the trusted constructor: canonical terms
        assert b == MultiPoly(b.arity, dict(b.terms()))
        assert all(type(c) is Fraction and all(type(k) is int for k in e) for e, c in b.terms())
    # every small grid point is offered; the run counts the common zeros
    grid = list(product((-1, 0, 1), repeat=gens[0].arity))
    assert groebner_basis(gens, degree_cap=24, zeros=grid) == res
    # At the tightest cap a run may stop with pairs left; either way the
    # basis is monic, lies in the ideal and is minimal.
    capped = groebner_basis(gens, degree_cap=max(int(g.degree()) for g in gens))
    lms = [b.leading()[0] for b in capped.basis]
    for b, lm in zip(capped.basis, lms):
        assert b.leading()[1] == 1
        assert normal_form(b, list(oracle)).is_zero()
        assert not any(
            other != lm and all(x <= y for x, y in zip(lm, other)) for other in lms
        )
    if capped.status == "ok":
        assert capped.basis == oracle


@st.composite
def _wide_ideals(draw):
    """Ideals in 1 to 4 variables; a monomial is a multiset of at most three
    variables."""
    arity = draw(st.integers(1, 4))
    monomial = st.lists(st.integers(0, arity - 1), max_size=3).map(
        lambda vs: tuple(vs.count(k) for k in range(arity))
    )
    coeff = st.integers(-3, 3).filter(bool).map(Fraction)
    terms = st.dictionaries(monomial, coeff, min_size=1, max_size=3)
    return [MultiPoly(arity, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=100, deadline=None)
@given(_wide_ideals())
def test_basis_matches_plain_buchberger_with_wide_fields(gens):
    # 2**16 + 3 needs 17 bits, so every packed field is 19 bits wide
    res = groebner_basis(gens, degree_cap=2**16 + 3)
    assert res.status == "ok"
    assert res.basis == buchberger(gens)


# ------------------------------------------------------ verified-zeros stop


def test_bogus_zero_changes_nothing():
    gens = [poly("x**2 - 1", XY), poly("y**2 - x", XY)]
    assert groebner_basis(gens, zeros=[(2, 5), (0, 0)]) == groebner_basis(gens)
    assert groebner_basis(gens, zeros=[(1, 1), (1, 1)]) == groebner_basis(gens)


def test_zeros_of_wrong_length_rejected():
    with pytest.raises(ArityError):
        groebner_basis([poly("x**2 - 1", XY)], zeros=[(1, 0, 0)])


@pytest.mark.parametrize("zero", [(1.0, 0), (1, True), (0.1, 0)])
def test_zeros_must_be_exact(zero):
    with pytest.raises(TypeError, match="coordinate .* is not an int or a Fraction"):
        groebner_basis([poly("x**2 - 1", XY)], zeros=[zero])


def test_verified_zeros_finish_a_capped_run():
    # V(I) = {(0, 0), (0, 1), (0, -1)}; the pair left at cap 3 has lcm degree 5
    gens = [poly("x**2*y - x", XY), poly("y**3 - x*y - y", XY), poly("y - y**3", XY)]
    capped = groebner_basis(gens, degree_cap=3)
    assert capped.status == "inconclusive"
    assert capped.basis == (poly("y**3 - y", XY), poly("x", XY))
    res = groebner_basis(gens, degree_cap=3, zeros=[(0, 0), (0, 1), (0, -1)])
    assert res.status == "ok"
    assert res.basis == groebner_basis(gens).basis == buchberger(gens)
    assert res.basis == (poly("y**3 - y", XY), poly("x", XY))


def _zero_reductions(monkeypatch, gens, zeros):
    counts = {"zero": 0, "nonzero": 0}
    reduce = groebner._reduce

    def counting(f, basis):
        r = reduce(f, basis)
        counts["zero" if not r else "nonzero"] += 1
        return r

    monkeypatch.setattr(groebner, "_reduce", counting)
    res = groebner_basis(gens, zeros=zeros)
    monkeypatch.undo()
    return res, counts


def test_nodal_quintic_chart_wastes_no_reductions(monkeypatch):
    # A degree-5 chart with one node at P.  Without basis pruning and the
    # stop, 57 of its 110 reductions reduced to zero; pruning alone leaves 19.
    text = (
        "s**2 + 2*v**2 - w**2 + s*v*w + s**4 - v**3*w"
        " + s**5 + v**5 + w**5 - 2*s*v**2*w**2"
    )
    P = (Fraction(1, 2), -1, 2)
    f = poly(text, SVW).translate([-x for x in P])
    gens = [f, *f.gradient()]
    res, counts = _zero_reductions(monkeypatch, gens, [P])
    assert counts == {"zero": 0, "nonzero": 53}
    plain, plain_counts = _zero_reductions(monkeypatch, gens, [])
    assert plain_counts == {"zero": 19, "nonzero": 53}
    assert res == plain
