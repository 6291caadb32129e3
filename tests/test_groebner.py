"""Buchberger postconditions: reduction to zero, S-pair closure, degree caps."""

import pytest

from nodal_degen.errors import ArityError
from nodal_degen.groebner import default_degree_cap, groebner_basis
from nodal_degen.polynomials import MultiPoly, poly
from oracles import normal_form, s_polynomial

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
    assert res.basis  # residual view still reported
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


def test_normal_form_membership():
    gens = [poly("x - y", XYZ), poly("y - z", XYZ)]
    basis = list(groebner_basis(gens).basis)
    assert normal_form(poly("x - z", XYZ), basis).is_zero()
    assert not normal_form(poly("x + z", XYZ), basis).is_zero()
