"""Local degeneration checks: the T1-to-node family, the limit Hessian, and
the intersection arithmetic on the exceptional quadric P1 x P1.

The model family lives in coordinates (x, y, z, u, t): the threefold fibre is
xy = t and the smoothing divisor is x - y - alpha - z**2 - u**2 = 0 with
alpha**2 = -4t.  Eliminating x gives a 3-variable surface chart in (y, z, u)
whose unique singular point for t != 0 is a node converging to the T1 point
as t -> 0.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .linalg import RatMatrix
from .polynomials import MultiPoly, format_rational
from .singularities import REFUTED, SingularityReport, classify_point

VERIFIED = "Verified"


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class FamilySlice:
    """One rational member of the smoothing family over base value t != 0."""

    t: Fraction
    alpha: Fraction
    surface_chart: MultiPoly  # in (y, z, u) after eliminating x

    def __post_init__(self):
        if self.t == 0:
            raise ValueError("general-fibre slice needs t != 0")
        if self.alpha * self.alpha + 4 * self.t != 0:
            raise ValueError("alpha**2 + 4t must vanish exactly")

    def node_point(self) -> tuple[Fraction, Fraction, Fraction]:
        """Predicted node in chart coordinates (the x-value alpha/2 is eliminated)."""
        return (-self.alpha / 2, Fraction(0), Fraction(0))


def slice_chart(t: Fraction, alpha: Fraction) -> MultiPoly:
    """y*(y + alpha + z**2 + u**2) - t, the chart equation after eliminating x."""
    return MultiPoly._trusted(
        3,
        {
            (2, 0, 0): Fraction(1),
            (1, 0, 0): Fraction(alpha),
            (1, 2, 0): Fraction(1),
            (1, 0, 2): Fraction(1),
            (0, 0, 0): -Fraction(t),
        },
    )


def deformation_slice(t) -> FamilySlice | None:
    """Rational slice of the family at base value t, or None.

    Needs -4t to be a perfect rational square (alpha is taken positive);
    returns None otherwise so the caller can retry with another t.
    """
    t = Fraction(t)
    if t == 0:
        raise ValueError("t = 0 is the central fibre, not a general-fibre slice")
    alpha = rational_sqrt(-4 * t)
    if alpha is None:
        return None
    return FamilySlice(t, alpha, slice_chart(t, alpha))


def tangent_cone_prediction(alpha: Fraction) -> MultiPoly:
    """Recentred quadratic part 2*y**2 - alpha*z**2 - alpha*u**2 of the node."""
    return MultiPoly._trusted(
        3,
        {
            (2, 0, 0): Fraction(2),
            (0, 2, 0): -Fraction(alpha),
            (0, 0, 2): -Fraction(alpha),
        },
    )


def verify_t1_to_node(family: FamilySlice) -> SingularityReport:
    """Certify that the slice carries a node at its predicted point.

    Recentres the chart once at (-alpha/2, 0, 0), classifies the recentred
    chart at the origin and compares its degree-2 part with the predicted
    tangent cone up to a scalar; the report carries the original point.
    ``deformation_slice`` derives the slice from a base value t.
    """
    point = family.node_point()
    recentred = family.surface_chart.translate(point)
    report = classify_point(recentred, (0, 0, 0))
    quadratic = recentred.degree_part(2)
    ratio = quadratic.scalar_ratio(tangent_cone_prediction(family.alpha))
    witness = dict(report.witness)
    witness["alpha"] = family.alpha
    witness["tangent_cone_ratio"] = ratio
    if ratio is None:
        return SingularityReport(
            point, REFUTED, reason="tangent cone mismatch", witness=witness
        )
    return SingularityReport(
        point, report.kind, hessian_rank=report.hessian_rank, witness=witness
    )


@dataclass(frozen=True)
class HessianLimitResult:
    """Comparison of det(B0) with the discriminant of the restricted quadric."""

    verdict: str  # Verified | Refuted
    b0: RatMatrix
    det_b0: Fraction
    discriminant: Fraction

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "det_b0": format_rational(self.det_b0),
            "discriminant": format_rational(self.discriminant),
            "b0": [
                [format_rational(self.b0.entry(i, j)) for j in range(3)]
                for i in range(3)
            ],
        }


def limit_hessian(p: MultiPoly) -> RatMatrix:
    """The 3x3 limit B0 of the rescaled Hessian of the induced surface equation.

    Input is a 4-variable local equation in (x, y, z, u) in the normal form
    p = x + y + (terms of degree >= 2).  The first column of B0 degenerates to
    (px*py, 0, 0) in the limit, the lower-right block is px**2/2 times the
    (z, u) Hessian, and the remaining first-row entries are the limits
    (pyz - pxz)/2 and (pyu - pxu)/2 of the rescaled mixed terms.  The
    partials at the origin are read off the linear and quadratic
    coefficients.
    """
    if p.arity != 4:
        raise ValueError("normal form lives in 4 variables (x, y, z, u)")
    value, (px, py, pz, pu), second = p.value_gradient_hessian((0, 0, 0, 0))
    if value != 0:
        raise ValueError("normal form requires p(0) = 0")
    if px != 1 or py != 1 or pz != 0 or pu != 0:
        raise ValueError("normal form requires linear part x + y at the origin")
    half = Fraction(1, 2)
    return RatMatrix.from_rows(
        [
            [
                px * py,
                half * (second[1][2] - second[0][2]),
                half * (second[1][3] - second[0][3]),
            ],
            [0, half * px * px * second[2][2], half * px * px * second[2][3]],
            [0, half * px * px * second[2][3], half * px * px * second[3][3]],
        ]
    )


def binary_quadric_discriminant(p: MultiPoly) -> Fraction:
    """disc(a*z**2 + b*z*u + c*u**2) = a*c - b**2/4, where a, b, c are the
    coefficients of z**2, z*u, u**2 in p: the quadric part of p(0, 0, z, u)."""
    a = p.coefficient((0, 0, 2, 0))
    b = p.coefficient((0, 0, 1, 1))
    c = p.coefficient((0, 0, 0, 2))
    return a * c - b * b / 4


def hessian_limit_check(p: MultiPoly) -> HessianLimitResult:
    """Verify det(B0) = disc(p2(0,0,z,u)) exactly (degenerate cases included)."""
    b0 = limit_hessian(p)
    det = b0.det()
    disc = binary_quadric_discriminant(p)
    verdict = VERIFIED if det == disc else REFUTED
    return HessianLimitResult(verdict, b0, det, disc)


# ---------------------------------------------------------------- F0 classes
# A class a*sigma + b*f on the exceptional quadric P1 x P1 is the pair (a, b).

FIBRE = (0, 1)


def f0_dot(c1, c2) -> int:
    """The intersection form of P1 x P1: sigma**2 = f**2 = 0 and sigma . f = 1."""
    return c1[0] * c2[1] + c1[1] * c2[0]


def render_f0(c) -> str:
    """The class (a, b) written as a*sigma + b*f."""
    return MultiPoly(2, {(1, 0): c[0], (0, 1): c[1]}).render(("sigma", "f"))


def chow_f0_identities() -> dict:
    """The classes e, theta|_E and E''|_E on E = P1 x P1, and their checks.

    For e = a*sigma + b*f, f.e = a pins a = -1, and e**2 = 2ab = 2 then pins
    b = -1.  theta|_E is the class of the tautological sub-bundle, i.e. e, and
    the normal-crossing relation 2f + theta|_E + E''|_E = 0 determines the
    last class.  The identities are checked again on the result.
    """
    e = [-1, -1]
    theta = e
    epp = [-2 * f - t for f, t in zip(FIBRE, theta)]
    return {
        "e": e,
        "theta_restriction": theta,
        "second_exceptional_restriction": epp,
        "checks": {
            "f.e = -1": f0_dot(FIBRE, e) == -1,
            "e**2 = 2": f0_dot(e, e) == 2,
            "2f + theta|_E + E''|_E = 0": all(
                2 * f + t + x == 0 for f, t, x in zip(FIBRE, theta, epp)
            ),
            "theta|_E = e": theta == e,
        },
    }


def theta_restriction_class(multiplicity: int) -> dict:
    """The class (2m - 2) f_Theta + m E on Theta for multiplicity m along F;
    effective iff both coefficients are >= 0."""
    if multiplicity < 0:
        raise ValueError("multiplicity along F must be nonnegative")
    fibre_coeff, e_coeff = 2 * multiplicity - 2, multiplicity
    return {
        "multiplicity": multiplicity,
        "fibre_coeff": fibre_coeff,
        "e_coeff": e_coeff,
        "effective": fibre_coeff >= 0 and e_coeff >= 0,
    }


def minimal_effective_multiplicity() -> int:
    """Smallest m >= 0 with theta_restriction_class(m) effective (equals 1)."""
    m = 0
    while not theta_restriction_class(m)["effective"]:
        m += 1
    return m
