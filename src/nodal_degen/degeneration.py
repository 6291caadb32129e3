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

from .errors import ToolkitError
from .linalg import RatMatrix
from .polynomials import MultiPoly, format_rational
from .singularities import NODE_A1, REFUTED, SingularityReport, classify_point

VERIFIED = "Verified"
REFUTED_IDENTITY = "Refuted"

#: Variable names of the eliminated surface chart.
SLICE_VARS = ("y", "z", "u")


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


def verify_t1_to_node(t) -> SingularityReport:
    """Certify that the slice at t carries a node at its predicted point.

    ``t`` is the base value, or the FamilySlice already derived from it.
    Recentres the chart once at (-alpha/2, 0, 0), classifies the recentred
    chart at the origin and compares its degree-2 part with the predicted
    tangent cone up to a scalar; the report carries the original point.
    Raises ValueError at t = 0 (the central fibre is the T1 limit, not a node)
    and when -4t is not a rational square.
    """
    if isinstance(t, FamilySlice):
        family = t
    else:
        t = Fraction(t)
        if t == 0:
            raise ValueError("central fibre is the T1 limit, not a node")
        family = deformation_slice(t)
        if family is None:
            raise ValueError(f"-4t = {-4 * t} is not a rational square; no rational slice")
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


def slice_product_identity(t) -> bool:
    """Exact check that the charts of the two slices +alpha and -alpha multiply
    to the chart of the algebraic two-branch family.

    Eliminating x from (x - y - z**2 - u**2)**2 = -4t on xy = t and clearing
    the y**2 denominator gives (y**2 + y*(z**2 + u**2) - t)**2 + 4t*y**2; this
    must equal chart(alpha) * chart(-alpha) identically.
    """
    t = Fraction(t)
    family = deformation_slice(t)
    if family is None:
        raise ValueError("no rational slice at this t")
    plus = family.surface_chart
    minus = slice_chart(t, -family.alpha)
    y = MultiPoly.variable(3, 0)
    z = MultiPoly.variable(3, 1)
    u = MultiPoly.variable(3, 2)
    core = y * y + y * (z * z + u * u) - MultiPoly.const(3, t)
    algebraic = core * core + MultiPoly.const(3, 4 * t) * y * y
    return plus * minus == algebraic


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
    verdict = VERIFIED if det == disc else REFUTED_IDENTITY
    return HessianLimitResult(verdict, b0, det, disc)


# ---------------------------------------------------------------- F0 classes


@dataclass(frozen=True)
class DivisorClassF0:
    """Integer class a*sigma + b*f in the Picard lattice of P1 x P1.

    The intersection form is sigma**2 = f**2 = 0 and sigma . f = 1.
    """

    a: int
    b: int

    def dot(self, other: "DivisorClassF0") -> int:
        return self.a * other.b + self.b * other.a

    def self_intersection(self) -> int:
        return 2 * self.a * self.b

    def __add__(self, other: "DivisorClassF0") -> "DivisorClassF0":
        return DivisorClassF0(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "DivisorClassF0":
        return DivisorClassF0(-self.a, -self.b)

    def render(self) -> str:
        parts = []
        for coeff, name in ((self.a, "sigma"), (self.b, "f")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = name if mag == 1 else f"{mag}*{name}"
            parts.append((sign, body))
        if not parts:
            return "0"
        head_sign, head = parts[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


SIGMA = DivisorClassF0(1, 0)
FIBRE = DivisorClassF0(0, 1)


@dataclass(frozen=True)
class F0Identities:
    """The restriction classes on the exceptional P1 x P1 and their checks."""

    e: DivisorClassF0
    theta_restriction: DivisorClassF0
    second_exceptional_restriction: DivisorClassF0

    def checks(self) -> dict[str, bool]:
        total = (
            FIBRE + FIBRE + self.theta_restriction + self.second_exceptional_restriction
        )
        return {
            "f.e = -1": FIBRE.dot(self.e) == -1,
            "e**2 = 2": self.e.self_intersection() == 2,
            "2f + theta|_E + E''|_E = 0": total == DivisorClassF0(0, 0),
            "theta|_E = e": self.theta_restriction == self.e,
        }

    def transcript(self) -> str:
        lines = [
            f"e = {self.e.render()}",
            f"theta|_E = {self.theta_restriction.render()}",
            f"E''|_E = {self.second_exceptional_restriction.render()}",
        ]
        for name, ok in self.checks().items():
            lines.append(f"check {name}: {'ok' if ok else 'FAILED'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "e": [self.e.a, self.e.b],
            "theta_restriction": [self.theta_restriction.a, self.theta_restriction.b],
            "second_exceptional_restriction": [
                self.second_exceptional_restriction.a,
                self.second_exceptional_restriction.b,
            ],
            "checks": self.checks(),
        }


def chow_f0_identities() -> F0Identities:
    """Solve for e = a*sigma + b*f from f.e = -1 and e**2 = 2, then derive E''|_E.

    f.e = a pins a = -1, and e**2 = 2ab = 2 then pins b = 1/a = -1; the
    normal-crossing relation 2f + theta|_E + E''|_E = 0 determines the last
    class.  The identities are checked again on the result, and any failed
    identity raises, since these are constants of the construction.
    """
    a = -1  # f.e = a
    b = 1 // a  # e**2 = 2ab = 2
    e = DivisorClassF0(a, b)
    theta = e  # theta|_E is the class of the tautological sub-bundle, i.e. e
    epp = -(FIBRE + FIBRE + theta)
    result = F0Identities(e, theta, epp)
    failed = [name for name, ok in result.checks().items() if not ok]
    if failed:
        raise ToolkitError(f"restriction-class identities failed: {failed}")
    return result


@dataclass(frozen=True)
class ThetaRestriction:
    """Restriction class (2m - 2) f_Theta + m E for multiplicity m along F."""

    multiplicity: int
    fibre_coeff: int
    e_coeff: int

    @property
    def effective(self) -> bool:
        return self.fibre_coeff >= 0 and self.e_coeff >= 0

    def to_json(self) -> dict:
        return {
            "multiplicity": self.multiplicity,
            "fibre_coeff": self.fibre_coeff,
            "e_coeff": self.e_coeff,
            "effective": self.effective,
        }


def theta_restriction_class(multiplicity: int) -> ThetaRestriction:
    """The class (2m - 2, m) on Theta; effective iff both coefficients are >= 0."""
    if multiplicity < 0:
        raise ValueError("multiplicity along F must be nonnegative")
    return ThetaRestriction(multiplicity, 2 * multiplicity - 2, multiplicity)


def minimal_effective_multiplicity() -> int:
    """Smallest m >= 0 with theta_restriction_class(m) effective (equals 1)."""
    m = 0
    while not theta_restriction_class(m).effective:
        m += 1
    return m
