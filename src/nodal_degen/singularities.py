"""Certified classification of surface singularities in local affine charts.

A *node* (A1 point) of a surface chart f(v0, v1, v2) = 0 is a critical point
with rank-3 Hessian.  A *T1 point* of a reducible surface S_A + S_B glued
along R = {first chart variable = 0} is a point where both components are
smooth and the common curve C on R has a node.  Every verdict carries the
exact rational values (gradients, Hessian determinants) that witness it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .errors import ArityError, GluingError, PointNotOnSurface
from .groebner import default_degree_cap, groebner_basis
from .linalg import RatMatrix
from .polynomials import MultiPoly, format_rational

SMOOTH = "Smooth"
NODE_A1 = "NodeA1"
T1 = "T1"
DEGENERATE = "DegenerateCritical"
REFUTED = "Refuted"

CERTIFIED = "Certified"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class LocalChart:
    """Names and provenance of an affine coordinate chart."""

    arity: int
    var_names: tuple[str, ...]
    note: str = ""

    def __post_init__(self):
        if len(self.var_names) != self.arity:
            raise ArityError("var_names length must equal arity")
        if len(set(self.var_names)) != self.arity:
            raise ArityError("chart variable names must be pairwise distinct")


@dataclass(frozen=True)
class SingularityReport:
    """Exact verdict about one point of a surface chart."""

    point: tuple[Fraction, ...]
    kind: str
    hessian_rank: int | None = None
    reason: str | None = None
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc: dict = {
            "point": [format_rational(x) for x in self.point],
            "class": self.kind,
        }
        det = self.witness.get("hessian_det")
        if det is not None:
            doc["hessian_det"] = format_rational(det)
        if self.hessian_rank is not None:
            doc["hessian_rank"] = self.hessian_rank
        if self.reason is not None:
            doc["reason"] = self.reason
        grad = self.witness.get("gradient")
        if grad is not None:
            doc["gradient"] = [format_rational(x) for x in grad]
        doc["all_exact"] = True
        return doc


def hessian_matrix(f: MultiPoly, q: Sequence[Fraction]) -> RatMatrix:
    """Matrix of second partials of f evaluated at q."""
    n = f.arity
    grads = f.gradient()
    rows = []
    for i in range(n):
        second = [grads[i].derive(j).eval_at(q) for j in range(n)]
        rows.append(second)
    return RatMatrix.from_rows(rows)


def classify_point(f: MultiPoly, q: Sequence) -> SingularityReport:
    """Classify a point of the surface f = 0 in a 3-variable chart.

    The point must satisfy f(q) = 0, otherwise PointNotOnSurface is raised.
    A nonzero gradient gives Smooth; a critical point is NodeA1 exactly when
    the 3x3 Hessian has full rank, and DegenerateCritical(rank) otherwise.
    """
    if f.arity != 3:
        raise ArityError("classify_point expects a surface chart in 3 variables")
    point = tuple(Fraction(x) for x in q)
    value = f.eval_at(point)
    if value != 0:
        raise PointNotOnSurface(
            f"point {point} not on surface (value {value})"
        )
    gradient = tuple(g.eval_at(point) for g in f.gradient())
    if any(gradient):
        return SingularityReport(
            point, SMOOTH, witness={"value": value, "gradient": gradient}
        )
    hess = hessian_matrix(f, point)
    rank = hess.rank()
    if rank == 3:
        return SingularityReport(
            point,
            NODE_A1,
            hessian_rank=3,
            witness={
                "value": value,
                "gradient": gradient,
                "hessian": hess,
                "hessian_det": hess.det(),
            },
        )
    return SingularityReport(
        point,
        DEGENERATE,
        hessian_rank=rank,
        witness={"value": value, "gradient": gradient, "hessian": hess},
    )


def curve_double_point(curve: MultiPoly, p: Sequence) -> SingularityReport:
    """Classify a point of a plane curve: node iff critical with nonzero 2x2 Hessian."""
    if curve.arity != 2:
        raise ArityError("curve_double_point expects a plane curve in 2 variables")
    point = tuple(Fraction(x) for x in p)
    value = curve.eval_at(point)
    if value != 0:
        raise PointNotOnSurface(f"point {point} not on curve (value {value})")
    gradient = tuple(g.eval_at(point) for g in curve.gradient())
    if any(gradient):
        return SingularityReport(
            point, SMOOTH, witness={"value": value, "gradient": gradient}
        )
    hess = hessian_matrix(curve, point)
    det = hess.det()
    if det != 0:
        return SingularityReport(
            point,
            NODE_A1,
            hessian_rank=2,
            witness={"value": value, "gradient": gradient, "hessian_det": det},
        )
    return SingularityReport(
        point,
        DEGENERATE,
        hessian_rank=hess.rank(),
        witness={"value": value, "gradient": gradient, "hessian_det": det},
    )


@dataclass(frozen=True)
class S0Spec:
    """A central fibre S_A + S_B in two charts glued along R.

    In each chart the double locus R is cut by the first variable; the last
    two variables of both charts are identified as coordinates (z, u) on R,
    so both restrictions must cut the same curve C up to a nonzero scalar.
    """

    g_a: MultiPoly
    g_b: MultiPoly
    chart_a: LocalChart
    chart_b: LocalChart
    claimed_t1: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        if self.g_a.arity != 3 or self.g_b.arity != 3:
            raise ArityError("S0 chart equations live in 3 variables")
        seen = set(self.claimed_t1)
        if len(seen) != len(self.claimed_t1):
            raise ValueError("claimed T1 points must be pairwise distinct")

    def curve_a(self) -> MultiPoly:
        """The curve C cut on R by the A-side chart, in the (z, u) coordinates."""
        return self.g_a.set_var(0, 0).without_var(0)

    def curve_b(self) -> MultiPoly:
        return self.g_b.set_var(0, 0).without_var(0)

    def gluing_scalar(self) -> Fraction:
        """The unit lam with C_A = lam * C_B; raises GluingError if none exists."""
        lam = self.curve_a().scalar_ratio(self.curve_b())
        if lam is None or lam == 0:
            raise GluingError(
                "chart restrictions to R cut different curves; gluing mismatch"
            )
        return lam


def certify_t1(spec: S0Spec, p: Sequence) -> SingularityReport:
    """Certify a T1 point of the central fibre at the R-point p = (z, u).

    T1 holds iff both chart equations have nonzero gradient at p and the
    common curve C has a node there (zero value and gradient, nondegenerate
    2x2 Hessian).  Any failing condition yields Refuted naming it.
    """
    point = tuple(Fraction(x) for x in p)
    lam = spec.gluing_scalar()  # raises GluingError on inconsistent input
    curve = spec.curve_a()
    value = curve.eval_at(point)
    if value != 0:
        raise PointNotOnSurface(f"point {point} not on C (value {value})")
    q3 = (Fraction(0),) + point
    grad_a = tuple(g.eval_at(q3) for g in spec.g_a.gradient())
    grad_b = tuple(g.eval_at(q3) for g in spec.g_b.gradient())
    witness = {
        "gradient_a": grad_a,
        "gradient_b": grad_b,
        "gluing_scalar": lam,
    }
    if not any(grad_a):
        return SingularityReport(
            point, REFUTED, reason="S_A singular at p", witness=witness
        )
    if not any(grad_b):
        return SingularityReport(
            point, REFUTED, reason="S_B singular at p", witness=witness
        )
    curve_report = curve_double_point(curve, point)
    witness["curve_hessian_det"] = curve_report.witness.get("hessian_det")
    witness["curve_gradient"] = curve_report.witness.get("gradient")
    if curve_report.kind == SMOOTH:
        return SingularityReport(point, REFUTED, reason="C smooth at p", witness=witness)
    if curve_report.kind != NODE_A1:
        return SingularityReport(
            point, REFUTED, reason="C has degenerate double point", witness=witness
        )
    return SingularityReport(point, T1, witness=witness)


@dataclass(frozen=True)
class NodeSetReport:
    """Batch classification of claimed surface nodes."""

    reports: tuple[SingularityReport, ...]
    all_nodes: bool

    def to_json(self) -> dict:
        return {
            "reports": [r.to_json() for r in self.reports],
            "all_nodes": self.all_nodes,
        }


def certify_node_set(f: MultiPoly, points: Sequence[Sequence]) -> NodeSetReport:
    """classify_point over a list of pairwise-distinct claimed nodes."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("claimed points must be pairwise distinct")
    reports = tuple(classify_point(f, p) for p in pts)
    return NodeSetReport(reports, all(r.kind == NODE_A1 for r in reports))


@dataclass(frozen=True)
class ExclusionResult:
    """Outcome of the no-extra-singularities check."""

    status: str  # Certified | Refuted | Inconclusive
    detail: str
    singular_points: tuple[tuple[Fraction, ...], ...] | None = None
    residual_basis: tuple[MultiPoly, ...] | None = None

    def to_json(self) -> dict:
        doc = {"status": self.status, "detail": self.detail}
        if self.singular_points is not None:
            doc["singular_points"] = [
                [format_rational(x) for x in p] for p in self.singular_points
            ]
        if self.residual_basis is not None:
            doc["residual_basis"] = [b.to_json() for b in self.residual_basis]
        return doc


_DIVISOR_BOUND = 10**12


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


def _clear_denominators(coeffs: Sequence[Fraction]) -> list[int]:
    mult = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return [int(c * mult) for c in coeffs]


def _rational_roots(coeffs: list[Fraction]):
    """All rational roots of a univariate polynomial, or None if it does not
    split over Q (or its integer coefficients are too large to factor).

    ``coeffs[k]`` is the coefficient of x**k; the leading coefficient is nonzero.
    """
    ints = _clear_denominators(coeffs)
    roots: list[Fraction] = []
    while len(ints) > 1:
        if ints[0] == 0:  # a root at zero; divide by x
            roots.append(Fraction(0))
            ints = ints[1:]
            continue
        if len(ints) == 2:
            roots.append(Fraction(-ints[0], ints[1]))
            ints = [ints[1]]
            continue
        if abs(ints[0]) > _DIVISOR_BOUND or abs(ints[-1]) > _DIVISOR_BOUND:
            return None
        found = None
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if acc == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None  # irrational (or complex) roots remain
        roots.append(found)
        # synthetic division by (x - found), done exactly over Q
        quot: list[Fraction] = []
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * found + c
            quot.append(acc)
        quot = quot[:-1][::-1]  # drop the remainder (zero)
        ints = _clear_denominators(quot)
    return roots


def _univariate_in(p: MultiPoly, var: int) -> list[Fraction] | None:
    """Coefficient list if p only involves the given variable, else None."""
    deg = 0
    for e, _ in p.terms():
        if any(k and i != var for i, k in enumerate(e)):
            return None
        deg = max(deg, e[var])
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in p.terms():
        coeffs[e[var]] = c
    return coeffs


def _extract_points(basis, arity: int):
    """Solve a zero-dimensional triangular system; None when not triangular
    or when some root is irrational."""
    partial: list[tuple[Fraction, ...]] = [()]  # assignments for trailing vars
    for var in range(arity - 1, -1, -1):
        nxt: list[tuple[Fraction, ...]] = []
        for assign in partial:
            specialized = []
            dead = False
            for b in basis:
                q = b
                for offset, val in enumerate(assign):
                    q = q.set_var(var + 1 + offset, val)
                if q.is_zero():
                    continue
                if q.degree() == 0:
                    dead = True  # nonzero constant: branch has no solutions
                    break
                specialized.append(q)
            if dead:
                continue
            candidates = [
                coeffs
                for coeffs in (_univariate_in(q, var) for q in specialized)
                if coeffs is not None and len(coeffs) > 1
            ]
            if not candidates:
                return None
            coeffs = min(candidates, key=len)
            roots = _rational_roots(coeffs)
            if roots is None:
                return None
            for r in sorted(set(roots)):
                nxt.append((r,) + assign)
        partial = nxt
    return [p for p in partial if all(b.eval_at(p) == 0 for b in basis)]


def _format_points(points) -> str:
    """Sorted points as text, e.g. ``[(1/2, 0, 0), (12, 1, 1)]``."""
    shown = (", ".join(format_rational(x) for x in p) for p in sorted(points))
    return "[" + ", ".join(f"({body})" for body in shown) + "]"


def exclude_extra_singularities(
    f: MultiPoly, allowed: Sequence[Sequence], degree_cap: int | None = None
) -> ExclusionResult:
    """Certify that the singular locus of f = 0 equals the allowed point set.

    The Jacobian ideal (f, df/dv0, df/dv1, df/dv2) is closed under a
    degree-capped Groebner run.  Certified requires a zero-dimensional
    singular locus whose points (extracted only from triangular bases with
    rational roots) match the allowed list exactly; anything the cap or the
    extraction cannot settle is reported Inconclusive, never guessed.
    """
    if f.arity != 3:
        raise ArityError("exclude_extra_singularities expects a 3-variable chart")
    if f.is_zero():
        raise ValueError("zero polynomial does not define a surface")
    allowed_set = {tuple(Fraction(x) for x in p) for p in allowed}
    gens = [f, *f.gradient()]
    gens = [g for g in gens if not g.is_zero()]
    if degree_cap is None:
        degree_cap = default_degree_cap(gens)
    result = groebner_basis(gens, degree_cap)
    if result.status != "ok":
        return ExclusionResult(
            INCONCLUSIVE,
            f"degree cap {degree_cap} exceeded",
            residual_basis=result.basis,
        )
    if result.is_unit_ideal():
        if allowed_set:
            return ExclusionResult(
                REFUTED,
                "surface chart is smooth but singular points were claimed",
                singular_points=(),
            )
        return ExclusionResult(CERTIFIED, "empty singular locus", singular_points=())
    leads = [b.leading()[0] for b in result.basis]
    for var in range(3):
        if not any(
            e[var] and all(k == 0 for i, k in enumerate(e) if i != var) for e in leads
        ):
            return ExclusionResult(
                REFUTED,
                "singular locus is positive-dimensional",
                residual_basis=result.basis,
            )
    points = _extract_points(result.basis, 3)
    if points is None:
        return ExclusionResult(
            INCONCLUSIVE,
            "singular locus is not triangular with rational points",
            residual_basis=result.basis,
        )
    found = set(map(tuple, points))
    if found == allowed_set:
        return ExclusionResult(
            CERTIFIED,
            f"singular locus is exactly the {len(found)} allowed point(s)",
            singular_points=tuple(sorted(found)),
        )
    extra = found - allowed_set
    missing = allowed_set - found
    parts = []
    if extra:
        parts.append(f"unexpected singular points {_format_points(extra)}")
    if missing:
        parts.append(f"claimed points not singular {_format_points(missing)}")
    return ExclusionResult(
        REFUTED, "; ".join(parts), singular_points=tuple(sorted(found))
    )
