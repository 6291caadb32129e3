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
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .errors import ArityError, GluingError, PointNotOnSurface
from .groebner import groebner_basis
from .linalg import RatMatrix
from .polynomials import MultiPoly, exact_rational, format_point, format_rational

SMOOTH = "Smooth"
NODE_A1 = "NodeA1"
T1 = "T1"
DEGENERATE = "DegenerateCritical"
REFUTED = "Refuted"

CERTIFIED = "Certified"
INCONCLUSIVE = "Inconclusive"


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


def _classify(f: MultiPoly, q: Sequence, noun: str) -> SingularityReport:
    """Classify a point of the hypersurface f = 0; ``noun`` names it in the
    PointNotOnSurface message.  A nonzero gradient gives Smooth; a critical
    point is NodeA1 exactly when the Hessian has full rank, and
    DegenerateCritical(rank) otherwise."""
    point = tuple(exact_rational(x, "coordinate") for x in q)
    value, gradient, second = f.value_gradient_hessian(point)
    if value != 0:
        raise PointNotOnSurface(
            f"point {format_point(point)} not on {noun} (value {value})"
        )
    witness = {"value": value, "gradient": gradient}
    if any(gradient):
        return SingularityReport(point, SMOOTH, witness=witness)
    hess = RatMatrix.from_rows(second)
    witness["hessian"] = hess
    det = hess.det()
    if det != 0:
        witness["hessian_det"] = det
        return SingularityReport(point, NODE_A1, hessian_rank=f.arity, witness=witness)
    return SingularityReport(point, DEGENERATE, hessian_rank=hess.rank(), witness=witness)


def classify_point(f: MultiPoly, q: Sequence) -> SingularityReport:
    """Classify a point of the surface f = 0 in a 3-variable chart: Smooth,
    NodeA1 (critical with a full-rank 3x3 Hessian) or DegenerateCritical.

    The point must satisfy f(q) = 0, otherwise PointNotOnSurface is raised.
    """
    if f.arity != 3:
        raise ArityError("classify_point expects a surface chart in 3 variables")
    return _classify(f, q, "surface")


def curve_double_point(curve: MultiPoly, p: Sequence) -> SingularityReport:
    """Classify a point of a plane curve: node iff critical with nonzero 2x2 Hessian."""
    if curve.arity != 2:
        raise ArityError("curve_double_point expects a plane curve in 2 variables")
    return _classify(curve, p, "curve")


@dataclass(frozen=True)
class S0Spec:
    """A central fibre S_A + S_B in two charts glued along R.

    In each chart the double locus R is cut by the first variable; the last
    two variables of both charts are identified as coordinates (z, u) on R,
    so both restrictions must cut the same curve C up to a nonzero scalar.
    """

    g_a: MultiPoly
    g_b: MultiPoly

    def __post_init__(self):
        if self.g_a.arity != 3 or self.g_b.arity != 3:
            raise ArityError("S0 chart equations live in 3 variables")

    @cached_property
    def _on_r(self) -> tuple[MultiPoly, Fraction | None, MultiPoly, MultiPoly]:
        """What the node and T1 checks read from the charts, once per spec: C, the
        unit lam with C_A = lam * C_B (None if there is none), and the
        normal coefficients N_A and N_B (the v0-coefficients) on R."""
        curve = self.g_a.coefficient_in(0, 0)
        lam = curve.scalar_ratio(self.g_b.coefficient_in(0, 0))
        return curve, lam or None, self.g_a.coefficient_in(0, 1), self.g_b.coefficient_in(0, 1)

    def curve_a(self) -> MultiPoly:
        """The curve C cut on R by the A-side chart, in the (z, u) coordinates."""
        return self._on_r[0]

    def gluing_scalar(self) -> Fraction:
        """The unit lam with C_A = lam * C_B; raises GluingError if none exists."""
        lam = self._on_r[1]
        if lam is None:
            raise GluingError(
                "chart restrictions to R cut different curves; gluing mismatch"
            )
        return lam


def certify_t1(spec: S0Spec, node: SingularityReport) -> SingularityReport:
    """Extend ``node = curve_double_point(spec.curve_a(), p)`` to a T1 verdict at p.

    T1 holds iff both chart equations have nonzero gradient at p and ``node``
    is NodeA1; any failing condition yields Refuted naming it.  A chart's
    tangential partials at (0, p) are those of its restriction to R, C for
    the A side and C / lam for the B side, and its normal partial is its
    v0-coefficient N at p, so ``node`` gives both gradients.  lam and both N
    are read once per spec.
    """
    lam = spec.gluing_scalar()  # raises GluingError on inconsistent input
    normal_a, normal_b = spec._on_r[2:]
    grad_c = node.witness["gradient"]
    witness = {
        "gradient_a": (normal_a.eval_at(node.point),) + grad_c,
        "gradient_b": (normal_b.eval_at(node.point),) + tuple(g / lam for g in grad_c),
        "gluing_scalar": lam,
    }
    reason = None
    if not any(witness["gradient_a"]):
        reason = "S_A singular at p"
    elif not any(witness["gradient_b"]):
        reason = "S_B singular at p"
    else:
        witness["curve_hessian_det"] = node.witness.get("hessian_det")
        witness["curve_gradient"] = grad_c
        if node.kind == SMOOTH:
            reason = "C smooth at p"
        elif node.kind != NODE_A1:
            reason = "C has degenerate double point"
    kind = T1 if reason is None else REFUTED
    return SingularityReport(node.point, kind, reason=reason, witness=witness)


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


def _clear_denominators(coeffs: Sequence[Fraction]) -> list[int]:
    mult = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return [int(c * mult) for c in coeffs]


# Dense integer polynomials below are lists with ``p[k]`` the coefficient of
# x**k and a nonzero last entry; the zero polynomial is the empty list.


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients (a positive scalar)."""
    c = gcd(*p)
    return [a // c for a in p] if c > 1 else p


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _rem(a: list[int], b: list[int]) -> list[int]:
    """A positive scalar multiple of the remainder of a modulo b."""
    r = a[:]
    lb = b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    while len(r) >= len(b):
        c = r[-1] * sign
        shift = len(r) - len(b)
        r = [scale * x for x in r]
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
        r = _primitive(r)
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials (primitive PRS)."""
    while b:
        a, b = b, _rem(a, b)
    return _primitive(a)


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive divisor b of a; exact over Z by Gauss's lemma."""
    r = a[:]
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        c = r[shift + len(b) - 1] // b[-1]
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
    return q


def _sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x), from the integer Horner sum of den**deg * p(num/den)."""
    num, den = x.numerator, x.denominator
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def _variations(signs) -> int:
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction] | None:
    """The distinct rational roots of a univariate polynomial, or None if it
    does not split over Q.

    ``coeffs[k]`` is the coefficient of x**k; the leading coefficient is
    nonzero.  The primitive squarefree part g is isolated by Sturm sequences
    on half-open intervals (a, b], which count a root at b, so a root on a
    bisection midpoint is kept.  Fewer real roots than deg g means complex
    roots.  Each root is refined to width below 1/(2 lc**2); a rational root
    has denominator dividing lc, so it is the midpoint's best approximation
    with denominator at most lc.  That candidate must lie in the interval and
    be an exact root; otherwise the interval's root is irrational.
    """
    f = _clear_denominators(coeffs)
    roots: list[Fraction] = []
    if f[0] == 0:
        roots.append(Fraction(0))
        while f[0] == 0:
            f = f[1:]
    if len(f) == 1:
        return roots
    f = _primitive(f)
    g = _quotient(f, _gcd(f, _derivative(f)))
    if g[-1] < 0:
        g = [-c for c in g]
    if len(g) == 2:
        return sorted(roots + [Fraction(-g[0], g[1])])
    chain = [g, _primitive(_derivative(g))]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    at_plus_inf = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus_inf = [s * (-1) ** (len(p) - 1) for s, p in zip(at_plus_inf, chain)]
    if _variations(at_minus_inf) - _variations(at_plus_inf) < len(g) - 1:
        return None  # some roots are not real
    lc = g[-1]
    # Cauchy's bound: every root has |x| < 2 + max|g_i| // lc <= bound
    bound = 1 << (1 + max(abs(c) for c in g[:-1]) // lc).bit_length()
    width = Fraction(1, 2 * lc * lc)

    def variations_at(x: Fraction) -> int:
        return _variations([_sign_at(p, x) for p in chain])

    lo, hi = Fraction(-bound), Fraction(bound)
    stack = [(lo, hi, variations_at(lo), variations_at(hi))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        count = v_lo - v_hi
        if count == 0:
            continue
        if count == 1 and hi - lo < width:
            r = ((lo + hi) / 2).limit_denominator(lc)
            if not lo < r <= hi or _sign_at(g, r) != 0:
                return None
            roots.append(r)
            continue
        mid = (lo + hi) / 2
        v_mid = variations_at(mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    return sorted(roots)


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
            for r in roots:
                nxt.append((r,) + assign)
        partial = nxt
    return [p for p in partial if all(b.eval_at(p) == 0 for b in basis)]


def _format_points(points) -> str:
    """Sorted points as text, e.g. ``[(1/2, 0, 0), (12, 1, 1)]``."""
    return "[" + ", ".join(format_point(p) for p in sorted(points)) + "]"


def exclude_extra_singularities(
    f: MultiPoly, allowed: Sequence[Sequence], degree_cap: int | None = None
) -> ExclusionResult:
    """Certify that the singular locus of f = 0 equals the allowed point set.

    The Jacobian ideal (f, df/dv0, df/dv1, df/dv2) is closed under a
    degree-capped Groebner run.  Certified requires a zero-dimensional
    singular locus whose points (extracted only from triangular bases with
    rational roots) match the allowed list exactly; anything the cap or the
    extraction cannot settle is reported Inconclusive, never guessed.  The
    allowed points go to the run as candidate zeros, so a chart whose
    singular locus is exactly those points, each simple (a node, say), stops
    as soon as its basis is complete.
    """
    if f.arity != 3:
        raise ArityError("exclude_extra_singularities expects a 3-variable chart")
    if f.is_zero():
        raise ValueError("zero polynomial does not define a surface")
    if any(len(p) != 3 for p in allowed):
        raise ArityError("allowed points of a surface chart have 3 coordinates")
    allowed_set = {tuple(exact_rational(x, "coordinate") for x in p) for p in allowed}
    result = groebner_basis([f, *f.gradient()], degree_cap, zeros=allowed_set)
    if result.status != "ok":
        return ExclusionResult(
            INCONCLUSIVE,
            f"degree cap {result.degree_cap} exceeded",
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
