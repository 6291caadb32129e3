"""Explicit degeneration witnesses: line arrangements, the degree-d surface
with a point of multiplicity d-1, its blow-up chart, and the glued central
fibre with one T1 point per arrangement node.

"General position" is never assumed: every seeded draw is certified after
the fact (distinct lines, no concurrent triple, auxiliary forms nonvanishing
at the nodes) with a bounded retry budget, so identical (d, seed) inputs
reproduce identical witnesses and certificates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DataFormatError, GenericityError, GluingError
from .linalg import RatMatrix
from .polynomials import MultiPoly, format_rational, monomials_of_degree, parse_rational
from .severi import (
    SystemSpec,
    canonical_point,
    choose,
    condition_matrix,
    independence_rank,
    linear_system_dim,
)
from .singularities import (
    CERTIFIED,
    INCONCLUSIVE,
    NODE_A1,
    REFUTED,
    T1,
    LocalChart,
    S0Spec,
    certify_t1,
    curve_double_point,
    exclude_extra_singularities,
)

COEFF_BOUND = 9  # coefficient height of seeded draws, before normalization
DEFAULT_RETRIES = 32


@dataclass(frozen=True)
class LineArrangement:
    """Distinct projective lines with no three concurrent, plus their nodes."""

    lines: tuple[MultiPoly, ...]
    nodes: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @classmethod
    def from_lines(cls, lines: Sequence[MultiPoly]) -> "LineArrangement":
        lines = tuple(lines)
        if len(lines) < 2:
            raise ValueError("an arrangement needs at least 2 lines")
        for line in lines:
            if line.arity != 3 or line.is_zero() or line.degree() != 1:
                raise ValueError("arrangement members must be nonzero linear forms")
            if not line.is_homogeneous():
                raise ValueError("arrangement members must be homogeneous")
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if lines[i].scalar_ratio(lines[j]) is not None:
                    raise ValueError(f"lines {i} and {j} are proportional")
        coeffs = [_line_coeffs(line) for line in lines]
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                for k in range(j + 1, len(lines)):
                    det = RatMatrix.from_rows([coeffs[i], coeffs[j], coeffs[k]]).det()
                    if det == 0:
                        raise ValueError(f"lines {i}, {j}, {k} are concurrent")
        nodes = tuple(
            _cross(coeffs[i], coeffs[j])
            for i in range(len(lines))
            for j in range(i + 1, len(lines))
        )
        return cls(lines, nodes)

    def product(self) -> MultiPoly:
        result = MultiPoly.const(3, 1)
        for line in self.lines:
            result = result * line
        return result

    def permuted(self, perm: Sequence[int]) -> "LineArrangement":
        return LineArrangement.from_lines([l.permute_vars(perm) for l in self.lines])


def _line_coeffs(line: MultiPoly) -> list[Fraction]:
    return [line.coefficient(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    raw = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    return canonical_point(raw)


def general_lines(
    k: int, seed: int, retries: int = DEFAULT_RETRIES
) -> LineArrangement:
    """Seeded arrangement of k lines satisfying the position invariants.

    Lines are drawn with integer coefficients of height at most COEFF_BOUND
    and redrawn (within the retry budget) until no two are proportional and
    no three concurrent.
    """
    if k < 2:
        raise ValueError("need at least 2 lines")
    return _draw_arrangement(random.Random(seed), k, retries)


def _draw_line(rng: random.Random) -> MultiPoly:
    while True:
        coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(3)]
        if any(coeffs):
            return MultiPoly(
                3,
                {
                    (1, 0, 0): Fraction(coeffs[0]),
                    (0, 1, 0): Fraction(coeffs[1]),
                    (0, 0, 1): Fraction(coeffs[2]),
                },
            )


def _draw_form(rng: random.Random, arity: int, degree: int) -> MultiPoly:
    while True:
        terms = {
            e: Fraction(rng.randint(-COEFF_BOUND, COEFF_BOUND))
            for e in monomials_of_degree(arity, degree)
        }
        form = MultiPoly(arity, terms)
        if not form.is_zero():
            return form


@dataclass(frozen=True)
class SurfaceWitness:
    """All exact data of one witness surface and its degeneration charts.

    Coordinates are arranged (by a recorded permutation of the original draw)
    so that every arrangement node has nonzero first coordinate; the affine
    chart of the exceptional plane is then v = x1/x0, w = x2/x0 throughout.
    """

    d: int
    seed: int
    arrangement: LineArrangement
    phi1: MultiPoly  # degree d-1 form in (x, y, z): the arrangement product
    phi2: MultiPoly  # degree d form in (x, y, z), certified nonzero at nodes
    psi: MultiPoly  # degree d-2 form in (x, y, z, tau) behind the B-side surface
    projective_equation: MultiPoly  # w*phi1 + phi2, degree d in (x, y, z, w)
    blowup_chart_a: MultiPoly  # chart (s, v, w): phi1(1,v,w) + s*phi2(1,v,w)
    sb_equation: MultiPoly  # phi1 + tau*psi, degree d-1 in (x, y, z, tau)

    @property
    def delta(self) -> int:
        return choose(self.d - 1, 2)

    def chart_nodes(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Arrangement nodes in the affine coordinates of the double locus."""
        return tuple((p[1], p[2]) for p in self.arrangement.nodes)


def _dehomogenize_first(form: MultiPoly) -> MultiPoly:
    """Chart x = 1 of a form in (x, y, z): a polynomial in (v, w)."""
    return form.dehomogenize(0)


def _lift_chart(p2: MultiPoly, s_power: int) -> MultiPoly:
    """Embed a (v, w) polynomial into (s, v, w) multiplied by s**s_power."""
    return MultiPoly(3, {(s_power,) + e: c for e, c in p2.terms()})


def build_witness(
    d: int,
    seed: int,
    retries: int = DEFAULT_RETRIES,
    lines: Sequence[MultiPoly] | None = None,
    phi2: MultiPoly | None = None,
    psi: MultiPoly | None = None,
) -> SurfaceWitness:
    """Construct the degree-d witness with a multiplicity-(d-1) point.

    The affine surface phi1 + phi2 = 0 (phi1 the product of d-1 certified
    general lines, phi2 a certified general degree-d form) has multiplicity
    exactly d-1 at the origin; its blow-up chart and the degree-(d-1)
    companion surface phi1 + tau*psi cut the same nodal curve on the glue
    plane.  Explicit ``lines``/``phi2``/``psi`` overrides are certified but
    not redrawn; they are read in the coordinates of the given lines and
    follow the same chart permutation as the arrangement.

    Genericity demands phi2 and psi nonvanishing at every node (otherwise
    the glued surface would be singular there instead of T1).
    """
    if d < 3:
        raise ValueError("witness construction needs d >= 3")
    rng = random.Random(seed)

    arrangement = None
    perm = None
    for attempt in range(retries):
        if lines is not None:
            candidate = LineArrangement.from_lines(lines)
        else:
            candidate = _draw_arrangement(rng, d - 1, retries)
        perm = _chart_permutation(candidate)
        if perm is not None:
            arrangement = candidate.permuted(perm)
            break
        if lines is not None:
            raise GenericityError(
                "given lines admit no chart containing every node"
            )
    if arrangement is None:
        raise GenericityError(
            f"no arrangement with a common node chart (seed {seed}, budget {retries})"
        )

    nodes = arrangement.nodes
    phi1 = arrangement.product()

    if phi2 is not None:
        _require_form(phi2, 3, d, "phi2")
        phi2 = phi2.permute_vars(perm)
        if any(phi2.eval_at(p) == 0 for p in nodes):
            raise GenericityError("genericity failure: phi2 vanishes at a node of C")
    else:
        phi2 = _draw_nonvanishing(rng, 3, d, nodes, retries, seed, "phi2")

    if psi is not None:
        _require_form(psi, 4, d - 2, "psi")
        psi = psi.permute_vars(tuple(perm) + (3,))
        if any(psi.eval_at(tuple(p) + (0,)) == 0 for p in nodes):
            raise GenericityError("genericity failure: psi vanishes at a node of C")
    else:
        # tau-free draws keep tau linear in the B chart, which keeps the
        # smoothness exclusion ideal at desk scale
        psi = _draw_nonvanishing(rng, 3, d - 2, nodes, retries, seed, "psi").extend(1)

    w4 = MultiPoly.variable(4, 3)
    projective = phi1.extend(1) * w4 + phi2.extend(1)
    chart_a = _lift_chart(_dehomogenize_first(phi1), 0) + _lift_chart(
        _dehomogenize_first(phi2), 1
    )
    tau = MultiPoly.variable(4, 3)
    sb = phi1.extend(1) + tau * psi

    witness = SurfaceWitness(
        d=d,
        seed=seed,
        arrangement=arrangement,
        phi1=phi1,
        phi2=phi2,
        psi=psi,
        projective_equation=projective,
        blowup_chart_a=chart_a,
        sb_equation=sb,
    )
    problem = _structural_defect(witness)
    if problem is not None:
        raise GenericityError(f"construction invariant failed: {problem}")
    return witness


def _draw_arrangement(rng: random.Random, k: int, retries: int) -> LineArrangement:
    for _ in range(retries):
        lines = [_draw_line(rng) for _ in range(k)]
        try:
            return LineArrangement.from_lines(lines)
        except ValueError:
            continue
    raise GenericityError(f"could not draw {k} general lines within budget {retries}")


def _chart_permutation(arrangement: LineArrangement) -> tuple[int, ...] | None:
    """A coordinate order whose first coordinate is nonzero at every node."""
    for index in range(3):
        if all(p[index] != 0 for p in arrangement.nodes):
            rest = [i for i in range(3) if i != index]
            return (index, rest[0], rest[1])
    return None


def _require_form(form: MultiPoly, arity: int, degree: int, name: str) -> None:
    if form.arity != arity:
        raise ValueError(f"{name} must live in {arity} variables")
    if form.is_zero() or not form.is_homogeneous() or form.degree() != degree:
        raise ValueError(f"{name} must be nonzero homogeneous of degree {degree}")


def _draw_nonvanishing(rng, arity, degree, points, retries, seed, name) -> MultiPoly:
    for _ in range(retries):
        form = _draw_form(rng, arity, degree)
        if all(form.eval_at(p) != 0 for p in points):
            return form
    raise GenericityError(
        f"genericity failure: {name} vanishes at a node of C "
        f"(seed {seed}, budget {retries})"
    )


def _structural_defect(w: SurfaceWitness) -> str | None:
    """First violated structural invariant of a witness, or None."""
    if w.d < 3:
        return "degree below 3"
    if len(w.arrangement.lines) != w.d - 1:
        return "arrangement size is not d - 1"
    if len(w.arrangement.nodes) != w.delta:
        return "node count differs from C(d-1, 2)"
    if len(set(w.arrangement.nodes)) != len(w.arrangement.nodes):
        return "claimed nodes are not pairwise distinct"
    if any(p[0] == 0 for p in w.arrangement.nodes):
        return "a node lies outside the glue chart"
    if w.phi1 != w.arrangement.product():
        return "phi1 is not the arrangement product"
    if not (w.phi1.is_homogeneous() and w.phi1.degree() == w.d - 1):
        return "phi1 is not a degree d-1 form"
    if not (w.phi2.is_homogeneous() and w.phi2.degree() == w.d):
        return "phi2 is not a degree d form"
    w4 = MultiPoly.variable(4, 3)
    if w.projective_equation != w.phi1.extend(1) * w4 + w.phi2.extend(1):
        return "projective equation differs from w*phi1 + phi2"
    # multiplicity at the centre: the affine chart w = 1 must start in degree d-1
    affine = w.projective_equation.dehomogenize(3)
    lowest = min(sum(e) for e, _ in affine.terms())
    if lowest != w.d - 1:
        return f"multiplicity at the centre is {lowest}, not d-1"
    # exact blow-up identity: (phi1 + phi2)(s, sv, sw) = s**(d-1) * chart
    s = MultiPoly.variable(3, 0)
    v = MultiPoly.variable(3, 1)
    wv = MultiPoly.variable(3, 2)
    total = w.phi1 + w.phi2
    pulled = total.compose([s, s * v, s * wv])
    if pulled != _lift_chart(MultiPoly.const(2, 1), w.d - 1) * w.blowup_chart_a:
        return "blow-up chart identity fails"
    if not (w.sb_equation.is_homogeneous() and w.sb_equation.degree() == w.d - 1):
        return "companion surface is not a degree d-1 form"
    return None


CHART_A = LocalChart(3, ("s", "z", "u"), note="blow-up chart at the centre; R = {s = 0}")
CHART_B = LocalChart(3, ("tau", "z", "u"), note="companion-surface chart; R = {tau = 0}")


def central_fibre(witness: SurfaceWitness) -> S0Spec:
    """Glue the two chart equations into a central-fibre description.

    The A side is the blow-up chart, the B side the x = 1 chart of the
    companion surface with the glue variable moved first.  Raises GluingError
    when the two restrictions to R differ by more than a nonzero scalar.
    """
    g_a = witness.blowup_chart_a
    g_b = witness.sb_equation.dehomogenize(0).permute_vars((2, 0, 1))
    spec = S0Spec(
        g_a=g_a,
        g_b=g_b,
        chart_a=CHART_A,
        chart_b=CHART_B,
        claimed_t1=witness.chart_nodes(),
    )
    spec.gluing_scalar()  # raises on mismatch
    return spec


@dataclass(frozen=True)
class StageResult:
    """Outcome of one certification stage."""

    name: str
    status: str  # Certified | Refuted | Inconclusive
    detail: str

    def to_json(self) -> dict:
        return {"stage": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class CertificateBundle:
    """Aggregated verdict of the full witness certification pipeline."""

    verdict: str  # Certified | Refuted | Inconclusive
    failed_stage: str | None
    stages: tuple[StageResult, ...]
    t1_count: int
    regularity_rank: int | None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "failed_stage": self.failed_stage,
            "stages": [s.to_json() for s in self.stages],
            "t1_count": self.t1_count,
            "regularity_rank": self.regularity_rank,
        }


def certify_witness(
    witness: SurfaceWitness, degree_cap: int | None = None
) -> CertificateBundle:
    """Run the full certificate chain on a witness.

    Stages, in order: structural invariants, chart gluing, curve-node
    certification of every claimed node, T1 certification on the glued
    fibre, chart smoothness via the capped Groebner exclusion check, and
    regularity (independent conditions) of the node set against the plane
    system of degree d-1.  The first failing stage names the verdict.
    """
    stages: list[StageResult] = []

    def bundle(verdict: str, failed: str | None, rank: int | None) -> CertificateBundle:
        t1_count = len(witness.arrangement.nodes)
        return CertificateBundle(verdict, failed, tuple(stages), t1_count, rank)

    defect = _structural_defect(witness)
    if defect is not None:
        stages.append(StageResult("structure", REFUTED, defect))
        return bundle(REFUTED, "structure", None)
    stages.append(StageResult("structure", CERTIFIED, "witness invariants hold"))

    try:
        spec = central_fibre(witness)
    except GluingError as exc:
        stages.append(StageResult("gluing", REFUTED, str(exc)))
        return bundle(REFUTED, "gluing", None)
    stages.append(
        StageResult("gluing", CERTIFIED, "chart restrictions agree up to a unit")
    )

    curve = spec.curve_a()
    for point in spec.claimed_t1:
        report = curve_double_point(curve, point)
        if report.kind != NODE_A1:
            stages.append(
                StageResult(
                    "nodes",
                    REFUTED,
                    f"claimed node {point} on C is {report.kind}",
                )
            )
            return bundle(REFUTED, "nodes", None)
    stages.append(
        StageResult(
            "nodes", CERTIFIED, f"all {len(spec.claimed_t1)} curve nodes certified"
        )
    )

    for point in spec.claimed_t1:
        report = certify_t1(spec, point)
        if report.kind != T1:
            stages.append(
                StageResult("t1", REFUTED, f"point {point}: {report.reason}")
            )
            return bundle(REFUTED, "t1", None)
    stages.append(
        StageResult("t1", CERTIFIED, f"all {len(spec.claimed_t1)} T1 points certified")
    )

    for name, chart_eq in (("S_A chart", spec.g_a), ("S_B chart", spec.g_b)):
        exclusion = exclude_extra_singularities(chart_eq, [], degree_cap=degree_cap)
        if exclusion.status != CERTIFIED:
            stages.append(
                StageResult(
                    "smoothness", exclusion.status, f"{name}: {exclusion.detail}"
                )
            )
            verdict = REFUTED if exclusion.status == REFUTED else INCONCLUSIVE
            return bundle(verdict, "smoothness", None)
    stages.append(
        StageResult("smoothness", CERTIFIED, "both chart surfaces are smooth")
    )

    system = SystemSpec("p2", witness.d - 1)
    report = independence_rank(condition_matrix(system, witness.arrangement.nodes))
    if not report.regular:
        stages.append(
            StageResult(
                "regularity",
                REFUTED,
                f"nodes impose dependent conditions "
                f"(rank {report.rank} < {report.delta})",
            )
        )
        return bundle(REFUTED, "regularity", report.rank)
    stages.append(
        StageResult(
            "regularity",
            CERTIFIED,
            f"rank {report.rank} of {report.delta} conditions against "
            f"the degree-{witness.d - 1} plane system "
            f"(dim {linear_system_dim(system)})",
        )
    )
    return bundle(CERTIFIED, None, report.rank)


# ------------------------------------------------------------- serialization

_P3_VARS = ("x", "y", "z")
_P4_VARS = ("x", "y", "z", "tau")


def witness_to_json(witness: SurfaceWitness, bundle: CertificateBundle | None = None) -> dict:
    doc = {
        "d": witness.d,
        "seed": witness.seed,
        "lines": [l.to_json(_P3_VARS) for l in witness.arrangement.lines],
        "nodes": [
            [format_rational(x) for x in p] for p in witness.arrangement.nodes
        ],
        "phi1": witness.phi1.to_json(_P3_VARS),
        "phi2": witness.phi2.to_json(_P3_VARS),
        "psi": witness.psi.to_json(_P4_VARS),
        "projective": witness.projective_equation.to_json(("x", "y", "z", "w")),
        "chartA": witness.blowup_chart_a.to_json(("s", "v", "w")),
        "sB": witness.sb_equation.to_json(_P4_VARS),
        "certificates": [s.to_json() for s in bundle.stages] if bundle else [],
        "verdict": bundle.verdict if bundle else None,
    }
    if bundle is not None:
        doc["failed_stage"] = bundle.failed_stage
        doc["t1_count"] = bundle.t1_count
        doc["regularity_rank"] = bundle.regularity_rank
    return doc


def witness_from_json(doc: dict) -> SurfaceWitness:
    """Rebuild a witness from its file form, revalidating the arrangement."""
    try:
        d = int(doc["d"])
        seed = int(doc["seed"])
        lines = [MultiPoly.from_json(entry) for entry in doc["lines"]]
        phi1 = MultiPoly.from_json(doc["phi1"])
        phi2 = MultiPoly.from_json(doc["phi2"])
        psi = MultiPoly.from_json(doc["psi"])
        projective = MultiPoly.from_json(doc["projective"])
        chart_a = MultiPoly.from_json(doc["chartA"])
        sb = MultiPoly.from_json(doc["sB"])
        stored_nodes = [
            tuple(parse_rational(str(x)) for x in p) for p in doc["nodes"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed witness document: {exc}") from exc
    try:
        arrangement = LineArrangement.from_lines(lines)
    except ValueError as exc:
        raise DataFormatError(f"invalid line arrangement: {exc}") from exc
    if list(arrangement.nodes) != stored_nodes:
        raise DataFormatError("stored nodes differ from the arrangement's nodes")
    return SurfaceWitness(
        d=d,
        seed=seed,
        arrangement=arrangement,
        phi1=phi1,
        phi2=phi2,
        psi=psi,
        projective_equation=projective,
        blowup_chart_a=chart_a,
        sb_equation=sb,
    )
