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
from math import comb
from typing import Sequence

from .errors import DataFormatError, GenericityError, GluingError, PointNotOnSurface
from .polynomials import (
    MultiPoly,
    format_point,
    format_rational,
    json_int,
    monomials_of_degree,
    parse_rational,
)
from .severi import (
    SystemSpec,
    canonical_point,
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
        # One cross product per pair gives its node.  A zero product is a
        # proportional pair; a node met by an earlier pair (i, k) makes lines
        # i, k, j concurrent, reported only once no pair is proportional.
        coeffs = [_line_coeffs(line) for line in lines]
        first_pair: dict[tuple[Fraction, ...], tuple[int, int]] = {}
        concurrent = None
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                raw = _cross(coeffs[i], coeffs[j])
                if not any(raw):
                    raise ValueError(f"lines {i} and {j} are proportional")
                node = canonical_point(raw)
                if node not in first_pair:
                    first_pair[node] = (i, j)
                elif concurrent is None:
                    concurrent = (*first_pair[node], j)
        if concurrent is not None:
            raise ValueError("lines {}, {}, {} are concurrent".format(*concurrent))
        nodes = tuple(first_pair)
        return cls(lines, nodes)

    def product(self) -> MultiPoly:
        result = MultiPoly.const(3, 1)
        for line in self.lines:
            result = result * line
        return result

    def permuted(self, perm: Sequence[int]) -> "LineArrangement":
        """Coordinate j read from slot perm[j]; general position and node order carry over."""
        nodes = tuple(canonical_point([p[i] for i in perm]) for p in self.nodes)
        return LineArrangement(tuple(l.permute_vars(perm) for l in self.lines), nodes)


def _line_coeffs(line: MultiPoly) -> list[Fraction]:
    return [line.coefficient(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _check_budget(retries: int) -> None:
    """A budget below one draw can never succeed: a usage error, not a GenericityError."""
    if retries < 1:
        raise ValueError(f"retries must be at least 1, got {retries}")


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
        return comb(self.d - 1, 2)

    def chart_nodes(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Arrangement nodes in the affine coordinates of the double locus."""
        return tuple((p[1], p[2]) for p in self.arrangement.nodes)


def _lift_chart(p2: MultiPoly, s_power: int) -> MultiPoly:
    """Embed a (v, w) polynomial into (s, v, w) multiplied by s**s_power."""
    return MultiPoly(3, {(s_power,) + e: c for e, c in p2.terms()})


def _companion_surface(phi1: MultiPoly, psi: MultiPoly) -> MultiPoly:
    """S_B = phi1 + tau*psi in (x, y, z, tau)."""
    return phi1.extend(1) + MultiPoly.variable(4, 3) * psi


def _derived_equations(phi1: MultiPoly, phi2: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """The projective equation w*phi1 + phi2 in (x, y, z, w) and the blow-up
    chart phi1(1,v,w) + s*phi2(1,v,w) in (s, v, w).

    For forms of degrees d-1 and d, (phi1 + phi2)(s, sv, sw) is s**(d-1)
    times this chart: the chart is the strict transform of the affine
    surface phi1 + phi2 = 0 under the blow-up of its centre.
    """
    projective = phi1.extend(1) * MultiPoly.variable(4, 3) + phi2.extend(1)
    chart = _lift_chart(phi1.dehomogenize(0), 0) + _lift_chart(phi2.dehomogenize(0), 1)
    return projective, chart


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
    the glued surface would be singular there instead of T1).  The default
    psi is x**(d-2) + c*tau**(d-2) with c = c_max / 2 of ``_sb_c_max`` (c = 1
    for d = 3), so S_B is smooth by construction.  ``retries`` is the total number of
    arrangement draws, and separately of phi2 draws; given ``lines`` must
    number d - 1.  The lines and overrides are checked as they come in; the
    witness assembled from them satisfies every structural invariant.
    """
    if d < 3:
        raise ValueError("witness construction needs d >= 3")
    if lines is not None and len(lines) != d - 1:
        raise ValueError(
            f"a degree-{d} witness needs {d - 1} lines, got {len(lines)}"
        )
    _check_budget(retries)
    rng = random.Random(seed)

    if lines is None:
        candidate = _draw_arrangement(rng, d - 1, retries)
    else:
        candidate = LineArrangement.from_lines(lines)
    perm = _chart_permutation(candidate)
    if perm is None:
        raise GenericityError("given lines admit no chart containing every node")
    arrangement = candidate.permuted(perm)

    nodes = arrangement.nodes
    phi1 = arrangement.product()

    if phi2 is not None:
        _require_form(phi2, 3, d, "phi2")
        phi2 = phi2.permute_vars(perm)
        if any(phi2.eval_at(p) == 0 for p in nodes):
            raise GenericityError("genericity failure: phi2 vanishes at a node of C")
    else:
        for _ in range(retries):
            phi2 = _draw_form(rng, 3, d)
            if all(phi2.eval_at(p) != 0 for p in nodes):
                break
        else:
            raise GenericityError(
                f"genericity failure: phi2 vanishes at a node of C "
                f"(seed {seed}, budget {retries})"
            )

    if psi is not None:
        _require_form(psi, 4, d - 2, "psi")
        psi = psi.permute_vars(tuple(perm) + (3,))
        if any(psi.eval_at(tuple(p) + (0,)) == 0 for p in nodes):
            raise GenericityError("genericity failure: psi vanishes at a node of C")
    else:
        # x != 0 at every node keeps psi nonzero there; c = c_max / 2 makes
        # S_B smooth in P3 by _sb_c_max
        c_max = _sb_c_max(d, arrangement)
        psi = _sb_psi(d, Fraction(1) if c_max is None else c_max / 2)

    projective, chart_a = _derived_equations(phi1, phi2)

    return SurfaceWitness(
        d=d,
        seed=seed,
        arrangement=arrangement,
        phi1=phi1,
        phi2=phi2,
        psi=psi,
        projective_equation=projective,
        blowup_chart_a=chart_a,
        sb_equation=_companion_surface(phi1, psi),
    )


def _draw_arrangement(rng: random.Random, k: int, retries: int) -> LineArrangement:
    """The first of at most ``retries`` drawn arrangements of k lines in
    general position and with a chart containing every node."""
    for _ in range(retries):
        lines = [_draw_form(rng, 3, 1) for _ in range(k)]
        try:
            arrangement = LineArrangement.from_lines(lines)
        except ValueError:
            continue
        if _chart_permutation(arrangement) is not None:
            return arrangement
    raise GenericityError(
        f"could not draw {k} general lines with a common node chart "
        f"within budget {retries}"
    )


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


def _sb_psi(d: int, c: Fraction) -> MultiPoly:
    """psi = x**(d-2) + c*tau**(d-2), so S_B = phi1 + tau*x**(d-2) + c*tau**(d-1)."""
    return MultiPoly(4, {(d - 2, 0, 0, 0): Fraction(1), (0, 0, 0, d - 2): c})


def _sb_c_max(d: int, arrangement: LineArrangement) -> Fraction | None:
    """The bound c_max such that S_B = phi1 + tau*x**(d-2) + c*tau**(d-1) is
    smooth in P3 for every 0 < c < c_max; None if it is for every c > 0.

    The arrangement is real, in general position, with x != 0 at every node.
    On tau = 0 a singular point needs x**(d-2) = 0 and grad phi1 = 0, a node
    with x = 0.  On tau = 1, Euler's identity puts a singular point at
    x*(1, eta) with eta a critical point of f = phi1(1, ., .) of value
    v != 0, x = -(d-2)/((d-1)*v) and c = -x**(d-2)/(d-1).  Those critical
    points of f are exactly one nondegenerate point in each bounded chamber
    of the arrangement (A. Varchenko, Compositio Math. 97, 1995; their
    number: P. Orlik and H. Terao, Invent. Math. 120, 1995).  A bounded
    chamber is a polygon with nodes as vertices, on which each |L_i| is
    convex, so |v| <= V = prod_i max_node |L_i(node)/x(node)| and a singular
    c has |c| >= c_max = (1/(d-1))*((d-2)/((d-1)*V))**(d-2).  For d = 3 there
    is no bounded chamber and V = 0.
    """
    v = Fraction(1)
    for line in arrangement.lines:
        a, b, c = _line_coeffs(line)
        v *= max(abs((a * x + b * y + c * z) / x) for x, y, z in arrangement.nodes)
    if v == 0:
        return None
    return Fraction(d - 2, (d - 1) * v) ** (d - 2) / (d - 1)


def _sb_smooth_by_bound(w: SurfaceWitness) -> bool:
    """Whether S_B is phi1 + tau*x**(d-2) + c*tau**(d-1) with 0 < c < c_max.

    Read after the structure, gluing and nodes stages, which make S_B
    phi1 + tau*psi and the arrangement nodes all of phi1's nodes, each with
    x != 0; so psi = x**(d-2) + c*tau**(d-2) is the shape to check."""
    d = w.d
    c = w.psi.coefficient((0, 0, 0, d - 2))
    if c <= 0 or w.psi != _sb_psi(d, c):
        return False
    c_max = _sb_c_max(d, w.arrangement)
    return c_max is None or c < c_max


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
    # with the degree checks above, these equalities imply multiplicity d-1
    # at the centre and (phi1 + phi2)(s, sv, sw) = s**(d-1) * chart
    projective, chart = _derived_equations(w.phi1, w.phi2)
    if w.projective_equation != projective:
        return "projective equation differs from w*phi1 + phi2"
    if w.blowup_chart_a != chart:
        return "blow-up chart identity fails"
    if not (w.sb_equation.is_homogeneous() and w.sb_equation.degree() == w.d - 1):
        return "companion surface is not a degree d-1 form"
    return None


def central_fibre(witness: SurfaceWitness) -> S0Spec:
    """Glue the two chart equations into a central-fibre description.

    The A side is the blow-up chart, the B side the x = 1 chart of the
    companion surface with the glue variable moved first.  Raises GluingError
    when the two restrictions to R differ by more than a nonzero scalar.
    """
    g_a = witness.blowup_chart_a
    g_b = witness.sb_equation.dehomogenize(0).permute_vars((2, 0, 1))
    spec = S0Spec(g_a=g_a, g_b=g_b)
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

    Stages, in order: structural invariants, chart gluing (the restrictions
    to R agree up to a unit, then S_B is phi1 + tau*psi), curve-node
    certification of every claimed node, T1 certification on the glued
    fibre, smoothness (S_A on its blow-up chart by the capped Groebner
    exclusion check; S_B in P3 by the bound of ``_sb_c_max`` when it has
    that shape, else by the exclusion check on its tau = 1 chart), and
    regularity (independent conditions) of the node set against the plane
    system of degree d-1.  The first failing stage names the verdict.  Each
    stage is the local function of its name; the chain stops at the first
    result that is not Certified, so later stages read the glued fibre only
    after gluing has been certified.
    """
    spec: S0Spec | None = None
    node_reports = []  # the nodes stage's report of C at each claimed node
    rank: int | None = None

    def structure() -> tuple[str, str]:
        defect = _structural_defect(witness)
        if defect is not None:
            return REFUTED, defect
        return CERTIFIED, "witness invariants hold"

    def gluing() -> tuple[str, str]:
        nonlocal spec
        try:
            spec = central_fibre(witness)
        except GluingError as exc:
            return REFUTED, str(exc)
        if witness.sb_equation != _companion_surface(witness.phi1, witness.psi):
            return REFUTED, "companion surface differs from phi1 + tau*psi"
        return CERTIFIED, "chart restrictions agree up to a unit"

    def nodes() -> tuple[str, str]:
        for point in witness.chart_nodes():
            try:
                report = curve_double_point(spec.curve_a(), point)
            except PointNotOnSurface:
                return REFUTED, f"claimed node {format_point(point)} is not on C"
            if report.kind != NODE_A1:
                return REFUTED, f"claimed node {format_point(point)} on C is {report.kind}"
            node_reports.append(report)
        return CERTIFIED, f"all {len(node_reports)} curve nodes certified"

    def t1() -> tuple[str, str]:
        for node in node_reports:
            report = certify_t1(spec, node)
            if report.kind != T1:
                return REFUTED, f"point {format_point(node.point)}: {report.reason}"
        return CERTIFIED, f"all {len(node_reports)} T1 points certified"

    def smoothness() -> tuple[str, str]:
        bound = _sb_smooth_by_bound(witness)
        charts = [("S_A chart", spec.g_a)]
        if not bound:
            # off tau = 1, S_B is singular only at a node where psi = 0,
            # which the t1 stage has ruled out
            charts.append(("S_B chart tau = 1", witness.sb_equation.dehomogenize(3)))
        details = []
        for name, chart_eq in charts:
            exclusion = exclude_extra_singularities(chart_eq, [], degree_cap=degree_cap)
            if exclusion.status != CERTIFIED:
                return exclusion.status, f"{name}: {exclusion.detail}"
            details.append(f"{name}: {exclusion.detail}")
        if bound:
            details.append("S_B in P3: 0 < c < c_max (critical-value bound)")
        return CERTIFIED, "; ".join(details)

    def regularity() -> tuple[str, str]:
        nonlocal rank
        system = SystemSpec("p2", witness.d - 1)
        report = independence_rank(system, condition_matrix(system, witness.arrangement.nodes))
        rank = report.rank
        if not report.regular:
            return (
                REFUTED,
                f"nodes impose dependent conditions (rank {report.rank} < {report.delta})",
            )
        return (
            CERTIFIED,
            f"rank {report.rank} of {report.delta} conditions against "
            f"the degree-{witness.d - 1} plane system "
            f"(dim {linear_system_dim(system)})",
        )

    stages: list[StageResult] = []
    for stage in (structure, gluing, nodes, t1, smoothness, regularity):
        status, detail = stage()
        stages.append(StageResult(stage.__name__, status, detail))
        if status != CERTIFIED:
            break
    last = stages[-1]
    verdict = last.status if last.status in (CERTIFIED, REFUTED) else INCONCLUSIVE
    failed = None if verdict == CERTIFIED else last.name
    return CertificateBundle(
        verdict, failed, tuple(stages), len(witness.arrangement.nodes), rank
    )


# ------------------------------------------------------------- serialization

_P3_VARS = ("x", "y", "z")
_P4_VARS = ("x", "y", "z", "tau")
#: Number of variables of each polynomial of a witness file.
_WITNESS_ARITY = {"phi1": 3, "phi2": 3, "psi": 4, "projective": 4, "chartA": 3, "sB": 4}


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
        d = json_int(doc["d"], "d")
        seed = json_int(doc["seed"], "seed")
        lines = [MultiPoly.from_json(entry) for entry in doc["lines"]]
        polys = {key: MultiPoly.from_json(doc[key]) for key in _WITNESS_ARITY}
        for key, arity in _WITNESS_ARITY.items():
            if polys[key].arity != arity:
                raise DataFormatError(f"{key} has {polys[key].arity} variables, not {arity}")
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
        phi1=polys["phi1"],
        phi2=polys["phi2"],
        psi=polys["psi"],
        projective_equation=polys["projective"],
        blowup_chart_a=polys["chartA"],
        sb_equation=polys["sB"],
    )
