"""Dimension bounds and the independent-conditions rank test for node sets.

Linear systems handled: all plane curves of degree d (``p2``), all surfaces
of degree d in projective 3-space (``p3``), and the restricted system of
degree-d surfaces on a fixed surface inside projective 3-space (``ci4``,
parametrized by the pair (d, h) with d >= h - 1).  Regularity of a node set
is certified as full rank of its evaluation matrix against the ambient
monomial basis, computed exactly over the rationals; the rank modulo a
word-size prime is reported alongside as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

from .errors import ArityError, DataFormatError, PointNotOnSurface, ToolkitError
from .linalg import RatMatrix
from .polynomials import (
    MultiPoly,
    format_point,
    json_int,
    monomials_of_degree,
    parse_rational,
)

SPACES = ("p2", "p3", "ci4")


def choose(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 whenever n < k or k < 0."""
    if k < 0 or n < k:
        return 0
    return comb(n, k)


@dataclass(frozen=True)
class SystemSpec:
    """A linear system of divisors, identified by ambient space and degree."""

    space: str
    d: int
    h: int | None = None
    surface: MultiPoly | None = None  # membership equation for the ci4 case

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        if self.d < 0:
            raise ValueError("degree must be nonnegative")
        if self.space == "ci4":
            if self.h is None or self.h < 2:
                raise ValueError("ci4 systems need h >= 2")
            if self.d < self.h - 1:
                raise ValueError("ci4 systems need d >= h - 1")
        if self.surface is not None:
            if self.surface.arity != 4:
                raise ArityError("membership surface must live in 4 variables")
            if self.surface.is_zero() or not self.surface.is_homogeneous():
                raise ValueError("membership surface must be nonzero homogeneous")

    @property
    def ambient_arity(self) -> int:
        return 3 if self.space == "p2" else 4

    def monomial_basis(self):
        return list(monomials_of_degree(self.ambient_arity, self.d))

    def to_json(self) -> dict:
        doc: dict = {"space": self.space, "d": self.d}
        if self.h is not None:
            doc["h"] = self.h
        if self.surface is not None:
            doc["surface"] = self.surface.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "SystemSpec":
        try:
            space = str(doc["space"])
            d = json_int(doc["d"], "d")
            h = json_int(doc["h"], "h") if doc.get("h") is not None else None
            surface = (
                MultiPoly.from_json(doc["surface"]) if doc.get("surface") else None
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed system spec: {exc}") from exc
        try:
            return cls(space, d, h, surface)
        except (ValueError, ArityError) as exc:
            raise DataFormatError(str(exc)) from exc


def linear_system_dim(spec: SystemSpec) -> int:
    """Projective dimension of the system.

    For the restricted ci4 case this is C(d+3,3) - C(d-h+1,3) - 1 with the
    convention C(n,3) = 0 for n < 3, matching the bound arithmetic the
    toolkit certifies; the tests cross-check it against the rank of the
    multiplication map by a form of degree h + 2.
    """
    if spec.space == "p2":
        return choose(spec.d + 2, 2) - 1
    if spec.space == "p3":
        return choose(spec.d + 3, 3) - 1
    return choose(spec.d + 3, 3) - choose(spec.d - spec.h + 1, 3) - 1


def max_regular_delta(spec: SystemSpec) -> int:
    """Largest certified node count delta for a regular family in the system."""
    if spec.space == "p3":
        if spec.d < 2:
            raise ValueError("the surface bound needs d >= 2")
        return choose(spec.d - 1, 2)
    if spec.space == "ci4":
        return linear_system_dim(spec)
    raise ValueError("no regular-delta bound is defined for p2 systems")


def heuristic_floor(spec: SystemSpec) -> int:
    """Conjectural lower bound floor(dim/4): a double point imposes at most 4
    conditions, so this many general nodes are always reachable heuristically."""
    return linear_system_dim(spec) // 4


def canonical_point(coords: Sequence) -> tuple[Fraction, ...]:
    """Scale homogeneous coordinates so the first nonzero one equals 1."""
    pt = [Fraction(x) for x in coords]
    pivot = next((x for x in pt if x != 0), None)
    if pivot is None:
        raise ValueError("projective point cannot have all coordinates zero")
    return tuple(x / pivot for x in pt)


def primitive_integer_point(point: Sequence[Fraction]) -> list[int]:
    """Coprime integer coordinates of a rational point, same sign pattern.

    Clearing the denominators (times their lcm) and dividing by the gcd of
    the results gives the primitive representative; for a canonical point
    its first nonzero coordinate stays positive.
    """
    scale = lcm(*(x.denominator for x in point))
    ints = [x.numerator * (scale // x.denominator) for x in point]
    g = gcd(*ints)
    return [v // g for v in ints]


@dataclass(frozen=True)
class ConditionMatrix:
    """Evaluation matrix of the system's monomial basis at a node set.

    Row i is the basis evaluated at the primitive integer representative of
    ``points[i]``: a primitive integer row, a positive multiple of the
    basis values at the canonical point.  The rows enter the matrix as they
    are, with multiplier 1, so the rank routines eliminate on them directly.
    """

    system: SystemSpec
    points: tuple[tuple[Fraction, ...], ...]
    matrix: RatMatrix


def condition_matrix(spec: SystemSpec, points: Sequence[Sequence]) -> ConditionMatrix:
    """Build the point-conditions matrix (one row per canonicalized point).

    Points must be pairwise distinct after canonical scaling; for ci4 systems
    carrying a membership surface, every point must lie on that surface.
    Entries are integers: products of the coordinate powers of each point's
    primitive integer representative.
    """
    pts = [canonical_point(p) for p in points]
    arity = spec.ambient_arity
    for p in pts:
        if len(p) != arity:
            raise ArityError(
                f"point {format_point(p)} does not match ambient arity {arity}"
            )
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in the node set")
    if spec.space == "ci4" and spec.surface is not None:
        for p in pts:
            if spec.surface.eval_at(p) != 0:
                raise PointNotOnSurface(
                    f"point {format_point(p)} is not on the ci4 surface"
                )
    basis = spec.monomial_basis()
    # one exponent column per variable, in basis order
    first, *rest = zip(*basis)
    rows = []
    for p in pts:
        powers = [
            list(accumulate(repeat(x, spec.d), mul, initial=1))
            for x in primitive_integer_point(p)
        ]
        row = [powers[0][k] for k in first]
        for table, column in zip(powers[1:], rest):
            row = [v * table[k] for v, k in zip(row, column)]
        rows.append(tuple(row))
    matrix = RatMatrix(len(rows), len(basis), tuple(rows), (1,) * len(rows))
    return ConditionMatrix(spec, tuple(pts), matrix)


@dataclass(frozen=True)
class IndependenceReport:
    """Rank certificate for the conditions imposed by a node set."""

    rank: int
    regular: bool
    tangent_dim: int
    delta: int
    modular_rank: int

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "regular": self.regular,
            "tangent_dim": self.tangent_dim,
            "delta": self.delta,
            "modular_rank": self.modular_rank,
        }


def independence_rank(cm: ConditionMatrix) -> IndependenceReport:
    """Rank of the condition matrix; regular means rank equals the node count.

    The rank is certified by rational elimination.  The rank modulo a prime
    is reported as ``modular_rank``; it can only drop below the rational
    rank, never exceed it, so a larger value is an internal fault.
    """
    modular = cm.matrix.rank_mod()
    rank = cm.matrix.rank()
    if modular > rank:
        raise ToolkitError("modular rank exceeded the rational rank")
    delta = len(cm.points)
    return IndependenceReport(
        rank=rank,
        regular=rank == delta,
        tangent_dim=linear_system_dim(cm.system) - rank,
        delta=delta,
        modular_rank=modular,
    )


@dataclass(frozen=True)
class T1CodimensionReport:
    """Codimension of the T1-forcing subspace inside a local linear system."""

    rank: int
    codimension: int
    dim_before: int
    dim_after: int

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "codimension": self.codimension,
            "dim_before": self.dim_before,
            "dim_after": self.dim_after,
        }


def t1_codimension(local_equations: Sequence[MultiPoly]) -> T1CodimensionReport:
    """Codimension of forcing a T1 point at the origin of a local system.

    The members form a basis of the system, given as 4-variable local
    equations in (x, y, z, u) already translated so the candidate point is
    the origin.  Forcing the normal form a*x + b*y + (higher order) there
    imposes three linear conditions on the system: the value and the two
    partials along (z, u) must vanish.  The codimension is the exact rank
    of those three functionals, so the constrained subsystem always
    satisfies dim_after >= dim_before - 3.
    """
    if not local_equations:
        raise ValueError("empty local system")
    origin = (0, 0, 0, 0)
    cols = []
    for g in local_equations:
        if g.arity != 4:
            raise ArityError("local equations live in 4 variables (x, y, z, u)")
        value, grad, _ = g.value_gradient_hessian(origin)
        cols.append([value, grad[2], grad[3]])
    matrix = RatMatrix.from_rows(
        [[col[i] for col in cols] for i in range(3)]
    )
    rank = matrix.rank()
    dim_before = len(local_equations) - 1
    return T1CodimensionReport(
        rank=rank,
        codimension=rank,
        dim_before=dim_before,
        dim_after=dim_before - rank,
    )


def parse_points(doc: dict) -> list[tuple[Fraction, ...]]:
    """Read the points file format {"points": [["0","0","1"], ...]}."""
    try:
        raw = doc["points"]
        for entry in raw:
            if not isinstance(entry, list):
                raise TypeError(f"point {entry!r} is not a list of coordinates")
        return [tuple(parse_rational(str(x)) for x in entry) for entry in raw]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"malformed points document: {exc}") from exc

