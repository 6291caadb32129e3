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
    exact_rational,
    format_point,
    json_int,
    monomials_of_degree,
    parse_rational,
)

SPACES = ("p2", "p3", "ci4")


@dataclass(frozen=True)
class SystemSpec:
    """A linear system of divisors, identified by ambient space and degree."""

    space: str
    d: int
    h: int | None = None  # ci4 only
    surface: MultiPoly | None = None  # ci4 only: optional membership equation

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        if self.d < 0:
            raise ValueError("degree must be nonnegative")
        if self.space != "ci4":
            if self.h is not None or self.surface is not None:
                raise ValueError(f"h and surface belong to ci4 systems, not {self.space}")
            return
        if self.h is None or self.h < 2:
            raise ValueError(f"ci4 systems need h >= 2, got {self.h}")
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

    def monomial_count(self) -> int:
        """The length of ``monomial_basis()``, counted without enumerating it."""
        return comb(self.d + self.ambient_arity - 1, self.ambient_arity - 1)

    @classmethod
    def from_json(cls, doc: dict) -> "SystemSpec":
        try:
            space = str(doc["space"])
            d = json_int(doc["d"], "d")
            h = json_int(doc["h"], "h") if "h" in doc else None
            surface = MultiPoly.from_json(doc["surface"]) if "surface" in doc else None
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed system spec: {exc}") from exc
        try:
            return cls(space, d, h, surface)
        except (ValueError, ArityError) as exc:
            raise DataFormatError(str(exc)) from exc


def linear_system_dim(spec: SystemSpec) -> int:
    """Projective dimension of the system.

    For the restricted ci4 case this is C(d+3,3) - C(d-h+1,3) - 1, where
    C(n,3) = 0 for 0 <= n < 3 (d >= h - 1 keeps n >= 0), matching the bound
    arithmetic the toolkit certifies; the tests cross-check it against the
    rank of the multiplication map by a form of degree h + 2.
    """
    if spec.space == "ci4":
        return spec.monomial_count() - comb(spec.d - spec.h + 1, 3) - 1
    return spec.monomial_count() - 1


def max_regular_delta(spec: SystemSpec) -> int:
    """Largest certified node count delta for a regular family in the system."""
    if spec.space == "p3":
        if spec.d < 2:
            raise ValueError("the surface bound needs d >= 2")
        return comb(spec.d - 1, 2)
    if spec.space == "ci4":
        return linear_system_dim(spec)
    raise ValueError("no regular-delta bound is defined for p2 systems")


def heuristic_floor(spec: SystemSpec) -> int:
    """Conjectural lower bound floor(dim/4): a double point imposes at most 4
    conditions, so this many general nodes are always reachable heuristically."""
    return linear_system_dim(spec) // 4


def canonical_point(coords: Sequence) -> tuple[Fraction, ...]:
    """Scale homogeneous coordinates, each an int or a Fraction, so the first
    nonzero one equals 1."""
    pt = [exact_rational(x, "coordinate") for x in coords]
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


def condition_matrix(spec: SystemSpec, points: Sequence[Sequence]) -> RatMatrix:
    """Evaluation matrix of the system's monomial basis at a node set.

    Row i is the basis evaluated at the primitive integer representative of
    the i-th canonicalized point: a primitive integer row, a positive
    multiple of the basis values at the canonical point.  The rows enter the
    matrix as they are, with multiplier 1, so the rank routines eliminate on
    them directly.

    Points must be pairwise distinct after canonical scaling; for ci4 systems
    carrying a membership surface, every point must lie on that surface.
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
    if spec.surface is not None:  # ci4 only
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
    return RatMatrix(len(rows), len(basis), tuple(rows), (1,) * len(rows))


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


def independence_rank(spec: SystemSpec, matrix: RatMatrix) -> IndependenceReport:
    """Rank of a condition matrix of ``spec``; regular means rank equals the
    node count, one node per row.

    The rank is certified by rational elimination.  The rank modulo a prime
    is reported as ``modular_rank``; it can only drop below the rational
    rank, never exceed it, so a larger value is an internal fault.
    """
    modular = matrix.rank_mod()
    rank = matrix.rank()
    if modular > rank:
        raise ToolkitError("modular rank exceeded the rational rank")
    return IndependenceReport(
        rank=rank,
        regular=rank == matrix.rows,
        tangent_dim=linear_system_dim(spec) - rank,
        delta=matrix.rows,
        modular_rank=modular,
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

