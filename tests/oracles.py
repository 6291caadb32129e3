"""Test fixtures and slow, independent reference computations that the tests
check the library against: a parser for polynomial literals, rational
S-polynomials and multivariate division, a plain Buchberger algorithm built
on them, a determinant by Fraction elimination, an exhaustive minor-search
rank over Q and modulo p, a Gauss-Jordan solver over Fraction, rational
roots by the rational root theorem, the recentring of a polynomial by
generic composition, values term by term, gradients, Hessians and the
limit Hessian through derivative polynomials and through a full Taylor
shift, T1
certification from the gradient polynomials of both charts, condition
matrix rows evaluated in Fraction arithmetic, the dimension of the
restricted ci4 system by the rank of a multiplication map, the general
position of a line arrangement by pairwise ratios and triple determinants,
the coprimality of two polynomials in two variables by specialisation
and univariate Euclid, the smoothness of S_A read from phi2 on the lines
and nodes of the arrangement and, for small d, by the general exclusion on
charts that cover the blow-up, the rational-literal parser as a regular
expression followed by ``Fraction``, and seeded planters of witnesses that
break one hypothesis of the certificate chain: an exact singular point of
S_A of a chosen kind, a concurrent triple, a moved node, or a psi that
vanishes at a node."""

from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt, lcm, prod
from typing import Sequence

from nodal_degen.constructions import LineArrangement, SurfaceWitness, build_witness
from nodal_degen.errors import DataFormatError, GluingError, PointNotOnSurface
from nodal_degen.linalg import RatMatrix
from nodal_degen.polynomials import (
    Monomial,
    MultiPoly,
    format_point,
    grlex_key,
    monomials_of_degree,
    parse_rational,
)
from nodal_degen.severi import canonical_point
from nodal_degen.singularities import (
    CERTIFIED,
    REFUTED,
    T1,
    S0Spec,
    SingularityReport,
    exclude_extra_singularities,
)

_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational_by_regex(text: str) -> Fraction:
    """Reference rational-literal parser: a regular-expression pass over the
    stripped text (``\\d`` is any Unicode decimal digit), then ``Fraction``."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise DataFormatError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DataFormatError(f"zero denominator in {text!r}") from None


def poly(text: str, var_names: Sequence[str]) -> MultiPoly:
    """Parse expressions like ``"x**2*y - 3/2*z + 1"``.

    Only +, -, *, ** with integer or fraction literals are understood; this
    is a convenience for fixtures, not a general parser.
    """
    arity = len(var_names)
    index = {name: i for i, name in enumerate(var_names)}
    compact = text.replace(" ", "")
    if not compact:
        raise DataFormatError("empty polynomial expression")
    # split into signed summands, keeping ** intact
    pieces: list[str] = []
    current = ""
    for i, ch in enumerate(compact):
        if ch in "+-" and i > 0 and compact[i - 1] not in "+-*(":
            pieces.append(current)
            current = ch
        else:
            current += ch
    pieces.append(current)
    result = MultiPoly.zero(arity)
    for piece in pieces:
        sign = Fraction(1)
        while piece and piece[0] in "+-":
            if piece[0] == "-":
                sign = -sign
            piece = piece[1:]
        if not piece:
            raise DataFormatError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * arity
        for factor in piece.replace("**", "^").split("*"):
            if not factor:
                raise DataFormatError(f"empty factor in {text!r}")
            if "^" in factor:
                base, _, exp_text = factor.partition("^")
                exp = int(exp_text)
            else:
                base, exp = factor, 1
            if base in index:
                exps[index[base]] += exp
            elif _RATIONAL_RE.match(base):
                coeff *= parse_rational(base) ** exp
            else:
                raise DataFormatError(f"unknown factor {factor!r} in {text!r}")
        result = result + MultiPoly(arity, {tuple(exps): coeff})
    return result


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _msub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _madd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """S-polynomial over the rationals."""
    if f.is_zero() or g.is_zero():
        return MultiPoly.zero(f.arity)
    (lf, cf), (lg, cg) = f.leading(), g.leading()
    big = tuple(max(x, y) for x, y in zip(lf, lg))
    mf = MultiPoly(f.arity, {_msub(big, lf): Fraction(1) / cf})
    mg = MultiPoly(g.arity, {_msub(big, lg): Fraction(1) / cg})
    return mf * f - mg * g


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly]) -> MultiPoly:
    """Full remainder of p under multivariate division by the basis."""
    basis = [b for b in basis if not b.is_zero()]
    leads = [b.leading() for b in basis]
    work = {e: c for e, c in p.terms()}
    rem: dict[Monomial, Fraction] = {}
    while work:
        m = max(work, key=grlex_key)
        c = work.pop(m)
        hit = next(
            ((lm, lc, b) for (lm, lc), b in zip(leads, basis) if _divides(lm, m)),
            None,
        )
        if hit is None:
            rem[m] = c
            continue
        lm, lc, b = hit
        shift = _msub(m, lm)
        factor = c / lc
        for e, bc in b.terms():
            if e == lm:
                continue
            e2 = _madd(e, shift)
            v = work.get(e2, Fraction(0)) - factor * bc
            if v:
                work[e2] = v
            else:
                work.pop(e2, None)
    return MultiPoly(p.arity, rem)


def buchberger(gens: Sequence[MultiPoly]) -> tuple[MultiPoly, ...]:
    """Reduced Groebner basis in graded-lex order by plain Buchberger: every
    S-pair is reduced, smallest lcm first, with no criteria and no degree cap,
    in Fraction arithmetic.  Returned monic, by descending leading monomial."""
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]

    def lcm_key(pair):
        lf, lg = (basis[k].leading()[0] for k in pair)
        return grlex_key(tuple(max(x, y) for x, y in zip(lf, lg)))

    while pairs:
        i, j = min(pairs, key=lcm_key)
        pairs.remove((i, j))
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    minimal: list[MultiPoly] = []
    for g in sorted(basis, key=lambda g: grlex_key(g.leading()[0])):
        if not any(_divides(h.leading()[0], g.leading()[0]) for h in minimal):
            minimal.append(g)
    reduced = []
    for g in minimal:
        r = normal_form(g, [h for h in minimal if h is not g])
        reduced.append(r * (1 / r.leading()[1]))
    return tuple(sorted(reduced, key=lambda g: grlex_key(g.leading()[0]), reverse=True))


def fraction_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, len(m)):
            factor = m[r][k] / m[k][k]
            m[r] = [a - factor * b for a, b in zip(m[r], m[k])]
    return det


def minor_rank(rows: Sequence[Sequence], p: int | None = None) -> int:
    """Exhaustive minor-search rank (exponential; small matrices only).

    The rank is the largest k such that some k-by-k minor has nonzero
    determinant; with a prime p the rows must be integers, and the
    determinant must be nonzero modulo p.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                det = fraction_det([[rows[i][j] for j in ci] for i in ri])
                if (det if p is None else det % p) != 0:
                    return k
    return 0


def rank_mod_reference(int_rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of integer rows, one residue list per row.

    The row-by-row elimination that ``RatMatrix.rank_mod`` ran before it
    packed each row into one int; kept as the reference it is tested against.
    """
    nrows = len(int_rows)
    ncols = len(int_rows[0]) if int_rows else 0
    m = [[x % p for x in row] for row in int_rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, nrows):
            if m[r][col]:
                factor = m[r][col] * inv % p
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def solve_unique(matrix: RatMatrix, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve A x = b for the unique solution; raises if none or many exist."""
    if len(rhs) != matrix.rows:
        raise ValueError("rhs length must equal the number of rows")
    n = matrix.cols
    aug = [
        [matrix.entry(i, j) for j in range(n)] + [Fraction(rhs[i])]
        for i in range(matrix.rows)
    ]
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [x / inv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, len(aug)):
        if aug[r][n]:
            raise ValueError("inconsistent linear system")
    if len(pivots) < n:
        raise ValueError("underdetermined linear system")
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            out.append(n // d)
    return sorted(set(out))


def _integer_multiple(coeffs: Sequence[Fraction]) -> list[int]:
    mult = lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(Fraction(c) * mult) for c in coeffs]


def rational_roots_by_divisors(coeffs: Sequence[Fraction]) -> list[Fraction] | None:
    """Rational roots with multiplicity, or None if the polynomial does not
    split over Q, by trying every p/q with p | a0 and q | an (exponential in
    the size of the end coefficients; small heights only).

    ``coeffs[k]`` is the coefficient of x**k; the leading coefficient is nonzero.
    """
    ints = _integer_multiple(coeffs)
    roots: list[Fraction] = []
    while len(ints) > 1:
        if ints[0] == 0:  # a root at zero; divide by x
            roots.append(Fraction(0))
            ints = ints[1:]
            continue
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
            return None  # irrational or complex roots remain
        roots.append(found)
        # synthetic division by (x - found), exact over Q
        quot: list[Fraction] = []
        acc = Fraction(0)
        for c in reversed(ints):
            acc = acc * found + c
            quot.append(acc)
        ints = _integer_multiple(quot[:-1][::-1])  # drop the remainder (zero)
    return roots


def translate_by_compose(p: MultiPoly, point: Sequence) -> MultiPoly:
    """q with q(v) = p(v + point), by substituting v_i + point_i for every v_i."""
    shifted = [
        MultiPoly.variable(p.arity, i) + Fraction(point[i]) for i in range(p.arity)
    ]
    return p.compose(shifted)


def evaluate(f: MultiPoly, q: Sequence) -> Fraction:
    """f(q) as the sum over the terms of c * q_0**e_0 * ... in Fraction arithmetic."""
    total = Fraction(0)
    for e, c in f.terms():
        for x, k in zip(q, e):
            c *= Fraction(x) ** k
        total += c
    return total


def value_gradient_hessian_by_derivatives(f: MultiPoly, q: Sequence):
    """(value, gradient, Hessian) at q from derivative polynomials built in full."""
    grads = f.gradient()
    return (
        evaluate(f, q),
        tuple(evaluate(g, q) for g in grads),
        tuple(tuple(evaluate(g.derive(j), q) for j in range(f.arity)) for g in grads),
    )


def translate_by_taylor_shift(f: MultiPoly, point: Sequence) -> dict[Monomial, Fraction]:
    """The terms of q(v) = f(v + point) by the full Taylor shift in Fraction
    arithmetic, one variable at a time with binomial weights."""
    terms = dict(f.terms())
    for var, a in enumerate(point):
        a = Fraction(a)
        shifted: dict[Monomial, Fraction] = {}
        for e, c in terms.items():
            k = e[var]
            for j in range(k + 1):
                e2 = e[:var] + (j,) + e[var + 1 :]
                shifted[e2] = shifted.get(e2, 0) + comb(k, j) * a ** (k - j) * c
        terms = shifted
    return terms


def value_gradient_hessian_by_translate(f: MultiPoly, q: Sequence):
    """(value, gradient, Hessian) at q read from the full Taylor shift to q:
    the constant, linear and quadratic coefficients, the diagonal doubled."""
    coeffs = translate_by_taylor_shift(f, q)
    n = f.arity

    def coeff(*variables: int) -> Fraction:
        exps = [0] * n
        for v in variables:
            exps[v] += 1
        return coeffs.get(tuple(exps), Fraction(0))

    return (
        coeff(),
        tuple(coeff(i) for i in range(n)),
        tuple(tuple(coeff(i, j) * (1 + (i == j)) for j in range(n)) for i in range(n)),
    )


def certify_t1_by_gradients(spec: S0Spec, p: Sequence) -> SingularityReport:
    """T1 certification at the R-point p = (z, u) with every partial read from
    a derivative polynomial: both chart gradients are evaluated at (0, p), C
    is each chart composed with v0 := 0, and C's Hessian determinant is taken
    by Fraction elimination.  Same refutations, in the same order, as
    ``singularities.certify_t1``; the curve Hessian determinant is reported
    only when nonzero."""
    z, u = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    on_r = [MultiPoly.zero(2), z, u]
    curve, curve_b = spec.g_a.compose(on_r), spec.g_b.compose(on_r)
    lam = curve.scalar_ratio(curve_b)
    if lam is None or lam == 0:
        raise GluingError("chart restrictions to R cut different curves")
    point = tuple(Fraction(x) for x in p)
    value, curve_grad, second = value_gradient_hessian_by_derivatives(curve, point)
    if value != 0:
        raise PointNotOnSurface(f"point {format_point(point)} not on C (value {value})")
    q3 = (Fraction(0),) + point
    witness = {
        "gradient_a": tuple(evaluate(g, q3) for g in spec.g_a.gradient()),
        "gradient_b": tuple(evaluate(g, q3) for g in spec.g_b.gradient()),
        "gluing_scalar": lam,
    }
    if not any(witness["gradient_a"]):
        return SingularityReport(point, REFUTED, reason="S_A singular at p", witness=witness)
    if not any(witness["gradient_b"]):
        return SingularityReport(point, REFUTED, reason="S_B singular at p", witness=witness)
    witness["curve_hessian_det"] = None
    witness["curve_gradient"] = curve_grad
    if any(curve_grad):
        return SingularityReport(point, REFUTED, reason="C smooth at p", witness=witness)
    det = fraction_det(second)
    if det == 0:
        return SingularityReport(
            point, REFUTED, reason="C has degenerate double point", witness=witness
        )
    witness["curve_hessian_det"] = det
    return SingularityReport(point, T1, witness=witness)


def limit_hessian_by_derivatives(p: MultiPoly) -> RatMatrix:
    """The limit Hessian B0 of a 4-variable normal form x + y + (degree >= 2),
    with every partial at the origin read from a derivative polynomial."""
    if p.arity != 4:
        raise ValueError("normal form lives in 4 variables (x, y, z, u)")
    origin = (0, 0, 0, 0)
    if evaluate(p, origin) != 0:
        raise ValueError("normal form requires p(0) = 0")
    grads = p.gradient()
    px, py, pz, pu = (evaluate(g, origin) for g in grads)
    if px != 1 or py != 1 or pz != 0 or pu != 0:
        raise ValueError("normal form requires linear part x + y at the origin")
    second = {
        (i, j): evaluate(grads[i].derive(j), origin) for i in range(4) for j in range(4)
    }
    half = Fraction(1, 2)
    return RatMatrix.from_rows(
        [
            [
                px * py,
                half * (second[(1, 2)] - second[(0, 2)]),
                half * (second[(1, 3)] - second[(0, 3)]),
            ],
            [0, half * px * px * second[(2, 2)], half * px * px * second[(2, 3)]],
            [0, half * px * px * second[(2, 3)], half * px * px * second[(3, 3)]],
        ]
    )


def condition_rows_by_fractions(
    basis: Sequence[Monomial], points: Sequence[Sequence]
) -> list[list[Fraction]]:
    """Each monomial of the basis evaluated at each point as given, entry by
    entry in Fraction arithmetic."""
    rows = []
    for p in points:
        row = []
        for mono in basis:
            v = Fraction(1)
            for x, k in zip(p, mono):
                if k:
                    v *= Fraction(x) ** k
            row.append(v)
        rows.append(row)
    return rows


def restricted_dim_oracle(
    h: int, d: int, multiplier: MultiPoly | None = None, seed: int = 0
) -> int:
    """Independent matrix-rank route to ``severi.linear_system_dim`` for ci4.

    Counts degree-d monomials in 4 variables, subtracts the rank of the
    multiplication map q -> q * g on the complementary degree (the subtracted
    binomial counts forms of degree d - h - 2, so g has degree h + 2), and
    subtracts one to projectivize.  The rank is computed by exact elimination,
    never assumed; a zero multiplier is rejected.
    """
    if h < 2 or d < h - 1:
        raise ValueError("oracle needs h >= 2 and d >= h - 1")
    domain_degree = d - h - 2
    domain = list(monomials_of_degree(4, domain_degree))
    if not domain:
        if multiplier is not None and multiplier.is_zero():
            raise ValueError("degenerate multiplier: zero polynomial")
        return comb(d + 3, 3) - 1
    if multiplier is None:
        rng = random.Random(seed)
        while True:
            terms = {
                e: Fraction(rng.randint(-9, 9))
                for e in monomials_of_degree(4, h + 2)
            }
            multiplier = MultiPoly(4, terms)
            if not multiplier.is_zero():
                break
    if multiplier.is_zero():
        raise ValueError("degenerate multiplier: zero polynomial")
    if not multiplier.is_homogeneous() or multiplier.degree() != h + 2:
        raise ValueError("multiplier must be homogeneous of degree h + 2")
    target = {e: i for i, e in enumerate(monomials_of_degree(4, d))}
    rows = []
    for e in domain:
        image = MultiPoly(4, {e: Fraction(1)}) * multiplier
        row = [Fraction(0)] * len(target)
        for mono, c in image.terms():
            row[target[mono]] = c
        rows.append(row)
    rank = RatMatrix.from_rows(rows).rank()
    return comb(d + 3, 3) - rank - 1


def arrangement_nodes_by_determinants(lines: Sequence[MultiPoly]) -> tuple:
    """Nodes of a line arrangement, or ValueError if it is not general.

    Rejects the first proportional pair (by ``scalar_ratio``), then the
    first concurrent triple (a zero 3x3 coefficient determinant); the nodes
    are the canonical cross products of the pairs in order.
    """
    for i, j in combinations(range(len(lines)), 2):
        if lines[i].scalar_ratio(lines[j]) is not None:
            raise ValueError(f"lines {i} and {j} are proportional")
    coeffs = [
        [line.coefficient(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        for line in lines
    ]
    for i, j, k in combinations(range(len(lines)), 3):
        if fraction_det([coeffs[i], coeffs[j], coeffs[k]]) == 0:
            raise ValueError(f"lines {i}, {j}, {k} are concurrent")
    return tuple(
        canonical_point(
            (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
        )
        for a, b in combinations(coeffs, 2)
    )


def _specialise(f: MultiPoly, keep: int, value: int) -> list[Fraction]:
    """Coefficients, lowest degree first, of a 2-variable f in slot ``keep``
    with the other slot set to ``value``."""
    coeffs = [Fraction(0)] * (f.degree() + 1)
    for e, c in f.terms():
        coeffs[e[keep]] += c * Fraction(value) ** e[1 - keep]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _univariate_gcd_degree(a: list[Fraction], b: list[Fraction]) -> int:
    """Degree of gcd(a, b) by Euclid over Fraction (coefficient lists)."""
    while b:
        r = list(a)
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, y in enumerate(b):
                r[shift + i] -= q * y
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return len(a) - 1


def coprime_by_specialisation(f: MultiPoly, g: MultiPoly, tries: int = 20) -> bool:
    """Whether nonzero f, g in two variables are shown to share no factor.

    For each slot k, look for an integer t for the other slot at which f
    keeps its degree in slot k and the specialised f, g have a constant gcd.
    A common factor of positive degree in slot k would divide both
    specialisations with that degree, since its leading coefficient divides
    f's; so a success in both slots rules out every common factor.  False
    means no such t was found within ``tries`` values, not a proof of a
    common factor.
    """
    for keep in (0, 1):
        degree = max(e[keep] for e, _ in f.terms())
        for t in range(tries):
            a = _specialise(f, keep, t)
            if len(a) - 1 == degree and _univariate_gcd_degree(a, _specialise(g, keep, t)) == 0:
                break
        else:
            return False
    return True


def sa_smooth_by_structure(phi2: MultiPoly, lines: Sequence[MultiPoly], nodes) -> bool:
    """Whether S_A, the strict transform of w*phi1 + phi2 = 0 under the
    blow-up of [0:0:0:1] (phi1 the product of ``lines``), is smooth, read
    from phi2 alone: phi2 is nonzero at every node, and on each line phi2
    restricts to a squarefree binary form of degree d.

    Each line is parametrised by two integer points that span it, so its
    point at x = 0 is covered too.  A binary form g(s, t) of degree d is
    squarefree iff g(s, 1) is squarefree of degree at least d - 1 (the
    multiplicity of the root at infinity is d minus that degree).
    """
    if any(phi2.eval_at(p) == 0 for p in nodes):
        return False
    d = phi2.degree()
    s, t = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    for line in lines:
        p, q = _spanning_points(line)
        g = phi2.compose([p[i] * s + q[i] * t for i in range(3)])
        f = [g.coefficient((k, d - k)) for k in range(d + 1)]
        while f and f[-1] == 0:
            f.pop()
        if len(f) < d:  # g = 0, or t**2 divides g
            return False
        if _univariate_gcd_degree(f, [k * c for k, c in enumerate(f)][1:]) > 0:
            return False
    return True


def _int_cross(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _line_ints(line: MultiPoly) -> list[int]:
    """Integer coefficients of a linear form in (x, y, z)."""
    return _integer_multiple([line.coefficient(e) for e in _UNITS])


def _spanning_points(line: MultiPoly) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two integer points that span a line of P2."""
    a = _line_ints(line)
    on_line = [c for c in (_int_cross(a, u) for u in _UNITS) if any(c)]
    return next((p, q) for p, q in combinations(on_line, 2) if any(_int_cross(p, q)))


def sa_smooth_by_general_route(witness) -> bool:
    """Whether S_A is smooth, by the general exclusion on four charts of the
    blow-up of P3 at p = [0:0:0:1]: the blow-up chart x = 1 and the affine
    charts x = 1, y = 1, z = 1 of ``w*phi1 + phi2``.

    The affine charts cover P3 minus p, where S_A is the surface itself.
    The blow-up chart covers the exceptional plane except x = 0; a point of
    S_A there lies on exactly one line of the arrangement (every node has
    x != 0), where S_A is smooth.  Each chart is a Groebner run with no
    budget, so keep this to d <= 4.
    """
    charts = [witness.blowup_chart_a]
    charts += [witness.projective_equation.dehomogenize(i) for i in range(3)]
    return all(exclude_extra_singularities(chart, []).status == CERTIFIED for chart in charts)


#: Kinds of singular point of S_A that ``plant_sa_singularity`` plants: on
#: the blow-up chart x = 1, at x = 0, and in the plane w = 0.
PLANT_KINDS = ("chart", "x=0", "w=0")
#: Draws a planter makes before it gives up.
PLANT_BUDGET = 16


def _random_form(rng: random.Random, degree: int) -> MultiPoly:
    return MultiPoly(3, {e: Fraction(rng.randint(-9, 9)) for e in monomials_of_degree(3, degree)})


def _linear_form(coeffs: Sequence[int]) -> MultiPoly:
    return MultiPoly(3, dict(zip(_UNITS, coeffs)))


def _random_vector(rng: random.Random) -> list[int]:
    return [rng.randint(-9, 9) for _ in range(3)]


def plant_sa_singularity(
    d: int, seed: int, kind: str
) -> tuple[SurfaceWitness, tuple[Fraction, ...]]:
    """The lines of ``build_witness(d, seed)`` with a new phi2 that makes S_A
    singular at a point of the given kind, and that point [x:y:z:w] of
    ``w*phi1 + phi2``.

    A line L of the arrangement and a point q of L that is no node are
    drawn: the point of L with x = 0 for kind "x=0", else a point with
    x != 0.  For "chart" and "x=0", phi2 = m**2*a + L*b with m a linear form
    through q other than L: phi2 on L has a double root at q, and
    ``w*phi1 + phi2`` has value 0 and gradient w*P(q)*grad L + b(q)*grad L
    at [q : w], P the product of the other lines, which vanishes at
    w = -b(q)/P(q); a draw with b(q) = 0 is redrawn, so that w != 0.  For
    "w=0", phi2 = m1**2*a + m1*m2*b + m2**2*c with independent forms m1, m2
    through q, so phi2 vanishes to order 2 at q and the point is [q : 0].
    a, b and c are random forms.  A draw in which phi2 vanishes at a node
    is redrawn too; after ``PLANT_BUDGET`` draws, ValueError.
    """
    if kind not in PLANT_KINDS:
        raise ValueError(f"kind must be one of {PLANT_KINDS}, got {kind!r}")
    arrangement = build_witness(d, seed).arrangement
    lines, nodes = arrangement.lines, arrangement.nodes
    rng = random.Random(f"{kind} {d} {seed}")
    for _ in range(PLANT_BUDGET):
        i = rng.randrange(len(lines))
        a = _line_ints(lines[i])
        if kind == "x=0":
            q = _int_cross(a, (1, 0, 0))
        else:
            p, r = _spanning_points(lines[i])
            s, t = rng.randint(-9, 9), rng.randint(-9, 9)
            q = tuple(s * x + t * y for x, y in zip(p, r))
        others = prod(line.eval_at(q) for j, line in enumerate(lines) if j != i)
        if (q[0] == 0) != (kind == "x=0") or others == 0:
            continue  # the wrong kind of point, or a node
        m1, m2 = (_int_cross(q, _random_vector(rng)) for _ in range(2))
        if kind == "w=0":
            if not any(_int_cross(m1, m2)):
                continue
            f1, f2 = _linear_form(m1), _linear_form(m2)
            phi2 = sum(
                (f * g * _random_form(rng, d - 2) for f, g in ((f1, f1), (f1, f2), (f2, f2))),
                MultiPoly.zero(3),
            )
            w = Fraction(0)
        else:
            if not any(_int_cross(m1, a)):
                continue
            b = _random_form(rng, d - 1)
            phi2 = _linear_form(m1) ** 2 * _random_form(rng, d - 2) + lines[i] * b
            w = -b.eval_at(q) / others
            if w == 0:
                continue
        if phi2.is_zero() or any(phi2.eval_at(n) == 0 for n in nodes):
            continue
        point = tuple(Fraction(x) for x in q) + (w,)
        return build_witness(d, seed, lines=lines, phi2=phi2), point
    raise ValueError(
        f"no {kind} singularity planted for d={d}, seed={seed} in {PLANT_BUDGET} draws"
    )


#: Stages at which ``plant_hypothesis_failure`` makes the chain fail.
PLANTED_STAGES = ("structure", "nodes", "t1")


def plant_hypothesis_failure(stage: str, d: int, seed: int) -> SurfaceWitness:
    """``build_witness(d, seed)`` with one hypothesis of the certificate
    chain broken in memory, so that the chain refutes it at ``stage``:

    - "structure": a line replaced by a random line through the node of two
      others (d >= 4), a concurrent triple whose claimed nodes, one per pair
      of lines, are not pairwise distinct; only the arrangement is replaced,
      since the chain stops at this defect before it reads phi1;
    - "nodes": a random node moved by 1 in y, off the curve C;
    - "t1": psi minus psi(n, 0)*(l/l(n))**(d-2) for a random node n and a
      random linear form l with l(n) != 0, so psi(n, 0) = 0 and S_B is
      singular at n.

    Random draws that do not break the hypothesis are redrawn, at most
    ``PLANT_BUDGET`` times; then ValueError.
    """
    if stage not in PLANTED_STAGES:
        raise ValueError(f"stage must be one of {PLANTED_STAGES}, got {stage!r}")
    w = build_witness(d, seed)
    lines, nodes = list(w.arrangement.lines), list(w.arrangement.nodes)
    rng = random.Random(f"{stage} {d} {seed}")
    if stage == "nodes":
        k = rng.randrange(len(nodes))
        x, y, z = nodes[k]
        nodes[k] = (x, y + 1, z)
        return dataclasses.replace(w, arrangement=LineArrangement(tuple(lines), tuple(nodes)))
    for _ in range(PLANT_BUDGET):
        if stage == "t1":
            node = rng.choice(nodes)
            ell = _linear_form(_random_vector(rng))
            if ell.eval_at(node) == 0:
                continue
            scale = w.psi.eval_at(node + (0,)) / ell.eval_at(node) ** (d - 2)
            psi = w.psi - (ell ** (d - 2) * scale).extend(1)
            sb = w.phi1.extend(1) + MultiPoly.variable(4, 3) * psi
            return dataclasses.replace(w, psi=psi, sb_equation=sb)
        i, j, k = rng.sample(range(len(lines)), 3)
        coeffs = [_line_ints(line) for line in lines]
        node = _int_cross(coeffs[i], coeffs[j])
        coeffs[k] = list(_int_cross(node, _random_vector(rng)))
        if not all(any(_int_cross(a, b)) for a, b in combinations(coeffs, 2)):
            continue  # a zero form, or two proportional lines
        arrangement = LineArrangement(
            tuple(_linear_form(a) for a in coeffs),
            tuple(canonical_point(_int_cross(a, b)) for a, b in combinations(coeffs, 2)),
        )
        return dataclasses.replace(w, arrangement=arrangement)
    raise ValueError(
        f"no {stage} failure planted for d={d}, seed={seed} in {PLANT_BUDGET} draws"
    )
