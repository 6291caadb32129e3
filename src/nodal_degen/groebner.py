"""Degree-capped Buchberger algorithm in graded lexicographic order.

The working representation is primitive integer polynomials (content one,
positive leading coefficient), with pseudo-division and periodic joint
content stripping to keep coefficients small; the reduced basis is returned
monic over the rationals.  Pair bookkeeping uses the Gebauer-Moeller
elimination criteria with the normal (minimal lcm) selection strategy, and
Gebauer-Moeller basis pruning: an element whose leading monomial is divisible
by that of a later element gets no new pairs (it stays a reducer).
There is no prime-field variant: every basis is computed exactly over Q.

The loop stops early once the standard monomials of the leading monomials
found so far number at most the verified common zeros passed in ``zeros``
(Macaulay's theorem; see ``groebner_basis``).  With no zeros this is the
unit-ideal exit.

A run is *inconclusive* when some surviving critical pair has an lcm degree
above the cap: the returned polynomials then still generate a subideal
(the residual view) but are not certified to be a Groebner basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import ArityError
from .polynomials import Monomial, MultiPoly, grlex_key

try:  # exact big-integer backend; plain int is a correct (slower) fallback
    from gmpy2 import gcd as _zgcd
    from gmpy2 import mpz as _zint
except ImportError:  # pragma: no cover
    _zint = int
    _zgcd = gcd

_IntPoly = dict  # Monomial -> integer


def _zcontent(values) -> int:
    g = _zint(0)
    for v in values:
        g = _zgcd(g, v)
        if g == 1:
            break
    return g


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mlcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _madd(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _msub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _lead(f: _IntPoly) -> Monomial:
    return max(f, key=grlex_key)


def _from_multipoly(p: MultiPoly) -> _IntPoly:
    if p.is_zero():
        return {}
    mult = 1
    for _, c in p.terms():
        mult = mult * c.denominator // gcd(mult, c.denominator)
    f = {e: _zint(int(c * mult)) for e, c in p.terms()}
    return _normalize(f)


def _to_multipoly(f: _IntPoly, arity: int) -> MultiPoly:
    if not f:
        return MultiPoly.zero(arity)
    lc = int(f[_lead(f)])
    return MultiPoly(arity, {e: Fraction(int(c), lc) for e, c in f.items()})


def _normalize(f: _IntPoly) -> _IntPoly:
    if not f:
        return f
    g = _zcontent(f.values())
    if f[_lead(f)] < 0:
        g = -g
    if g != 1:
        f = {e: c // g for e, c in f.items()}
    return f


def _spoly(f: _IntPoly, g: _IntPoly) -> _IntPoly:
    lf, lg = _lead(f), _lead(g)
    cf, cg = f[lf], g[lg]
    k = _zgcd(cf, cg)
    mf, mg = cg // k, cf // k
    big = _mlcm(lf, lg)
    sf, sg = _msub(big, lf), _msub(big, lg)
    res: _IntPoly = {}
    for e, c in f.items():
        res[_madd(e, sf)] = mf * c
    for e, c in g.items():
        e2 = _madd(e, sg)
        v = res.get(e2, 0) - mg * c
        if v:
            res[e2] = v
        else:
            res.pop(e2, None)
    return _normalize(res)


def _reduce(f: _IntPoly, basis: Sequence[tuple[Monomial, int, _IntPoly]]) -> _IntPoly:
    """Full pseudo-remainder of f modulo the basis (primitive output)."""
    work = dict(f)
    rem: _IntPoly = {}
    steps = 0
    while work:
        m = max(work, key=grlex_key)
        c = work.pop(m)
        hit = None
        for lm, lc, g in basis:
            if _divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            rem[m] = c
            continue
        lm, lc, g = hit
        k = _zgcd(c, lc)
        mult = lc // k
        quot = c // k
        if mult != 1:
            for e in work:
                work[e] *= mult
            for e in rem:
                rem[e] *= mult
        shift = _msub(m, lm)
        for e, gc in g.items():
            if e == lm:
                continue
            e2 = _madd(e, shift)
            v = work.get(e2, 0) - quot * gc
            if v:
                work[e2] = v
            else:
                work.pop(e2, None)
        steps += 1
        if steps % 8 == 0 and (work or rem):
            joint = _zcontent(list(work.values()) + list(rem.values()))
            if joint > 1:
                for e in work:
                    work[e] //= joint
                for e in rem:
                    rem[e] //= joint
    return _normalize(rem)


@dataclass(frozen=True)
class GroebnerResult:
    """Outcome of a degree-capped Buchberger run."""

    status: str  # "ok" or "inconclusive"
    basis: tuple[MultiPoly, ...]
    degree_cap: int

    def is_unit_ideal(self) -> bool:
        return self.status == "ok" and any(
            b.degree() == 0 and not b.is_zero() for b in self.basis
        )


def default_degree_cap(gens: Sequence[MultiPoly]) -> int:
    """Default cap: twice the maximal generator degree plus four."""
    degs = [int(g.degree()) for g in gens if not g.is_zero()]
    return 2 * max(degs, default=0) + 4


def _gm_update(G, lms, live, pairs, f):
    """Gebauer-Moeller pair update when f joins the basis.

    ``live`` lists the elements not made redundant by a later leading
    monomial; only they are paired with f, and those whose leading monomial
    lm(f) divides leave it once paired.
    """
    lmf = _lead(f)
    kept = set()
    for i, j in pairs:
        lij = _mlcm(lms[i], lms[j])
        if (
            not _divides(lmf, lij)
            or _mlcm(lms[i], lmf) == lij
            or _mlcm(lms[j], lmf) == lij
        ):
            kept.add((i, j))
    by_lcm: dict[Monomial, list[int]] = {}
    for i in live:
        by_lcm.setdefault(_mlcm(lms[i], lmf), []).append(i)
    minimal: list[Monomial] = []
    for L in sorted(by_lcm, key=grlex_key):
        if all(not _divides(M, L) for M in minimal):
            minimal.append(L)
    new_index = len(G)
    for L in minimal:
        # Buchberger's coprimality criterion kills the whole lcm class.
        if not any(_mlcm(lms[i], lmf) == _madd(lms[i], lmf) for i in by_lcm[L]):
            kept.add((min(by_lcm[L]), new_index))
    live[:] = [i for i in live if not _divides(lmf, lms[i])]
    live.append(new_index)
    G.append(f)
    lms.append(lmf)
    return kept


def _at_most_standard(lms: Sequence[Monomial], bound: int) -> bool:
    """True when at most ``bound`` monomials lie outside the ideal <lms>.

    Standard monomials form an order ideal, so a search that raises one
    exponent at a time (variables in nondecreasing order, each monomial
    reached once) meets them all; it stops as soon as the count passes the
    bound, which also covers an infinite complement.
    """
    count = 0
    stack = [((0,) * len(lms[0]), 0)]
    while stack:
        m, first = stack.pop()
        if any(_divides(lm, m) for lm in lms):
            continue
        count += 1
        if count > bound:
            return False
        for j in range(first, len(m)):
            stack.append((m[:j] + (m[j] + 1,) + m[j + 1 :], j))
    return True


def _run_buchberger(int_gens: list[_IntPoly], degree_cap: int, n_zeros: int):
    """Core loop; returns (basis_dicts, status).

    ``n_zeros`` distinct common zeros of the generators are known; the loop
    stops once the leading monomials leave at most that many standard ones.
    """

    def basis_view(G):
        rows = [(lm, g[lm], g) for lm, g in ((_lead(g), g) for g in G)]
        rows.sort(key=lambda r: grlex_key(r[0]))
        return rows

    # Light mutual reduction of the inputs before the main loop.
    gens = []
    for f in sorted(int_gens, key=lambda f: grlex_key(_lead(f))):
        if gens:
            f = _reduce(f, basis_view(gens))
        if f:
            gens.append(f)

    G: list[_IntPoly] = []
    lms: list[Monomial] = []
    live: list[int] = []
    pairs: set[tuple[int, int]] = set()
    queue = iter(gens)
    while True:
        f = next(queue, None)
        if f is None:
            eligible = [
                (grlex_key(_mlcm(lms[i], lms[j])), (i, j))
                for i, j in pairs
                if sum(_mlcm(lms[i], lms[j])) <= degree_cap
            ]
            if not eligible:
                break
            _, (i, j) = min(eligible)
            pairs.discard((i, j))
            s = _spoly(G[i], G[j])
            if not s:
                continue
            f = _reduce(s, basis_view(G))
            if not f:
                continue
        pairs = _gm_update(G, lms, live, pairs, f)
        if _at_most_standard([lms[i] for i in live], n_zeros):
            pairs = set()  # G is already a Groebner basis
            break

    status = "ok" if not pairs else "inconclusive"

    # Minimalize, then fully interreduce.
    minimal: list[_IntPoly] = []
    for f in sorted(G, key=lambda f: grlex_key(_lead(f))):
        if not any(_divides(_lead(g), _lead(f)) for g in minimal):
            minimal.append(f)
    reduced: list[_IntPoly] = []
    for idx, f in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = _reduce(f, basis_view(others)) if others else f
        if r:
            reduced.append(r)
    reduced.sort(key=lambda f: grlex_key(_lead(f)), reverse=True)
    return reduced, status


def groebner_basis(
    gens: Sequence[MultiPoly],
    degree_cap: int | None = None,
    zeros: Sequence[Sequence] = (),
) -> GroebnerResult:
    """Reduced Groebner basis in graded-lex order, or an inconclusive residual.

    All generators must share one arity and the cap must be at least the
    maximal generator degree.  Basis elements are returned monic.

    ``zeros`` may list points thought to be common zeros; the k distinct
    ones at which every generator is exactly 0 let the loop stop as soon as
    the leading monomials of the partial basis G leave N <= k standard
    monomials.  That is sound: G is in I, so <LM(G)> is in LT(I) and
    dim Q[x]/I <= N, while k distinct zeros give dim Q[x]/I >= k.  So N = k,
    LT(I) = <LM(G)> and G is already a Groebner basis (V(I) is those k
    points, each simple); the pairs left, even those above the cap, are
    dropped.  With k = 0 this is the unit-ideal exit.  The reduced basis is
    unique, so the result never depends on ``zeros`` except that a run the
    cap would leave inconclusive can finish.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerResult("ok", (), degree_cap or 4)
    arity = gens[0].arity
    for g in gens:
        if g.arity != arity:
            raise ArityError("generators disagree on arity")
    if degree_cap is None:
        degree_cap = default_degree_cap(gens)
    max_deg = max(int(g.degree()) for g in gens)
    if degree_cap < max_deg:
        raise ValueError(
            f"degree_cap {degree_cap} below maximal generator degree {max_deg}"
        )
    points = {tuple(Fraction(x) for x in p) for p in zeros}
    n_zeros = sum(all(g.eval_at(p) == 0 for g in gens) for p in points)
    basis, status = _run_buchberger(
        [_from_multipoly(g) for g in gens], degree_cap, n_zeros
    )
    out = tuple(_to_multipoly(f, arity) for f in basis)
    return GroebnerResult(status, out, degree_cap)
