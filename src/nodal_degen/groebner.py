"""Degree-capped Buchberger algorithm in graded lexicographic order.

The working representation is primitive integer polynomials (content one,
positive leading coefficient), with pseudo-division and periodic joint
content stripping to keep coefficients small; the reduced basis is returned
monic over the rationals.  Pair bookkeeping uses the Gebauer-Moeller
elimination criteria with the normal (minimal lcm) selection strategy, and
Gebauer-Moeller basis pruning: an element whose leading monomial is divisible
by that of a later element gets no new pairs (it stays a reducer).  Every
element, input or S-polynomial, is fully reduced by the current basis before
it joins, so no leading monomial divides a later one: the elements pruning
keeps are exactly the minimal basis, and their interreduction is the result.
There is no prime-field variant: every basis is computed exactly over Q.

Each monomial is one packed int (``_Packing``): the total degree in the top
field, then the exponents with v0 most significant, in fields whose width
comes from the degree cap.  Integer order is then graded lex order, a product
is ``+``, and divisibility and lcm are a few word operations on the whole
vector, so results are identical to the tuple kernel (exponent tuples ordered
by ``polynomials.grlex_key``) that this representation replaced.  Each pair's
lcm is computed once, when the pair is made.

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
from itertools import chain
from math import gcd, lcm
from operator import itemgetter
from typing import Sequence

from .errors import ArityError
from .polynomials import Monomial, MultiPoly, exact_rational

try:  # exact big-integer backend; plain int is a correct (slower) fallback
    from gmpy2 import gcd as _zgcd
    from gmpy2 import mpz as _zint
except ImportError:  # pragma: no cover
    _zint = int
    _zgcd = gcd

_IntPoly = dict  # packed monomial -> integer


class _Packing:
    """Exponent vectors of one arity packed into ints, for one degree cap.

    Every field is ``width = max(16, cap.bit_length() + 2)`` bits: a value
    below 2**(width - 1) under a guard bit that stays 0.  The top field holds
    the total degree, the fields below it the exponents, v0 most significant,
    so int order is graded lex order.  Within a run no degree exceeds twice
    the cap (a pair lcm), which is below 2**(width - 1).
    """

    __slots__ = ("arity", "width", "ones", "guard", "exps", "degree")

    def __init__(self, arity: int, degree_cap: int):
        w = max(16, degree_cap.bit_length() + 2)
        self.arity, self.width = arity, w
        self.ones = sum(1 << (k * w) for k in range(arity + 1))  # bit 0 of each field
        self.guard = self.ones << (w - 1)  # top bit of each field
        self.exps = (1 << (arity * w)) - 1  # the exponent fields
        self.degree = ((1 << w) - 1) << (arity * w)  # the degree field

    def pack(self, e: Monomial) -> int:
        m = sum(e)
        for x in e:
            m = (m << self.width) | x
        return m

    def unpack(self, m: int) -> Monomial:
        w, field = self.width, (1 << self.width) - 1
        return tuple((m >> (k * w)) & field for k in range(self.arity - 1, -1, -1))

    def divides(self, a: int, b: int) -> bool:
        """a | b: no field of b - a borrows its guard bit."""
        g = self.guard
        return ((b | g) - a) & g == g

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max of the exponents; the degree is their sum, read from
        the degree field of e * ones (field k of the product sums fields 0..k)."""
        g = self.guard
        ge = ((a | g) - b) & g  # guard bit set where a's field >= b's
        e = (b ^ ((a ^ b) & (ge - (ge >> (self.width - 1))))) & self.exps
        return e | (e * self.ones & self.degree)


def _zcontent(values) -> int:
    g = _zint(0)
    for v in values:
        g = _zgcd(g, v)
        if g == 1:
            break
    return g


def _from_multipoly(p: MultiPoly, pk: _Packing) -> _IntPoly:
    terms = p.terms()
    mult = lcm(*(c.denominator for _, c in terms))
    f = {pk.pack(e): _zint(c.numerator * (mult // c.denominator)) for e, c in terms}
    return _normalize(f)


def _to_multipoly(f: _IntPoly, pk: _Packing) -> MultiPoly:
    lc = int(f[max(f)])
    return MultiPoly._trusted(
        pk.arity, {pk.unpack(e): Fraction(int(c), lc) for e, c in f.items()}
    )


def _normalize(f: _IntPoly) -> _IntPoly:
    if not f:
        return f
    g = _zcontent(f.values())
    if f[max(f)] < 0:
        g = -g
    if g != 1:
        f = {e: c // g for e, c in f.items()}
    return f


def _spoly(f: _IntPoly, g: _IntPoly, big: int) -> _IntPoly:
    """S-polynomial of f and g, whose leading monomials have lcm ``big``."""
    lf, lg = max(f), max(g)
    cf, cg = f[lf], g[lg]
    k = _zgcd(cf, cg)
    mf, mg = cg // k, cf // k
    sf, sg = big - lf, big - lg
    res: _IntPoly = {e + sf: mf * c for e, c in f.items()}
    for e, c in g.items():
        e2 = e + sg
        v = res.get(e2, 0) - mg * c
        if v:
            res[e2] = v
        else:
            res.pop(e2, None)
    return _normalize(res)


def _reduce(f: _IntPoly, basis: Sequence[tuple[int, int, _IntPoly, int]]) -> _IntPoly:
    """Full pseudo-remainder of f modulo the basis (primitive output).

    Each row is (leading monomial, leading coefficient, polynomial, guard
    bits of the packing); the first row in order whose leading monomial
    divides the current term reduces it.
    """
    work = dict(f)
    rem: _IntPoly = {}
    steps = 0
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, lc, g, guard in basis:
            if ((m | guard) - lm) & guard == guard:
                break
        else:
            rem[m] = c
            continue
        k = _zgcd(c, lc)
        mult = lc // k
        quot = c // k
        if mult != 1:
            work = {e: v * mult for e, v in work.items()}
            rem = {e: v * mult for e, v in rem.items()}
        shift = m - lm
        for e, gc in g.items():
            if e == lm:
                continue
            e2 = e + shift
            v = work.get(e2, 0) - quot * gc
            if v:
                work[e2] = v
            else:
                work.pop(e2, None)
        steps += 1
        if steps % 8 == 0 and (work or rem):
            joint = _zcontent(chain(work.values(), rem.values()))
            if joint > 1:
                work = {e: v // joint for e, v in work.items()}
                rem = {e: v // joint for e, v in rem.items()}
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


def _gm_update(G, lms, live, pairs, f, pk: _Packing):
    """Gebauer-Moeller pair update when f joins the basis.

    ``pairs`` maps each critical pair (i, j) to the lcm of its leading
    monomials.  ``live`` lists the elements not made redundant by a later
    leading monomial; only they are paired with f, and those whose leading
    monomial lm(f) divides leave it once paired.
    """
    lmf = max(f)
    lcm, divides = pk.lcm, pk.divides
    kept = {
        (i, j): lij
        for (i, j), lij in pairs.items()
        if not divides(lmf, lij) or lcm(lms[i], lmf) == lij or lcm(lms[j], lmf) == lij
    }
    by_lcm: dict[int, list[int]] = {}
    for i in live:
        by_lcm.setdefault(lcm(lms[i], lmf), []).append(i)
    minimal: list[int] = []
    for L in sorted(by_lcm):
        if all(not divides(M, L) for M in minimal):
            minimal.append(L)
    new_index = len(G)
    for L in minimal:
        # Buchberger's coprimality criterion kills the whole lcm class.
        if not any(L == lms[i] + lmf for i in by_lcm[L]):
            kept[(min(by_lcm[L]), new_index)] = L
    live[:] = [i for i in live if not divides(lmf, lms[i])]
    live.append(new_index)
    G.append(f)
    lms.append(lmf)
    return kept


def _at_most_standard(lms: Sequence[Monomial], bound: int) -> bool:
    """True when at most ``bound`` monomials lie outside the ideal <lms>.

    Standard monomials form an order ideal, so a search that raises one
    exponent at a time (variables in nondecreasing order, each monomial
    reached once) meets them all; it stops as soon as the count passes the
    bound, which also covers an infinite complement.  The search runs on
    exponent tuples, so its degrees are not bounded by any packing.
    """
    count = 0
    stack = [((0,) * len(lms[0]), 0)]
    while stack:
        m, first = stack.pop()
        if any(all(x <= y for x, y in zip(lm, m)) for lm in lms):
            continue
        count += 1
        if count > bound:
            return False
        for j in range(first, len(m)):
            stack.append((m[:j] + (m[j] + 1,) + m[j + 1 :], j))
    return True


def _run_buchberger(int_gens: list[_IntPoly], pk: _Packing, degree_cap: int, n_zeros: int):
    """Core loop; returns (basis_dicts, status).

    Every element joins G by one path: the inputs, smallest leading monomial
    first, then the reduced S-polynomials, each fully reduced by the current
    G.  So no leading monomial divides a later one, and ``live`` (the
    elements whose leading monomial no later one divides) is exactly the
    minimal basis, which is interreduced into the result.  ``n_zeros``
    distinct common zeros of the generators are known; the loop stops once
    the leading monomials leave at most that many standard ones.
    """

    def basis_view(G):
        rows = [(lm, g[lm], g, pk.guard) for lm, g in ((max(g), g) for g in G)]
        rows.sort(key=itemgetter(0))
        return rows

    # Packed monomials of degree at most the cap are exactly those below this.
    above_cap = (degree_cap + 1) << (pk.arity * pk.width)
    G: list[_IntPoly] = []
    lms: list[int] = []
    live: list[int] = []
    pairs: dict[tuple[int, int], int] = {}
    queue = iter(sorted(int_gens, key=max))
    while True:
        f = next(queue, None)
        if f is None:
            eligible = [(lij, ij) for ij, lij in pairs.items() if lij < above_cap]
            if not eligible:
                break
            lij, (i, j) = min(eligible)
            del pairs[(i, j)]
            f = _spoly(G[i], G[j], lij)
            if not f:
                continue
        if G:
            f = _reduce(f, basis_view(G))
            if not f:
                continue
        pairs = _gm_update(G, lms, live, pairs, f, pk)
        if _at_most_standard([pk.unpack(lms[i]) for i in live], n_zeros):
            pairs = {}  # G is already a Groebner basis
            break

    status = "ok" if not pairs else "inconclusive"
    minimal = [G[i] for i in live]
    reduced = [
        _reduce(f, basis_view(minimal[:k] + minimal[k + 1 :])) if len(minimal) > 1 else f
        for k, f in enumerate(minimal)
    ]
    reduced.sort(key=max, reverse=True)
    return reduced, status


def groebner_basis(
    gens: Sequence[MultiPoly],
    degree_cap: int | None = None,
    zeros: Sequence[Sequence] = (),
) -> GroebnerResult:
    """Reduced Groebner basis in graded-lex order, or an inconclusive residual.

    All generators must share one arity and the cap must be nonnegative and
    at least the maximal generator degree; with no cap, ``default_degree_cap``
    applies.  The result reports the cap used, also when every generator is
    zero.  Basis elements are returned monic.

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
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree_cap {degree_cap} is negative")
    gens = [g for g in gens if not g.is_zero()]
    if degree_cap is None:
        degree_cap = default_degree_cap(gens)
    if not gens:
        return GroebnerResult("ok", (), degree_cap)
    arity = gens[0].arity
    for g in gens:
        if g.arity != arity:
            raise ArityError("generators disagree on arity")
    max_deg = max(int(g.degree()) for g in gens)
    if degree_cap < max_deg:
        raise ValueError(
            f"degree_cap {degree_cap} below maximal generator degree {max_deg}"
        )
    points = {tuple(exact_rational(x, "coordinate") for x in p) for p in zeros}
    n_zeros = sum(all(g.eval_at(p) == 0 for g in gens) for p in points)
    pk = _Packing(arity, degree_cap)
    basis, status = _run_buchberger(
        [_from_multipoly(g, pk) for g in gens], pk, degree_cap, n_zeros
    )
    return GroebnerResult(status, tuple(_to_multipoly(f, pk) for f in basis), degree_cap)
