"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero ``Fraction``
coefficients:

    x**2*y + 3/2   in 3 variables  ->  {(2, 1, 0): Fraction(1), (0, 0, 0): Fraction(3, 2)}

The zero polynomial is the empty mapping.  All arithmetic is exact; no
floating point is used anywhere.  The canonical term order is graded
lexicographic (compare total degree first, then the exponent tuple, with
earlier variables ranked higher), and serialized files list terms in
descending canonical order.

Invariant: every polynomial holds exponent tuples of ints, one per variable,
mapped to nonzero ``Fraction`` values.  ``MultiPoly(arity, terms)`` checks
and converts outside input into that form: it takes int exponents and int
or ``Fraction`` coefficients only, so a float, a boolean or a string raises
``TypeError`` instead of being read inexactly; so does a point or a value
that a method evaluates at (``exact_rational``).  What the methods below build
from such terms already has it, up to the zeros that cancellation leaves, so
they wrap their results with ``MultiPoly._trusted``, which drops those zeros
and checks nothing else.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Iterator, Mapping, Sequence

from .errors import ArityError, DataFormatError

Monomial = tuple[int, ...]

#: Degree of the zero polynomial.  A genuine -infinity sentinel (never -1),
#: so expressions like ``max(p.degree(), q.degree())`` behave.
MINUS_INFINITY = float("-inf")

_set = object.__setattr__


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-integer fraction string like ``"3/2"`` or ``"-7"``:
    an optional sign, decimal digits (any script's), and optionally a slash
    and more digits, with whitespace allowed only around the whole."""
    text = text.strip()
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not (digits.isdecimal() and (den.isdecimal() or not slash)):
        raise DataFormatError(f"not a rational literal: {text!r}")
    den = int(den) if slash else 1
    if not den:
        raise DataFormatError(f"zero denominator in {text!r}")
    return Fraction(int(num), den)


def json_int(value, name: str) -> int:
    """An integer field of a JSON document; a float, boolean or string raises
    TypeError instead of being truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def exact_rational(value, noun: str) -> Fraction:
    """An int or a ``Fraction`` as a Fraction; a float, a boolean or a string
    raises TypeError, naming it by ``noun``, instead of being read inexactly."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, Fraction):
        raise TypeError(f"{noun} {value!r} is not an int or a Fraction")
    return value


def format_rational(value: Fraction) -> str:
    """Render a Fraction as the interchange string ``"n"`` or ``"n/d"``."""
    return str(value)


def format_point(point: Sequence) -> str:
    """Render a rational point as ``"(n, n/d, ...)"``."""
    return "(" + ", ".join(format_rational(x) for x in point) + ")"


def grlex_key(exps: Monomial) -> tuple[int, Monomial]:
    """Sort key realizing the graded lexicographic order."""
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[Monomial, Fraction] | None = None):
        if arity < 0:
            raise ArityError("arity must be nonnegative")
        clean: dict[Monomial, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ArityError(f"exponent tuple {exps} does not match arity {arity}")
            for e in exps:
                if type(e) is not int:
                    raise TypeError(f"exponent {e!r} in {exps} is not an int")
                if e < 0:
                    raise ValueError(f"negative exponent in {exps}")
            coeff = exact_rational(coeff, "coefficient")
            if coeff:
                clean[exps] = coeff
        _set(self, "arity", arity)
        _set(self, "_terms", clean)

    @classmethod
    def _trusted(cls, arity: int, terms: Mapping[Monomial, Fraction]) -> "MultiPoly":
        """Wrap terms that already satisfy the module invariant, dropping zeros."""
        p = object.__new__(cls)
        _set(p, "arity", arity)
        _set(p, "_terms", {e: c for e, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------ basics

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ArityError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return cls(arity, {tuple(exps): Fraction(1)})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """All terms in descending graded-lex order (leading term first)."""
        return tuple(
            (e, self._terms[e])
            for e in sorted(self._terms, key=grlex_key, reverse=True)
        )

    def coefficient(self, exps: Monomial) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self.arity, Fraction(0))

    def degree(self):
        """Total degree, or MINUS_INFINITY for the zero polynomial."""
        if not self._terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self._terms)

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) in graded-lex order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms, key=grlex_key)
        return m, self._terms[m]

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def degree_part(self, k: int) -> "MultiPoly":
        """Sub-polynomial made of the terms of total degree exactly k."""
        return MultiPoly._trusted(
            self.arity, {e: c for e, c in self._terms.items() if sum(e) == k}
        )

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ArityError(f"arity mismatch: {self.arity} vs {other.arity}")

    # -------------------------------------------------------------- arithmetic

    def __add__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        self._check_arity(other)
        res = dict(self._terms)
        for e, c in other._terms.items():
            res[e] = res[e] + c if e in res else c
        return MultiPoly._trusted(self.arity, res)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.arity, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return MultiPoly.const(self.arity, other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = exact_rational(other, "coefficient")
            return MultiPoly._trusted(self.arity, {e: c * v for e, v in self._terms.items()})
        self._check_arity(other)
        res: dict[Monomial, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                res[e] = res[e] + c1 * c2 if e in res else c1 * c2
        return MultiPoly._trusted(self.arity, res)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.arity, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.arity == other.arity
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._terms.items())))

    # ---------------------------------------------------------------- calculus

    def derive(self, var: int) -> "MultiPoly":
        """Exact formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        res = {
            e[:var] + (e[var] - 1,) + e[var + 1 :]: c * e[var]
            for e, c in self._terms.items()
            if e[var]
        }
        return MultiPoly._trusted(self.arity, res)

    def gradient(self) -> tuple["MultiPoly", ...]:
        return tuple(self.derive(i) for i in range(self.arity))

    def eval_at(self, point: Sequence) -> Fraction:
        """Exact value at a rational point: the order-0 jet there."""
        jet, den = self._jet(point, 0)
        return Fraction(jet.get((0,) * self.arity, 0), den)

    def value_gradient_hessian(
        self, point: Sequence
    ) -> tuple[Fraction, tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
        """Exact value, gradient and Hessian at a rational point, read from
        the order-2 jet there: the constant term, the linear coefficients
        and the quadratic ones with the diagonal doubled."""
        jet, den = self._jet(point, 2)
        zero = Fraction(0)
        value, grad = zero, [zero] * self.arity
        hess = [[zero] * self.arity for _ in range(self.arity)]
        for e, c in jet.items():
            ones = [i for i, k in enumerate(e) if k]
            if not ones:
                value = Fraction(c, den)
            elif sum(e) == 1:
                grad[ones[0]] = Fraction(c, den)
            elif len(ones) == 1:
                hess[ones[0]][ones[0]] = Fraction(2 * c, den)
            else:
                i, j = ones
                hess[i][j] = hess[j][i] = Fraction(c, den)
        return value, tuple(grad), tuple(map(tuple, hess))

    def translate(self, point: Sequence) -> "MultiPoly":
        """Recentre: returns q with q(v) = p(v + point), the jet of order
        deg p at the point; at the zero point it equals ``self``."""
        jet, den = self._jet(point, max(self.degree(), 0))
        return MultiPoly._trusted(self.arity, {e: Fraction(c, den) for e, c in jet.items()})

    def _jet(self, point: Sequence, order: int) -> tuple[dict[Monomial, int], int]:
        """The terms of degree at most ``order`` of q(v) = p(v + point), as
        integer numerators over one returned denominator.

        A Taylor shift, one variable at a time: shifting x by a sends x**k to
        the sum of C(k, j) * a**(k - j) * x**j over j = 0..k.  A zero
        coordinate needs no shift.  A term whose degree in the variables
        already final (zero or shifted) is above ``order`` can no longer
        reach the result, so it is dropped; no polynomial is built.
        """
        if len(point) != self.arity:
            raise ArityError(f"point length {len(point)} does not match arity {self.arity}")
        point = [exact_rational(a, "coordinate") for a in point]
        final = [var for var, a in enumerate(point) if not a]
        terms = [(e, c) for e, c in self._terms.items() if sum([e[i] for i in final]) <= order]
        den = lcm(*(c.denominator for _, c in terms))
        jet = {e: c.numerator * (den // c.denominator) for e, c in terms}
        for var, a in enumerate(point):
            if not a:
                continue
            num, q = a.numerator, a.denominator
            top = max((e[var] for e in jet), default=0)
            den *= q**top  # a**(k - j) is num**(k - j) * q**(top - k + j) / q**top
            shifted: dict[Monomial, int] = {}
            for e, c in jet.items():
                k, room = e[var], order - sum([e[i] for i in final])
                for j in range(min(k, room) + 1):
                    e2 = e[:var] + (j,) + e[var + 1 :]
                    term = comb(k, j) * num ** (k - j) * q ** (top - k + j) * c
                    shifted[e2] = shifted.get(e2, 0) + term
            jet = shifted
            final.append(var)
        return jet, den

    def substitute(self, var: int, expr: "MultiPoly") -> "MultiPoly":
        """Substitute ``expr`` for variable ``var`` (other variables untouched)."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        self._check_arity(expr)
        slots = [MultiPoly.variable(self.arity, i) for i in range(self.arity)]
        slots[var] = expr
        return self.compose(slots)

    def set_var(self, var: int, value) -> "MultiPoly":
        """Substitute the constant ``value`` for variable ``var``: one pass
        adding c * value**e[var] into the monomial with that slot set to 0."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        a = exact_rational(value, "value")
        powers = [Fraction(1)]
        res: dict[Monomial, Fraction] = {}
        for e, c in self._terms.items():
            k = e[var]
            while len(powers) <= k:
                powers.append(powers[-1] * a)
            rest = e[:var] + (0,) + e[var + 1 :]
            res[rest] = res.get(rest, 0) + c * powers[k]
        return MultiPoly._trusted(self.arity, res)

    def compose(self, exprs: Sequence["MultiPoly"]) -> "MultiPoly":
        """Simultaneous substitution v_i := exprs[i].

        All substituted expressions must share one target arity; the result
        lives in that arity.
        """
        if len(exprs) != self.arity:
            raise ArityError(f"need {self.arity} expressions, got {len(exprs)}")
        if not exprs:
            return MultiPoly._trusted(0, {(): self.constant_term()})
        target = exprs[0].arity
        for q in exprs:
            if q.arity != target:
                raise ArityError("substituted expressions disagree on arity")
        pow_cache: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.const(target, 1)} for _ in exprs
        ]

        def power(i: int, k: int) -> MultiPoly:
            cache = pow_cache[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * exprs[i]
            return cache[k]

        res = MultiPoly.zero(target)
        for e, c in self._terms.items():
            term = MultiPoly.const(target, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            res = res + term
        return res

    def permute_vars(self, perm: Sequence[int]) -> "MultiPoly":
        """Reorder variables: new slot j holds the old variable perm[j]."""
        if sorted(perm) != list(range(self.arity)):
            raise ArityError(f"not a permutation of 0..{self.arity - 1}: {perm}")
        res = {
            tuple(e[perm[j]] for j in range(self.arity)): c
            for e, c in self._terms.items()
        }
        return MultiPoly._trusted(self.arity, res)

    def coefficient_in(self, var: int, k: int) -> "MultiPoly":
        """The coefficient of v_var**k, a polynomial in the other variables
        with the slot ``var`` dropped; ``coefficient_in(var, 0)`` is the
        restriction to v_var = 0."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        res = {e[:var] + e[var + 1 :]: c for e, c in self._terms.items() if e[var] == k}
        return MultiPoly._trusted(self.arity - 1, res)

    def extend(self, extra: int) -> "MultiPoly":
        """Append ``extra`` fresh variables that do not occur."""
        if extra < 0:
            raise ArityError(f"cannot append {extra} variables")
        pad = (0,) * extra
        return MultiPoly._trusted(
            self.arity + extra, {e + pad: c for e, c in self._terms.items()}
        )

    def dehomogenize(self, var: int) -> "MultiPoly":
        """Set the chart variable to 1 and drop its slot; input must be homogeneous."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        if not self.is_homogeneous():
            raise ValueError("dehomogenize requires a homogeneous polynomial")
        return MultiPoly._trusted(
            self.arity - 1, {e[:var] + e[var + 1 :]: c for e, c in self._terms.items()}
        )

    def scalar_ratio(self, other: "MultiPoly"):
        """Return lam with self == lam*other, or None if no such rational exists.

        Two zero polynomials give lam = 1.
        """
        self._check_arity(other)
        if self.is_zero() and other.is_zero():
            return Fraction(1)
        if self.is_zero() or other.is_zero():
            return None
        if set(self._terms) != set(other._terms):
            return None
        items = iter(self._terms.items())
        e0, c0 = next(items)
        lam = c0 / other._terms[e0]
        for e, c in items:
            if c != lam * other._terms[e]:
                return None
        return lam

    # ------------------------------------------------------------ input/output

    def render(self, var_names: Sequence[str] | None = None) -> str:
        """Human-readable form, terms in descending canonical order."""
        if self.is_zero():
            return "0"
        names = list(var_names) if var_names else [f"v{i}" for i in range(self.arity)]
        parts: list[str] = []
        for e, c in self.terms():
            factors = [
                names[i] if k == 1 else f"{names[i]}**{k}"
                for i, k in enumerate(e)
                if k
            ]
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0].startswith("+ ") else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"

    def to_json(self, var_names: Sequence[str] | None = None) -> dict:
        """Interchange form with coefficients as fraction strings."""
        names = list(var_names) if var_names else [f"v{i}" for i in range(self.arity)]
        if len(names) != self.arity:
            raise ArityError("var_names length does not match arity")
        return {
            "arity": self.arity,
            "vars": names,
            "terms": [
                {"e": list(e), "c": format_rational(c)} for e, c in self.terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        try:
            arity = json_int(data["arity"], "arity")
            names = data.get("vars", ())
            if "vars" in data and not (
                type(names) is list and len(names) == arity and all(type(v) is str for v in names)
            ):
                raise ValueError(f"vars {names!r} do not name {arity} variables")
            terms = {}
            for entry in data["terms"]:
                exps = tuple(entry["e"])
                if exps in terms:
                    raise ValueError(f"duplicate exponent {list(exps)}")
                terms[exps] = parse_rational(str(entry["c"]))
            return cls(arity, terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed polynomial document: {exc}") from exc


def monomials_of_degree(arity: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, descending graded-lex:
    each sorted choice of ``degree`` variable indices, in lexicographic
    order, counted into an exponent tuple."""
    if degree < 0:
        return
    for choice in combinations_with_replacement(range(arity), degree):
        exps = [0] * arity
        for i in choice:
            exps[i] += 1
        yield tuple(exps)
