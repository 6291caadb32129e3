"""Exact sparse multivariate polynomials over the rationals.

A polynomial is a mapping from exponent tuples to nonzero ``Fraction``
coefficients:

    x**2*y + 3/2   in 3 variables  ->  {(2, 1, 0): Fraction(1), (0, 0, 0): Fraction(3, 2)}

The zero polynomial is the empty mapping.  All arithmetic is exact; no
floating point is used anywhere.  The canonical term order is graded
lexicographic (compare total degree first, then the exponent tuple, with
earlier variables ranked higher), and serialized files list terms in
descending canonical order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Sequence

from .errors import ArityError, DataFormatError

Monomial = tuple[int, ...]

#: Degree of the zero polynomial.  A genuine -infinity sentinel (never -1),
#: so expressions like ``max(p.degree(), q.degree())`` behave.
MINUS_INFINITY = float("-inf")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-integer fraction string like ``"3/2"`` or ``"-7"``."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise DataFormatError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DataFormatError(f"zero denominator in {text!r}") from None


def json_int(value, name: str) -> int:
    """An integer field of a JSON document; a float, boolean or string raises
    TypeError instead of being truncated or parsed."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
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

    __slots__ = ("arity", "_terms", "_hash")

    def __init__(self, arity: int, terms: Mapping[Monomial, Fraction] | None = None):
        if arity < 0:
            raise ArityError("arity must be nonnegative")
        clean: dict[Monomial, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ArityError(f"exponent tuple {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------ basics

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, value) -> "MultiPoly":
        return cls(arity, {(0,) * arity: Fraction(value)})

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
        return MultiPoly(
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
            s = res.get(e, Fraction(0)) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return MultiPoly(self.arity, res)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.arity, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return MultiPoly.const(self.arity, other) - self

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MultiPoly(self.arity, {e: c * v for e, v in self._terms.items()})
        self._check_arity(other)
        res: dict[Monomial, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, Fraction(0)) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return MultiPoly(self.arity, res)

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
        h = self._hash
        if h is None:
            h = hash((self.arity, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    # ---------------------------------------------------------------- calculus

    def derive(self, var: int) -> "MultiPoly":
        """Exact formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        res: dict[Monomial, Fraction] = {}
        for e, c in self._terms.items():
            k = e[var]
            if k:
                e2 = e[:var] + (k - 1,) + e[var + 1 :]
                res[e2] = res.get(e2, Fraction(0)) + c * k
        return MultiPoly(self.arity, res)

    def gradient(self) -> tuple["MultiPoly", ...]:
        return tuple(self.derive(i) for i in range(self.arity))

    def eval_at(self, point: Sequence) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.arity:
            raise ArityError(f"point length {len(point)} does not match arity {self.arity}")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for e, c in self._terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    def value_gradient_hessian(
        self, point: Sequence
    ) -> tuple[Fraction, tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
        """Exact value, gradient and Hessian at a rational point.

        One Taylor shift moves the point to the origin; there the value is
        the constant term, the gradient the linear coefficients and the
        Hessian the quadratic ones, with the diagonal doubled.
        """
        terms = self.translate(point)._terms
        n = self.arity

        def coeff(*variables: int) -> Fraction:
            exps = [0] * n
            for v in variables:
                exps[v] += 1
            return terms.get(tuple(exps), Fraction(0))

        return (
            coeff(),
            tuple(coeff(i) for i in range(n)),
            tuple(tuple(coeff(i, j) * (1 + (i == j)) for j in range(n)) for i in range(n)),
        )

    def translate(self, point: Sequence) -> "MultiPoly":
        """Recentre: returns q with q(v) = p(v + point).

        A Taylor shift, one variable at a time: shifting x by a sends
        x**k to the sum of C(k, j) * a**(k - j) * x**j over j = 0..k.
        """
        if len(point) != self.arity:
            raise ArityError(f"point length {len(point)} does not match arity {self.arity}")
        terms: dict[Monomial, Fraction] = self._terms
        for var, a in enumerate(point):
            a = Fraction(a)
            if not a:
                continue
            powers = [Fraction(1)]
            shifted: dict[Monomial, Fraction] = {}
            for e, c in terms.items():
                k = e[var]
                while len(powers) <= k:
                    powers.append(powers[-1] * a)
                for j in range(k + 1):
                    e2 = e[:var] + (j,) + e[var + 1 :]
                    shifted[e2] = shifted.get(e2, 0) + comb(k, j) * powers[k - j] * c
            terms = shifted
        return MultiPoly(self.arity, terms)

    def substitute(self, var: int, expr: "MultiPoly") -> "MultiPoly":
        """Substitute ``expr`` for variable ``var`` (other variables untouched)."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        self._check_arity(expr)
        powers: dict[int, MultiPoly] = {0: MultiPoly.const(self.arity, 1)}

        def power(k: int) -> MultiPoly:
            if k not in powers:
                powers[k] = power(k - 1) * expr
            return powers[k]

        res = MultiPoly.zero(self.arity)
        for e, c in self._terms.items():
            rest = e[:var] + (0,) + e[var + 1 :]
            res = res + MultiPoly(self.arity, {rest: c}) * power(e[var])
        return res

    def set_var(self, var: int, value) -> "MultiPoly":
        """Substitute the constant ``value`` for variable ``var``: one pass
        adding c * value**e[var] into the monomial with that slot set to 0."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        a = Fraction(value)
        powers = [Fraction(1)]
        res: dict[Monomial, Fraction] = {}
        for e, c in self._terms.items():
            k = e[var]
            while len(powers) <= k:
                powers.append(powers[-1] * a)
            rest = e[:var] + (0,) + e[var + 1 :]
            res[rest] = res.get(rest, 0) + c * powers[k]
        return MultiPoly(self.arity, res)

    def compose(self, exprs: Sequence["MultiPoly"]) -> "MultiPoly":
        """Simultaneous substitution v_i := exprs[i].

        All substituted expressions must share one target arity; the result
        lives in that arity.
        """
        if len(exprs) != self.arity:
            raise ArityError(f"need {self.arity} expressions, got {len(exprs)}")
        if not exprs:
            return MultiPoly(0, {(): self.constant_term()} if self._terms else {})
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
        return MultiPoly(self.arity, res)

    def coefficient_in(self, var: int, k: int) -> "MultiPoly":
        """The coefficient of v_var**k, a polynomial in the other variables
        with the slot ``var`` dropped; ``coefficient_in(var, 0)`` is the
        restriction to v_var = 0."""
        if not 0 <= var < self.arity:
            raise ArityError(f"variable index {var} out of range for arity {self.arity}")
        res = {e[:var] + e[var + 1 :]: c for e, c in self._terms.items() if e[var] == k}
        return MultiPoly(self.arity - 1, res)

    def extend(self, extra: int) -> "MultiPoly":
        """Append ``extra`` fresh variables that do not occur."""
        pad = (0,) * extra
        return MultiPoly(self.arity + extra, {e + pad: c for e, c in self._terms.items()})

    def dehomogenize(self, var: int) -> "MultiPoly":
        """Set the chart variable to 1 and drop its slot; input must be homogeneous."""
        if not self.is_homogeneous():
            raise ValueError("dehomogenize requires a homogeneous polynomial")
        res: dict[Monomial, Fraction] = {}
        for e, c in self._terms.items():
            e2 = e[:var] + e[var + 1 :]
            res[e2] = res.get(e2, Fraction(0)) + c
        return MultiPoly(self.arity - 1, res)

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

    @classmethod
    def parse(cls, text: str, var_names: Sequence[str]) -> "MultiPoly":
        """Parse expressions like ``"x**2*y - 3/2*z + 1"``.

        Only +, -, *, ** with integer or fraction literals are understood; this
        is a convenience for fixtures and tests, not a general parser.
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
        result = cls.zero(arity)
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
            result = result + cls(arity, {tuple(exps): coeff})
        return result

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
            terms = {}
            for entry in data["terms"]:
                exps = tuple(json_int(v, "exponent") for v in entry["e"])
                if exps in terms:
                    raise ValueError(f"duplicate exponent {list(exps)}")
                terms[exps] = parse_rational(str(entry["c"]))
            return cls(arity, terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"malformed polynomial document: {exc}") from exc


def poly(text: str, var_names: Sequence[str]) -> MultiPoly:
    """Shorthand for :meth:`MultiPoly.parse`."""
    return MultiPoly.parse(text, var_names)


def monomials_of_degree(arity: int, degree: int) -> Iterator[Monomial]:
    """All exponent tuples of the given total degree, descending graded-lex."""
    if degree < 0:
        return
    if arity == 0:
        if degree == 0:
            yield ()
        return

    def rec(remaining_vars: int, remaining_deg: int) -> Iterator[Monomial]:
        if remaining_vars == 1:
            yield (remaining_deg,)
            return
        for first in range(remaining_deg, -1, -1):
            for rest in rec(remaining_vars - 1, remaining_deg - first):
                yield (first,) + rest

    yield from rec(arity, degree)

