"""Seeded workloads of the benchmark and their known answers.

A workload is an endless sequence of *passes*.  Pass ``j`` of workload ``w``
at seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{j}")``, so the same
seed always yields the same inputs, and every pass has the same mix of item
kinds (which keeps the cost of a run steady across seeds).  One item is one
user-level operation: a CLI invocation run in-process, or one library call.

Known answers are computed here, without the code under test: binomials,
the benchmark's own term loop for values and partial derivatives, the sign
of a discriminant, and the benchmark's own elimination modulo a prime.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Any, Callable

#: Prime of the benchmark's own elimination (full rank mod p => full rank over Q).
CHECK_PRIME = 2**61 - 1


@dataclass
class Item:
    """One operation: ``call()`` runs it, ``check(output)`` lists mismatches."""

    item_id: str
    family: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    canonical: Callable[[Any], Any]
    phases: dict = field(default_factory=dict)  # sub-step name -> seconds


# ------------------------------------------------------------- own arithmetic


def monomials(arity: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree (any fixed order)."""
    out = []
    for combo in combinations_with_replacement(range(arity), degree):
        e = [0] * arity
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def term_value(terms, point) -> Fraction:
    """Value of a polynomial given as (exponents, coefficient) pairs."""
    total = Fraction(0)
    for e, c in terms:
        v = Fraction(c)
        for x, k in zip(point, e):
            v *= Fraction(x) ** k
        total += v
    return total


def term_partial(terms, var: int):
    """Partial derivative of (exponents, coefficient) pairs in one variable."""
    out = []
    for e, c in terms:
        if e[var]:
            e2 = list(e)
            e2[var] -= 1
            out.append((tuple(e2), c * e[var]))
    return out


def points_rank_mod_p(points, arity: int, degree: int, p: int = CHECK_PRIME) -> int:
    """Rank over F_p of the degree-d monomials evaluated at the points.

    Coordinates must have denominators prime to p.  Full rank mod p implies
    full rank over Q, since every minor is a rational number reducing to its
    residue.
    """
    basis = monomials(arity, degree)
    m = []
    for point in points:
        r = [x.numerator * pow(x.denominator, -1, p) % p for x in point]
        row = []
        for e in basis:
            v = 1
            for x, k in zip(r, e):
                if k:
                    v = v * pow(x, k, p) % p
            row.append(v)
        m.append(row)
    rank = 0
    for col in range(len(basis)):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        top = m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], top)]
        rank += 1
        if rank == len(m):
            break
    return rank


def canonical(point) -> tuple[Fraction, ...]:
    pivot = next(x for x in point if x != 0)
    return tuple(Fraction(x) / pivot for x in point)


def rat(rng: random.Random, height: int = 9, den: int = 5) -> Fraction:
    return Fraction(rng.randint(-height, height), rng.randint(1, den))


def nonzero_rat(rng: random.Random, height: int = 9, den: int = 5) -> Fraction:
    while True:
        x = rat(rng, height, den)
        if x:
            return x


def poly_json(arity: int, terms: dict) -> dict:
    """The polynomial file format, written without the code under test."""
    return {
        "arity": arity,
        "vars": ["x", "y", "z", "u"][:arity],
        "terms": [{"e": list(e), "c": str(c)} for e, c in sorted(terms.items()) if c],
    }


# ---------------------------------------------------------- CLI invocation


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def cli_canonical(result) -> Any:
    """Exit code plus the JSON document with the wall-clock field removed."""
    code, text = result
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return [code, text]
    doc.get("manifest", {}).pop("wall_time_ms", None)
    return [code, doc]


def cli_doc(result) -> tuple[int, dict | None]:
    code, text = result
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, None


# ------------------------------------------- own smoothness of witness charts


def _utrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _umul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _utrim(out)


def _uadd(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _utrim(out)


def _uderiv(a: list) -> list:
    return _utrim([k * a[k] for k in range(1, len(a))])


def _ugcd(a: list, b: list) -> list:
    """Monic gcd of univariate polynomials (coefficient lists, low degree first)."""
    a, b = _utrim(list(a)), _utrim(list(b))
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, y in enumerate(b):
                r[shift + i] -= f * y
            _utrim(r)
        a, b = b, r
    return [x / a[-1] for x in a] if a else a


def _udiv(a: list, b: list) -> list:
    """Exact quotient a / b."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = f
        for i, y in enumerate(b):
            a[shift + i] -= f * y
        _utrim(a)
    return _utrim(q)


def _on_line(terms, v: list, w: list) -> list:
    """q(v(t), w(t)) for q given as ((i, j), c) pairs and linear v, w."""
    out: list = []
    for (i, j), c in terms:
        term = [Fraction(c)]
        for _ in range(i):
            term = _umul(term, v)
        for _ in range(j):
            term = _umul(term, w)
        out = _uadd(out, term)
    return out


def chart_is_singular(q: dict, lines: list[tuple], nodes: list[tuple]) -> bool:
    """Whether the chart p(v, w) + s*q(v, w) has a singular point over C,
    where p is the product of the lines a + b*v + c*w.

    A singular point has q = p = 0 and grad p = -s*grad q.  At a node of the
    lines grad p = 0, so it is singular iff q vanishes there.  Elsewhere on a
    line L it is singular iff q restricted to L has a double root at which
    grad q is nonzero (or q vanishes on L).
    """
    if any(term_value(q.items(), node) == 0 for node in nodes):
        return True
    qv, qw = term_partial(q.items(), 0), term_partial(q.items(), 1)
    for a, b, c in lines:
        if c:
            v, w = [Fraction(0), Fraction(1)], [-a / c, -b / c]
        else:
            v, w = [-a / b], [Fraction(0), Fraction(1)]
        u = _on_line(q.items(), v, w)
        if not u:
            return True
        double = _ugcd(u, _uderiv(u))
        if len(double) < 2:
            continue
        roots = _udiv(double, _ugcd(double, _uderiv(double)))  # each double root once
        flat = _ugcd(_ugcd(roots, _on_line(qv, v, w)), _on_line(qw, v, w))
        if len(roots) > len(flat):
            return True
    return False


def chart_data(lines, nodes, forms) -> tuple[list, list, list]:
    """Lines as (a, b, c) with a*x + b*y + c*z, nodes as (v, w) in the chart
    x = 1, and each chart form f(x, y, z) as {(j, k): c} for f(1, v, w).
    Inputs are (exponents, coefficient) pairs and rational point triples."""
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    abc = []
    for line in lines:
        coeffs = {tuple(e): Fraction(c) for e, c in line}
        abc.append(tuple(coeffs.get(e, Fraction(0)) for e in basis))
    vw = [(Fraction(n[1]) / Fraction(n[0]), Fraction(n[2]) / Fraction(n[0])) for n in nodes]
    charts = []
    for form in forms:
        q: dict = {}
        for e, c in form:
            q[tuple(e[1:3])] = q.get(tuple(e[1:3]), 0) + Fraction(c)
        charts.append(q)
    return abc, vw, charts


def json_terms(poly: dict) -> list:
    return [(t["e"], t["c"]) for t in poly["terms"]]


def witness_problems(verdict, stage, t1, rank, d: int, lines, nodes, forms) -> list[str]:
    """Mismatches of a certificate against the known answer.

    ``forms`` are phi2 and, when it is free of tau, psi: the chart equations
    are p + s*phi2(1, v, w) and p + tau*psi(1, v, w).  Seeded draws of small
    height occasionally give a chart with a singular point; the own check then
    expects a refusal at the smoothness stage (Refuted, or Inconclusive for an
    irrational point) instead of Certified with C(d-1, 2) T1 points and
    regularity rank C(d-1, 2).
    """
    abc, vw, charts = chart_data(lines, nodes, forms)
    if any(chart_is_singular(q, abc, vw) for q in charts):
        if verdict == "Certified" or stage != "smoothness":
            return [f"singular chart but verdict {verdict} at {stage}"]
        return []
    delta = (d - 1) * (d - 2) // 2
    got, want = (verdict, t1, rank), ("Certified", delta, delta)
    return [] if got == want else [f"(verdict, t1_count, regularity_rank) {got} != {want}"]


# ------------------------------------------------------------ witness-suite


class WitnessSuite:
    """construct --out, then certify --json, for seeded (d, seed), d = 3..6."""

    name = "witness-suite"
    # Per pass: one d=6 witness (about a sixth of the pass time), 60 at d=5
    # and 2 each at d=3 and d=4.  A d=6 certify costs 1.3-5.4 s depending on
    # the witness, so a mix dominated by d=6 would not be steady in one run.
    # The median and the tail then fall inside the d=5 items.
    mix = (3,) * 2 + (4,) * 2 + (5,) * 60 + (6,)
    warmup_mix = (3, 4, 5)
    tail_pct = 80
    min_items = 50  # at least 10 items beyond the tail percentile
    trace_passes = 1

    def __init__(self, prog, workdir: Path):
        self.prog = prog
        self.workdir = workdir

    def make_pass(self, seed: int, index: int, mix=None) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        degrees = list(mix or self.mix)
        rng.shuffle(degrees)
        return [
            self._item(f"p{index}.{k}", d, rng.randrange(10**6))
            for k, d in enumerate(degrees)
        ]

    def warmup(self, seed: int) -> list[Item]:
        return self.make_pass(seed, -1, self.warmup_mix)

    def _item(self, item_id: str, d: int, wseed: int) -> Item:
        path = str(self.workdir / f"{self.name}-{item_id}.json")
        cli = self.prog.cli
        phases: dict = {}

        def call():
            t0 = time.perf_counter()
            built = run_cli(cli, ["construct", "--d", str(d), "--seed", str(wseed), "--out", path])
            t1 = time.perf_counter()
            certified = run_cli(cli, ["certify", path, "--json"])
            phases["construct"] = t1 - t0
            phases["certify"] = time.perf_counter() - t1
            return built, certified

        def check(out):
            (c_code, _), cert = out
            code, doc = cli_doc(cert)
            if c_code != 0 or doc is None:
                return [f"construct exit {c_code}, certify exit {code}"]
            psi = json_terms(doc["psi"])
            forms = [json_terms(doc["phi2"])] + ([] if any(e[3] for e, _ in psi) else [psi])
            problems = witness_problems(
                doc.get("verdict"), doc.get("failed_stage"), doc.get("t1_count"),
                doc.get("regularity_rank"), d, [json_terms(l) for l in doc["lines"]],
                doc["nodes"], forms,
            )
            want_code = {"Certified": 0, "Refuted": 1, "Inconclusive": 2}.get(doc.get("verdict"))
            return problems + ([] if code == want_code else [f"certify exit {code}"])

        return Item(
            f"{item_id}:d{d}:s{wseed}",
            f"d{d}",
            call,
            check,
            lambda out: cli_canonical(out[1]),
            phases,
        )


# -------------------------------------------------------- exclusion-general


class ExclusionGeneral:
    """Library calls to exclude_extra_singularities and certify_witness on
    charts the structural witness route does not cover.

    (a) nodal charts Q + C3 + ... + Ck recentred at a rational P: Certified, {P};
    (b) h(s)**2 + v**2 + w**2 with disc h < 0: Inconclusive (complex roots);
    (c) charts singular along a line: Refuted (positive-dimensional locus);
    (d) d = 4, 5 witnesses whose psi involves tau: Certified.
    """

    name = "exclusion-general"
    # As many items below (a) k=4 as above it, so the median falls inside
    # the k=4 items, and the tail inside the (b) items.
    mix = ("c",) * 3 + ("a3",) * 3 + ("d4",) * 2 + ("a4",) * 10 + ("d5",) * 2 + ("b",) * 5 + ("a5",)
    warmup_mix = ("a3", "a4", "b", "c", "d4")
    tail_pct = 85
    min_items = 67
    trace_passes = 1
    # c = p1**4 * p2**2 * p3 * p4 * p5 has 120 divisors whatever the primes
    b_primes = (2, 3, 5, 7, 11, 13)

    def __init__(self, prog, workdir: Path):
        self.prog = prog

    def make_pass(self, seed: int, index: int, mix=None) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        kinds = list(mix or self.mix)
        rng.shuffle(kinds)
        items = []
        for k, kind in enumerate(kinds):
            item_id = f"p{index}.{k}"
            if kind.startswith("a"):
                items.append(self._nodal(item_id, rng, int(kind[1])))
            elif kind == "b":
                items.append(self._complex_roots(item_id, rng))
            elif kind == "c":
                items.append(self._line(item_id, rng))
            else:
                items.append(self._tau_witness(item_id, rng, int(kind[1])))
        return items

    def warmup(self, seed: int) -> list[Item]:
        return self.make_pass(seed, -1, self.warmup_mix)

    # helpers -----------------------------------------------------------

    def _poly(self, terms: dict):
        return self.prog.polynomials.MultiPoly(3, terms)

    def _form(self, rng, degree: int, arity: int = 3, height: int = 9) -> dict:
        while True:
            terms = {e: Fraction(rng.randint(-height, height)) for e in monomials(arity, degree)}
            if any(terms.values()):
                return terms

    def _exclude_item(self, item_id, family, f, allowed, check) -> Item:
        sing = self.prog.singularities

        def call():
            return sing.exclude_extra_singularities(f, allowed)

        return Item(f"{item_id}:{family}", family, call, check, lambda r: r.to_json())

    # families ----------------------------------------------------------

    def _nodal(self, item_id: str, rng, k: int) -> Item:
        while True:  # nondegenerate quadratic part, so P is an A1 point
            q = self._form(rng, 2)
            sym = [[q.get(_bump(i, j), 0) * (2 if i == j else 1) for j in range(3)] for i in range(3)]
            if _det3(sym):
                break
        g = dict(q)
        for j in range(3, k + 1):
            g.update(self._form(rng, j))
        point = tuple(rat(rng, 4, 3) for _ in range(3))
        f = self._poly(g).translate([-x for x in point])
        own_terms = f.terms()

        def check(res):
            problems = []
            if term_value(own_terms, point) != 0:
                problems.append("P is not on the chart")
            if any(term_value(term_partial(own_terms, i), point) for i in range(3)):
                problems.append("P is not critical")
            if res.status != "Certified":
                problems.append(f"status {res.status}: {res.detail}")
            if not res.singular_points or point not in res.singular_points:
                problems.append("P missing from singular_points")
            elif len(res.singular_points) != 1:
                problems.append(f"singular locus {res.singular_points}")
            return problems

        return self._exclude_item(item_id, f"a{k}", f, [point], check)

    def _complex_roots(self, item_id: str, rng) -> Item:
        primes = list(self.b_primes)
        rng.shuffle(primes)
        c = 1
        for p, e in zip(primes, (4, 2, 1, 1, 1)):
            c *= p**e
        # h = c*s**2 + s + c; f = h**2 + v**2 + w**2, expanded here
        h = {0: c, 1: 1, 2: c}
        terms: dict = {}
        for i, a in h.items():
            for j, b in h.items():
                terms[(i + j, 0, 0)] = terms.get((i + j, 0, 0), 0) + a * b
        terms[(0, 2, 0)] = 1
        terms[(0, 0, 2)] = 1
        f = self._poly({e: Fraction(v) for e, v in terms.items()})
        disc = 1 - 4 * c * c

        def check(res):
            problems = []
            if disc >= 0:
                problems.append("disc h is not negative")
            if res.status != "Inconclusive":
                problems.append(f"status {res.status}: {res.detail}")
            return problems

        return self._exclude_item(item_id, "b", f, [], check)

    def _line(self, item_id: str, rng) -> Item:
        while True:
            base = [rat(rng, 3, 2) for _ in range(3)]
            direction = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            n1 = _cross(direction, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
            n2 = _cross(direction, [Fraction(rng.randint(-3, 3)) for _ in range(3)])
            if any(direction) and any(_cross(n1, n2)):
                break
        MultiPoly = self.prog.polynomials.MultiPoly
        ls = []
        for n in (n1, n2):
            lin = {(1, 0, 0): n[0], (0, 1, 0): n[1], (0, 0, 1): n[2]}
            lin[(0, 0, 0)] = -sum(a * b for a, b in zip(n, base))
            ls.append(MultiPoly(3, lin))
        l1, l2 = ls
        coeffs = []
        for _ in range(3):
            terms = {e: Fraction(rng.randint(-5, 5)) for d in (0, 1) for e in monomials(3, d)}
            terms[(0, 0, 0)] = Fraction(rng.randint(1, 5))
            coeffs.append(MultiPoly(3, terms))
        f = l1 * l1 * coeffs[0] + l1 * l2 * coeffs[1] + l2 * l2 * coeffs[2]
        own_terms = f.terms()
        on_line = [tuple(b + t * d for b, d in zip(base, direction)) for t in (0, 1, 2)]

        def check(res):
            problems = []
            for p in on_line:
                if term_value(own_terms, p) or any(
                    term_value(term_partial(own_terms, i), p) for i in range(3)
                ):
                    problems.append(f"line point {p} is not singular")
            if res.status != "Refuted":
                problems.append(f"status {res.status}: {res.detail}")
            return problems

        return self._exclude_item(item_id, "c", f, [], check)

    def _tau_witness(self, item_id: str, rng, d: int) -> Item:
        cons = self.prog.constructions
        MultiPoly = self.prog.polynomials.MultiPoly
        wseed = rng.randrange(10**6)
        while True:
            # height 999 makes a singular S_B chart (no own check for it) unlikely
            terms = self._form(rng, d - 2, arity=4, height=999)
            if not any(c for e, c in terms.items() if e[3]):
                continue
            try:
                witness = cons.build_witness(d, wseed, psi=MultiPoly(4, terms))
            except self.prog.errors.GenericityError:
                continue
            break

        def call():
            return cons.certify_witness(witness)

        def check(bundle):
            problems = [] if any(e[3] for e, c in terms.items() if c) else ["psi free of tau"]
            return problems + witness_problems(
                bundle.verdict, bundle.failed_stage, bundle.t1_count, bundle.regularity_rank,
                d, [line.terms() for line in witness.arrangement.lines],
                witness.arrangement.nodes, [witness.phi2.terms()],
            )

        return Item(f"{item_id}:d{d}:s{wseed}", f"d{d}", call, check, lambda b: b.to_json())


def _bump(i: int, j: int) -> tuple[int, ...]:
    e = [0, 0, 0]
    e[i] += 1
    e[j] += 1
    return tuple(e)


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _cross(a, b) -> list[Fraction]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


# ---------------------------------------------------------------- exact-core


class ExactCore:
    """regularity on p2/p3/ci4 point sets, deform-check slices and
    hessian-limit normal forms, all through ``cli.main``; no Groebner calls."""

    name = "exact-core"
    # (space, d, k, kind): kind is generic, line (collinear), plane (coplanar)
    # or quadric (on x*y = z*w, the ci4 membership surface)
    regularity_mix = (
        ("p2", 3, 8, "generic"),
        ("p2", 5, 12, "line"),
        ("p2", 8, 40, "generic"),
        ("p3", 3, 16, "generic"),
        ("p3", 4, 20, "plane"),
        ("p3", 6, 30, "generic"),
        ("p3", 8, 40, "generic"),
        ("ci4", 4, 20, "quadric"),
    )
    slices = 8
    normal_forms = 8
    warmup_count = 4
    tail_pct = 97  # falls among the 40x165 condition matrices
    min_items = 334
    trace_passes = 8

    def __init__(self, prog, workdir: Path):
        self.prog = prog
        self.workdir = workdir

    def make_pass(self, seed: int, index: int, mix=None) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        items = [
            self._regularity(f"p{index}.r{k}", rng, *spec)
            for k, spec in enumerate(mix or self.regularity_mix)
        ]
        items += [self._slice(f"p{index}.t{k}", rng) for k in range(self.slices)]
        items += [self._normal_form(f"p{index}.h{k}", rng) for k in range(self.normal_forms)]
        rng.shuffle(items)
        return items

    def warmup(self, seed: int) -> list[Item]:
        return self.make_pass(seed, -1, self.regularity_mix[:1])[: self.warmup_count]

    def _write(self, name: str, doc: dict) -> str:
        path = self.workdir / f"{self.name}-{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _regularity(self, item_id, rng, space, d, k, kind) -> Item:
        arity = 3 if space == "p2" else 4
        seen: set = set()
        points = []
        # the line (plane) is spanned by frame[:2] (frame[:3]), which must be
        # independent; full rank mod p implies it over Q
        while True:
            frame = [[rat(rng) for _ in range(arity)] for _ in range(3)]
            if points_rank_mod_p(frame, arity, 1) == 3 or (
                kind == "line" and points_rank_mod_p(frame[:2], arity, 1) == 2
            ):
                break
        while len(points) < k:
            if kind == "generic":
                p = [rat(rng) for _ in range(arity)]
            elif kind == "line":
                t = rat(rng)
                p = [a + t * (b - a) for a, b in zip(frame[0], frame[1])]
            elif kind == "plane":
                s, t = rat(rng), rat(rng)
                p = [a + s * (b - a) + t * (c - a) for a, b, c in zip(*frame)]
            else:  # quadric x*y = z*w
                x, y, z = nonzero_rat(rng), nonzero_rat(rng), nonzero_rat(rng)
                p = [x, y, z, x * y / z]
            if not any(p):
                continue
            key = canonical(p)
            if key in seen:
                continue
            seen.add(key)
            points.append(p)
        system = {"space": space, "d": d}
        if space == "ci4":
            system["h"] = 2
            system["surface"] = poly_json(4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1})
        sys_path = self._write(f"{item_id}-system", system)
        pts_path = self._write(
            f"{item_id}-points", {"points": [[str(x) for x in p] for p in points]}
        )
        monos = comb(d + arity - 1, arity - 1)
        if kind == "line":
            expected = min(k, d + 1)  # a line carries a (d+1)-dim space of degree-d forms
        elif kind == "plane":
            expected = min(k, comb(d + 2, 2))
        else:
            expected = min(k, monos)
        cli = self.prog.cli

        def call():
            return run_cli(cli, ["regularity", "--system", sys_path, "--points", pts_path, "--json"])

        def check(out):
            code, doc = cli_doc(out)
            problems = []
            if doc is None:
                return [f"exit {code} without a document"]
            if kind != "line":  # the own elimination pins the rank from below
                own = points_rank_mod_p(points, arity, d)
                if own != expected:
                    problems.append(f"own mod-p rank {own} != expected {expected}")
            if doc.get("rank") != expected:
                problems.append(f"rank {doc.get('rank')} != {expected}")
            regular = expected == k
            if doc.get("regular") is not regular or code != (0 if regular else 1):
                problems.append(f"regular {doc.get('regular')} exit {code}")
            return problems

        return Item(f"{item_id}:{space}:d{d}:k{k}:{kind}", f"{space}-{kind}", call, check, cli_canonical)

    def _slice(self, item_id, rng) -> Item:
        alpha = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        t = -alpha * alpha / 4
        cli = self.prog.cli

        def call():
            return run_cli(cli, ["deform-check", f"--t={t}", "--json"])

        def check(out):
            code, doc = cli_doc(out)
            if code != 0 or doc is None:
                return [f"exit {code}"]
            want = {
                "class": "NodeA1",
                "point": [str(-alpha / 2), "0", "0"],
                "hessian_det": str(2 * alpha * alpha),
                "tangent_cone_ratio": "1/2",
            }
            return [f"{k} {doc.get(k)} != {v}" for k, v in want.items() if doc.get(k) != v]

        return Item(f"{item_id}:deform:t{t}", "deform-check", call, check, cli_canonical)

    def _normal_form(self, item_id, rng) -> Item:
        terms = {(1, 0, 0, 0): Fraction(1), (0, 1, 0, 0): Fraction(1)}
        for e in monomials(4, 2):
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if rng.random() < 0.25:  # both sides of the identity vanish
            for e in ((0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)):
                terms[e] = Fraction(0)
        for e in rng.sample(monomials(4, 3), 3):
            terms[e] = Fraction(rng.randint(-9, 9))
        a, b, c = (terms[e] for e in ((0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 2)))
        expected = str(a * c - b * b / 4)
        path = self._write(f"{item_id}-poly", poly_json(4, terms))
        cli = self.prog.cli

        def call():
            return run_cli(cli, ["hessian-limit", "--poly", path, "--json"])

        def check(out):
            code, doc = cli_doc(out)
            if code != 0 or doc is None:
                return [f"exit {code}"]
            got = (doc.get("verdict"), doc.get("det_b0"), doc.get("discriminant"))
            want = ("Verified", expected, expected)
            return [] if got == want else [f"{got} != {want}"]

        return Item(f"{item_id}:hessian", "hessian-limit", call, check, cli_canonical)


WORKLOADS = {w.name: w for w in (WitnessSuite, ExclusionGeneral, ExactCore)}
