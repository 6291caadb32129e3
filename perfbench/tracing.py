"""Spans around the calls into each layer of ``nodal_degen``.

The wrappers are installed on the names the callers actually resolve (for
example ``singularities.groebner_basis``, which is what
``exclude_extra_singularities`` calls) and on methods of ``MultiPoly`` and
``RatMatrix``.  The program itself is not edited.

A span is ``(name, start, end, parent, item)``; spans stay in memory and are
written out when the run ends.  *Boundary* spans (module functions, matrix
methods) nest; a boundary span's self time is its duration minus the time
covered by its boundary children.  ``MultiPoly`` methods are *leaf* spans:
they are timed and counted but not subtracted from any self time, because
polynomial arithmetic is the substance of every layer above it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module attribute or class, attribute, span name); several callers of one
# function share its span name.
BOUNDARY = (
    ("cli", "main", "cli.main"),
    ("cli", "build_witness", "constructions.build_witness"),
    ("cli", "certify_witness", "constructions.certify_witness"),
    ("constructions", "certify_witness", "constructions.certify_witness"),
    ("cli", "witness_from_json", "constructions.witness_io"),
    ("cli", "witness_to_json", "constructions.witness_io"),
    ("constructions", "central_fibre", "constructions.central_fibre"),
    ("constructions", "curve_double_point", "singularities.curve_double_point"),
    ("singularities", "curve_double_point", "singularities.curve_double_point"),
    ("constructions", "certify_t1", "singularities.certify_t1"),
    ("constructions", "exclude_extra_singularities", "singularities.exclude"),
    ("singularities", "exclude_extra_singularities", "singularities.exclude"),
    ("singularities", "groebner_basis", "groebner.basis"),
    ("degeneration", "classify_point", "singularities.classify_point"),
    ("cli", "condition_matrix", "severi.condition_matrix"),
    ("constructions", "condition_matrix", "severi.condition_matrix"),
    ("cli", "independence_rank", "severi.independence_rank"),
    ("constructions", "independence_rank", "severi.independence_rank"),
    ("cli", "verify_t1_to_node", "degeneration.verify_t1_to_node"),
    ("cli", "hessian_limit_check", "degeneration.hessian_limit_check"),
    ("RatMatrix", "rank", "linalg.rank"),
    ("RatMatrix", "det", "linalg.det"),
    ("RatMatrix", "rank_mod", "linalg.rank_mod"),
)
LEAF = (
    ("MultiPoly", "__mul__", "polynomials.mul"),
    ("MultiPoly", "__rmul__", "polynomials.mul"),
    ("MultiPoly", "substitute", "polynomials.substitute"),
    ("MultiPoly", "compose", "polynomials.compose"),
    ("MultiPoly", "eval_at", "polynomials.eval_at"),
    ("MultiPoly", "derive", "polynomials.derive"),
)
# Calls that certify_witness makes for each certificate stage after "structure".
STAGE_OF_CHILD = {
    "constructions.central_fibre": "gluing",
    "singularities.curve_double_point": "nodes",
    "singularities.certify_t1": "t1",
    "singularities.exclude": "smoothness",
    "severi.condition_matrix": "regularity",
    "severi.independence_rank": "regularity",
}
# Results kept for counting after the run, so no counting runs inside a span.
KEEP_RESULTS = {"groebner.basis", "singularities.exclude", "linalg.rank_mod"}


class Tracer:
    """Records spans while installed; ``uninstall()`` restores every name."""

    def __init__(self, prog):
        self.prog = prog
        self.spans: list[list] = []  # [name, start, end, parent, item, leaf]
        self.stack: list[int] = []  # open boundary spans
        self.results: dict[str, list] = defaultdict(list)
        self.init_calls = 0
        self.item = None
        self._saved: list[tuple[object, str, object]] = []

    # installation ---------------------------------------------------------

    def _owner(self, key: str):
        if key == "MultiPoly":
            return self.prog.polynomials.MultiPoly
        if key == "RatMatrix":
            return self.prog.linalg.RatMatrix
        return getattr(self.prog, key)

    def install(self) -> None:
        for key, attr, name in BOUNDARY:
            self._wrap(self._owner(key), attr, self._boundary(name))
        for key, attr, name in LEAF:
            self._wrap(self._owner(key), attr, self._leaf(name))
        self._wrap(self.prog.polynomials.MultiPoly, "__init__", self._counting_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _boundary(self, name: str):
        spans, stack, keep = self.spans, self.stack, name in KEEP_RESULTS
        results = self.results[name]
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                index = len(spans)
                span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, False]
                spans.append(span)
                stack.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if keep:
                    results.append((out, args[0]))
                return out

            return wrapper

        return make

    def _leaf(self, name: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, True]
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    spans.append(span)

            return wrapper

        return make

    def _counting_init(self, original):
        def wrapper(obj, *args, **kwargs):
            self.init_calls += 1
            original(obj, *args, **kwargs)

        return wrapper

    # analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of each span (leaf spans: their duration)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, leaf in self.spans:
            if not leaf and parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, *_r) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        selfs = self.self_times()
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        stage = defaultdict(float)
        for i, (name, start, end, parent, _, leaf) in enumerate(spans):
            calls[name] += 1
            own[name] += selfs[i]
            if leaf:
                continue
            total[name] += end - start
            if parent >= 0 and spans[parent][0] == "constructions.certify_witness":
                if name in STAGE_OF_CHILD:
                    stage[STAGE_OF_CHILD[name]] += end - start
        for name, s in _outermost_leaf_time(spans).items():
            total[name] = s

        m: dict[str, float] = {}
        groebner = self.results["groebner.basis"]
        m["groebner.basis.s"] = total["groebner.basis"]
        m["groebner.basis.calls"] = calls["groebner.basis"]
        m["groebner.basis.unit_ratio"] = _ratio(
            sum(r.is_unit_ideal() for r, _ in groebner), len(groebner)
        )
        m["groebner.basis.inconclusive"] = sum(r.status != "ok" for r, _ in groebner)
        m["groebner.basis.out_terms"] = sum(len(b.terms()) for r, _ in groebner for b in r.basis)
        m["groebner.basis.out_coeff_bits.max"] = max(
            (
                max(c.numerator.bit_length(), c.denominator.bit_length())
                for r, _ in groebner
                for b in r.basis
                for _, c in b.terms()
            ),
            default=0,
        )

        exclusions = [r.status for r, _ in self.results["singularities.exclude"]]
        m["singularities.exclude.self_s"] = own["singularities.exclude"]
        m["singularities.exclude.calls"] = calls["singularities.exclude"]
        for status in ("Certified", "Refuted", "Inconclusive"):
            m[f"singularities.exclude.{status.lower()}"] = exclusions.count(status)
        for name in ("certify_t1", "classify_point", "curve_double_point"):
            m[f"singularities.{name}.s"] = total[f"singularities.{name}"]

        for name in ("gluing", "nodes", "t1", "smoothness", "regularity"):
            m[f"stage.{name}.s"] = stage[name]
        m["constructions.certify_witness.self_s"] = own["constructions.certify_witness"]
        m["constructions.build_witness.s"] = total["constructions.build_witness"]
        m["constructions.witness_io.s"] = total["constructions.witness_io"]

        for name in ("mul", "substitute", "compose", "eval_at", "derive"):
            m[f"polynomials.{name}.calls"] = calls[f"polynomials.{name}"]
            m[f"polynomials.{name}.s"] = total[f"polynomials.{name}"]
        m["polynomials.init.calls"] = self.init_calls

        rank_mod = self.results["linalg.rank_mod"]
        m["linalg.rank.s"] = total["linalg.rank"]
        m["linalg.rank.calls"] = calls["linalg.rank"]
        m["linalg.det.s"] = total["linalg.det"]
        m["linalg.rank_mod.s"] = total["linalg.rank_mod"]
        m["linalg.rank_mod.decisive_ratio"] = _ratio(
            sum(rank == matrix.rows for rank, matrix in rank_mod), len(rank_mod)
        )

        m["severi.condition_matrix.s"] = total["severi.condition_matrix"]
        m["severi.independence_rank.self_s"] = own["severi.independence_rank"]
        m["degeneration.verify_t1_to_node.s"] = total["degeneration.verify_t1_to_node"]
        m["degeneration.hessian_limit_check.s"] = total["degeneration.hessian_limit_check"]
        m["cli.main.self_s"] = own["cli.main"]
        m["cli.main.calls"] = calls["cli.main"]
        return m

    def by_family(self, family_of: dict) -> dict[str, dict[str, float]]:
        """Groebner time, exclusion self time and certify_witness time (the
        summed stage time) per item family."""
        selfs = self.self_times()
        keys = {
            "groebner.basis": ("groebner.basis.s", False),
            "singularities.exclude": ("singularities.exclude.self_s", True),
            "constructions.certify_witness": ("stages.s", False),
        }
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, item, _leaf) in enumerate(self.spans):
            if name in keys:
                key, use_self = keys[name]
                out[family_of.get(item, "?")][key] += selfs[i] if use_self else end - start
        return {k: dict(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Spans as one JSON array per line: name, start, end, parent, item, leaf."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _outermost_leaf_time(spans) -> dict[str, float]:
    """Inclusive leaf time per name, counting a nested same-name call once.

    Leaf spans are appended on exit, so walking them backwards meets an
    enclosing call before the calls nested in it, and a nested call is one
    that starts after the last counted call of its name.
    """
    out: dict[str, float] = defaultdict(float)
    counted_start: dict[str, float] = {}
    for name, start, end, _, _, leaf in reversed(spans):
        if not leaf or start >= counted_start.get(name, float("inf")):
            continue
        counted_start[name] = start
        out[name] += end - start
    return out
