"""Benchmark of nodal_degen, built from the checkout's own ``src``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, no threads: a closed loop runs the seeded items of
one workload back to back and checks every output against a known answer.

``--trace 0`` warms up, then runs whole passes of the workload until about
``--seconds`` of item time is measured (and at least the workload's minimum
item count), and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of passes untraced and then the same items again with spans around
the calls into each layer, and prints the per-layer metrics (counts repeat
exactly at one commit and seed).

Every time (and rate) is reported at a reference speed of the machine: it is
multiplied by ``SpeedGauge.REFERENCE_S`` over the time of a fixed piece of
exact arithmetic run between items (next to each item for end-to-end
metrics, over the run for per-layer ones); raw values go to the report file.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Machine facts, the SHA-256 digest
of the first pass's verdict outputs and every mismatch go to stderr and to
``.perfbench/results/``.  Without ``src/nodal_degen`` next to this directory
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = (
    "cli",
    "constructions",
    "degeneration",
    "errors",
    "groebner",
    "linalg",
    "polynomials",
    "severi",
    "singularities",
)
SETUP_REPEATS = 7
OUT_DIR = Path(".perfbench")  # relative to the checkout root, so outputs match across checkouts


class ProgramMissing(Exception):
    """The checkout has no importable ``src/nodal_degen``."""


def load_program() -> SimpleNamespace:
    """Import nodal_degen afresh from the checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "nodal_degen"]:
        del sys.modules[name]
    try:
        mods = {m: importlib.import_module(f"nodal_degen.{m}") for m in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import nodal_degen from {src}: {exc}") from exc
    origin = Path(sys.modules["nodal_degen"].__file__).resolve().parent
    if origin != src / "nodal_degen":
        raise ProgramMissing(f"nodal_degen resolved to {origin}, not to {src}")
    return SimpleNamespace(**mods)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(prog) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "int_backend": "int" if prog.groebner._zint is int else "gmpy2",
        "NODAL_DEGEN_PRIME": os.environ.get("NODAL_DEGEN_PRIME"),
        "commit": git_commit(),
    }


def set_up(workload_cls, seed: int, workdir: Path, gauge):
    """Fresh imports plus generation of the first pass, repeated; returns the
    median time raw and at the reference speed (gauge sampled after each)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prog = load_program()
        workload = workload_cls(prog, workdir)
        first = workload.make_pass(seed, 0)
        raw.append(time.perf_counter() - t0)
        index = len(gauge.samples)
        gauge.tick(gauge.INTERVAL_S)
        scaled.append(raw[-1] * gauge.factor(index))
    return prog, workload, first, statistics.median(raw), statistics.median(scaled)


def execute(item, tracer=None) -> dict:
    """Run one item (timed), then check its output (untimed)."""
    if tracer is not None:
        tracer.item = item.item_id
    t0 = time.perf_counter()
    try:
        out, error = item.call(), None
    except Exception as exc:  # one failing item must not stop the run
        out, error = None, "".join(traceback.format_exception_only(exc)).strip()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.item = None
    record = {"item": item.item_id, "family": item.family, "s": seconds, "phases": dict(item.phases)}
    if error is not None:
        record["problems"] = [f"raised {error}"]
        return record
    try:
        record["problems"] = item.check(out)
        record["canonical"] = item.canonical(out)
    except Exception as exc:
        record["problems"] = [f"check raised {exc!r}"]
    return record


def reference_work() -> int:
    """Fixed exact arithmetic of the program's kind, in the benchmark's own
    code: a sparse product of Fraction polynomials and a big-integer Horner."""
    p = {(i, j): Fraction(i - 2 * j + 1, j + 1) for i in range(6) for j in range(6)}
    prod: dict = {}
    for (a, b), c in p.items():
        for (x, y), e in p.items():
            prod[(a + x, b + y)] = prod.get((a + x, b + y), 0) + c * e
    acc = 0
    for k in range(300):
        acc = acc * 12345 + k
    return len(prod) + acc % 7


class SpeedGauge:
    """Times ``reference_work`` between items, about every 0.25 s of item
    time, so that times can be scaled to a reference speed of the machine.

    The host this benchmark was tuned on runs other jobs, and its speed
    swings by up to a factor of two within a run; scaling each item by the
    samples taken next to it keeps only the program's share of its time.
    """

    REFERENCE_S = 0.008  # typical time of reference_work() on the tuning host
    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self._since = self.INTERVAL_S

    def tick(self, item_s: float) -> None:
        self._since += item_s
        if self._since >= self.INTERVAL_S:
            self._since = 0.0
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)

    def factor(self, index: int | None = None) -> float:
        """Multiply a measured time by this to get it at the reference speed:
        over the whole run, or next to sample ``index`` (the first sample
        taken after an item, averaged with the one before it)."""
        if index is None:
            near = self.samples
        else:
            index = min(index, len(self.samples) - 1)
            near = self.samples[max(index - 1, 0) : index + 1]
        return self.REFERENCE_S / statistics.fmean(near)


def run_passes(passes, gauge: SpeedGauge, tracer=None) -> list[dict]:
    records = []
    for items in passes:
        for item in items:
            record = execute(item, tracer)
            record["gauge"] = len(gauge.samples)
            gauge.tick(record["s"])
            records.append(record)
    return records


def at_reference_speed(records: list[dict], gauge: SpeedGauge) -> list[dict]:
    """Records with item and phase times scaled by the gauge next to each."""
    out = []
    for r in records:
        f = gauge.factor(r["gauge"])
        phases = {k: v * f for k, v in r["phases"].items()}
        out.append(dict(r, s=r["s"] * f, phases=phases))
    return out


def measure(workload, seed: int, first, seconds: float, gauge) -> tuple[list, list[dict]]:
    """Whole passes until about ``seconds`` of item time and the minimum count."""
    passes, records, elapsed = [], [], 0.0
    while True:
        items = first if not passes else workload.make_pass(seed, len(passes))
        passes.append(items)
        done = run_passes([items], gauge)
        records += done
        elapsed += sum(r["s"] for r in done)
        mean_pass = elapsed / len(passes)
        if len(records) >= workload.min_items and elapsed + mean_pass / 2 >= seconds:
            return passes, records


def run_traced(prog, passes, gauge) -> tuple[list[dict], dict[str, float], Tracer]:
    """The passes untraced, then again traced; per-layer metrics of the second."""
    plain = run_passes(passes, gauge)
    tracer = Tracer(prog)
    tracer.install()
    try:
        traced = run_passes(passes, gauge, tracer)
    finally:
        tracer.uninstall()
    for a, b in zip(plain, traced):
        if "canonical" in a and a["canonical"] != b.get("canonical"):
            b["problems"] = b["problems"] + ["output differs from the untraced run"]
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(r["s"] for r in plain) / sum(r["s"] for r in traced)
    metrics.update(split_metrics(plain))
    return plain + traced, metrics, tracer


def pct(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def digest(records: list[dict], first) -> str:
    """SHA-256 of the first pass's canonical outputs (first run of each item)."""
    canon = {}
    for r in records:
        canon.setdefault(r["item"], r.get("canonical"))
    doc = [[item.item_id, canon.get(item.item_id)] for item in first]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def split_metrics(records: list[dict]) -> dict[str, float]:
    """construct/certify split of witness items (0 where items have no split)."""
    construct = [r["phases"]["construct"] for r in records if "construct" in r["phases"]]
    certify = [r["phases"]["certify"] for r in records if "certify" in r["phases"]]
    if not construct:
        return {"construct_s.p50": 0.0, "certify_s.p50": 0.0, "certify_s.tail": 0.0}
    return {
        "construct_s.p50": statistics.median(construct),
        "certify_s.p50": statistics.median(certify),
        "certify_s.tail": pct(certify, WORKLOADS["witness-suite"].tail_pct),
    }


def end_to_end(records: list[dict], setup_s: float, tail_pct: int) -> dict[str, float]:
    times = [r["s"] for r in records]
    correct = sum(not r["problems"] for r in records)
    return {
        "setup_s": setup_s,
        "items_per_s": correct / sum(times),
        "item_s.p50": statistics.median(times),
        "item_s.tail": pct(times, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "peak_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "groebner.basis.unit_ratio": "ratio",
    "groebner.basis.out_coeff_bits.max": "bits",
    "linalg.rank_mod.decisive_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith((".s", "_s", ".p50", ".tail")) else "count"


def scale_metrics(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """Times (and rates) multiplied (divided) by a speed factor."""
    scale = {"s": factor, "1/s": 1 / factor}
    return {k: v * scale.get(unit_of(k), 1.0) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    workdir = OUT_DIR / "work"
    results_dir = OUT_DIR / "results"
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    gauge = SpeedGauge()
    try:
        prog, workload, first, setup_s, setup_ref_s = set_up(cls, args.seed, workdir, gauge)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run_passes([workload.warmup(args.seed)], gauge)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    report["machine"] = machine_facts(prog)

    if args.trace == 0:
        passes, records = measure(workload, args.seed, first, args.seconds, gauge)
        raw = end_to_end(records, setup_s, workload.tail_pct)
        scaled = at_reference_speed(records, gauge)
        metrics = end_to_end(scaled, setup_ref_s, workload.tail_pct)
        report["split"] = split_metrics(scaled)
    else:
        passes = [first] + [workload.make_pass(args.seed, j) for j in range(1, workload.trace_passes)]
        records, raw, tracer = run_traced(prog, passes, gauge)
        metrics = scale_metrics(raw, gauge.factor())
        report["by_family"] = tracer.by_family({r["item"]: r["family"] for r in records})
        spans_path = results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path)

    report["machine"]["speed_factor"] = gauge.factor()
    report["machine"]["reference_work_s"] = gauge.samples
    report["raw_metrics"] = raw
    failed = [r for r in records if r["problems"]]
    report["items"] = len(records)
    report["passes"] = len(passes)
    report["digest"] = digest(records, first)
    report["mismatches"] = {r["item"]: r["problems"] for r in failed}
    report["metrics"] = metrics
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"perfbench: {json.dumps(report['machine'], sort_keys=True)}", file=sys.stderr)
    print(f"perfbench: {len(records)} items in {len(passes)} passes, digest {report['digest']}", file=sys.stderr)
    for item, problems in report["mismatches"].items():
        print(f"perfbench: MISMATCH {item}: {'; '.join(problems)}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
