"""Smoke test of the benchmark: a few cheap items per workload.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric listed in BENCHMARK.json is emitted with its unit,
that the known answers hold, that tracing restores every wrapped name, and
that the self times of a traced run add up to its root spans.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def warm(request, tmp_path_factory):
    cls = WORKLOADS[request.param]
    prog, workload, _, _, setup_s = run.set_up(cls, 0, tmp_path_factory.mktemp(cls.name), run.SpeedGauge())
    return cls.name, prog, workload.warmup(0), setup_s


def test_workloads_are_listed():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_end_to_end_metrics(warm):
    name, _, items, setup_s = warm
    gauge = run.SpeedGauge()
    records = run.run_passes([items], gauge)
    assert gauge.samples and gauge.factor() > 0
    assert [r["problems"] for r in records if r["problems"]] == []
    metrics = run.end_to_end(records, setup_s, WORKLOADS[name].tail_pct)
    assert {k: run.unit_of(k) for k in metrics} == metric_units("end_to_end")
    assert all(v > 0 for v in metrics.values())


def test_per_layer_metrics_and_self_time(warm):
    name, prog, items, _ = warm
    MultiPoly = prog.polynomials.MultiPoly
    before = (prog.cli.main, prog.singularities.groebner_basis, MultiPoly.__mul__)
    records, metrics, tracer = run.run_traced(prog, [items], run.SpeedGauge())
    assert (prog.cli.main, prog.singularities.groebner_basis, MultiPoly.__mul__) == before
    assert [r["problems"] for r in records if r["problems"]] == []
    assert {k: run.unit_of(k) for k in metrics} == metric_units("per_layer")

    selfs = tracer.self_times()
    boundary = [i for i, span in enumerate(tracer.spans) if not span[5]]
    roots = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in boundary if tracer.spans[i][3] < 0)
    assert sum(selfs[i] for i in boundary) == pytest.approx(roots, rel=1e-9)
    assert all(selfs[i] >= -1e-9 for i in boundary)
    if name == "exact-core":
        assert metrics["groebner.basis.calls"] == 0
    else:
        assert metrics["groebner.basis.calls"] > 0


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "exact-core"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
