"""Tests of the benchmark itself: inputs, span arithmetic and a smoke run.

Run from the repository root:  python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spinweil.spingeo import Spinor  # noqa: E402


def _cayley_items(seed, units=20):
    return [item for unit in itertools.islice(workloads.cayley_units(seed),
                                              units) for item in unit]


def test_cayley_inputs_are_deterministic_per_seed_and_distinct():
    first = [item.argv for item in _cayley_items(7)]
    assert first == [item.argv for item in _cayley_items(7)]
    assert first != [item.argv for item in _cayley_items(8)]
    assert len({tuple(argv) for argv in first}) == len(first)


def test_iso_spinors_are_isotropic_and_noniso_are_not():
    items = _cayley_items(3)
    kinds = [item.kind for item in items]
    assert kinds.count("iso") == workloads.ISO_PER_NONISO * kinds.count(
        "noniso")
    for item in items:
        assert Spinor(item.z).is_isotropic() == (item.kind == "iso")
        if item.kind == "noniso":
            assert sum(1 for c in item.z if c) == workloads.NONISO_NONZERO
            assert max(abs(c) for c in item.z) <= workloads.NONISO_HEIGHT


def test_self_time_on_a_synthetic_nested_call():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def advance(dt):
        now[0] += dt

    def leaf():
        advance(2.0)

    def recurse(n):
        advance(1.0)
        if n:
            recurse(n - 1)

    def outer():
        advance(1.0)
        leaf()
        advance(3.0)
        recurse(2)

    leaf = tracer.wrap("b", "b.leaf", leaf)
    recurse = tracer.wrap("b", "b.recurse", recurse)
    outer = tracer.wrap("a", "a.outer", outer,
                        classify=lambda args, outermost: ["a.extra"])
    outer()
    assert tracer.inclusive["a.outer"] == 9.0
    assert tracer.inclusive["a.extra"] == 9.0
    assert tracer.inclusive["b.leaf"] == 2.0
    assert tracer.inclusive["b.recurse"] == 3.0  # outermost call only
    assert tracer.calls["b.recurse"] == 3
    assert tracer.self_s["a"] == 4.0
    assert tracer.self_s["b"] == 5.0
    assert sum(tracer.self_s.values()) == 9.0

    tracer.enabled = False
    outer()
    assert tracer.calls["a.outer"] == 1


def test_gauge_leaves_out_its_passes_and_scales_by_the_nearby_ones():
    gauge = worker.Gauge()
    gauge.measure()
    mark = gauge.start()
    gauge.measure()  # a pass during the stretch, as the timer makes them
    cpu_s, first, end = gauge.end(mark)
    assert (first, end) == (1, 2)
    assert 0 <= cpu_s < gauge.passes[1] / 2

    gauge.passes = [0.1, 0.2, 0.025, 0.075, 0.9]
    # passes 2 and 3 were made during the stretch: 1 and 4 lie next to it
    assert gauge.scaled((2.0, 2, 4)) == pytest.approx(
        2.0 * worker.REFERENCE_NOMINAL_S / 0.3)
    assert gauge.scaled((2.0, 0, 0)) == pytest.approx(
        2.0 * worker.REFERENCE_NOMINAL_S / 0.1)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert names == spans.metric_specs()
    assert len(names) <= 128


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes(workload):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert doc["correct"] is True and doc["failed"] == 0
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_smoke_run_reports_every_layer():
    proc = _run("--workload", "cayley", "--seed", "2", "--seconds", "1",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [name for name, _, _ in spans.metric_specs()]
    assert metrics["linalg.nullspace.1470x70.calls"]["value"] == 1
    assert metrics["reps.cayley_class.calls"]["value"] == 11
    assert metrics["spingeo.subspace_of_spinor.calls"]["value"] == 0
    assert 0.9 < metrics["trace.self_coverage"]["value"] <= 1.0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cayley", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
