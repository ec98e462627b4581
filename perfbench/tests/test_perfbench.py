"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``).

Every workload is smoke-run at its tiny size through the same command
the benchmark is driven by, in both trace modes.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from mdf import cli

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: counts that must repeat exactly between traced runs
EXACT_COUNTS = (
    "standard_form.project_order_interval.iterations",
    "dirichlet.operator.builds.exact",
    "dirichlet.operator.builds.quadrature",
    "kernels.hat_quadrature.grid_entries",
)


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


_RUNS = {}


def smoke(workload, trace, repeat=0):
    key = (workload, trace, repeat)
    if key not in _RUNS:
        proc = bench(
            "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"
        )
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_the_metrics_of_benchmark_json(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["projection", "assembly_n16", "cauchy_n3"])
def test_exact_counts_repeat_between_traced_runs(workload):
    first, second = smoke(workload, 1), smoke(workload, 1, repeat=1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name]
    counts = {k for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_traced_runs_exercise_the_layers_their_workloads_exist_for():
    def value(workload, name):
        return smoke(workload, 1)["metrics"][name]["value"]

    assert value("projection", "standard_form.project_order_interval.iterations") > 0
    assert value("assembly_n16", "standard_form.project_order_interval.calls") == 0
    assert value("cauchy_n3", "kernels.hat_quadrature.grid_entries") > 0


def _namespaces():
    """Identity snapshot of every function held by an mdf module namespace,
    a module-level dict or a class of the module (caches may grow; these may not change)."""
    state = {}
    for module in tracer.mdf_modules():
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = value
            if isinstance(value, dict):
                for key, item in value.items():
                    state[(module.__name__, attr, key)] = item
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for key, item in vars(value).items():
                    state[(module.__name__, attr, "class", key)] = item
    return {key: value for key, value in state.items() if callable(value)}


def _assert_same(before, after):
    changed = [key for key in before.keys() | after.keys() if after.get(key) is not before.get(key)]
    assert changed == []


def test_tracer_patches_every_namespace_and_restores_it(tmp_path):
    before = _namespaces()
    originals = [tracer.resolve(t)[2] for targets in tracer.SPANS.values() for t in targets]
    originals += [tracer.resolve(t)[2] for t in tracer.COUNTED]
    t = tracer.Tracer()
    t.install()
    try:
        during = _namespaces()
        holders = [key for key, value in during.items() if any(value is o for o in originals)]
        assert holders == []
        suite_table = ("mdf.cli", "_SUITE_RUNNERS", "semigroup")
        assert during[suite_table] is not before[suite_table]
    finally:
        t.uninstall()
    _assert_same(before, _namespaces())

    # a traced pass hands back the untouched namespaces to the next, untraced pass
    scenarios = workloads.build("projection", 5, tiny=True)
    paths = workloads.write(scenarios, tmp_path)
    traced = run.run_pass(cli, scenarios, paths, tracer.Tracer())
    assert traced.traced and traced.layers["standard_form.project_order_interval.calls"] > 0
    _assert_same(before, _namespaces())
    untraced = run.run_pass(cli, scenarios, paths)
    assert not any(r.failed for r in traced.runs + untraced.runs)


def test_known_defect_is_a_counted_failure_not_a_crash():
    proc = bench(
        "--workload", "projection", "--seed", "1", "--seconds", "0", "--trace", "0",
        "--tiny", "--known-defects",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 3
    assert any("gibbs_two_level_beta14" in line and "NoConvergence" in line for line in lines)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
