"""Smoke tests of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _p in (str(ROOT / "src"), str(BENCH)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import mhect.cli  # noqa: E402
import mhect.mhe  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = sorted(WORKLOADS)     # long_window too, which BENCHMARK.json leaves out

# the end-to-end metrics each workload prints under its own names
PRINTED = {
    "reactor_s5": [("solve_p50_ms", "ms"), ("solve_p90_ms", "ms"), ("est_err_rms", "state"),
                   ("audit_margin_min", "1"), ("cost_excess_max", "1")],
    "certify": [("verify_ms", "ms"), ("synth_s", "s")],
}
PRINTED["long_window"] = PRINTED["reactor_s5"]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_spec_lists_the_benchmarked_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["reactor_s5", "certify"]
    assert set(WORKLOADS) == {"reactor_s5", "long_window", "certify"}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_timed_run_prints_every_end_to_end_metric(workload):
    report, res = bench(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in report
               if line.startswith("  ") and len(line.split()) >= 3}
    for name, unit in PRINTED[workload] + [("failed_frac", "1")] + list(expected.items()):
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    _, res = bench(workload, 1)
    assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "certify":
        assert m["certify.lmi_matrix_calls"] > 0 and m["mhe.solve_calls"] == 0
    else:
        assert m["mhe.solve_calls"] > 0 and m["integrate.rk4_step_calls"] > 0
        assert m["sysmodel.f_calls"] > 0 and m["cli.draws"] > 0


def test_tracer_restores_every_original(tmp_path):
    wl = WORKLOADS["reactor_s5"](1, tiny=True)
    tr = tracing.Tracer()
    solve = mhect.mhe.solve_mhe
    tr.install(models=[wl.model])
    patched = list(tr._patches)
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
        p = wl.run_pass(1, str(tmp_path))
    finally:
        tr.uninstall()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in patched)
    assert mhect.mhe.solve_mhe is solve
    layers = worker.layer_metrics(tr, p)
    assert layers["mhe.solve_calls"] == p.counts["mhe.solve_calls"] == 10
    assert layers["integrate.rk4_step_calls"] > 0 and layers["sysmodel.jac_calls"] > 0


def test_failed_frac_counts_an_infeasible_window(tmp_path, monkeypatch):
    wl = WORKLOADS["reactor_s5"](1, tiny=True)
    solve = mhect.mhe.solve_mhe
    third = mhect.cli.bench_times()[2]

    def third_window_infeasible(*args, **kwargs):
        sol = solve(*args, **kwargs)
        if abs(sol.t_i - third) < 1e-9:
            sol.stats.feasible = False
        return sol

    monkeypatch.setattr(mhect.mhe, "solve_mhe", third_window_infeasible)
    _, extra, attempted, failures = worker.timed_run(wl, 3.0, str(tmp_path))
    # the set-up check, 10 windows and an audit, and every repeat, which
    # reproduces the infeasible window exactly
    assert extra["n_repeats"] > 0
    assert attempted == 1 + 10 + 1 + extra["n_repeats"]
    assert len(failures) == 1 and "infeasible" in failures[0]


def test_a_repeat_that_differs_is_a_failure(tmp_path, monkeypatch):
    wl = WORKLOADS["reactor_s5"](1, tiny=True)
    solve = mhect.mhe.solve_mhe
    calls = []

    def drifting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        calls.append(1)
        if len(calls) > 10:     # every call after the pass's ten windows
            sol.stats.iterations += 1
        return sol

    monkeypatch.setattr(mhect.mhe, "solve_mhe", drifting)
    _, extra, attempted, failures = worker.timed_run(wl, 3.0, str(tmp_path))
    assert extra["n_repeats"] > 0
    assert len(failures) == extra["n_repeats"]
    assert all("differs from its first result" in f for f in failures)


def test_failed_frac_counts_a_raising_synthesis(tmp_path, monkeypatch):
    wl = WORKLOADS["certify"](1, tiny=True)
    original = tracing.certify.synthesize_certificate

    def joint_fails(model, lam, mode, grid, *rest):
        if mode == "joint":
            raise tracing.certify.InfeasibleError("made to fail")
        return original(model, lam, mode, grid, *rest)

    monkeypatch.setattr(tracing.certify, "synthesize_certificate", joint_fails)
    _, extra, attempted, failures = worker.timed_run(wl, 0, str(tmp_path))
    # one pass of five operations, no time left for repeats
    assert extra["n_repeats"] == 0 and attempted == 5
    assert len(failures) == 1 and "synth_joint_vertices" in failures[0]


def test_repeat_plan_and_quantile():
    # the cheap operations reach the cap, the costliest keeps its two repeats
    assert worker.plan_repeats([0.01, 0.1, 1.0, 5.0], 20.0) == [30, 30, 6, 2]
    assert worker.plan_repeats([0.01, 0.1, 1.0, 5.0], -1.0) == [2, 2, 2, 2]
    assert worker.quantile([3.0], 0.9) == pytest.approx(3.0)
    assert worker.quantile([float(v) for v in range(1, 100)], 0.5) == pytest.approx(50.0)
    assert 80.0 < worker.quantile([float(v) for v in range(1, 100)], 0.9) < 95.0
