"""Tests of the benchmark itself: smoke runs, failure accounting, spans.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cli_requests  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cvbell import cfrd, fock, search  # noqa: E402
from measure import Unit, measure  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for m in declared:
        assert any(line.startswith(f"metric {m['name']} = ")
                   and f" {m['unit']}" in line for line in lines), m["name"]


def test_all_runs_each_workload_and_sums_them():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.5", "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in WORKLOADS
                                      for m in BENCHMARK["end_to_end"]}


def test_run_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "theorem_sweep", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_flipped_minor_sign_counts_as_failure(monkeypatch):
    real = cfrd.cfrd_evaluate

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        report.minor_d = -report.minor_d
        return report

    monkeypatch.setattr(cfrd, "cfrd_evaluate", flipped)
    m = measure(inproc.TheoremSweep(3, tiny=True).cycle, 0)
    assert m.failed == m.attempted > 0
    assert all("minor_d" in e for e in m.errors)


def test_no_cycle_starts_that_would_overrun_the_window():
    def run(_tracer):
        time.sleep(0.2)
        return 0, []

    # a second 0.2-s cycle would end past 1.5 x 0.25 s
    assert measure(lambda k: [Unit("sleep", 1, run)], 0.25).cycles == 1
    assert measure(lambda k: [Unit("sleep", 1, run)], 0.5).cycles > 1


def test_positive_two_mode_beta_counts_as_failure(monkeypatch):
    real = search.best_beta_two_mode_batch
    monkeypatch.setattr(search, "best_beta_two_mode_batch",
                        lambda *a, **k: -real(*a, **k))
    m = measure(inproc.TwoModeBatch(3, tiny=True).cycle, 0)
    assert m.failed == m.attempted > 0


def test_inconsistent_verify_report_counts_as_failure(tmp_path):
    workload = cli_requests.CliRequests(3, True, tmp_path, run.child_env())
    request = next(r for r in workload.cycles[0] if r.argv[0] == "verify")
    proc = subprocess.run([sys.executable, "-m", "cvbell.cli", *request.argv],
                          env=workload.env, capture_output=True, text=True,
                          timeout=120)
    assert workload.response_problems(request, proc.returncode, proc.stdout,
                                      proc.stderr) == []
    doc = json.loads(proc.stdout)
    doc["consistent"] = False
    assert workload.response_problems(request, 0, json.dumps(doc), "")
    assert workload.response_problems(request, 4, proc.stdout, "")


def test_self_time_subtracts_the_union_of_children():
    recorded = [[0, None, "parent", 0.0, 10.0, {}],
                [1, 0, "a", 1.0, 3.0, {}],
                [2, 0, "b", 2.0, 5.0, {}],   # overlaps a
                [3, 0, "c", 9.0, 12.0, {}]]  # runs past the parent's end
    assert spans.self_times(recorded) == [5.0, 2.0, 3.0, 3.0]


def test_traced_run_self_times_within_durations_and_bindings_restored():
    original = fock.product_operator_expectation
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cfrd.product_operator_expectation is not original
        m = measure(inproc.TheoremSweep(3, tiny=True).cycle, 0, tracer)
    finally:
        tracer.uninstall()
    assert cfrd.product_operator_expectation is original
    assert m.failed == 0
    layers = {span[2] for span in tracer.spans}
    assert {"fock.random_state", "cfrd.cfrd_evaluate",
            "moments.cfrd_minor_determinant"} <= layers
    for span, own in zip(tracer.spans, spans.self_times(tracer.spans)):
        assert -1e-12 <= own <= span[4] - span[3]
