"""Tests of the benchmark itself, on tiny versions of each workload that go
through the same measurement path as a full run.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from workloads import DECONV_PROBLEM, WORKLOADS, check_run  # noqa: E402

TINY = {
    # Seeds 2 and 3 converge in 34 and 41 iterations.
    "deconv-n64": {"seed_pool": (2, 3)},
    "deconv-n1024": {"problem": {"N": 128, **DECONV_PROBLEM}, "solver": {"max_iter": 5}, "batch_size": 1},
    "subspace-audit": {"batch_size": 2, "solver": {"audit_samples": 5}},
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def measured(request, tmp_path_factory):
    workload = dataclasses.replace(WORKLOADS[request.param], **TINY[request.param])
    return run.measure(workload, seed=0, seconds=0.0, trace=True, work=tmp_path_factory.mktemp("work"))


def test_tiny_workload_passes_its_checks(measured):
    assert measured.attempted > 0
    assert measured.failures == []


def test_tracing_leaves_digests_unchanged(measured):
    assert len(measured.reps[False]) >= 1 and len(measured.reps[True]) >= 1
    assert measured.bits_reproduced()


def test_self_times_fit_in_traced_wall(measured):
    for rep in measured.reps[True]:
        wall_ms = 1e3 * rep["wall_s"]
        assert 0.0 < sum(t["self_ms"] for t in rep["spans"].values()) <= wall_ms
        assert sum(v for k, v in rep["layers"].items() if k.endswith("self_ms")) <= wall_ms


def test_reported_metrics_are_the_declared_ones(measured):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(measured.end_to_end()) == {m["name"] for m in spec["end_to_end"]}
    assert set(measured.per_layer()) == {m["name"] for m in spec["per_layer"]}


def test_seeds_come_from_the_seed_argument():
    for workload in WORKLOADS.values():
        assert workload.config(7) == workload.config(7)
    audit = WORKLOADS["subspace-audit"]
    assert audit.seeds(1) != audit.seeds(2)
    assert sorted(WORKLOADS["deconv-n64"].seeds(1)) == list(range(20))


def test_rising_trace_fails_the_run_check(tmp_path):
    (tmp_path / "report.json").write_text(
        json.dumps({"runs": {"0": {"converged": True, "iterations": 2, "final_f": 1.0, "final_dc": 0.0, "stationarity_score": 0.0}}})
    )
    (tmp_path / "trace_0.csv").write_text(
        "iter,f,f_after_G,dc_step,grad_norm_G,grad_norm_c\n0,3,2,0.1,1,1\n1,2.5,1,0.1,1,1\n"
    )
    attempted, failures = check_run(tmp_path, [0], 0, require_converged=True)
    assert attempted == 1
    assert len(failures) == 1 and "rises" in failures[0]


def test_missing_sources_exit_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "deconv-n64", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
