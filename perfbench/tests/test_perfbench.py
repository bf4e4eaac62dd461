"""Self-tests of the serving benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The tiny runs use ``--scale tiny`` (a 5k-row table, s=512), so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import spec, tracing  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _run(out: Path, workload: str, trace: int, seed: int = 7) -> dict:
    """One tiny CLI run; returns its last stdout line and saved record."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (out / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"result": result, "record": record}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Per workload: one untraced run and two traced runs of one seed."""
    runs = {}
    for name in spec.WORKLOADS:
        first = tmp_path_factory.mktemp(f"{name}-a")
        second = tmp_path_factory.mktemp(f"{name}-b")
        runs[name] = {
            "plain": _run(first, name, 0),
            "traced": _run(first, name, 1),
            "again": _run(second, name, 1),
            "out": first,
        }
    return runs


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == spec.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(tiny_runs, workload, trace):
    result = tiny_runs[workload]["traced" if trace else "plain"]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in table]
    for metric in table:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float)
    if not trace:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0.0, name


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_runs_repeat_deterministic_figures(tiny_runs, workload):
    first = tiny_runs[workload]["traced"]["record"]
    second = tiny_runs[workload]["again"]["record"]
    for name in ("qerror_p50", "qerror_p95", "qerror_max"):
        assert first["end_to_end"][name] == second["end_to_end"][name]
        assert (tiny_runs[workload]["plain"]["record"]["end_to_end"][name]
                == first["end_to_end"][name])
    for name in ("backend.rows_per_query", "model.tuner_updates",
                 "model.points_replaced"):
        assert first["per_layer"][name] == second["per_layer"][name]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_per_layer_table_recomputes_from_the_span_file(tiny_runs, workload):
    runs = tiny_runs[workload]
    record = runs["traced"]["record"]
    doc = json.loads((runs["out"] / record["trace_file"]).read_text())
    assert doc["fields"] == list(tracing.FIELDS)
    assert tracing.per_layer(doc) == record["per_layer"]
    spans = [tuple(s) for s in doc["spans"]]
    assert tracing.self_times(spans) == record["self_times"]
    assert record["attribution"]["unattributed"] == 0
    assert record["attribution"]["batches_with_size_mismatch"] == 0


def test_tiny_layer_counts_match_the_workload(tiny_runs):
    scan = tiny_runs["scan-heavy"]["traced"]["record"]["per_layer"]
    tune = tiny_runs["tune-feedback"]["traced"]["record"]["per_layer"]
    assert scan["backend.rows_per_query"] == spec.TINY_OVERRIDES["sample_size"]
    assert scan["backend.builds"] == 0 and scan["backend.build_p50_ms"] > 0
    assert tune["backend.rows_per_query"] == 0.0
    assert tune["backend.builds"] >= 1 and tune["backend.table_bytes"] > 0
    assert tune["backend.builds"] >= tune["server.publishes"] - 1
    assert scan["backend.qerror_vs_numpy_max"] == 1.0


def test_attribution_on_a_synthetic_timeline():
    # Batch 0 answers requests called before its submit at t=1.0.  Batch 1
    # is submitted at t=2.0 and ends at t=2.1, *before* batch 0's last
    # client resumes at t=2.2: "last batch ended before resolution" would
    # pick batch 1 for that client, the submit order picks batch 0.
    submits = [1.0, 2.0, 3.0]
    ends = [1.9, 2.1, 3.5]
    rows = [3, 2, 1]
    calls = [0.1, 0.5, 0.9, 1.2, 1.95, 2.5]
    resolved = [1.95, 2.0, 2.2, 2.15, 2.3, 3.6]
    assert tracing.attribute(calls, resolved, submits, ends, rows) == [0, 0, 0, 1, 1, 2]
    # More queued than the cap: the request called at 0.9, before batch 0
    # was submitted, waits in the queue for batch 1, and the one called at
    # 1.2 for batch 2.  Requests are given in no particular order.
    assert tracing.attribute(
        [0.9, 0.1, 1.2, 0.5], [2.3, 1.95, 3.6, 2.0], submits, ends, [2, 1, 1]
    ) == [1, 0, 2, 0]
    # Unsorted batches map to their own indices; a request that resolved
    # before its batch ended, came after the last submit, or found every
    # batch full stays unattributed.
    assert tracing.attribute(
        [0.5, 2.5], [1.95, 3.6], [3.0, 1.0], [3.5, 1.9], [1, 1]
    ) == [1, 0]
    assert tracing.attribute([0.5], [1.5], [1.0], [1.9], [1]) == [-1]
    assert tracing.attribute([4.0], [5.0], [1.0], [1.9], [1]) == [-1]
    assert tracing.attribute([0.1, 0.2], [2.0, 2.0], [1.0], [1.9], [1]) == [0, -1]


def test_windowed_figures_ignore_one_stalled_window():
    from perfbench import harness

    # Twenty seconds of 1 ms answers, the first second stalled at 50 ms.
    latencies = np.full(20_000, 1.0)
    latencies[:1000] = 50.0
    assert np.quantile(latencies, 0.99) == 50.0
    assert harness.windowed_quantile(latencies, 0.99, 20.0) == 1.0
    # 1000 answers per second after a 4 s stall with no answers at all.
    ends = np.concatenate([np.linspace(4.001, 5.0, 1000),
                           5.0 + np.arange(1, 19_001) / 1000.0])
    assert len(ends) / 24.0 < 900
    assert harness.windowed_rate(ends, 0.0, 24.0) == pytest.approx(1000.0)
    # Too few samples for ten beyond p99 in two windows: the plain p99.
    few = np.arange(500.0)
    assert harness.windowed_quantile(few, 0.99, 20.0) == np.quantile(few, 0.99)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "frontend.batch", 0.0, 10.0, None, None, None),
        (2, "executor.run", 2.0, 10.0, 1, None, None),
        (3, "reader.selectivity_batch", 3.0, 9.0, 2, None, None),
        (4, "backend.selectivity_block", 3.5, 6.0, 3, None, None),
        (5, "backend.selectivity_block", 5.0, 8.0, 3, None, None),
    ]
    table = tracing.self_times(spans)
    assert table["frontend.batch"] == {"count": 1, "total_s": 10.0, "self_s": 2.0}
    assert table["executor.run"]["self_s"] == 2.0
    assert table["reader.selectivity_batch"]["self_s"] == 1.5
    assert table["backend.selectivity_block"] == {
        "count": 2, "total_s": 5.5, "self_s": 5.5
    }


def test_tracing_wrappers_are_removed_after_use():
    from repro.core.estimator import KernelDensityEstimator
    from repro.serve.server import SnapshotServer

    before = (KernelDensityEstimator.selectivity_batch, SnapshotServer.feedback,
              vars(KernelDensityEstimator)["from_state"])
    undo = tracing.install(tracing.Tracer())
    assert KernelDensityEstimator.selectivity_batch is not before[0]
    undo()
    assert (KernelDensityEstimator.selectivity_batch, SnapshotServer.feedback,
            vars(KernelDensityEstimator)["from_state"]) == before


def test_run_without_program_source_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
