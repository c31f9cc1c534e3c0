"""Tests of the benchmark itself: seeded inputs, span arithmetic, tiny runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracles, run, runner, spans, workloads  # noqa: E402

END_TO_END = ("setup_s", "batch_s", "tasks_per_s", "task_p50_ms", "peak_rss_mb")


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_entry_point_knows_every_workload():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in _benchmark_spec()["workloads"]] == list(workloads.WORKLOADS)


def _labels(workload, n_stream):
    return ([t.label for t in workload.batch]
            + [workload.stream(i, 0).label for i in range(n_stream)])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_tasks(name, tmp_path):
    first = _labels(workloads.build(name, 11, tmp_path), 120)
    again = _labels(workloads.build(name, 11, tmp_path), 120)
    other = _labels(workloads.build(name, 12, tmp_path), 120)
    assert first == again
    assert first != other


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child
    # [6, 7]; a malformed child [3, 6] of the root overlaps the first one.
    tree = [
        (2, 1, "c", 6.0, 7.0),
        (1, 0, "b", 5.0, 9.0),
        (3, 0, "a", 1.0, 4.0),
        (4, 0, "a", 3.0, 6.0),
        (0, -1, "root", 0.0, 10.0),
    ]
    own = spans.self_times(tree)
    assert own[2] == pytest.approx(1.0)
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(3.0)
    # children cover [1, 9] once, not 3 + 3 + 4
    assert own[0] == pytest.approx(2.0)
    totals = spans.layer_totals(tree)
    assert totals["a"] == {"calls": 2, "self_s": pytest.approx(6.0), "total_s": pytest.approx(6.0)}


def test_recorder_nests_calls_made_inside_the_package():
    from ringcasimir import lattice, vqe

    recorder = spans.Recorder()
    original = vqe.expectation
    with spans.instrumented(recorder):
        spec = lattice.ring_hamiltonian(lattice.ModeFamily.from_label("fermion-periodic", 2))
        result = vqe.run_vqe(spec, vqe.VqeConfig(max_iterations=20))
    assert vqe.expectation is original
    totals = spans.layer_totals(recorder.spans)
    assert totals["pauli.expectation"]["calls"] == result.evaluations
    assert recorder.counts["vqe.objective.evals"] == result.evaluations
    by_id = {s[0]: s for s in recorder.spans}
    parents = {by_id[s[1]][2] for s in recorder.spans if s[2] == "pauli.expectation"}
    assert parents == {"vqe.minimize"}


def test_oracles_agree_with_closed_forms():
    # closed-form sine sum against the plain loop
    for label in oracles.FAMILIES:
        for n in (1, 5, 17):
            loop = sum(oracles.mode_frequencies(label, n)) * (0.5 if label[0] == "b" else -0.5)
            assert oracles.raw_mode_sum(label, n) == pytest.approx(loop, abs=1e-13)
    assert oracles.casimir("boson-periodic", 1) == pytest.approx(-0.2371, abs=5e-5)
    assert oracles.term_count("boson-periodic", 8) == 17
    assert oracles.term_count("combined-twisted", 6) is None
    assert oracles.bulk_density(1.0) == pytest.approx(-8.0 / math.pi, rel=1e-8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_pass_reports_every_metric(name, trace, tmp_path):
    spec = _benchmark_spec()
    wanted = [m["name"] for m in spec["end_to_end" if not trace else "per_layer"]]
    workload = workloads.build(name, 5, tmp_path, small=True)
    result, record, _ = runner.run(workload, 0.01, trace, setup_samples=[0.5])
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_frac"] == 0.0
    assert sorted(result["metrics"]) == sorted(wanted)
    for metric in spec["end_to_end" if not trace else "per_layer"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in END_TO_END)
        if workload.lapack_batch:
            assert result["metrics"]["batch_s"]["value"] == record["raw_batch_s"]
