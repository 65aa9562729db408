"""The summary arithmetic of scripts/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs",
                                               ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def synthetic_runs(parent: dict, change: dict) -> list[dict]:
    """One run per side and pair; parent and change map each metric name
    to its values, pair by pair."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for i in range(len(next(iter(values.values())))):
            metrics = {name: {"value": vs[i]} for name, vs in values.items()}
            runs.append({"pair": i, "side": side, "metrics": metrics})
    return runs


def summary_of(parent_job, change_job, parent_tp=None, change_tp=None):
    parent_tp = parent_tp or [100.0] * len(parent_job)
    change_tp = change_tp or [100.0] * len(change_job)
    runs = synthetic_runs({"job_s": parent_job, "throughput_per_s": parent_tp},
                          {"job_s": change_job, "throughput_per_s": change_tp})
    return bench_pairs.summarize(runs, SPEC)


@pytest.mark.parametrize("values, expected", [
    ([3.0], (3.0, 3.0, 3.0)),
    ([5.0, 1.0, 4.0, 2.0, 3.0], (2.0, 3.0, 4.0)),
    ([1.0, 2.0, 3.0, 4.0], (1.75, 2.5, 3.25)),
])
def test_quartiles(values, expected):
    assert bench_pairs.quartiles(values) == pytest.approx(expected)


def test_wins_count_the_better_direction_and_ties_for_neither():
    s = summary_of([1.0, 1.0, 1.0, 1.0], [0.5, 1.0, 2.0, 0.9],
                   [100.0, 100.0, 100.0, 100.0], [110.0, 100.0, 90.0, 120.0])
    assert (s["job_s"]["change_wins"], s["job_s"]["parent_wins"]) == (2, 1)
    assert (s["throughput_per_s"]["change_wins"],
            s["throughput_per_s"]["parent_wins"]) == (2, 1)
    assert s["job_s"]["pairs"] == 4


def test_median_gap_against_the_parent_spread():
    s = summary_of([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 1.0, 2.0, 3.0, 4.0])["job_s"]
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["change"] == {"median": 2.0, "q1": 1.0, "q3": 3.0}
    assert s["median_gap"] == 1.0 and s["parent_spread"] == 2.0
    assert not s["gap_exceeds_spread"]
    assert s["relative_change"] == pytest.approx(-1 / 3)
    wide = summary_of([1.0, 1.1, 1.2], [0.5, 0.6, 0.7])["job_s"]
    assert wide["median_gap"] == pytest.approx(0.5)
    assert wide["gap_exceeds_spread"]


@pytest.mark.parametrize("change_job, within", [(1.2, True), (1.25, True), (1.3, False),
                                                (0.1, True)])
def test_bound_on_a_lower_is_better_metric(change_job, within):
    assert summary_of([1.0], [change_job])["job_s"]["within_bound"] is within


@pytest.mark.parametrize("change_tp, within", [(76.0, True), (74.0, False), (300.0, True)])
def test_bound_on_a_higher_is_better_metric(change_tp, within):
    s = summary_of([1.0], [1.0], [100.0], [change_tp])["throughput_per_s"]
    assert s["within_bound"] is within
    assert s["median_gap"] == pytest.approx(change_tp - 100.0)


def test_a_pair_with_one_side_is_left_out():
    runs = synthetic_runs({"job_s": [1.0, 1.0], "throughput_per_s": [1.0, 1.0]},
                          {"job_s": [0.5, 0.5], "throughput_per_s": [2.0, 2.0]})
    runs.append({"pair": 2, "side": "parent",
                 "metrics": {"job_s": {"value": 9.0}, "throughput_per_s": {"value": 9.0}}})
    s = bench_pairs.summarize(runs, SPEC)["job_s"]
    assert s["pairs"] == 2 and s["parent"]["median"] == 1.0


def test_every_end_to_end_metric_of_the_benchmark_is_summarized():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    runs = synthetic_runs({name: [1.0, 2.0] for name in names},
                          {name: [1.5, 1.5] for name in names})
    summary = bench_pairs.summarize(runs, spec)
    assert list(summary) == names
    assert all(s["pairs"] == 2 for s in summary.values())
