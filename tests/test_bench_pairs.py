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


@pytest.mark.parametrize("parent_job, change_job, unresolved", [
    ([0.8, 1.0, 1.2, 1.4, 1.6], [1.0, 1.1, 1.2, 1.3, 1.4], True),  # spread 0.4/1.2
    ([0.8, 1.0, 1.2, 1.4, 1.6], [0.5, 0.6, 0.7, 0.7, 0.75], False),  # every run better
    ([0.8, 1.0, 1.2, 1.4, 1.6], [0.5, 0.6, 0.7, 0.7, 0.8], True),  # one run ties
    ([1.0, 1.1, 1.2, 1.3, 1.4], [1.6, 1.6, 1.6, 1.6, 1.6], False),  # spread 0.2/1.2
])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(parent_job,
                                                                 change_job,
                                                                 unresolved):
    s = summary_of(parent_job, change_job)["job_s"]
    assert s["unresolved"] is unresolved
    assert ("unresolved" in bench_pairs.format_summary(
        "w", {"job_s": s}, bench_pairs.failure_totals([]))[2]) is unresolved


def test_unresolved_on_a_higher_is_better_metric():
    parent_tp, change_tp = [60.0, 80.0, 100.0, 120.0, 140.0], [150.0] * 5
    s = summary_of([1.0] * 5, [1.0] * 5, parent_tp, change_tp)["throughput_per_s"]
    assert not s["unresolved"]
    s = summary_of([1.0] * 5, [1.0] * 5, parent_tp, [150.0] * 4 + [140.0])
    assert s["throughput_per_s"]["unresolved"]


@pytest.mark.parametrize("parent, change, fails_more", [
    ([(0, 100), (0, 100)], [(0, 100), (0, 100)], False),
    ([(0, 100), (0, 100)], [(1, 300), (0, 300)], True),
    ([(2, 100), (0, 100)], [(1, 100), (1, 100)], False),  # equal shares
    ([(1, 100), (0, 100)], [(1, 400), (1, 400)], False),  # 2/800 < 1/200
])
def test_failure_totals_compare_failed_shares(parent, change, fails_more):
    runs = [{"pair": i, "side": side, "failed": f, "attempted": a}
            for side, counts in (("parent", parent), ("change", change))
            for i, (f, a) in enumerate(counts)]
    runs.append({"pair": 2, "side": "change", "exit_code": 1, "stderr_tail": []})
    totals = bench_pairs.failure_totals(runs)
    assert totals["parent"] == {"failed": sum(f for f, _ in parent),
                                "attempted": sum(a for _, a in parent)}
    assert totals["change"] == {"failed": sum(f for f, _ in change),
                                "attempted": sum(a for _, a in change)}
    assert totals["change_fails_more"] is fails_more
    line = bench_pairs.format_summary("w", {}, totals)[1]
    assert line.startswith("failed") and f"change {totals['change']['failed']}/" in line
    assert ("CHANGE FAILS MORE" in line) is fails_more


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


FAKE_RUN = '''
import argparse, json, pathlib, sys
parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
root = pathlib.Path(__file__).resolve().parent.parent
count = root / "runs.txt"
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
if n == {fail_at}:
    print("Traceback (most recent call last):", file=sys.stderr)
    print("RuntimeError: run " + str(n) + " broke", file=sys.stderr)
    sys.exit(1)
out = root / ".bench_out"
out.mkdir(exist_ok=True)
(out / f"{{args.workload}}-seed{{args.seed}}-trace0.json").write_text(
    json.dumps({{"provenance": {{"run": n}}}}))
metrics = {{name: {{"value": float(n)}} for name in {names!r}}}
print(json.dumps({{"correct": 1, "attempted": 1, "failed": 0, "metrics": metrics}}))
'''


def fake_tree(root, fail_at):
    """A checkout whose perfbench/run.py counts its runs in runs.txt, exits 1
    with a traceback on run fail_at and otherwise prints a result whose every
    metric reads the run number."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        FAKE_RUN.format(fail_at=fail_at, names=names), encoding="utf-8")
    return root


def test_a_failed_run_is_recorded_and_earlier_runs_kept(tmp_path, capsys):
    tree = fake_tree(tmp_path / "tree", 2)
    out = tmp_path / "BENCH.json"
    status = bench_pairs.main(["--parent", str(tree), "--change", str(tree),
                               "--workload", "w", "--pairs", "3", "--first-seed", "7",
                               "--seconds", "1", "--out", str(out)])
    assert status == 1
    runs = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [(0, "parent"), (0, "change")]
    assert runs[0]["provenance"] == {"run": 1} and "exit_code" not in runs[0]
    assert runs[1]["exit_code"] == 1
    assert runs[1]["stderr_tail"][-1] == "RuntimeError: run 2 broke"
    err = capsys.readouterr().err
    assert "pair 0 seed 7 change: exit code 1" in err
    assert "RuntimeError: run 2 broke" in err


def test_pairs_alternate_and_other_workloads_are_kept(tmp_path):
    tree = fake_tree(tmp_path / "tree", 0)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"other": {"runs": []}}}), encoding="utf-8")
    assert bench_pairs.main(["--parent", str(tree), "--change", str(tree),
                             "--workload", "w", "--pairs", "2", "--first-seed", "7",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["workloads"]) == {"other", "w"}
    runs = doc["workloads"]["w"]["runs"]
    # pair 1 runs the change first
    assert [(r["pair"], r["side"], r["seed"]) for r in runs] == [
        (0, "parent", 7), (0, "change", 7), (1, "change", 8), (1, "parent", 8)]
    assert doc["workloads"]["w"]["summary"]["job_s"]["pairs"] == 2


def test_failure_totals_are_written_and_printed(tmp_path, capsys):
    tree = fake_tree(tmp_path / "tree", 0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tree), "--change", str(tree),
                             "--workload", "w", "--pairs", "2", "--first-seed", "7",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["workloads"]["w"]["failures"] == {
        "parent": {"failed": 0, "attempted": 2}, "change": {"failed": 0, "attempted": 2},
        "change_fails_more": False}
    assert "failed             parent 0/2  change 0/2\n" in capsys.readouterr().out


def test_job_counts_take_each_sides_median():
    runs = [{"pair": 0, "side": "parent", "jobs": 10},
            {"pair": 1, "side": "parent", "jobs": 14},
            {"pair": 2, "side": "parent", "jobs": None},
            {"pair": 0, "side": "change", "jobs": 30},
            {"pair": 1, "side": "change", "exit_code": 1, "stderr_tail": []}]
    assert bench_pairs.job_counts(runs) == {"parent": 12, "change": 30}
    assert bench_pairs.job_counts(runs[:3]) == {"parent": 12, "change": None}


def test_job_counts_are_printed_beside_peak_rss_only():
    runs = synthetic_runs({"job_s": [1.0], "peak_rss_mb": [40.0]},
                          {"job_s": [1.0], "peak_rss_mb": [42.0]})
    spec = {"end_to_end": SPEC["end_to_end"][:1] + [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15}]}
    lines = bench_pairs.format_summary("w", bench_pairs.summarize(runs, spec),
                                       bench_pairs.failure_totals([]),
                                       {"parent": 400, "change": 480})
    assert lines[2].startswith("job_s") and "jobs" not in lines[2]
    assert lines[3].startswith("peak_rss_mb")
    assert lines[3].endswith("  jobs parent 400 change 480")


def test_job_counts_are_written_and_printed(tmp_path, capsys):
    tree = fake_tree(tmp_path / "tree", 0)
    run_py = tree / "perfbench" / "run.py"
    record = 'json.dumps({"provenance": {"run": n}})'
    assert record in run_py.read_text(encoding="utf-8")
    run_py.write_text(run_py.read_text(encoding="utf-8").replace(
        record, 'json.dumps({"provenance": {"run": n}, "detail": {"repeats": n * n}})'),
        encoding="utf-8")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tree), "--change", str(tree),
                             "--workload", "w", "--pairs", "2", "--first-seed", "7",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    # runs 1..4 go parent, change, change, parent
    assert [(r["side"], r["jobs"]) for r in doc["runs"]] == [
        ("parent", 1), ("change", 4), ("change", 9), ("parent", 16)]
    assert doc["jobs"] == {"parent": 8.5, "change": 6.5}
    assert "  jobs parent 8.5 change 6.5\n" in capsys.readouterr().out


def test_a_record_without_a_job_count_keeps_none(tmp_path):
    tree = fake_tree(tmp_path / "tree", 0)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(tree), "--change", str(tree),
                             "--workload", "w", "--pairs", "1", "--first-seed", "7",
                             "--seconds", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))["workloads"]["w"]
    assert [r["jobs"] for r in doc["runs"]] == [None, None]
    assert doc["jobs"] == {"parent": None, "change": None}
