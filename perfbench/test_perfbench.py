"""Tests of the benchmark itself: python -m pytest perfbench -q

Smoke runs use --quick (small inputs, one set-up probe) and check the
result format against BENCHMARK.json; the oracle tests corrupt answers
on purpose to show the checks can fail.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import jobs
import oracles
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_draw_depends_only_on_the_seed(workload):
    cls = jobs.WORKLOADS[workload]
    assert cls().draw(7) == cls().draw(7)
    assert cls().draw(7) != cls().draw(8)


def _quick_job(workload: str):
    w = jobs.WORKLOADS[workload](quick=True)
    specs = w.draw(5)
    w.warm_up(specs)
    return w, w.run(specs)


def _failures_after(workload: str, pick, corrupt) -> tuple[list[str], list[str]]:
    w, job = _quick_job(workload)
    call = next(c for c in job.calls if pick(c))
    clean = w.check(call)
    bad = copy.deepcopy(call)
    bad.output = corrupt(bad.output)
    return clean, w.check(bad)


def _shift_first_hit(output):
    certs, refuted_at = output
    p, m_p, cycle = certs[-1]
    return certs[:-1] + ((p, m_p % p + 1, cycle),), refuted_at


@pytest.mark.parametrize("pick, corrupt", [
    (lambda c: c.label == "certify", _shift_first_hit),
    (lambda c: c.label == "certify", lambda o: (o[0][:-1], o[1])),
    (lambda c: c.label == "certify", lambda o: (o[0], o[0][0][0])),
    (lambda c: c.label == "lemma1", lambda o: o + [10**9 + 7]),
])
def test_residue_oracle_catches_corruption(pick, corrupt):
    clean, bad = _failures_after("residue-sweep", pick, corrupt)
    assert clean == [] and bad


def _drop_point(hits):
    hits = dict(hits)
    hits.pop(next(iter(hits)))
    return hits


def _delay_point(hits):
    hits = dict(hits)
    point = next(pt for pt, n in hits.items() if n > 1)
    hits[point] -= 1
    return hits


@pytest.mark.parametrize("pick, corrupt", [
    (lambda c: c.label == "box", lambda o: dict(o, candidates_checked=o["candidates_checked"] - 1)),
    (lambda c: c.label == "box", lambda o: dict(o, discrepancies=[{"poly": "x"}])),
    (lambda c: c.label == "trap_hits" and c.spec["p"] > 2, _drop_point),
    (lambda c: c.label == "trap_fixed", lambda o: o + [(1, 1)]),
])
def test_exhaustive_oracle_catches_corruption(pick, corrupt):
    clean, bad = _failures_after("exhaustive-sweep", pick, corrupt)
    assert clean == [] and bad


def test_trap_replay_catches_a_wrong_first_hit():
    p = 7
    hits = {(x, y): 0 for x in range(p) for y in range(p)}
    for (x0, y0) in hits:
        x, y, n = x0, y0, 0
        while True:
            x, y = oracles.trap_step(x, y, p)
            n += 1
            if (x, y) == (0, 0):
                break
        hits[(x0, y0)] = n
    sample = list(hits)
    assert oracles.check_trap_hits(p, hits, sample) == []
    assert oracles.check_trap_hits(p, _delay_point(hits), sample)


def _with_field(output, path, value):
    doc = json.loads(output["stdout"])
    doc["result"][path] = value
    return dict(output, stdout=json.dumps(doc))


@pytest.mark.parametrize("pick, corrupt", [
    (lambda c: c.label == "classify", lambda o: _with_field(o, "citation", "Thm9.9")),
    (lambda c: c.label == "orbit", lambda o: dict(o, exit=3)),
    (lambda c: c.label == "orbit", lambda o: dict(o, stdout=json.dumps(
        dict(json.loads(o["stdout"]), extra=1)))),
    (lambda c: c.label == "trap", lambda o: dict(o, stderr="Traceback (most recent call last)")),
])
def test_cli_oracle_catches_corruption(pick, corrupt):
    clean, bad = _failures_after("cli-batch", pick, corrupt)
    assert clean == [] and bad


def test_checker_counts_a_corrupted_repeat():
    w, job = _quick_job("residue-sweep")
    again = copy.deepcopy(job)
    checker = run.Checker(w)
    checker.add(job)
    assert checker.failed == 0
    call = next(c for c in again.calls if c.label == "certify")
    call.output = _shift_first_hit(call.output)
    checker.add(again)
    assert checker.failed == 1
    assert checker.attempted == 2 * len(job.calls)


def test_lemma1_oracle_hand_values():
    assert oracles.lemma1_expected(2, 3, 5, 30) == [23]
    assert oracles.lemma1_expected(3, 1, 2, 20) == [11, 13]


def test_tail_has_ten_calls_beyond_it():
    value, percentile = run.tail_of([float(i) for i in range(100)])
    assert percentile == 90.0 and value == pytest.approx(89.5)
    assert run.tail_of([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_quantile_weighs_the_calls_around_its_rank():
    assert run.quantile([float(i) for i in range(101)], 0.5) == pytest.approx(50.0)
    values = [float(i * i % 67) for i in range(64)]
    assert run.quantile(values[::-1], 0.5) == pytest.approx(run.quantile(values, 0.5))
    assert run.quantile([7.0] * 20, 0.8) == pytest.approx(7.0)
    assert run.quantile(values, 0.25) < run.quantile(values, 0.5) < run.quantile(values, 0.75)


def test_run_fails_without_the_source_tree(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
