"""Alternating benchmark pairs: a parent tree against a changed tree.

Usage, from the repository root:

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload exhaustive-sweep --pairs 10 --first-seed 2001 --out BENCH_<n>.json

Each tree is a checkout holding perfbench/run.py and src/ (a second clone or
`git worktree` of the parent commit, and the change). Pair i runs both trees
on seed first_seed + i, the parent first on even i and the change first on
odd i, so that neither side always meets the host's warmer or cooler spell.
Every run's last stdout line (the JSON result) and its
.bench_out/<workload>-seed<N>-trace0.json record (provenance, commit) are
kept. The summary gives, per end-to-end metric of BENCHMARK.json: both
medians with quartiles, the pairs the change wins (a tie counts for
neither side), the median gap against the parent's quartile spread,
whether the change stays inside the metric's bound, and whether the metric
is unresolved: the parent's quartile spread, relative to its median, wider
than the bound, with some run of the change not better than every run of
the parent. It also totals each side's failed and attempted operations and
flags a change whose failed share is the larger. Each run keeps its job
count (detail.repeats of its record), and each side's median job count is
printed beside peak_rss_mb: run.py keeps every job it runs, so more jobs in
the same seconds raise the peak on their own. Runs and summary are
written to --out under the workload's name after every run; the other
workloads of an existing --out file are kept, so one file holds several
workloads. A run that exits non-zero is recorded with its exit code and
the last lines of its stderr, which are also printed, and the script then
stops with exit status 1, keeping every earlier run in --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20  # stderr lines kept from a failed run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric of spec (BENCHMARK.json), compare the change's
    runs with the parent's. runs holds one {"pair", "side", "metrics"} entry
    per run, metrics mapping each name to {"value": ...}; pairs missing a
    side are ignored."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in sorted(by_pair) if {"parent", "change"} <= set(by_pair[p])]
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        if not pairs:
            continue
        parent = [by_pair[p]["parent"][name]["value"] for p in pairs]
        change = [by_pair[p]["change"][name]["value"] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(parent, change))
        losses = sum((c > b) if lower else (c < b) for b, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gap = (p_med - c_med) if lower else (c_med - p_med)  # > 0: change better
        worse_by = -gap / p_med if p_med else 0.0
        spread_ratio = (p_q3 - p_q1) / p_med if p_med else 0.0
        clear = max(change) < min(parent) if lower else min(change) > max(parent)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
            "pairs": len(pairs),
            "change_wins": wins,
            "parent_wins": losses,
            "median_gap": gap,
            "parent_spread": p_q3 - p_q1,
            "gap_exceeds_spread": gap > p_q3 - p_q1,
            "relative_change": (c_med - p_med) / p_med if p_med else 0.0,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
            "unresolved": spread_ratio > metric["bound"] and not clear,
        }
    return out


def failure_totals(runs: list[dict]) -> dict:
    """Each side's failed and attempted operations summed over its finished
    runs, and whether the change's failed share exceeds the parent's."""
    out = {side: {"failed": 0, "attempted": 0} for side in ("parent", "change")}
    for run in runs:
        if "failed" in run:
            out[run["side"]]["failed"] += run["failed"]
            out[run["side"]]["attempted"] += run["attempted"]
    p, c = out["parent"], out["change"]
    out["change_fails_more"] = c["failed"] * p["attempted"] > p["failed"] * c["attempted"]
    return out


def job_counts(runs: list[dict]) -> dict:
    """Each side's median job count over its runs that recorded one, None
    for a side with none."""
    out = {}
    for side in ("parent", "change"):
        counts = [run["jobs"] for run in runs
                  if run["side"] == side and run.get("jobs") is not None]
        out[side] = statistics.median(counts) if counts else None
    return out


def format_summary(workload: str, summary: dict, failures: dict,
                   jobs: dict | None = None) -> list[str]:
    p, c = failures["parent"], failures["change"]
    lines = [f"# {workload}",
             f"failed             parent {p['failed']}/{p['attempted']}"
             f"  change {c['failed']}/{c['attempted']}"
             f"{'  CHANGE FAILS MORE' if failures['change_fails_more'] else ''}"]
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        lines.append(
            f"{name:18s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {s['unit']}"
            f"  {s['relative_change']:+.1%}  wins {s['change_wins']}/{s['pairs']}"
            f"  gap {s['median_gap']:.4g} vs spread {s['parent_spread']:.4g}"
            f"  {'within' if s['within_bound'] else 'OUTSIDE'} bound {s['bound']}"
            f"{'  unresolved' if s['unresolved'] else ''}"
            + (f"  jobs parent {jobs['parent']} change {jobs['change']}"
               if jobs and name == "peak_rss_mb" else ""))
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree: its JSON result, provenance and
    job count (None when the record has none), or, when it exits non-zero,
    its exit code and the last lines of its stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"exit_code": done.returncode,
                "stderr_tail": done.stderr.splitlines()[-STDERR_TAIL:]}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {"result": result, "provenance": record["provenance"],
            "jobs": record.get("detail", {}).get("repeats")}


def write_out(args: argparse.Namespace, spec: dict,
              runs: list[dict]) -> tuple[dict, dict, dict]:
    """Write the runs so far, and the summary, failure totals and median
    job counts of those that finished, to --out under the workload's name;
    return all three."""
    summary = summarize([run for run in runs if "metrics" in run], spec)
    failures, jobs = failure_totals(runs), job_counts(runs)
    doc = {}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc.setdefault("workloads", {})[args.workload] = {
        "pairs": args.pairs, "first_seed": args.first_seed, "seconds": args.seconds,
        "summary": summary, "failures": failures, "jobs": jobs, "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return summary, failures, jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, summary, failures, jobs = [], {}, failure_totals([]), job_counts([])
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got = run_once(trees[side], args.workload, seed, args.seconds)
            run = {"pair": i, "seed": seed, "side": side}
            if "exit_code" in got:
                runs.append({**run, **got})
                write_out(args, spec, runs)
                print(f"pair {i} seed {seed} {side}: exit code {got['exit_code']}",
                      *got["stderr_tail"], sep="\n", file=sys.stderr, flush=True)
                return 1
            runs.append({**run, "metrics": got["result"]["metrics"],
                         "correct": got["result"]["correct"],
                         "failed": got["result"]["failed"],
                         "attempted": got["result"]["attempted"],
                         "jobs": got["jobs"], "provenance": got["provenance"]})
            summary, failures, jobs = write_out(args, spec, runs)
            print(f"pair {i} seed {seed} {side}: failed {got['result']['failed']}",
                  file=sys.stderr, flush=True)
    print("\n".join(format_summary(args.workload, summary, failures, jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
