"""polyorbit benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload residue-sweep --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 alternates untraced and traced jobs, and reports the per-layer
metrics of one job plus the tracing overhead. Every answer is checked by
the oracles in oracles.py. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
repeat the metrics for people, with provenance. The full record, and the
spans of a traced run, go to .bench_out/.

The package is loaded from ./src of the checkout the script sits in; the
run exits non-zero, printing no result, when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9  # set-up samples, spread over the run
SETUP_TRIES = 3  # set-ups per sample
TAIL_BEYOND = 10  # calls beyond the tail percentile
QUADRATURE_STEPS = 32  # midpoint-rule steps per order statistic

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "call_p50_ms": "ms", "call_tail_ms": "ms",
    "throughput_per_s": "1/s", "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one set-up probe: for smoke tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this process, print seconds, exit")
    return parser.parse_args(argv)


def load_program():
    """Put the checkout's source first on the path and import it there."""
    if not (SRC / "polyorbit" / "__init__.py").is_file():
        raise SystemExit(f"error: no polyorbit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyorbit

    if Path(polyorbit.__file__).resolve().parent != SRC / "polyorbit":
        raise SystemExit(f"error: polyorbit imported from {polyorbit.__file__}")
    return polyorbit


def setup_probe(args) -> float:
    """Import, seeded input generation and one untimed warm-up call, in a
    fresh interpreter; the benchmark's own import is not counted."""
    t0 = time.perf_counter()
    load_program()
    t1 = time.perf_counter()
    import jobs

    t2 = time.perf_counter()
    workload = jobs.WORKLOADS[args.workload](quick=args.quick)
    workload.warm_up(workload.draw(args.seed))
    return (t1 - t0) + (time.perf_counter() - t2)


def measure_setup(args) -> float:
    """The fastest of SETUP_TRIES set-ups, each timed by setup_probe in a
    fresh child interpreter, started one after another. A single start
    lands in the host's fast or slow spell about as often as not."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        argv.append("--quick")
    tries = []
    for _ in range(SETUP_TRIES):
        done = subprocess.run(argv, capture_output=True, text=True, cwd=str(ROOT),
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        tries.append(float(done.stdout.strip().splitlines()[-1]))
    return min(tries)


def quantile(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a mean of all the order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) density over each
    one's share of [0, 1]. A plain order statistic carries the noise of the
    one or two calls at its rank; this estimate spreads it over the calls
    around that rank."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = [math.fsum(density((i + (k + 0.5) / QUADRATURE_STEPS) / n)
                         for k in range(QUADRATURE_STEPS)) for i in range(n)]
    return math.fsum(w * x for w, x in zip(weights, ordered)) / math.fsum(weights)


def tail_of(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_BEYOND
    calls beyond it; with no more calls than that, the slowest call, at 100."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return max(latencies), 100.0
    q = (n - TAIL_BEYOND) / n
    return quantile(latencies, q), 100.0 * q


def digest(output) -> str:
    """A fingerprint of one answer; CLI documents lose their timings."""
    if isinstance(output, dict) and "stdout" in output:
        try:
            doc = json.loads(output["stdout"])
        except ValueError:
            doc = output["stdout"]
        else:
            doc.pop("timings", None)
            if isinstance(doc.get("result"), dict):
                doc["result"].pop("wall_time_s", None)
        output = (output["exit"], doc)
    return hashlib.sha256(repr(output).encode()).hexdigest()


class Checker:
    """Checks the first job's answers with the oracles; every later repeat
    must give exactly the same answers. Only fingerprints are kept, and
    each answer is released once checked, so memory does not grow with
    the number of repeats."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: list | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, job) -> None:
        self.attempted += len(job.calls)
        digests = []
        for i, call in enumerate(job.calls):
            if call.error is not None:
                digests.append(None)
                self._record(call, [call.error])
                continue
            digests.append(digest(call.output))
            if self.digests is None:
                self._record(call, self.workload.check(call))
            elif digests[i] != self.digests[i]:
                self._record(call, ["answer differs from the first repeat's"])
            call.output = None
        if self.digests is None:
            self.digests = digests

    def _record(self, call, failures: list[str]) -> None:
        if failures:
            self.failures.append(f"{call.label}: {failures[0]}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def end_to_end(jobs_done, setup_samples, peak_rss_kb) -> tuple[dict, dict]:
    """Each call's latency is its fastest repeat in the run; the median and
    the tail are taken over those latencies of one job, job_s is their sum
    and throughput_per_s divides the job's work by the summed latencies of
    the calls that did it. The host switches between faster and slower
    states every second or so, so the fastest repeat of a call is the
    steadiest reading of its cost; a mean or median over repeats follows
    the share of time the run spent in each state. The mean wall time of
    whole jobs is kept in the record for comparison."""
    calls_per_job = len(jobs_done[0].calls)
    latencies = [min(job.calls[i].seconds for job in jobs_done)
                 for i in range(calls_per_job)]
    works = [call.work for call in jobs_done[0].calls]
    tail, percentile = tail_of(latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "job_s": math.fsum(latencies),
        "call_p50_ms": 1000 * quantile(latencies, 0.5),
        "call_tail_ms": 1000 * tail,
        "throughput_per_s": sum(works) / math.fsum(
            t for t, w in zip(latencies, works) if w),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    detail = {
        "repeats": len(jobs_done),
        "calls_per_job": calls_per_job,
        "tail_percentile": percentile,
        "setup_samples_s": setup_samples,
        "job_wall_mean_s": statistics.fmean(j.seconds for j in jobs_done),
        "job_samples_s": [j.seconds for j in jobs_done],
    }
    return values, detail


def per_layer(totals: dict, traced_jobs, untraced_jobs) -> dict:
    """Per-layer metrics for one job: totals over the traced jobs divided
    by their number (counts are the same in every repeat)."""
    import spans

    n = len(traced_jobs)
    calls, self_s, counters = totals["calls"], totals["self_s"], totals["counters"]
    out = {}
    for name in spans.SPAN_NAMES:
        out[name + ".calls"] = (calls.get(name, 0) / n, "count")
        out[name + ".self_s"] = (self_s.get(name, 0.0) / n, "s")
    for name in ("modular.orbit_mod_p.linear.steps",
                 "modular.orbit_mod_p.nonlinear.steps",
                 "modular.certify_local.primes", "modular.certify_local.refuted",
                 "orbits.decide_nilpotency.steps", "verify.verify_theorem.candidates",
                 "verify.generate_list_members.members", "trap.trap_first_hits.points",
                 "polynomials.evaluate.calls"):
        out[name] = (counters.get(name, 0) / n, "count")
    for kind in ("reached-zero", "cycle", "escaped", "exhausted"):
        key = "orbits.decide_nilpotency.kind." + kind
        out[key] = (counters.get(key, 0) / n, "count")
    n_classify = calls.get("classify.classify", 0)
    out["classify.classify.decidable_ratio"] = (
        counters.get("classify.classify.decidable", 0) / n_classify if n_classify else 0.0,
        "ratio")
    for drop in ("verify.verify_theorem.calls", "trap.trap_first_hits.calls",
                 "trap.trap_fixed_points.calls"):
        out.pop(drop)
    cli = {"bare_python_ms": 0.0, "import_ms": 0.0, "handler_ms": 0.0,
           "overhead_ms": 0.0}
    processes = totals.get("processes")
    if processes:
        cli["import_ms"] = 1000 * statistics.median(c["import_s"] for c in processes)
        cli["handler_ms"] = 1000 * statistics.median(c["handler_s"] for c in processes)
        cli["overhead_ms"] = 1000 * statistics.median(
            c["wall_s"] - c["handler_s"] for c in processes)
        cli["bare_python_ms"] = 1000 * statistics.median(bare_python_seconds())
    for key, value in cli.items():
        out["cli." + key] = (value, "ms")
    out["tracing.overhead_ratio"] = (
        statistics.fmean(j.seconds for j in traced_jobs)
        / statistics.fmean(j.seconds for j in untraced_jobs) - 1, "ratio")
    return out


def bare_python_seconds(samples: int = 5) -> list[float]:
    import jobs

    env = dict(os.environ)
    return [jobs.run_process([sys.executable, "-c", "pass"], env)[0]
            for _ in range(samples)]


def provenance(args, polyorbit) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "polyorbit_version": polyorbit.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git (a
    checkout that is not a repository says "unknown")."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(f"{setup_probe(args):.9f}")
        return 0
    polyorbit = load_program()
    import jobs

    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = jobs.WORKLOADS[args.workload](quick=args.quick)
    specs = workload.draw(args.seed)
    workload.warm_up(specs)
    checker = Checker(workload)
    record = {"provenance": provenance(args, polyorbit)}

    if args.trace == 0:
        probes = 1 if args.quick else SETUP_PROBES
        done, setup_samples = [], []
        start = time.perf_counter()
        while True:
            job = workload.run(specs)
            checker.add(job)
            done.append(job)
            # set-ups between jobs, spread over the run so that they meet
            # the host's fast and slow spells alike
            while (len(setup_samples) < probes and time.perf_counter() - start
                   >= len(setup_samples) * args.seconds / probes):
                setup_samples.append(measure_setup(args))
            if time.perf_counter() - start + job.seconds > args.seconds:
                break
        while len(setup_samples) < probes:
            setup_samples.append(measure_setup(args))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values, detail = end_to_end(done, setup_samples, peak_kb)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        record["detail"] = detail
    else:
        import spans

        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        untraced_jobs, traced_jobs, totals, n_spans = [], [], {}, 0
        start = time.perf_counter()
        with spans.open_span_file(span_path) as sink:
            while True:  # alternate, so both sides see the same host drift
                t_round = time.perf_counter()
                untraced = workload.run(specs)
                checker.add(untraced)
                traced, job_totals, rows = workload.traced(specs)
                checker.add(traced)
                n_spans += spans.write_spans(sink, rows)
                spans.merge_totals(totals, job_totals)
                untraced_jobs.append(untraced)
                traced_jobs.append(traced)
                now = time.perf_counter()
                if now - start + (now - t_round) > args.seconds:
                    break
        metrics = per_layer(totals, traced_jobs, untraced_jobs)
        record["detail"] = {"traced_jobs": len(traced_jobs),
                            "spans_file": span_path.name, "spans": n_spans}

    record["failures"] = checker.failures
    record["failed_ratio"] = checker.failed / checker.attempted
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# provenance " + json.dumps(record["provenance"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    for key, value in record["detail"].items():
        print(f"# {key}: {value}")
    print(f"# failed_ratio: {record['failed_ratio']} "
          f"({checker.failed} of {checker.attempted})")
    for failure in checker.failures[:10]:
        print(f"# FAIL {failure}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
