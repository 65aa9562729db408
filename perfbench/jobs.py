"""The benchmark's workloads: seeded inputs, the timed job, and its checks.

Each workload draws all of its inputs from the seed before anything is
timed, runs a fixed job over them (one caller, closed loop, no threads),
and checks every answer outside the timed region with the oracles in
oracles.py. A job's content depends on the seed, but its cost does not
much: every job has the same number of calls of each cost class, so runs
on different seeds measure the same amount of work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import polyorbit.modular as modular
import polyorbit.polynomials as polynomials
import polyorbit.trap as trap
import polyorbit.verify as verify

import oracles
from cli_table import REQUESTS
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


@dataclass
class Call:
    """One library call or CLI process, with what its check needs."""

    label: str
    seconds: float
    spec: dict
    output: object = None
    error: str | None = None
    extra: dict = field(default_factory=dict)
    work: int = 0  # units of throughput work done: primes, candidates or 1 CLI call


@dataclass
class Job:
    seconds: float
    calls: list[Call]


def _timed(call: Call, fn, *args, **kwargs) -> Call:
    t0 = time.perf_counter()
    try:
        call.output = fn(*args, **kwargs)
    except Exception as exc:  # a raising call is a counted failure
        call.error = f"{type(exc).__name__}: {exc}"
    call.seconds = time.perf_counter() - t0
    return call


def _traced(workload, inputs):
    """(job, per-layer totals, span rows) for one job run under a Tracer;
    the rows are produced lazily from the tracer's arrays."""
    tracer = Tracer()
    tracer.install()
    try:
        job = workload.run(inputs, tracer)
    finally:
        tracer.uninstall()
    return job, tracer.totals(), tracer.span_rows()


# ---------------------------------------------------------------- residue --


class ResidueSweep:
    """certify_local on catalog members and lemma1_witnesses, mixed.

    Calls fall in cost classes, and each job has a fixed number of each,
    so that the median and the tail land inside a class rather than on a
    boundary between classes:
      - the two named slow cases, x+1 @ r=1 and 2x+6 @ r=6, to 3000 (to
        10^4 they take a second or more, too long a call for its fastest
        repeat to be a steady reading on a noisy host);
      - lemma1_witnesses to 3000 (the tail: ten calls beyond it);
      - strictly-local members to 1000 (their walks run to the hit);
      - lemma1_witnesses to 1000 (the median);
      - any catalog member to 100.
    """

    name = "residue-sweep"
    FIXED = (("x+1", 1), ("2x+6", 6))

    def __init__(self, quick: bool = False):
        if quick:
            self.top, self.groups = 300, (("lemma1", 100, 3), ("member", 100, 4),
                                          ("any", 30, 4))
        else:
            self.top, self.groups = 3000, (("lemma1", 3000, 18),
                                            ("member", 1000, 30),
                                            ("lemma1", 1000, 10),
                                            ("any", 100, 50))

    def draw(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        specs = [{"op": "certify", "poly": text, "r": r, "A": [], "bound": self.top,
                  "member": True} for text, r in self.FIXED]
        for kind, bound, count in self.groups:
            for _ in range(count):
                if kind == "lemma1":
                    specs.append(self._draw_lemma1(rng, bound))
                else:
                    specs.append(self._draw_member(rng, bound, kind == "member"))
        rng.shuffle(specs)
        return specs

    @staticmethod
    def _draw_lemma1(rng: random.Random, bound: int) -> dict:
        while True:
            alpha = rng.choice((2, 3, 5, 6, 7, -2, -3))
            beta = rng.choice([k for k in range(-9, 10) if k])
            gamma = rng.choice([k for k in range(-9, 10) if k])
            # the search's hypothesis: neither ratio is a power of alpha
            if any(num % den == 0 and oracles.is_power_of(alpha, num // den)
                   for num, den in ((beta, gamma), (gamma, beta))):
                continue
            return {"op": "lemma1", "alpha": alpha, "beta": beta,
                    "gamma": gamma, "bound": bound}

    @staticmethod
    def _draw_member(rng: random.Random, bound: int, strict: bool) -> dict:
        family = rng.choice(("Thm3", "Thm4", "Cor4"))
        if family == "Thm3":
            r, A = 1, rng.choice(([2], [3], [5], [2, 3], [2, 5], [3, 5], [2, 3, 5]))
        else:
            r, A = rng.randint(2, 12) * (1 if family == "Thm4" else -1), []
        return {"op": "certify", "family": family, "r": r, "A": A,
                "bound": bound, "pick": rng.random(), "strict": strict,
                "member": True}

    def _member(self, spec: dict):
        """The drawn member of the drawn catalog family. Members are sorted
        by coefficients, so the choice does not depend on the order the
        generator returns them in; strict draws skip members whose orbit
        reaches 0 (their walks stop after a few steps)."""
        if spec["family"] == "Thm3":
            members = verify.generate_list_members(
                "Thm3", A=modular.PrimeSet(spec["A"]))
        else:
            members = verify.generate_list_members(spec["family"], r=spec["r"])
        pool = sorted(members, key=lambda u: u.coeffs)
        if spec["strict"]:
            pool = [u for u in pool if not oracles.reaches_zero(u.coeffs, spec["r"])]
        return pool[int(spec["pick"] * len(pool))]

    def warm_up(self, specs: list[dict]) -> None:
        u = polynomials.parse_poly(specs[0].get("poly", "x+1"))
        modular.certify_local(u, 1, None, 100)

    def run(self, specs: list[dict], tracer: Tracer | None = None) -> Job:
        calls = []
        t0 = time.perf_counter()
        for i, spec in enumerate(specs):
            if tracer is not None:
                tracer.request_id = i
            if spec["op"] == "lemma1":
                calls.append(_timed(Call("lemma1", 0.0, spec), modular.lemma1_witnesses,
                                    spec["alpha"], spec["beta"], spec["gamma"],
                                    spec["bound"]))
                continue
            call = Call("certify", 0.0, spec)
            try:
                u = (polynomials.parse_poly(spec["poly"]) if "poly" in spec
                     else self._member(spec))
            except Exception as exc:
                call.error = f"{type(exc).__name__}: {exc}"
                calls.append(call)
                continue
            call.extra["coeffs"] = u.coeffs
            _timed(call, modular.certify_local, u, spec["r"], spec["A"], spec["bound"])
            if call.output is not None:
                rep = call.output
                call.output = (tuple((c.p, c.m_p, c.cycle) for c in rep.certificates),
                               rep.refuted_at)
                call.work = len(rep.certificates)
            calls.append(call)
        return Job(time.perf_counter() - t0, calls)

    def check(self, call: Call) -> list[str]:
        spec = call.spec
        if spec["op"] == "lemma1":
            want = oracles.lemma1_expected(spec["alpha"], spec["beta"], spec["gamma"],
                                           spec["bound"])
            return [] if call.output == want else [f"lemma1 {spec}: witnesses differ"]
        certs, refuted_at = call.output
        return oracles.check_local_report(
            call.extra["coeffs"], spec["r"], set(spec["A"]), spec["bound"],
            list(certs), refuted_at, spec["member"])

    def traced(self, specs):
        return _traced(self, specs)


# ------------------------------------------------------------- exhaustive --


class ExhaustiveSweep:
    """Whole coefficient boxes through verify_theorem, and the trap sweep.

    The degree-3 box runs at each r in {-1, 0, 1} and the degree-1 box at
    each r in [2, 10]. A single seeded r would make the job depend on the
    seed: r=0 costs about half of r=+-1, and the degree-1 boxes differ
    threefold by r. Every prime up to the trap cap gets trap_first_hits and
    trap_fixed_points. All calls run in one seeded order, so that calls of
    similar cost are spread over the job. The degree-3 box has |c| <= 2, so
    that no call takes much over 0.1 s and the job is repeated often: a
    call's fastest repeat is a steady reading only when the call fits
    within a fast spell of the host and is tried many times.
    """

    name = "exhaustive-sweep"

    def __init__(self, quick: bool = False):
        if quick:
            self.box3, self.box1, self.trap_cap = (3, 1, 50), (1, 3, 100), 13
        else:
            self.box3, self.box1, self.trap_cap = (3, 2, 200), (1, 9, 500), 101

    def draw(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        specs = []
        for (degree, coeff_bound, prime_bound), rs in ((self.box3, [-1, 0, 1]),
                                                       (self.box1, range(2, 11))):
            specs.extend({"op": "box", "degree": degree, "coeff_bound": coeff_bound,
                          "prime_bound": prime_bound, "r": r} for r in rs)
        for p in oracles.primes_through(self.trap_cap):
            sample = [(rng.randrange(p), rng.randrange(p)) for _ in range(16)]
            specs.append({"op": "trap_hits", "p": p, "sample": sample})
            specs.append({"op": "trap_fixed", "p": p})
        rng.shuffle(specs)
        return specs

    def warm_up(self, specs: list[dict]) -> None:
        verify.verify_theorem(verify.SearchSpace(1, 1, 1, prime_bound=20))
        trap.trap_first_hits(2)

    def run(self, specs: list[dict], tracer: Tracer | None = None) -> Job:
        calls = []
        t0 = time.perf_counter()
        for i, spec in enumerate(specs):
            if tracer is not None:
                tracer.request_id = i
            call = Call(spec["op"], 0.0, spec)
            if spec["op"] == "box":
                space = verify.SearchSpace(spec["degree"], spec["coeff_bound"], spec["r"],
                                           prime_bound=spec["prime_bound"])
                _timed(call, verify.verify_theorem, space)
                if call.output is not None:
                    call.output = {k: v for k, v in call.output.to_dict().items()
                                   if k != "wall_time_s"}
                    call.work = call.output["candidates_checked"]
            elif spec["op"] == "trap_hits":
                _timed(call, trap.trap_first_hits, spec["p"])
            else:
                _timed(call, trap.trap_fixed_points, spec["p"])
                if call.output is not None:
                    call.output = [(pt.x, pt.y) for pt in call.output]
            calls.append(call)
        return Job(time.perf_counter() - t0, calls)

    def check(self, call: Call) -> list[str]:
        spec = call.spec
        if spec["op"] == "box":
            return oracles.check_box_report(spec["degree"], spec["coeff_bound"],
                                            call.output)
        if spec["op"] == "trap_hits":
            return oracles.check_trap_hits(spec["p"], call.output, spec["sample"])
        return oracles.check_trap_fixed(spec["p"], call.output)

    def traced(self, specs):
        return _traced(self, specs)


# -------------------------------------------------------------------- cli --


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], env: dict) -> tuple[float, int, str, str]:
    """Run one child to completion: (seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, env=env, cwd=str(HERE.parent),
                          timeout=120)
    return (time.perf_counter() - t0, done.returncode, done.stdout.decode(),
            done.stderr.decode())


class CliBatch:
    """`polyorbit.cli.main([<cmd>, ..., "--output", "json"])`, one call at a
    time in this process, with its output captured.

    Each round makes one request per subcommand from the hand-written table
    in cli_table.py, so every job has the same mix of commands. The timed
    calls run in process: on a shared host, a child interpreter's start-up
    moves by 20 to 30% over minutes, which would swamp the parsing, handling
    and rendering measured here. Importing polyorbit.cli is part of set-up.
    What a child process pays on top is measured by the traced run, which
    runs every request once more as `python perfbench/traced_cli.py`.
    """

    name = "cli-batch"
    TRACED_CLI = HERE / "traced_cli.py"

    def __init__(self, quick: bool = False):
        self.rounds = 2 if quick else 8
        self.schema: dict | None = None
        self.cli = None  # polyorbit.cli, imported by warm_up

    def draw(self, seed: int) -> list[dict]:
        """Each subcommand's entries are used in turn from a seeded order, so
        every job uses each entry about equally often: the entries of one
        subcommand differ in cost, and a free draw moved the tail by seed."""
        rng = random.Random(seed)
        specs = []
        for cmd in sorted(REQUESTS):
            order = list(range(len(REQUESTS[cmd])))
            rng.shuffle(order)
            specs.extend({"op": cmd, "entry": order[k % len(order)]}
                         for k in range(self.rounds))
        rng.shuffle(specs)
        return specs

    def _main(self, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def warm_up(self, specs: list[dict]) -> None:
        self.cli = importlib.import_module("polyorbit.cli")
        got = self._main(["--print-schema"])
        if got["exit"] != 0:
            raise RuntimeError(f"--print-schema exited {got['exit']}: {got['stderr']}")
        self.schema = json.loads(got["stdout"])
        self._main(["orbit", "-u", "x+1", "-r", "1", "--output", "json"])

    @staticmethod
    def _argv(spec: dict) -> list[str]:
        args, _, _ = REQUESTS[spec["op"]][spec["entry"]]
        return [spec["op"], *args, "--output", "json"]

    def run(self, specs: list[dict], tracer: Tracer | None = None) -> Job:
        calls = []
        t0 = time.perf_counter()
        for i, spec in enumerate(specs):
            if tracer is not None:
                tracer.request_id = i
            calls.append(_timed(Call(spec["op"], 0.0, spec, work=1), self._main,
                                self._argv(spec)))
        return Job(time.perf_counter() - t0, calls)

    def check(self, call: Call) -> list[str]:
        _, want_exit, fields = REQUESTS[call.spec["op"]][call.spec["entry"]]
        got = call.output
        where = f"{call.spec['op']} #{call.spec['entry']}"
        if "Traceback" in got["stderr"]:
            return [f"{where}: traceback on stderr"]
        if got["exit"] != want_exit:
            return [f"{where}: exit {got['exit']}, expected {want_exit}"]
        if want_exit == 1:
            return [] if got["stderr"].startswith("error:") else [
                f"{where}: usage error without an error message"]
        try:
            doc = json.loads(got["stdout"])
        except ValueError:
            return [f"{where}: stdout is not one JSON document"]
        failures = [f"{where}: {f}" for f in
                    oracles.check_against_schema(doc, self.schema or {})]
        if doc.get("command") != call.spec["op"]:
            failures.append(f"{where}: document is for {doc.get('command')!r}")
        for path, value in fields.items():
            try:
                got_value = oracles.lookup(doc["result"], path)
            except (KeyError, IndexError, TypeError, ValueError):
                failures.append(f"{where}: result has no {path}")
                continue
            if got_value != value:
                failures.append(f"{where}: {path} is {got_value!r}, expected {value!r}")
        return failures

    def traced(self, specs):
        """The job under the tracer, then every request once as a traced
        child process. A child's answer is checked like the in-process one;
        a wrong one is recorded as the failure of that call. The totals gain
        one {wall_s, import_s, handler_s} entry per child that answered."""
        job, totals, rows = _traced(self, specs)
        env = _child_env()
        processes = []
        with tempfile.TemporaryDirectory(dir=str(HERE.parent / ".bench_out")) as tmp:
            for i, spec in enumerate(specs):
                env["PERFBENCH_TOTALS"] = path = os.path.join(tmp, f"{i}.json")
                seconds, code, out, err = run_process(
                    [sys.executable, str(self.TRACED_CLI), *self._argv(spec)], env)
                child = Call(spec["op"], seconds, spec,
                             output={"exit": code, "stdout": out, "stderr": err})
                failures = self.check(child)
                if not failures and not os.path.exists(path):
                    failures = ["traced child wrote no totals"]
                if failures:
                    job.calls[i].error = job.calls[i].error or f"child: {failures[0]}"
                    continue
                with open(path, encoding="utf-8") as fh:
                    import_s = json.load(fh)["import_s"]
                try:
                    handler_s = json.loads(out)["timings"]["wall_s"]
                except (ValueError, KeyError, TypeError):
                    continue  # usage errors print no document
                processes.append({"wall_s": seconds, "import_s": import_s,
                                  "handler_s": handler_s})
        totals["processes"] = processes
        return job, totals, rows


WORKLOADS = {w.name: w for w in (ResidueSweep, ExhaustiveSweep, CliBatch)}
