"""Span tracing installed from outside the package under test.

A Tracer replaces selected functions, at the attribute their callers look
up, with wrappers that record one span per call: name, start, end, parent
span and request id. Spans live in compact in-memory arrays and are written
out once, at the end of a run. Per-layer totals (calls, self time, and
counters derived from returned values) are accumulated as spans close.

Self time is a span's duration minus the time covered by its direct child
spans; with one thread the children of a span never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

import polyorbit.modular
import polyorbit.polynomials
import polyorbit.trap
import polyorbit.verify

# `polyorbit.classify` as an attribute is the classify() function, which the
# package re-exports over the submodule of the same name.
_classify_module = sys.modules["polyorbit.classify"]


def _orbit_mod_p_name(args, kwargs) -> str:
    u = args[0] if args else kwargs["u"]
    return "modular.orbit_mod_p." + ("linear" if u.degree == 1 else "nonlinear")


def _cert_steps(cert) -> int:
    if cert.m_p is not None:
        return cert.m_p
    tail, values = cert.cycle
    return tail + len(values)


def _observe_orbit_mod_p(counters, name, result, nested):
    counters[name + ".steps"] += _cert_steps(result)


def _observe_certify_local(counters, name, result, nested):
    counters[name + ".primes"] += len(result.certificates)
    counters[name + ".refuted"] += result.refuted_at is not None


def _observe_classify(counters, name, result, nested):
    counters[name + ".decidable"] += bool(result.decidable)


def _observe_decide(counters, name, result, nested):
    counters[name + ".steps"] += result.steps_used
    counters[name + ".kind." + result.kind.value] += 1


def _observe_verify(counters, name, result, nested):
    counters[name + ".candidates"] += result.candidates_checked


def _observe_members(counters, name, result, nested):
    if not nested:  # the family form recurses through the same binding
        counters[name + ".members"] += len(result)


def _observe_first_hits(counters, name, result, nested):
    counters[name + ".points"] += len(result)


# (module, attribute, span name, observer). Each row patches the binding a
# caller resolves at call time, so a function imported into several modules
# is listed once per importing module.
_LIBRARY_PATCHES = [
    (polyorbit.modular, "orbit_mod_p", _orbit_mod_p_name, _observe_orbit_mod_p),
    (polyorbit.modular, "primes_up_to", "modular.primes_up_to", None),
    (polyorbit.modular, "is_prime", "modular.is_prime", None),
    (polyorbit.modular, "certify_local", "modular.certify_local", _observe_certify_local),
    (polyorbit.modular, "lemma1_witnesses", "modular.lemma1_witnesses", None),
    (polyorbit.trap, "is_prime", "modular.is_prime", None),
    (polyorbit.trap, "trap_first_hits", "trap.trap_first_hits", _observe_first_hits),
    (polyorbit.trap, "trap_fixed_points", "trap.trap_fixed_points", None),
    (polyorbit.verify, "classify", "classify.classify", _observe_classify),
    (polyorbit.verify, "decide_nilpotency", "orbits.decide_nilpotency", _observe_decide),
    (polyorbit.verify, "certify_local", "modular.certify_local", _observe_certify_local),
    (polyorbit.verify, "verify_theorem", "verify.verify_theorem", _observe_verify),
    (polyorbit.verify, "generate_list_members", "verify.generate_list_members",
     _observe_members),
    (_classify_module, "decide_nilpotency", "orbits.decide_nilpotency", _observe_decide),
    (polyorbit.polynomials, "parse_poly", "polynomials.parse_poly", None),
]

# The command-line front end binds its own names at import.
_CLI_PATCHES = [
    ("classify", "classify.classify", _observe_classify),
    ("decide_nilpotency", "orbits.decide_nilpotency", _observe_decide),
    ("certify_local", "modular.certify_local", _observe_certify_local),
    ("lemma1_witnesses", "modular.lemma1_witnesses", None),
    ("primes_up_to", "modular.primes_up_to", None),
    ("is_prime", "modular.is_prime", None),
    ("trap_first_hits", "trap.trap_first_hits", _observe_first_hits),
    ("trap_fixed_points", "trap.trap_fixed_points", None),
    ("verify_theorem", "verify.verify_theorem", _observe_verify),
    ("parse_poly", "polynomials.parse_poly", None),
]

# Every span name a traced run can report, so absent layers read as zero.
SPAN_NAMES = (
    "modular.orbit_mod_p.linear",
    "modular.orbit_mod_p.nonlinear",
    "modular.primes_up_to",
    "modular.is_prime",
    "modular.certify_local",
    "modular.lemma1_witnesses",
    "classify.classify",
    "orbits.decide_nilpotency",
    "verify.verify_theorem",
    "verify.generate_list_members",
    "trap.trap_first_hits",
    "trap.trap_fixed_points",
    "polynomials.parse_poly",
)


class Tracer:
    """Records spans for the patched functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span index, child seconds, name]
        self._saved: list[tuple] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span_name, observe):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = span_name(args, kwargs) if callable(span_name) else span_name
            nested = bool(stack) and stack[-1][2] == name
            index = len(self.start)
            self.name_id.append(self._intern(name))
            self.parent.append(stack[-1][0] if stack else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            frame = [index, 0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[index] = t0
                self.end[index] = t1
                duration = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(self.counters, name, result, nested)
            return result

        return wrapper

    def _patch(self, module, attr, span_name, observe):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(original, span_name, observe))

    def install(self) -> None:
        """Patch every library binding, the command-line module's too when
        it is loaded, and count Polynomial.evaluate calls without timing."""
        for module, attr, span_name, observe in _LIBRARY_PATCHES:
            self._patch(module, attr, span_name, observe)
        cli = sys.modules.get("polyorbit.cli")
        if cli is not None:
            for attr, span_name, observe in _CLI_PATCHES:
                self._patch(cli, attr, span_name, observe)
        poly_cls = polyorbit.polynomials.Polynomial
        evaluate = poly_cls.evaluate
        counters = self.counters

        def counted_evaluate(poly, x):
            counters["polynomials.evaluate.calls"] += 1
            return evaluate(poly, x)

        self._saved.append((poly_cls, "evaluate", evaluate))
        poly_cls.evaluate = counted_evaluate

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def totals(self) -> dict:
        """Plain-data per-layer totals, mergeable across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def span_rows(self):
        for i in range(len(self.start)):
            yield {
                "name": self.names[self.name_id[i]],
                "start": self.start[i],
                "end": self.end[i],
                "parent": self.parent[i],
                "request": self.request[i],
            }


def merge_totals(into: dict, more: dict) -> dict:
    for key in ("calls", "self_s", "counters"):
        bucket = into.setdefault(key, {})
        for name, value in more.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into.setdefault("processes", []).extend(more.get("processes", []))
    return into


def open_span_file(path):
    """Spans are written as gzip-compressed JSON lines."""
    return gzip.open(path, "wt", encoding="utf-8", compresslevel=1)


def write_spans(fh, rows) -> int:
    """Append rows to an open span file; returns the row count."""
    count = 0
    for row in rows:
        fh.write(json.dumps(row, separators=(",", ":")))
        fh.write("\n")
        count += 1
    return count
