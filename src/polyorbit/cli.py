"""Batch command-line front end.

Exit codes: 0 = computed; 1 = usage error; 2 = refutation found (certify:
a refuting prime; verify-theorem: a nonempty discrepancy list; trap: a
fixed point other than (0,0)); 3 = budget exhausted / undecided.

JSON mode emits one top-level document {command, inputs, result,
citations, timings}; human mode prints the same content as text. Defaults
for the prime bound and the orbit caps can be overridden with the
POLYORBIT_PRIME_BOUND, POLYORBIT_MAX_STEPS and POLYORBIT_MAX_BITS
environment variables. An orbit cap below 1 or a prime bound below 2, by
flag or by variable, is a usage error. trap sweeps the primes up to the
prime bound, and a bound above trap.TRAP_CAP_MAX (1000) is a budget error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .classify import classify
from .modular import (PRIME_BOUND_DEFAULT, PrimeSet, certify_local,
                      check_prime_bound, is_prime, lemma1_witnesses, primes_up_to)
from .orbits import (
    MAX_BITS_DEFAULT,
    MAX_STEPS_DEFAULT,
    BudgetExceededError,
    OrbitKind,
    decide_nilpotency,
)
from .polynomials import Polynomial, parse_poly
# Unused here; trap_first_hits stays bound because perfbench/spans.py wraps
# polyorbit.cli.trap_first_hits by name.
from .trap import check_trap_budget, trap_first_hits, trap_fixed_points  # noqa: F401
from .verify import SearchSpace, explore_LN_of_u, explore_N_of_u, verify_theorem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_UNDECIDED = 3


class UsageError(ValueError):
    pass


def _env_int(name: str, fallback: int, minimum: int | None = None) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"environment variable {name} must be an integer, got {raw!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"environment variable {name} must be >= {minimum}, got {value}")
    return value


def _int_at_least(minimum: int):
    """An argument type: an integer of at least minimum."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return convert


class _PrimeSetAction(argparse.Action):
    """Collect -A entries into a PrimeSet, refusing any that is not prime.
    Entries are trial-divided once each, in input order, so the first bad
    entry is the one reported."""

    def __call__(self, parser, namespace, values, option_string=None):
        for p in dict.fromkeys(values):
            if not is_prime(p):
                raise argparse.ArgumentError(self, f"entries must be prime; {p} is not")
        setattr(namespace, self.dest, PrimeSet._of_primes(values))


def _poly_arg(text: str) -> Polynomial:
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad polynomial: {exc}")


def _add_input(p: argparse.ArgumentParser, *flags, **kwargs) -> None:
    """Add an argument that the report echoes in its inputs block, under
    the argument's dest and in declaration order."""
    p.get_default("inputs").append(p.add_argument(*flags, **kwargs).dest)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; defaults come from the POLYORBIT_* variables,
    so a malformed one raises UsageError here."""
    parser = argparse.ArgumentParser(
        prog="polyorbit",
        description="Orbits, nilpotency decisions, residue certificates and "
                    "exact classification for iterated integer polynomials.",
    )
    parser.add_argument(
        "--print-schema", action="store_true",
        help="print the JSON report schema and exit",
    )
    sub = parser.add_subparsers(dest="command")
    prime_bound = _env_int("POLYORBIT_PRIME_BOUND", PRIME_BOUND_DEFAULT, 2)
    max_steps = _env_int("POLYORBIT_MAX_STEPS", MAX_STEPS_DEFAULT, 1)
    max_bits = _env_int("POLYORBIT_MAX_BITS", MAX_BITS_DEFAULT, 1)

    def command(name, help, poly=False, r=False, A=False, primes=False, caps=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(inputs=[])
        if poly:
            _add_input(p, "-u", "--poly", type=_poly_arg, required=True,
                       help='polynomial: "-2x^2+7x-3" or "c0,c1,...,cd"')
        if r:
            _add_input(p, "-r", type=int, required=True, help="start point")
        if A:
            _add_input(p, "-A", type=int, nargs="*", default=PrimeSet(),
                       action=_PrimeSetAction, metavar="P", help="excluded primes")
        if primes:
            _add_input(p, "--primes", dest="prime_bound", type=int,
                       default=prime_bound, help="prime bound (default %(default)s)")
        p.add_argument("--output", choices=("human", "json"), default="human")
        p.add_argument("--out", default=None, help="also write the JSON report here")
        if caps:  # the subcommands that run an integer orbit
            p.add_argument("--max-steps", type=_int_at_least(1), default=max_steps,
                           help="orbit steps before undecided (default %(default)s)")
            p.add_argument("--max-bits", type=_int_at_least(1), default=max_bits,
                           help="orbit value bits before undecided "
                                "(default %(default)s)")
        return p

    command("orbit", "decide nilpotency of u at r over Z", poly=True, r=True, caps=True)
    command("classify", "exact classification of (u, r, A)",
            poly=True, r=True, A=True, caps=True)
    command("certify", "residue certificates for all primes <= bound",
            poly=True, r=True, A=True, primes=True)

    p = command("verify-theorem",
                "enumerate a coefficient box and cross-check the classifier",
                r=True, A=True, primes=True, caps=True)
    _add_input(p, "--degree", type=int, default=3)
    _add_input(p, "--coeff-bound", type=int, default=5)

    p = command("explore", "nilpotency / local-nilpotency window for u",
                poly=True, primes=True, caps=True)
    _add_input(p, "--set", choices=("N", "LN"), default="N")
    _add_input(p, "--r-bound", type=int, default=10)

    command("trap", "verify the additive-trap properties per prime", primes=True)

    p = command("lemma1", "cyclic-subgroup witness primes", primes=True)
    _add_input(p, "--alpha", type=int, required=True)
    _add_input(p, "--beta", type=int, required=True)
    _add_input(p, "--gamma", type=int, required=True)

    command("reduce", "move the base point from r to 1", poly=True, r=True)
    return parser


def _caps(args: argparse.Namespace) -> dict:
    return {"max_steps": args.max_steps, "max_bits": args.max_bits}


def _orbit_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    outcome = decide_nilpotency(args.poly, args.r, **_caps(args))
    result = {"kind": outcome.kind.value, "steps_used": outcome.steps_used}
    if outcome.index is not None:
        result["index"] = outcome.index
    if outcome.cycle_witness is not None:
        tail, values = outcome.cycle_witness
        result["cycle_witness"] = {"tail_length": tail, "cycle_values": list(values)}
    if outcome.escape_data is not None:
        step, value, bound = outcome.escape_data
        result["escape_data"] = {"step": step, "value": value, "bound": bound}
    code = EXIT_UNDECIDED if outcome.kind is OrbitKind.EXHAUSTED else EXIT_OK
    return code, result, []


def _classify_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    v = classify(args.poly, args.r, args.A, **_caps(args))
    result = {
        "decidable": v.decidable,
        "result": v.result,
        "subclass": v.subclass,
        "index": v.index,
        "citation": v.citation,
        "note": v.note,
    }
    citations = [v.citation] if v.citation else []
    return (EXIT_OK if v.decidable else EXIT_UNDECIDED), result, citations


def _certify_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    report = certify_local(args.poly, args.r, args.A, args.prime_bound)
    certs = []
    for cert in report.certificates:
        entry = {"p": cert.p, "kind": cert.kind, "m_p": cert.m_p}
        if cert.cycle is not None:
            tail, values = cert.cycle
            entry["cycle"] = {"tail_length": tail, "cycle_values": list(values)}
        certs.append(entry)
    result = {
        "status": report.status,
        "consistent": report.consistent,
        "refuted_at": report.refuted_at,
        "prime_bound": report.prime_bound,
        "certificates": certs,
    }
    return (EXIT_OK if report.consistent else EXIT_REFUTED), result, []


def _verify_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    space = SearchSpace(
        degree=args.degree, coeff_bound=args.coeff_bound, r=args.r,
        A=args.A, prime_bound=args.prime_bound,
    )
    report = verify_theorem(space, **_caps(args))
    code = EXIT_REFUTED if report.discrepancies else EXIT_OK
    return code, report.to_dict(), sorted(report.per_item_citations)


def _explore_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    if args.set == "N":
        found = explore_N_of_u(args.poly, args.r_bound, **_caps(args))
        entries = [{"r": r, "index": idx} for r, idx in found]
        undecided = any(idx is None for _, idx in found)
        citations = []
    else:
        statuses = explore_LN_of_u(
            args.poly, args.r_bound, args.prime_bound, **_caps(args)
        )
        entries = [e.to_dict() for e in statuses]
        undecided = any(e.status == "undecided" for e in statuses)
        citations = list(dict.fromkeys(e.citation for e in statuses if e.citation))
    result = {"set": args.set, "r_bound": args.r_bound, "entries": entries}
    return (EXIT_UNDECIDED if undecided else EXIT_OK), result, citations


def _trap_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    check_trap_budget(args.prime_bound)
    check_prime_bound(args.prime_bound)
    per_prime = []
    all_ok = True
    for p in primes_up_to(args.prime_bound):
        fixed = [[pt.x, pt.y] for pt in trap_fixed_points(p)]
        all_ok = all_ok and fixed == [[0, 0]]
        # By the ratio lemma (see polyorbit.trap) every first hit lies in
        # [1, p] and ratio 1 takes exactly p steps.
        per_prime.append({
            "p": p,
            "nilpotent_by_step_p": True,
            "max_first_hit": p,
            "fixed_points": fixed,
        })
    result = {"all_ok": all_ok, "primes": per_prime}
    return (EXIT_OK if all_ok else EXIT_REFUTED), result, []


def _lemma1_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    witnesses = lemma1_witnesses(args.alpha, args.beta, args.gamma, args.prime_bound)
    result = {
        "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
        "prime_bound": args.prime_bound, "witnesses": witnesses,
    }
    return EXIT_OK, result, []


def _reduce_result(args: argparse.Namespace) -> tuple[int, dict, list[str]]:
    u, r = args.poly, args.r
    # The leading coefficient of u(r*x)/r is a multiple of r^(degree - 1), of
    # at least (degree - 1)*(bits(r) - 1) + 1 bits. Past log2(10) < 3.322 bits
    # a digit, str() could not print it: refuse it before computing it.
    if (r > 1 and u.constant % r == 0 and (u.degree or 1) > 1
            and (u.degree - 1) * (r.bit_length() - 1) * 1000
            >= 3322 * sys.get_int_max_str_digits()):
        raise _too_long_to_print()
    reduced = u.reduce_at(r)
    try:
        text = str(reduced)
    except ValueError:  # the interpreter's integer string conversion limit
        raise _too_long_to_print() from None
    return EXIT_OK, {"poly": str(u), "r": r, "reduced": text}, []


# Each handler returns (exit code, result, the citations the result rests on).
_HANDLERS = {
    "orbit": _orbit_result,
    "classify": _classify_result,
    "certify": _certify_result,
    "verify-theorem": _verify_result,
    "explore": _explore_result,
    "trap": _trap_result,
    "lemma1": _lemma1_result,
    "reduce": _reduce_result,
}


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "polyorbit report",
    "type": "object",
    "required": ["command", "inputs", "result", "citations", "timings"],
    "properties": {
        "command": {"type": "string", "enum": list(_HANDLERS)},
        "inputs": {"type": "object"},
        "result": {"type": "object"},
        "citations": {"type": "array", "items": {"type": "string"}},
        "timings": {
            "type": "object",
            "required": ["wall_s"],
            "properties": {"wall_s": {"type": "number"}},
        },
    },
    "additionalProperties": False,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch parsed arguments; returns (exit code, report document)."""
    start = time.perf_counter()
    code, result, citations = _HANDLERS[args.command](args)
    doc = {
        "command": args.command,
        "inputs": {key: _echo(getattr(args, key)) for key in args.inputs},
        "result": result,
        "citations": citations,
        "timings": {"wall_s": round(time.perf_counter() - start, 6)},
    }
    return code, doc


def _echo(value):
    if isinstance(value, Polynomial):
        return str(value)
    if isinstance(value, PrimeSet):
        return list(value)
    return value


def _render_human(doc: dict) -> str:
    lines = [f"command: {doc['command']}"]
    for key, value in doc["inputs"].items():
        lines.append(f"  {key}: {value}")
    lines.append("result:")
    lines.extend(_render_value(doc["result"], indent=2))
    if doc["citations"]:
        lines.append(f"citations: {', '.join(doc['citations'])}")
    lines.append(f"wall_s: {doc['timings']['wall_s']}")
    return "\n".join(lines)


def _render_value(value, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, dict):
        out = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                out.append(f"{pad}{k}:")
                out.extend(_render_value(v, indent + 2))
            else:
                out.append(f"{pad}{k}: {_flat(v)}")
        return out
    if isinstance(value, list):
        out = []
        for item in value:
            if isinstance(item, (dict, list)) and not _is_flat(item):
                out.append(f"{pad}-")
                out.extend(_render_value(item, indent + 2))
            else:
                out.append(f"{pad}- {_flat(item)}")
        return out
    return [f"{pad}{value}"]


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(x, (dict, list)) for x in value)
    if isinstance(value, dict):
        return len(value) <= 4 and all(
            not isinstance(x, (dict, list)) for x in value.values()
        )
    return True


def _flat(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_flat(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return str(value)


def _render(doc: dict, args: argparse.Namespace) -> tuple[str | None, str]:
    """(the JSON text for --out, or None without --out; the text for
    stdout), both rendered before anything is written. An integer too long
    for str() ends as a budget error, so it leaves neither a traceback nor
    a truncated --out file."""
    try:
        text = json.dumps(doc, indent=2) if args.out or args.output == "json" else None
        shown = text if args.output == "json" else _render_human(doc)
    except ValueError:  # the interpreter's integer string conversion limit
        raise _too_long_to_print() from None
    return text, shown


def _too_long_to_print() -> BudgetExceededError:
    return BudgetExceededError(
        f"the report holds an integer of more than "
        f"{sys.get_int_max_str_digits()} digits, too long to print"
    )


def _merge_poly_flag(argv: list[str]) -> list[str]:
    # "-u -2x-1" would parse as two flags; fold the value into --poly=...
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("-u", "--poly") and i + 1 < len(argv):
            out.append(f"--poly={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(_merge_poly_flag(list(argv)))
        except SystemExit as exc:  # remap argparse's exit 2 to the usage code
            return EXIT_OK if exc.code == 0 else EXIT_USAGE
        if args.print_schema:
            print(json.dumps(REPORT_SCHEMA, indent=2))
            return EXIT_OK
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        code, doc = run(args)
        text, shown = _render(doc, args)
    except ValueError as exc:  # UsageError and the parse and reduce errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
            return EXIT_USAGE
    try:  # a reader that closed the pipe early has all it wanted
        print(shown)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
