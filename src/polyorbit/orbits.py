"""Exact forward orbits over the integers and the nilpotency decision.

decide_nilpotency proves one of three things about the orbit
u(r), u(u(r)), ...:

* it reaches 0 (minimal index reported),
* it revisits a value without reaching 0 (a cycle certificate: 0 is
  never reached),
* it crosses an escape bound B with |u(x)| > |x| for all |x| >= B
  (absolute values then grow strictly forever, so 0 is never reached).

For slope +-1 linear maps, where no escape bound exists, closed forms
decide instead. Exhausted is only ever produced by resource caps.

A revisit needs no record of the orbit: every cycle of a map in Z[x] has
length 1 or 2 (W. Narkiewicz, Polynomial Mappings, Lecture Notes in
Mathematics 1600, Springer, 1995), so the first value that repeats is the
value one or two steps back, and the cycle witness follows from the step
count. The search keeps only the last two values, whatever its length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .polynomials import Polynomial

MAX_STEPS_DEFAULT = 10**6
MAX_BITS_DEFAULT = 10**6


class BudgetExceededError(RuntimeError):
    """A resource cap fired; the value is diverging beyond budget, the
    mathematics has not failed."""


class UndecidedError(RuntimeError):
    """The orbit decision was Exhausted, so no answer can be reported."""


class OrbitKind(enum.Enum):
    REACHED_ZERO = "reached-zero"
    CYCLE = "cycle"
    ESCAPED = "escaped"
    EXHAUSTED = "exhausted"


class OrbitOutcome(NamedTuple):
    """Result of the integer-orbit analysis: a tuple of its five fields.

    index is set iff kind is REACHED_ZERO and is the minimal n with
    u^(n)(r) = 0.

    cycle_witness is (tail_length, cycle_values) over the sequence
    r, u(r), u^(2)(r), ...: tail_length values precede the cycle, the
    cycle values are pairwise distinct, none is 0, and u maps the last
    back to the first.

    escape_data is (step, value, bound): |value| >= bound at that step and
    |u(x)| > |x| holds from there on, so absolute values increase forever.

    An outcome is built for every candidate of a harness box, so it costs
    a tuple: it equals (kind, steps_used, index, cycle_witness,
    escape_data), unpacks, and copies with _replace and _asdict.
    """

    kind: OrbitKind
    steps_used: int
    index: int | None = None
    cycle_witness: tuple[int, tuple[int, ...]] | None = None
    escape_data: tuple[int, int, int] | None = None


# The members, bound once: each OrbitKind.X lookup goes through the enum
# metaclass, and the harness makes several per candidate.
_REACHED_ZERO = OrbitKind.REACHED_ZERO
_CYCLE = OrbitKind.CYCLE
_ESCAPED = OrbitKind.ESCAPED
_EXHAUSTED = OrbitKind.EXHAUSTED


@dataclass(frozen=True)
class EscapeBound:
    """B such that |x| >= B implies |u(x)| > |x|."""

    bound: int


def check_caps(
    *, max_steps: int = MAX_STEPS_DEFAULT, max_bits: int = MAX_BITS_DEFAULT
) -> None:
    """Refuse a step or bit cap below 1: no orbit can be decided under it.
    The defaults are valid, so a caller given no caps need not call this."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if max_bits < 1:
        raise ValueError(f"max_bits must be >= 1, got {max_bits}")


def iterate_value(
    u: Polynomial, r: int, n: int, *, max_bits: int = MAX_BITS_DEFAULT
) -> int:
    """u^(n)(r) by n successive evaluations (never by composition; repeated
    composition blows up coefficients doubly exponentially)."""
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    x = r
    for step in range(1, n + 1):
        x = u.evaluate(x)
        if x.bit_length() > max_bits:
            raise BudgetExceededError(
                f"value exceeded {max_bits} bits at step {step}; diverging beyond budget"
            )
    return x


def iterate_linear_closed(a: int, b: int, r: int, n: int) -> int:
    """u^(n)(r) for u = ax+b via the closed form a^n*r + b*(1+a+...+a^(n-1))."""
    if a == 0:
        raise ValueError("slope must be nonzero")
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    if a == 1:
        return r + n * b
    an = a**n
    return an * r + b * ((an - 1) // (a - 1))


def escape_bound(u: Polynomial) -> EscapeBound:
    """B = 2*(1 + sum |coefficients|).

    Applicable for degree >= 2, or degree 1 with |slope| >= 2; degree <= 1
    with slope in {0, +-1} has no such bound and is decided by closed forms.
    """
    d = u.degree
    if d is None or d == 0 or (d == 1 and abs(u.lead) < 2):
        raise ValueError(
            "escape bound applies only to degree >= 2 or degree 1 with |slope| >= 2"
        )
    return EscapeBound(_escape_bound(u))


def _escape_bound(u: Polynomial) -> int:
    """escape_bound(u).bound, for a u that the caller knows it applies to:
    the one formula, read by escape_bound and by decide_nilpotency."""
    return 2 * (1 + sum(map(abs, u.coeffs)))


def _linear_slope_one(b: int, r: int) -> OrbitOutcome:
    # Orbit r + n*b: hits 0 iff n = -r/b is a positive integer.
    if b == 0:
        if r == 0:
            return OrbitOutcome(_REACHED_ZERO, 1, 1)
        return OrbitOutcome(_CYCLE, 1, None, (0, (r,)))
    n, rem = divmod(-r, b)
    if rem == 0 and n >= 1:
        return OrbitOutcome(_REACHED_ZERO, n, n)
    # Never zero. Once the value has the sign of b, |values| grow strictly.
    k = max(1, (-r) // b + 1)
    value = r + k * b
    return OrbitOutcome(_ESCAPED, k, None, None, (k, value, abs(value)))


def _linear_slope_minus_one(b: int, r: int) -> OrbitOutcome:
    # Orbit alternates u(r) = b-r, u^(2)(r) = r.
    first = b - r
    if first == 0:
        return OrbitOutcome(_REACHED_ZERO, 1, 1)
    if r == 0:
        return OrbitOutcome(_REACHED_ZERO, 2, 2)
    if first == r:
        return OrbitOutcome(_CYCLE, 1, None, (0, (r,)))
    return OrbitOutcome(_CYCLE, 2, None, (0, (r, first)))


def decide_nilpotency(
    u: Polynomial,
    r: int,
    *,
    max_steps: int = MAX_STEPS_DEFAULT,
    max_bits: int = MAX_BITS_DEFAULT,
) -> OrbitOutcome:
    """Decide whether the orbit of u at r ever reaches 0 exactly.

    For degree >= 2 and for |slope| >= 2 linear maps the three-way search
    (zero hit / revisit / escape) is exhaustive, so EXHAUSTED can only come
    from the resource caps. Slope +-1 linear maps and constants are decided
    in closed form. The zero polynomial and caps below 1 are rejected.

    The coefficients are read once, and the orbit is stepped by Horner's
    rule inline over them, highest first: one evaluation a step, with no
    method call. Outcomes are built positionally from the bound kinds.
    """
    if max_steps < 1 or max_bits < 1:
        check_caps(max_steps=max_steps, max_bits=max_bits)
    coeffs = u.coeffs
    if not coeffs:
        raise ValueError("nilpotency is defined only for nonzero polynomials")
    size = len(coeffs)
    if size == 1:
        c = coeffs[0]  # orbit is c, c, ...; c != 0 since u is nonzero
        if c == r:
            return OrbitOutcome(_CYCLE, 1, None, (0, (c,)))
        return OrbitOutcome(_CYCLE, 2, None, (1, (c,)))
    if size == 2 and coeffs[1] == 1:
        return _linear_slope_one(coeffs[0], r)
    if size == 2 and coeffs[1] == -1:
        return _linear_slope_minus_one(coeffs[0], r)

    bound = _escape_bound(u)
    highest_first = coeffs[::-1]
    back2, back1, x = None, None, r  # a repeat is one of the last two values
    for n in range(1, max_steps + 1):
        back2, back1 = back1, x
        acc = 0
        for c in highest_first:
            acc = acc * x + c
        x = acc
        if x == 0:
            return OrbitOutcome(_REACHED_ZERO, n, n)
        if abs(x) >= bound:
            return OrbitOutcome(_ESCAPED, n, None, None, (n, x, bound))
        if x.bit_length() > max_bits:
            return OrbitOutcome(_EXHAUSTED, n)
        if x == back1:
            return OrbitOutcome(_CYCLE, n, None, (n - 1, (x,)))
        if x == back2:
            return OrbitOutcome(_CYCLE, n, None, (n - 2, (x, back1)))
    return OrbitOutcome(_EXHAUSTED, max_steps)


def nilpotency_index(u: Polynomial, r: int, **caps) -> int | None:
    """Minimal n with u^(n)(r) = 0, or None when the orbit provably never
    reaches 0. Raises UndecidedError if the decision was Exhausted."""
    outcome = decide_nilpotency(u, r, **caps)
    if outcome.kind is _REACHED_ZERO:
        return outcome.index
    if outcome.kind is _EXHAUSTED:
        raise UndecidedError(
            f"orbit of {u} at {r} undecided after {outcome.steps_used} steps"
        )
    return None
