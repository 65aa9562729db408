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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .polynomials import Polynomial

MAX_STEPS_DEFAULT = 10**6
MAX_BITS_DEFAULT = 10**6
MAX_SEEN_DEFAULT = 10**5


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


@dataclass(frozen=True)
class OrbitOutcome:
    """Result of the integer-orbit analysis.

    index is set iff kind is REACHED_ZERO and is the minimal n with
    u^(n)(r) = 0.

    cycle_witness is (tail_length, cycle_values) over the sequence
    r, u(r), u^(2)(r), ...: tail_length values precede the cycle, the
    cycle values are pairwise distinct, none is 0, and u maps the last
    back to the first.

    escape_data is (step, value, bound): |value| >= bound at that step and
    |u(x)| > |x| holds from there on, so absolute values increase forever.
    """

    kind: OrbitKind
    steps_used: int
    index: int | None = None
    cycle_witness: tuple[int, tuple[int, ...]] | None = None
    escape_data: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class EscapeBound:
    """B such that |x| >= B implies |u(x)| > |x|."""

    bound: int


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
    return EscapeBound(2 * (1 + sum(abs(c) for c in u.coeffs)))


def _linear_slope_one(b: int, r: int) -> OrbitOutcome:
    # Orbit r + n*b: hits 0 iff n = -r/b is a positive integer.
    if b == 0:
        if r == 0:
            return OrbitOutcome(OrbitKind.REACHED_ZERO, steps_used=1, index=1)
        return OrbitOutcome(OrbitKind.CYCLE, steps_used=1, cycle_witness=(0, (r,)))
    n, rem = divmod(-r, b)
    if rem == 0 and n >= 1:
        return OrbitOutcome(OrbitKind.REACHED_ZERO, steps_used=n, index=n)
    # Never zero. Once the value has the sign of b, |values| grow strictly.
    k = max(1, (-r) // b + 1)
    value = r + k * b
    return OrbitOutcome(
        OrbitKind.ESCAPED, steps_used=k, escape_data=(k, value, abs(value))
    )


def _linear_slope_minus_one(b: int, r: int) -> OrbitOutcome:
    # Orbit alternates u(r) = b-r, u^(2)(r) = r.
    first = b - r
    if first == 0:
        return OrbitOutcome(OrbitKind.REACHED_ZERO, steps_used=1, index=1)
    if r == 0:
        return OrbitOutcome(OrbitKind.REACHED_ZERO, steps_used=2, index=2)
    if first == r:
        return OrbitOutcome(OrbitKind.CYCLE, steps_used=1, cycle_witness=(0, (r,)))
    return OrbitOutcome(OrbitKind.CYCLE, steps_used=2, cycle_witness=(0, (r, first)))


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
    in closed form. The zero polynomial is rejected.
    """
    if u.is_zero():
        raise ValueError("nilpotency is defined only for nonzero polynomials")
    d = u.degree
    if d == 0:
        c = u.constant  # orbit is c, c, ...; c != 0 since u is nonzero
        if c == r:
            return OrbitOutcome(OrbitKind.CYCLE, steps_used=1, cycle_witness=(0, (c,)))
        return OrbitOutcome(OrbitKind.CYCLE, steps_used=2, cycle_witness=(1, (c,)))
    if d == 1 and u.lead == 1:
        return _linear_slope_one(u.constant, r)
    if d == 1 and u.lead == -1:
        return _linear_slope_minus_one(u.constant, r)

    bound = escape_bound(u).bound
    seen = {r: 0}  # the orbit so far, in insertion order
    x = r
    for n in range(1, max_steps + 1):
        x = u.evaluate(x)
        if x == 0:
            return OrbitOutcome(OrbitKind.REACHED_ZERO, steps_used=n, index=n)
        if abs(x) >= bound:
            return OrbitOutcome(
                OrbitKind.ESCAPED, steps_used=n, escape_data=(n, x, bound)
            )
        if x.bit_length() > max_bits:
            return OrbitOutcome(OrbitKind.EXHAUSTED, steps_used=n)
        hit = seen.get(x)
        if hit is not None:
            return OrbitOutcome(
                OrbitKind.CYCLE,
                steps_used=n,
                cycle_witness=(hit, tuple(seen)[hit:]),
            )
        if len(seen) >= MAX_SEEN_DEFAULT:
            return OrbitOutcome(OrbitKind.EXHAUSTED, steps_used=n)
        seen[x] = n
    return OrbitOutcome(OrbitKind.EXHAUSTED, steps_used=max_steps)


def nilpotency_index(u: Polynomial, r: int, **caps) -> int | None:
    """Minimal n with u^(n)(r) = 0, or None when the orbit provably never
    reaches 0. Raises UndecidedError if the decision was Exhausted."""
    outcome = decide_nilpotency(u, r, **caps)
    if outcome.kind is OrbitKind.REACHED_ZERO:
        return outcome.index
    if outcome.kind is OrbitKind.EXHAUSTED:
        raise UndecidedError(
            f"orbit of {u} at {r} undecided after {outcome.steps_used} steps"
        )
    return None
