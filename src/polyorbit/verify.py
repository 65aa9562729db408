"""Desk-scale enumeration harness: cross-check the exact classifiers
against orbit decisions and refuting primes over finite coefficient
boxes, explore nilpotency/local-nilpotency windows for a fixed polynomial,
and generate catalog members for positive-direction testing.

Candidates are visited in lexicographic coefficient-vector order and
reports are merged in that order, so identical search spaces produce
byte-identical reports (wall time aside).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import product
from math import prod
from typing import Iterator

from .classify import CATALOG, CATALOG_FAMILIES, NILPOTENT, Verdict, classify
# Unused here; certify_local stays bound because perfbench/spans.py wraps
# polyorbit.verify.certify_local by name.
from .modular import (PRIME_BOUND_DEFAULT, PrimeSet, _as_prime_set,  # noqa: F401
                      certify_local, check_prime_bound, factorize, first_refuting_prime)
from .orbits import (_CYCLE, _ESCAPED, _EXHAUSTED, _REACHED_ZERO,
                     BudgetExceededError, OrbitOutcome, check_caps,
                     decide_nilpotency)
from .polynomials import DEGREE_MAX, Polynomial

CANDIDATE_BUDGET_DEFAULT = 10**7
EXACT_COUNT_BITS = 2**16  # the largest box count an over-budget message computes

# The outcomes that never reach 0, so a residue orbit may refute them.
_NEVER_ZERO = (_CYCLE, _ESCAPED)


@dataclass(frozen=True)
class SearchSpace:
    """All nonzero polynomials of degree <= degree with coefficients in
    [-coeff_bound, coeff_bound], classified at (r, A) and searched for a
    refuting prime up to prime_bound. A degree above DEGREE_MAX raises
    BudgetExceededError before anything is allocated."""

    degree: int
    coeff_bound: int
    r: int
    A: PrimeSet = field(default_factory=PrimeSet)
    prime_bound: int = PRIME_BOUND_DEFAULT

    def __post_init__(self):
        if self.degree < 1 or self.coeff_bound < 0:
            raise ValueError("degree must be >= 1 and coeff_bound >= 0")
        if self.degree > DEGREE_MAX:
            raise BudgetExceededError(
                f"degree {self.degree} exceeds the degree budget of {DEGREE_MAX}"
            )
        check_prime_bound(self.prime_bound)
        object.__setattr__(self, "A", _as_prime_set(self.A))

    @property
    def cardinality(self) -> int:
        """Distinct nonzero candidates (each polynomial counted once)."""
        return (2 * self.coeff_bound + 1) ** (self.degree + 1) - 1

    def candidates(self) -> Iterator[Polynomial]:
        """Every nonzero candidate, in lexicographic coefficient-vector
        order, built from product's int tuples with no re-validation."""
        rng = range(-self.coeff_bound, self.coeff_bound + 1)
        of_ints = Polynomial._of_ints
        for vec in product(rng, repeat=self.degree + 1):
            if any(vec):
                yield of_ints(vec)

    def to_dict(self) -> dict:
        return {**asdict(self), "A": list(self.A)}


@dataclass(frozen=True)
class Discrepancy:
    poly: str
    verdict: str
    finding: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SearchReport:
    """Empty discrepancies means the run confirms the targeted catalog at
    this scale. review_flags are classified-non-member candidates that no
    prime up to the bound refuted: not failures (finite prime ranges cannot
    confirm membership), just entries for manual review."""

    space: SearchSpace
    totals: dict[str, int]
    per_item_citations: dict[str, int]
    discrepancies: list[Discrepancy]
    review_flags: list[dict]
    candidates_checked: int
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "cardinality": self.space.cardinality,
            "candidates_checked": self.candidates_checked,
            "totals": dict(sorted(self.totals.items())),
            "per_item_citations": dict(sorted(self.per_item_citations.items())),
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "review_flags": self.review_flags,
            "wall_time_s": self.wall_time,
        }


def _verdict_label(v: Verdict) -> str:
    if not v.decidable:
        return "undecidable"
    if not v.member:
        return "non-member"
    return v.subclass or "member"


def _verdict_summary(v: Verdict) -> str:
    if not v.decidable:
        return "undecidable"
    head = "InL" if v.member else "NotInL"
    if v.subclass:
        head += f" {v.subclass}"
    if v.index is not None:
        head += f"({v.index})"
    return f"{head} [{v.citation}]"


def _evidence(
    u: Polynomial, r: int, A: "PrimeSet | None", prime_bound: int, caps: dict
) -> tuple[Verdict, OrbitOutcome, int | None]:
    """The verdict on (u, r, A), the integer orbit outcome, and the first
    prime <= prime_bound outside A whose residue orbit never reaches 0
    (None when no prime refutes the orbit or none is searched).

    The orbit is decided once: by the dispatcher when it needs the orbit
    for its verdict, here otherwise. Only a decidable verdict on an orbit
    that cycles or escapes is searched: an orbit reaching 0 at step n
    hits 0 mod every prime by step n, so no prime can refute it.
    """
    verdict = classify(u, r, A, **caps)
    outcome = verdict.orbit or decide_nilpotency(u, r, **caps)
    refuted_at = None
    if verdict.decidable and outcome.kind in _NEVER_ZERO:
        refuted_at = first_refuting_prime(u, r, A, prime_bound)
    return verdict, outcome, refuted_at


def _findings(
    v: Verdict, outcome: OrbitOutcome, refuted_at: int | None
) -> list[str]:
    """The hard discrepancies between a verdict and its decided orbit."""
    if not v.decidable:
        return ["classifier undecidable inside an exact-theorem space"]
    found = []
    if outcome.kind is _REACHED_ZERO:
        if not v.member:
            found.append(
                f"orbit reaches 0 at step {outcome.index} but classified non-member")
        elif v.subclass != NILPOTENT or v.index != outcome.index:
            found.append(f"orbit nilpotency index is {outcome.index}")
    elif v.member and v.subclass == NILPOTENT:
        found.append(f"orbit never reaches 0 ({outcome.kind.value})")
    if refuted_at is not None and v.member:
        found.append(f"residue orbit refutes membership at p={refuted_at}")
    return found


def _check_box_budget(space: SearchSpace) -> None:
    """Refuse a box of more than CANDIDATE_BUDGET_DEFAULT candidates. The
    count is compared with the budget one factor 2c+1 at a time, so a box
    far over it is refused after a few multiplications. The message gives
    the exact count only when the power has at most EXACT_COUNT_BITS bits;
    otherwise the lower bound 2^((degree+1)(bit_length(2c+1)-1)), which
    holds because 2c+1 is odd, so above 2^(bit_length-1) for c >= 1 (c = 0
    always takes the exact count)."""
    budget = CANDIDATE_BUDGET_DEFAULT
    base = 2 * space.coeff_bound + 1
    power = 1
    for _ in range(space.degree + 1):
        power *= base
        if power - 1 > budget:
            break
    else:
        return
    factors = space.degree + 1
    if factors * base.bit_length() > EXACT_COUNT_BITS:
        text = f"at least 2^{factors * (base.bit_length() - 1)}"
    else:
        count = space.cardinality
        # A count of thousands of digits is more than str() may convert.
        text = (str(count) if count.bit_length() <= 64
                else f"at least 2^{count.bit_length() - 1}")
    raise BudgetExceededError(f"{text} candidates exceed the budget of {budget}")


def verify_theorem(space: SearchSpace, **caps) -> SearchReport:
    """Classify every candidate and compare the verdict with the evidence:
    the exact orbit decision (under the decide_nilpotency caps given as
    keywords) and, for a decidable verdict on an orbit that never reaches
    0, the least prime up to the bound that refutes it.

    Hard discrepancies: an undecidable verdict inside an exact-theorem
    space; a nilpotent orbit classified as non-member; any nilpotency
    subclass or index mismatch; a classified member that some prime
    refutes. Flagged for review instead: an orbit the caps leave
    undecided, and a classified non-member that no prime refutes. Caps
    below 1 are refused, and so is a box of more than
    CANDIDATE_BUDGET_DEFAULT candidates.
    """
    check_caps(**caps)
    _check_box_budget(space)
    start = time.perf_counter()
    totals: Counter = Counter()
    citations: Counter = Counter()
    discrepancies: list[Discrepancy] = []
    review_flags: list[dict] = []
    checked = 0
    for u in space.candidates():
        checked += 1
        v, outcome, refuted_at = _evidence(
            u, space.r, space.A, space.prime_bound, caps
        )
        totals[_verdict_label(v)] += 1
        if v.decidable:
            citations[v.citation] += 1
        kind = outcome.kind
        if kind is _EXHAUSTED:
            review_flags.append(
                {"poly": str(u), "reason": "orbit undecided at resource caps"}
            )
            continue
        findings = _findings(v, outcome, refuted_at)
        if findings:
            poly, summary = str(u), _verdict_summary(v)
            discrepancies.extend(Discrepancy(poly, summary, f) for f in findings)
        if (v.decidable and not v.member and refuted_at is None
                and kind is not _REACHED_ZERO):
            review_flags.append(
                {
                    "poly": str(u),
                    "reason": f"classified non-member but consistent up to "
                              f"{space.prime_bound}; orbit {kind.value}",
                }
            )
    return SearchReport(
        space=space,
        totals=dict(totals),
        per_item_citations=dict(citations),
        discrepancies=discrepancies,
        review_flags=review_flags,
        candidates_checked=checked,
        wall_time=time.perf_counter() - start,
    )


def _window(u: Polynomial, r_bound: int) -> range:
    """The start points [-r_bound, r_bound] that the explore functions
    visit, refused above CANDIDATE_BUDGET_DEFAULT points."""
    if u.is_zero():
        raise ValueError("the zero polynomial has no orbit analysis")
    if r_bound < 0:
        raise ValueError("r_bound must be >= 0")
    window = range(-r_bound, r_bound + 1)
    if len(window) > CANDIDATE_BUDGET_DEFAULT:
        raise BudgetExceededError(
            f"{len(window)} start points exceed the budget of {CANDIDATE_BUDGET_DEFAULT}"
        )
    return window


def explore_N_of_u(u: Polynomial, r_bound: int, **caps) -> list[tuple[int, int | None]]:
    """Start points r in [-r_bound, r_bound] whose orbit reaches 0, with
    the exact index; an index of None marks a start point the caps left
    undecided (possible only under tiny budgets). Caps below 1 are
    refused."""
    check_caps(**caps)
    found = []
    for r in _window(u, r_bound):
        outcome = decide_nilpotency(u, r, **caps)
        if outcome.kind is _REACHED_ZERO:
            found.append((r, outcome.index))
        elif outcome.kind is _EXHAUSTED:
            found.append((r, None))
    return found


@dataclass(frozen=True)
class LocalStatusEntry:
    """Per start point: nilpotent (exact), refuted (exact non-member),
    consistent (candidate member; exact when the classifier is decidable),
    or undecided (caps fired)."""

    r: int
    status: str
    index: int | None = None
    refuted_at: int | None = None
    bound: int | None = None
    exact_member: bool | None = None
    citation: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def explore_LN_of_u(
    u: Polynomial, r_bound: int, prime_bound: int, **caps
) -> list[LocalStatusEntry]:
    """Local-nilpotency window: every r in [-r_bound, r_bound] with its
    empirical status, consulting the exact classifier first where it is
    decidable. Caps below 1 are refused."""
    check_caps(**caps)
    window = _window(u, r_bound)
    check_prime_bound(prime_bound)
    entries = []
    for r in window:
        verdict, outcome, refuted_at = _evidence(u, r, None, prime_bound, caps)
        if outcome.kind is _EXHAUSTED:
            entries.append(LocalStatusEntry(r, "undecided"))
            continue
        if outcome.kind is _REACHED_ZERO:
            found = {"status": "nilpotent", "index": outcome.index,
                     "exact_member": True}
        elif refuted_at is not None:
            found = {"status": "refuted", "refuted_at": refuted_at,
                     "exact_member": False}
        else:
            found = {"status": "consistent", "bound": prime_bound,
                     "exact_member": verdict.member}
        entries.append(LocalStatusEntry(r, citation=verdict.citation, **found))
    return entries


def generate_list_members(
    theorem_id: str,
    *,
    A: "PrimeSet | None" = None,
    r: int | None = None,
    exponent_sum: int = 3,
    coeff_bound: int = 5,
) -> list[Polynomial]:
    """Enumerate catalog members within bounds for positive testing.

    theorem_id is a catalog item ("Thm4.3"), built by its builder in
    classify.CATALOG, or a family ("Thm4" expands to every item, each member
    kept at its first occurrence). Thm3.1, 3.3 and 3.4 need A; Thm4.* needs
    r >= 2 and Cor4.* r <= -2; an r or a nonempty A outside the family's
    coverage is refused. exponent_sum caps the total of the prime-power
    exponents, and coeff_bound bounds free integer parameters; an item
    without such a parameter reads neither.
    """
    family, _, item = theorem_id.partition(".")
    items = CATALOG_FAMILIES.get(family, ())
    if not item:
        if not items:
            raise ValueError(f"unknown catalog family {theorem_id!r}")
        return list(dict.fromkeys(  # first occurrence of each member, in order
            u
            for ident in items
            for u in generate_list_members(ident, A=A, r=r, exponent_sum=exponent_sum,
                                           coeff_bound=coeff_bound)
        ))
    if theorem_id not in items:
        raise ValueError(f"unknown catalog item {theorem_id!r}")
    row = CATALOG[family]
    entry = row.items[items.index(theorem_id)]
    if A is None and entry.reads_A:
        raise ValueError(f"{theorem_id} needs the excluded prime set A")
    qs = list(_as_prime_set(A)) if row.excluded else []
    sign = -1 if family == "Cor4" else 1
    if row.r is None:  # Thm4 and Cor4
        if r is None:
            raise ValueError(f"{theorem_id} needs the start point r")
        if sign * r < 2:
            raise ValueError("Thm4.* covers r >= 2" if sign == 1 else "Cor4.* covers r <= -2")
        qs = sorted(factorize(r))
    if (r is not None and row.r not in (None, r)) or (A and not row.excluded):
        raise ValueError(f"{family}.* covers {row.text}; got r={r}, A={list(A or ())}")

    def shifts(primes: list[int], minimum: int = 0) -> list[int]:
        """Products q1^s1*...*qk^sk of primes with minimum <= sum(s) <=
        exponent_sum, ascending."""
        return sorted(prod(q**e for q, e in zip(primes, vec))
                      for vec in product(range(exponent_sum + 1), repeat=len(primes))
                      if minimum <= sum(vec) <= exponent_sum)

    nonzero = [k for k in range(-coeff_bound, coeff_bound + 1) if k]
    return entry.build(r=r, qs=qs, sign=sign, shifts=shifts, nonzero=nonzero)
