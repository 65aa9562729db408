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
from typing import Iterator

from .classify import (
    CATALOG_FAMILIES,
    NILPOTENT,
    THM1_SHAPES,
    Verdict,
    classify,
    mirror_item,
)
# Unused here; certify_local stays bound because perfbench/spans.py wraps
# polyorbit.verify.certify_local by name.
from .modular import (PrimeSet, _as_prime_set, certify_local,  # noqa: F401
                      check_prime_bound, factorize, first_refuting_prime,
                      prime_support)
from .orbits import BudgetExceededError, OrbitKind, OrbitOutcome, decide_nilpotency
from .polynomials import Polynomial, linear

CANDIDATE_BUDGET_DEFAULT = 10**7


@dataclass(frozen=True)
class SearchSpace:
    """All nonzero polynomials of degree <= degree with coefficients in
    [-coeff_bound, coeff_bound], classified at (r, A) and searched for a
    refuting prime up to prime_bound."""

    degree: int
    coeff_bound: int
    r: int
    A: PrimeSet = field(default_factory=PrimeSet)
    prime_bound: int = 300

    def __post_init__(self):
        if self.degree < 1 or self.coeff_bound < 0:
            raise ValueError("degree must be >= 1 and coeff_bound >= 0")
        check_prime_bound(self.prime_bound)
        object.__setattr__(self, "A", _as_prime_set(self.A))

    @property
    def cardinality(self) -> int:
        """Distinct nonzero candidates (each polynomial counted once)."""
        return (2 * self.coeff_bound + 1) ** (self.degree + 1) - 1

    def candidates(self) -> Iterator[Polynomial]:
        rng = range(-self.coeff_bound, self.coeff_bound + 1)
        for vec in product(rng, repeat=self.degree + 1):
            if any(vec):
                yield Polynomial(vec)

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
    if verdict.decidable and outcome.kind in (OrbitKind.CYCLE, OrbitKind.ESCAPED):
        refuted_at = first_refuting_prime(u, r, A, prime_bound)
    return verdict, outcome, refuted_at


def _findings(
    v: Verdict, outcome: OrbitOutcome, refuted_at: int | None
) -> Iterator[str]:
    """The hard discrepancies between a verdict and its decided orbit."""
    if not v.decidable:
        yield "classifier undecidable inside an exact-theorem space"
        return
    if outcome.kind is OrbitKind.REACHED_ZERO:
        if not v.member:
            yield f"orbit reaches 0 at step {outcome.index} but classified non-member"
        elif v.subclass != NILPOTENT or v.index != outcome.index:
            yield f"orbit nilpotency index is {outcome.index}"
    elif v.member and v.subclass == NILPOTENT:
        yield f"orbit never reaches 0 ({outcome.kind.value})"
    if refuted_at is not None and v.member:
        yield f"residue orbit refutes membership at p={refuted_at}"


def verify_theorem(
    space: SearchSpace, *, budget: int = CANDIDATE_BUDGET_DEFAULT, **caps
) -> SearchReport:
    """Classify every candidate and compare the verdict with the evidence:
    the exact orbit decision (under the decide_nilpotency caps given as
    keywords) and, for a decidable verdict on an orbit that never reaches
    0, the least prime up to the bound that refutes it.

    Hard discrepancies: an undecidable verdict inside an exact-theorem
    space; a nilpotent orbit classified as non-member; any nilpotency
    subclass or index mismatch; a classified member that some prime
    refutes. Flagged for review instead: an orbit the caps leave
    undecided, and a classified non-member that no prime refutes.
    """
    if space.cardinality > budget:
        raise BudgetExceededError(
            f"{space.cardinality} candidates exceed the budget of {budget}"
        )
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
        if outcome.kind is OrbitKind.EXHAUSTED:
            review_flags.append(
                {"poly": str(u), "reason": "orbit undecided at resource caps"}
            )
            continue
        discrepancies.extend(
            Discrepancy(str(u), _verdict_summary(v), finding)
            for finding in _findings(v, outcome, refuted_at)
        )
        if (v.decidable and not v.member and refuted_at is None
                and outcome.kind is not OrbitKind.REACHED_ZERO):
            review_flags.append(
                {
                    "poly": str(u),
                    "reason": f"classified non-member but consistent up to "
                              f"{space.prime_bound}; orbit {outcome.kind.value}",
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
    undecided (possible only under tiny budgets)."""
    found = []
    for r in _window(u, r_bound):
        outcome = decide_nilpotency(u, r, **caps)
        if outcome.kind is OrbitKind.REACHED_ZERO:
            found.append((r, outcome.index))
        elif outcome.kind is OrbitKind.EXHAUSTED:
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
    decidable."""
    window = _window(u, r_bound)
    check_prime_bound(prime_bound)
    entries = []
    for r in window:
        verdict, outcome, refuted_at = _evidence(u, r, None, prime_bound, caps)
        if outcome.kind is OrbitKind.EXHAUSTED:
            entries.append(LocalStatusEntry(r, "undecided"))
            continue
        if outcome.kind is OrbitKind.REACHED_ZERO:
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


_MULTIPLIERS = (Polynomial(), Polynomial((1,)), Polynomial((0, 1)))


def _supported_shifts(primes: list[int], cap: int, minimum: int = 0,
                      require=None, per_cap: int | None = None) -> list[int]:
    """Products q1^s1*...*qk^sk with minimum <= sum(s) <= cap (and each
    s_i <= per_cap when given), ascending."""
    step = cap if per_cap is None else min(cap, per_cap)
    out = []
    for vec in product(range(step + 1), repeat=len(primes)):
        s = sum(vec)
        if s < minimum or s > cap:
            continue
        if require is not None and not require(vec):
            continue
        value = 1
        for q, e in zip(primes, vec):
            value *= q**e
        out.append(value)
    return sorted(set(out))


def generate_list_members(
    theorem_id: str,
    *,
    A: "PrimeSet | None" = None,
    r: int | None = None,
    exponent_sum: int = 3,
    exponent_cap: int | None = None,
    coeff_bound: int = 5,
) -> list[Polynomial]:
    """Enumerate catalog members within bounds for positive testing.

    theorem_id is a catalog item ("Thm4.3") or a family ("Thm4" expands to
    every item). Thm3.* needs A; Thm4.* needs r >= 2 and Cor4.* needs
    r <= -2. exponent_sum caps the total of the prime-power exponents
    (exponent_cap additionally caps each one), the free p(x) choices are 0,
    1 and x, and coeff_bound bounds free integer parameters.
    """
    family, _, item = theorem_id.partition(".")
    items = CATALOG_FAMILIES.get(family, ())
    if not item:
        if not items:
            raise ValueError(f"unknown catalog family {theorem_id!r}")
        members: list[Polynomial] = []
        for ident in items:
            for u in generate_list_members(
                ident, A=A, r=r, exponent_sum=exponent_sum,
                exponent_cap=exponent_cap, coeff_bound=coeff_bound,
            ):
                if u not in members:
                    members.append(u)
        return members
    if theorem_id not in items:
        raise ValueError(f"unknown catalog item {theorem_id!r}")

    nonzero = [k for k in range(-coeff_bound, coeff_bound + 1) if k]

    if family == "Thm1":
        for ident, _, base, modulus in THM1_SHAPES:
            if ident == theorem_id:
                shapes = (base + p * modulus for p in _MULTIPLIERS)
                return [u for u in shapes if not u.is_zero()]
        return [linear(1, 1)]

    if family == "Thm2":
        if item == "1":
            return [linear(a, 0) for a in nonzero]
        if item == "2":
            return [linear(s, b) for s in (1, -1) for b in nonzero]
        if item == "3":
            return [
                linear(a, b)
                for a in nonzero
                for b in nonzero
                if abs(a) >= 2 and prime_support(a) <= prime_support(b)
            ]
        if item == "4":
            x = Polynomial((0, 1))
            return [x * p for p in _MULTIPLIERS if not p.is_zero()]
        if item == "5":
            return [
                linear(1, -a) * p
                for a in nonzero
                for p in _MULTIPLIERS
                if p.constant == -1
            ]

    if family == "Thm3":
        if A is None and item in ("1", "3", "4"):
            raise ValueError(f"{theorem_id} needs the excluded prime set A")
        qs = list(_as_prime_set(A))
        if item == "1":
            return [linear(1, s * b)
                    for b in _supported_shifts(qs, exponent_sum, per_cap=exponent_cap)
                    for s in (1, -1)]
        if item == "2":
            return [linear(a, -a) for a in nonzero]
        if item == "3":
            return [linear(s * a, 1)
                    for a in _supported_shifts(qs, exponent_sum, minimum=1,
                                               per_cap=exponent_cap)
                    for s in (1, -1)]
        if item == "4":
            return [linear(-2, -1)] if 2 in qs else []
        if item == "5":
            return [linear(-2, 4)]

    if family in ("Thm4", "Cor4"):
        if r is None:
            raise ValueError(f"{theorem_id} needs the start point r")
        if family == "Cor4":
            if r > -2:
                raise ValueError("Cor4.* covers r <= -2")
            return [
                u.negate_conjugate()
                for u in generate_list_members(
                    mirror_item(theorem_id), r=-r, exponent_sum=exponent_sum,
                    exponent_cap=exponent_cap, coeff_bound=coeff_bound,
                )
            ]
        if r < 2:
            raise ValueError("Thm4.* covers r >= 2")
        r_fac = factorize(r)
        qs = sorted(r_fac)
        exps = [r_fac[q] for q in qs]
        if item == "1":
            return [linear(1, b)
                    for b in _supported_shifts(qs, exponent_sum,
                                               per_cap=exponent_cap)]
        if item == "2":
            shifts = _supported_shifts(
                qs, exponent_sum, minimum=1,
                require=lambda vec: any(s > a for s, a in zip(vec, exps)),
                per_cap=exponent_cap,
            )
            return [linear(1, -b) for b in shifts]
        if item == "3":
            return [linear(s * a, r)
                    for a in _supported_shifts(qs, exponent_sum, minimum=1,
                                               per_cap=exponent_cap)
                    for s in (1, -1)]
        if item == "4":
            return [linear(-2, -r)] if r % 2 == 0 else []
