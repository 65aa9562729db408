"""Residue-orbit machinery mod p: hitting-time certificates, whole-range
certification of local nilpotency, and the cyclic-subgroup witness search.

A translation x+b reaches 0 mod p at m_p = -r/b mod p, in closed form.
Every other linear map is walked around its permutation cycle keeping
only the current residue; the cycle is recorded only when it refutes.

Primality is decided by sieve / trial division only; certificates must be
unconditional, so probabilistic tests are off the table. Sieves and trial
divisors stop at PRIME_BOUND_MAX.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .orbits import BudgetExceededError
from .polynomials import Polynomial

PRIME_BOUND_MAX = 10**7


def _trial_division_exhausted(n: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"trial division of {n} would pass the divisor budget of {PRIME_BOUND_MAX}"
    )


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check. Divisors stop at
    PRIME_BOUND_MAX: a number with no divisor up to there whose square
    root is larger raises BudgetExceededError."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    top = PRIME_BOUND_MAX * PRIME_BOUND_MAX  # no divisor above PRIME_BOUND_MAX is tried
    if n < top:
        top = n
    f = 3
    while f * f <= top:
        if n % f == 0:
            return False
        f += 2
    if f * f <= n:
        raise _trial_division_exhausted(n)
    return True


def check_prime_bound(bound: int) -> None:
    """Refuse a prime bound below 2 or above PRIME_BOUND_MAX, the sieve's."""
    if bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {bound}")
    if bound > PRIME_BOUND_MAX:
        raise BudgetExceededError(
            f"prime bound {bound} exceeds the sieve budget of {PRIME_BOUND_MAX}"
        )


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, by sieve of Eratosthenes. A bound
    above PRIME_BOUND_MAX raises BudgetExceededError before any allocation."""
    if bound < 2:
        return []
    check_prime_bound(bound)
    sieve = bytearray(b"\x01") * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : bound + 1 : p] = b"\x00" * ((bound - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk-scale inputs).
    Divisors stop at PRIME_BOUND_MAX, as in is_prime."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    top = PRIME_BOUND_MAX * PRIME_BOUND_MAX  # as in is_prime, lowered as n shrinks
    if n < top:
        top = n
    f = 5
    while f * f <= top:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
            if n < top:
                top = n
        f += 2
    if f * f <= n:
        raise _trial_division_exhausted(n)
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_support(n: int) -> frozenset[int]:
    """The set of primes dividing |n| (empty for n = +-1)."""
    return frozenset(factorize(n))


@dataclass(frozen=True, init=False)
class PrimeSet:
    """A finite set of excluded primes: sorted, deduplicated, each verified
    prime by trial division at construction."""

    primes: tuple[int, ...]

    def __init__(self, primes: Iterable[int] = ()):
        ps = sorted({int(p) for p in primes})
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "primes", tuple(ps))

    @classmethod
    def _of_primes(cls, primes: Iterable[int]) -> "PrimeSet":
        """A PrimeSet of entries the caller has already shown to be prime,
        built without trial-dividing them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "primes", tuple(sorted(set(primes))))
        return self

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.primes)) + "}"


def _as_prime_set(A: "PrimeSet | Iterable[int] | None") -> PrimeSet:
    if A is None:
        return PrimeSet()
    if isinstance(A, PrimeSet):
        return A
    return PrimeSet(A)


@dataclass(frozen=True)
class PrimeCertificate:
    """Per-prime verdict on the orbit of u at r in Z/pZ.

    Hit: m_p is the least n >= 1 with u^(n)(r) = 0 mod p (always <= p by
    pigeonhole). Refuted: the residue orbit entered a 0-free cycle, so no
    iterate is ever 0 mod p; cycle stores (tail_length, cycle_values) over
    the sequence r, u(r), ... reduced mod p.
    """

    p: int
    m_p: int | None = None
    cycle: tuple[int, tuple[int, ...]] | None = None

    @property
    def hit(self) -> bool:
        return self.m_p is not None

    @property
    def kind(self) -> str:
        return "hit" if self.hit else "refuted"


@dataclass(frozen=True)
class LocalReport:
    """Outcome of certifying all primes <= prime_bound outside A.

    A single refutation disproves membership outright; consistency up to a
    finite bound is evidence, never proof.
    """

    prime_bound: int
    refuted_at: int | None
    certificates: tuple[PrimeCertificate, ...]

    @property
    def consistent(self) -> bool:
        return self.refuted_at is None

    @property
    def status(self) -> str:
        if self.refuted_at is not None:
            return f"RefutedAt({self.refuted_at})"
        return f"ConsistentUpTo({self.prime_bound})"


def orbit_mod_p(u: Polynomial, r: int, p: int) -> PrimeCertificate:
    """The hitting time of 0, or a 0-free cycle, of x -> u(x) mod p from r.

    Coefficients are reduced once up front. Three cases, each settled
    within p steps:

    * a translation x+b with b != 0 mod p has u^(n)(r) = r + nb, so
      m_p = -r/b mod p (p when that is 0), from one modular inverse and
      no walk;
    * any other u = ax+b with a != 0 mod p permutes Z/pZ, so the orbit is
      a pure cycle through r: the walk keeps only the current residue and
      stops at 0 (hit) or back at r (refuted, tail length 0), and only a
      refutation walks its cycle a second time to record it;
    * otherwise each step is a Horner evaluation, and the walk stops at 0
      or at the first repeated residue, whose first index is the tail
      length. p+1 residues must repeat, so a repeat before any zero means
      zero is unreachable.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    reduced = tuple(c % p for c in reversed(u.coeffs))
    x = start = r % p
    if len(reduced) == 2 and reduced[0]:  # the permutation cycle, the hot loop
        a, b = reduced
        if a == 1 and b:
            return PrimeCertificate(p, m_p=(-x * pow(b, -1, p)) % p or p)
        for n in range(1, p + 1):
            x = (a * x + b) % p
            if x == 0:
                return PrimeCertificate(p, m_p=n)
            if x == start:  # refuted: record the n residues of the cycle
                values = [x]
                for _ in range(n - 1):
                    values.append((a * values[-1] + b) % p)
                return PrimeCertificate(p, cycle=(0, tuple(values)))
    else:
        seen = {x: 0}
        for n in range(1, p + 2):
            acc = 0
            for c in reduced:
                acc = (acc * x + c) % p
            x = acc
            if x == 0:
                return PrimeCertificate(p, m_p=n)
            hit = seen.get(x)
            if hit is not None:
                return PrimeCertificate(p, cycle=(hit, tuple(seen)[hit:]))
            seen[x] = n
    raise AssertionError("unreachable: pigeonhole guarantees a zero or a repeat")


@lru_cache(maxsize=1)  # a harness run certifies every candidate at one (bound, A)
def _primes_outside(bound: int, A: PrimeSet) -> tuple[int, ...]:
    return tuple(p for p in primes_up_to(bound) if p not in A)


def certify_local(
    u: Polynomial,
    r: int,
    A: "PrimeSet | Iterable[int] | None",
    prime_bound: int,
) -> LocalReport:
    """Certify the orbit mod every prime <= prime_bound outside A.

    Short-circuits on the first refutation (which settles non-membership);
    certificates computed so far are kept for diagnostics. Primes are
    processed in ascending order, so reports are deterministic.
    """
    check_prime_bound(prime_bound)
    certificates = []
    for p in _primes_outside(prime_bound, _as_prime_set(A)):
        cert = orbit_mod_p(u, r, p)
        certificates.append(cert)
        if not cert.hit:
            return LocalReport(prime_bound, p, tuple(certificates))
    return LocalReport(prime_bound, None, tuple(certificates))


def is_integer_power(base: int, target: int) -> int | None:
    """The m >= 0 with base**m == target, if one exists.

    |base| <= 1 is degenerate and answered directly: 1 has only target 1,
    -1 has targets 1 and -1, 0 has targets 1 (m=0) and 0 (m=1).
    """
    if base == 0:
        return {1: 0, 0: 1}.get(target)
    if base == 1:
        return 0 if target == 1 else None
    if base == -1:
        return {1: 0, -1: 1}.get(target)
    m, acc = 0, 1
    while abs(acc) < abs(target):
        acc *= base
        m += 1
    return m if acc == target else None


class LemmaPreconditionError(ValueError):
    """The witness search's hypothesis does not hold for these inputs."""


def multiplicative_order(a: int, p: int) -> int:
    """The order of a in the multiplicative group mod the prime p: the
    least k >= 1 with a^k = 1 mod p.

    The order divides p-1, so it starts there and divides out each prime
    factor q of p-1 for as long as a^(order/q) = 1 mod p. p must be prime
    (not checked: callers pass sieved primes) and a must be a unit mod p.
    """
    if a % p == 0:
        raise ValueError(f"{a} is not a unit mod {p}")
    order = p - 1
    for q in factorize(order):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def lemma1_witnesses(
    alpha: int, beta: int, gamma: int, prime_bound: int
) -> list[int]:
    """Primes p <= prime_bound, p coprime to alpha*beta*gamma, such that
    gamma*alpha^n = beta mod p has no solution n >= 1.

    Per prime this is the subgroup-membership question "is beta/gamma in
    the cyclic group generated by alpha mod p", and it is answered by the
    order of alpha: beta/gamma lies in that group exactly when
    (beta/gamma)^ord_p(alpha) = 1 mod p. No residue walk is needed; the
    walk of orbit_mod_p serves certify_local only. Requires that neither
    beta/gamma nor gamma/beta is a nonnegative integer power of alpha
    (otherwise a caller logic error: such witnesses cannot exist for almost
    all primes), and a prime bound of at least 2.
    """
    check_prime_bound(prime_bound)
    if alpha == 0 or beta == 0 or gamma == 0:
        raise LemmaPreconditionError("alpha, beta, gamma must all be nonzero")
    for num, den in ((beta, gamma), (gamma, beta)):
        if num % den == 0 and is_integer_power(alpha, num // den) is not None:
            raise LemmaPreconditionError(
                f"{num}/{den} is a nonnegative power of {alpha}; the witness "
                "search's hypothesis fails"
            )
    product = alpha * beta * gamma
    return [
        p
        for p in primes_up_to(prime_bound)
        if product % p
        and pow(beta * pow(gamma, -1, p), multiplicative_order(alpha, p), p) != 1
    ]
