"""Residue-orbit machinery mod p: hitting-time certificates, whole-range
certification of local nilpotency, and the cyclic-subgroup witness search.

Primality is decided by sieve / trial division only; certificates must be
unconditional, so probabilistic tests are off the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .polynomials import Polynomial


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray(b"\x01") * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : bound + 1 : p] = b"\x00" * ((bound - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk-scale inputs)."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
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
    """Iterate x -> u(x) mod p from r mod p until 0 or a revisit.

    Coefficients are reduced once up front. Two stopping rules, both within
    p steps:

    * u = ax+b with a != 0 mod p permutes Z/pZ, so the orbit is a pure
      cycle through r: the walk stops at 0 (hit) or back at r (refuted,
      with tail length 0);
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
        values = [x]
        for n in range(1, p + 1):
            x = (a * x + b) % p
            if x == 0:
                return PrimeCertificate(p, m_p=n)
            if x == start:
                return PrimeCertificate(p, cycle=(0, tuple(values)))
            values.append(x)
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
    if prime_bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {prime_bound}")
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
    if prime_bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {prime_bound}")
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
