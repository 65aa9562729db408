"""Residue-orbit machinery mod p: hitting-time certificates, whole-range
certification of local nilpotency, and the cyclic-subgroup witness search.

One smallest-prime-factor table serves the whole module: it lists the
primes, certifies that a sieved p is prime, and factors every p-1 by
lookup. It grows to the largest prime bound asked for, never past
PRIME_BOUND_MAX, and never shrinks.

Linear maps are answered without walking to the hit. Write beta = b and
gamma = r(a-1)+b for u = ax+b at r, so that u^(n)(r) = (gamma a^n -
beta)/(a-1). When gamma = beta a^e for an integer e (every linear member
has one), certify_local settles each prime p dividing none of
a(a-1)beta gamma from that one exponent: m_p = -e mod ord_p(a), or
ord_p(a) when that is 0, and first_refuting_prime tests only the primes
that divide the product, since every other prime hits. Each remaining
prime goes to orbit_mod_p. There a translation x+b reaches 0 mod p at
m_p = -r/b mod p. Any other u = ax+b with a != 0, 1 mod p has fixed point
c = b/(1-a) and u^(n)(r) - c = a^n (r - c), so m_p is the discrete log
of c/(c-r) to base a, found by one baby-step giant-step over ord_p(a).
Every other case, a refutation included, takes the one residue walk
(_walk), which also answers first_refuting_prime for maps of degree >= 2.
first_refuting_prime builds no certificate. Per prime it answers any map
of degree <= 1 in closed form (with a = 0 mod p the orbit is r, b, b, ...;
with a != 0, 1 it asks only whether c/(c-r) lies in the group generated
by a, the one subgroup test that lemma1_witnesses shares).

Primality is decided by sieve / trial division only; certificates must be
unconditional, so probabilistic tests are off the table. Sieves and trial
divisors stop at PRIME_BOUND_MAX.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, Sequence

from .orbits import BudgetExceededError
from .polynomials import Polynomial

PRIME_BOUND_MAX = 10**7

# For n < len(_spf): _spf[n] is the smallest prime factor of a composite n,
# 0 for a prime n and 1 for n < 2. A composite n <= PRIME_BOUND_MAX has a
# factor <= isqrt(PRIME_BOUND_MAX) = 3162, so two bytes an entry suffice.
_spf = array("H", (1, 1))


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


def _table(bound: int) -> array:
    """The smallest-prime-factor table, first grown to cover bound if it
    is shorter. Callers check bound against PRIME_BOUND_MAX first."""
    global _spf
    if bound >= len(_spf):
        root = isqrt(bound)
        small = _table(root)
        spf = array("H", (0,)) * (bound + 1)
        spf[0] = spf[1] = 1
        # Descending, so that the smallest prime factor is written last.
        for q in range(root, 1, -1):
            if not small[q]:
                spf[q * q :: q] = array("H", (q,)) * ((bound - q * q) // q + 1)
        _spf = spf
    return _spf


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, read from the smallest-prime-factor
    table. A bound above PRIME_BOUND_MAX raises BudgetExceededError before
    any allocation."""
    if bound < 2:
        return []
    check_prime_bound(bound)
    spf = _table(bound)
    return [n for n in range(2, bound + 1) if not spf[n]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, ascending: by lookup in the
    smallest-prime-factor table when |n| lies inside it, by trial division
    otherwise. Trial divisors stop at PRIME_BOUND_MAX, as in is_prime."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    spf = _spf
    if n < len(spf):
        while n > 1:
            q = spf[n] or n
            out[q] = out.get(q, 0) + 1
            n //= q
        return out
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

    Coefficients are reduced once up front. A hit of a linear map with
    a != 0 mod p is found with no walk:

    * a translation x+b with b != 0 mod p has u^(n)(r) = r + nb, so
      m_p = -r/b mod p (p when that is 0), from one modular inverse;
    * any other u = ax+b with a != 1 has m_p the discrete log of c/(c-r)
      to base a, with c = b/(1-a) the fixed point (see _linear_target).

    Every other case (a refutation, the identity, a = 0 mod p and every
    map of degree >= 2) takes the residue walk (_walk) that
    first_refuting_prime shares, and the first index of the repeated
    residue is the tail length: 0 for a map that permutes Z/pZ.

    p is checked prime by the smallest-prime-factor table when it lies
    inside it, by trial division otherwise.
    """
    if _spf[p] if 0 <= p < len(_spf) else not is_prime(p):
        raise ValueError(f"{p} is not prime")
    reduced = tuple(c % p for c in reversed(u.coeffs))
    x = r % p
    if len(reduced) == 2 and reduced[0]:  # u permutes Z/pZ
        a, b = reduced
        if a == 1:
            if b:
                return PrimeCertificate(p, m_p=(-x * pow(b, -1, p)) % p or p)
        elif (t := _linear_target(a, b, x, p)) is not None:
            m_p = 1 if t == a else _discrete_log(a, t, p)
            if m_p is not None:
                return PrimeCertificate(p, m_p=m_p)
    n, seen = _walk(reduced, x, p)
    if seen is None:
        return PrimeCertificate(p, m_p=n)
    return PrimeCertificate(p, cycle=(n, tuple(seen)[n:]))


def _walk(reduced: Sequence[int], x: int, p: int) -> tuple[int, dict | None]:
    """Step x -> u(x) mod p by Horner evaluation over u's coefficients
    reduced mod p, highest first: (n, None) for the least n >= 1 with
    u^(n)(x) = 0, or, at the first repeated residue, (tail, seen) with seen
    mapping each residue visited to its index and tail the repeated one's.
    p+1 residues must repeat, so zero is unreachable after a repeat."""
    seen = {x: 0}
    for n in range(1, p + 2):
        acc = 0
        for c in reduced:
            acc = (acc * x + c) % p
        x = acc
        if x == 0:
            return n, None
        hit = seen.get(x)
        if hit is not None:
            return hit, seen
        seen[x] = n
    raise AssertionError("unreachable: pigeonhole guarantees a zero or a repeat")


def _linear_target(a: int, b: int, x: int, p: int) -> int | None:
    """For u = ax+b with a != 0, 1 mod p: the unit t such that the least
    n >= 1 with u^(n)(x) = 0 mod p is the least n >= 1 with a^n = t, or
    None when the orbit misses 0.

    With c = b/(1-a), u^(n)(x) - c = a^n (x - c). If x = c the orbit is
    constant: it is 0 from step 1 when c = 0, which t = a gives. Otherwise
    u^(n)(x) = 0 exactly when a^n = c/(c-x), which has no solution when
    c = 0."""
    c = b * pow(1 - a, -1, p) % p
    if x == c:
        return a if c == 0 else None
    if c == 0:
        return None
    return c * pow(c - x, -1, p) % p


def _subgroup_order(a: int, t: int, p: int) -> int | None:
    """ord_p(a) when the unit t lies in the cyclic group that a generates
    mod the prime p, that is when t^ord_p(a) = 1; None otherwise. When
    ord_p(a) = p-1 the group is all of (Z/pZ)*, and no power is taken."""
    order = multiplicative_order(a, p)
    return order if order == p - 1 or pow(t, order, p) == 1 else None


def _discrete_log(a: int, t: int, p: int) -> int | None:
    """The least n >= 1 with a^n = t mod p, or None when t is not a power
    of a. t is a unit mod p.

    One baby-step giant-step over N = ord_p(a): the baby steps are a^1 ..
    a^m with m = isqrt(N-1)+1, so m^2 >= N, and the giant steps divide t by
    a^m once per step. Giant step i finds n in [im+1, im+m], so the first
    match is the least n; a log of 0 mod N is found as n = N."""
    order = _subgroup_order(a, t, p)
    if order is None:
        return None
    m = isqrt(order - 1) + 1
    baby = {}
    acc = 1
    for j in range(1, m + 1):
        acc = acc * a % p
        baby[acc] = j
    stride = pow(acc, -1, p)  # a^-m
    for i in range(m):
        j = baby.get(t)
        if j is not None:
            return i * m + j
        t = t * stride % p
    raise AssertionError(f"{t} is not a power of {a} mod {p}")


@lru_cache(maxsize=1)  # a harness run certifies every candidate at one (bound, A)
def _primes_outside(bound: int, excluded: tuple[int, ...]) -> tuple[int, ...]:
    """The primes up to bound not in excluded, a PrimeSet's primes: the
    cache is keyed on that tuple, hashed in C, not on the PrimeSet."""
    skip = set(excluded)
    return tuple(p for p in primes_up_to(bound) if p not in skip)


def _linear_exponent(u: Polynomial, r: int) -> int | None:
    """The integer e with gamma = beta a^e for u = ax+b at r, where beta = b
    and gamma = r(a-1)+b, or None when there is none, when a = 1 and when
    beta or gamma is 0. Then u^(n)(r) = beta (a^(n+e) - 1)/(a-1)."""
    if len(u.coeffs) != 2:
        return None
    beta, a = u.coeffs
    gamma = r * (a - 1) + beta
    if a == 1 or beta == 0 or gamma == 0:
        return None
    if gamma % beta == 0:
        e = is_integer_power(a, gamma // beta)
        if e is not None:
            return e
    if beta % gamma == 0:
        e = is_integer_power(a, beta // gamma)
        if e is not None:
            return -e
    return None


def _exceptional_product(u: Polynomial, r: int) -> int:
    """a(a-1)beta gamma for u = ax+b at r: a prime dividing none of its
    factors has m_p = -e mod ord_p(a) (see _linear_exponent)."""
    beta, a = u.coeffs
    return a * (a - 1) * beta * (r * (a - 1) + beta)


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

    A linear map with gamma = beta a^e (see _linear_exponent) hits every
    prime p dividing none of a(a-1)beta gamma at m_p = -e mod ord_p(a), or
    ord_p(a) when that is 0: one multiplicative order a prime. Every other
    prime is settled by orbit_mod_p.
    """
    check_prime_bound(prime_bound)
    e = _linear_exponent(u, r)
    special = 0 if e is None else _exceptional_product(u, r)
    certificates = []
    for p in _primes_outside(prime_bound, _as_prime_set(A).primes):
        if special % p:
            order = multiplicative_order(u.lead, p)
            cert = PrimeCertificate(p, m_p=-e % order or order)
        else:
            cert = orbit_mod_p(u, r, p)
        certificates.append(cert)
        if not cert.hit:
            return LocalReport(prime_bound, p, tuple(certificates))
    return LocalReport(prime_bound, None, tuple(certificates))


def first_refuting_prime(
    u: Polynomial,
    r: int,
    A: "PrimeSet | Iterable[int] | None",
    prime_bound: int,
) -> int | None:
    """The least prime p <= prime_bound outside A whose residue orbit of u
    from r never reaches 0 mod p, or None when every such prime is hit:
    certify_local(u, r, A, prime_bound).refuted_at, with each prime
    answered yes or no and no certificate built.

    A linear map with gamma = beta a^e (see _linear_exponent) hits every
    prime dividing none of a(a-1)beta gamma, so only the primes that
    divide it are tested. The product is never factored."""
    check_prime_bound(prime_bound)
    special = 0 if _linear_exponent(u, r) is None else _exceptional_product(u, r)
    excluded = A.primes if isinstance(A, PrimeSet) else _as_prime_set(A).primes
    for p in _primes_outside(prime_bound, excluded):
        if not special % p and not _reaches_zero_mod_p(u, r, p):
            return p
    return None


def _reaches_zero_mod_p(u: Polynomial, r: int, p: int) -> bool:
    """Whether the orbit of u from r reaches 0 mod the sieved prime p:
    orbit_mod_p(u, r, p).hit, with no certificate built. Any ax+b is
    answered in closed form: for a = 0 mod p (constants and the zero map
    too) the orbit is r, b, b, ..., a hit exactly when b = 0; x+b hits
    exactly when b != 0 or r = 0; any other map exactly when its target
    (see _linear_target) is a power of a. Higher degrees take _walk over
    coefficients reduced mod p once per prime, so that no step multiplies
    big integers."""
    coeffs = u.coeffs
    if len(coeffs) > 2:
        return _walk([c % p for c in reversed(coeffs)], r % p, p)[1] is None
    if len(coeffs) < 2:  # a constant or the zero map: r, b, b, ...
        return not coeffs or coeffs[0] % p == 0
    b, a = coeffs
    a, b = a % p, b % p
    if a == 0:
        return b == 0
    if a == 1:
        return b != 0 or r % p == 0
    t = _linear_target(a, b, r % p, p)
    return t is not None and _subgroup_order(a, t, p) is not None


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
    factor q of p-1 for as long as a^(order/q) = 1 mod p, each q read from
    the smallest-prime-factor table (from factorize beyond it). p must be
    prime (not checked: callers pass sieved primes) and a a unit mod p.
    """
    if a % p == 0:
        raise ValueError(f"{a} is not a unit mod {p}")
    order = n = p - 1
    spf = _spf
    if n >= len(spf):
        for q in factorize(n):
            while order % q == 0 and pow(a, order // q, p) == 1:
                order //= q
        return order
    while n > 1:
        q = spf[n] or n
        while n % q == 0:
            n //= q
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
    subgroup test the residue orbits use (_subgroup_order): beta/gamma lies
    in that group exactly when (beta/gamma)^ord_p(alpha) = 1 mod p. When
    ord_p(alpha) = p-1 the group is all of (Z/pZ)*, and no power is taken.
    No residue walk is needed.
    Requires that neither beta/gamma nor gamma/beta is a nonnegative
    integer power of alpha (otherwise a caller logic error: such witnesses
    cannot exist for almost all primes), and a prime bound of at least 2.
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
        and _subgroup_order(alpha, beta * pow(gamma, -1, p), p) is None
    ]
