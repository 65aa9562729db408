"""Residue-orbit machinery mod p: hitting-time certificates, whole-range
certification of local nilpotency, and the cyclic-subgroup witness search.

One smallest-prime-factor table serves the whole module: it lists the
primes, certifies that a sieved p is prime, and factors every p-1 by
lookup. It grows to the largest prime bound asked for, never past
PRIME_BOUND_MAX, and never shrinks.

Linear maps are answered without walking to the hit. A translation x+b
reaches 0 mod p at m_p = -r/b mod p. Any other u = ax+b with a != 0, 1
mod p has fixed point c = b/(1-a) and u^(n)(r) - c = a^n (r - c), so m_p
is the discrete log of c/(c-r) to base a, found by Pohlig-Hellman over
the factors of ord_p(a). Only a refuting prime is walked, once, to
record its cycle. first_refuting_prime needs no m_p and no cycle: per
prime it asks only whether c/(c-r) lies in the group generated by a.

Primality is decided by sieve / trial division only; certificates must be
unconditional, so probabilistic tests are off the table. Sieves and trial
divisors stop at PRIME_BOUND_MAX.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator

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

    Coefficients are reduced once up front. Three cases, each settled
    within p steps:

    * a translation x+b with b != 0 mod p has u^(n)(r) = r + nb, so
      m_p = -r/b mod p (p when that is 0), from one modular inverse and
      no walk;
    * any other u = ax+b with a != 0 mod p permutes Z/pZ, so the orbit is
      a pure cycle through r. For a != 1, m_p is the discrete log of
      c/(c-r) to base a, with c = b/(1-a) the fixed point (see
      _linear_hitting_time); the identity fixes every residue. Only a
      refutation walks the cycle, once, to record it (tail length 0);
    * otherwise each step is a Horner evaluation, and the walk stops at 0
      or at the first repeated residue, whose first index is the tail
      length. p+1 residues must repeat, so a repeat before any zero means
      zero is unreachable.

    p is checked prime by the smallest-prime-factor table when it lies
    inside it, by trial division otherwise.
    """
    if _spf[p] if 0 <= p < len(_spf) else not is_prime(p):
        raise ValueError(f"{p} is not prime")
    reduced = tuple(c % p for c in reversed(u.coeffs))
    x = r % p
    if len(reduced) == 2 and reduced[0]:  # u permutes Z/pZ
        a, b = reduced
        if a != 1:
            m_p = _linear_hitting_time(a, b, x, p)
        elif b:
            m_p = (-x * pow(b, -1, p)) % p or p
        else:  # the identity
            m_p = 1 if x == 0 else None
        if m_p is not None:
            return PrimeCertificate(p, m_p=m_p)
        return PrimeCertificate(p, cycle=(0, _linear_cycle(a, b, x, p)))
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


def _linear_cycle(a: int, b: int, x: int, p: int) -> tuple[int, ...]:
    """The residues of x -> ax+b mod p from x until the walk returns to x
    (a unit mod p, so the orbit is a pure cycle)."""
    values = [x]
    y = (a * x + b) % p
    while y != x:
        values.append(y)
        y = (a * y + b) % p
    return tuple(values)


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


def _linear_hitting_time(a: int, b: int, x: int, p: int) -> int | None:
    """The least n >= 1 with u^(n)(x) = 0 mod p for u = ax+b, a != 0, 1
    mod p, or None when the orbit misses 0."""
    t = _linear_target(a, b, x, p)
    return None if t is None else _discrete_log(a, t, p)


def _subgroup_order(a: int, t: int, p: int) -> int | None:
    """ord_p(a) when the unit t lies in the cyclic group that a generates
    mod the prime p, that is when t^ord_p(a) = 1; None otherwise."""
    order = multiplicative_order(a, p)
    return order if pow(t, order, p) == 1 else None


def _discrete_log(a: int, t: int, p: int) -> int | None:
    """The least n >= 1 with a^n = t mod p, or None when t is not a power
    of a. t is a unit mod p.

    Pohlig-Hellman: with N = ord_p(a), t is a power of a exactly when
    t^N = 1. The log mod each prime power q^e dividing N is found one
    base-q digit at a time, each digit a log in the subgroup of order q,
    and the parts are joined by the Chinese remainder theorem. A log of 0
    mod N means n = N."""
    order = _subgroup_order(a, t, p)
    if order is None:
        return None
    n, modulus = 0, 1
    for q, e in factorize(order).items():
        qe = q**e
        g = pow(a, order // qe, p)  # order q^e
        h = pow(t, order // qe, p)
        g_q = pow(g, qe // q, p)  # order q
        g_inv = pow(g, -1, p)
        x, qk = 0, 1
        for k in range(e):
            # (h / g^x)^(q^(e-1-k)) = g_q^digit, the k-th base-q digit
            y = pow(h * pow(g_inv, x, p) % p, qe // (qk * q), p)
            x += _log_of_order_q(g_q, y, q, p) * qk
            qk *= q
        n += modulus * ((x - n) * pow(modulus, -1, qe) % qe)
        modulus *= qe
    return n or order


def _log_of_order_q(g: int, y: int, q: int, p: int) -> int:
    """The d in [0, q) with g^d = y mod p, for g of prime order q and y a
    power of g, by baby-step giant-step."""
    m = isqrt(q - 1) + 1  # m^2 >= q
    baby = {}
    acc = 1
    for j in range(m):
        baby[acc] = j
        acc = acc * g % p
    stride = pow(acc, -1, p)  # g^-m
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            return i * m + j
        y = y * stride % p
    raise AssertionError(f"{y} is not a power of {g} mod {p}")


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


def first_refuting_prime(
    u: Polynomial,
    r: int,
    A: "PrimeSet | Iterable[int] | None",
    prime_bound: int,
) -> int | None:
    """The least prime p <= prime_bound outside A whose residue orbit of u
    from r never reaches 0 mod p, or None when every such prime is hit:
    certify_local(u, r, A, prime_bound).refuted_at, with each prime
    answered yes or no and no certificate built."""
    check_prime_bound(prime_bound)
    for p in _primes_outside(prime_bound, _as_prime_set(A)):
        if not _reaches_zero_mod_p(u, r, p):
            return p
    return None


def _reaches_zero_mod_p(u: Polynomial, r: int, p: int) -> bool:
    """Whether the orbit of u from r reaches 0 mod the sieved prime p:
    orbit_mod_p(u, r, p).hit, with no m_p and no cycle for a map ax+b with
    a != 0 mod p. A translation or the identity hits exactly when b != 0
    or r = 0 mod p; any other such map hits exactly when its target (see
    _linear_target) is a power of a."""
    if len(u.coeffs) == 2:
        b, a = u.coeffs
        a %= p
        if a == 1:
            return b % p != 0 or r % p == 0
        if a:
            t = _linear_target(a, b % p, r % p, p)
            return t is not None and _subgroup_order(a, t, p) is not None
    return orbit_mod_p(u, r, p).hit


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
