"""Residue-orbit machinery mod p: hitting-time certificates, whole-range
certification of local nilpotency, and the cyclic-subgroup witness search.

One smallest-prime-factor table serves the whole module: it certifies
that a sieved p is prime and factors every p-1 by lookup, and its
ascending prime list, rebuilt with it, is the one list that every prime
range is read from. The table grows to the largest prime bound asked
for, never past PRIME_BOUND_MAX, and never shrinks.

Linear maps are answered without walking to the hit. Write beta = b and
gamma = r(a-1)+b for u = ax+b at r, so that u^(n)(r) = (gamma a^n -
beta)/(a-1). When gamma = beta a^e for an integer e (every linear member
has one), certify_local settles each prime p dividing none of
a(a-1)beta gamma from that one exponent: m_p = -e mod ord_p(a), or
ord_p(a) when that is 0, and first_refuting_prime tests only the primes
that divide the product, since every other prime hits. Each such order
comes from _order, the one order loop, which multiplicative_order also
runs; certify_local gives it a's quadratic character. Each remaining
prime goes to orbit_mod_p. There a translation x+b reaches 0 mod p at
m_p = -r/b mod p, and any other ax+b with a != 0, 1 mod p and beta, gamma
units at the least n >= 1 with a^n = beta/gamma: one baby-step
giant-step over ord_p(a). Every other case, a refutation included, takes
the one residue walk (_walk). first_refuting_prime builds no certificate:
it walks maps of degree >= 2 and answers the rest in closed form, asking
only whether beta/gamma lies in the group generated by a. That yes or no
is _in_subgroup, which lemma1_witnesses shares: a test prime by prime of
p-1 that never computes ord_p(a). Only the discrete log, which needs the
order, takes _subgroup_order.

A quadratic character mod p is the first step (q = 2) of both the order
and the subgroup test. By quadratic reciprocity the character of a
nonzero n depends only on p mod 4|n|, so _square_reader keeps it by
residue class for one call: lemma1_witnesses reads alpha's and
beta*gamma's (beta/gamma's character), certify_local reads a's, and
_reaches_zero_mod_p, which asks about one prime at a time, reads none.

Primality is decided by sieve / trial division only; certificates must be
unconditional, so probabilistic tests are off the table. One divisor loop
(_least_factor) serves is_prime, factorize, and the order and subgroup
tests where p-1 lies beyond the table; it stops at PRIME_BOUND_MAX.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from math import gcd, isqrt
from operator import not_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .orbits import BudgetExceededError
from .polynomials import Polynomial

PRIME_BOUND_MAX = 10**7
PRIME_BOUND_DEFAULT = 300  # the prime bound of a search that names none

# For n < len(_spf): _spf[n] is the smallest prime factor of a composite n,
# 0 for a prime n and 1 for n < 2. A composite n <= PRIME_BOUND_MAX has a
# factor <= isqrt(PRIME_BOUND_MAX) = 3162, so two bytes an entry suffice.
# _primes: the primes below len(_spf), ascending. _table rebinds both at once.
_spf = array("H", (1, 1))
_primes = array("I")


def _least_factor(n: int, f: int = 2) -> int:
    """The least prime factor of n >= 2 that is at least f, n itself when n
    is prime; n has no prime factor below f. Divisors stop at
    PRIME_BOUND_MAX: a search that would pass it before reaching the
    square root of n raises BudgetExceededError."""
    if n % 2 == 0:
        return 2
    f = max(f, 3)
    top = PRIME_BOUND_MAX * PRIME_BOUND_MAX  # no divisor above PRIME_BOUND_MAX is tried
    if n < top:
        top = n
    while f * f <= top:
        if n % f == 0:
            return f
        f += 2
    if f * f <= n:
        raise BudgetExceededError(
            f"trial division of {n} would pass the divisor budget of {PRIME_BOUND_MAX}"
        )
    return n


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check. Divisors stop at
    PRIME_BOUND_MAX: a number with no divisor up to there whose square
    root is larger raises BudgetExceededError."""
    return n >= 2 and _least_factor(n) == n


def check_prime_bound(bound: int) -> None:
    """Refuse a prime bound below 2 or above PRIME_BOUND_MAX, the sieve's."""
    if bound < 2:
        raise ValueError(f"prime bound must be >= 2, got {bound}")
    if bound > PRIME_BOUND_MAX:
        raise BudgetExceededError(
            f"prime bound {bound} exceeds the sieve budget of {PRIME_BOUND_MAX}"
        )


def _table(bound: int) -> array:
    """The ascending primes of the smallest-prime-factor table, the table
    first grown to cover bound if it is shorter, and its prime list rebuilt
    with it. Callers check bound against PRIME_BOUND_MAX first."""
    global _spf, _primes
    if bound >= len(_spf):
        root = isqrt(bound)
        small = _table(root)
        spf = array("H", (0,)) * (bound + 1)
        spf[0] = spf[1] = 1
        # Descending, so that the smallest prime factor is written last.
        for q in reversed(small[: bisect_right(small, root)]):
            spf[q * q :: q] = array("H", (q,)) * ((bound - q * q) // q + 1)
        _spf, _primes = spf, array("I", compress(range(bound + 1), map(not_, spf)))
    return _primes


def _primes_outside(bound: int, excluded: Sequence[int]) -> Iterator[int]:
    """The primes up to bound not in excluded, ascending: an iterator over
    the table's prime list, copying none of it, filtered only when excluded
    is nonempty. _table rebinds the list and never mutates it, so the
    iterator stays valid when the table grows before it is finished."""
    primes = _table(bound)
    primes = islice(primes, bisect_right(primes, bound))
    return filterfalse(set(excluded).__contains__, primes) if excluded else primes


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending, a fresh list copied from the table's
    prime list. A bound above PRIME_BOUND_MAX raises BudgetExceededError
    before any allocation."""
    if bound < 2:
        return []
    check_prime_bound(bound)
    return list(_primes_outside(bound, ()))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, ascending: each factor read from the
    smallest-prime-factor table while the cofactor lies inside it, found by
    trial division (_least_factor) from the last factor otherwise. Trial
    divisors stop at PRIME_BOUND_MAX, as in is_prime."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    spf = _spf
    q = 2
    while n > 1:
        q = (spf[n] or n) if n < len(spf) else _least_factor(n, q)
        out[q] = out.get(q, 0) + 1
        n //= q
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


class PrimeCertificate(NamedTuple):
    """Per-prime verdict on the orbit of u at r in Z/pZ.

    Hit: m_p is the least n >= 1 with u^(n)(r) = 0 mod p (always <= p by
    pigeonhole). Refuted: the residue orbit entered a 0-free cycle, so no
    iterate is ever 0 mod p; cycle stores (tail_length, cycle_values) over
    the sequence r, u(r), ... reduced mod p. A tuple (p, m_p, cycle): it
    compares equal to one, unpacks, and copies with _replace and _asdict.
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
    * any other u = ax+b with a != 1 hits at step 1 when b = a gamma, for
      gamma = r(a-1)+b; otherwise, when b and gamma are units, m_p is the
      discrete log of the target b/gamma to base a (see the module doc).

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
                return PrimeCertificate(p, (-x * pow(b, -1, p)) % p or p)
        else:
            gamma = (x * (a - 1) + b) % p
            if b == a * gamma % p:  # u(x) = 0
                return PrimeCertificate(p, 1)
            if b and gamma and (m_p := _discrete_log(a, b, gamma, p)) is not None:
                return PrimeCertificate(p, m_p)
    n, seen = _walk(reduced, x, p)
    if seen is None:
        return PrimeCertificate(p, n)
    return PrimeCertificate(p, None, (n, tuple(seen)[n:]))


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


def _subgroup_order(a: int, beta: int, gamma: int, p: int) -> int | None:
    """ord_p(a) when the unit beta/gamma lies in the cyclic group that a
    generates mod the prime p, that is when (beta/gamma)^ord_p(a) = 1;
    None otherwise: the discrete log's step, which needs the order. When
    ord_p(a) = p-1 the group is all of (Z/pZ)*, and neither an inverse nor
    a power is taken."""
    order = multiplicative_order(a, p)
    if order == p - 1 or pow(beta * pow(gamma, -1, p), order, p) == 1:
        return order
    return None


def _in_subgroup(
    a: int,
    beta: int,
    gamma: int,
    p: int,
    a_square: bool | None = None,
    t_square: bool | None = None,
) -> bool:
    """Whether the unit beta/gamma lies in the cyclic group that the unit a
    generates mod the sieved prime p, decided without ord_p(a).

    In a cyclic group of order p-1, t lies in <a> exactly when, for each
    prime q of p-1, q divides ord(t) no more often than ord(a). So for each
    q (read from the smallest-prime-factor table as factorize reads it,
    found by trial division beyond it) and each q^s dividing p-1 in turn,
    the test moves to the next q as soon as a^((p-1)/q^s) != 1, and
    otherwise requires t^((p-1)/q^s) = 1. t = beta/gamma is formed at the
    first power of t the test takes. a_square and t_square, when given,
    are the quadratic characters of a and of t mod p (whether
    a^((p-1)/2) = 1, and likewise t, whose character is beta*gamma's): the
    first test, q = 2 and s = 1, is read instead of taken. With both read,
    a non-square a goes on to the next q, a square a with a non-square t
    answers no, and two squares go on to s = 2, all with no power and no
    inverse; so gamma is inverted exactly when a is a non-square and
    ord_p(a) < p-1, or both are squares and ord_p(a) < (p-1)/2. With
    neither read, that is exactly when ord_p(a) < p-1. p = 2 leaves
    nothing to test."""
    n = m = p - 1
    spf, size = _spf, len(_spf)
    q = t = 0
    while m > 1:
        q = (spf[m] or m) if m < size else _least_factor(m, q)
        while m % q == 0:
            m //= q
        e = n // q
        while pow(a, e, p) == 1 if a_square is None else a_square:
            if t_square is None:
                if not t:
                    t = beta * pow(gamma, -1, p) % p
                if pow(t, e, p) != 1:
                    return False
            elif not t_square:
                return False
            a_square = t_square = None
            if e % q:  # e = (p-1)/q^s with q^s the full power of q in p-1
                break
            e //= q
        a_square = t_square = None
    return True


def _discrete_log(a: int, beta: int, gamma: int, p: int) -> int | None:
    """The least n >= 1 with a^n = beta/gamma mod p, or None when that
    target is not a power of a. beta and gamma are units mod p.

    One baby-step giant-step over N = ord_p(a), once _subgroup_order has
    computed N and put the target t in the group (_in_subgroup answers
    membership alone, without N): the baby steps are a^1 .. a^m with m =
    isqrt(N-1)+1, so m^2 >= N, and the giant steps divide t by a^m once per
    step. Giant step i finds n in [im+1, im+m], so the first match is the
    least n; a log of 0 mod N is found as n = N."""
    order = _subgroup_order(a, beta, gamma, p)
    if order is None:
        return None
    t = beta * pow(gamma, -1, p) % p
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


def _primes_divide(n: int, m: int) -> bool:
    """Whether every prime of the nonzero n divides m (m = 0 admits every
    n): n is stripped of its common factors with m until none is left."""
    g = gcd(n, m)
    while g != 1:
        n //= g
        g = gcd(n, g)
    return n in (1, -1)


def _linear_member(u: Polynomial, r: int, excluded: int = 1) -> int | None:
    """The exponent m >= 0 that makes u = ax+b, not nilpotent at r, a
    member of L outside the primes whose product is excluded; None for a
    non-member. x+b with b != 0 hits every prime not dividing b or dividing
    r (m = 0). For |a| >= 2, gamma = beta a^m (_linear_exponent), a prime
    dividing none of a(a-1)beta gamma hits, a prime of a hits exactly when
    it divides b, and a prime of a-1 that divides b exactly when it
    divides r. a = -1 is never a member."""
    b, a = u.coeffs
    if a == 1:
        return 0 if b and _primes_divide(b, r * excluded) else None
    m = _linear_exponent(u, r)
    if m is None or m < 0 or a == -1:
        return None
    if _primes_divide(a, b * excluded) and _primes_divide(gcd(a - 1, b), r * excluded):
        return m
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
    ord_p(a) when that is 0: one multiplicative order a prime, from _order
    with a's quadratic character read by residue class (_square_reader),
    so a non-square a takes no power for the 2-part of its order. Every
    other prime is settled by orbit_mod_p.
    """
    check_prime_bound(prime_bound)
    e = _linear_exponent(u, r)
    special = 0 if e is None else _exceptional_product(u, r)
    certificates = []
    append, a = certificates.append, u.lead
    is_square = _square_reader(a, prime_bound) if special else None
    for p in _primes_outside(prime_bound, _as_prime_set(A).primes):
        if special % p:
            order = _order(a, p, is_square(p))
            append(PrimeCertificate(p, -e % order or order))
            continue
        cert = orbit_mod_p(u, r, p)
        append(cert)
        if cert.m_p is None:
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
    exactly when b != 0 or r = 0; any other map, with gamma = r(a-1)+b,
    exactly when b = gamma = 0 or the target b/gamma is a power of a.
    The target is decided by _in_subgroup, prime by prime of p-1, without
    ord_p(a). Higher degrees take _walk over coefficients reduced mod p
    once per prime, so that no step multiplies big integers."""
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
    gamma = (r % p * (a - 1) + b) % p
    if not (b and gamma):  # gamma = 0: r is fixed, a hit iff b = 0; else a miss
        return b == gamma
    return _in_subgroup(a, b, gamma, p)


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
    least k >= 1 with a^k = 1 mod p, from _order with no character given.
    p must be prime (not checked: callers pass sieved primes) and a a unit
    mod p."""
    if a % p == 0:
        raise ValueError(f"{a} is not a unit mod {p}")
    return _order(a, p)


def _order(a: int, p: int, a_square: bool | None = None) -> int:
    """ord_p(a) for a unit a mod the prime p, the one order loop.

    The order divides p-1, so it starts there and divides out each prime
    factor q of p-1 for as long as a^(order/q) = 1 mod p, each q read from
    the smallest-prime-factor table (found by trial division beyond it, as
    in _in_subgroup). a_square, when given, is a's quadratic character mod
    p, the first test (q = 2 from order p-1) read instead of taken: a
    non-square a keeps the full power of 2 in its order with no power
    taken, and a square a starts from (p-1)/2."""
    order = m = p - 1
    spf, size = _spf, len(_spf)
    q = 0
    while m > 1:
        q = (spf[m] or m) if m < size else _least_factor(m, q)
        while m % q == 0:
            m //= q
        while order % q == 0 and (
            pow(a, order // q, p) == 1 if a_square is None else a_square
        ):
            order //= q
            a_square = None
        a_square = None
    return order


def lemma1_witnesses(
    alpha: int, beta: int, gamma: int, prime_bound: int
) -> list[int]:
    """Primes p <= prime_bound, p coprime to alpha*beta*gamma, such that
    gamma*alpha^n = beta mod p has no solution n >= 1.

    Per prime this is the subgroup-membership question "is beta/gamma in
    the cyclic group generated by alpha mod p", answered by _in_subgroup
    with no walk and no multiplicative order. Its first step is read from
    two quadratic characters by residue class (_square_reader): alpha's,
    and beta*gamma's, which is beta/gamma's. When 4|beta*gamma| exceeds
    prime_bound, beta*gamma's character is not read: without a table each
    p would take a power of its own, on top of those the test takes
    (alpha's untabled power replaces the test's first). The primes are
    read from the table's prime list; p = 2 is never a witness.
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
    product, target = alpha * beta * gamma, beta * gamma
    a_square = _square_reader(alpha, prime_bound)
    t_square = (
        _square_reader(target, prime_bound)
        if 4 * abs(target) <= prime_bound
        else lambda p: None
    )
    return [
        p
        for p in _primes_outside(prime_bound, ())
        if product % p
        and not _in_subgroup(alpha, beta, gamma, p, a_square(p), t_square(p))
    ]


def _square_reader(n: int, prime_bound: int) -> Callable[[int], bool]:
    """p -> whether the nonzero n is a square mod the prime p not dividing
    n (Euler's criterion: n^((p-1)/2) = 1 mod p).

    By quadratic reciprocity the answer depends only on p mod 4|n| at odd
    primes p not dividing n, and p = 2 has a class of its own. So when
    4|n| <= prime_bound the answers are kept by class in a bytearray of
    4|n| entries, each filled by one Euler-criterion power the first time
    its class appears; the table lives as long as the reader. A larger
    4|n| gets no table, since the primes up to prime_bound then fall in
    distinct classes, and each p takes its power.
    """
    period = 4 * abs(n)
    if period > prime_bound:
        return lambda p: pow(n, p >> 1, p) == 1
    by_class = bytearray(period)  # 0: not yet read, 1: a square, 2: not

    def is_square(p: int) -> bool:
        known = by_class[p % period]
        if not known:
            known = by_class[p % period] = 1 if pow(n, p >> 1, p) == 1 else 2
        return known == 1

    return is_square
