"""The least refuting prime, answered per prime by subgroup membership,
checked against the refutation that certify_local reports."""

import random
from itertools import product

import pytest

import polyorbit.modular as modular
from polyorbit import (
    BudgetExceededError,
    Polynomial,
    PrimeSet,
    certify_local,
    first_refuting_prime,
    linear,
    orbit_mod_p,
    parse_poly,
    primes_up_to,
)
from polyorbit.modular import PRIME_BOUND_MAX


def test_matches_certify_local_on_seeded_maps():
    """Linear, nonlinear and constant maps (the zero map too), at several
    excluded sets and bounds."""
    rng = random.Random(20261018)
    for _ in range(1500):
        degree = rng.choice((0, 1, 1, 1, 2, 3))
        u = Polynomial(rng.randint(-12, 12) for _ in range(degree + 1))
        r = rng.randint(-15, 15)
        A = rng.choice(((), (2,), (3, 5), PrimeSet([7]), None))
        bound = rng.choice((2, 3, 50, 200, 600))
        expected = certify_local(u, r, A, bound).refuted_at
        assert first_refuting_prime(u, r, A, bound) == expected, (u, r, A, bound)


# (u, r, A, bound, least refuting prime), each reaching the named branch of
# the per-prime test at the prime given in the comment.
BRANCHES = {
    # p = 3 divides the slope: u = 1 mod 3 and 1 -> 1 never reaches 0.
    "slope-zero-mod-p": (linear(3, 1), 1, (), 50, 3),
    # a = 1 mod p and b != 0 at every prime: each orbit is r + nb.
    "translation": (linear(1, 1), 1, (), 200, None),
    # a = 4 = 1 mod 3 with b = 2: a translation mod 3 after reduction.
    "translation-after-reduction": (linear(4, 2), 1, (2,), 3, None),
    # x+6 is the identity mod 2, fixing the start point 1.
    "identity": (linear(1, 6), 1, (), 50, 2),
    # x+6 is the identity mod 2 and mod 3, fixing the start point 6 = 0.
    "identity-at-zero": (linear(1, 6), 6, (), 50, None),
    # 2x has fixed point c = 0 and 1 != c at p = 3.
    "fixed-point-zero": (linear(2, 0), 1, (), 50, 3),
    # 2x-1 fixes r = 1, so the orbit is constant at c = 1 mod 3.
    "start-at-fixed-point": (linear(2, -1), 1, (2,), 50, 3),
    # 2x fixes 3 = 0 mod 3 (a hit at step 1), and 3 != c = 0 at p = 5.
    "start-at-fixed-point-zero": (linear(2, 0), 3, (), 50, 5),
    # 2x+6 from 6 fixes 6 = 0 mod 3; above 3 the target c/(c-x) is a power
    # of 2 at every prime.
    "target-in-subgroup": (linear(2, 6), 6, (), 600, None),
    # 4x-2 from 1: mod 5 the target c/(c-x) is 3, outside the group {1, 4}
    # that 4 generates.
    "target-outside-subgroup": (linear(4, -2), 1, (), 50, 5),
    "nonlinear": (parse_poly("x^2+1"), 0, (), 50, 3),
    "constant": (Polynomial((5,)), 1, (), 50, 2),
}


@pytest.mark.parametrize("u,r,A,bound,expected", BRANCHES.values(),
                         ids=list(BRANCHES))
def test_each_branch(u, r, A, bound, expected):
    assert first_refuting_prime(u, r, A, bound) == expected
    assert certify_local(u, r, A, bound).refuted_at == expected


@pytest.mark.parametrize("u,r,bound", [
    (linear(6, 6), 1, 600), (linear(2, 6), 6, 600), (linear(-15, 30), 2, 600),
    (linear(1, 5), 0, 600), (linear(4, -2), 1, 50),
])
def test_linear_maps_walk_only_at_primes_dividing_the_slope(monkeypatch, u, r,
                                                            bound):
    """A map ax+b needs no m_p, no cycle and no walk: every prime, one
    dividing a included, is answered in closed form."""
    walked = []
    orbit_mod_p = modular.orbit_mod_p

    def counted(u, r, p):
        walked.append(p)
        return orbit_mod_p(u, r, p)

    def refused(*args):
        raise AssertionError("the search computed a discrete log")

    monkeypatch.setattr(modular, "orbit_mod_p", counted)
    monkeypatch.setattr(modular, "_discrete_log", refused)
    first_refuting_prime(u, r, None, bound)
    assert walked == []


@pytest.mark.parametrize("bound", [1, 0, -5])
def test_refuses_a_bound_below_two(bound):
    with pytest.raises(ValueError, match="prime bound must be >= 2"):
        first_refuting_prime(linear(1, 1), 1, None, bound)


def test_refuses_a_bound_above_the_sieve_budget(small_peak):
    with pytest.raises(BudgetExceededError):
        first_refuting_prime(linear(1, 1), 1, None, PRIME_BOUND_MAX + 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_per_prime_answer_matches_the_certificate(p):
    """Every map of degree <= 3 with coefficients reduced mod p (constants
    and the zero map among them), and each map of degree <= 1 with its
    slope lifted by p (slope = 0 mod p, degree 1 over Z), from every start
    in [-p, p)."""
    for coeffs in product(range(p), repeat=4):
        maps = [Polynomial(coeffs)]
        if not any(coeffs[2:]):
            maps.append(Polynomial((coeffs[0] - p, coeffs[1] + p)))
        for u in maps:
            for r in range(-p, p):
                expected = orbit_mod_p(u, r, p).hit
                assert modular._reaches_zero_mod_p(u, r, p) == expected, (u, r)


def test_a_large_excluded_set_is_not_scanned(monkeypatch):
    """2000 excluded primes against a bound of 10^5: the primes outside A
    match a plain filter, and no prime is looked up by scanning A."""
    A = PrimeSet(primes_up_to(50000)[1::2][:2000])
    excluded = set(A.primes)
    expected = [p for p in primes_up_to(10**5) if p not in excluded]

    def scanned(self, p):
        raise AssertionError("a prime was looked up by scanning the excluded set")

    monkeypatch.setattr(PrimeSet, "__contains__", scanned)
    report = certify_local(linear(1, 1), 1, A, 10**5)
    assert [cert.p for cert in report.certificates] == expected
    assert first_refuting_prime(linear(2, 6), 6, A, 10**5) is None
    u = parse_poly("x^2+1")
    refuted_at = first_refuting_prime(u, 0, A, 10**5)
    assert refuted_at == certify_local(u, 0, A, 10**5).refuted_at
    # 3 and 7 are excluded, 2 and 5 are hit, and mod 11 the orbit
    # 0, 1, 2, 5, 4, 6, 4 cycles.
    assert refuted_at == 11


def test_reaches_zero_on_huge_coefficients_matches_the_certificate():
    """Maps with 60-digit coefficients, some of them multiples of every
    prime up to 31, against orbit_mod_p for every p <= 31 and r in [-3, 3]."""
    rng = random.Random(20261019)
    primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31

    def coefficient():
        big = rng.randint(10**59, 10**60)
        return rng.choice((1, -1)) * (big - big % primorial + rng.randint(-2, 2))

    maps = [Polynomial()] + [
        Polynomial(coefficient() for _ in range(degree + 1))
        for degree in (0, 1, 1, 1, 1, 2, 2, 3, 3) for _ in range(4)
    ]
    for u in maps:
        for p in primes_up_to(31):
            for r in range(-3, 4):
                assert modular._reaches_zero_mod_p(u, r, p) == orbit_mod_p(u, r, p).hit, (
                    u, r, p)


@pytest.mark.parametrize("A", [(), (2,), (3, 2, 3), (7, 5, 3, 2)])
def test_excluded_set_in_any_form(A):
    """A list, a tuple and a PrimeSet give the same answer, whichever of
    them filled the prime-list cache first."""
    rng = random.Random(20261020)
    for _ in range(60):
        degree = rng.choice((0, 1, 1, 2, 3))
        u = Polynomial(rng.randint(-9, 9) for _ in range(degree + 1))
        r = rng.randint(-8, 8)
        answers = []
        for form in (list(A), tuple(A), PrimeSet(A)):
            modular._spf, modular._primes = modular._spf[:2], modular._primes[:0]
            answers.append(first_refuting_prime(u, r, form, 200))
        assert answers == [certify_local(u, r, A, 200).refuted_at] * 3, (u, r)
