"""The least refuting prime, answered per prime by subgroup membership,
checked against the refutation that certify_local reports."""

import random

import pytest

import polyorbit.modular as modular
from polyorbit import (
    BudgetExceededError,
    Polynomial,
    PrimeSet,
    certify_local,
    first_refuting_prime,
    linear,
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
    """A map ax+b needs no m_p and no cycle: only a prime dividing a falls
    back to orbit_mod_p."""
    walked = []
    orbit_mod_p = modular.orbit_mod_p

    def counted(u, r, p):
        walked.append(p)
        return orbit_mod_p(u, r, p)

    def refused(*args):
        raise AssertionError("the search computed a discrete log")

    monkeypatch.setattr(modular, "orbit_mod_p", counted)
    monkeypatch.setattr(modular, "_discrete_log", refused)
    refuted_at = first_refuting_prime(u, r, None, bound)
    last = refuted_at or bound
    assert walked == [p for p in primes_up_to(last) if u.lead % p == 0]


@pytest.mark.parametrize("bound", [1, 0, -5])
def test_refuses_a_bound_below_two(bound):
    with pytest.raises(ValueError, match="prime bound must be >= 2"):
        first_refuting_prime(linear(1, 1), 1, None, bound)


def test_refuses_a_bound_above_the_sieve_budget(small_peak):
    with pytest.raises(BudgetExceededError):
        first_refuting_prime(linear(1, 1), 1, None, PRIME_BOUND_MAX + 1)
