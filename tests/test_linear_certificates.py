"""The smallest-prime-factor table, the exponent and discrete-log
certificates of linear maps, and the least refuting prime of a map with an
exponent, checked against trial division, plain walks and the benchmark's
independent oracle."""

import random

import oracles
import pytest

import polyorbit.modular as modular
from polyorbit import (
    BudgetExceededError,
    PrimeSet,
    certify_local,
    factorize,
    first_refuting_prime,
    generate_list_members,
    linear,
    orbit_mod_p,
    parse_poly,
    primes_up_to,
)
from polyorbit.modular import PRIME_BOUND_MAX

# p = 2q+1 with q prime: a log in the subgroup of order q takes baby-step
# giant-step about sqrt(q) steps each way.
SAFE_PRIMES = (1019, 2027, 4079)


def plain_walk(a, b, r, p):
    """(m_p, cycle) of x -> ax+b mod p from r, for a unit slope a, by
    walking the permutation cycle through r."""
    x = start = r % p
    values = [x]
    for n in range(1, p + 1):
        x = (a * x + b) % p
        if x == 0:
            return n, None
        if x == start:
            return None, (0, tuple(values))
        values.append(x)
    raise AssertionError("a unit slope permutes Z/pZ")


def trial_division(n):
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _cases(p, rng):
    """Seeded (a, b, r) with a != 0, 1 mod p, across [-p, 2p), and the
    fixed-point cases: c = b/(1-a) = 0 (b = 0), r = c, and r = c = 0."""
    cases = []
    for _ in range(12):
        a = rng.randrange(2, p) + p * rng.randrange(-1, 2)
        b, r = rng.randrange(-p, 2 * p), rng.randrange(-p, 2 * p)
        c = b * pow(1 - a, -1, p) % p
        cases += [(a, b, r), (a, 0, r), (a, b, c), (a, b, c - p), (a, 0, 0)]
    return cases


class TestDiscreteLogMatchesPlainWalk:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 37, 97, *SAFE_PRIMES,
                                   *random.Random(19).sample(primes_up_to(5000), 12)])
    def test_seeded_maps(self, p):
        rng = random.Random(p)
        for a, b, r in _cases(p, rng):
            cert = orbit_mod_p(linear(a, b), r, p)
            assert (cert.m_p, cert.cycle) == plain_walk(a, b, r, p), (a, b, r)

    @pytest.mark.parametrize("p", SAFE_PRIMES)
    def test_safe_primes_solve_in_the_subgroup_of_order_q(self, p, monkeypatch):
        orders = []
        log = modular._log_of_order_q

        def recording(g, y, q, p):
            orders.append(q)
            return log(g, y, q, p)

        monkeypatch.setattr(modular, "_log_of_order_q", recording)
        q = (p - 1) // 2
        for a in (2, 3, 5, p - 2):
            for r in (1, 2, p - 1):
                cert = orbit_mod_p(linear(a, 1), r, p)
                assert (cert.m_p, cert.cycle) == plain_walk(a, 1, r, p)
        assert q in orders

    def test_prime_beyond_the_table(self):
        p = 10**7 + 19  # prime, and past PRIME_BOUND_MAX, so past the table
        assert p >= len(modular._spf)
        a, b, r = 3, 7, 5
        m_p = orbit_mod_p(linear(a, b), r, p).m_p
        c = b * pow(1 - a, -1, p) % p
        assert (pow(a, m_p, p) * (r - c) + c) % p == 0  # u^(m_p)(r) = 0


class TestPrimalityGuard:
    @pytest.mark.parametrize("p", [0, 1, -7, 4, 9])
    def test_non_primes_refused(self, p):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            orbit_mod_p(linear(2, 1), 0, p)

    def test_composite_beyond_the_table_refused(self):
        primes_up_to(1000)
        n = len(modular._spf) + 1
        n += n % 2  # even, so composite
        with pytest.raises(ValueError, match=f"{n} is not prime"):
            orbit_mod_p(linear(2, 1), 0, n)

    def test_sieved_primes_are_not_trial_divided(self, monkeypatch):
        calls = []
        monkeypatch.setattr(modular, "is_prime", lambda n: calls.append(n))
        report = certify_local(linear(2, 6), 6, None, 1000)
        assert report.consistent and calls == []


class TestSmallestFactorTable:
    def test_factorize_matches_trial_division(self):
        bound = 10**5
        primes_up_to(bound)
        assert len(modular._spf) > bound
        for n in range(1, bound + 1):
            assert factorize(n) == trial_division(n), n

    def test_across_the_edge_after_growing(self):
        primes_up_to(len(modular._spf) + 5000)
        edge = len(modular._spf)
        for n in range(edge - 300, edge + 300):
            assert factorize(n) == trial_division(n), n
            assert factorize(-n) == trial_division(n), n

    def test_grows_and_never_shrinks(self):
        primes_up_to(1000)
        size = len(modular._spf)
        assert primes_up_to(10) == [2, 3, 5, 7]
        assert len(modular._spf) == size
        primes_up_to(size + 100)
        assert len(modular._spf) == size + 101

    def test_primes_up_to_returns_a_fresh_list(self):
        primes = primes_up_to(50)
        primes.clear()
        assert primes_up_to(50)[-1] == 47

    @pytest.mark.parametrize("bound", [PRIME_BOUND_MAX + 1, 10**9])
    def test_oversized_bounds_refused_before_allocation(self, bound, small_peak):
        size = len(modular._spf)
        with pytest.raises(BudgetExceededError, match="sieve budget"):
            primes_up_to(bound)
        with pytest.raises(BudgetExceededError, match="sieve budget"):
            certify_local(linear(2, 6), 6, None, bound)
        assert len(modular._spf) == size


class TestReports:
    # One replay runs to 10^4 (about 3.3 million residues walked by the
    # oracle); the others stop at 2000, past the primes whose p-1 has a
    # prime factor in the hundreds.
    @pytest.mark.parametrize("family,text,r,A,bound", [
        ("Thm4", "2x+6", 6, PrimeSet(), 10**4),
        ("Thm4", "-2x+6", 6, PrimeSet(), 2000),
        ("Cor4", "2x-6", -6, PrimeSet(), 2000),
        ("Thm3", "-2x-1", 1, PrimeSet([2]), 2000),
        ("Thm3", "-2x+4", 1, PrimeSet(), 2000),
    ])
    def test_oracle_replay(self, family, text, r, A, bound):
        u = parse_poly(text)
        assert u in generate_list_members(family, A=A, r=r)
        report = certify_local(u, r, A, bound)
        certs = [(c.p, c.m_p, c.cycle) for c in report.certificates]
        assert report.consistent
        assert oracles.check_local_report(u.coeffs, r, set(A), bound, certs,
                                          report.refuted_at, True) == []

    @pytest.mark.parametrize("text,r,bound,walks", [
        ("4x-2", 1, 100, 1),  # refuted at 5
        ("6x-6", 7, 3000, 1),  # refuted at 23, after hits at the 8 primes below
        ("2x+6", 6, 3000, 0),  # a member: no prime refutes
    ])
    def test_a_report_walks_at_most_once(self, monkeypatch, text, r, bound, walks):
        cycles = []
        walk = modular._linear_cycle

        def recording(*args):
            cycles.append(args)
            return walk(*args)

        monkeypatch.setattr(modular, "_linear_cycle", recording)
        report = certify_local(parse_poly(text), r, None, bound)
        assert len(cycles) == walks
        assert report.consistent == (walks == 0)


def hitting_time(a, b, r, p):
    """The least n >= 1 with u^(n)(r) = 0 mod p for u = ax+b, by a plain
    walk of at most p steps (any slope), or None."""
    x = r % p
    for n in range(1, p + 1):
        x = (a * x + b) % p
        if x == 0:
            return n
    return None


def _exponent_grid():
    """(a, b, r, e) for a in [-8, 8] minus {0, 1}, |b| <= 20 and |r| <= 25
    whenever r(a-1)+b = b a^e for an integer e."""
    grid = []
    for a in range(-8, 9):
        for b in range(-20, 21):
            for r in range(-25, 26):
                e = modular._linear_exponent(linear(a, b), r)
                if e is not None:
                    grid.append((a, b, r, e))
    return grid


def _with_exponent(a, c, e):
    """(u, r) with slope a, gamma = beta a^e, and c as beta (e >= 0) or as
    gamma (e < 0): r(a-1) = gamma - beta."""
    k = abs(e)
    geometric = (a**k - 1) // (a - 1)
    if e >= 0:
        return linear(a, c), c * geometric
    return linear(a, c * a**k), -c * geometric


class TestExponentCertificates:
    def test_the_exponent(self):
        assert modular._linear_exponent(linear(2, 6), 6) == 1  # 12 = 6*2
        assert modular._linear_exponent(linear(3, -3), 1) == -1  # Thm3.2
        assert modular._linear_exponent(linear(-2, 4), 1) == -2  # 4 = 1*(-2)^2
        assert modular._linear_exponent(linear(5, 7), 0) == 0
        assert modular._linear_exponent(linear(-1, 3), 3) == 1  # -3 = 3*(-1)
        # a = 1; beta = 0; gamma = 0; 11/6 and 6/11 are no powers; not linear
        for u, r in [(linear(1, 6), 6), (linear(2, 0), 3), (linear(2, -2), 2),
                     (linear(6, 6), 1), (parse_poly("x^2+1"), 0)]:
            assert modular._linear_exponent(u, r) is None, (u, r)

    def test_matches_plain_walk_on_the_grid(self):
        """Every prime <= 200: a report at empty A stops at its first
        refutation, so a second report excludes the refuting primes and
        certifies all the others."""
        grid = _exponent_grid()
        primes = primes_up_to(200)
        seen = {"a=-1": 0, "e=0": 0, "e<0": 0, "refuted": 0}
        for a, b, r, e in grid:
            u = linear(a, b)
            walked = {p: hitting_time(a, b, r, p) for p in primes}
            refuting = [p for p in primes if walked[p] is None]
            special = a * (a - 1) * b * (r * (a - 1) + b)
            assert all(special % p == 0 for p in refuting), (u, r)
            report = certify_local(u, r, None, 200)
            assert report.refuted_at == (refuting[0] if refuting else None)
            assert [c.m_p for c in report.certificates] == [
                walked[p] for p in primes[:len(report.certificates)]], (u, r)
            rest = certify_local(u, r, refuting, 200)
            assert rest.consistent
            assert [(c.p, c.m_p) for c in rest.certificates] == [
                (p, walked[p]) for p in primes if p not in refuting], (u, r)
            seen["a=-1"] += a == -1
            seen["e=0"] += e == 0
            seen["e<0"] += e < 0
            seen["refuted"] += bool(refuting)
        assert len(grid) > 1500 and min(seen.values()) > 50, seen

    def test_first_refuting_prime_on_seeded_maps(self):
        rng = random.Random(20261019)
        for _ in range(600):
            a = rng.choice([k for k in range(-9, 10) if k not in (0, 1)])
            c = rng.choice([k for k in range(-30, 31) if k])
            u, r = _with_exponent(a, c, rng.randint(-3, 4))
            A = rng.choice(((), (2,), (3,), (2, 3), (5, 7), (2, 3, 5, 7)))
            bound = rng.choice((2, 3, 50, 300, 1000))
            expected = certify_local(u, r, A, bound).refuted_at
            assert first_refuting_prime(u, r, A, bound) == expected, (u, r, A)

    @pytest.mark.parametrize("e", [1, 2, -1, -2])
    def test_forty_digit_coefficients(self, e):
        """The product a(a-1)beta gamma is far past trial division's reach;
        it is only ever reduced mod sieved primes, never factored."""
        a, c = 3 * 10**39 + 7, -(10**39 + 3)
        u, r = _with_exponent(a, c, e)
        assert len(str(abs(u.constant))) >= 40
        report = certify_local(u, r, None, 1000)
        primes = primes_up_to(1000)
        walked = [hitting_time(a, u.constant, r, p) for p in primes]
        assert [cert.m_p for cert in report.certificates] == walked[
            :len(report.certificates)]
        assert first_refuting_prime(u, r, None, 1000) == report.refuted_at


class TestNoDiscreteLogForAnExponent:
    @pytest.mark.parametrize("u,r,bound,special", [
        (linear(2, 6), 6, 3000, (2, 3)),  # 2*1*6*12
        (linear(3, -3), 1, 3000, (2, 3)),  # Thm3.2: 3*2*(-3)*(-1)
    ])
    def test_orbit_mod_p_only_at_primes_of_the_product(self, monkeypatch, u, r,
                                                       bound, special):
        walked = []
        orbit_mod_p = modular.orbit_mod_p

        def counted(u, r, p):
            walked.append(p)
            return orbit_mod_p(u, r, p)

        def refused(*args):
            raise AssertionError("a discrete log was computed")

        monkeypatch.setattr(modular, "orbit_mod_p", counted)
        monkeypatch.setattr(modular, "_discrete_log", refused)
        report = certify_local(u, r, PrimeSet(), bound)
        assert report.consistent
        assert len(report.certificates) == len(primes_up_to(bound))
        assert tuple(walked) == special
        walked.clear()
        assert first_refuting_prime(u, r, PrimeSet(), bound) is None
        # The search answers every linear prime in closed form, with no walk.
        assert walked == []
