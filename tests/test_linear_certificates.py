"""The smallest-prime-factor table, the exponent and discrete-log
certificates of linear maps, and the least refuting prime of a map with an
exponent, checked against trial division, plain walks and the benchmark's
independent oracle."""

import random
import re
from array import array

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
    is_prime,
    lemma1_witnesses,
    linear,
    orbit_mod_p,
    parse_poly,
    primes_up_to,
)
from polyorbit.modular import PRIME_BOUND_MAX

# p = 2q+1 with q prime: every unit other than +-1 has order q or 2q, so
# baby-step giant-step takes about sqrt(q) steps each way.
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

    def test_prime_beyond_the_table(self):
        p = 10**7 + 19  # prime, and past PRIME_BOUND_MAX, so past the table
        assert p >= len(modular._spf)
        a, b, r = 3, 7, 5
        m_p = orbit_mod_p(linear(a, b), r, p).m_p
        c = b * pow(1 - a, -1, p) % p
        assert (pow(a, m_p, p) * (r - c) + c) % p == 0  # u^(m_p)(r) = 0


def powers_of(a, p):
    """Each power of a mod p over one period, mapped to its least n >= 1."""
    first, x, n = {}, a % p, 1
    while x not in first:
        first[x] = n
        x, n = x * a % p, n + 1
    return first


class TestOneDiscreteLog:
    @pytest.mark.parametrize("p", primes_up_to(61))
    def test_every_unit_and_target_by_brute_force(self, p):
        for a in range(2, p):
            first = powers_of(a, p)
            for t in range(1, p):
                assert modular._discrete_log(a, t, 1, p) == first.get(t), (a, t)

    @pytest.mark.parametrize("p", primes_up_to(61))
    def test_subgroup_order_is_membership_in_the_enumerated_group(self, p):
        for a in range(1, p):
            group = powers_of(a, p)
            for t in range(1, p):
                order = modular._subgroup_order(a, t, 1, p)
                assert order == (len(group) if t in group else None), (a, t)

    @pytest.mark.parametrize("p", SAFE_PRIMES)
    def test_seeded_at_safe_primes(self, p):
        rng = random.Random(p)
        for _ in range(40):
            a = rng.randrange(2, p)
            first = powers_of(a, p)
            for t in (rng.randrange(1, p), pow(a, rng.randrange(p), p), 1, a):
                assert modular._discrete_log(a, t, 1, p) == first.get(t), (a, t)

    def test_seeded_beyond_the_table(self):
        p = 10**7 + 19
        rng = random.Random(p)
        for _ in range(8):
            a = rng.randrange(2, p)
            order = modular.multiplicative_order(a, p)
            k = rng.randrange(1, 3 * p)
            n = modular._discrete_log(a, pow(a, k, p), 1, p)
            assert n == (k - 1) % order + 1
            # a square generates no non-square (Euler's criterion)
            square = a * a % p
            t = rng.randrange(2, p)
            while pow(t, (p - 1) // 2, p) != p - 1:
                t = rng.randrange(2, p)
            assert modular._discrete_log(square, t, 1, p) is None


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

    # The primes dividing a below the stop are walked (a = 0 mod p), and so
    # is the refuting prime; every other prime is answered in closed form.
    @pytest.mark.parametrize("text,r,bound,walked,refuted_at", [
        pytest.param("4x-2", 1, 100, [2, 5], 5, id="4x-2-1-100-1"),
        # refuted at 23, after hits at the 8 primes below
        pytest.param("6x-6", 7, 3000, [2, 3, 23], 23, id="6x-6-7-3000-1"),
        pytest.param("2x+6", 6, 3000, [2], None, id="2x+6-6-3000-0"),  # a member
    ])
    def test_a_report_walks_at_most_once(self, monkeypatch, text, r, bound, walked,
                                         refuted_at):
        primes = []
        walk = modular._walk

        def recording(reduced, x, p):
            primes.append(p)
            return walk(reduced, x, p)

        monkeypatch.setattr(modular, "_walk", recording)
        report = certify_local(parse_poly(text), r, None, bound)
        assert primes == walked
        assert report.refuted_at == refuted_at


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


class TestAdversarialExcludedSet:
    def test_hits_are_logs_and_only_the_refuting_prime_is_walked(self, monkeypatch):
        """3x+7 at r = 5 with A = its refuting primes below 2000: certifying
        to 3000 finds every hit by one discrete log (about sqrt(p) steps)
        and walks (about p steps) only the prime that refutes."""
        a, b, r = 3, 7, 5
        A = [p for p in primes_up_to(2000) if hitting_time(a, b, r, p) is None]
        walked, logged = [], []
        walk, log = modular._walk, modular._discrete_log

        def walk_recording(reduced, x, p):
            walked.append(p)
            return walk(reduced, x, p)

        def log_recording(a, beta, gamma, p):
            logged.append(p)
            return log(a, beta, gamma, p)

        monkeypatch.setattr(modular, "_walk", walk_recording)
        monkeypatch.setattr(modular, "_discrete_log", log_recording)
        report = certify_local(linear(a, b), r, A, 3000)
        assert len(A) > 100 and report.refuted_at > 2000
        assert walked == [report.refuted_at]
        hits = [c.p for c in report.certificates if c.hit]
        # 2 takes the translation x+1; u(5) = 22 = 0 mod 11 takes m_p = 1.
        assert sorted(set(hits) - set(logged)) == [2, 11]


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


class TestOneTrialDivision:
    """is_prime and factorize share one divisor loop (_least_factor)."""

    def test_both_match_trial_division_across_the_table_edge(self):
        primes_up_to(3000)
        edge = len(modular._spf)
        # Around the edge, and numbers past it whose cofactor falls inside.
        numbers = [*range(edge - 200, edge + 200),
                   *(k * m for k in (2, 4, 9, 97, 2**12) for m in range(edge - 60, edge)),
                   *(q * q for q in (edge + 2, 3001, 2999))]
        for n in numbers:
            expected = trial_division(n)
            assert factorize(n) == expected, n
            assert list(factorize(n)) == sorted(expected), n
            assert is_prime(n) == (expected == {n: 1}), n

    def test_an_even_number_past_the_budget_is_not_prime(self):
        assert is_prime(2 * (10**15 + 37)) is False

    @pytest.mark.parametrize("k", [2, 3])
    def test_factorize_names_the_cofactor_it_could_not_finish(self, k):
        message = (f"trial division of {10**15 + 37} would pass the divisor "
                   f"budget of {PRIME_BOUND_MAX}")
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            factorize(k * (10**15 + 37))

    def test_is_prime_names_its_input(self, monkeypatch):
        monkeypatch.setattr(modular, "PRIME_BOUND_MAX", 100)
        with pytest.raises(BudgetExceededError, match=re.escape(
                "trial division of 10403 would pass the divisor budget of 100")):
            is_prime(101 * 103)
        with pytest.raises(BudgetExceededError, match="trial division of 10403 "):
            factorize(2 * 3 * 101 * 103)


class TestOneLemma1Target:
    def test_no_inverse_where_alpha_generates_every_unit(self, monkeypatch):
        """The subgroup test inverts gamma only where ord_p(alpha) < p-1:
        elsewhere every unit lies in the group."""
        inverted = []

        def counting_pow(base, exp, mod=None):
            if mod is not None and exp == -1:
                inverted.append(mod)
            return pow(base, exp, mod)

        alpha, beta, gamma, bound = 2, 3, 5, 3000
        expected = lemma1_witnesses(alpha, beta, gamma, bound)
        monkeypatch.setattr(modular, "pow", counting_pow, raising=False)
        assert lemma1_witnesses(alpha, beta, gamma, bound) == expected
        tested = [p for p in primes_up_to(bound) if alpha * beta * gamma % p]
        short = [p for p in tested if modular.multiplicative_order(alpha, p) < p - 1]
        assert inverted == short
        assert 0 < len(short) < len(tested)


class TestSubgroupPrimeByPrime:
    """The witness search's per-prime test, _in_subgroup, against the
    enumerated group, and the quadratic character it is given, read by
    residue class, against Euler's criterion."""

    @pytest.mark.parametrize("p", primes_up_to(61))
    def test_membership_in_the_enumerated_group(self, p):
        """With p-1 factored by trial division (the fresh table) and by
        the table, with and without a's character, and with the target
        given as -t over -1 and a lifted by -p."""
        for grow in (False, True):
            if grow:
                primes_up_to(p)
            for a in range(1, p):
                group = powers_of(a, p)
                square = pow(a, (p - 1) // 2, p) == 1
                for t in range(1, p):
                    for a_square in (None, square):
                        assert modular._in_subgroup(a, t, 1, p, a_square) is (t in group), (
                            a, t, a_square)
                    assert modular._in_subgroup(a - p, -t, 2 * p - 1, p) is (t in group)

    def test_square_reader_is_euler_criterion(self):
        """Every base in [-40, 40] but 0 at every odd prime up to 3000 that
        does not divide it: with a table, read in ascending and in shuffled
        order, and without one."""
        odd = primes_up_to(3000)[1:]
        rng = random.Random(28)
        for alpha in range(-40, 41):
            if alpha == 0:
                continue
            primes = [p for p in odd if alpha % p]
            euler = {p: pow(alpha, (p - 1) // 2, p) == 1 for p in primes}
            for bound, order in ((3000, primes), (3000, rng.sample(primes, len(primes))),
                                 (4 * abs(alpha) - 1, primes)):
                is_square = modular._square_reader(alpha, bound)
                assert [is_square(p) for p in order] == [euler[p] for p in order], (
                    alpha, bound)

    def test_no_table_when_4_alpha_exceeds_the_bound(self, monkeypatch):
        tables = []

        def recording_bytearray(*args):
            tables.append(args)
            return bytearray(*args)

        monkeypatch.setattr(modular, "bytearray", recording_bytearray, raising=False)
        for alpha in (751, -751, 10**9 + 7, -2**40):
            lemma1_witnesses(alpha, 3, 5, 3000)
        assert tables == []
        lemma1_witnesses(-750, 3, 5, 3000)
        assert tables == [(3000,)]


def resident_primes():
    return [n for n in range(len(modular._spf)) if modular._spf[n] == 0]


class TestOnePrimeList:
    def test_primes_up_to_stays_exact_after_the_table_grows(self):
        bounds = [2, 3, 10, 97, 100, 1000]
        before = {b: primes_up_to(b) for b in bounds}
        primes_up_to(5000)
        for b in bounds:
            assert primes_up_to(b) == before[b] == [n for n in range(b + 1)
                                                     if trial_division(n) == {n: 1}]

    def test_the_list_never_lags_the_table(self):
        assert list(modular._primes) == resident_primes() == []
        for grow in (lambda: primes_up_to(30),
                     lambda: certify_local(linear(2, 6), 6, [5], 500),
                     lambda: lemma1_witnesses(2, 3, 5, 800),
                     lambda: first_refuting_prime(linear(3, 7), 5, (), 1200),
                     lambda: primes_up_to(100)):
            grow()
            assert list(modular._primes) == resident_primes()
        assert len(modular._spf) == 1201

    def test_mixed_bounds_and_excluded_sets_match_a_fresh_table(self, monkeypatch):
        """The traffic a one-entry cache keyed on (bound, A) missed: each
        report equals the one a fresh table gives."""
        rng = random.Random(15)
        calls = []
        for _ in range(40):
            a = rng.choice([-3, -2, 2, 3, 5, 6])
            u = linear(a, rng.randint(-9, 9) or 1)
            A = rng.choice([None, (), [2], (3, 2), PrimeSet([5, 7]), [2, 3, 5, 7, 11]])
            calls.append((u, rng.randint(-5, 8), A, rng.choice([2, 50, 300, 1000])))
        reports = [certify_local(*call) for call in calls]
        for call, report in zip(calls, reports):
            monkeypatch.setattr(modular, "_spf", array("H", (1, 1)))
            monkeypatch.setattr(modular, "_primes", array("I"))
            assert certify_local(*call) == report, call
