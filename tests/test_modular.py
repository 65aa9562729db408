"""Residue orbits, certificates, primes, and the witness search."""

import pickle
from itertools import product
from math import isqrt, prod

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from polyorbit import (
    BudgetExceededError,
    LemmaPreconditionError,
    LocalReport,
    OrbitKind,
    Polynomial,
    PrimeCertificate,
    PrimeSet,
    certify_local,
    decide_nilpotency,
    factorize,
    generate_list_members,
    is_integer_power,
    is_prime,
    iterate_value,
    lemma1_witnesses,
    linear,
    multiplicative_order,
    orbit_mod_p,
    parse_poly,
    primes_up_to,
)
import polyorbit.modular as modular
from polyorbit.modular import PRIME_BOUND_MAX


class TestPrimes:
    def test_small_sieve(self):
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_empty_below_two(self):
        assert primes_up_to(1) == [] and primes_up_to(0) == []

    def test_hundred(self):
        ps = primes_up_to(100)
        assert len(ps) == 25 and ps[-1] == 97

    def test_sieve_matches_trial_division(self):
        assert primes_up_to(10**4) == [n for n in range(10**4 + 1) if is_prime(n)]

    def test_trial_division_within_the_divisor_budget(self):
        assert is_prime(10**14 + 31)  # its square root is PRIME_BOUND_MAX
        assert factorize(10**14 + 31) == {10**14 + 31: 1}

    def test_trial_division_over_the_divisor_budget(self):
        with pytest.raises(BudgetExceededError, match="divisor budget"):
            is_prime(10**15 + 37)
        with pytest.raises(BudgetExceededError, match="divisor budget"):
            factorize(10**15 + 37)

    def test_factorize_unchanged_below_the_budget(self):
        assert factorize(2**200) == {2: 200}
        assert factorize(6 * (10**12 + 39)) == {2: 1, 3: 1, 10**12 + 39: 1}
        assert factorize(-(3**40) * 5**20 * 7) == {3: 40, 5: 20, 7: 1}

    def test_divisor_budget_boundary(self, monkeypatch):
        monkeypatch.setattr("polyorbit.modular.PRIME_BOUND_MAX", 100)
        assert is_prime(10007)  # isqrt is 100: every divisor within budget
        assert not is_prime(97 * 101) and not is_prime(3 * 101**2)
        assert factorize(97 * 101) == {97: 1, 101: 1}
        assert factorize(2 * 10007) == {2: 1, 10007: 1}
        for n in (101**2, 101 * 103):  # 101 is the first divisor past 100
            with pytest.raises(BudgetExceededError):
                is_prime(n)
            with pytest.raises(BudgetExceededError):
                factorize(n)

    @pytest.mark.parametrize("bound", [PRIME_BOUND_MAX + 1, 10**9])
    def test_bound_over_the_budget_refused_before_allocation(self, bound,
                                                             small_peak):
        with pytest.raises(BudgetExceededError, match="sieve budget"):
            primes_up_to(bound)

    def test_budget_admits_its_own_bound(self, monkeypatch):
        monkeypatch.setattr("polyorbit.modular.PRIME_BOUND_MAX", 100)
        assert primes_up_to(100)[-1] == 97
        with pytest.raises(BudgetExceededError):
            primes_up_to(101)

    @pytest.mark.parametrize("excluded", [(), (3, 97)])
    def test_prime_range_survives_table_growth(self, excluded):
        expected = [p for p in primes_up_to(100) if p not in excluded]
        primes = iter(modular._primes_outside(100, excluded))
        head = [next(primes) for _ in range(3)]
        primes_up_to(10**4)
        assert head + list(primes) == expected

    def test_returned_list_is_a_fresh_copy(self):
        first = primes_up_to(30)
        first.append(4)
        first[0] = 9
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_up_to(30) is not primes_up_to(30)


class TestPrimeSet:
    def test_sorted_deduplicated(self):
        assert PrimeSet([5, 2, 5, 3]).primes == (2, 3, 5)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeSet([4])
        with pytest.raises(ValueError):
            PrimeSet([1])

    def test_membership(self):
        A = PrimeSet([2, 7])
        assert 2 in A and 3 not in A and len(A) == 2


class TestOrbitModP:
    def test_refuted_cycle(self):
        cert = orbit_mod_p(linear(4, -2), 1, 5)
        assert not cert.hit
        tail, values = cert.cycle
        assert tail == 0 and set(values) == {1, 2}

    def test_hit_at_three(self):
        cert = orbit_mod_p(linear(4, -2), 0, 3)
        assert cert.hit and cert.m_p == 3

    def test_shift_hits_at_p_minus_one(self):
        cert = orbit_mod_p(linear(1, 1), 1, 7)
        assert cert.m_p == 6

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            orbit_mod_p(linear(1, 1), 0, 6)

    @given(
        st.builds(Polynomial, st.lists(st.integers(-9, 9), min_size=1, max_size=4)),
        st.integers(-20, 20),
        st.sampled_from(primes_up_to(199)),
    )
    @settings(max_examples=200)
    def test_m_p_at_most_p(self, u, r, p):
        if u.is_zero():
            return
        cert = orbit_mod_p(u, r, p)
        if cert.hit:
            assert 1 <= cert.m_p <= p

    @given(
        st.integers(-30, 30).filter(bool),
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.sampled_from(primes_up_to(199)),
    )
    @settings(max_examples=150)
    def test_hit_soundness_linear(self, a, b, r, p):
        """Big-integer iteration confirms the minimal hitting time."""
        u = linear(a, b)
        cert = orbit_mod_p(u, r, p)
        if not cert.hit:
            return
        x = r
        for step in range(1, cert.m_p + 1):
            x = u(x)
            if step < cert.m_p:
                assert x % p != 0
        assert x % p == 0

    @pytest.mark.parametrize(
        "text,r,p",
        [("x^2-3", 2, 13), ("2x^2+x-1", 0, 11), ("-2x^2+7x-3", 1, 7),
         ("x^3+x+1", 1, 7), ("x^3-3x^2+2", 2, 5)],
    )
    def test_hit_soundness_small_degree(self, text, r, p):
        u = parse_poly(text)
        cert = orbit_mod_p(u, r, p)
        if not cert.hit:
            return
        for j in range(1, cert.m_p):
            assert iterate_value(u, r, j) % p != 0
        assert iterate_value(u, r, cert.m_p) % p == 0

    @given(
        st.builds(Polynomial, st.lists(st.integers(-9, 9), min_size=1, max_size=4)),
        st.integers(-20, 20),
        st.sampled_from(primes_up_to(101)),
    )
    @settings(max_examples=150)
    def test_refutation_soundness(self, u, r, p):
        """Replaying the residue orbit p+1 steps never produces 0."""
        if u.is_zero():
            return
        cert = orbit_mod_p(u, r, p)
        if cert.hit:
            return
        x = r % p
        for _ in range(p + 1):
            x = u(x) % p
            assert x != 0
        tail, values = cert.cycle
        assert 0 not in values and len(set(values)) == len(values)


def reference_walk(u, r, p):
    """(m_p, cycle) by the plain walk: a dict of seen residues, Horner step."""
    x = r % p
    seen = {x: 0}
    values = [x]
    for n in range(1, p + 2):
        x = u.evaluate(x) % p
        if x == 0:
            return n, None
        if x in seen:
            return None, (seen[x], tuple(values[seen[x]:]))
        seen[x] = n
        values.append(x)
    raise AssertionError("pigeonhole")


class TestOrbitModPMatchesPlainWalk:
    @pytest.mark.parametrize("p", primes_up_to(23))
    def test_every_linear_map_and_start(self, p):
        # a = p is degree 1 but 0 mod p, so it takes the general loop.
        for a in [*range(p), p]:
            for b in range(p):
                u = Polynomial((b, a))
                for r in range(p):
                    cert = orbit_mod_p(u, r, p)
                    assert (cert.m_p, cert.cycle) == reference_walk(u, r, p)

    @pytest.mark.parametrize("p", primes_up_to(7))
    def test_every_quadratic_and_start(self, p):
        for c2, c1, c0 in product(range(p), repeat=3):
            u = Polynomial((c0, c1, c2))
            for r in range(p):
                cert = orbit_mod_p(u, r, p)
                assert (cert.m_p, cert.cycle) == reference_walk(u, r, p)


class TestLinearFastPathsMatchPlainWalk:
    @pytest.mark.parametrize("p", primes_up_to(61))
    def test_translations_in_closed_form(self, p):
        # Every a here is 1 mod p. b = 0 mod p is the identity, and r = 0
        # mod p hits only at m_p = p. The plain walk depends on residues
        # alone, so it runs once per residue pair (b, r).
        span = range(-p, 2 * p)
        expected = {}
        for a in (1, p + 1, 1 - p):
            for b in span:
                u = linear(a, b)
                for r in span:
                    key = (b % p, r % p)
                    if key not in expected:
                        expected[key] = reference_walk(u, r, p)
                    cert = orbit_mod_p(u, r, p)
                    assert (cert.m_p, cert.cycle) == expected[key]

    @pytest.mark.parametrize("p", primes_up_to(61)[1:])
    def test_every_refutation_rebuilds_its_cycle(self, p):
        refuted = 0
        for a, b in product(range(2, p), range(p)):
            u = linear(a, b)
            # u permutes Z/pZ: the starts on the cycle through 0 hit, and
            # every other start refutes.
            hitting, x = {0}, b
            while x:
                hitting.add(x)
                x = (a * x + b) % p
            for r in set(range(p)) - hitting:
                cert = orbit_mod_p(u, r, p)
                assert (cert.m_p, cert.cycle) == reference_walk(u, r, p)
                refuted += 1
        assert refuted


def replay(u, r, A, bound, member):
    """certify_local's report, and the failures that perfbench's oracle
    (which shares no code with polyorbit) finds when it replays it."""
    report = certify_local(u, r, A, bound)
    certs = [(c.p, c.m_p, c.cycle) for c in report.certificates]
    failures = oracles.check_local_report(
        u.coeffs, r, set(A), bound, certs, report.refuted_at, member)
    return report, failures


class TestOracleReplay:
    @pytest.mark.parametrize("text,r", [("x+1", 1), ("x+3", 6), ("2x+6", 6)])
    def test_member_to_3000(self, text, r):
        report, failures = replay(parse_poly(text), r, PrimeSet(), 3000, True)
        assert report.consistent and failures == []

    def test_refutation_at_5(self):
        report, failures = replay(parse_poly("4x-2"), 1, PrimeSet(), 100, False)
        assert report.refuted_at == 5 and failures == []

    @pytest.mark.parametrize("family,text,r,A", [
        ("Thm3", "-2x-1", 1, PrimeSet([2])),
        ("Thm4", "-2x+6", 6, PrimeSet()),
        ("Cor4", "2x-6", -6, PrimeSet()),
    ])
    def test_catalog_member_to_1000(self, family, text, r, A):
        u = parse_poly(text)
        assert u in generate_list_members(family, A=A, r=r)
        report, failures = replay(u, r, A, 1000, True)
        assert report.consistent and failures == []


class TestCertifyLocal:
    def test_shift_consistent_with_m_p(self):
        report = certify_local(linear(1, 1), 1, None, 100)
        assert report.consistent and report.status == "ConsistentUpTo(100)"
        for cert in report.certificates:
            assert cert.m_p == cert.p - 1

    def test_refutation_short_circuits(self):
        report = certify_local(linear(4, -2), 1, None, 100)
        assert report.refuted_at == 5 and report.status == "RefutedAt(5)"
        assert [c.p for c in report.certificates] == [2, 3, 5]

    def test_excluded_primes_skipped(self):
        report = certify_local(linear(-2, -6), 6, None, 100)
        assert report.consistent
        assert [c.p for c in report.certificates] == primes_up_to(100)
        report = certify_local(linear(-2, -1), 1, PrimeSet([2]), 100)
        assert report.consistent
        assert [c.p for c in report.certificates] == primes_up_to(100)[1:]

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            certify_local(linear(1, 1), 1, None, 1)

    def test_interleaved_bounds_and_excluded_sets(self):
        """Consecutive calls at changing (A, bound) each certify exactly the
        primes up to their own bound outside their own A."""
        sets = [PrimeSet([2]), PrimeSet(), PrimeSet([3, 5]), PrimeSet([2])]
        bounds = [2, 50, 97, 50]
        maps = [(linear(1, 1), 1), (linear(4, -2), 0), (parse_poly("x^2+1"), 0),
                (linear(-2, -6), 6), (parse_poly("x^2-2"), 3)]
        for step in range(60):
            A, bound = sets[step % 4], bounds[step % 3]
            u, r = maps[step % 5]
            certificates = []
            for p in primes_up_to(bound):
                if p not in A:
                    certificates.append(orbit_mod_p(u, r, p))
                    if not certificates[-1].hit:
                        break
            report = certify_local(u, r, A, bound)
            assert report.certificates == tuple(certificates), (step, A, bound)
            expected = None if all(c.hit for c in certificates) else certificates[-1].p
            assert report.refuted_at == expected and report.prime_bound == bound

    def test_nilpotent_orbit_hits_every_prime_quickly(self):
        """ReachedZero with index i forces Hit with m_p <= i at every p."""
        for text, r in [("x^2-5x+6", 1), ("-x^3+9x^2-25x+25", 2), ("x-1", 9)]:
            u = parse_poly(text)
            outcome = decide_nilpotency(u, r)
            assert outcome.kind is OrbitKind.REACHED_ZERO
            report = certify_local(u, r, None, 100)
            assert report.consistent
            for cert in report.certificates:
                assert cert.m_p <= outcome.index

    def test_fermat_family(self):
        """4x-2 at 0: m_2=1, m_3=3, and m_p divides p-1 for p >= 5."""
        report = certify_local(linear(4, -2), 0, None, 500)
        assert report.consistent
        by_p = {c.p: c for c in report.certificates}
        assert by_p[2].m_p == 1 and by_p[3].m_p == 3
        for p, cert in by_p.items():
            if p > 3:
                assert cert.hit and (p - 1) % cert.m_p == 0


class TestPrimeCertificate:
    """The public contract of a certificate: fields, defaults, repr,
    equality, hashing, immutability and pickling."""

    def test_positional_and_keyword_construction(self):
        assert PrimeCertificate(7, 3) == PrimeCertificate(p=7, m_p=3)
        cycle = (1, (2, 4))
        assert PrimeCertificate(7, None, cycle) == PrimeCertificate(p=7, cycle=cycle)
        cert = PrimeCertificate(7)
        assert cert.p == 7 and cert.m_p is None and cert.cycle is None

    def test_repr(self):
        assert repr(PrimeCertificate(7, 3)) == "PrimeCertificate(p=7, m_p=3, cycle=None)"
        assert repr(PrimeCertificate(5, None, (0, (1, 3)))) == (
            "PrimeCertificate(p=5, m_p=None, cycle=(0, (1, 3)))")

    def test_hit_and_kind(self):
        hit, refuted = PrimeCertificate(7, 3), PrimeCertificate(5, None, (0, (1, 3)))
        assert hit.hit and hit.kind == "hit"
        assert not refuted.hit and refuted.kind == "refuted"

    def test_a_certificate_is_the_tuple_of_its_fields(self):
        cert = PrimeCertificate(5, None, (0, (1, 3)))
        p, m_p, cycle = cert
        assert cert == (5, None, (0, (1, 3))) == (p, m_p, cycle)
        assert cert._replace(m_p=2) == PrimeCertificate(5, 2, (0, (1, 3)))
        assert cert._asdict() == {"p": 5, "m_p": None, "cycle": (0, (1, 3))}

    def test_equal_certificates_hash_equal(self):
        a, b = PrimeCertificate(11, 5), orbit_mod_p(linear(1, 2), 1, 11)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, PrimeCertificate(11, 6)}) == 2

    def test_fields_cannot_be_assigned(self):
        cert = PrimeCertificate(7, 3)
        for field in ("p", "m_p", "cycle"):
            with pytest.raises(AttributeError):
                setattr(cert, field, 1)
        assert cert == PrimeCertificate(7, 3)

    def test_pickle_round_trip(self):
        report = certify_local(linear(4, -2), 1, None, 100)
        for cert in report.certificates:
            assert pickle.loads(pickle.dumps(cert)) == cert
        assert pickle.loads(pickle.dumps(report)) == report

    def test_local_report_repr(self):
        report = LocalReport(5, 5, (PrimeCertificate(2, 1),
                                    PrimeCertificate(5, None, (0, (1, 3)))))
        assert repr(report) == (
            "LocalReport(prime_bound=5, refuted_at=5, certificates="
            "(PrimeCertificate(p=2, m_p=1, cycle=None), "
            "PrimeCertificate(p=5, m_p=None, cycle=(0, (1, 3)))))")


class TestIsIntegerPower:
    @pytest.mark.parametrize(
        "base,target,expected",
        [
            (2, 8, 3), (-2, -8, 3), (-2, 4, 2), (3, 5, None), (2, 1, 0),
            (2, -1, None), (5, 0, None), (1, 1, 0), (1, 7, None),
            (-1, 1, 0), (-1, -1, 1), (-1, 2, None), (0, 0, 1), (0, 1, 0),
            (0, 5, None), (10, 10**12, 12),
        ],
    )
    def test_cases(self, base, target, expected):
        assert is_integer_power(base, target) == expected


class TestLemma1Witnesses:
    def test_first_target_nonempty(self):
        ws = lemma1_witnesses(-2, 1, 2, 100)
        assert ws and all(is_prime(p) for p in ws)

    def test_second_target_nonempty(self):
        ws = lemma1_witnesses(2, -1, 1, 100)
        assert ws and all(is_prime(p) for p in ws)

    def test_precondition_violated(self):
        with pytest.raises(LemmaPreconditionError):
            lemma1_witnesses(2, 2, 1, 100)
        with pytest.raises(LemmaPreconditionError):
            lemma1_witnesses(2, 1, 4, 100)  # gamma/beta = 4 = 2^2
        with pytest.raises(LemmaPreconditionError):
            lemma1_witnesses(2, 0, 1, 100)

    def test_witnesses_are_sound(self):
        """No n in [1, p-1] has gamma*alpha^n = beta mod p for a witness."""
        for alpha, beta, gamma in [(-2, 1, 2), (2, -1, 1), (3, 5, 7)]:
            for p in lemma1_witnesses(alpha, beta, gamma, 60):
                for n in range(1, p):
                    assert (gamma * pow(alpha, n, p) - beta) % p != 0

    def test_non_witnesses_have_solutions(self):
        alpha, beta, gamma = -2, 1, 2
        witnesses = set(lemma1_witnesses(alpha, beta, gamma, 60))
        for p in primes_up_to(60):
            if p in witnesses or (alpha * beta * gamma) % p == 0:
                continue
            assert any(
                (gamma * pow(alpha, n, p) - beta) % p == 0 for n in range(1, p)
            )

    @pytest.mark.parametrize(
        "alpha,beta,gamma", [(-2, 1, 2), (2, -1, 1), (3, 5, 7), (1, 4, -6)]
    )
    def test_walk_of_u_is_gamma_alpha_power_minus_beta(self, alpha, beta, gamma):
        u = linear(alpha, beta * (alpha - 1))
        for n in range(1, 8):
            assert iterate_value(u, gamma - beta, n) == gamma * alpha**n - beta


def reference_lemma1(alpha, beta, gamma, prime_bound):
    """The power enumeration that lemma1_witnesses ran before the residue
    walk took its place, behind the same precondition."""
    for num, den in ((beta, gamma), (gamma, beta)):
        if num % den == 0 and is_integer_power(alpha, num // den) is not None:
            raise LemmaPreconditionError(f"{num}/{den}")
    witnesses = []
    for p in primes_up_to(prime_bound):
        if (alpha * beta * gamma) % p == 0:
            continue
        a = alpha % p
        x = a
        while (gamma * x - beta) % p != 0:
            x = (x * a) % p
            if x == a:  # powers of alpha cycled; n >= 1 exhausted
                witnesses.append(p)
                break
    return witnesses


@pytest.mark.parametrize("alpha", [-5, -4, -3, -2, 2, 3, 4, 5])
def test_lemma1_matches_power_enumeration(alpha):
    nonzero = [v for v in range(-6, 7) if v]
    accepted = 0
    for beta, gamma in product(nonzero, repeat=2):
        try:
            expected = reference_lemma1(alpha, beta, gamma, 100)
        except LemmaPreconditionError:
            with pytest.raises(LemmaPreconditionError):
                lemma1_witnesses(alpha, beta, gamma, 100)
            continue
        assert lemma1_witnesses(alpha, beta, gamma, 100) == expected
        accepted += 1
    assert accepted > 100


@pytest.mark.parametrize("bound", [1, 0, -5])
def test_lemma1_refuses_a_prime_bound_below_two(bound):
    with pytest.raises(ValueError, match=f"prime bound must be >= 2, got {bound}"):
        lemma1_witnesses(2, 3, 5, bound)


def least_exponents(p, units):
    """The least k >= 1 with a^k = 1 mod p for each a in units: the first
    divisor of p-1 that works (Lagrange), each divisor tried in turn."""
    n = p - 1
    divisors = sorted({d for i in range(1, isqrt(n) + 1) if n % i == 0
                       for d in (i, n // i)})
    return [next(k for k in divisors if pow(a, k, p) == 1) for a in units]


# Primes whose p-1 lies beyond the factor table unless it is grown that
# far; 2^31-1 lies beyond the sieve budget, so it is factored every time.
BEYOND_THE_TABLE = [65537, 999983, 1000003, 2**31 - 1]


@pytest.mark.parametrize("p", primes_up_to(200) + BEYOND_THE_TABLE)
def test_multiplicative_order_is_the_least_exponent(p):
    """Each order is found twice: with p-1 beyond the smallest-prime-factor
    table (factored by trial division), then read from the table grown to
    cover p, where the sieve budget allows."""
    if p < 200:
        units, expected = range(1, p), []
        for a in units:
            k, x = 1, a
            while x != 1:
                k, x = k + 1, x * a % p
            expected.append(k)
    else:
        units = range(1, 40)
        expected = least_exponents(p, units)
    assert len(modular._spf) == 2  # each test starts from the initial table
    for grown in (False, True):
        if grown and p <= PRIME_BOUND_MAX:
            primes_up_to(p)  # the table now covers p-1
        for a, k in zip(units, expected):
            assert multiplicative_order(a, p) == k
            assert multiplicative_order(a - p, p) == k


def test_multiplicative_order_refuses_a_non_unit():
    with pytest.raises(ValueError, match="not a unit"):
        multiplicative_order(14, 7)


def walk_lemma1(alpha, beta, gamma, prime_bound):
    """The walk definition of the witnesses: the primes p not dividing
    alpha*beta*gamma where alpha*x + beta*(alpha-1) never reaches 0 from
    gamma-beta, behind the same preconditions."""
    if alpha == 0 or beta == 0 or gamma == 0:
        raise LemmaPreconditionError("alpha, beta, gamma must all be nonzero")
    for num, den in ((beta, gamma), (gamma, beta)):
        if num % den == 0 and is_integer_power(alpha, num // den) is not None:
            raise LemmaPreconditionError(
                f"{num}/{den} is a nonnegative power of {alpha}; the witness "
                "search's hypothesis fails"
            )
    u = linear(alpha, beta * (alpha - 1))
    return [p for p in primes_up_to(prime_bound) if alpha * beta * gamma % p
            and not orbit_mod_p(u, gamma - beta, p).hit]


@pytest.mark.parametrize("alpha", range(-7, 8))
def test_lemma1_matches_the_walk_definition(alpha):
    values = [v for v in range(-9, 10) if v]
    for beta, gamma in product(values, repeat=2):
        try:
            expected = walk_lemma1(alpha, beta, gamma, 400)
        except LemmaPreconditionError as exc:
            with pytest.raises(LemmaPreconditionError) as caught:
                lemma1_witnesses(alpha, beta, gamma, 400)
            assert str(caught.value) == str(exc)
            continue
        assert lemma1_witnesses(alpha, beta, gamma, 400) == expected


def test_nilpotent_box_certificates_bounded_by_index():
    """Over a small box, every nilpotent (u, r) yields Hit certificates
    with m_p never exceeding the integer nilpotency index."""
    from itertools import product

    checked = 0
    for vec in product(range(-3, 4), repeat=3):
        if not any(vec):
            continue
        u = Polynomial(vec)
        for r in (0, 1, 2):
            outcome = decide_nilpotency(u, r)
            if outcome.kind is not OrbitKind.REACHED_ZERO:
                continue
            report = certify_local(u, r, None, 60)
            assert report.consistent
            assert all(c.m_p <= outcome.index for c in report.certificates)
            checked += 1
    assert checked > 100


class TestLinearMembershipRule:
    """modular._linear_member decides linear membership by gcds alone; the
    refuting-prime search is the independent reference."""

    def test_primes_divide_matches_prime_support(self):
        for n in range(-40, 41):
            if n == 0:
                continue
            support = modular.prime_support(n)
            for m in range(-90, 91):
                expected = m == 0 or support <= modular.prime_support(m)
                assert modular._primes_divide(n, m) is expected, (n, m)

    def test_primes_divide_high_powers(self):
        assert modular._primes_divide(2**40 * 3**7, -6)
        assert modular._primes_divide(-(5**30), 10**12 + 5)
        assert not modular._primes_divide(2**40 * 7, 2**50 * 3)
        assert not modular._primes_divide(10**20 + 39, 2)
        assert modular._primes_divide(-1, 0) and modular._primes_divide(7, 0)

    def test_member_exactly_when_no_prime_refutes(self):
        members = non_members = largest = 0
        for A in [(), (2,), (3,), (2, 3), (2, 5), (2, 3, 5, 7)]:
            excluded = PrimeSet(A)
            for a, b, r in product(range(-9, 10), range(-9, 10), range(-10, 11)):
                if a == 0:
                    continue
                u = linear(a, b)
                if decide_nilpotency(u, r).kind is OrbitKind.REACHED_ZERO:
                    continue
                m = modular._linear_member(u, r, prod(A))
                refuted = modular.first_refuting_prime(u, r, excluded, 600)
                assert (m is None) is (refuted is not None), (u, r, A, m, refuted)
                if m is None:
                    non_members += 1
                    largest = max(largest, refuted)
                else:
                    members += 1
                    assert r * (a - 1) + b == b * a**m, (u, r, m)
        assert (members, non_members, largest) == (3732, 38292, 43)
