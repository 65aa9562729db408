"""The additive-trap map over F_p, verified exhaustively per prime."""

import pytest

from polyorbit import (
    BudgetExceededError,
    TrapPoint,
    primes_up_to,
    trap_first_hits,
    trap_fixed_points,
    trap_step,
    verify_trap_nilpotence,
)
from polyorbit.trap import TRAP_CAP_MAX


class TestTrapStep:
    def test_generic_point(self):
        assert trap_step(TrapPoint(1, 1, 7)) == TrapPoint(1, 2, 7)

    def test_axis_points_collapse(self):
        assert trap_step(TrapPoint(0, 5, 7)) == TrapPoint(0, 0, 7)
        assert trap_step(TrapPoint(5, 0, 7)) == TrapPoint(0, 0, 7)

    def test_mod_five_point(self):
        # (2,3): x^2*y = 12, x^2*y + x*y^2 = 30 -> (2, 0) mod 5
        assert trap_step(TrapPoint(2, 3, 5)) == TrapPoint(2, 0, 5)

    def test_points_normalized(self):
        pt = TrapPoint(9, -1, 7)
        assert (pt.x, pt.y) == (2, 6)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            TrapPoint(1, 1, 6)


class TestNilpotence:
    @pytest.mark.parametrize("p", primes_up_to(31))
    def test_every_point_reaches_origin(self, p):
        assert verify_trap_nilpotence(p)

    @pytest.mark.parametrize("p", primes_up_to(31))
    def test_first_hit_within_p_steps(self, p):
        hits = trap_first_hits(p)
        assert len(hits) == p * p
        assert all(1 <= step <= p for step in hits.values())

    def test_smallest_case_by_hand(self):
        # p=2: (0,0),(0,1),(1,0) collapse in one step; (1,1)->(1,0)->(0,0)
        hits = trap_first_hits(2)
        assert hits == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2}

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            verify_trap_nilpotence(103, cap=101)
        assert verify_trap_nilpotence(103, cap=103)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            verify_trap_nilpotence(9)


class TestFixedPoints:
    @pytest.mark.parametrize("p", [2, 7, 13])
    def test_origin_is_unique(self, p):
        assert trap_fixed_points(p) == [TrapPoint(0, 0, p)]


@pytest.mark.parametrize("p", primes_up_to(13))
def test_ratio_recurrence(p):
    """For x, y both nonzero, one step sends the ratio y/x to y/x + 1."""
    for x in range(1, p):
        for y in range(1, p):
            nxt = trap_step(TrapPoint(x, y, p))
            assert nxt.x != 0
            old_ratio = (y * pow(x, -1, p)) % p
            new_ratio = (nxt.y * pow(nxt.x, -1, p)) % p
            assert new_ratio == (old_ratio + 1) % p


def _walk_first_hits(p):
    """Reference: walk every start point separately for at most p steps."""
    hits = {}
    for x0 in range(p):
        for y0 in range(p):
            x, y, first = x0, y0, 0
            for n in range(1, p + 1):
                x, y = (x * x * y) % p, (x * x * y + x * y * y) % p
                if (x, y) == (0, 0):
                    first = n
                    break
            hits[(x0, y0)] = first
    return hits


@pytest.mark.parametrize("p", primes_up_to(31))
def test_first_hits_match_plain_walk(p):
    got = trap_first_hits(p)
    want = _walk_first_hits(p)
    assert got == want
    assert list(got) == list(want)


class TestTrapBudget:
    @pytest.mark.parametrize("check", [trap_first_hits, trap_fixed_points])
    @pytest.mark.parametrize("p", [1009, 10**9 + 7])
    def test_prime_over_the_budget_refused_before_allocation(self, check, p,
                                                            small_peak):
        assert p > TRAP_CAP_MAX
        with pytest.raises(BudgetExceededError, match="trap bound"):
            check(p, cap=p)

    def test_budget_admits_its_own_bound(self, monkeypatch):
        monkeypatch.setattr("polyorbit.trap.TRAP_CAP_MAX", 7)
        assert len(trap_first_hits(7, cap=100)) == 49
        assert trap_fixed_points(7, cap=100) == [TrapPoint(0, 0, 7)]
        with pytest.raises(BudgetExceededError):
            trap_first_hits(11, cap=100)
