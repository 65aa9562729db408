"""The additive-trap map over F_p, verified exhaustively per prime."""

import json
import random
import tracemalloc

import pytest

import polyorbit.cli
import polyorbit.trap
from polyorbit import (
    BudgetExceededError,
    TrapPoint,
    primes_up_to,
    trap_first_hits,
    trap_fixed_points,
    trap_step,
)
from polyorbit.cli import main
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
        assert all(trap_first_hits(p).values())

    @pytest.mark.parametrize("p", primes_up_to(31))
    def test_first_hit_within_p_steps(self, p):
        hits = trap_first_hits(p)
        assert len(hits) == p * p
        assert all(1 <= step <= p for step in hits.values())

    def test_smallest_case_by_hand(self):
        # p=2: (0,0),(0,1),(1,0) collapse in one step; (1,1)->(1,0)->(0,0)
        hits = trap_first_hits(2)
        assert hits == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2}

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            trap_first_hits(9)


class TestFixedPoints:
    @pytest.mark.parametrize("p", [2, 7, 13])
    def test_origin_is_unique(self, p):
        assert trap_fixed_points(p) == [TrapPoint(0, 0, p)]


class TestNoCapBelowTheBudget:
    """Every prime up to TRAP_CAP_MAX is answered, 101 < p included."""

    def test_first_hits(self):
        assert len(trap_first_hits(103)) == 103 * 103

    def test_fixed_points(self):
        assert trap_fixed_points(103) == [TrapPoint(0, 0, 103)]


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


def _walk_first_hit(x, y, p):
    """Reference: the first n in 1..p at which the plain walk from (x, y)
    is at (0,0), or 0 if it is not there within p steps."""
    for n in range(1, p + 1):
        x, y = (x * x * y) % p, (x * x * y + x * y * y) % p
        if (x, y) == (0, 0):
            return n
    return 0


def _walk_first_hits(p):
    """Reference: walk every start point separately for at most p steps."""
    return {(x, y): _walk_first_hit(x, y, p) for x in range(p) for y in range(p)}


@pytest.mark.parametrize("p", primes_up_to(31))
def test_first_hits_match_plain_walk(p):
    got = trap_first_hits(p)
    want = _walk_first_hits(p)
    assert got == want
    assert list(got) == list(want)


@pytest.mark.parametrize("p", [211, 499, 997])
def test_sampled_first_hits_match_plain_walk(p):
    """Past the exhaustive walk's reach, seeded points are walked one by
    one: the axes, the longest walk (ratio 1, hit p) and 64 random points."""
    rng = random.Random(p)
    points = [(0, 0), (0, p - 1), (p - 1, 0), (1, 1), (1, p - 1), (p - 1, 1)]
    points += [(rng.randrange(p), rng.randrange(p)) for _ in range(64)]
    hits = trap_first_hits(p)
    for x, y in points:
        assert hits[(x, y)] == _walk_first_hit(x, y, p), (x, y)
    assert hits[(1, 1)] == p


class TestTrapBudget:
    @pytest.mark.parametrize("check", [trap_first_hits, trap_fixed_points])
    @pytest.mark.parametrize("p", [1009, 10**9 + 7])
    def test_prime_over_the_budget_refused_before_allocation(self, check, p,
                                                            small_peak):
        assert p > TRAP_CAP_MAX
        with pytest.raises(BudgetExceededError, match="trap bound"):
            check(p)

    def test_budget_admits_its_own_bound(self, monkeypatch):
        monkeypatch.setattr("polyorbit.trap.TRAP_CAP_MAX", 7)
        assert len(trap_first_hits(7)) == 49
        assert trap_fixed_points(7) == [TrapPoint(0, 0, 7)]
        with pytest.raises(BudgetExceededError):
            trap_first_hits(11)


PRIMES_TO_101 = primes_up_to(101)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_first_hits_match_the_ratio_closed_form(p):
    """A point with a zero coordinate hits (0,0) at step 1. Otherwise the
    ratio t = y/x grows by 1 per step; t = -1 sends the point to the
    x-axis and the next step to (0,0), so the first hit is
    ((-1 - t) mod p) + 2."""
    want = {
        (x, y): 1 if x * y % p == 0 else (-1 - y * pow(x, -1, p)) % p + 2
        for x in range(p) for y in range(p)
    }
    got = trap_first_hits(p)
    assert got == want
    assert list(got) == list(want)


@pytest.mark.parametrize("p", PRIMES_TO_101)
def test_fixed_points_match_a_brute_force_scan(p):
    want = [pt for pt in (TrapPoint(x, y, p) for x in range(p) for y in range(p))
            if trap_step(pt) == pt]
    assert trap_fixed_points(p) == want


@pytest.mark.parametrize("p", [2, 7, 101])
def test_nilpotence_reads_no_point_keyed_dict(p, monkeypatch, capsys):
    """The trap command reports each prime's nilpotence and largest first
    hit from the ratio lemma and builds no first hits; the first hits
    agree with what it reports."""
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    spy(polyorbit.trap, "_first_hits")
    spy(polyorbit.cli, "trap_first_hits")
    code = main(["trap", "--primes", str(p), "--output", "json"])
    rows = json.loads(capsys.readouterr().out)["result"]["primes"]
    assert calls == []
    assert code == 0
    assert [row["p"] for row in rows] == primes_up_to(p)
    for row in rows:
        hits = trap_first_hits(row["p"]).values()
        assert row["nilpotent_by_step_p"] is True and all(hits)
        assert row["max_first_hit"] == row["p"] == max(hits)


class TestFirstHitsView:
    """trap_first_hits answers with a read-only mapping over its 2-byte hit
    array that reads like the dict of the same items."""

    @pytest.mark.parametrize("p", [2, 3, 7, 31])
    def test_reads_like_the_plain_walk_dict(self, p):
        got = trap_first_hits(p)
        want = _walk_first_hits(p)
        assert got == want and want == got
        assert len(got) == len(want)
        assert list(got) == list(want)
        assert list(got.keys()) == list(want.keys())
        assert list(got.values()) == list(want.values())
        assert list(got.items()) == list(want.items())
        assert all(got[key] == n and key in got for key, n in want.items())
        assert len(got.values()) == len(got.items()) == p * p

    def test_repr_is_the_same_for_equal_answers(self):
        assert repr(trap_first_hits(7)) == repr(trap_first_hits(7))
        assert repr(trap_first_hits(7)) != repr(trap_first_hits(5))
        assert " at 0x" not in repr(trap_first_hits(2))

    @pytest.mark.parametrize("key", [(7, 0), (-1, 0), (0, 7), (0, -1), (7, 7)])
    def test_points_off_the_plane_are_absent(self, key):
        hits = trap_first_hits(7)
        with pytest.raises(KeyError):
            hits[key]
        assert key not in hits
        assert hits.get(key, "absent") == "absent"

    @pytest.mark.parametrize("key", [5, (1,), "a", "ab", (0, 0, 0), None])
    def test_malformed_keys_are_absent(self, key):
        hits = trap_first_hits(7)
        assert key not in hits
        assert hits.get(key) is None
        assert hits.get(key, -1) == -1

    def test_item_assignment_refused(self):
        hits = trap_first_hits(5)
        with pytest.raises(TypeError):
            hits[(1, 1)] = 0
        with pytest.raises(TypeError):
            del hits[(1, 1)]
        assert hits[(1, 1)] == _walk_first_hits(5)[(1, 1)]

    def test_holds_one_two_byte_array(self):
        tracemalloc.start()
        try:
            hits = trap_first_hits(211)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(hits) == 211 * 211
        assert held < 2**20, f"{held} bytes held"

    def test_peak_at_the_largest_prime(self):
        """At p = 997 the call holds the 2-byte hits and one tiled 2-byte
        ratio table at its peak, about 3.8 MiB, where p^2 int references
        alone would take 7.6 MiB."""
        tracemalloc.start()
        try:
            hits = trap_first_hits(997)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(hits) == 997 * 997
        assert peak < 4.5 * 2**20, f"peak {peak} bytes"


def test_trap_command_at_its_budget(capsys):
    """The command sweeps every prime up to TRAP_CAP_MAX itself, and finds
    (0,0) the only fixed point at each of the 168 primes."""
    code = main(["trap", "--primes", str(TRAP_CAP_MAX), "--output", "json"])
    rows = json.loads(capsys.readouterr().out)["result"]["primes"]
    assert code == 0
    assert len(rows) == 168
    assert [row["p"] for row in rows] == primes_up_to(TRAP_CAP_MAX)
    assert all(row["fixed_points"] == [[0, 0]] for row in rows)
