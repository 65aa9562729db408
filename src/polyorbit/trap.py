"""The bivariate map F(x,y) = (x^2*y, x^2*y + x*y^2) over F_p.

Exhaustively verified facts, per prime: (0,0) is the unique fixed point,
and every one of the p^2 starting points lands on (0,0) within p steps
(so the p-th iterate is identically (0,0)). Any point with a zero
coordinate maps to (0,0) in one step; for the rest the coordinate ratio
y/x increases by exactly 1 per step, which is why p steps always suffice.

Both kernels step every one of the p^2 points on each call; that stepping
is the verification, so nothing is cached between calls. The first-hit
search steps each point once, into one flat successor table indexed by
x*p + y, and then walks that table, stopping each walk at the first point
already known. Its answer is one flat list of p^2 small ints, read through
FirstHits, a read-only mapping from (x, y) to the hit at x*p + y that
builds no point tuples; trap_first_hits returns it, and
verify_trap_nilpotence and the trap command read its values.
trap_fixed_points scans every point, testing the first coordinate
x^2*y = x first and the second only where that holds. _step is the
single-point formula that trap_step applies.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from itertools import product

from .modular import is_prime
from .orbits import BudgetExceededError

TRAP_CAP_DEFAULT = 101
TRAP_CAP_MAX = 1000


@dataclass(frozen=True)
class TrapPoint:
    """A point of the affine plane over F_p, residues in [0, p)."""

    x: int
    y: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        object.__setattr__(self, "x", self.x % self.p)
        object.__setattr__(self, "y", self.y % self.p)


def _step(x: int, y: int, p: int) -> tuple[int, int]:
    """One application of the map to residues, reducing after every
    multiply so all intermediates stay within machine range for desk-scale
    primes."""
    x2y = (((x * x) % p) * y) % p
    xy2 = (x * ((y * y) % p)) % p
    return x2y, (x2y + xy2) % p


def trap_step(pt: TrapPoint) -> TrapPoint:
    """One application of the map."""
    return TrapPoint(*_step(pt.x, pt.y, pt.p), pt.p)


def check_trap_budget(bound: int) -> None:
    """Refuse a prime above TRAP_CAP_MAX: the checks walk p^2 points."""
    if bound > TRAP_CAP_MAX:
        raise BudgetExceededError(
            f"trap bound {bound} exceeds the budget of {TRAP_CAP_MAX} "
            "(p^2 points per prime p)"
        )


def _check_prime_cap(p: int, cap: int) -> None:
    check_trap_budget(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > cap:
        raise ValueError(f"p={p} exceeds the cap {cap} (p^2 points)")


def _successors(p: int) -> list[int]:
    """The flat index x*p + y of F(x, y) for every point, listed in flat
    index order, with x^2 reduced once per row."""
    return [a * p + (a + x * y * y) % p
            for x in range(p) for xx in (x * x % p,)
            for y in range(p) for a in (xx * y % p,)]


def _first_hits(nxt: list[int], p: int) -> list[int]:
    """For every index i of the successor table nxt, the first n in 1..p at
    which the n-th successor of i is index 0, or 0 if there is none.

    hit(i) = 1 when nxt[i] = 0, else 1 + hit(nxt[i]), so each index is
    stepped once and its walk stops at the first index already known."""
    counts = list(range(1, p + 1))  # counts[n] = n + 1: hits share p ints
    hits = [None] * len(nxt)
    for start in range(len(nxt)):
        if hits[start] is not None:
            continue
        path, i = [], start
        while hits[i] is None:
            hits[i] = 0  # a revisit within this walk is a cycle missing 0
            path.append(i)
            i = nxt[i]
            if i == 0:
                steps = 0
                break
        else:
            steps = hits[i]
            if not steps:  # joined a point with no hit within p steps
                continue
        for i in reversed(path):
            if steps >= p:  # this point and those before it take over p steps
                break
            hits[i] = steps = counts[steps]
    return hits


class _HitValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        return iter(self._mapping._hits)


class _HitItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        return zip(self._mapping, self._mapping._hits)


class FirstHits(Mapping[tuple[int, int], int]):
    """The first hits of every point of F_p^2 as a read-only mapping from
    (x, y) to hits[x*p + y], iterated in product(range(p), repeat=2)
    order like the dict of the same items, which it equals. Keys are pairs
    of ints in [0, p); any other key is absent. values() and items() run
    over the list itself. The repr shows p and the list, so equal answers
    have equal reprs."""

    __slots__ = ("p", "_hits")

    def __init__(self, p: int, hits: list[int]):
        self.p = p
        self._hits = hits

    def __getitem__(self, key: tuple[int, int]) -> int:
        p = self.p
        if isinstance(key, tuple) and len(key) == 2:
            x, y = key
            if (isinstance(x, int) and isinstance(y, int)
                    and 0 <= x < p and 0 <= y < p):
                return self._hits[x * p + y]
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return product(range(self.p), repeat=2)

    def __len__(self) -> int:
        return len(self._hits)

    def values(self) -> _HitValues:
        return _HitValues(self)

    def items(self) -> _HitItems:
        return _HitItems(self)

    def __repr__(self) -> str:
        return f"FirstHits({self.p}, {self._hits!r})"


def _hit_view(p: int) -> FirstHits:
    return FirstHits(p, _first_hits(_successors(p), p))  # the table is freed here


def trap_first_hits(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> FirstHits:
    """For every start point (x, y), the first step n >= 1 at which the n-th
    iterate is (0,0); a value of 0 marks a point that never got there
    within p steps (which the exhaustive checks show never happens). The
    answer is a read-only Mapping[tuple[int, int], int] over one flat list
    of p^2 ints (see FirstHits), equal to the dict of the same items."""
    _check_prime_cap(p, cap)
    return _hit_view(p)


def verify_trap_nilpotence(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> bool:
    """True iff all p^2 points reach (0,0) within p steps, equivalently the
    p-th iterate of the map is identically (0,0) ((0,0) is absorbing)."""
    _check_prime_cap(p, cap)
    return all(_hit_view(p).values())


def trap_fixed_points(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> list[TrapPoint]:
    """All fixed points of the map over F_p; expected exactly [(0,0)]."""
    _check_prime_cap(p, cap)
    # A fixed point has x^2*y = x, so the second coordinate, x + x*y^2,
    # is needed only where that holds.
    return [TrapPoint(x, y, p)
            for x in range(p) for xx in (x * x % p,)
            for y in range(p) if xx * y % p == x and (x + x * y * y) % p == y]
