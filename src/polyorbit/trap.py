"""The bivariate map F(x,y) = (x^2*y, x^2*y + x*y^2) over F_p.

Ratio lemma. A point with a zero coordinate maps to (0,0), which is
fixed: both coordinates of F(x, y) carry the factor x*y. For x, y != 0,
let t = y/x. Then F(x, y) = (x^2*y, x^2*y*(1 + t)): its first coordinate
is nonzero, its ratio is t + 1, and its second coordinate is 0 exactly
when t = -1. So the k-th iterate keeps both coordinates nonzero, with
ratio t + k, until t + k = -1, at k0 = (-1 - t) mod p in [0, p-2]; the
iterate k0 + 1 lies on the x-axis away from (0,0), and the iterate k0 + 2
is (0,0). Hence:

* the first hit of (0,0) is 1 when x = 0 or y = 0, and otherwise
  ((-1 - y/x) mod p) + 2, which lies in [2, p];
* the p-th iterate of F is identically (0,0);
* (0,0) is the only fixed point, since t + 1 != t and every other point
  with a zero coordinate moves to (0,0).

So every first hit lies in [1, p], and the largest is p, at ratio t = 1:
the trap command reports both from the lemma and builds no first hits.
trap_first_hits lists them all, from the lemma, as one flat list of p^2
small ints indexed by x*p + y, read through FirstHits, a read-only
mapping from (x, y) to the hit at x*p + y that builds no point tuples.
trap_fixed_points scans every point, testing the first coordinate
x^2*y = x first and the second only where that holds, so its answer is
checked against the lemma rather than taken from it. _step is the
single-point formula that trap_step applies.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping
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
    """Refuse a prime above TRAP_CAP_MAX: the checks answer p^2 points."""
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


def _first_hits(p: int) -> list[int]:
    """The first hit of every point, listed in flat index order x*p + y,
    by the ratio lemma: 1 when x or y is 0, else ((-1 - y/x) mod p) + 2.

    The p possible values are built once, as a table indexed by the ratio
    t = y/x (t = 0 stands for y = 0, and row x = 0 reads t = 0 too), so the
    p^2 entries share those p int objects."""
    by_ratio = [1] + [(-1 - t) % p + 2 for t in range(1, p)]
    return [by_ratio[y * inv % p]
            for x in range(p) for inv in (pow(x, -1, p) if x else 0,)
            for y in range(p)]


class _HitItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[tuple[int, int], int]]:
        return zip(self._mapping, self._mapping._hits)


class FirstHits(Mapping[tuple[int, int], int]):
    """The first hits of every point of F_p^2 as a read-only mapping from
    (x, y) to hits[x*p + y], iterated in product(range(p), repeat=2)
    order like the dict of the same items, which it equals. Keys are pairs
    of ints in [0, p); any other key is absent. items() runs over the list
    itself; values() is Mapping's view, which looks up each key. The repr
    shows p and the list, so equal answers have equal reprs."""

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

    def items(self) -> _HitItems:
        return _HitItems(self)

    def __repr__(self) -> str:
        return f"FirstHits({self.p}, {self._hits!r})"


def trap_first_hits(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> FirstHits:
    """For every start point (x, y), the first step n >= 1 at which the n-th
    iterate is (0,0), from the ratio lemma; every value lies in [1, p]. The
    answer is a read-only Mapping[tuple[int, int], int] over one flat list
    of p^2 ints (see FirstHits), equal to the dict of the same items."""
    _check_prime_cap(p, cap)
    return FirstHits(p, _first_hits(p))


def trap_fixed_points(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> list[TrapPoint]:
    """All fixed points of the map over F_p; expected exactly [(0,0)]."""
    _check_prime_cap(p, cap)
    # A fixed point has x^2*y = x, so the second coordinate, x + x*y^2,
    # is needed only where that holds.
    return [TrapPoint(x, y, p)
            for x in range(p) for xx in (x * x % p,)
            for y in range(p) if xx * y % p == x and (x + x * y * y) % p == y]
