"""The bivariate map F(x,y) = (x^2*y, x^2*y + x*y^2) over F_p.

Exhaustively verified facts, per prime: (0,0) is the unique fixed point,
and every one of the p^2 starting points lands on (0,0) within p steps
(so the p-th iterate is identically (0,0)). Any point with a zero
coordinate maps to (0,0) in one step; for the rest the coordinate ratio
y/x increases by exactly 1 per step, which is why p steps always suffice.
"""

from __future__ import annotations

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


def trap_first_hits(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> dict[tuple[int, int], int]:
    """For every start point, the first step n >= 1 at which the n-th
    iterate is (0,0); a value of 0 marks a point that never got there
    within p steps (which the exhaustive checks show never happens)."""
    _check_prime_cap(p, cap)
    # hit(pt) = 1 when F(pt) = (0,0), else 1 + hit(F(pt)), so each point is
    # stepped once and its walk stops at the first point already known.
    hits = dict.fromkeys(product(range(p), repeat=2))
    for start in hits:
        path, pt = [], start
        while hits[pt] is None:
            hits[pt] = 0  # a revisit within this walk is a cycle missing (0,0)
            path.append(pt)
            pt = _step(*pt, p)
            if pt == (0, 0):
                steps = 0
                break
        else:
            steps = hits[pt] or None
        for pt in reversed(path):
            steps = steps + 1 if steps is not None and steps < p else None
            hits[pt] = steps or 0
    return hits


def verify_trap_nilpotence(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> bool:
    """True iff all p^2 points reach (0,0) within p steps, equivalently the
    p-th iterate of the map is identically (0,0) ((0,0) is absorbing)."""
    return all(first >= 1 for first in trap_first_hits(p, cap=cap).values())


def trap_fixed_points(p: int, *, cap: int = TRAP_CAP_DEFAULT) -> list[TrapPoint]:
    """All fixed points of the map over F_p; expected exactly [(0,0)]."""
    _check_prime_cap(p, cap)
    return [TrapPoint(x, y, p) for x, y in product(range(p), repeat=2)
            if _step(x, y, p) == (x, y)]
