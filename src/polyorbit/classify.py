"""Exact, catalog-backed classification of (weakly) locally nilpotent
polynomials for the decidable (r, A) combinations.

classify takes one path for every (r, A) it covers, in three steps:

1. The index. At r in {1, -1, 0} with empty A, and at r=1 for a linear
   map outside any A, the catalog lists every orbit that reaches 0:
   1, 2, 3, 0 cut at its first 0 (Thm1.1-1.3), its negative -1, -2, -3, 0
   (Rem4.1-3), and 0, a, 0 (Thm2.4-2.5). u is stepped only while its orbit
   stays on those values, so at most three evaluations are made; at r=0
   the second step u(a) = 0 is tested by dividing a out of u from the
   constant term up, so no value grows past the coefficients. Everywhere
   else decide_nilpotency decides the orbit, under the caps given, and the
   outcome is kept in Verdict.orbit; an orbit undecided at the caps leaves
   the verdict undecidable.
2. Membership. A nilpotent map is a member. Any other linear map is a
   member exactly when the linear rule modular._linear_member holds outside
   A; any other map is not one (by the catalog lists, or by Fact1).
3. The label. _label names the catalog item of the outcome. CATALOG lists
   every family, item and label it cites, with the (r, A) each family
   covers.

Everything else honestly returns decidable=False; certify_local can still
hunt for a refuting prime, and a refutation is a proof of non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple

from .modular import PrimeSet, _as_prime_set, _linear_member, _primes_divide
from .orbits import _EXHAUSTED, OrbitOutcome, check_caps, decide_nilpotency
from .polynomials import Polynomial, linear

NILPOTENT = "nilpotent"
STRICTLY_LOCAL = "strictly-local"


@dataclass(frozen=True, init=False)
class Verdict:
    """Classification result.

    decidable=False means no claim is made (member is None). Otherwise
    member says whether u lies in the target membership set, subclass
    splits members into nilpotent (with the exact index) versus strictly
    local (locally nilpotent, never exactly 0), and citation names the
    catalog item that settled it. orbit is the integer orbit outcome
    when the dispatcher decided it to reach the verdict (|r| >= 2 with
    empty A), and None otherwise.

    A verdict stays a frozen dataclass, so dataclasses.fields, asdict and
    replace keep working and a subclass may extend __init__. One is built
    for every harness candidate, so __init__ is written by hand: it has
    the generated signature and stores all seven fields in one __dict__
    assignment instead of seven frozen setattr calls.
    """

    decidable: bool
    member: bool | None
    subclass: str | None = None
    index: int | None = None
    citation: str = ""
    note: str = ""
    orbit: OrbitOutcome | None = None

    def __init__(
        self,
        decidable: bool,
        member: bool | None,
        subclass: str | None = None,
        index: int | None = None,
        citation: str = "",
        note: str = "",
        orbit: OrbitOutcome | None = None,
    ) -> None:
        object.__setattr__(self, "__dict__", {
            "decidable": decidable, "member": member, "subclass": subclass,
            "index": index, "citation": citation, "note": note, "orbit": orbit,
        })

    @property
    def result(self) -> str | None:
        if not self.decidable:
            return None
        return "InL" if self.member else "NotInL"

    @property
    def is_nilpotent(self) -> bool:
        return bool(self.member) and self.subclass == NILPOTENT

    @property
    def is_strictly_local(self) -> bool:
        return bool(self.member) and self.subclass == STRICTLY_LOCAL


_X_MINUS_1 = linear(1, -1)

# Thm1.1-1.3: u = base + p(x)*modulus for some p in Z[x], nilpotent of the
# given index at r=1. Rows are (citation, index, base, modulus).
THM1_SHAPES = (
    ("Thm1.1", 1, Polynomial(), _X_MINUS_1),
    ("Thm1.2", 2, linear(-2, 4), _X_MINUS_1 * linear(1, -2)),
    ("Thm1.3", 3, Polynomial((-3, 7, -2)),
     _X_MINUS_1 * linear(1, -2) * linear(1, -3)),
)


class CatalogItem(NamedTuple):
    """A catalog item: its statement and member builder (None for a label-only
    item), called by generate_list_members with r, qs (the primes of A, or of
    r), sign (of r), shifts and nonzero; reads_A marks a builder needing A."""

    statement: str
    build: Callable[..., list[Polynomial]] | None = None
    reads_A: bool = False


class CatalogRow(NamedTuple):
    """A catalog family, whose k-th item is cited as ident.k, or a label,
    which has no items. text is the (r, A) a family covers in words, or a
    label's statement. As data a family covers its one r (None for Thm4 and
    Cor4, at r >= 2 and r <= -2), and any finite A if excluded, else only an
    empty A. Negate-conjugation carries its citations to mirror's."""

    ident: str
    text: str
    r: int | None = None
    excluded: bool = False
    items: tuple[CatalogItem, ...] = ()
    mirror: str | None = None


# The free p(x) choices are 0, 1 and x, the nonzero ones where the item
# needs p != 0; Thm2.5's p(0) = -1 makes p = x*q - 1 for q in {1, x}
# (p = -1 gives -x+a, which is Thm2.2).
_MULTIPLIERS = (Polynomial(), Polynomial((1,)), Polynomial((0, 1)))
_X = _MULTIPLIERS[2]

# Thm4 at r >= 2 and Cor4 at r <= -2 share four shapes, read directly at
# either sign: the linear rule and each shape are unchanged when u and r
# are both mirrored. Thm4.2's "some exponent above r's" is b not dividing
# r, since b is built from r's primes.
_SIGNED_SHAPES = (
    CatalogItem("x + sign(r)*b, b supported on the primes of r",
                lambda qs, sign, shifts, **_: [linear(1, sign * b) for b in shifts(qs)]),
    CatalogItem("x - sign(r)*b, b supported on r's primes with some exponent above r's",
                lambda r, qs, sign, shifts, **_: [linear(1, -sign * b)
                                                  for b in shifts(qs, 1) if r % b]),
    CatalogItem("ax + r, |a| >= 2 supported on the primes of r",
                lambda r, qs, shifts, **_: [linear(s * a, r) for a in shifts(qs, 1)
                                            for s in (1, -1)]),
    CatalogItem("-2x - r, r even", lambda r, **_: [linear(-2, -r)] if r % 2 == 0 else []),
)

CATALOG = {row.ident: row for row in (
    CatalogRow("Thm1", "all members at r=1, A={}, any degree", 1, mirror="Rem4", items=(
        *map(CatalogItem, ("(x-1)p(x), p != 0, nilpotent of index 1",
                           "-2x+4 + p(x)(x-1)(x-2), index 2",
                           "-2x^2+7x-3 + p(x)(x-1)(x-2)(x-3), index 3"),
             (lambda base=base, modulus=modulus, **_: [
                 u for u in (base + p * modulus for p in _MULTIPLIERS) if not u.is_zero()]
              for _, _, base, modulus in THM1_SHAPES)),
        CatalogItem("x+1, strictly local", lambda **_: [linear(1, 1)]))),
    CatalogRow("Rem4", "the r=-1 mirror of Thm1 (negate-conjugation), A={}", -1, items=tuple(
        CatalogItem(f"-u(-x) for u in Thm1.{k}") for k in range(1, 5)), mirror="Thm1"),
    CatalogRow("Thm2", "all members at r=0, A={}, any degree", 0, items=(
        CatalogItem("ax", lambda nonzero, **_: [linear(a, 0) for a in nonzero]),
        CatalogItem("x+b and -x+b, b != 0",
                    lambda nonzero, **_: [linear(s, b) for s in (1, -1) for b in nonzero]),
        CatalogItem("ax+b with nonempty prime support of a contained in that of b",
                    lambda nonzero, **_: [linear(a, b) for a in nonzero for b in nonzero
                                          if abs(a) >= 2 and _primes_divide(a, b)]),
        CatalogItem("x*p(x), nilpotent of index 1",
                    lambda **_: [_X * p for p in _MULTIPLIERS[1:]]),
        CatalogItem("(x-a)p(x) with a != 0 and p(0) = -1, nilpotent of index 2",
                    lambda nonzero, **_: [linear(1, -a) * (_X * q - 1)
                                          for a in nonzero for q in _MULTIPLIERS[1:]]))),
    CatalogRow("Thm3", "all linear members at r=1, arbitrary finite A", 1, True, (
        CatalogItem("x+b with the prime support of b inside A (index 1 exactly for b=-1)",
                    lambda qs, shifts, **_: [linear(1, s * b) for b in shifts(qs)
                                             for s in (1, -1)], True),
        CatalogItem("a(x-1), nilpotent of index 1",
                    lambda nonzero, **_: [linear(a, -a) for a in nonzero]),
        CatalogItem("ax+1 with |a| >= 2 and support(a) inside A",
                    lambda qs, shifts, **_: [linear(s * a, 1) for a in shifts(qs, 1)
                                             for s in (1, -1)], True),
        CatalogItem("-2x-1, a member precisely when 2 is in A",
                    lambda qs, **_: [linear(-2, -1)] if 2 in qs else [], True),
        CatalogItem("-2x+4, nilpotent of index 2", lambda **_: [linear(-2, 4)]))),
    CatalogRow("Thm4", "linear strictly-local members at r >= 2, A={}",
               items=_SIGNED_SHAPES, mirror="Cor4"),
    CatalogRow("Cor4", "the r <= -2 mirror of Thm4 (negate-conjugation), A={}",
               items=_SIGNED_SHAPES, mirror="Thm4"),
    CatalogRow("Rem3", "strictly-local linear members at r >= 2 or r <= -2 outside "
                       "the four Thm4/Cor4 shapes"),
    CatalogRow("Fact1", "degree >= 2 and non-nilpotent at r implies non-membership"),
    CatalogRow("Def.N", "the orbit reaches 0, hence membership is trivial"),
    CatalogRow("Def.L", "degree-0 inputs (membership sets require degree >= 1)"),
)}

# The item ids of each family that generate_list_members can enumerate.
CATALOG_FAMILIES = {row.ident: tuple(f"{row.ident}.{k}" for k in range(1, len(row.items) + 1))
                    for row in CATALOG.values() if row.items and row.items[0].build}

# The family covering each special r at empty A; elsewhere Thm4 or Cor4.
_SPECIAL_FAMILIES = {row.r: row.ident for row in CATALOG.values()
                     if row.r is not None and not row.excluded}


def mirror_item(citation: str) -> str:
    """The catalog id of citation's negate-conjugate mirror: Thm1.k at r=1
    and Rem4.k at r=-1 mirror each other, as do Thm4.k at r and Cor4.k at
    -r, so applying it twice gives the id back. Any other id is left as it
    is."""
    family, dot, item = citation.partition(".")
    row = CATALOG.get(family)
    return (row and row.mirror or family) + dot + item


def classify(u: Polynomial, r: int, A: "PrimeSet | None" = None, **caps) -> Verdict:
    """The exact verdict on (u, r, A), where one is known.

    Coverage: every u at r in {1, -1, 0} and at |r| >= 2 with empty A,
    and linear u at r=1 with any A; everything else returns
    decidable=False. At |r| >= 2 the orbit is decided under the
    decide_nilpotency caps given as keywords. Caps below 1 are refused; no
    caps means the defaults, which need no check. Each linear item labels
    the gcd rule modular._linear_member: nothing is factored.
    """
    coeffs = u.coeffs
    if not coeffs:
        raise ValueError("the zero polynomial is outside every membership set")
    if caps:
        check_caps(**caps)
    A = _as_prime_set(A)
    if not A.primes:
        family = _SPECIAL_FAMILIES.get(r) or ("Thm4" if r > 0 else "Cor4")
        return _decide(u, r, family, 1, caps)
    if r == 1 and len(coeffs) == 2:
        return _decide(u, 1, "Thm3", prod(A.primes), caps)
    note = (f"no exact classifier for r={r}, A={A}, degree={len(coeffs) - 1}; "
            "use certify_local (a refutation there is a proof of non-membership)")
    return Verdict(False, None, note=note)


def _decide(u: Polynomial, r: int, family: str, excluded: int, caps: dict) -> Verdict:
    """The verdict on u at r outside the primes whose product is excluded,
    cited from family: the index, then the linear rule, then the label."""
    coeffs = u.coeffs
    orbit = None
    if -1 <= r <= 1:
        index = _listed_index(u, r)
    else:
        orbit = decide_nilpotency(u, r, **caps)
        if orbit.kind is _EXHAUSTED:
            note = f"orbit of {u} at {r} undecided at the resource caps"
            return Verdict(False, None, note=note, orbit=orbit)
        index = orbit.index
    m = _linear_member(u, r, excluded) if index is None and len(coeffs) == 2 else None
    citation, note = _label(family, coeffs, r, index, m)
    if index is not None:
        return Verdict(True, True, NILPOTENT, index, citation, note, orbit)
    if m is not None:
        return Verdict(True, True, STRICTLY_LOCAL, None, citation, note, orbit)
    return Verdict(True, False, None, None, citation, note, orbit)


def _listed_index(u: Polynomial, r: int) -> int | None:
    """The index of u at r in {1, -1, 0}, or None when its orbit leaves
    the catalog's list of orbits reaching 0: r, 2r, 3r, 0 cut at its first
    0 for r = +-1, and 0, a, 0 for r = 0.

    At r = 0, a = u(0) is the constant term, and u(a) = 0 is tested from
    the constant term up: t starts at 0 and becomes t/a + c for each
    coefficient c, lowest first. After k steps u(a) = a^k (t + a*R) for the
    rest R of the sum, so a t that a does not divide leaves u(a) nonzero,
    and u(a) = 0 exactly when t ends at 0. t stays within the coefficients'
    size, where u(a) itself can have degree times a's digits."""
    if r:
        x = r
        for index in (1, 2, 3):
            x = u.evaluate(x)
            if x == 0:
                return index
            if x != (index + 1) * r:
                return None
        return None
    coeffs = u.coeffs
    a = coeffs[0]
    if a == 0:
        return 1
    t = 0
    for c in coeffs:
        t, remainder = divmod(t, a)
        if remainder:
            return None
        t += c
    return 2 if t == 0 else None


# Two Thm2 annotations that the orbit at 0 overrides.
_THM21_NOTE = ("also matches Thm2.1 (annotated strictly-local); "
               "u(0)=0 forces nilpotency of index 1")
_THM22_NOTE = ("catalog annotates +-x+b strictly-local; the orbit at 0 "
               "returns to 0 at step 2")

# Thm3.1, 3.3 and 3.4 label the members of the linear rule
# (modular._linear_member): its m = 0 forces a = 1, m = 1 forces b = 1,
# m = 2 forces -2x-1, and m >= 3 has no solution at r=1.
#
# Rem3: for |a| >= 2 the linear rule is the power condition r*(a-1) =
#   b*(a^m - 1) for some m >= 1, with support(a) inside support(b): then
#   every iterate is b*(a^(n+m)-1)/(a-1), so every prime has a hitting time
#   by the multiplicative order argument, while no exact zero can occur.
#   Members outside the four Thm4/Cor4 shapes (possible once r has a proper
#   divisor with mixed exponent structure, e.g. 2x+2 at r=6) are cited as
#   Rem3. Exhaustive certificate sweeps back this completion.


def _label(family: str, coeffs: tuple[int, ...], r: int, index: int | None,
           m: int | None) -> tuple[str, str]:
    """The (citation, note) of u = sum coeffs[i] x^i at r in family's
    catalog: index is its nilpotency index or None, and m the linear rule's
    exponent when u is a linear member that is not nilpotent, else None."""
    b, a = coeffs[0], coeffs[-1]
    linear_map = len(coeffs) == 2
    if family in ("Thm1", "Rem4"):
        item = index or (4 if m is not None else None)
        return (f"{family}.{item}" if item else family), ""
    if family == "Thm2":
        if index == 1:
            return "Thm2.4", _THM21_NOTE if linear_map else ""
        if index == 2:  # -x+b is the only linear map of index 2 at 0
            return ("Thm2.2", _THM22_NOTE) if linear_map else ("Thm2.5", "")
        return ("Thm2" if m is None else "Thm2.2" if a == 1 else "Thm2.3"), ""
    if family == "Thm3":
        if index == 2:
            return "Thm3.5", ""
        if index is None and m is None:
            return "Thm3", ""
        return ("Thm3.1" if a == 1 else "Thm3.2" if index else
                "Thm3.3" if b == 1 else "Thm3.4"), ""
    if index is not None:
        return "Def.N", ""
    if not linear_map:
        if len(coeffs) == 1:
            return "Def.L", "constants are outside every membership set"
        return "Fact1", ""
    if m is None:
        return family, ""
    if a == 1:
        item = ".1" if b * r > 0 else ".2"
    else:
        item = ".3" if b == r else ".4" if (a, b) == (-2, -r) else None
    if item is None:
        return "Rem3", (f"member by the power condition r(a-1)=b(a^{m}-1) with "
                        "support(a) inside support(b); outside the four cataloged shapes")
    return family + item, ""
