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
3. The label. _label names the catalog item of the outcome:

* Thm1.1-4   all of L at r=1, A=empty (any degree).
* Rem4.1-4   the r=-1 mirror of Thm1 under negate-conjugation.
* Thm2.1-5   all of L at r=0, A=empty (any degree).
* Thm3.1-5   all linear members of L at r=1 for an arbitrary finite A.
* Thm4.1-4   linear strictly-local members at r >= 2, A=empty.
* Rem3       linear members at |r| >= 2 outside the four Thm4/Cor4 shapes,
             by the linear rule (see _label).
* Cor4.1-4   the r <= -2 mirror of Thm4 under negate-conjugation.
* Fact1      degree >= 2 and non-nilpotent at r implies non-membership.
* Def.N      nilpotent at r (orbit reaches 0), hence trivially a member.
* Def.L      degree-0 inputs: membership requires degree >= 1.

Everything else honestly returns decidable=False; certify_local can still
hunt for a refuting prime, and a refutation is a proof of non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .modular import PrimeSet, _as_prime_set, _linear_member
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

# Negate-conjugation u(x) -> -u(-x) maps the orbit of u at r onto the
# negated orbit at -r, so each of these families has a mirror family.
_MIRROR_FAMILIES = {"Thm1": "Rem4", "Thm4": "Cor4", "Cor4": "Thm4"}


def mirror_item(citation: str) -> str:
    """The catalog id of citation's negate-conjugate mirror: Thm1.k at r=1
    mirrors to Rem4.k at r=-1, and Thm4.k at r and Cor4.k at -r mirror
    each other. Any other id is left as it is."""
    family, dot, item = citation.partition(".")
    return _MIRROR_FAMILIES.get(family, family) + dot + item


# The item ids of each family that generate_list_members can enumerate.
CATALOG_FAMILIES = {
    family: tuple(f"{family}.{i}" for i in range(1, size + 1))
    for family, size in
    (("Thm1", 4), ("Thm2", 5), ("Thm3", 5), ("Thm4", 4), ("Cor4", 4))
}


# The family whose catalog covers each special r with empty A; at every
# other r with empty A it is Thm4 (r >= 2) or Cor4 (r <= -2).
_SPECIAL_FAMILIES = {1: "Thm1", -1: "Rem4", 0: "Thm2"}


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

# The catalog items that _label assigns, family by family.
#
# Thm1 (r=1, A empty, any degree): (1) (x-1)p(x), p != 0, nilpotent index
#   1; (2) -2x+4 + p(x)(x-1)(x-2), index 2; (3) -2x^2+7x-3 +
#   p(x)(x-1)(x-2)(x-3), index 3; (4) x+1, strictly local. Rem4 is its
#   mirror at r=-1.
# Thm2 (r=0, A empty, any degree): (1) ax; (2) x+b and -x+b, b != 0;
#   (3) ax+b with nonempty prime support of a contained in that of b;
#   (4) x*p(x), nilpotent index 1; (5) (x-a)p(x) with a != 0 and p(0) = -1,
#   nilpotent index 2. Two annotations disagree with the orbit itself and
#   the verdict follows the orbit, with a note: every multiple of x (item 1
#   included) reaches 0 at the first step, and -x+b reaches 0 at the second.
# Thm3 (linear u at r=1 outside a nonempty finite prime set A): (1) x+b
#   with the prime support of b inside A (nilpotent index 1 exactly for
#   b=-1); (2) a(x-1), index 1; (3) ax+1 with |a| >= 2 and support(a)
#   inside A; (4) -2x-1, a member precisely when 2 is in A; (5) -2x+4,
#   index 2. Everything else is strictly local. Items (1), (3) and (4) label
#   the members of the linear rule (modular._linear_member): its m = 0
#   forces a = 1, m = 1 forces b = 1, m = 2 forces -2x-1, and m >= 3 has no
#   solution at r=1.
# Thm4 (linear strictly-local members at r >= 2, A empty), for r with
#   factorization q1^a1...qk^ak: (1) x+b, b > 0 supported on the primes of
#   r; (2) x-b, b > 0 supported on the primes of r with some exponent
#   exceeding r's; (3) ax+r with |a| >= 2 supported on the primes of r;
#   (4) -2x-r, r even.
# Cor4 (r <= -2) is the negate-conjugate of Thm4, read directly: the rule
#   and each shape are unchanged when u and r are both mirrored, so .1 is
#   x+b with b of the sign of r, .2 the other sign, .3 is b = r and .4 is
#   (a, b) = (-2, -r).
# Rem3: for |a| >= 2 the linear rule is the power condition
#   r*(a-1) = b*(a^m - 1) for some m >= 1, with support(a) inside
#   support(b) (then every iterate is b*(a^(n+m)-1)/(a-1), so every prime
#   has a hitting time by the multiplicative order argument, while no exact
#   zero can occur). Members outside the four Thm4/Cor4 shapes (possible
#   once r has a proper divisor with mixed exponent structure, e.g. 2x+2 at
#   r=6) are cited as Rem3. Exhaustive certificate sweeps back this
#   completion.


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
