"""Exact, catalog-backed classification of (weakly) locally nilpotent
polynomials for the decidable (r, A) combinations.

The decidable cases and their catalog citations:

* Thm1.1-4   all of L at r=1, A=empty (any degree).
* Rem4.1-4   the r=-1 mirror of Thm1 under negate-conjugation.
* Thm2.1-5   all of L at r=0, A=empty (any degree).
* Thm3.1-5   all linear members of L at r=1 for an arbitrary finite A.
* Thm4.1-4   linear strictly-local members at r >= 2, A=empty.
* Rem3       linear members at |r| >= 2 outside the four Thm4/Cor4 shapes,
             by the linear rule (see classify_Sr_linear).
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
from typing import Callable

from .modular import PrimeSet, _as_prime_set, _linear_exponent, _linear_member
from .orbits import (_EXHAUSTED, _REACHED_ZERO, OrbitOutcome, check_caps,
                     decide_nilpotency)
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


def _nilpotent(index: int, citation: str, note: str = "") -> Verdict:
    return Verdict(True, True, NILPOTENT, index, citation, note)


def _strictly_local(citation: str, note: str = "") -> Verdict:
    return Verdict(True, True, STRICTLY_LOCAL, None, citation, note)


def _non_member(citation: str, note: str = "") -> Verdict:
    return Verdict(True, False, None, None, citation, note)


def _undecidable(note: str) -> Verdict:
    return Verdict(False, None, None, None, "", note)


def _require_nonzero(u: Polynomial) -> None:
    if u.is_zero():
        raise ValueError("the zero polynomial is outside every membership set")


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


def classify_L1(u: Polynomial) -> Verdict:
    """Membership at r=1, A=empty, any degree.

    Catalog: (1) (x-1)p(x), p != 0, nilpotent index 1; (2) -2x+4 +
    p(x)(x-1)(x-2), index 2; (3) -2x^2+7x-3 + p(x)(x-1)(x-2)(x-3), index 3;
    (4) x+1, strictly local.
    """
    return _classify_L1(u, 1, lambda citation: citation)


# Each Thm1 modulus (x-1)...(x-index) is monic with distinct integer roots, so
# it divides u - base exactly when u = base at each: rows hold base's values.
_THM1_ROOT_VALUES = tuple(
    (citation, index, tuple(base.evaluate(j) for j in range(1, index + 1)))
    for citation, index, base, _ in THM1_SHAPES
)


def _classify_L1(u: Polynomial, s: int, cite: Callable[[str], str]) -> Verdict:
    """classify_L1's verdict on v(x) = s*u(s*x), citation mapped by cite:
    s = -1 gives the r=-1 mirror without building the negate-conjugate v.
    v is evaluated at 1, 2, 3 only as far as a shape needs it."""
    if not u.coeffs:
        _require_nonzero(u)
    values: list[int] = []  # v(1), v(2), ... as far as evaluated
    for citation, index, targets in _THM1_ROOT_VALUES:
        for j, target in enumerate(targets, 1):
            if len(values) < j:
                values.append(s * u.evaluate(s * j))
            if values[j - 1] != target:
                break
        else:
            return _nilpotent(index, cite(citation))
    if u.coeffs == (s, 1):  # v = x+1
        return _strictly_local(cite("Thm1.4"))
    return _non_member(cite("Thm1"))


def classify_L0(u: Polynomial) -> Verdict:
    """Membership at r=0, A=empty, any degree.

    Catalog: (1) ax; (2) x+b and -x+b, b != 0; (3) ax+b with nonempty
    prime support of a contained in that of b; (4) x*p(x), nilpotent index
    1; (5) (x-a)p(x) with a != 0 and p(0) = -1, nilpotent index 2.

    Two catalog annotations disagree with the orbit itself and the verdict
    follows the orbit, with a note: every multiple of x (item 1 included)
    reaches 0 at the first step, and -x+b reaches 0 at the second.
    """
    _require_nonzero(u)
    if u.constant == 0:
        note = ""
        if u.degree == 1:
            note = (
                "also matches Thm2.1 (annotated strictly-local); "
                "u(0)=0 forces nilpotency of index 1"
            )
        return _nilpotent(1, "Thm2.4", note)
    if u.degree == 1:
        a, b = u.lead, u.constant  # b != 0 here
        if a == 1:
            return _strictly_local("Thm2.2")
        if a == -1:
            return _nilpotent(
                2,
                "Thm2.2",
                "catalog annotates +-x+b strictly-local; the orbit at 0 "
                "returns to 0 at step 2",
            )
        if _linear_member(u, 0) is not None:
            return _strictly_local("Thm2.3")
        return _non_member("Thm2")
    # degree 0 or >= 2 with nonzero constant term: only item (5) remains.
    # u = (x-a)p(x) with p(0) = -1 holds exactly when a := u(0) is a root.
    root = u.constant
    if u.evaluate(root) == 0:
        return _nilpotent(2, "Thm2.5")
    return _non_member("Thm2")


def classify_L1A_linear(u: Polynomial, A: "PrimeSet | None") -> Verdict:
    """Linear membership at r=1 outside an arbitrary finite prime set A.

    Catalog: (1) x+b with the prime support of b inside A (nilpotent index
    1 exactly for b=-1); (2) a(x-1), index 1; (3) ax+1 with |a| >= 2 and
    support(a) inside A; (4) -2x-1, a member precisely when 2 is in A;
    (5) -2x+4, index 2. Everything else is strictly local. Items (1), (3)
    and (4) label the members of the linear rule (modular._linear_member):
    its m = 0 forces a = 1, m = 1 forces b = 1, m = 2 forces -2x-1, and
    m >= 3 has no solution at r=1.
    """
    _require_nonzero(u)
    if u.degree != 1:
        raise ValueError("this classifier covers degree 1 only")
    a, b = u.lead, u.constant
    if b == -a:
        return _nilpotent(1, "Thm3.1" if a == 1 else "Thm3.2")
    if (a, b) == (-2, 4):
        return _nilpotent(2, "Thm3.5")
    if _linear_member(u, 1, prod(_as_prime_set(A).primes)) is None:
        return _non_member("Thm3")
    return _strictly_local("Thm3.1" if a == 1 else "Thm3.3" if b == 1 else "Thm3.4")


def classify_Sr_linear(u: Polynomial, r: int) -> Verdict:
    """Strictly-local membership for linear u at |r| >= 2, A=empty.

    For r >= 2 with factorization q1^a1...qk^ak the catalog is: (1) x+b,
    b > 0 supported on the primes of r; (2) x-b, b > 0 supported on the
    primes of r with some exponent exceeding r's; (3) ax+r with |a| >= 2
    supported on the primes of r; (4) -2x-r, r even. For r <= -2 the
    catalog is the negate-conjugate of the positive one (Cor4.*), read
    directly: the rule and each shape are unchanged when u and r are both
    mirrored, so .1 is x+b with b of the sign of r, .2 the other sign, .3
    is b = r and .4 is (a, b) = (-2, -r).

    Membership is the linear rule (modular._linear_member). For |a| >= 2
    it is the power condition r*(a-1) = b*(a^m - 1) for some m >= 1, with
    support(a) inside support(b) (then every iterate is b*(a^(n+m)-1)/(a-1),
    so every prime has a hitting time by the multiplicative order argument,
    while no exact zero can occur). Members outside the four cataloged
    shapes (possible once r has a proper divisor with mixed exponent
    structure, e.g. 2x+2 at r=6) are cited as Rem3. Exhaustive certificate
    sweeps back this completion.

    This is a structural test for the strictly-local catalog only; the
    dispatcher settles nilpotent membership before calling it. Called
    directly on a map nilpotent at r, it answers a non-member of the
    strictly-local set with the note "nilpotent at r (index n)".
    """
    return _sr_linear(u, r, None)


def _linear_index(u: Polynomial, r: int) -> int | None:
    """The index of u = ax+b at r != 0 when its orbit reaches 0, else None.
    x+b steps by b; -x+b alternates r, b-r; for |a| >= 2 the n-th iterate
    is beta (a^(n+e) - 1)/(a-1) (_linear_exponent), zero at n = -e."""
    b, a = u.coeffs
    if a == 1:
        return r // -b if b * r < 0 and r % b == 0 else None
    if a == -1:
        return 1 if b == r else None
    e = _linear_exponent(u, r)
    return -e if e is not None and e < 0 else None


def _sr_linear(u: Polynomial, r: int, orbit: OrbitOutcome | None) -> Verdict:
    """classify_Sr_linear's verdict, carrying orbit, built once. A given
    orbit has already been found not to reach 0."""
    if not u.coeffs:
        _require_nonzero(u)
    if len(u.coeffs) != 2:
        raise ValueError("this classifier covers degree 1 only")
    if abs(r) < 2:
        raise ValueError("this classifier covers |r| >= 2 only")
    family = "Thm4" if r > 0 else "Cor4"
    b, a = u.coeffs
    index = None if orbit is not None else _linear_index(u, r)
    if index is not None:
        note = f"nilpotent at {r} (index {index}), hence not strictly local"
        return Verdict(True, False, None, None, family, note, orbit)
    m = _linear_member(u, r)
    if m is None:
        return Verdict(True, False, None, None, family, "", orbit)
    if a == 1:
        item = ".1" if b * r > 0 else ".2"
    else:
        item = ".3" if b == r else ".4" if (a, b) == (-2, -r) else None
    if item is None:
        note = (f"member by the power condition r(a-1)=b(a^{m}-1) with support(a) "
                "inside support(b); outside the four cataloged shapes")
        return Verdict(True, True, STRICTLY_LOCAL, None, "Rem3", note, orbit)
    return Verdict(True, True, STRICTLY_LOCAL, None, family + item, "", orbit)


def classify(u: Polynomial, r: int, A: "PrimeSet | None" = None, **caps) -> Verdict:
    """Dispatch to the exact classifier covering (r, A, degree), if any.

    Coverage: r in {1,-1,0} with empty A at any degree; r=1 with any A at
    degree 1; |r| >= 2 with empty A (nilpotency decided by the orbit
    engine first, under the decide_nilpotency caps given as keywords, then
    Fact1 for degree >= 2, the strictly-local catalog for degree 1). Each
    linear item labels the gcd rule modular._linear_member: nothing is
    factored. Everything else returns decidable=False. Caps below 1 are
    refused; no caps means the defaults, which need no check.
    """
    coeffs = u.coeffs
    if not coeffs:
        _require_nonzero(u)
    if caps:
        check_caps(**caps)
    A = _as_prime_set(A)
    if not A.primes:
        if r == 1:
            return classify_L1(u)
        if r == -1:
            return _classify_L1(u, -1, mirror_item)
        if r == 0:
            return classify_L0(u)
        outcome = decide_nilpotency(u, r, **caps)
        kind = outcome.kind
        if kind is _REACHED_ZERO:
            return Verdict(True, True, NILPOTENT, outcome.index, "Def.N", orbit=outcome)
        if kind is _EXHAUSTED:
            note = f"orbit of {u} at {r} undecided at the resource caps"
            return Verdict(False, None, note=note, orbit=outcome)
        degree = len(coeffs) - 1
        if degree == 0:
            note = "constants are outside every membership set"
            return Verdict(True, False, citation="Def.L", note=note, orbit=outcome)
        if degree >= 2:
            return Verdict(True, False, citation="Fact1", orbit=outcome)
        return _sr_linear(u, r, outcome)
    if r == 1 and len(coeffs) == 2:
        return classify_L1A_linear(u, A)
    return _undecidable(
        f"no exact classifier for r={r}, A={A}, degree={len(coeffs) - 1}; "
        "use certify_local (a refutation there is a proof of non-membership)"
    )
