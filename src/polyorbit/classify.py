"""Exact, catalog-backed classification of (weakly) locally nilpotent
polynomials for the decidable (r, A) combinations.

The decidable cases and their catalog citations:

* Thm1.1-4   all of L at r=1, A=empty (any degree).
* Rem4.1-4   the r=-1 mirror of Thm1 under negate-conjugation.
* Thm2.1-5   all of L at r=0, A=empty (any degree).
* Thm3.1-5   all linear members of L at r=1 for an arbitrary finite A.
* Thm4.1-4   linear strictly-local members at r >= 2, A=empty.
* Rem3       strictly-local members at |r| >= 2 outside the four Thm4
             shapes, by the geometric power condition (see
             classify_Sr_linear); the cataloged list alone is incomplete.
* Cor4.1-4   the r <= -2 mirror of Thm4 under negate-conjugation.
* Fact1      degree >= 2 and non-nilpotent at r implies non-membership.
* Def.N      nilpotent at r (orbit reaches 0), hence trivially a member.
* Def.L      degree-0 inputs: membership requires degree >= 1.

Everything else honestly returns decidable=False; certify_local can still
hunt for a refuting prime, and a refutation is a proof of non-membership.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .modular import (
    PrimeSet,
    _as_prime_set,
    factorize,
    is_integer_power,
    prime_support,
)
from .orbits import OrbitKind, OrbitOutcome, decide_nilpotency
from .polynomials import Polynomial, linear

NILPOTENT = "nilpotent"
STRICTLY_LOCAL = "strictly-local"


@dataclass(frozen=True)
class Verdict:
    """Classification result.

    decidable=False means no claim is made (member is None). Otherwise
    member says whether u lies in the target membership set, subclass
    splits members into nilpotent (with the exact index) versus strictly
    local (locally nilpotent, never exactly 0), and citation names the
    catalog item that settled it.
    """

    decidable: bool
    member: bool | None
    subclass: str | None = None
    index: int | None = None
    citation: str = ""
    note: str = ""

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
_X_PLUS_1 = linear(1, 1)

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
    _require_nonzero(u)
    for citation, index, base, modulus in THM1_SHAPES:
        # modulus = (x-1)...(x-index) is monic with distinct integer roots,
        # so it divides u - base exactly when u = base at each root.
        if all(u.evaluate(j) == base.evaluate(j) for j in range(1, index + 1)):
            return _nilpotent(index, citation)
    if u == _X_PLUS_1:
        return _strictly_local("Thm1.4")
    return _non_member("Thm1")


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
        if prime_support(a) <= prime_support(b):
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
    (5) -2x+4, index 2. Everything else is strictly local.
    """
    _require_nonzero(u)
    if u.degree != 1:
        raise ValueError("this classifier covers degree 1 only")
    A = _as_prime_set(A)
    allowed = set(A)
    a, b = u.lead, u.constant
    if a == 1 and b != 0 and prime_support(b) <= allowed:
        if b == -1:
            return _nilpotent(1, "Thm3.1")
        return _strictly_local("Thm3.1")
    if b == -a:
        return _nilpotent(1, "Thm3.2")
    if b == 1 and abs(a) >= 2 and prime_support(a) <= allowed:
        return _strictly_local("Thm3.3")
    if (a, b) == (-2, -1) and 2 in A:
        return _strictly_local("Thm3.4")
    if (a, b) == (-2, 4):
        return _nilpotent(2, "Thm3.5")
    return _non_member("Thm3")


def classify_Sr_linear(u: Polynomial, r: int) -> Verdict:
    """Strictly-local membership for linear u at |r| >= 2, A=empty.

    For r >= 2 with factorization q1^a1...qk^ak the catalog is: (1) x+b,
    b > 0 supported on the primes of r; (2) x-b, b > 0 supported on the
    primes of r with some exponent exceeding r's; (3) ax+r with |a| >= 2
    supported on the primes of r; (4) -2x-r, r even. For r <= -2 the
    catalog is the negate-conjugate of the positive one (Cor4.*).

    For |a| >= 2 the complete membership rule is the power condition

        r*(a-1) = b*(a^m - 1) for some m >= 1, with support(a) inside
        support(b)

    (then every iterate is b*(a^(n+m)-1)/(a-1), so every prime has a
    hitting time by the multiplicative order argument, while no exact zero
    can occur). Items (3) and (4) are its m=1 and (-2x-r) shapes; members
    outside the four cataloged shapes (possible once r has a proper
    divisor with mixed exponent structure, e.g. 2x+2 at r=6) are cited as
    Rem3. Exhaustive certificate sweeps back this completion.

    This is a structural test for the strictly-local catalog only; the
    dispatcher settles nilpotent membership before calling it.
    """
    _require_nonzero(u)
    if u.degree != 1:
        raise ValueError("this classifier covers degree 1 only")
    if abs(r) < 2:
        raise ValueError("this classifier covers |r| >= 2 only")
    if r < 0:
        mirror = classify_Sr_linear(u.negate_conjugate(), -r)
        return replace(mirror, citation=mirror_item(mirror.citation))
    r_fac = factorize(r)
    r_primes = set(r_fac)
    a, b = u.lead, u.constant
    if a == 1 and b != 0 and prime_support(b) <= r_primes:
        if b > 0:
            return _strictly_local("Thm4.1")
        b_fac = factorize(-b)
        if any(e > r_fac[q] for q, e in b_fac.items()):
            return _strictly_local("Thm4.2")
        return _non_member(
            "Thm4",
            f"nilpotent at {r} (index {r // -b}), hence not strictly local",
        )
    if abs(a) >= 2 and b != 0 and prime_support(a) <= prime_support(b):
        scaled = r * (a - 1) + b
        if scaled % b == 0:
            m = is_integer_power(a, scaled // b)
            if m is not None and m >= 1:
                if b == r:
                    return _strictly_local("Thm4.3")
                if (a, b) == (-2, -r):
                    return _strictly_local("Thm4.4")
                return _strictly_local(
                    "Rem3",
                    f"member by the power condition r(a-1)=b(a^{m}-1) with "
                    "support(a) inside support(b); outside the four "
                    "cataloged shapes",
                )
    return _non_member("Thm4")


def classify(u: Polynomial, r: int, A: "PrimeSet | None" = None, **caps) -> Verdict:
    """Dispatch to the exact classifier covering (r, A, degree), if any.

    Coverage: r in {1,-1,0} with empty A at any degree; r=1 with any A at
    degree 1; |r| >= 2 with empty A (nilpotency decided by the orbit
    engine first, under the decide_nilpotency caps given as keywords, then
    Fact1 for degree >= 2, the strictly-local catalog for degree 1).
    Everything else returns decidable=False.
    """
    return _classify_deciding(u, r, A, caps)[0]


def _classify_deciding(
    u: Polynomial, r: int, A: "PrimeSet | None", caps: dict
) -> tuple[Verdict, OrbitOutcome | None]:
    """classify's verdict, with the integer orbit outcome when the dispatch
    decided it (|r| >= 2 with empty A) and None otherwise, so that a caller
    needing both decides each orbit once."""
    _require_nonzero(u)
    A = _as_prime_set(A)
    if len(A) == 0:
        if r == 1:
            return classify_L1(u), None
        if r == -1:
            mirror = classify_L1(u.negate_conjugate())
            return replace(mirror, citation=mirror_item(mirror.citation)), None
        if r == 0:
            return classify_L0(u), None
        outcome = decide_nilpotency(u, r, **caps)
        if outcome.kind is OrbitKind.REACHED_ZERO:
            verdict = _nilpotent(outcome.index, "Def.N")
        elif outcome.kind is OrbitKind.EXHAUSTED:
            verdict = _undecidable(
                f"orbit of {u} at {r} undecided at the resource caps"
            )
        elif u.degree == 0:
            verdict = _non_member(
                "Def.L", "constants are outside every membership set"
            )
        elif u.degree >= 2:
            verdict = _non_member("Fact1")
        else:
            verdict = classify_Sr_linear(u, r)
        return verdict, outcome
    if r == 1 and u.degree == 1:
        return classify_L1A_linear(u, A), None
    return _undecidable(
        f"no exact classifier for r={r}, A={A}, degree={u.degree}; "
        "use certify_local (a refutation there is a proof of non-membership)"
    ), None
