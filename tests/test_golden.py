"""Golden digests: SHA-256 of outputs that a change to speed alone must
leave byte-identical.

Each digest covers a canonical JSON rendering (sorted keys, wall times
dropped). The digests were recorded from the code before the closed-form
residue answers, the certificate-free residue walk and the one-evaluation
Thm1 check landed, the orbit and verdict digests before the inline
orbit loop, the trap digests before the first hits became a view, and
the explore and capped or excluded-prime box digests before the orbit
outcome became a tuple, and the linear-grid digest before classify took
one decision path, and the members digest before the member generator
read Cor4 from Thm4's shapes, and the large-prime trap digest before
the first hits became strided slices and the fixed points a row solve,
and the coverage members digest before the member generator read the
catalog as one table, and the lemma1 edge digest before the witness
search stopped computing each multiplicative order in full; a change that
moves one of them changes an answer,
not only how fast it comes.

To record them again after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and paste what it prints.
"""

import contextlib
import hashlib
import io
import json
import random
from itertools import product

import pytest

from polyorbit import (
    Polynomial,
    PrimeSet,
    SearchSpace,
    certify_local,
    classify,
    decide_nilpotency,
    explore_LN_of_u,
    first_refuting_prime,
    generate_list_members,
    lemma1_witnesses,
    parse_poly,
    primes_up_to,
    trap_first_hits,
    trap_fixed_points,
    verify_theorem,
)
from polyorbit.classify import CATALOG_FAMILIES
from polyorbit.cli import main
from polyorbit.modular import LemmaPreconditionError

# The exhaustive-sweep boxes: (degree, coeff_bound, prime_bound, r).
BOXES = [(3, 2, 200, r) for r in (-1, 0, 1)] + [(1, 9, 500, r) for r in range(2, 11)]

BOX_DIGESTS = {
    (3, 2, 200, -1): "a791a852fb3240ad8aff5f00044795ba2c1bf686c5e1c857adc0be53544d2fba",
    (3, 2, 200, 0): "04cd08a5277ab73b4dece64d0af9612b749136d1ab3f4f8c44b8732fefe267af",
    (3, 2, 200, 1): "43ac033af2e0901a42ade5ac41eacec39f3f40054dd8208f3c4683c0b7c9a6ec",
    (1, 9, 500, 2): "5648a6753870f7cccae95b353658dd221312a400b8c9620b9ea67231fb8f2e63",
    (1, 9, 500, 3): "d7c637865d23a54c71ff3fc20bfe115c967379f0dd872572d836238472291668",
    (1, 9, 500, 4): "18ff0e1bd023a07cabec29dcead7f6b3b34cef7c2ddab51a423fedf4fef46893",
    (1, 9, 500, 5): "92a2a17e94e93409038f12f721a6a58d2d331029f7265f0459b446f61034102d",
    (1, 9, 500, 6): "0fe3f7c92ecc220de1433f70bb0fd43a5d55cb1b16d9be2333609194f8e531ff",
    (1, 9, 500, 7): "e85ae6dbbc4fac997db43060025d02cc8c722e41974a1cf23b5c6f66291a3ec6",
    (1, 9, 500, 8): "b2746bb389e80ec0752d283a7c10c89182aa9ade9510fa9781dbef2a1b37be9e",
    (1, 9, 500, 9): "38ef9250d65ee0c6f29f487e2231e203c29c0809cb69e60d2a251b04dc64b769",
    (1, 9, 500, 10): "ec840ba2925038f5b0654002545c18d931b1ec9cb36eab64eebf3b123f931cb5",
}
CERTIFY_DIGEST = "ac17c7053631cfaa68b39d66eb0d7c8ace33a8fac0e14a1e43fcef956a10911d"
LEMMA1_DIGEST = "c1a208a9342cb1ba4bbe8ab988703b9b34aba30bf9f40ebe7856f6523a7e4d04"
LEMMA1_EDGE_DIGEST = "730da04a65586e764ca30c567ca248bb0b82062e9eacd7f059a51fc95beeff34"
REFUTING_DIGEST = "9d621cc2b3caf398d7a2d551c2ce8db8273a7c544c39fc25bea5acee5f51d8bd"
ORBIT_DIGEST = "573685e6edd25b8befc884eef6e56735dcdd3fd163138fb464fd55cd628b52aa"
VERDICT_DIGEST = "ce424d607df6a30b765739a83e66535016e61456c08427cf1754582e660a9e4c"
TRAP_HITS_DIGEST = "cab5e37c13de0d656cf2b1988506e81eedcabe9f4f52a0f9329837af30bce35c"
TRAP_COMMAND_DIGEST = "4b8d3901b2eca48d97ea980ebdfabc5ea86d70003c8b477fd4832b3a6b895401"
TRAP_LARGE_DIGEST = "de80aa36397b4884eccf70124f52bb48741619da692ecf44bab71fe0076292a1"
EXPLORE_LN_DIGEST = "f350be5d9e9625cce83d5e88936236dea0e246dac686fcaf7ae06b71bae1aa8e"
EXCLUDED_BOX_DIGEST = "51be56643715a1dd2573e8f6e34d4b98861a0bdb9db6a2d7fe56a8aa20256e58"
CAPPED_BOX_DIGEST = "9fbc6218a7dd897d4330ab2c68221044e1eb440c4101a44520eecd12e68d5135"
LINEAR_GRID_DIGEST = "323246024b16b2def3d46212ef5e626fdf26fadd30bdf992762439b2214a3a63"
MEMBERS_DIGEST = "c67e2d60e6f8c82ed5b72e41e12f6ff3af835a6ea42647eb90843b42520e8183"
COVERAGE_MEMBERS_DIGEST = "b62c7d21b149dccbb581d922ed623a6ba7144d7e759ce8281ddde82b0e227e9b"

_EXCLUDED = ((), (2,), (3,), (2, 3), (3, 5), (2, 3, 5, 7))


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _box_doc(space: SearchSpace, **caps) -> dict:
    doc = verify_theorem(space, **caps).to_dict()
    del doc["wall_time_s"]
    return doc


def box_digest(degree: int, coeff_bound: int, prime_bound: int, r: int) -> str:
    return _digest(_box_doc(SearchSpace(degree, coeff_bound, r, prime_bound=prime_bound)))


def excluded_box_digest() -> str:
    """The linear box |c| <= 9 at r = 1 outside A = {2, 3}, primes to 200."""
    return _digest(_box_doc(SearchSpace(1, 9, 1, PrimeSet([2, 3]), prime_bound=200)))


def capped_box_digest() -> str:
    """The quadratic boxes |c| <= 2 at r in {-1, 0, 1} under max_steps=3,
    where some orbits end EXHAUSTED and are flagged for review."""
    return _digest([_box_doc(SearchSpace(2, 2, r, prime_bound=100), max_steps=3)
                    for r in (-1, 0, 1)])


_EXPLORE_MAPS = ("2x+6", "x+3", "-x+4", "3x-2", "x-1", "x^2-2", "x^2+1",
                 "-2x^2+7x-3", "x^3+x+1", "2x^2-x-1")


def explore_digest() -> str:
    """explore_LN_of_u on linear and nonlinear maps, r_bound 12, primes to 200."""
    return _digest([[text, [e.to_dict() for e in explore_LN_of_u(parse_poly(text), 12, 200)]]
                    for text in _EXPLORE_MAPS])


def _seeded_map(rng: random.Random, max_degree: int, size: int) -> Polynomial:
    degree = rng.randint(0, max_degree)
    return Polynomial(rng.randint(-size, size) for _ in range(degree + 1))


def certify_digest() -> str:
    """certify_local on 400 seeded maps of degree <= 3 (constants and the
    zero map included) and 200 seeded linear maps, at six excluded sets."""
    rng = random.Random(20261019)
    rows = []
    for i in range(600):
        u = _seeded_map(rng, 3, 9) if i < 400 else _seeded_map(rng, 1, 30)
        r = rng.randint(-12, 12)
        A = rng.choice(_EXCLUDED)
        bound = rng.choice((2, 50, 300, 1000))
        report = certify_local(u, r, A, bound)
        certs = [[c.p, c.m_p, None if c.cycle is None else [c.cycle[0], list(c.cycle[1])]]
                 for c in report.certificates]
        rows.append([list(u.coeffs), r, list(A), bound, report.refuted_at, certs])
    return _digest(rows)


def lemma1_digest() -> str:
    """lemma1_witnesses on 300 seeded (alpha, beta, gamma); a triple that
    fails the search's hypothesis is recorded as refused."""
    rng = random.Random(20261020)
    rows = []
    for _ in range(300):
        alpha = rng.choice((2, 3, 5, 6, 7, 10, -2, -3, -5))
        beta = rng.choice([k for k in range(-15, 16) if k])
        gamma = rng.choice([k for k in range(-15, 16) if k])
        bound = rng.choice((2, 100, 1000, 3000))
        try:
            found = lemma1_witnesses(alpha, beta, gamma, bound)
        except LemmaPreconditionError:
            found = "refused"
        rows.append([alpha, beta, gamma, bound, found])
    return _digest(rows)


def lemma1_edge_digest() -> str:
    """lemma1_witnesses where LEMMA1_DIGEST does not reach: alpha = +-1,
    alpha with 4|alpha| above the bound (on both sides of it at 3000), and
    seeded triples at bounds 10^4 and 10^5, where each residue class mod
    4|alpha| recurs many times; a refused triple is recorded as refused."""
    cases = [(alpha, beta, gamma, 1000) for alpha in (1, -1)
             for beta, gamma in product((-6, -2, -1, 1, 2, 3, 5), repeat=2)]
    cases += [(alpha, beta, gamma, bound)
              for alpha in (10**9 + 7, -2**40, 750, -750, 751, -751)
              for beta, gamma in ((3, 5), (-1, 2), (7, -11))
              for bound in (2, 100, 3000)]
    rng = random.Random(20261028)
    for bound, count in ((10**4, 30), (10**5, 6)):
        for _ in range(count):
            alpha = rng.choice((2, 3, 4, 5, 6, 7, 9, 10, 12, 30, -2, -3, -6, -7, -30))
            beta = rng.choice([k for k in range(-30, 31) if k])
            gamma = rng.choice([k for k in range(-30, 31) if k])
            cases.append((alpha, beta, gamma, bound))
    rows = []
    for alpha, beta, gamma, bound in cases:
        try:
            found = lemma1_witnesses(alpha, beta, gamma, bound)
        except LemmaPreconditionError:
            found = "refused"
        rows.append([alpha, beta, gamma, bound, found])
    return _digest(rows)


def refuting_digest() -> str:
    """first_refuting_prime over every ax+b with |a|, |b| <= 6 at every
    r in [-6, 6], and over 1500 seeded maps of degree <= 3."""
    rows = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            for r in range(-6, 7):
                A = _EXCLUDED[(a + b + r) % len(_EXCLUDED)]
                rows.append(first_refuting_prime(Polynomial((b, a)), r, A, 400))
    rng = random.Random(20261021)
    for _ in range(1500):
        u = _seeded_map(rng, 3, 12)
        r = rng.randint(-15, 15)
        A = rng.choice(_EXCLUDED)
        bound = rng.choice((2, 3, 60, 400))
        rows.append([list(u.coeffs), r, list(A), bound,
                     first_refuting_prime(u, r, A, bound)])
    return _digest(rows)


# The orbit and verdict grids: every nonzero map of degree <= 3 with
# |c| <= 2, every r in [-6, 6], at the default caps and at caps small enough
# that some decisions end EXHAUSTED.
_GRID_MAPS = [Polynomial(vec) for vec in product(range(-2, 3), repeat=4) if any(vec)]
_GRID_CAPS = ({},) + tuple({"max_steps": s, "max_bits": b} for s in (1, 3) for b in (1, 4))


def _outcome_row(outcome) -> list | None:
    if outcome is None:
        return None
    witness = outcome.cycle_witness
    return [outcome.kind.value, outcome.steps_used, outcome.index,
            None if witness is None else [witness[0], list(witness[1])],
            None if outcome.escape_data is None else list(outcome.escape_data)]


def orbit_digest() -> str:
    """Every OrbitOutcome field of decide_nilpotency over the grid."""
    return _digest([
        [list(u.coeffs), r, caps, _outcome_row(decide_nilpotency(u, r, **caps))]
        for caps in _GRID_CAPS for u in _GRID_MAPS for r in range(-6, 7)
    ])


def verdict_digest() -> str:
    """Every Verdict field of classify, orbit included, over the grid at
    A in {}, {2} and {3}."""
    rows = []
    for A in ((), (2,), (3,)):
        for caps in _GRID_CAPS:
            for u in _GRID_MAPS:
                for r in range(-6, 7):
                    v = classify(u, r, A, **caps)
                    rows.append([list(u.coeffs), r, list(A), caps, v.decidable,
                                 v.member, v.subclass, v.index, v.citation, v.note,
                                 _outcome_row(v.orbit)])
    return _digest(rows)


def linear_grid_digest() -> str:
    """Every Verdict field of classify over every ax+b with a != 0 and
    a, b, r in [-12, 12], at the six excluded sets."""
    rows = []
    for A in _EXCLUDED:
        for a in range(-12, 13):
            if a == 0:
                continue
            for b in range(-12, 13):
                u = Polynomial((b, a))
                for r in range(-12, 13):
                    v = classify(u, r, A)
                    rows.append([a, b, r, list(A), v.decidable, v.member, v.subclass,
                                 v.index, v.citation, v.note, _outcome_row(v.orbit)])
    return _digest(rows)


# The member grid: every catalog family and item except the Thm2 family and
# Thm2.5, plus two unknown ids. A varies for Thm3 ids only, r for Thm4 and
# Cor4 ids only; the other parameters vary for every id.
_MEMBER_IDS = tuple(ident for family, items in CATALOG_FAMILIES.items()
                    for ident in (family, *items)
                    if ident not in ("Thm2", "Thm2.5")) + ("Thm9", "Thm4.9")
_MEMBER_AS = (None, (), (2,), (3,), (2, 3), (2, 5, 7))
_MEMBER_RS = (None, *range(-25, 26))


def members_digest() -> str:
    """generate_list_members over the member grid: exponent_sum 0-4 and
    coeff_bound 0, 1, 3 and 5 for every id, each ValueError message
    recorded as its row's result."""
    rows = []
    for ident in _MEMBER_IDS:
        family = ident.partition(".")[0]
        As = _MEMBER_AS if family == "Thm3" else (None,)
        rs = _MEMBER_RS if family in ("Thm4", "Cor4") else (None,)
        for exponent_sum, coeff_bound, A, r in product(range(5), (0, 1, 3, 5), As, rs):
            try:
                found = [list(u.coeffs) for u in generate_list_members(
                    ident, A=A, r=r, exponent_sum=exponent_sum, coeff_bound=coeff_bound)]
            except ValueError as exc:
                found = str(exc)
            rows.append([ident, exponent_sum, coeff_bound, A, r, found])
    return _digest(rows)


# The coverage grid: every catalog family and item, plus three unknown ids,
# at each r its family covers (the special r or None, every r in -25..25 for
# Thm4 and Cor4) and at an empty A (None or PrimeSet()), or the member
# grid's A for Thm3.
_COVERAGE_IDS = tuple(ident for family, items in CATALOG_FAMILIES.items()
                      for ident in (family, *items)) + ("Thm9", "Thm4.9", "Rem4.1")
_COVERAGE_RS = {"Thm1": (None, 1), "Thm2": (None, 0), "Thm3": (None, 1),
                "Thm4": _MEMBER_RS, "Cor4": _MEMBER_RS}


def coverage_members_digest() -> str:
    """generate_list_members over the coverage grid: exponent_sum 0-4 and
    coeff_bound 0, 1, 3 and 5 for every id, each ValueError message
    recorded as its row's result."""
    rows = []
    for ident in _COVERAGE_IDS:
        family = ident.partition(".")[0]
        As = _MEMBER_AS if family == "Thm3" else (None, PrimeSet())
        rs = _COVERAGE_RS.get(family, (None,))
        for exponent_sum, coeff_bound, A, r in product(range(5), (0, 1, 3, 5), As, rs):
            try:
                found = [list(u.coeffs) for u in generate_list_members(
                    ident, A=A, r=r, exponent_sum=exponent_sum, coeff_bound=coeff_bound)]
            except ValueError as exc:
                found = str(exc)
            rows.append([ident, exponent_sum, coeff_bound,
                         None if A is None else list(A), r, found])
    return _digest(rows)


def trap_hits_digest() -> str:
    """Every (point, first hit) pair of trap_first_hits, in its iteration
    order, for every prime up to 101."""
    return _digest([[p, list(trap_first_hits(p).items())] for p in primes_up_to(101)])


def trap_large_digest() -> str:
    """Every first hit, in iteration order, and every fixed point of the
    trap map at four primes past the exhaustive walk's reach: 257 is the
    first prime above one byte, 997 the largest prime under the cap."""
    return _digest([[p, [n for _, n in trap_first_hits(p).items()],
                     [(pt.x, pt.y) for pt in trap_fixed_points(p)]]
                    for p in (211, 257, 499, 997)])


def trap_command_digest() -> str:
    """The `trap --primes 101 --output json` document without its timings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["trap", "--primes", "101", "--output", "json"])
    doc = json.loads(out.getvalue())
    del doc["timings"]
    return _digest([code, doc])


@pytest.mark.parametrize("box", BOXES, ids=[f"deg{d}-c{c}-p{p}-r{r}" for d, c, p, r in BOXES])
def test_exhaustive_sweep_box_reports(box):
    assert box_digest(*box) == BOX_DIGESTS[box]


def test_certify_local_certificates():
    assert certify_digest() == CERTIFY_DIGEST


def test_lemma1_witnesses():
    assert lemma1_digest() == LEMMA1_DIGEST


def test_lemma1_witnesses_at_the_edges():
    assert lemma1_edge_digest() == LEMMA1_EDGE_DIGEST


def test_first_refuting_prime_grid():
    assert refuting_digest() == REFUTING_DIGEST


def test_decide_nilpotency_outcomes():
    assert orbit_digest() == ORBIT_DIGEST


def test_classify_verdicts():
    assert verdict_digest() == VERDICT_DIGEST


def test_classify_linear_grid():
    assert linear_grid_digest() == LINEAR_GRID_DIGEST


def test_generated_members():
    assert members_digest() == MEMBERS_DIGEST


def test_generated_members_in_coverage():
    assert coverage_members_digest() == COVERAGE_MEMBERS_DIGEST


def test_trap_first_hits_items():
    assert trap_hits_digest() == TRAP_HITS_DIGEST


def test_trap_first_hits_and_fixed_points_at_large_primes():
    assert trap_large_digest() == TRAP_LARGE_DIGEST


def test_trap_command_document():
    assert trap_command_digest() == TRAP_COMMAND_DIGEST


def test_explore_LN_entries():
    assert explore_digest() == EXPLORE_LN_DIGEST


def test_box_report_outside_excluded_primes():
    assert excluded_box_digest() == EXCLUDED_BOX_DIGEST


def test_box_reports_under_a_step_cap():
    assert capped_box_digest() == CAPPED_BOX_DIGEST


if __name__ == "__main__":
    print("BOX_DIGESTS = {")
    for box in BOXES:
        print(f"    {box}: \"{box_digest(*box)}\",")
    print("}")
    print(f"CERTIFY_DIGEST = \"{certify_digest()}\"")
    print(f"LEMMA1_DIGEST = \"{lemma1_digest()}\"")
    print(f"LEMMA1_EDGE_DIGEST = \"{lemma1_edge_digest()}\"")
    print(f"REFUTING_DIGEST = \"{refuting_digest()}\"")
    print(f"ORBIT_DIGEST = \"{orbit_digest()}\"")
    print(f"VERDICT_DIGEST = \"{verdict_digest()}\"")
    print(f"LINEAR_GRID_DIGEST = \"{linear_grid_digest()}\"")
    print(f"MEMBERS_DIGEST = \"{members_digest()}\"")
    print(f"COVERAGE_MEMBERS_DIGEST = \"{coverage_members_digest()}\"")
    print(f"TRAP_HITS_DIGEST = \"{trap_hits_digest()}\"")
    print(f"TRAP_COMMAND_DIGEST = \"{trap_command_digest()}\"")
    print(f"TRAP_LARGE_DIGEST = \"{trap_large_digest()}\"")
    print(f"EXPLORE_LN_DIGEST = \"{explore_digest()}\"")
    print(f"EXCLUDED_BOX_DIGEST = \"{excluded_box_digest()}\"")
    print(f"CAPPED_BOX_DIGEST = \"{capped_box_digest()}\"")
