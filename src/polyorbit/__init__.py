"""polyorbit: exact iteration orbits of integer polynomials, nilpotency
decisions, prime-by-prime local nilpotency certificates, exact
classification for the decidable cases, and a desk-scale verification
harness."""

from .classify import (
    NILPOTENT,
    STRICTLY_LOCAL,
    Verdict,
    classify,
)
from .modular import (
    LemmaPreconditionError,
    LocalReport,
    PrimeCertificate,
    PrimeSet,
    certify_local,
    factorize,
    first_refuting_prime,
    is_integer_power,
    is_prime,
    lemma1_witnesses,
    multiplicative_order,
    orbit_mod_p,
    prime_support,
    primes_up_to,
)
from .orbits import (
    BudgetExceededError,
    EscapeBound,
    OrbitKind,
    OrbitOutcome,
    UndecidedError,
    decide_nilpotency,
    escape_bound,
    iterate_linear_closed,
    iterate_value,
    nilpotency_index,
)
from .polynomials import (
    Polynomial,
    PolynomialSyntaxError,
    ReductionError,
    linear,
    parse_poly,
)
from .trap import (
    TrapPoint,
    trap_first_hits,
    trap_fixed_points,
    trap_step,
)
from .verify import (
    LocalStatusEntry,
    SearchReport,
    SearchSpace,
    explore_LN_of_u,
    explore_N_of_u,
    generate_list_members,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "EscapeBound",
    "LemmaPreconditionError",
    "LocalReport",
    "LocalStatusEntry",
    "NILPOTENT",
    "OrbitKind",
    "OrbitOutcome",
    "Polynomial",
    "PolynomialSyntaxError",
    "PrimeCertificate",
    "PrimeSet",
    "ReductionError",
    "STRICTLY_LOCAL",
    "SearchReport",
    "SearchSpace",
    "TrapPoint",
    "UndecidedError",
    "Verdict",
    "certify_local",
    "classify",
    "decide_nilpotency",
    "escape_bound",
    "explore_LN_of_u",
    "explore_N_of_u",
    "factorize",
    "first_refuting_prime",
    "generate_list_members",
    "is_integer_power",
    "is_prime",
    "iterate_linear_closed",
    "iterate_value",
    "lemma1_witnesses",
    "linear",
    "multiplicative_order",
    "nilpotency_index",
    "orbit_mod_p",
    "parse_poly",
    "prime_support",
    "primes_up_to",
    "trap_first_hits",
    "trap_fixed_points",
    "trap_step",
    "verify_theorem",
]
