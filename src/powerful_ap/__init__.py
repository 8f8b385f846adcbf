"""Arithmetic progressions of powerful numbers.

A powerful number is a positive integer n with p^2 | n for every prime
p | n; equivalently n = a^2 * b^3 with b squarefree.  This package
constructs explicit k-term arithmetic progressions of such numbers,
searches exhaustively for progressions below a bound, and verifies the
gcd/radical/valuation structure that every 3-term progression carries.

The pieces:

* arith: budgeted factoring, primality and valuations; is_powerful and the
  a^2 b^3 decomposition are read off one factorization.
* pell: pell_solution(k), the (X, Y) of (1 + sqrt(2))^k = X + Y sqrt(2),
  which solves X^2 - 2Y^2 = (-1)^k and drives the constructions.
* constructions: the closed-form 3/4/5-term families, the inductive
  extension step to arbitrary k, the growth constants C_k, and
  witness_from_terms, which turns bare terms into a checked witness.
* search: enumeration of all powerful numbers up to a limit and
  windowed AP search over the table.
* abcver: analyze_triple, the battery of identity, gcd-consistency,
  radical and per-prime valuation checks, which also reports the abc
  quality of the induced triple.
* cli: `powerful-ap construct | search | verify | report`.
"""

from .arith import (
    DEFAULT_RHO_BUDGET,
    Factorization,
    PowerfulDecomp,
    SquarefreeDecomp,
    decompose_powerful,
    decompose_square_times_squarefree,
    factorize,
    integer_nth_root,
    is_powerful,
    is_prime,
    is_squarefree,
    valuation,
)
from .abcver import (
    PrimeCheck,
    TripleAnalysis,
    analyze_triple,
    ap_identity_check,
    compute_D,
    radical_inequality_check,
    reduce_triple,
)
from .constructions import (
    APWitness,
    ck_constants,
    default_theta,
    extend_ap,
    extension_exponent,
    five_ap,
    four_ap,
    long_ap,
    pell_3ap,
    ratio_bound_holds,
    squares_3ap,
    theta_ratio,
    validate_witness,
    witness_from_terms,
)
from .errors import (
    BudgetExceeded,
    CapacityExceeded,
    ConsistencyFailure,
    InvalidInput,
    InvalidWitness,
    NotPowerful,
    PowerfulAPError,
)
from .pell import pell_solution
from .search import (
    APRecord,
    PowerfulTable,
    consecutive_check,
    enumerate_powerful,
    find_kaps,
    record_min_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "APRecord",
    "APWitness",
    "BudgetExceeded",
    "CapacityExceeded",
    "ConsistencyFailure",
    "DEFAULT_RHO_BUDGET",
    "Factorization",
    "InvalidInput",
    "InvalidWitness",
    "NotPowerful",
    "PowerfulAPError",
    "PowerfulDecomp",
    "PowerfulTable",
    "PrimeCheck",
    "SquarefreeDecomp",
    "TripleAnalysis",
    "analyze_triple",
    "ap_identity_check",
    "ck_constants",
    "compute_D",
    "consecutive_check",
    "decompose_powerful",
    "decompose_square_times_squarefree",
    "default_theta",
    "enumerate_powerful",
    "extend_ap",
    "extension_exponent",
    "factorize",
    "find_kaps",
    "five_ap",
    "four_ap",
    "integer_nth_root",
    "is_powerful",
    "is_prime",
    "is_squarefree",
    "long_ap",
    "pell_3ap",
    "pell_solution",
    "radical_inequality_check",
    "ratio_bound_holds",
    "record_min_ratio",
    "reduce_triple",
    "squares_3ap",
    "theta_ratio",
    "validate_witness",
    "valuation",
    "witness_from_terms",
]
