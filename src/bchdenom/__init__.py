"""Exact coefficients of log(e^{A_1}...e^{A_K}) and their denominators.

The interesting object is the common denominator of the degree-n
coefficients: it equals n! * d_n for an explicit integer sequence d_n
built from base-p digit sums, and this package computes both sides of
that equality exactly and verifies everything that is checkable at small
degrees.
"""

from types import ModuleType as _ModuleType

from .bch import (
    CommonDenominatorError,
    CongruenceReport,
    DenominatorReport,
    GoldbergDegreeResult,
    TableEntry,
    check_corollary_prime,
    check_corollary_prime_plus_one,
    class_count,
    class_representatives,
    coefficient_value_table,
    degree_coefficients,
    degree_report,
    goldberg_check,
    numerator_over_common,
)
from .errors import BudgetError
from .freealgebra import (
    TruncatedSeries,
    Word,
    all_words,
    bch_coeff_word,
    bch_series,
    series_exp_generator,
    series_log1p,
    series_multiply,
)
from .numtheory import (
    PrimeFactorization,
    Dn_bruteforce,
    bernoulli_numbers,
    bernoulli_poly_denominator,
    common_denominator,
    compositions,
    compute_dn,
    constructive_partition,
    digit_sum,
    factorial_valuation,
    goldberg_denominator,
    hp_min,
    is_prime,
    multinomial_valuation,
    padic_expansion,
    padic_valuation,
    partitions,
    primes_below,
    squarefree_kernel,
)

__version__ = "0.1.0"

# every public name imported above, and not the submodules those imports bind
__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)
)
