"""Per-degree verification reports over the coefficients of H = log(e^A e^B).

A degree scan computes every coefficient of one homogeneous component,
reduces each to lowest terms, and compares the lcm of the denominators
against the closed-form common denominator n! * d_n.  On top of the scans
sit the congruence checks for prime and prime-plus-one degrees, the
refutation of the Bernoulli-quotient candidate denominator, and the
deduplicated value table for degree 11.

Scans are deterministic: words are visited in packed (lexicographic)
order, reductions are commutative, and witnesses are always the
lexicographically smallest word attaining the reported value, so parallel
and serial runs produce identical reports.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import numtheory
from .errors import BudgetError
from .freealgebra import (
    DEFAULT_TABLE_BUDGET,
    TruncatedSeries,
    Word,
    bch_coeff_word,
    bch_series,
)
from .numtheory import PrimeFactorization, common_denominator, compute_dn

#: Degrees above this require an explicit opt-in from the caller.
DEFAULT_SCAN_LIMIT = 14

SERIES_BACKEND = "series"
DP_BACKEND = "per-word-dp"
BOTH_BACKENDS = "both"

_BACKEND_ALIASES = {
    "series": SERIES_BACKEND,
    "per-word-dp": DP_BACKEND,
    "dp": DP_BACKEND,
    "both": BOTH_BACKENDS,
}


def canonical_backend(name: str) -> str:
    """The canonical name of a backend given by its name or an alias."""
    try:
        return _BACKEND_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None


class CommonDenominatorError(RuntimeError):
    """A reduced coefficient denominator failed to divide n! * d_n.

    This cannot happen for correct inputs; it would falsify the
    divisibility theorem the package exists to check, so it is raised as a
    fatal internal error rather than reported as a result.
    """


@dataclass(frozen=True)
class DenominatorReport:
    """Outcome of one full degree scan.

    ``witness_max`` is the lexicographically smallest word whose
    denominator is maximal; when the lcm is attained by a single word
    (it is not always: two-letter degrees 9..12 need at least two words
    to build the full lcm) this is the first word attaining it.
    """

    degree: int
    alphabet_size: int
    d_n: int
    common_denominator: int
    observed_lcm: int
    minimal: bool
    divisibility_ok: bool
    witness_max: Word

    def __post_init__(self) -> None:
        if self.divisibility_ok:
            assert self.common_denominator % self.observed_lcm == 0
        if self.minimal:
            assert self.divisibility_ok

    def to_json_dict(self) -> dict:
        # big integers as decimal strings: they outgrow 64-bit consumers
        return {
            "degree": self.degree,
            "alphabet": self.alphabet_size,
            "d_n": str(self.d_n),
            "common_denominator": str(self.common_denominator),
            "observed_lcm": str(self.observed_lcm),
            "minimal": self.minimal,
            "divisibility_ok": self.divisibility_ok,
            "witness": self.witness_max.to_string(self.alphabet_size),
        }


@dataclass(frozen=True)
class CongruenceReport:
    """Residue check of the numerators a_w = h_w * (n! * d_n) at one degree."""

    p: int
    degree: int
    modulus: int
    expected_residue: int
    violations: tuple[tuple[Word, int, int], ...]
    exceptional_zero_failures: tuple[Word, ...]

    @property
    def passed(self) -> bool:
        return not self.violations and not self.exceptional_zero_failures

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "degree": self.degree,
            "modulus": self.modulus,
            "expected_residue": self.expected_residue,
            "violations": [
                {"word": w.to_string(2), "numerator": str(a), "residue": r}
                for w, a, r in self.violations
            ],
            "exceptional_zero_failures": [w.to_string(2) for w in self.exceptional_zero_failures],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GoldbergDegreeResult:
    """Whether every degree-n denominator divides denom((B_{n-1}+B_{n-2})/n!)."""

    degree: int
    goldberg_denominator: int
    passed: bool
    witness: Word | None
    witness_denominator: int | None
    ratio: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "goldberg_denominator": str(self.goldberg_denominator),
            "passed": self.passed,
            "witness": None if self.witness is None else self.witness.to_string(2),
            "witness_denominator": None
            if self.witness_denominator is None
            else str(self.witness_denominator),
            "ratio": None if self.ratio is None else str(self.ratio),
        }


@dataclass(frozen=True)
class TableEntry:
    """One distinct nonzero coefficient value of a degree, with its arithmetic."""

    value: Fraction
    denominator_factorization: PrimeFactorization
    numerator: int
    word: Word  # lexicographically smallest word attaining the value


def _dp_scan_chunk(task: tuple[int, int, int, int]) -> list[Fraction]:
    degree, alphabet_size, start, stop = task
    return [
        bch_coeff_word(Word.unpack(packed, degree, alphabet_size), alphabet_size)
        for packed in range(start, stop)
    ]


def degree_coefficients(
    n: int,
    alphabet_size: int = 2,
    backend: str = SERIES_BACKEND,
    *,
    series: TruncatedSeries | None = None,
    parallelism: int = 1,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> list[Fraction]:
    """All coefficients of degree n, indexed by packed word.

    ``series`` may carry a precomputed series (reused across degrees);
    otherwise the series backend builds one.  With backend "both" the two
    backends are compared entry by entry before returning.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if n > scan_limit:
        raise BudgetError(f"degree {n} exceeds scan limit {scan_limit}")
    if alphabet_size**n > table_budget:
        raise BudgetError(
            f"scan of {alphabet_size}^{n} words exceeds table budget {table_budget}"
        )
    backend = canonical_backend(backend)

    if backend == BOTH_BACKENDS:
        from_series = degree_coefficients(
            n, alphabet_size, SERIES_BACKEND,
            series=series, scan_limit=scan_limit, table_budget=table_budget,
        )
        from_dp = degree_coefficients(
            n, alphabet_size, DP_BACKEND,
            parallelism=parallelism, scan_limit=scan_limit, table_budget=table_budget,
        )
        for packed, (a, b) in enumerate(zip(from_series, from_dp)):
            if a != b:
                word = Word.unpack(packed, n, alphabet_size)
                raise RuntimeError(
                    f"backend disagreement at {word.to_string(alphabet_size)}: "
                    f"series {a} vs per-word {b}"
                )
        return from_series

    if backend == SERIES_BACKEND:
        if series is None:
            series = bch_series(alphabet_size, n, table_budget=table_budget)
        if series.alphabet_size != alphabet_size:
            raise ValueError("precomputed series has the wrong alphabet size")
        if series.max_degree < n:
            raise ValueError("precomputed series does not reach the requested degree")
        return list(series.tables[n].coefficients)

    total = alphabet_size**n
    if parallelism > 1:
        chunk = max(1, -(-total // (parallelism * 4)))
        tasks = [(n, alphabet_size, s, min(s + chunk, total)) for s in range(0, total, chunk)]
        out: list[Fraction] = []
        with multiprocessing.Pool(parallelism) as pool:
            for part in pool.map(_dp_scan_chunk, tasks):
                out.extend(part)
        return out
    return _dp_scan_chunk((n, alphabet_size, 0, total))


def _integer_numerator(h: Fraction, common: int, word: Word, alphabet_size: int) -> int:
    a = h * common
    if a.denominator != 1:
        raise CommonDenominatorError(
            f"denominator of coefficient of {word.to_string(alphabet_size)} "
            f"does not divide {common}"
        )
    return a.numerator


def degree_report(
    n: int,
    alphabet_size: int = 2,
    backend: str = SERIES_BACKEND,
    *,
    series: TruncatedSeries | None = None,
    parallelism: int = 1,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> DenominatorReport:
    """Scan one degree and compare denominators against n! * d_n."""
    coeffs = degree_coefficients(
        n, alphabet_size, backend,
        series=series, parallelism=parallelism,
        scan_limit=scan_limit, table_budget=table_budget,
    )
    d_n, _ = compute_dn(n)
    common, _ = common_denominator(n)
    observed = 1
    # the lcm need not be attained by any single word (degrees 9..12 for
    # two letters); the witness is then the first word of maximal denominator
    witness_packed = 0
    largest = 0
    for packed, c in enumerate(coeffs):
        den = c.denominator
        observed = lcm(observed, den)
        if den > largest:
            largest = den
            witness_packed = packed
    return DenominatorReport(
        degree=n,
        alphabet_size=alphabet_size,
        d_n=d_n,
        common_denominator=common,
        observed_lcm=observed,
        minimal=observed == common,
        divisibility_ok=common % observed == 0,
        witness_max=Word.unpack(witness_packed, n, alphabet_size),
    )


def numerator_over_common(
    word: Word, alphabet_size: int = 2, *, coefficient: Fraction | None = None
) -> int:
    """a_w: the coefficient of ``word`` written over the common denominator n! * d_n.

    Always an integer for genuine coefficients; a non-integer result is
    raised as ``CommonDenominatorError`` (it would disprove the
    divisibility theorem, not signal bad input).
    """
    n = word.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    if coefficient is None:
        coefficient = bch_coeff_word(word, alphabet_size)
    common, _ = common_denominator(n)
    return _integer_numerator(coefficient, common, word, alphabet_size)


def check_corollary_prime(
    p: int,
    *,
    series: TruncatedSeries | None = None,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> CongruenceReport:
    """Degree-p congruence: a_w = -d_p (mod p) for every word except A^p, B^p."""
    if not numtheory.is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    coeffs = degree_coefficients(p, 2, series=series, scan_limit=scan_limit)
    d_p, _ = compute_dn(p)
    common, _ = common_denominator(p)
    expected = (-d_p) % p
    top = 2**p - 1
    violations = []
    for packed, h in enumerate(coeffs):
        if packed in (0, top):  # A^p and B^p
            continue
        word = Word.unpack(packed, p, 2)
        a = _integer_numerator(h, common, word, 2)
        residue = a % p
        if residue != expected:
            violations.append((word, a, residue))
    return CongruenceReport(
        p=p,
        degree=p,
        modulus=p,
        expected_residue=expected,
        violations=tuple(violations),
        exceptional_zero_failures=(),
    )


def check_corollary_prime_plus_one(
    p: int,
    *,
    series: TruncatedSeries | None = None,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> CongruenceReport:
    """Degree-(p+1) check for odd primes p.

    Words whose first and last letters agree, together with the four
    boundary words A B^p, B^p A, A^p B, B A^p, must have coefficient 0;
    every other word's numerator must satisfy
    a_w = (p-1)/2 * d_{p+1} (mod p).
    """
    if p == 2 or not numtheory.is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    n = p + 1
    coeffs = degree_coefficients(n, 2, series=series, scan_limit=scan_limit)
    d_n, _ = compute_dn(n)
    common, _ = common_denominator(n)
    expected = ((p - 1) // 2 * d_n) % p
    boundary = {2**p - 1, (2**p - 1) * 2, 1, 2**p}  # AB^p, B^pA, A^pB, BA^p
    violations = []
    zero_failures = []
    for packed, h in enumerate(coeffs):
        first = packed >> p
        last = packed & 1
        if first == last or packed in boundary:
            if h != 0:
                zero_failures.append(Word.unpack(packed, n, 2))
            continue
        word = Word.unpack(packed, n, 2)
        a = _integer_numerator(h, common, word, 2)
        residue = a % p
        if residue != expected:
            violations.append((word, a, residue))
    return CongruenceReport(
        p=p,
        degree=n,
        modulus=p,
        expected_residue=expected,
        violations=tuple(violations),
        exceptional_zero_failures=tuple(zero_failures),
    )


def goldberg_check(
    n_max: int,
    *,
    series: TruncatedSeries | None = None,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> list[GoldbergDegreeResult]:
    """Test denom((B_{n-1}+B_{n-2})/n!) as a common denominator, degree by degree.

    For each degree 4..n_max, reports pass when every coefficient
    denominator divides it, else the lexicographically first failing word
    together with the non-integer quotient.  The candidate holds up to
    degree 10 and first fails at degree 11.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    results = []
    for n in range(4, n_max + 1):
        candidate = numtheory.goldberg_denominator(n)
        coeffs = degree_coefficients(n, 2, series=series, scan_limit=scan_limit)
        witness = None
        witness_denominator = None
        ratio = None
        for packed, h in enumerate(coeffs):
            if candidate % h.denominator != 0:
                witness = Word.unpack(packed, n, 2)
                witness_denominator = h.denominator
                ratio = Fraction(candidate, h.denominator)
                break
        results.append(
            GoldbergDegreeResult(
                degree=n,
                goldberg_denominator=candidate,
                passed=witness is None,
                witness=witness,
                witness_denominator=witness_denominator,
                ratio=ratio,
            )
        )
    return results


def coefficient_value_table(
    n: int,
    alphabet_size: int = 2,
    *,
    series: TruncatedSeries | None = None,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> list[TableEntry]:
    """The distinct nonzero coefficient values of one degree.

    Each entry carries the reduced value, the prime factorization of its
    denominator, and the integer numerator over n! * d_n.  Sorted by
    decreasing absolute value, positive before negative on ties.
    """
    coeffs = degree_coefficients(n, alphabet_size, series=series, scan_limit=scan_limit)
    first_seen: dict[Fraction, int] = {}
    for packed, h in enumerate(coeffs):
        if h and h not in first_seen:
            first_seen[h] = packed
    common, _ = common_denominator(n)
    entries = []
    for h, packed in first_seen.items():
        word = Word.unpack(packed, n, alphabet_size)
        entries.append(
            TableEntry(
                value=h,
                denominator_factorization=PrimeFactorization.of(h.denominator),
                numerator=_integer_numerator(h, common, word, alphabet_size),
                word=word,
            )
        )
    entries.sort(key=lambda e: (-abs(e.value), 0 if e.value > 0 else 1))
    return entries


def table11(*, series: TruncatedSeries | None = None) -> list[TableEntry]:
    """The 30 distinct nonzero coefficient values at degree 11 (two letters)."""
    return coefficient_value_table(11, 2, series=series)
