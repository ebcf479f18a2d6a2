"""Per-degree verification reports over the coefficients of H = log(e^A e^B).

A degree scan computes every coefficient of one homogeneous component,
reduces each to lowest terms, and compares the lcm of the denominators
against the closed-form common denominator n! * d_n.  On top of the scans
sit the congruence checks for prime and prime-plus-one degrees (two front
ends over one residue scan), the refutation of the Bernoulli-quotient
candidate denominator, and the deduplicated value table of a degree.
Each check passes its backend keywords through to ``degree_coefficients``,
which alone names and checks them.  Two reducers read a degree's
coefficients: ``_first_words`` (each distinct value and its first word)
and ``_congruence_scan`` (every word that breaks a congruence).

Scans are deterministic: words are visited in packed (lexicographic)
order, reductions are commutative, and witnesses are always the
lexicographically smallest word attaining the reported value, so parallel
and serial runs produce identical reports.

A coefficient depends only on the run-length class of its word.  Split a
word into maximal runs of one letter, of lengths s_1..s_m, and let asc and
desc count the run boundaries where the letter index goes up and down.
The coefficient is a sum over the ways to cut the word into blocks, each
block a weakly increasing word (the only words of e^{A_0}...e^{A_{K-1}}),
weighted by (-1)^(k-1)/k for k blocks and by 1/j! for each piece of j
letters of one run inside a block.  This is the sum ``bch_coeff_word``
computes:

- A cut must fall at every descent.  It is optional at every ascent and
  inside runs.
- Write (-1)^(k-1)/k as the integral over t in [0, 1] of (-t)^(k-1), so
  each of the k-1 cuts contributes a factor -t.
- The sum then factorises as the integral of
  F_{s_1}(t) ... F_{s_m}(t) * (1-t)^asc * (-t)^desc, where F_s(t) sums
  (-t)^(r-1) / (j_1! ... j_r!) over the compositions (j_1..j_r) of s.
- Its factors commute, so only (asc, desc, the multiset of run lengths)
  matters.

Word reversal and the relabelling i -> K-1-i each multiply a coefficient
by (-1)^(n+1): reversal maps H(A_0, ..., A_{K-1}) to H(A_{K-1}, ..., A_0),
and H(X, Y) = -H(-Y, -X).  Both swap asc and desc and keep the denominator.
A class is therefore (asc, desc, sorted run lengths) with (asc, desc) and
(desc, asc) merged, and a per-word-DP degree report computes one word per
class (``class_representatives``), as does the Goldberg check.  For two
letters the runs alternate, so there is one class per partition of n:
p(n) words, as in Goldberg's formula (M. Goldberg, Duke Math. J. 23
(1956) 13-21).  The tests check the invariance on both backends rather
than assume it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from contextlib import AbstractContextManager, nullcontext
from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm
from operator import attrgetter
from typing import TYPE_CHECKING

from . import numtheory
from ._records import Record
from .errors import BudgetError
from .freealgebra import (
    DEFAULT_TABLE_BUDGET,
    TruncatedSeries,
    Word,
    _scaled_bch_coeff_word,
    bch_coeff_word,
    bch_series,
)
from .numtheory import PrimeFactorization, common_denominator, compute_dn

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

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


class DenominatorReport(Record):
    """Outcome of one full degree scan.

    ``witness_max`` is the lexicographically smallest word whose
    denominator is maximal; when the lcm is attained by a single word
    (it is not always: two-letter degrees 9..12 need at least two words
    to build the full lcm) this is the first word attaining it.
    """

    __slots__ = (
        "degree", "alphabet_size", "d_n", "common_denominator",
        "observed_lcm", "minimal", "divisibility_ok", "witness_max",
    )

    def _check(self) -> None:
        assert not self.divisibility_ok or self.common_denominator % self.observed_lcm == 0
        assert not self.minimal or self.divisibility_ok

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


class CongruenceReport(Record):
    """Residue check of the numerators a_w = h_w * (n! * d_n) at one degree."""

    __slots__ = ("p", "degree", "modulus", "expected_residue", "violations", "exceptional_zero_failures")

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


class GoldbergDegreeResult(Record):
    """Whether every degree-n denominator divides denom((B_{n-1}+B_{n-2})/n!)."""

    __slots__ = ("degree", "goldberg_denominator", "passed", "witness", "witness_denominator", "ratio")

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "goldberg_denominator": str(self.goldberg_denominator),
            "passed": self.passed,
            "witness": None if self.witness is None else self.witness.to_string(2),
            "witness_denominator": None if self.witness_denominator is None else str(self.witness_denominator),
            "ratio": None if self.ratio is None else str(self.ratio),
        }


class TableEntry(Record):
    """One distinct nonzero coefficient value of a degree, with its arithmetic.

    ``word`` is the lexicographically smallest word attaining the value.
    """

    __slots__ = ("value", "denominator_factorization", "numerator", "word")


@cache
def _letters_fit(alphabet_size: int, letter: int, rises: int, falls: int) -> bool:
    """Whether letters 0..K-1 can go on from ``letter`` with this many rises and falls."""
    if rises and any(
        _letters_fit(alphabet_size, up, rises - 1, falls)
        for up in range(letter + 1, alphabet_size)
    ):
        return True
    if falls and any(_letters_fit(alphabet_size, down, rises, falls - 1) for down in range(letter)):
        return True
    return not rises and not falls


def _smallest_word(lengths: tuple[int, ...], asc: int, desc: int, alphabet_size: int) -> int | None:
    """The smallest packed word with these run lengths, ascents and descents, if any.

    Greedy, one letter at a time: a prefix extends to such a word exactly
    when an unused run length can still hold the open run and the letters
    can still make the remaining rises and falls, because the unused
    lengths may follow in any order.
    """
    K = alphabet_size
    letter = next((x for x in range(K) if _letters_fit(K, x, asc, desc)), None)
    if letter is None:
        return None
    unused = list(lengths)  # non-increasing, so unused[0] is the longest
    packed, run = letter, 1
    for _ in range(sum(lengths) - 1):
        for nxt in range(K):
            if nxt == letter:
                if run < unused[0]:
                    run += 1
                    break
            elif run in unused:
                rises, falls = (asc - 1, desc) if nxt > letter else (asc, desc - 1)
                if min(rises, falls) >= 0 and _letters_fit(K, nxt, rises, falls):
                    unused.remove(run)
                    asc, desc, letter, run = rises, falls, nxt, 1
                    break
        packed = packed * K + letter
    return packed


def class_representatives(n: int, alphabet_size: int = 2) -> list[int]:
    """The smallest packed word of each run-length class of degree n, in increasing order.

    A class is (asc, desc, sorted run lengths) with (asc, desc) and
    (desc, asc) merged; its words share one denominator (see the module
    docstring).  Two letters give one class per partition of n.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    reps = []
    for lengths in numtheory.partitions(n):
        boundaries = len(lengths) - 1
        for asc in range(boundaries // 2 + 1):
            desc = boundaries - asc
            # relabelling pairs the words of (asc, desc) with those of
            # (desc, asc), so either both orders have words or neither has
            first = _smallest_word(lengths, asc, desc, alphabet_size)
            if first is not None:
                reps.append(min(first, _smallest_word(lengths, desc, asc, alphabet_size)))
    return sorted(reps)


def _dp_scan_chunk(task: tuple[int, int, Sequence[int], bool]) -> list[Fraction]:
    """The per-word DP of some packed words: on integers, or on ``Fraction``s for every word."""
    degree, alphabet_size, words, every_word = task
    words = (Word.unpack(packed, degree, alphabet_size) for packed in words)
    if every_word:
        # Fractions until the benchmark's peak RSS stops growing with its call count (ROADMAP item 4)
        return [bch_coeff_word(word, alphabet_size) for word in words]
    return list(map(_scaled_bch_coeff_word, words))


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("degree must be >= 1")


def _check_budget(n: int, alphabet_size: int, table_budget: int, scanned: int | None) -> None:
    """Refuse a scan of more words than the budget; ``scanned`` None means all K^n."""
    if (alphabet_size**n if scanned is None else scanned) > table_budget:
        what = f"{alphabet_size}^{n} words" if scanned is None else f"{scanned} words of degree {n}"
        raise BudgetError(f"scan of {what} exceeds table budget {table_budget}")


def degree_coefficients(
    n: int,
    alphabet_size: int = 2,
    backend: str = SERIES_BACKEND,
    *,
    words: Sequence[int] | None = None,
    series: TruncatedSeries | None = None,
    parallelism: int = 1,
    pool: Pool | None = None,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    scan_limit: int | None = None,
) -> list[Fraction]:
    """The coefficients of the packed ``words`` of degree n, in their order.

    ``words`` defaults to every word, so the result is indexed by packed
    word; on the series backend it is then the series' own table, shared
    rather than copied, which callers read and do not modify.  ``series``
    may carry a precomputed series (reused across degrees); otherwise the
    series backend builds one.  With backend "both"
    the two backends are compared entry by entry before returning.  The
    per-word DP computes given ``words`` on integers
    (``_scaled_bch_coeff_word``) and every word with ``bch_coeff_word``.  With
    ``parallelism`` above 1 the per-word DP runs on ``pool`` (an open pool
    from ``worker_pool``, shared across degrees), or on a pool opened for
    this call.  ``table_budget`` bounds the words the
    scan computes: the given ``words`` on the per-word DP, else all K^n
    (the series holds every word of a degree in its table).  ``scan_limit``
    is accepted and ignored, because ``perfbench/traced_cli.py`` still
    passes it; the table budget is the only scan budget.
    """
    _check_degree(n)
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    backend = canonical_backend(backend)
    scanned = len(words) if words is not None and backend == DP_BACKEND else None
    _check_budget(n, alphabet_size, table_budget, scanned)
    total = alphabet_size**n
    if words is not None and not all(0 <= packed < total for packed in words):
        raise ValueError(f"packed word out of range for degree {n}")

    if backend == BOTH_BACKENDS:
        from_series = degree_coefficients(
            n, alphabet_size, SERIES_BACKEND,
            words=words, series=series, table_budget=table_budget,
        )
        from_dp = degree_coefficients(
            n, alphabet_size, DP_BACKEND,
            words=words, parallelism=parallelism, pool=pool, table_budget=table_budget,
        )
        for i, (a, b) in enumerate(zip(from_series, from_dp)):
            if a != b:
                word = Word.unpack(i if words is None else words[i], n, alphabet_size)
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
        table = series.tables[n].coefficients
        return table if words is None else [table[packed] for packed in words]

    every_word = words is None
    if every_word:
        words = range(total)
    if parallelism == 1:
        return _dp_scan_chunk((n, alphabet_size, words, every_word))
    chunk = max(1, -(-len(words) // (_pool_size(parallelism) * 4)))
    tasks = [(n, alphabet_size, words[s : s + chunk], every_word) for s in range(0, len(words), chunk)]
    with worker_pool(backend, parallelism) if pool is None else nullcontext(pool) as pool:
        return list(chain.from_iterable(pool.map(_dp_scan_chunk, tasks)))


def worker_pool(backend: str, parallelism: int) -> AbstractContextManager[Pool | None]:
    """The worker pool a run's per-word scans share across degrees, as a context.

    It yields None (no pool) when the scans are serial or read only the
    dense series.  The pool has ``_pool_size(parallelism)`` workers.
    """
    if parallelism <= 1 or canonical_backend(backend) == SERIES_BACKEND:
        return nullcontext()
    import multiprocessing  # only here: serial runs skip its import

    return multiprocessing.Pool(_pool_size(parallelism))


def _pool_size(parallelism: int) -> int:
    """How many workers a pool opened for ``parallelism`` has: at most one per usable CPU."""
    return min(parallelism, _usable_cpus())


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def _integer_numerator(h: Fraction, common: int, word: Word, alphabet_size: int) -> int:
    quotient, remainder = divmod(common, h.denominator)
    if remainder:
        raise CommonDenominatorError(
            f"denominator of coefficient of {word.to_string(alphabet_size)} "
            f"does not divide {common}"
        )
    return h.numerator * quotient


def report_words(n: int, alphabet_size: int, backend: str) -> list[int] | None:
    """The packed words ``degree_report`` or ``goldberg_check`` computes at degree n; None: all.

    The per-word DP computes one word per run-length class
    (``class_representatives``; p(n) words for two letters, after
    Goldberg 1956): the words of a class share a denominator, so the lcm is
    unchanged, and the first word of maximal denominator, or of a failing
    one, is the smallest word of its class.  The series backend and "both"
    (the unreduced cross-check) compute every word.
    """
    if canonical_backend(backend) == DP_BACKEND:
        return class_representatives(n, alphabet_size)
    return None


def _first_words(coeffs: Sequence[Fraction], words: Sequence[int] | None) -> dict[Fraction, int]:
    """Each distinct value of ``coeffs``, in order of first appearance, and the first word holding it.

    ``coeffs`` are the coefficients of the increasing packed ``words``
    (None: every word, so an index is a packed word).  The objects are
    told apart by identity first, at C speed: ``bch_series`` shares one
    ``Fraction`` per value, so on the series backend only the few
    distinct objects of a degree are hashed.
    """
    # read backwards, each object's first index is the last one written
    first_index = dict(zip(map(id, reversed(coeffs)), range(len(coeffs) - 1, -1, -1)))
    firsts: dict[Fraction, int] = {}
    for i in sorted(first_index.values()):
        firsts.setdefault(coeffs[i], i if words is None else words[i])
    return firsts


def degree_report(
    n: int, alphabet_size: int = 2, backend: str = SERIES_BACKEND, **scan
) -> DenominatorReport:
    """Scan one degree and compare denominators against n! * d_n.

    It computes the words ``report_words`` names, and the table budget
    counts them; ``scan`` holds the other backend keywords of
    ``degree_coefficients``.
    """
    words = report_words(n, alphabet_size, backend)  # this or degree_coefficients checks n
    coeffs = degree_coefficients(n, alphabet_size, backend, words=words, **scan)
    d_n, _ = compute_dn(n)
    common, _ = common_denominator(n)
    firsts = _first_words(coeffs, words)
    observed = lcm(*{h.denominator for h in firsts})
    # the lcm need not be attained by any single word (degrees 9..12 for
    # two letters); the witness is then the first word of maximal
    # denominator, which holds the first such value (max keeps the first)
    witness_packed = firsts[max(firsts, key=attrgetter("denominator"))]
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
    _check_degree(word.degree)
    if coefficient is None:
        coefficient = bch_coeff_word(word, alphabet_size)
    common, _ = common_denominator(word.degree)
    return _integer_numerator(coefficient, common, word, alphabet_size)


def _congruence_scan(
    p: int, n: int, expected: int, zero: Callable[[int], bool], **scan
) -> CongruenceReport:
    """Check a_w = ``expected`` (mod p) over the two-letter words of degree n.

    The packed words for which ``zero`` is true must have coefficient 0
    instead.  Every word is computed, through ``degree_coefficients`` with
    the backend keywords ``scan``.
    """
    coeffs = degree_coefficients(n, 2, **scan)
    common, _ = common_denominator(n)
    violations = []
    zero_failures = []
    for packed, h in enumerate(coeffs):
        if zero(packed):
            if h:
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


def check_corollary_prime(p: int, **scan) -> CongruenceReport:
    """Degree-p congruence: a_w = -d_p (mod p) for every word except A^p, B^p.

    Those two have coefficient 0 (the terms in A alone sum to log e^A = A),
    and the scan checks that as well.  ``scan`` holds the backend keywords
    of ``degree_coefficients``.
    """
    if not numtheory.is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    d_p, _ = compute_dn(p)
    powers = (0, 2**p - 1)  # A^p and B^p
    return _congruence_scan(p, p, (-d_p) % p, lambda packed: packed in powers, **scan)


def check_corollary_prime_plus_one(p: int, **scan) -> CongruenceReport:
    """Degree-(p+1) check for odd primes p, of the claim as stated.

    The claim: words whose first and last letters agree, together with the
    four boundary words A B^p, B^p A, A^p B, B A^p, have coefficient 0, and
    every other word's numerator satisfies a_w = (p-1)/2 * d_{p+1} (mod p).
    The zero set holds for every p checked (p <= 13), but the uniform
    residue fails for every odd p.
    Word reversal maps log(e^A e^B) to -log(e^-A e^-B), so at the even
    degree p+1 it negates a_w, and it sends words A...B to words B...A;
    the residue (p-1)/2 * d_{p+1} is nonzero mod p.  The reported
    violations are therefore exactly the words B...A outside the zero
    set, each with the negated residue.  ``scan`` holds the backend
    keywords of ``degree_coefficients``.
    """
    if p == 2 or not numtheory.is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    d_n, _ = compute_dn(p + 1)
    boundary = {2**p - 1, (2**p - 1) * 2, 1, 2**p}  # AB^p, B^pA, A^pB, BA^p
    return _congruence_scan(
        p, p + 1, (p - 1) // 2 * d_n % p,
        lambda packed: (packed >> p) == (packed & 1) or packed in boundary,  # same first and last letter
        **scan,
    )


def goldberg_check(n_max: int, backend: str = SERIES_BACKEND, **scan) -> list[GoldbergDegreeResult]:
    """Test denom((B_{n-1}+B_{n-2})/n!) as a common denominator, degree by degree.

    For each degree 4..n_max, reports pass when every coefficient
    denominator divides it, else the lexicographically first failing word
    together with the non-integer quotient.  It computes the words
    ``report_words`` names; ``scan`` holds the other backend keywords of
    ``degree_coefficients``.  The candidate first fails at degree 11.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    results = []
    for n in range(4, n_max + 1):
        candidate = numtheory.goldberg_denominator(n)
        words = report_words(n, 2, backend)
        firsts = _first_words(degree_coefficients(n, 2, backend, words=words, **scan), words)
        failing = next((h for h in firsts if candidate % h.denominator), None)
        if failing is None:
            results.append(GoldbergDegreeResult(n, candidate, True, None, None, None))
        else:
            witness = Word.unpack(firsts[failing], n, 2)
            ratio = Fraction(candidate, failing.denominator)
            results.append(GoldbergDegreeResult(n, candidate, False, witness, failing.denominator, ratio))
    return results


def coefficient_value_table(
    n: int, alphabet_size: int = 2, backend: str = SERIES_BACKEND, **scan
) -> list[TableEntry]:
    """The distinct nonzero coefficient values of one degree.

    Each entry carries the reduced value, the prime factorization of its
    denominator, and the integer numerator over n! * d_n.  Sorted by
    decreasing absolute value, positive before negative on ties.
    ``scan`` holds the other backend keywords of ``degree_coefficients``.
    """
    coeffs = degree_coefficients(n, alphabet_size, backend, **scan)
    common, _ = common_denominator(n)
    entries = []
    for h, packed in _first_words(coeffs, None).items():
        if not h:
            continue
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

