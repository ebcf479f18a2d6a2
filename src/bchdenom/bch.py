"""Per-degree verification reports over the coefficients of H = log(e^A e^B).

A degree scan computes every coefficient of one homogeneous component,
reduces each to lowest terms, and compares the lcm of the denominators
against the closed-form common denominator n! * d_n.  On top of the scans
sit the congruence checks for prime and prime-plus-one degrees (two front
ends over one residue scan), the refutation of the Bernoulli-quotient
candidate denominator, and the deduplicated value table of a degree.
Each check passes its backend keywords through to ``degree_coefficients``,
which alone names and checks them; ``shared_scan`` sets them up once for
a run of several degrees.  One reducer reads a degree's
coefficients, ``_first_words``: each distinct value, its first word and
the value of each word; the arithmetic of a value is done once.  Each
report is one call per degree, and one constructor, ``TableEntry.of``,
prices a coefficient: its numerator over n! * d_n and the factorization
of its denominator.

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
(1956) 13-21); ``class_count`` counts them without listing any.  The
tests check the invariance on both backends rather than assume it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, contextmanager, nullcontext
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import attrgetter
from typing import TYPE_CHECKING

from . import numtheory
from ._records import record
from .errors import check_budget
from .freealgebra import (
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
DP_BACKEND = "dp"
BOTH_BACKENDS = "both"
BACKENDS = (SERIES_BACKEND, DP_BACKEND, BOTH_BACKENDS)


class CommonDenominatorError(RuntimeError):
    """A reduced coefficient denominator failed to divide n! * d_n.

    This cannot happen for correct inputs; it would falsify the
    divisibility theorem the package exists to check, so the command line
    reports it as a violation, with exit status 1, not as a crash.
    """


class BackendDisagreementError(RuntimeError):
    """The two backends of "both" differ at a word: reported as a violation, exit status 1."""


class DenominatorReport(record("DenominatorReport", "degree alphabet_size d_n common_denominator observed_lcm"
                               " minimal divisibility_ok witness_max")):
    """Outcome of one full degree scan.

    ``witness_max`` is the lexicographically smallest word whose
    denominator is maximal; when the lcm is attained by a single word
    (it is not always: two-letter degrees 9..12 need at least two words
    to build the full lcm) this is the first word attaining it.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.divisibility_ok and self.common_denominator % self.observed_lcm:
            raise ValueError("divisibility_ok needs an lcm that divides n! * d_n")
        if self.minimal and not self.divisibility_ok:
            raise ValueError("minimal needs divisibility_ok")


class CongruenceReport(record("CongruenceReport", "p degree expected_residue violations exceptional_zero_failures")):
    """Residue check of the numerators a_w = h_w * (n! * d_n) at one degree, modulo the prime p."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations and not self.exceptional_zero_failures


class GoldbergDegreeResult(record("GoldbergDegreeResult", "degree goldberg_denominator passed witness"
                                  " witness_denominator ratio")):
    """Whether every degree-n denominator divides denom((B_{n-1}+B_{n-2})/n!)."""

    __slots__ = ()


class TableEntry(record("TableEntry", "value denominator_factorization numerator word")):
    """A coefficient of a degree, with its arithmetic: the row of a word or of a distinct value.

    In a row of a distinct value, ``word`` is the lexicographically
    smallest word attaining the value.
    """

    __slots__ = ()

    @classmethod
    def of(cls, word: Word, value: Fraction, alphabet_size: int) -> TableEntry:
        """The entry of ``word``'s coefficient ``value``, with its numerator over n! * d_n.

        The numerator is an integer (else ``CommonDenominatorError``); then
        the denominator is factored.
        """
        numerator = numerator_over_common(word, alphabet_size, coefficient=value)
        return cls(value, PrimeFactorization.of(value.denominator), numerator, word)


def _letters_fit(alphabet_size: int, letter: int, rises: int, falls: int) -> bool:
    """Whether letters 0..K-1 can go on from ``letter`` with this many rises and falls.

    The falls cut the rises into falls + 1 increasing stretches; only the
    first starts at ``letter``, and each climbs at most K - 1.  The same
    holds for the falls, cut by the rises.
    """
    top = alphabet_size - 1
    return rises <= top - letter + falls * top and falls <= letter + rises * top


def _smallest_word(lengths: tuple[int, ...], asc: int, desc: int, alphabet_size: int) -> int | None:
    """The smallest packed word with these run lengths, ascents and descents, if any.

    The lengths may follow in any order, so each run boundary is settled on
    its own: the run takes the shortest unused length and falls where a
    fall leaves letters for the rises and falls to come (``_letters_fit``),
    else the longest and rises, each time to the least letter allowed.
    """
    T = alphabet_size - 1
    letter = max(0, desc - asc * T)
    if letter > T or not _letters_fit(alphabet_size, letter, asc, desc):
        return None
    unused = list(lengths)  # non-increasing: the longest first, the shortest last
    packed = 0
    while unused:
        fall = max(0, desc - 1 - asc * T)
        if desc and fall < letter and _letters_fit(alphabet_size, fall, asc, desc - 1):
            run, nxt, desc = unused.pop(), fall, desc - 1
        else:  # a rise, or the last run
            run, nxt, asc = unused.pop(0), max(letter + 1, desc - (asc - 1) * T), asc - 1
        for _ in range(run):
            packed = packed * alphabet_size + letter
        letter = nxt
    return packed


def _orders(runs: int, alphabet_size: int) -> list[tuple[int, int]]:
    """Each merged class order (rises, falls), rises >= falls, of ``runs`` runs that ``_letters_fit`` allows from 0."""
    orders = ((runs - 1 - falls, falls) for falls in range((runs + 1) // 2))
    return [order for order in orders if _letters_fit(alphabet_size, 0, *order)]


def class_count(n: int, alphabet_size: int = 2) -> int:
    """How many words ``class_representatives(n, K)`` lists: ``len(_orders(m, K))`` per partition of n into m parts."""
    _check_degree(n)
    row = numtheory.partition_counts_by_parts(n)
    return sum(count * len(_orders(m, alphabet_size)) for m, count in enumerate(row))


def class_representatives(n: int, alphabet_size: int = 2) -> list[int]:
    """The smallest packed word of each run-length class of degree n, in increasing order.

    A class is (asc, desc, sorted run lengths) with (asc, desc) and
    (desc, asc) merged; its words share one denominator (see the module
    docstring).  Two letters give one class per partition of n.  Of the
    two orders, the one with more rises holds the smaller word.  Where the
    other cannot start at letter 0, this one does.  Else both rise first,
    the other at least as high, and exactly as high only when both rise to
    1; then both fall back to 0 after the same shortest length, which
    leaves the same comparison with one rise and one fall fewer.  So each
    partition gives a word for each order K letters allow (``_orders``); the
    count of these words (``scan_count``) is held to the budget before any is listed.
    """
    scan_count(n, alphabet_size, per_class=True)
    orders = [_orders(runs, alphabet_size) for runs in range(n + 1)]
    return sorted(
        _smallest_word(lengths, rises, falls, alphabet_size)
        for lengths in numtheory.partitions(n)
        for rises, falls in orders[len(lengths)]
    )


def _dp_scan_chunk(task: tuple[int, int, Sequence[int], bool]) -> list[Fraction]:
    """The per-word DP of some packed words: on integers, or on ``Fraction``s for every word.

    Equal values come back as one object, as the series shares them, so a
    reducer tells them apart by identity and a pool sends each value of a
    chunk once.
    """
    degree, alphabet_size, words, every_word = task
    words = (Word.unpack(packed, degree, alphabet_size) for packed in words)
    if every_word:
        # Fractions until the benchmark stops keeping each call's stdout, so that its peak RSS stops
        # growing with its call count (ROADMAP item 1), and the kernel switches (item 6)
        coeffs = (bch_coeff_word(word, alphabet_size) for word in words)
    else:
        coeffs = map(_scaled_bch_coeff_word, words)
    shared: dict[Fraction, Fraction] = {}
    return [shared.setdefault(h, h) for h in coeffs]


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("degree must be >= 1")


def scan_count(n: int, alphabet_size: int, per_class: bool = False) -> int:
    """How many words a scan of degree n computes, once the gate (``check_budget``) has passed them.

    A class-reduced scan (``per_class``) computes one word per run-length class, whose words
    share a denominator (``class_representatives``, counted by ``class_count``; p(n) words for
    two letters), and any other scan all K^n words.  Neither count falls as n grows.
    """
    count = (lambda m: class_count(m, alphabet_size)) if per_class else (lambda m: alphabet_size**m)
    return check_budget(count, n, f"scan of degree {n}", "words")


def degree_coefficients(
    n: int,
    alphabet_size: int = 2,
    backend: str = SERIES_BACKEND,
    *,
    words: Sequence[int] | None = None,
    series: TruncatedSeries | None = None,
    parallelism: int = 1,
    pool: Pool | None = None,
    scan_limit: int | None = None,
) -> list[Fraction]:
    """The coefficients of the packed ``words`` of degree n, in their order.

    ``backend`` is one of ``BACKENDS``: "series", the dense series; "dp",
    the per-word DP; or "both", which compares the two entry by entry
    before returning (``BackendDisagreementError`` where they differ).
    Any other name is a ``ValueError``.  ``words`` defaults to every
    word, so the result is indexed by packed word; on
    the series backend it is then the series' own table, shared rather
    than copied, which callers read and do not modify.  ``series`` may
    carry a precomputed series (``shared_scan`` builds one for a run);
    otherwise the series backend builds one.  The per-word DP computes
    given ``words`` on integers (``_scaled_bch_coeff_word``) and every
    word with ``bch_coeff_word``.  With ``parallelism`` above 1 the
    per-word DP runs on ``pool`` (an open pool from ``worker_pool``, such
    as the one ``shared_scan`` shares across a run), or on a pool opened
    for this call.  The scan budget bounds the words the scan computes:
    given ``words`` on the per-word DP by their number, else all K^n
    (``scan_count``).  ``scan_limit`` is accepted and ignored, because
    ``perfbench/traced_cli.py`` still passes it.
    """
    _check_degree(n)
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if words is not None and backend == DP_BACKEND:
        check_budget(lambda m: len(words), 1, f"scan of degree {n}", "given words")  # no degree changes it: sized once
    else:
        scan_count(n, alphabet_size)
    total = alphabet_size**n
    if words is not None and not all(0 <= packed < total for packed in words):
        raise ValueError(f"packed word out of range for degree {n}")

    if backend == BOTH_BACKENDS:
        from_series = degree_coefficients(n, alphabet_size, SERIES_BACKEND, words=words, series=series)
        from_dp = degree_coefficients(
            n, alphabet_size, DP_BACKEND, words=words, parallelism=parallelism, pool=pool
        )
        for i, (a, b) in enumerate(zip(from_series, from_dp)):
            if a != b:
                word = Word.unpack(i if words is None else words[i], n, alphabet_size)
                raise BackendDisagreementError(
                    f"backend disagreement at {word.to_string(alphabet_size)}: "
                    f"series {a} vs per-word {b}"
                )
        return from_series

    if backend == SERIES_BACKEND:
        if series is None:
            series = bch_series(alphabet_size, n)
        if series.alphabet_size != alphabet_size:
            raise ValueError("precomputed series has the wrong alphabet size")
        if series.max_degree < n:
            raise ValueError("precomputed series does not reach the requested degree")
        table = series.tables[n]
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
    dense series (backend "series"); "dp" and "both" run the per-word DP
    on it.  The pool has ``_pool_size(parallelism)`` workers.
    """
    if parallelism <= 1 or backend == SERIES_BACKEND:
        return nullcontext()
    import multiprocessing  # only here: serial runs skip its import

    return multiprocessing.Pool(_pool_size(parallelism))


@contextmanager
def shared_scan(alphabet_size: int, backend: str, parallelism: int, degree: int) -> Iterator[dict]:
    """The backend keywords of a run's degree scans, as a context: one series and one worker pool.

    The series is built through ``degree`` for the backends that read one (``bch_series`` holds
    it to the scan budget), and the worker pool opens.  A caller that must refuse before it
    prints holds its largest scan to the budget first (``scan_count``).
    """
    series = None if backend == DP_BACKEND else bch_series(alphabet_size, degree)
    with worker_pool(backend, parallelism) as pool:
        yield {"backend": backend, "series": series, "parallelism": parallelism, "pool": pool}


def _pool_size(parallelism: int) -> int:
    """How many workers a pool opened for ``parallelism`` has: at most one per usable CPU."""
    return min(parallelism, _usable_cpus())


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def _first_words(
    coeffs: Sequence[Fraction], words: Sequence[int] | None
) -> tuple[dict[Fraction, int], Iterator[int]]:
    """Each distinct value of ``coeffs``, in order of first appearance, and the first word holding it.

    ``coeffs`` are the coefficients of the increasing packed ``words``
    (None: every word, so an index is a packed word).  The objects are
    told apart by identity first, at C speed: ``bch_series`` shares one
    ``Fraction`` per value, and the per-word DP one per value in each
    chunk, so only the few distinct objects of a degree are hashed, each
    once.  Also returns, lazily, each coefficient's value as its position
    in that order.
    """
    # read backwards, each object's first index is the last one written;
    # the loop then turns each object's entry into its value's position
    by_id = dict(zip(map(id, reversed(coeffs)), range(len(coeffs) - 1, -1, -1)))
    by_value: dict[Fraction, int] = {}
    first: list[int] = []
    for i in sorted(by_id.values()):
        k = by_id[id(coeffs[i])] = by_value.setdefault(coeffs[i], len(first))
        if k == len(first):
            first.append(i if words is None else words[i])
    return dict(zip(by_value, first)), map(by_id.__getitem__, map(id, coeffs))


def _report_values(n: int, alphabet_size: int, backend: str, scan: dict) -> dict[Fraction, int]:
    """Each distinct coefficient value of the words a report computes at degree n, with its first word.

    The words (one per class on the per-word DP, else every word) are
    listed here, once per degree, after the scan budget has counted them
    (``scan_count``),
    and computed through ``degree_coefficients`` with the other backend
    keywords ``scan``.  The values come from ``_first_words``.
    """
    words = class_representatives(n, alphabet_size) if backend == DP_BACKEND else None
    firsts, _ = _first_words(degree_coefficients(n, alphabet_size, backend, words=words, **scan), words)
    return firsts


def degree_report(
    n: int, alphabet_size: int = 2, backend: str = SERIES_BACKEND, **scan
) -> DenominatorReport:
    """Scan one degree and compare denominators against n! * d_n.

    It reads the values ``_report_values`` gives; ``scan`` holds the other
    backend keywords of ``degree_coefficients``, as ``shared_scan`` gives them.
    """
    firsts = _report_values(n, alphabet_size, backend, scan)
    d_n, _ = compute_dn(n)
    common, _ = common_denominator(n)
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


def numerator_over_common(word: Word, alphabet_size: int = 2, *, coefficient: Fraction) -> int:
    """a_w: ``coefficient``, that of ``word``, written over the common denominator n! * d_n.

    Always an integer for genuine coefficients; a non-integer result is
    raised as ``CommonDenominatorError`` (it would disprove the
    divisibility theorem, not signal bad input).
    """
    _check_degree(word.degree)
    common, _ = common_denominator(word.degree)
    quotient, remainder = divmod(common, coefficient.denominator)
    if remainder:
        raise CommonDenominatorError(
            f"denominator of coefficient of {word.to_string(alphabet_size)} "
            f"does not divide {common}"
        )
    return coefficient.numerator * quotient


def _value_entries(
    n: int, alphabet_size: int, coeffs: Sequence[Fraction]
) -> tuple[list[TableEntry], Iterator[int]]:
    """Each distinct value of ``coeffs``, every word of degree n, as a ``TableEntry``, worked out once.

    An entry (``TableEntry.of``) holds the value's first word.  The entries
    come in order of first appearance, and with them, lazily, each word's
    entry as its position among them (see ``_first_words``).
    """
    firsts, positions = _first_words(coeffs, None)
    words = (Word.unpack(packed, n, alphabet_size) for packed in firsts.values())
    entries = [TableEntry.of(word, h, alphabet_size) for word, h in zip(words, firsts)]
    return entries, positions


def _congruence_scan(
    p: int, n: int, coeffs: Sequence[Fraction], expected: int, zero: Callable[[int], bool]
) -> CongruenceReport:
    """Check a_w = ``expected`` (mod p) over ``coeffs``, those of every two-letter word of degree n.

    The packed words for which ``zero`` is true must have coefficient 0
    instead.  Each value's residue is worked out once: the pass over the
    words only picks out, as ``Word``s, those that fail.
    """
    entries, positions = _value_entries(n, 2, coeffs)
    residues = [entry.numerator % p for entry in entries]
    violations = []
    zero_failures = []
    for packed, i in enumerate(positions):
        if zero(packed):
            if entries[i].value:
                zero_failures.append(Word.unpack(packed, n, 2))
        elif residues[i] != expected:
            violations.append((Word.unpack(packed, n, 2), entries[i].numerator, residues[i]))
    return CongruenceReport(
        p=p,
        degree=n,
        expected_residue=expected,
        violations=tuple(violations),
        exceptional_zero_failures=tuple(zero_failures),
    )


def check_corollary_prime(p: int, **scan) -> CongruenceReport:
    """Degree-p congruence: a_w = -d_p (mod p) for every word except A^p, B^p.

    Those two have coefficient 0 (the terms in A alone sum to log e^A = A),
    and the scan checks that as well.  ``scan`` holds the backend keywords
    of ``degree_coefficients``, called first: it holds the scan to the budget.
    """
    if not numtheory.is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    coeffs = degree_coefficients(p, 2, **scan)
    d_p, _ = compute_dn(p)
    powers = (0, 2**p - 1)  # A^p and B^p
    return _congruence_scan(p, p, coeffs, (-d_p) % p, lambda packed: packed in powers)


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
    keywords of ``degree_coefficients``, called first, as for degree p.
    """
    if p == 2 or not numtheory.is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    coeffs = degree_coefficients(p + 1, 2, **scan)
    d_n, _ = compute_dn(p + 1)
    boundary = {2**p - 1, (2**p - 1) * 2, 1, 2**p}  # AB^p, B^pA, A^pB, BA^p
    return _congruence_scan(
        p, p + 1, coeffs, (p - 1) // 2 * d_n % p,
        lambda packed: (packed >> p) == (packed & 1) or packed in boundary,  # same first and last letter
    )


def goldberg_check(n: int, backend: str = SERIES_BACKEND, **scan) -> GoldbergDegreeResult:
    """Test denom((B_{n-1}+B_{n-2})/n!) as the common denominator of degree n >= 4.

    The degree passes when every coefficient denominator divides it, else
    the result names the lexicographically first failing word and the
    non-integer quotient.  It reads the values ``_report_values`` gives,
    as ``degree_report`` does; ``scan`` holds the other backend keywords of
    ``degree_coefficients``, as ``shared_scan`` gives them.  The candidate
    first fails at degree 11.
    """
    if n < 4:
        raise ValueError("degree must be >= 4")
    firsts = _report_values(n, 2, backend, scan)  # held to the scan budget before the Bernoulli numbers
    candidate = numtheory.goldberg_denominator(n)
    failing = next((h for h in firsts if candidate % h.denominator), None)
    if failing is None:
        return GoldbergDegreeResult(n, candidate, True, None, None, None)
    witness = Word.unpack(firsts[failing], n, 2)
    return GoldbergDegreeResult(
        n, candidate, False, witness, failing.denominator, Fraction(candidate, failing.denominator)
    )


def coefficient_value_table(
    n: int, alphabet_size: int = 2, backend: str = SERIES_BACKEND, **scan
) -> list[TableEntry]:
    """The distinct nonzero coefficient values of one degree.

    Each entry carries the reduced value, the prime factorization of its
    denominator, and the integer numerator over n! * d_n.  Sorted by
    decreasing absolute value, positive before negative on ties.
    ``scan`` holds the other backend keywords of ``degree_coefficients``.
    """
    entries, _ = _value_entries(n, alphabet_size, degree_coefficients(n, alphabet_size, backend, **scan))
    entries = [entry for entry in entries if entry.value]
    entries.sort(key=lambda e: (-abs(e.value), 0 if e.value > 0 else 1))
    return entries
