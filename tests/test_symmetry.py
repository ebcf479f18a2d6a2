"""Run-length classes of words, and the class-reduced per-word-DP scan.

A coefficient depends only on its word's run-length class: the sorted run
lengths and the numbers of ascents and descents at run boundaries.
Reversing a word, or relabelling its letters i -> K-1-i, swaps the
ascents and descents and multiplies the coefficient by (-1)^(n+1).  The
per-word-DP degree report relies on both facts to compute one word per
class, so they are checked here on both backends rather than assumed,
and the reduced report is compared with one built from the full,
unreduced scan.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchdenom import bch
from bchdenom.bch import (
    DenominatorReport,
    GoldbergDegreeResult,
    class_count,
    class_representatives,
    degree_coefficients,
    degree_report,
    goldberg_check,
)
from bchdenom.freealgebra import Word, bch_coeff_word
from bchdenom.numtheory import (
    common_denominator,
    compute_dn,
    goldberg_denominator,
    partition_count,
    partitions,
)


@cache
def coefficients(n: int, alphabet_size: int, backend: str) -> list:
    """Every coefficient of one degree, computed once per test session."""
    return degree_coefficients(n, alphabet_size, backend)


def reverse(word: Word) -> Word:
    return Word(word.letters[::-1])


def relabel(word: Word, alphabet_size: int) -> Word:
    return Word(tuple(alphabet_size - 1 - l for l in word.letters))


def assert_symmetric(coefficient, word: Word, alphabet_size: int) -> None:
    sign = (-1) ** (word.degree + 1)
    a = coefficient(word)
    assert coefficient(reverse(word)) == sign * a
    assert coefficient(relabel(word, alphabet_size)) == sign * a


def run_shape(word: Word) -> tuple[int, int, tuple[int, ...]]:
    """(ascents, descents, sorted run lengths) of a word, read off its letters."""
    runs = [(letter, len(list(group))) for letter, group in groupby(word.letters)]
    asc = sum(1 for (a, _), (b, _) in zip(runs, runs[1:]) if b > a)
    return asc, len(runs) - 1 - asc, tuple(sorted(length for _, length in runs))


def class_key(word: Word) -> tuple[int, int, tuple[int, ...]]:
    asc, desc, lengths = run_shape(word)
    return min(asc, desc), max(asc, desc), lengths


@cache
def representative_of(n: int, alphabet_size: int) -> dict:
    """class key -> the class's representative word, from ``class_representatives``."""
    reps = (Word.unpack(p, n, alphabet_size) for p in class_representatives(n, alphabet_size))
    return {class_key(rep): rep for rep in reps}


def assert_class_invariant(coefficient, word: Word, alphabet_size: int) -> None:
    rep = representative_of(word.degree, alphabet_size)[class_key(word)]
    relabelled = run_shape(word)[:2] != run_shape(rep)[:2]
    sign = (-1) ** (word.degree + 1) if relabelled else 1
    assert coefficient(word) == sign * coefficient(rep)


@pytest.mark.parametrize("K, N", [(2, 10), (3, 5)])
@pytest.mark.parametrize("backend", ["series", "dp"])
def test_symmetry_exhaustive(K, N, backend):
    for n in range(1, N + 1):
        coeffs = coefficients(n, K, backend)
        for packed in range(K**n):
            assert_symmetric(lambda w: coeffs[w.pack(K)], Word.unpack(packed, n, K), K)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symmetry_on_random_words(data):
    K = data.draw(st.integers(2, 4), label="K")
    letters = data.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=14), label="letters")
    assert_symmetric(lambda w: bch_coeff_word(w, K), Word(tuple(letters)), K)


@pytest.mark.parametrize("K, N", [(2, 12), (3, 6)])
@pytest.mark.parametrize("backend", ["series", "dp"])
def test_class_invariance_exhaustive(K, N, backend):
    for n in range(1, N + 1):
        coeffs = coefficients(n, K, backend)
        for packed in range(K**n):
            assert_class_invariant(lambda w: coeffs[w.pack(K)], Word.unpack(packed, n, K), K)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_invariance_on_random_words(data):
    K = data.draw(st.integers(2, 4), label="K")
    letters = data.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=14), label="letters")
    assert_class_invariant(lambda w: bch_coeff_word(w, K), Word(tuple(letters)), K)


# five and six letters: the rule's least letters scale with K - 1, which three letters barely exercise
@pytest.mark.parametrize("K, N", [(2, 12), (3, 7), (4, 5), (5, 6), (6, 5)])
def test_class_representatives_are_the_class_minima(K, N):
    for n in range(1, N + 1):
        minima: dict = {}
        for packed in range(K**n):
            minima.setdefault(class_key(Word.unpack(packed, n, K)), packed)
        assert class_representatives(n, K) == sorted(minima.values())


@pytest.mark.parametrize("K", [2, 3, 4])
def test_letters_fit_matches_the_letter_sequences(K):
    # every run boundary changes the letter: the (first letter, rises, falls)
    # the sequences of up to 7 letters make are those _letters_fit accepts
    made = set()
    for length in range(1, 8):
        for letters in product(range(K), repeat=length):
            steps = list(zip(letters, letters[1:]))
            if all(a != b for a, b in steps):
                made.add((letters[0], sum(b > a for a, b in steps), sum(b < a for a, b in steps)))
    for letter in range(K):
        for rises in range(7):
            for falls in range(7 - rises):
                assert bch._letters_fit(K, letter, rises, falls) == ((letter, rises, falls) in made)


@pytest.mark.parametrize("K", [2, 3, 4])
def test_smallest_word_is_the_least_word_of_its_run_structure(K):
    # both orders of every class: the least word with those run lengths, rises and falls, or None
    for n in range(1, 8):
        least: dict = {}
        for packed in range(K**n):
            least.setdefault(run_shape(Word.unpack(packed, n, K)), packed)
        for lengths in partitions(n):
            for asc in range(len(lengths)):
                desc = len(lengths) - 1 - asc
                expected = least.get((asc, desc, tuple(sorted(lengths))))
                assert bch._smallest_word(lengths, asc, desc, K) == expected, (lengths, asc, desc)


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_orders_are_those_the_words_make(K):
    # the (rises, falls) with rises >= falls of the words of 7 letters, by run count (7 letters reach
    # every run count through 7, by a longer first run), are _orders' closed form
    made: dict = {}
    for letters in product(range(K), repeat=7):
        steps = [(a, b) for a, b in zip(letters, letters[1:]) if a != b]
        rises = sum(b > a for a, b in steps)
        falls = len(steps) - rises
        if rises >= falls:
            made.setdefault(len(steps) + 1, set()).add((rises, falls))
    for runs in range(1, 8):
        assert sorted(made[runs]) == sorted(bch._orders(runs, K)), runs


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_orders_are_the_closed_form(K):
    # the falls cut the rises into falls + 1 stretches from letter 0, each climbing at most K - 1:
    # rises <= (K - 1) * (falls + 1), that is runs <= K * (falls + 1)
    for runs in range(1, 13):
        closed_form = [(runs - 1 - falls, falls) for falls in range((runs + 1) // 2) if runs <= K * (falls + 1)]
        assert bch._orders(runs, K) == closed_form, runs


def test_class_representatives_count_partitions():
    # two letters: one class per partition of n, p(n) words
    for n in range(1, 26):
        assert len(class_representatives(n, 2)) == partition_count(n)
    # the K=2 scan of degrees 1..13 computes 372 words instead of 16,382
    assert sum(len(class_representatives(n, 2)) for n in range(1, 14)) == 372
    # counted without listing, through the last degree within the scan budget
    assert [class_count(n, 2) for n in range(1, 71)] == [partition_count(n) for n in range(1, 71)]
    for reject in (class_representatives, class_count):
        with pytest.raises(ValueError):
            reject(0, 2)


@pytest.mark.parametrize("K, N", [(2, 21), (3, 14), (4, 11), (5, 9), (6, 8), (7, 7)])
def test_class_count_is_the_number_of_representatives(K, N):
    for n in range(1, N + 1):
        assert class_count(n, K) == len(class_representatives(n, K)), n


def full_scan_report(n: int, K: int, backend: str = "dp") -> DenominatorReport:
    """The report reduced word by word over every word of the degree."""
    observed, largest, witness = 1, 0, 0
    for packed, c in enumerate(coefficients(n, K, backend)):
        observed = lcm(observed, c.denominator)
        if c.denominator > largest:  # the first word of maximal denominator
            largest, witness = c.denominator, packed
    common, _ = common_denominator(n)
    return DenominatorReport(
        degree=n,
        alphabet_size=K,
        d_n=compute_dn(n)[0],
        common_denominator=common,
        observed_lcm=observed,
        witness_max=Word.unpack(witness, n, K),
    )


@pytest.mark.parametrize("K, N", [(2, 11), (3, 6), (4, 5)])
def test_reduced_dp_report_equals_full_scan(K, N):
    for n in range(1, N + 1):
        assert degree_report(n, K, "dp") == full_scan_report(n, K)


@pytest.mark.parametrize("K, N", [(2, 12), (3, 7)])
@pytest.mark.parametrize("backend", ["series", "dp"])
def test_degree_report_equals_per_word_reducer(K, N, backend):
    # the report reduces over distinct denominators; the reference, every word
    for n in range(1, N + 1):
        assert degree_report(n, K, backend) == full_scan_report(n, K, backend)


def full_scan_goldberg(n_max: int) -> list[GoldbergDegreeResult]:
    """The Goldberg check read word by word, stopping at the first failing word."""
    results = []
    for n in range(4, n_max + 1):
        candidate = goldberg_denominator(n)
        result = GoldbergDegreeResult(n, candidate, None, None)
        for packed, c in enumerate(coefficients(n, 2, "dp")):
            if candidate % c.denominator:
                result = GoldbergDegreeResult(n, candidate, Word.unpack(packed, n, 2), c.denominator)
                break
        results.append(result)
    return results


@pytest.mark.parametrize("backend", ["series", "dp", "both"])
def test_goldberg_check_equals_full_scan(backend):
    assert [goldberg_check(n, backend=backend) for n in range(4, 13)] == full_scan_goldberg(12)


def test_dp_report_computes_one_word_per_class(monkeypatch):
    # counts the words either DP kernel evaluates: the integer one computes
    # the class representatives, bch_coeff_word every word
    computed = []

    def counting(kernel):
        def count(word, *alphabet_size):
            computed.append(word.pack(2))
            return kernel(word, *alphabet_size)

        return count

    monkeypatch.setattr(bch, "_scaled_bch_coeff_word", counting(bch._scaled_bch_coeff_word))
    monkeypatch.setattr(bch, "bch_coeff_word", counting(bch_coeff_word))
    degree_report(9, 2, "dp")
    assert computed == class_representatives(9, 2)
    computed.clear()
    degree_report(9, 2, "both")  # the cross-check stays unreduced
    assert computed == list(range(2**9))
    computed.clear()
    for n in range(4, 10):  # so does the Goldberg check, degrees 4..9
        goldberg_check(n, backend="dp")
    assert computed == [packed for n in range(4, 10) for packed in class_representatives(n, 2)]
    computed.clear()
    for n in range(4, 10):
        goldberg_check(n, backend="both")
    assert computed == [packed for n in range(4, 10) for packed in range(2**n)]


def test_degree_coefficients_of_chosen_words():
    words = [5, 0, 31]
    full = degree_coefficients(5, 2, "series")
    for backend in ("series", "dp", "both"):
        assert degree_coefficients(5, 2, backend, words=words) == [full[p] for p in words]
    with pytest.raises(ValueError):
        degree_coefficients(5, 2, "series", words=[-1])
    with pytest.raises(ValueError):
        degree_coefficients(5, 2, "dp", words=[32])
