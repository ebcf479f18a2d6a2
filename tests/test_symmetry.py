"""Reversal/relabelling symmetry of the coefficients, and the orbit-reduced scan.

Reversing a word, or relabelling its letters i -> K-1-i, multiplies its
coefficient by (-1)^(n+1).  The per-word-DP degree report relies on this
to compute one word per orbit, so the identities are checked here on both
backends rather than assumed, and the reduced report is compared with one
built from the full, unreduced scan.
"""

from __future__ import annotations

from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchdenom import bch
from bchdenom.bch import DenominatorReport, degree_coefficients, degree_report, orbit_representatives
from bchdenom.freealgebra import Word, bch_coeff_word, bch_series
from bchdenom.numtheory import common_denominator, compute_dn


def reverse(word: Word) -> Word:
    return Word(word.letters[::-1])


def relabel(word: Word, alphabet_size: int) -> Word:
    return Word(tuple(alphabet_size - 1 - l for l in word.letters))


def assert_symmetric(coefficient, word: Word, alphabet_size: int) -> None:
    sign = (-1) ** (word.degree + 1)
    a = coefficient(word)
    assert coefficient(reverse(word)) == sign * a
    assert coefficient(relabel(word, alphabet_size)) == sign * a


@pytest.mark.parametrize("K, N", [(2, 10), (3, 5)])
@pytest.mark.parametrize("backend", ["series", "dp"])
def test_symmetry_exhaustive(K, N, backend):
    series = bch_series(K, N)
    for n in range(1, N + 1):
        coeffs = degree_coefficients(n, K, backend, series=series)
        for packed in range(K**n):
            assert_symmetric(lambda w: coeffs[w.pack(K)], Word.unpack(packed, n, K), K)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_symmetry_on_random_words(data):
    K = data.draw(st.integers(2, 4), label="K")
    letters = data.draw(st.lists(st.integers(0, K - 1), min_size=1, max_size=14), label="letters")
    assert_symmetric(lambda w: bch_coeff_word(w, K), Word(tuple(letters)), K)


@pytest.mark.parametrize("K, N", [(2, 10), (3, 6), (4, 5)])
def test_orbit_representatives_are_the_orbit_minima(K, N):
    for n in range(1, N + 1):
        minima = set()
        for packed in range(K**n):
            word = Word.unpack(packed, n, K)
            orbit = {word, reverse(word), relabel(word, K), relabel(reverse(word), K)}
            minima.add(min(w.pack(K) for w in orbit))
        assert orbit_representatives(n, K) == sorted(minima)


def test_orbit_representatives_count():
    # the K=2 scan of degrees 1..13 computes 4,222 words instead of 16,382
    assert sum(len(orbit_representatives(n, 2)) for n in range(1, 14)) == 4222
    with pytest.raises(ValueError):
        orbit_representatives(0, 2)


def full_scan_report(n: int, K: int) -> DenominatorReport:
    coeffs = degree_coefficients(n, K, "dp")
    dens = [c.denominator for c in coeffs]
    observed = lcm(*dens)
    common, _ = common_denominator(n)
    return DenominatorReport(
        degree=n,
        alphabet_size=K,
        d_n=compute_dn(n)[0],
        common_denominator=common,
        observed_lcm=observed,
        minimal=observed == common,
        divisibility_ok=common % observed == 0,
        witness_max=Word.unpack(dens.index(max(dens)), n, K),
    )


@pytest.mark.parametrize("K, N", [(2, 11), (3, 6)])
def test_reduced_dp_report_equals_full_scan(K, N):
    for n in range(1, N + 1):
        assert degree_report(n, K, "dp") == full_scan_report(n, K)


def test_dp_report_computes_one_word_per_orbit(monkeypatch):
    computed = []

    def counting(word, alphabet_size=2):
        computed.append(word.pack(alphabet_size))
        return bch_coeff_word(word, alphabet_size)

    monkeypatch.setattr(bch, "bch_coeff_word", counting)
    degree_report(9, 2, "dp")
    assert computed == orbit_representatives(9, 2)
    computed.clear()
    degree_report(9, 2, "both")  # the cross-check stays unreduced
    assert computed == list(range(2**9))


def test_degree_coefficients_of_chosen_words():
    words = [5, 0, 31]
    full = degree_coefficients(5, 2, "series")
    for backend in ("series", "dp", "both"):
        assert degree_coefficients(5, 2, backend, words=words) == [full[p] for p in words]
    with pytest.raises(ValueError):
        degree_coefficients(5, 2, "series", words=[-1])
    with pytest.raises(ValueError):
        degree_coefficients(5, 2, "dp", words=[32])
