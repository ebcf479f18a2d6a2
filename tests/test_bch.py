"""Unit tests for the degree-scan reports and congruence checks."""

from __future__ import annotations

from fractions import Fraction
from types import ModuleType

import pytest

import bchdenom
from bchdenom import bch, errors
from bchdenom.bch import (
    CommonDenominatorError,
    TableEntry,
    check_corollary_prime,
    check_corollary_prime_plus_one,
    coefficient_value_table,
    degree_coefficients,
    degree_report,
    goldberg_check,
    numerator_over_common,
)
from bchdenom.errors import BudgetError
from bchdenom.freealgebra import Word, bch_coeff_word, bch_series
from bchdenom.numtheory import PrimeFactorization


def W(text):
    return Word.from_string(text, 2)


@pytest.fixture(scope="module")
def series2_6():
    return bch_series(2, 6)


# ---------------------------------------------------------------------------
# degree reports


def test_degree_report_small_degrees(series2_6):
    expected_d = {1: 1, 2: 1, 3: 2, 4: 1, 5: 6, 6: 2}
    expected_common = {1: 1, 2: 2, 3: 12, 4: 24, 5: 720, 6: 1440}
    for n in range(1, 7):
        report = degree_report(n, 2, series=series2_6)
        assert report.d_n == expected_d[n]
        assert report.common_denominator == expected_common[n]
        assert report.divisibility_ok
        assert report.minimal
        assert report.observed_lcm == expected_common[n]


def test_degree_report_witness_is_lexicographically_first(series2_6):
    report = degree_report(2, 2, series=series2_6)
    assert report.witness_max == W("AB")  # AA has denominator 1


def test_degree_report_backend_invariant(series2_6):
    via_series = degree_report(5, 2, series=series2_6)
    via_dp = degree_report(5, 2, "dp")
    assert via_series == via_dp
    via_both = degree_report(5, 2, "both")
    assert via_both == via_series


def test_degree_report_parallel_matches_serial():
    serial = degree_report(6, 2, "dp", parallelism=1)
    parallel = degree_report(6, 2, "dp", parallelism=2)
    assert serial == parallel


def test_degree_report_budgets(monkeypatch):
    # the scan budget (2^22 words) is the only scan budget
    with pytest.raises(BudgetError):
        degree_report(23, 2)
    monkeypatch.setattr(errors, "SCAN_BUDGET", 3**7)
    with pytest.raises(BudgetError):
        degree_report(8, 3)
    with pytest.raises(ValueError, match="unknown backend"):
        degree_coefficients(3, 2, "bogus")
    with pytest.raises(ValueError, match="unknown backend"):
        degree_coefficients(3, 2, "per-word-dp")  # one name per backend: no aliases


@pytest.mark.parametrize("parallelism", [0, -1])
def test_checks_forward_backend_keywords_to_one_check(parallelism):
    # every check passes its backend keywords to degree_coefficients, which checks them
    for check in (lambda **kw: degree_coefficients(5, 2, **kw), lambda **kw: check_corollary_prime(5, **kw)):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            check(backend="dp", parallelism=parallelism)
    with pytest.raises(TypeError):
        goldberg_check(5, bakend="dp")  # a misspelt keyword is not swallowed


def test_dp_report_budget_counts_class_words(monkeypatch):
    # the class-reduced DP builds no table: its budget counts the words it computes
    classes = len(bch.class_representatives(8, 3))
    series = degree_report(8, 3, "series")
    monkeypatch.setattr(errors, "SCAN_BUDGET", classes)
    assert degree_report(8, 3, "dp") == series
    monkeypatch.setattr(errors, "SCAN_BUDGET", classes - 1)
    with pytest.raises(BudgetError, match=f"scan of {classes} words of degree 8"):
        degree_report(8, 3, "dp")
    monkeypatch.setattr(errors, "SCAN_BUDGET", 3**7)
    for backend in ("series", "both"):
        with pytest.raises(BudgetError, match=r"3\^8 words"):
            degree_report(8, 3, backend)
    with pytest.raises(BudgetError):
        degree_coefficients(8, 3, "dp")  # every word, as for table


def test_dp_report_refuses_before_listing_a_class(monkeypatch):
    # p(71) classes are counted, not listed: the partitions the listing walks are never asked for
    listed = []
    monkeypatch.setattr(bch.numtheory, "partitions", lambda n: listed.append(n) or iter(()))
    with pytest.raises(BudgetError, match="scan of 4697205 words of degree 71 exceeds"):
        degree_report(71, 2, "dp")
    assert listed == []


@pytest.mark.parametrize("words", [None, bch.class_representatives(9)])
def test_dp_shares_one_fraction_per_value_as_the_series_does(words):
    # serially, as on the series, a degree's objects are as many as its values
    coeffs = degree_coefficients(9, 2, "dp", words=words)
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)


def test_degree_coefficients_rejects_short_series(series2_6):
    with pytest.raises(ValueError):
        degree_coefficients(8, 2, series=series2_6)
    with pytest.raises(ValueError):
        degree_coefficients(3, 3, series=series2_6)


def test_denominator_report_is_immutable(series2_6):
    report = degree_report(6, 2, series=series2_6)
    with pytest.raises(AttributeError):
        report.minimal = False
    assert report.minimal is True
    assert report == degree_report(6, 2, bch.DP_BACKEND)
    assert hash(report) == hash(degree_report(6, 2, bch.DP_BACKEND))


def test_report_json_contract(series2_6):
    data = degree_report(6, 2, series=series2_6).to_json_dict()
    assert list(data) == [
        "degree",
        "alphabet",
        "d_n",
        "common_denominator",
        "observed_lcm",
        "minimal",
        "divisibility_ok",
        "witness",
    ]
    assert data["degree"] == 6
    assert data["alphabet"] == 2
    assert data["d_n"] == "2"
    assert data["common_denominator"] == "1440"
    assert data["observed_lcm"] == "1440"
    assert data["minimal"] is True
    assert data["divisibility_ok"] is True
    assert isinstance(data["witness"], str) and len(data["witness"]) == 6


# ---------------------------------------------------------------------------
# numerators over the common denominator


def test_numerator_over_common_examples():
    assert numerator_over_common(W("AB")) == 1
    assert numerator_over_common(W("AAAAAAAABBB")) == 192
    assert numerator_over_common(W("AAAA")) == 0


def test_numerator_over_common_fatal_on_non_divisor():
    with pytest.raises(CommonDenominatorError):
        numerator_over_common(W("AB"), coefficient=Fraction(1, 7))
    with pytest.raises(CommonDenominatorError):
        TableEntry.of(W("AB"), Fraction(1, 7), 2)


def test_table_entry_prices_one_coefficient():
    word = W("AAAAAAAABBB")
    entry = TableEntry.of(word, bch_coeff_word(word), 2)
    assert entry == TableEntry(Fraction(1, 1247400), PrimeFactorization.of(1247400), 192, word)
    assert str(entry.denominator_factorization) == "2^3*3^4*5^2*7*11"


def test_package_exports_each_imported_name_and_no_submodule():
    for name in bchdenom.__all__:
        assert not isinstance(getattr(bchdenom, name), ModuleType), name
    assert {"bch", "errors", "freealgebra", "numtheory"}.isdisjoint(bchdenom.__all__)


# ---------------------------------------------------------------------------
# congruence checks


def test_corollary_prime_two():
    report = check_corollary_prime(2)
    assert report.expected_residue == 1
    assert report.passed
    assert numerator_over_common(W("AB")) % 2 == 1
    assert numerator_over_common(W("BA")) % 2 == 1


def on_every_backend(*cases):
    """Each case with the scan keywords of the series backend, under its own id, then of dp and both.

    The series shares one ``Fraction`` per value, and the per-word DP on a
    pool one per value in each chunk it sends, so a congruence scan meets
    several objects of one value.
    """
    scans = {"series": {}, "dp": {"backend": "dp", "parallelism": 2}, "both": {"backend": "both"}}
    return [
        pytest.param(*case, scan, id="-".join(map(str, case + ((name,) if name != "series" else ()))))
        for name, scan in scans.items()
        for case in cases
    ]


@pytest.mark.parametrize("p,expected,scan", on_every_backend((3, 1), (5, 4), (7, 1)))
def test_corollary_prime_small(p, expected, scan):
    report = check_corollary_prime(p, **scan)
    assert report.expected_residue == (-bch.compute_dn(p)[0]) % p == expected
    assert report.passed
    assert report.degree == p and report.modulus == p


def test_corollary_prime_validation():
    with pytest.raises(ValueError):
        check_corollary_prime(4)
    with pytest.raises(BudgetError):
        check_corollary_prime(23)  # 2^23 words, over the table budget


def test_corollary_prime_plus_one_p3_reports_reversed_words():
    # The uniform residue claim is refuted by computation: words that start
    # with B and end with A carry the negated residue (reversal flips the
    # sign of a coefficient at even degree).  The check reports exactly
    # those words as violations; the zero set holds.
    report = check_corollary_prime_plus_one(3)
    assert report.degree == 4
    assert report.expected_residue == 1  # (3-1)/2 * d_4 = 1
    assert report.exceptional_zero_failures == ()
    assert [(w, a) for w, a, _ in report.violations] == [(W("BABA"), 2), (W("BBAA"), -1)]
    assert all(residue == 2 for _, _, residue in report.violations)
    assert not report.passed


@pytest.mark.parametrize("p,scan", on_every_backend((3,), (5,)))
def test_prime_plus_one_congruence_sign_split(p, scan):
    # What does hold at degree p+1: outside the zero set, words A...B have
    # numerator residue (p-1)/2 * d_{p+1}, words B...A the negated residue.
    report = check_corollary_prime_plus_one(p, **scan)
    plus = report.expected_residue
    minus = (-plus) % p
    violating_words = {w for w, _, _ in report.violations}
    n = p + 1
    boundary = {2**p - 1, (2**p - 1) * 2, 1, 2**p}
    expected_violations = {
        Word.unpack(packed, n, 2)
        for packed in range(2**n)
        if (packed >> p, packed & 1) == (1, 0) and packed not in boundary
    }
    assert violating_words == expected_violations
    assert all(residue == minus for _, _, residue in report.violations)
    assert plus != minus


@pytest.mark.parametrize("backend", ["series", "dp"])
def test_congruence_scan_reports_a_nonzero_word_of_the_zero_set(monkeypatch, backend):
    real = bch.degree_coefficients

    def nonzero_power(n, *args, **kwargs):
        coeffs = list(real(n, *args, **kwargs))
        coeffs[0] = coeffs[1]  # A^5 takes the value, and on the series the object, of AAAAB
        return coeffs

    monkeypatch.setattr(bch, "degree_coefficients", nonzero_power)
    report = check_corollary_prime(5, backend=backend)
    assert report.exceptional_zero_failures == (W("AAAAA"),)
    assert report.violations == () and not report.passed


def test_corollary_exceptional_words_vanish():
    # the four boundary words of the degree-(p+1) zero set, p = 3 and 5
    for p in (3, 5):
        for text in ("A" + "B" * p, "B" * p + "A", "A" * p + "B", "B" + "A" * p):
            assert bch_coeff_word(W(text)) == 0
    # and every word with equal first and last letter at degree 4
    for packed in range(16):
        word = Word.unpack(packed, 4, 2)
        if word.letters[0] == word.letters[-1]:
            assert bch_coeff_word(word) == 0


def test_corollary_prime_plus_one_validation():
    with pytest.raises(ValueError):
        check_corollary_prime_plus_one(2)
    with pytest.raises(ValueError):
        check_corollary_prime_plus_one(9)


# ---------------------------------------------------------------------------
# the Bernoulli-quotient candidate


def test_goldberg_check_low_degrees(series2_6):
    results = [goldberg_check(n, series=series2_6) for n in range(4, 7)]
    assert [r.degree for r in results] == [4, 5, 6]
    assert all(r.passed for r in results)
    assert results[0].goldberg_denominator == 144
    assert all(r.witness is None and r.ratio is None for r in results)


def test_goldberg_check_validation():
    for n in range(-1, 4):  # the candidate is checked from degree 4 on
        with pytest.raises(ValueError, match="degree must be >= 4"):
            goldberg_check(n)


# ---------------------------------------------------------------------------
# value tables


def test_value_table_degree_two(series2_6):
    entries = coefficient_value_table(2, 2, series=series2_6)
    assert [e.value for e in entries] == [Fraction(1, 2), Fraction(-1, 2)]
    assert entries[0].word == W("AB")
    assert entries[1].word == W("BA")
    assert entries[0].numerator == 1 and entries[1].numerator == -1
    assert str(entries[0].denominator_factorization) == "2"
    # zero values never appear
    assert all(e.value != 0 for e in entries)
