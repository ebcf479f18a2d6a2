"""Acceptance suite: every stated criterion, exact arithmetic, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Criterion 8 concerns the claim that every degree-(p+1)
numerator outside the zero set is congruent to (p-1)/2 * d_{p+1} mod p.
That uniform form is false for every odd prime p: word reversal maps
log(e^A e^B) to -log(e^-A e^-B), so at even degree a(rev w) = -a(w), and
reversal sends words A...B (residue r) to words B...A (residue -r), with
r != 0 mod p.  Like criterion 9 for the Goldberg candidate, the test
asserts this refutation and its exact counterexample; the corrected
sign-split law is ``test_supplement_prime_plus_one_sign_split``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from bchdenom import bch, numtheory
from bchdenom.freealgebra import Word, all_words, bch_coeff_word

GOLDEN_DIR = Path(__file__).parent / "data"

D_SEQUENCE = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 12, 3, 30, 10, 210, 42, 330, 30, 60, 30, 546]
KERNEL_SEQUENCE = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330, 30, 30, 30, 546]


@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_d_sequence():
    with criterion(1, "d_n closed form, n = 1..25"):
        started = time.perf_counter()
        assert [numtheory.compute_dn(n)[0] for n in range(1, 26)] == D_SEQUENCE
        assert time.perf_counter() - started < 1.0


def test_criterion_02_kernel_sequence():
    with criterion(2, "square-free kernel, n = 1..25"):
        started = time.perf_counter()
        kernels = [numtheory.squarefree_kernel(n) for n in range(1, 26)]
        assert kernels == KERNEL_SEQUENCE
        differing = [n for n in range(1, 26) if numtheory.compute_dn(n)[0] != kernels[n - 1]]
        assert differing == [15, 23]
        assert time.perf_counter() - started < 1.0


def test_criterion_03_oracle_equivalence():
    with criterion(3, "composition-lcm oracle equals n!*d_n, n = 1..30"):
        started = time.perf_counter()
        for n in range(1, 31):
            assert numtheory.Dn_bruteforce(n) == numtheory.common_denominator(n)[0]
        assert time.perf_counter() - started < 120.0


def test_criterion_04_divisibility(series2_14, series3_8):
    with criterion(4, "every denominator divides n!*d_n (K=2 to 14, K=3 to 8)"):
        started = time.perf_counter()
        for n in range(1, 15):
            assert bch.degree_report(n, 2, series=series2_14).divisibility_ok
        for n in range(1, 9):
            assert bch.degree_report(n, 3, series=series3_8).divisibility_ok
        assert time.perf_counter() - started < 900.0


def test_criterion_05_minimality(series2_14):
    with criterion(5, "denominator lcm equals n!*d_n (K=2, n = 1..14)"):
        for n in range(1, 15):
            report = bch.degree_report(n, 2, series=series2_14)
            assert report.minimal, f"degree {n}: lcm {report.observed_lcm} != {report.common_denominator}"


def alternating_digit_residue(a: int) -> int:
    """Divisibility-rule residue of a mod 11: alternating decimal digit sum."""
    sign = 1 if a >= 0 else -1
    total = 0
    weight = 1
    for digit in reversed(str(abs(a))):
        total += weight * int(digit)
        weight = -weight
    return (sign * total) % 11


def test_criterion_06_degree_11_value_table(series2_14):
    with criterion(6, "degree-11 distinct value table (30 golden rows)"):
        started = time.perf_counter()
        entries = bch.coefficient_value_table(11, 2, series=series2_14)
        assert len(entries) == 30
        golden = json.loads((GOLDEN_DIR / "degree11_golden.json").read_text())
        assert len(golden) == 30
        computed = [
            {
                "h": f"{e.value.numerator}/{e.value.denominator}",
                "denom_factorization": str(e.denominator_factorization),
                "a": str(e.numerator),
            }
            for e in entries
        ]
        assert computed == golden
        by_value = {e.value: e for e in entries}
        assert by_value[Fraction(1, 47900160)].numerator == 5
        assert str(by_value[Fraction(1, 47900160)].denominator_factorization) == "2^9*3^5*5*7*11"
        assert by_value[Fraction(-1, 2772)].numerator == -86400
        assert str(by_value[Fraction(-1, 2772)].denominator_factorization) == "2^2*3^2*7*11"
        # numerators double-checked with the base-10 alternating-sum rule
        for e in entries:
            assert alternating_digit_residue(e.numerator) == e.numerator % 11 == 5
        assert time.perf_counter() - started < 120.0


def test_criterion_07_prime_degree_congruence(series2_14):
    with criterion(7, "prime-degree congruence a_w = -d_p (mod p), p <= 13"):
        for p in (2, 3, 5, 7, 11, 13):
            report = bch.check_corollary_prime(p, series=series2_14)
            assert report.passed, f"p={p}: {len(report.violations)} violations"
            if p == 11:
                assert report.expected_residue == 5


def test_criterion_08_prime_plus_one_congruence(series2_14):
    # Stated criterion: outside the zero set, *all* numerators at degree p+1
    # carry the single residue r = ((p-1)/2)*d_{p+1} mod p.  That uniform
    # form is false for every odd p, by proof: word reversal maps
    # log(e^A e^B) to log(e^B e^A) = -log(e^-A e^-B), so at degree n
    # h(rev w) = (-1)^(n+1) h(w), and at even n = p+1 a(rev w) = -a(w).
    # Reversal sends each word A...B to a word B...A, and r != 0 mod p
    # ((p-1)/2 is a unit and p^1 > s_p(p+1) = 2, so p does not divide
    # d_{p+1}), hence if A...B carries r then B...A carries -r != r.  Like
    # criterion 09, this asserts the refutation exactly: the zero set, the
    # residue r on A...B, the exact sign flip under reversal, and a
    # violation set derived from reversal (not from the report).  The
    # corrected law alone is test_supplement_prime_plus_one_sign_split.
    with criterion(8, "prime-plus-one uniform congruence and zero set"):
        for p in (3, 5, 7, 11, 13):
            n = p + 1
            report = bch.check_corollary_prime_plus_one(p, series=series2_14)
            assert report.exceptional_zero_failures == (), f"p={p}: zero set violated"
            r = ((p - 1) // 2 * numtheory.compute_dn(n)[0]) % p
            assert report.expected_residue == r
            assert r != 0, f"p={p}: the stated residue vanishes"

            common = numtheory.common_denominator(n)[0]
            scaled = [h * common for h in series2_14.tables[n]]
            assert all(x.denominator == 1 for x in scaled)
            numerators = [x.numerator for x in scaled]

            zero_boundary = {Word.from_string("A" + "B" * p), Word.from_string("A" * p + "B")}
            forward = [
                w for w in all_words(n, 2)
                if (w.letters[0], w.letters[-1]) == (0, 1) and w not in zero_boundary
            ]
            assert len(forward) == 2 ** (n - 2) - 2
            expected_violations = set()
            for w in forward:
                a = numerators[w.pack(2)]
                assert a % p == r, f"p={p}: {w.to_string(2)} has residue {a % p}, not {r}"
                rev = Word(w.letters[::-1])
                assert numerators[rev.pack(2)] == -a, f"p={p}: reversal of {w.to_string(2)} does not negate"
                expected_violations.add((rev, -a, (-r) % p))
            assert len(report.violations) == len(expected_violations)
            assert set(report.violations) == expected_violations
            assert not report.passed, f"p={p}: the uniform claim passed"
            if p == 3:
                # the documented counterexample: a(BABA) = 2, residue 2, expected 1
                assert r == 1
                assert (Word.from_string("BABA"), 2, 2) in report.violations
            if p == 13:
                assert r == 11 and len(report.violations) == 4094


def test_criterion_09_goldberg_refutation(series2_14):
    with criterion(9, "Bernoulli-quotient candidate holds to 10, fails at 11"):
        results = [bch.goldberg_check(n, series=series2_14) for n in range(4, 12)]
        for result in results:
            if result.degree <= 10:
                assert result.passed, f"degree {result.degree} unexpectedly fails"
        final = results[-1]
        assert final.degree == 11 and not final.passed
        assert final.witness == Word.from_string("AAAAAAAABBB", 2)
        assert final.witness_denominator == 1247400
        assert final.goldberg_denominator == 526901760
        # the displayed quotient: 526901760/1247400 in lowest terms
        assert final.ratio == Fraction(526901760, 1247400) == Fraction(2112, 5)
        assert final.ratio.denominator != 1


def test_criterion_10_bernoulli_identity():
    with criterion(10, "Bernoulli-polynomial denominator equals the kernel, n = 1..25"):
        started = time.perf_counter()
        for n in range(1, 26):
            assert numtheory.bernoulli_poly_denominator(n) == numtheory.squarefree_kernel(n)
        assert time.perf_counter() - started < 1.0


def test_criterion_11_backend_equivalence(series2_14, series3_8):
    with criterion(11, "series and per-word backends agree (K=2 to 9, K=3 to 5)"):
        for degree in range(1, 10):
            table = series2_14.tables[degree]
            for packed, word in enumerate(all_words(degree, 2)):
                assert bch_coeff_word(word, 2) == table[packed]
        for degree in range(1, 6):
            table = series3_8.tables[degree]
            for packed, word in enumerate(all_words(degree, 3)):
                assert bch_coeff_word(word, 3) == table[packed]


def test_criterion_13_minimality_at_degree_30():
    with criterion(13, "denominator lcm equals n!*d_n at the paper's degree 30 (K=2, per-word DP)"):
        report = bch.degree_report(30, 2, "dp")
        assert report.minimal
        assert report.observed_lcm == numtheory.common_denominator(30)[0]


def test_supplement_prime_plus_one_sign_split(series2_14):
    # Not one of the numbered criteria: the corrected degree-(p+1) law.
    # Outside the zero set, words A...B carry residue (p-1)/2 * d_{p+1} and
    # words B...A the negated residue, consistent with the sign flip of
    # coefficients under word reversal at even degree.
    for p in (3, 5, 7, 11):
        report = bch.check_corollary_prime_plus_one(p, series=series2_14)
        assert report.exceptional_zero_failures == ()
        n = p + 1
        boundary = {2**p - 1, (2**p - 1) * 2, 1, 2**p}
        reversed_words = {
            Word.unpack(packed, n, 2)
            for packed in range(2**n)
            if (packed >> p, packed & 1) == (1, 0) and packed not in boundary
        }
        assert {w for w, _, _ in report.violations} == reversed_words
        negated = (-report.expected_residue) % p
        assert all(residue == negated for _, _, residue in report.violations)


def test_criterion_12_property_suites(series2_14):
    with criterion(12, "composition lemmas, multinomial valuations, collapse"):
        # minimal digit-sum excess vanishes for k <= s_p(n), witnessed constructively
        for p in (2, 3, 5):
            for n in range(1, 17):
                s = numtheory.digit_sum(n, p)
                for k in range(1, min(s, n) + 1):
                    assert numtheory.hp_min(n, k, p) == 0
                    parts = numtheory.constructive_partition(n, p, k)
                    assert len(parts) == k
                    assert sum(parts) == n
                    assert all(j >= 1 for j in parts)
                    assert sum(numtheory.digit_sum(j, p) for j in parts) == s
        # k = p^(l+m)*x beyond the digit sum forces excess >= m
        for p in (2, 3):
            for n in range(1, 17):
                s = numtheory.digit_sum(n, p)
                l = 0
                while p ** (l + 1) <= s:
                    l += 1
                for k in range(1, n + 1):
                    if k <= s:
                        continue
                    t = numtheory.padic_valuation(k, p)
                    m = t - l
                    if m >= 1:
                        assert numtheory.hp_min(n, k, p) >= m
        # multinomial valuations: nonnegative integers, exhaustively
        for p in (2, 3, 5, 7):
            for n in range(1, 13):
                for parts in numtheory.compositions(n):
                    assert numtheory.multinomial_valuation(n, parts, p) >= 0
        # collapsing both letters onto one: log(e^A e^A) = 2A
        assert sum(series2_14.tables[1]) == 2
        for n in range(2, 15):
            assert sum(series2_14.tables[n]) == 0
