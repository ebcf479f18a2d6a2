"""Unit tests for the integer and p-adic toolbox."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bchdenom import errors
from bchdenom import numtheory as nt
from bchdenom.errors import BudgetError

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def stars_and_bars(n):
    """Independent composition enumeration: bar patterns between n unit cells."""
    for mask in range(2 ** (n - 1)):
        parts = []
        current = 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(current)
                current = 1
            else:
                current += 1
        parts.append(current)
        yield tuple(parts)


def kpart_compositions(n, k):
    """Independent k-part composition enumeration via cut positions."""
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


# ---------------------------------------------------------------------------
# primes, digits, valuations


def test_primes_below_examples():
    assert nt.primes_below(1) == []
    assert nt.primes_below(2) == []
    assert nt.primes_below(12) == [2, 3, 5, 7, 11]


def test_primes_below_matches_trial_division():
    assert nt.primes_below(200) == [p for p in range(200) if nt.is_prime(p)]


def test_primes_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        nt.primes_below(0)


def test_digit_sum_examples():
    assert nt.digit_sum(11, 2) == 3
    assert nt.digit_sum(11, 7) == 5
    assert nt.digit_sum(0, 5) == 0
    for p in SMALL_PRIMES:
        assert nt.digit_sum(1, p) == 1


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15])
def test_digit_sum_rejects_nonprime_base(bad):
    with pytest.raises(ValueError):
        nt.digit_sum(10, bad)


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(SMALL_PRIMES))
def test_padic_expansion_reconstructs(n, p):
    digits = nt.padic_expansion(n, p)
    assert sum(a * p**i for i, a in enumerate(digits)) == n
    assert all(0 <= a < p for a in digits)
    if digits:
        assert digits[-1] != 0
    assert sum(digits) == nt.digit_sum(n, p)


def test_padic_valuation_examples():
    assert nt.padic_valuation(8, 2) == 3
    assert nt.padic_valuation(10, 5) == 1
    assert nt.padic_valuation(165, 3) == 1  # 165 = 3 * 5 * 11


def test_padic_valuation_rejects_zero():
    with pytest.raises(ValueError):
        nt.padic_valuation(0, 3)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from(SMALL_PRIMES),
)
def test_padic_valuation_additive(a, b, p):
    assert nt.padic_valuation(a * b, p) == nt.padic_valuation(a, p) + nt.padic_valuation(b, p)


def test_factorial_valuation_examples():
    assert nt.factorial_valuation(11, 2) == 8
    assert nt.factorial_valuation(11, 3) == 4
    for p in (13, 17, 101):
        assert nt.factorial_valuation(11, p) == 0


def test_factorial_valuation_rejects_composite():
    with pytest.raises(ValueError):
        nt.factorial_valuation(10, 4)


def test_factorial_valuation_legendre_consistency():
    # closed form vs the floor sum, checked independently of the module
    for p in nt.primes_below(51):
        for n in range(201):
            floor_sum = 0
            q = p
            while q <= n:
                floor_sum += n // q
                q *= p
            value = nt.factorial_valuation(n, p)
            assert value == floor_sum
            assert (n - nt.digit_sum(n, p)) % (p - 1) == 0


# ---------------------------------------------------------------------------
# d_n, kernel, common denominator


def test_compute_dn_examples():
    assert nt.compute_dn(1)[0] == 1
    assert nt.compute_dn(2)[0] == 1
    assert nt.compute_dn(11)[0] == 6
    assert nt.compute_dn(13)[0] == 210
    assert nt.compute_dn(25)[0] == 546


def test_compute_dn_factorization_consistent():
    for n in range(1, 61):
        value, factorization = nt.compute_dn(n)
        assert factorization.value() == value
        for p in nt.primes_below(n):
            s = nt.digit_sum(n, p)
            expected = 0
            q = p
            while q <= s:
                expected += 1
                q *= p
            assert factorization.exponent(p) == expected
            assert (factorization.exponent(p) == 0) == (s < p)


def test_squarefree_kernel_examples():
    assert nt.squarefree_kernel(15) == 6
    assert nt.compute_dn(15)[0] == 12
    assert nt.squarefree_kernel(23) == 30
    assert nt.compute_dn(23)[0] == 60
    assert nt.squarefree_kernel(11) == 6


def test_squarefree_kernel_properties():
    for n in range(1, 61):
        kernel = nt.squarefree_kernel(n)
        d_n, factorization = nt.compute_dn(n)
        assert d_n % kernel == 0
        radical = math.prod(p for p, _ in factorization.factors)
        assert kernel == radical
        for p, _ in factorization.factors:
            assert kernel % (p * p) != 0


def test_common_denominator_degree_11():
    value, factorization = nt.common_denominator(11)
    assert value == 239500800
    assert factorization.factors == ((2, 9), (3, 5), (5, 2), (7, 1), (11, 1))


def test_prime_factorization_is_an_immutable_value():
    factorization = nt.PrimeFactorization.of(360)
    with pytest.raises(AttributeError):
        factorization.factors = ()
    assert factorization.factors == ((2, 3), (3, 2), (5, 1))
    same = nt.PrimeFactorization(((2, 3), (3, 2), (5, 1)))
    assert same == factorization and hash(same) == hash(factorization)
    assert len({factorization, same, nt.PrimeFactorization.of(7)}) == 2
    # the classmethod stays in the class namespace, where a tracer can wrap it
    assert isinstance(vars(nt.PrimeFactorization)["of"], classmethod)
    for bad in (((3, 1), (2, 1)), ((2, 0),), ((4, 1),)):
        with pytest.raises(ValueError):
            nt.PrimeFactorization(bad)


def test_padic_expansion_checks_its_digits():
    assert nt.padic_expansion(10, 3) == (1, 0, 1)
    assert nt.padic_expansion(9, 3) == (0, 0, 1)
    for p in SMALL_PRIMES:
        assert nt.padic_expansion(0, p) == ()
    with pytest.raises(ValueError, match="expected a prime"):
        nt.padic_expansion(10, 4)
    with pytest.raises(ValueError, match="n must be >= 0"):
        nt.padic_expansion(-1, 3)


def test_common_denominator_trivial():
    assert nt.common_denominator(1) == (1, nt.PrimeFactorization(()))


def test_common_denominator_never_falls():
    # n! * d_n divides (n+1)! * d_{n+1}, so the gate may size dn's largest value at degrees 1, 2, 4, ...
    values = [nt.common_denominator(n)[0] for n in range(1, 601)]
    assert all(later % value == 0 for value, later in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# compositions and the lcm oracle


def test_compositions_lexicographic():
    assert list(nt.compositions(4)) == [
        (1, 1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 3),
        (2, 1, 1),
        (2, 2),
        (3, 1),
        (4,),
    ]


def test_compositions_counts_and_contents():
    assert list(nt.compositions(0)) == [()]
    for n in range(1, 9):
        found = list(nt.compositions(n))
        assert len(found) == 2 ** (n - 1)
        assert set(found) == set(stars_and_bars(n))


# p(0), ..., p(20): the partition numbers (OEIS A000041)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385, 490, 627]


def test_partitions_counts_and_shape():
    for n, count in enumerate(PARTITION_COUNTS):
        found = list(nt.partitions(n))
        assert len(found) == count
        assert len(set(found)) == count
        for parts in found:
            assert sum(parts) == n
            assert all(j >= 1 for j in parts)
            assert list(parts) == sorted(parts, reverse=True)
    assert list(nt.partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        nt.partitions(-1)


def test_partitions_are_sorted_compositions():
    for n in range(15):
        expected = {tuple(sorted(c, reverse=True)) for c in nt.compositions(n)}
        assert set(nt.partitions(n)) == expected


def test_Dn_bruteforce_equals_lcm_over_compositions():
    for n in range(1, 15):
        expected = 1
        for parts in nt.compositions(n):
            expected = math.lcm(expected, len(parts) * math.prod(map(math.factorial, parts)))
        assert nt.Dn_bruteforce(n) == expected


def test_Dn_bruteforce_never_consults_the_closed_form(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle must not call the closed form")

    for name in (
        "compute_dn", "common_denominator", "digit_sum", "_digit_sum",
        "padic_valuation", "factorial_valuation", "multinomial_valuation",
    ):
        monkeypatch.setattr(nt, name, refuse)
    assert nt.Dn_bruteforce(11) == 239500800
    assert nt.Dn_bruteforce(20) == math.factorial(20) * 42  # d_20 = 42


def test_Dn_bruteforce_small():
    assert nt.Dn_bruteforce(1) == 1
    # independent recomputation over stars-and-bars compositions
    for n in range(1, 11):
        expected = 1
        for parts in stars_and_bars(n):
            expected = math.lcm(expected, len(parts) * math.prod(map(math.factorial, parts)))
        assert nt.Dn_bruteforce(n) == expected
    assert nt.Dn_bruteforce(3) == 12


def test_Dn_bruteforce_degree_11():
    assert nt.Dn_bruteforce(11) == 239500800


def test_Dn_bruteforce_bound(monkeypatch):
    # the oracle's p(n) partitions are held to the one scan budget, counted before any is enumerated
    with pytest.raises(BudgetError, match="^partition enumeration of 71 of 4697205 partitions exceeds the scan budget"):
        nt.Dn_bruteforce(71)
    monkeypatch.setattr(errors, "SCAN_BUDGET", 6)  # p(5) = 7
    with pytest.raises(BudgetError, match="^partition enumeration of 5 of 7 partitions exceeds"):
        nt.Dn_bruteforce(5)
    monkeypatch.setattr(errors, "SCAN_BUDGET", 7)
    assert nt.Dn_bruteforce(5) == 720


def test_partitions_by_parts_match_the_enumeration():
    # p(n, m), the partitions of n into exactly m parts, for m = 0..n; the row sums to p(n)
    for n in range(26):
        row = nt.partition_counts_by_parts(n)
        assert row == [sum(1 for parts in nt.partitions(n) if len(parts) == m) for m in range(n + 1)]
        assert sum(row) == nt.partition_count(n)


def test_partition_count_matches_the_enumeration():
    assert [nt.partition_count(n) for n in range(26)] == [sum(1 for _ in nt.partitions(n)) for n in range(26)]
    # p(70) is the last count within the scan budget of 2^22
    assert nt.partition_count(70) == 4087968 <= errors.SCAN_BUDGET < nt.partition_count(71) == 4697205


# ---------------------------------------------------------------------------
# multinomial valuations, hp_min, constructive partition


def test_multinomial_valuation_examples():
    assert nt.multinomial_valuation(11, [8, 3], 2) == 0
    assert nt.multinomial_valuation(11, [8, 3], 3) == 1
    for p in SMALL_PRIMES:
        assert nt.multinomial_valuation(9, [9], p) == 0


def test_multinomial_valuation_rejects_bad_parts():
    with pytest.raises(ValueError):
        nt.multinomial_valuation(10, [3, 3], 2)
    with pytest.raises(ValueError):
        nt.multinomial_valuation(3, [], 2)
    with pytest.raises(ValueError):
        nt.multinomial_valuation(3, [3, 0], 2)


def test_hp_min_examples():
    assert nt.hp_min(11, 3, 2) == 0
    for p in (2, 3, 5):
        for n in (1, 5, 12):
            assert nt.hp_min(n, 1, p) == 0


def test_hp_min_matches_independent_enumeration():
    for p in (2, 3):
        for n in range(1, 11):
            for k in range(1, n + 1):
                expected = min(
                    sum(nt.digit_sum(j, p) for j in parts)
                    for parts in kpart_compositions(n, k)
                ) - nt.digit_sum(n, p)
                assert nt.hp_min(n, k, p) == expected // (p - 1)
    # the single composition of 4 into 4 parts is (1,1,1,1): excess 4*1 - 1
    assert nt.hp_min(4, 4, 2) == 3


def test_hp_min_bounds():
    with pytest.raises(ValueError):
        nt.hp_min(5, 6, 2)
    with pytest.raises(ValueError):
        nt.hp_min(5, 0, 2)
    with pytest.raises(BudgetError):
        nt.hp_min(71, 3, 2)


def test_constructive_partition_examples():
    assert nt.constructive_partition(11, 2, 3) == [1, 2, 8]
    assert nt.constructive_partition(11, 3, 2) == [1, 10]
    for n in (1, 7, 12):
        for p in (2, 5):
            assert nt.constructive_partition(n, p, 1) == [n]


def test_constructive_partition_rejects_large_k():
    # s_2(8) = 1, so only k = 1 is constructible
    with pytest.raises(ValueError):
        nt.constructive_partition(8, 2, 2)


def test_constructive_partition_is_witness():
    for p in (2, 3, 5):
        for n in range(1, 17):
            s = nt.digit_sum(n, p)
            for k in range(1, s + 1):
                parts = nt.constructive_partition(n, p, k)
                assert len(parts) == k
                assert sum(parts) == n
                assert all(j >= 1 for j in parts)
                assert sum(nt.digit_sum(j, p) for j in parts) == s


# ---------------------------------------------------------------------------
# Bernoulli machinery


def test_bernoulli_numbers_first_values():
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(1, 42),
        Fraction(0),
        Fraction(-1, 30),
        Fraction(0),
        Fraction(5, 66),
    ]
    assert nt.bernoulli_numbers(11) == expected


def fresh_bernoulli(count):
    """B_0, ..., B_{count-1} by the binomial recurrence, run from B_0 on every call."""
    out = [Fraction(1)][:count]
    for m in range(1, count):
        out.append(-sum(math.comb(m + 1, j) * out[j] for j in range(m)) / (m + 1))
    return out


def test_bernoulli_table_grows_once_and_answers_copies(monkeypatch):
    table = [Fraction(1)]  # as in a process that has asked for none yet
    monkeypatch.setattr(nt, "_BERNOULLI", table)
    answers = {}
    for count in (30, 11, 40):
        before = list(table)
        answers[count] = nt.bernoulli_numbers(count)
        # the table only grows: every earlier entry is still the very object it was
        assert len(table) == max(len(before), count) and all(x is y for x, y in zip(before, table))
    for count, answer in answers.items():
        assert answer == fresh_bernoulli(count)
    answers[11].append(Fraction(7))  # a caller's list is its own
    answers[30][0] = Fraction(5)
    assert nt.bernoulli_numbers(12) == fresh_bernoulli(12) and nt.bernoulli_numbers(0) == []


def test_bernoulli_numbers_are_held_to_the_scan_budget(monkeypatch):
    # count^2 terms: the recurrence's, and the polynomial denominators' lcms through count
    monkeypatch.setattr(errors, "SCAN_BUDGET", 100)
    assert len(nt.bernoulli_numbers(10)) == 10
    with pytest.raises(BudgetError, match="^Bernoulli recurrence through B_10 of 121 terms exceeds the scan budget"):
        nt.bernoulli_numbers(11)
    with pytest.raises(BudgetError, match="^Bernoulli recurrence through B_99999 of at least 256 terms exceeds"):
        nt.bernoulli_numbers(100000)


def test_bernoulli_poly_denominator_examples():
    # B_3(x) - B_3 = x^3 - (3/2)x^2 + (1/2)x
    assert nt.bernoulli_poly_denominator(3) == 2
    # B_4(x) - B_4 = x^4 - 2x^3 + x^2 has integer coefficients
    assert nt.bernoulli_poly_denominator(4) == 1
    assert nt.bernoulli_poly_denominator(23) == 30


def test_bernoulli_poly_denominator_is_the_lcm_over_every_term():
    # every k < n, zero B_k included, each C(n, k) from math.comb
    B = fresh_bernoulli(80)
    for n in range(1, 81):
        expected = math.lcm(*((math.comb(n, k) * B[k]).denominator for k in range(n)))
        assert nt.bernoulli_poly_denominator(n) == expected


def test_goldberg_denominator_examples():
    assert nt.goldberg_denominator(4) == 144  # (B_3 + B_2)/4! = (1/6)/24
    assert nt.goldberg_denominator(5) == 3600  # (B_4 + B_3)/5! = (-1/30)/120
    assert nt.goldberg_denominator(11) == 526901760


def test_goldberg_denominator_rejects_low_degrees():
    for n in (0, 1, 2, 3):
        with pytest.raises(ValueError):
            nt.goldberg_denominator(n)


# ---------------------------------------------------------------------------
# PrimeFactorization


def test_prime_factorization_of():
    assert nt.PrimeFactorization.of(720).factors == ((2, 4), (3, 2), (5, 1))
    assert nt.PrimeFactorization.of(1).factors == ()
    assert nt.PrimeFactorization.of(97).factors == ((97, 1),)


@given(st.integers(min_value=1, max_value=10**6))
def test_prime_factorization_round_trip(m):
    assert nt.PrimeFactorization.of(m).value() == m


def test_prime_factorization_str():
    assert str(nt.PrimeFactorization.of(239500800)) == "2^9*3^5*5^2*7*11"
    assert str(nt.PrimeFactorization.of(6)) == "2*3"
    assert str(nt.PrimeFactorization.of(1)) == "1"


def test_prime_factorization_invariants():
    with pytest.raises(ValueError):
        nt.PrimeFactorization(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        nt.PrimeFactorization(((2, 0),))
    with pytest.raises(ValueError):
        nt.PrimeFactorization(((4, 1),))
    assert nt.PrimeFactorization(((2, 3),)).exponent(2) == 3
    assert nt.PrimeFactorization(((2, 3),)).exponent(5) == 0
