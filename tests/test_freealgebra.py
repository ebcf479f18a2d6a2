"""Unit tests for words, truncated series arithmetic, and the two backends."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bchdenom import errors
from bchdenom.errors import BudgetError
from bchdenom.freealgebra import (
    TruncatedSeries,
    Word,
    _scaled_bch_coeff_word,
    all_words,
    bch_coeff_word,
    bch_series,
    series_exp_generator,
    series_log1p,
    series_multiply,
)
from bchdenom.numtheory import bernoulli_numbers


def W(text, alphabet_size=2):
    return Word.from_string(text, alphabet_size)


# ---------------------------------------------------------------------------
# words and packing


@given(st.data())
def test_pack_round_trips(data):
    K = data.draw(st.integers(min_value=2, max_value=5))
    letters = data.draw(st.lists(st.integers(min_value=0, max_value=K - 1), max_size=10))
    word = Word(tuple(letters))
    assert Word.unpack(word.pack(K), word.degree, K) == word


def test_packed_order_is_lexicographic():
    for K in (2, 3):
        for degree in range(5):
            words = list(all_words(degree, K))
            assert words == sorted(words)
            assert [w.pack(K) for w in words] == list(range(K**degree))


def test_word_strings():
    assert W("AAB").letters == (0, 0, 1)
    assert W("AAB").to_string(2) == "AAB"
    assert Word.from_string("0,0,1", 30).letters == (0, 0, 1)
    assert Word((0, 5, 29)).to_string(30) == "0,5,29"
    assert Word.from_string("5", 27).letters == (5,)  # one letter, no comma
    assert Word((5,)).to_string(27) == "5"
    assert W("").degree == 0


def test_word_is_an_immutable_value():
    word = W("ABA")
    with pytest.raises(AttributeError):
        word.letters = (1,)
    with pytest.raises(AttributeError):
        del word.letters
    assert word.letters == (0, 1, 0)
    same = Word((0, 1, 0))
    assert same == word and same is not word
    assert hash(same) == hash(word)
    assert len({word, same, W("ABB")}) == 2
    assert word != (0, 1, 0)  # a word equals only words
    assert repr(word) == "Word(letters=(0, 1, 0))"
    assert pickle.loads(pickle.dumps(word)) == word == copy.copy(word)


def test_word_order_is_the_order_of_letter_tuples():
    assert W("AB") < W("BA") <= W("BA") < W("BAA")
    assert W("BB") > W("BA") >= W("BA")
    with pytest.raises(TypeError):
        W("AB") < (0, 1)


def test_degree_tables_compare_by_value_and_are_unhashable():
    series = TruncatedSeries.zero(2, 2)
    assert series == TruncatedSeries(2, 2, [[Fraction(0)], [Fraction(0)] * 2, [Fraction(0)] * 4])
    with pytest.raises(TypeError):
        hash(series)
    series.tables[2][1] = Fraction(1, 2)
    assert series != TruncatedSeries.zero(2, 2)
    assert series.coefficient(W("AB")) == Fraction(1, 2)


def test_word_string_rejects_bad_input():
    with pytest.raises(ValueError):
        W("AXB")  # X is outside a two-letter alphabet
    with pytest.raises(ValueError):
        W("ab")
    with pytest.raises(ValueError):
        Word.from_string("0,2", 2)
    with pytest.raises(ValueError):
        W("ABC")  # C needs alphabet size 3


def test_series_needs_k_to_the_n_coefficients_at_every_degree():
    tables = [[Fraction(0)] * 3**n for n in range(4)]
    assert TruncatedSeries(3, 3, tables) == TruncatedSeries.zero(3, 3)
    for bad in (
        [*tables[:2], tables[2][:-1], tables[3]],  # a middle degree one short
        [*tables[:2], tables[3]],  # degree 2 missing
        tables[:3],  # the top degree missing
    ):
        with pytest.raises(ValueError, match=r"K\^n coefficients"):
            TruncatedSeries(3, 3, bad)


# ---------------------------------------------------------------------------
# series arithmetic


def random_series(K, N, seed, density=0.6):
    rng = random.Random(seed)
    series = TruncatedSeries.zero(K, N)
    for table in series.tables:
        for i in range(len(table)):
            if rng.random() < density:
                table[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return series


def test_series_exp_generator():
    e_a = series_exp_generator(0, 5, 2)
    assert e_a.coefficient(W("AAA")) == Fraction(1, 6)
    assert e_a.coefficient(W("AB")) == 0
    assert e_a.constant_term == 1


def test_series_exp_generator_one_letter_alphabet():
    e_a = series_exp_generator(0, 4, 1)
    assert e_a.tables == [[Fraction(1, factorial(n))] for n in range(5)]


def test_series_multiply_exponentials():
    e_a = series_exp_generator(0, 3, 2)
    e_b = series_exp_generator(1, 3, 2)
    product = series_multiply(e_a, e_b)
    assert product.coefficient(W("AB")) == 1
    square = series_multiply(e_a, e_a)
    assert square.coefficient(W("AA")) == 2  # e^{2A}: 2^2/2!


def test_series_multiply_identity_and_associativity():
    one = TruncatedSeries.constant(Fraction(1), 2, 4)
    x = random_series(2, 4, seed=11)
    y = random_series(2, 4, seed=23)
    z = random_series(2, 4, seed=37)
    assert series_multiply(x, one) == x
    assert series_multiply(one, x) == x
    assert series_multiply(series_multiply(x, y), z) == series_multiply(x, series_multiply(y, z))


def test_series_multiply_rejects_mismatch():
    with pytest.raises(ValueError):
        series_multiply(TruncatedSeries.zero(2, 3), TruncatedSeries.zero(3, 3))
    with pytest.raises(ValueError):
        series_multiply(TruncatedSeries.zero(2, 3), TruncatedSeries.zero(2, 4))


def test_series_log1p_single_letter():
    y = TruncatedSeries.zero(2, 7)
    y.tables[1][0] = Fraction(1)  # Y = A
    log = series_log1p(y)
    for k in range(1, 8):
        assert log.coefficient(Word((0,) * k)) == Fraction((-1) ** (k + 1), k)
    assert log.coefficient(W("AB")) == 0


def test_series_log1p_degree_two():
    e_a = series_exp_generator(0, 2, 2)
    e_b = series_exp_generator(1, 2, 2)
    y = series_multiply(e_a, e_b)
    y.tables[0][0] -= 1
    log = series_log1p(y)
    assert log.coefficient(W("AB")) == Fraction(1, 2)
    assert log.coefficient(W("BA")) == Fraction(-1, 2)
    assert log.coefficient(W("AA")) == 0


def test_series_log1p_zero_and_errors():
    zero = TruncatedSeries.zero(2, 3)
    assert series_log1p(zero) == zero
    assert series_log1p(TruncatedSeries.zero(2, 0)) == TruncatedSeries.zero(2, 0)  # degree 0: no Horner step
    with pytest.raises(ValueError):
        series_log1p(TruncatedSeries.constant(Fraction(1), 2, 3))


# ---------------------------------------------------------------------------
# the full series


def fraction_bch_series(K, N):
    """The Fraction Horner loop, built only from the public series arithmetic."""
    product = series_exp_generator(0, N, K)
    for i in range(1, K):
        product = series_multiply(product, series_exp_generator(i, N, K))
    product.tables[0][0] -= 1
    return series_log1p(product)


@pytest.mark.parametrize(
    "K, N",
    [(2, n) for n in range(1, 11)]
    + [(3, n) for n in range(1, 8)]
    + [(4, n) for n in range(1, 5)]
    + [(5, n) for n in range(1, 5)],
)
def test_bch_series_matches_fraction_horner(K, N):
    series = bch_series(K, N)
    reference = fraction_bch_series(K, N)
    for table, expected in zip(series.tables, reference.tables, strict=True):
        assert table == expected
        assert all(type(c) is Fraction for c in table)


@st.composite
def sparse_series(draw, K, N):
    series = TruncatedSeries.zero(K, N)
    for table in series.tables:
        size = len(table)
        entries = draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=size - 1),
                st.fractions(min_value=-4, max_value=4, max_denominator=6),
                max_size=3,
            )
        )
        for packed, value in entries.items():
            table[packed] = value
    return series


@given(st.data())
def test_series_multiply_associative_on_sparse_series(data):
    K = data.draw(st.integers(min_value=2, max_value=3))
    N = data.draw(st.integers(min_value=0, max_value=4))
    x, y, z = (data.draw(sparse_series(K, N)) for _ in range(3))
    assert series_multiply(series_multiply(x, y), z) == series_multiply(x, series_multiply(y, z))


@pytest.mark.parametrize("K, N", [(2, 10), (3, 6)])
def test_bch_series_shares_one_fraction_per_distinct_value(K, N):
    # a degree holds one value per run-length class, built once and shared
    for table in bch_series(K, N).tables:
        assert len({id(c) for c in table}) == len(set(table))


def test_bch_series_degree_one():
    series = bch_series(2, 1)
    assert series.tables[1] == [Fraction(1), Fraction(1)]


def test_bch_series_pinned_degree_11(series2_14):
    assert series2_14.coefficient(W("AAAAAAAABBB")) == Fraction(1, 1247400)


def test_bch_series_three_letters_degree_two():
    series = bch_series(3, 2)
    for i in range(3):
        for j in range(3):
            expected = Fraction(1, 2) if i < j else Fraction(-1, 2) if i > j else 0
            assert series.coefficient(Word((i, j))) == expected


def test_bch_series_validation(monkeypatch):
    with pytest.raises(ValueError):
        bch_series(1, 3)
    with pytest.raises(ValueError):
        bch_series(2, 0)
    monkeypatch.setattr(errors, "SCAN_BUDGET", 1 << 20)
    with pytest.raises(BudgetError, match=f"^series through degree 24 of {2**24} table entries exceeds the scan budget"):
        bch_series(2, 24)


# ---------------------------------------------------------------------------
# per-word backend


def test_bch_coeff_word_examples():
    assert bch_coeff_word(W("AB")) == Fraction(1, 2)
    assert bch_coeff_word(W("BA")) == Fraction(-1, 2)
    assert bch_coeff_word(W("AAAAAAAABBB")) == Fraction(1, 1247400)


def test_bch_coeff_word_pure_powers_vanish():
    for n in range(2, 13):
        assert bch_coeff_word(Word((0,) * n)) == 0
        assert bch_coeff_word(Word((1,) * n)) == 0
    assert bch_coeff_word(Word((0,))) == 1


def test_bch_coeff_word_rejects_empty():
    with pytest.raises(ValueError):
        bch_coeff_word(W(""))


def test_backends_agree_small():
    # four and five letters give blocks of three or more runs, so a block grown leftward
    # starts new run pieces as well as lengthening its first one
    for K, N in [(2, 5), (3, 3), (4, 5), (5, 4)]:
        series = bch_series(K, N)
        for degree in range(1, N + 1):
            for word in all_words(degree, K):
                assert bch_coeff_word(word, K) == series.coefficient(word)


@pytest.mark.parametrize("kernel", [bch_coeff_word, _scaled_bch_coeff_word])
def test_one_descent_words_are_bernoulli_numbers(kernel):
    # coeff(A B^m) = (-1)^m B_m/m! and coeff(B^m A) = B_m/m!, with B_1 = -1/2: words up to
    # degree 31, past the series backend's reach, whose long blocks meet a formula neither
    # backend uses
    bernoulli = bernoulli_numbers(31)
    for m in range(1, 31):
        expected = bernoulli[m] / factorial(m)
        assert kernel(Word((0,) + (1,) * m)) == (-1) ** m * expected, m
        assert kernel(Word((1,) * m + (0,))) == expected, m


@given(st.data())
def test_scaled_dp_matches_fraction_dp(data):
    K = data.draw(st.integers(min_value=2, max_value=5))
    letters = data.draw(st.lists(st.integers(min_value=0, max_value=K - 1), min_size=1, max_size=12))
    word = Word(tuple(letters))
    assert _scaled_bch_coeff_word(word) == bch_coeff_word(word, K)


@pytest.mark.parametrize("K, N", [(2, 10), (3, 6)])
def test_scaled_dp_matches_series_on_every_word(K, N):
    series = bch_series(K, N)
    for degree in range(1, N + 1):
        for word in all_words(degree, K):
            assert _scaled_bch_coeff_word(word) == series.coefficient(word)


def test_substitution_collapse_small():
    series = bch_series(2, 6)
    assert sum(series.tables[1]) == 2
    for degree in range(2, 7):
        assert sum(series.tables[degree]) == 0
