"""Ree's shuffle law: H = log(e^{A_0} ... e^{A_{K-1}}) is a Lie element, so its shuffle sums vanish.

For nonempty words u and v, the sum of h_w over the words w of the shuffle product u ш v, each
counted as often as it arises, is 0 (R. Ree, Ann. of Math. 68 (1958) 210-220; C. Reutenauer, Free
Lie Algebras, 1993).  No backend encodes the law: each computes the coefficients of the
same logarithm, so a fault they shared would pass their agreement, but not this.  It cannot see a
sign on all of H, because -H is a Lie element too; the pinned values in ``test_freealgebra.py`` do.
"""

from __future__ import annotations

from itertools import product
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchdenom.freealgebra import Word, _scaled_bch_coeff_word, bch_coeff_word, bch_series


def shuffle_product(u: tuple[int, ...], v: tuple[int, ...], K: int) -> dict[int, int]:
    """The words of u ш v, packed, each with the number of ways it arises.

    A shuffle is a lattice path from (0, 0) to (|u|, |v|) whose steps take the next letter of u or
    of v.  ``row[j]`` holds the packed prefixes of the paths through (i, j), with their
    multiplicities, as i runs over u.
    """

    def extend(prefixes: dict[int, int], letter: int, into: dict[int, int]) -> dict[int, int]:
        for packed, count in prefixes.items():
            key = packed * K + letter
            into[key] = into.get(key, 0) + count
        return into

    row = [{0: 1}]
    for letter in v:
        row.append(extend(row[-1], letter, {}))
    for a in u:
        new = [extend(row[0], a, {})]
        for j, b in enumerate(v):  # (i + 1, j + 1) is reached from (i, j + 1) by a and from (i + 1, j) by b
            new.append(extend(new[j], b, extend(row[j + 1], a, {})))
        row = new
    return row[-1]


def test_shuffle_product_counts_every_path():
    # AB ш A = 2 AAB + ABA; the multiplicities of u ш v add up to the C(|u|+|v|, |u|) paths
    assert shuffle_product((0, 1), (0,), 2) == {0b001: 2, 0b010: 1}
    for u, v in [((0, 1, 2), (2, 0)), ((1,) * 4, (0, 1, 0)), ((0,), (1,) * 6)]:
        assert sum(shuffle_product(u, v, 3).values()) == comb(len(u) + len(v), len(u))


def _assert_shuffle_sums_vanish(table, n: int, K: int) -> int:
    """Check every shuffle sum of the degree-n coefficients ``table`` (indexed by packed word); count the pairs."""
    scale = lcm(*(h.denominator for h in table))  # integers: exact, and quicker to add than Fractions
    scaled = [h.numerator * (scale // h.denominator) for h in table]
    pairs = 0
    for a in range(1, n):
        for u in product(range(K), repeat=a):
            for v in product(range(K), repeat=n - a):
                total = sum(count * scaled[w] for w, count in shuffle_product(u, v, K).items())
                assert total == 0, (Word(u).to_string(K), Word(v).to_string(K))
                pairs += 1
    return pairs


def _every_word(kernel, N: int, K: int) -> dict[int, list]:
    return {n: [kernel(Word.unpack(packed, n, K)) for packed in range(K**n)] for n in range(2, N + 1)}


#: each backend's tables of every word, through the last degree checked: (tables(N, K), K, N, pairs)
TABLES = {
    "series-K2": (lambda N, K: bch_series(K, N).tables, 2, 10, 16_388),
    "series-K3": (lambda N, K: bch_series(K, N).tables, 3, 6, 4_923),
    "bch_coeff_word": (lambda N, K: _every_word(lambda w: bch_coeff_word(w, K), N, K), 2, 8, 3_076),
    "_scaled_bch_coeff_word": (lambda N, K: _every_word(_scaled_bch_coeff_word, N, K), 2, 8, 3_076),
}


@pytest.mark.parametrize("tables, K, N, pairs", TABLES.values(), ids=TABLES.keys())
def test_every_shuffle_sum_vanishes(tables, K, N, pairs):
    tables = tables(N, K)
    assert sum(_assert_shuffle_sums_vanish(tables[n], n, K) for n in range(2, N + 1)) == pairs


@st.composite
def _shuffle_pairs(draw):
    """An alphabet size K in 2..4 and two nonempty words u, v over it with |u| + |v| <= 14."""
    K, n = draw(st.integers(2, 4)), draw(st.integers(2, 14))
    a = draw(st.integers(1, n - 1))
    u, v = (tuple(draw(st.lists(st.integers(0, K - 1), min_size=m, max_size=m))) for m in (a, n - a))
    return K, u, v


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_shuffle_pairs())
def test_random_shuffle_sums_vanish_on_the_per_word_dp(pair):
    K, u, v = pair
    n = len(u) + len(v)
    total = sum(count * bch_coeff_word(Word.unpack(w, n, K), K) for w, count in shuffle_product(u, v, K).items())
    assert total == 0
