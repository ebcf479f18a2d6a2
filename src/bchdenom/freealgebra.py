"""Exact coefficient arithmetic for H = log(e^{A_0} e^{A_1} ... e^{A_{K-1}}).

Words over the K-letter alphabet are packed as base-K integers (first
letter most significant), so the packed order of a fixed degree is the
lexicographic order of the words.  A homogeneous component of a series is
a dense table of K^n ``fractions.Fraction`` values indexed by packed word.

Two independent backends compute the same coefficients:

* ``bch_series`` -- full truncated-series arithmetic: multiply the
  exponential factors, subtract 1, and run the alternating log sum (the
  k-th power of a constant-free series has no words of degree < k, so the
  sum stops at k = N).  Materializes every table, but runs on Python
  integers: a degree-d table of the exponential product is stored times
  d! (its entries are multinomial coefficients), a degree-d table of the
  log's Horner loop times d! * lcm(1..N).  Multiplying a degree-dx table
  by a degree-dy table then only needs the weight comb(dx+dy, dx), and
  each distinct value of a degree becomes a ``Fraction`` once, at the
  end, shared by every entry that holds it.
* ``bch_coeff_word`` -- a per-word dynamic program over prefix lengths
  that never builds tables.  A word has a nonzero coefficient in the
  exponential product only if its letters are nondecreasing ("staircase"
  words), which keeps the transition sparse.

The backends share no arithmetic and are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .errors import BudgetError

#: Refuse to allocate a degree table with more than this many entries.
DEFAULT_TABLE_BUDGET = 1 << 22

_UPPERCASE = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, order=True)
class Word:
    """An immutable word over generator indices 0..K-1; its length is the degree."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(l < 0 for l in self.letters):
            raise ValueError("letters must be >= 0")

    @property
    def degree(self) -> int:
        return len(self.letters)

    def pack(self, alphabet_size: int) -> int:
        """Base-K integer with the first letter most significant."""
        self._check_alphabet(alphabet_size)
        packed = 0
        for l in self.letters:
            packed = packed * alphabet_size + l
        return packed

    @classmethod
    def unpack(cls, packed: int, degree: int, alphabet_size: int) -> "Word":
        if packed < 0 or packed >= alphabet_size**degree:
            raise ValueError("packed index out of range for degree")
        letters = [0] * degree
        for i in range(degree - 1, -1, -1):
            packed, letters[i] = divmod(packed, alphabet_size)
        return cls(tuple(letters))

    @classmethod
    def from_string(cls, text: str, alphabet_size: int = 2) -> "Word":
        """Parse 'AAB' (letters A.. for K <= 26) or '0,0,1' (any K)."""
        if "," in text:
            letters = tuple(int(part) for part in text.split(","))
        elif alphabet_size <= 26:
            letters = tuple(_UPPERCASE.index(c) if c in _UPPERCASE else -1 for c in text)
            if any(l < 0 for l in letters):
                raise ValueError(f"malformed word {text!r}")
        else:
            raise ValueError("alphabets beyond 26 letters use comma-separated indices")
        word = cls(letters)
        word._check_alphabet(alphabet_size)
        return word

    def to_string(self, alphabet_size: int = 2) -> str:
        if alphabet_size <= 26:
            return "".join(_UPPERCASE[l] for l in self.letters)
        return ",".join(str(l) for l in self.letters)

    def _check_alphabet(self, alphabet_size: int) -> None:
        if any(l >= alphabet_size for l in self.letters):
            raise ValueError(f"word uses letters outside alphabet of size {alphabet_size}")


def all_words(degree: int, alphabet_size: int):
    """Words of one degree in packed (= lexicographic) order."""
    for packed in range(alphabet_size**degree):
        yield Word.unpack(packed, degree, alphabet_size)


@dataclass
class DegreeTable:
    """One homogeneous component: K^degree coefficients indexed by packed word."""

    degree: int
    alphabet_size: int
    coefficients: list[Fraction]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.alphabet_size**self.degree:
            raise ValueError("coefficient table has wrong size")

    @classmethod
    def zeros(cls, degree: int, alphabet_size: int) -> "DegreeTable":
        return cls(degree, alphabet_size, [_ZERO] * alphabet_size**degree)

    def coefficient(self, word: Word) -> Fraction:
        if word.degree != self.degree:
            raise ValueError("word degree does not match table degree")
        return self.coefficients[word.pack(self.alphabet_size)]

    def nonzero_items(self):
        return ((packed, c) for packed, c in enumerate(self.coefficients) if c)


@dataclass
class TruncatedSeries:
    """A series truncated beyond ``max_degree``: one DegreeTable per degree 0..N."""

    max_degree: int
    alphabet_size: int
    tables: list[DegreeTable]

    def __post_init__(self) -> None:
        if len(self.tables) != self.max_degree + 1:
            raise ValueError("need one table per degree 0..max_degree")
        for degree, table in enumerate(self.tables):
            if table.degree != degree or table.alphabet_size != self.alphabet_size:
                raise ValueError("table degrees or alphabets are inconsistent")

    @classmethod
    def zero(cls, alphabet_size: int, max_degree: int) -> "TruncatedSeries":
        tables = [DegreeTable.zeros(n, alphabet_size) for n in range(max_degree + 1)]
        return cls(max_degree, alphabet_size, tables)

    @classmethod
    def constant(cls, value: Fraction, alphabet_size: int, max_degree: int) -> "TruncatedSeries":
        series = cls.zero(alphabet_size, max_degree)
        series.tables[0].coefficients[0] = Fraction(value)
        return series

    @property
    def constant_term(self) -> Fraction:
        return self.tables[0].coefficients[0]

    def coefficient(self, word: Word) -> Fraction:
        if word.degree > self.max_degree:
            raise ValueError("word degree exceeds truncation degree")
        return self.tables[word.degree].coefficient(word)


def staircase_coeff(word: Word, alphabet_size: int = 2) -> Fraction:
    """Coefficient of ``word`` in e^{A_0} ... e^{A_{K-1}}.

    Nonzero exactly for words A_0^{p_0} A_1^{p_1} ... with nondecreasing
    letters, where it is 1 / (p_0! p_1! ...).  The empty word gives 1.
    """
    word._check_alphabet(alphabet_size)
    coeff = _ONE
    last = -1
    run = 0
    for c in word.letters:
        if c < last:
            return _ZERO
        if c == last:
            run += 1
            coeff /= run
        else:
            last = c
            run = 1
    return coeff


def series_exp_generator(generator: int, max_degree: int, alphabet_size: int) -> TruncatedSeries:
    """The truncated exponential of a single generator: coeff(A_i^j) = 1/j!."""
    if not 0 <= generator < alphabet_size:
        raise ValueError("generator index out of range")
    series = TruncatedSeries.zero(alphabet_size, max_degree)
    for n, table in enumerate(series.tables):
        table.coefficients[_power_index(generator, n, alphabet_size)] = Fraction(1, factorial(n))
    return series


def _power_index(generator: int, degree: int, alphabet_size: int) -> int:
    # packed A_i^n: the base-K number with n digits i
    packed = 0
    for _ in range(degree):
        packed = packed * alphabet_size + generator
    return packed


def _nonzero_entries(tables: list[list]) -> list[list[tuple]]:
    """Per degree, the (packed word, coefficient) pairs with a nonzero coefficient."""
    return [[(p, c) for p, c in enumerate(t) if c] for t in tables]


def _accumulate_product(
    out: list[list], nz_x: list[list[tuple]], nz_y: list[list[tuple]], alphabet_size: int,
    *, binomial: bool = False,
) -> None:
    """out[dx+dy] += x[dx] (x) y[dy] for every dx + dy below len(out).

    Tables are coefficient lists indexed by packed word, one per degree
    starting at 0; the factors come as their ``_nonzero_entries``, so a
    fixed factor is listed once for many products, and either may stop
    short of the output's degree.  Only nonzero entries of both factors are
    visited, which is what makes the repeated multiplications in the log
    cheap (the exponential-product series is supported on staircase words
    only).  With ``binomial`` each degree pair is weighted by
    comb(dx+dy, dx): for tables scaled by dx! and dy! that yields the
    product table scaled by (dx+dy)!.
    """
    top = len(out) - 1
    for dx, xs in enumerate(nz_x[: top + 1]):
        if not xs:
            continue
        for dy, pairs in enumerate(nz_y[: top + 1 - dx]):
            if not pairs:
                continue
            weight = comb(dx + dy, dx) if binomial else 1
            shift = alphabet_size**dy
            tab = out[dx + dy]
            for px, cx in xs:
                if weight != 1:
                    cx *= weight
                base = px * shift
                for py, cy in pairs:
                    tab[base + py] += cx * cy


def series_multiply(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Concatenation product, truncated at the shared max degree.

    coeff(w, X*Y) = sum over splits w = u v of coeff(u, X) * coeff(v, Y).
    """
    if x.alphabet_size != y.alphabet_size:
        raise ValueError("alphabet size mismatch")
    if x.max_degree != y.max_degree:
        raise ValueError("max degree mismatch")
    out = TruncatedSeries.zero(x.alphabet_size, x.max_degree)
    _accumulate_product(
        [t.coefficients for t in out.tables],
        _nonzero_entries([t.coefficients for t in x.tables]),
        _nonzero_entries([t.coefficients for t in y.tables]),
        x.alphabet_size,
    )
    return out


def series_log1p(y: TruncatedSeries, max_degree: int | None = None) -> TruncatedSeries:
    """log(1 + Y) = sum_{k=1}^{N} (-1)^{k+1}/k * Y^k for constant-free Y.

    Stopping at k = N is exact, not an approximation: Y has no constant
    term, so Y^k contributes nothing below degree k.  Evaluated in Horner
    form, N multiplications by Y in total.
    """
    if y.constant_term != 0:
        raise ValueError("series must have zero constant term")
    N = y.max_degree if max_degree is None else max_degree
    if N > y.max_degree:
        raise ValueError("cannot extend a series beyond its truncation degree")
    if N < y.max_degree:
        y = TruncatedSeries(N, y.alphabet_size, [t for t in y.tables[: N + 1]])
    if N == 0:
        return TruncatedSeries.zero(y.alphabet_size, 0)
    horner = TruncatedSeries.constant(Fraction((-1) ** (N + 1), N), y.alphabet_size, N)
    for k in range(N - 1, 0, -1):
        horner = series_multiply(y, horner)
        horner.tables[0].coefficients[0] += Fraction((-1) ** (k + 1), k)
    return series_multiply(y, horner)


def bch_series(
    alphabet_size: int, max_degree: int, *, table_budget: int = DEFAULT_TABLE_BUDGET
) -> TruncatedSeries:
    """H = log(e^{A_0} ... e^{A_{K-1}}) truncated at ``max_degree``.

    The dense backend: exact, and O(K^N) in memory, so the table budget is
    enforced up front.  Computes what ``series_log1p`` of the exponential
    product minus 1 would, but on integer tables: the product's degree-d
    table times d!, the Horner tables times d! * lcm(1..N), where the
    constants (-1)^{k+1}/k become +-lcm(1..N)/k.  The Horner value at step
    k is only needed through degree N - k, since the remaining factors of
    the product each raise the degree.  Each distinct value of a degree is
    reduced to a ``Fraction`` once, when the result is built, and every
    entry holding it shares that object.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet size must be >= 2")
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    if alphabet_size**max_degree > table_budget:
        raise BudgetError(
            f"degree table of {alphabet_size}^{max_degree} entries exceeds "
            f"budget {table_budget}"
        )
    K = alphabet_size
    N = max_degree

    def zeros(top: int) -> list[list[int]]:
        return [[0] * K**d for d in range(top + 1)]

    def exp_generator(i: int) -> list[list[int]]:
        tables = zeros(N)
        for d, tab in enumerate(tables):
            tab[_power_index(i, d, K)] = 1
        return tables

    product = exp_generator(0)
    for i in range(1, K):
        factor = product
        product = zeros(N)
        _accumulate_product(
            product, _nonzero_entries(factor), _nonzero_entries(exp_generator(i)), K, binomial=True
        )
    product[0][0] -= 1
    nz_product = _nonzero_entries(product)  # fixed for all N Horner steps

    scale = lcm(*range(1, N + 1))
    horner = [[(-1) ** (N + 1) * scale // N]]
    for k in range(N - 1, -1, -1):
        factor = horner
        horner = zeros(N - k)
        _accumulate_product(horner, nz_product, _nonzero_entries(factor), K, binomial=True)
        if k:
            horner[0][0] += (-1) ** (k + 1) * scale // k

    tables = []
    for d, tab in enumerate(horner):
        den = factorial(d) * scale
        # a coefficient depends only on its word's run-length class, so a
        # degree holds few distinct values: reduce each once, share it
        values = {c: Fraction(c, den) for c in set(tab)}
        values[0] = _ZERO
        tables.append(DegreeTable(d, K, list(map(values.__getitem__, tab))))
    return TruncatedSeries(N, K, tables)


def _staircase_rows(letters: tuple[int, ...]) -> list[list[Fraction]]:
    # rows[j] holds the product-series coefficients of the subwords
    # w[j:j+1], w[j:j+2], ... for as long as the letters stay nondecreasing;
    # beyond the first descent every longer subword has coefficient 0.
    n = len(letters)
    rows = []
    for j in range(n):
        row = []
        coeff = _ONE
        last = -1
        run = 0
        for i in range(j, n):
            c = letters[i]
            if c < last:
                break
            if c == last:
                run += 1
                coeff /= run
            else:
                last = c
                run = 1
            row.append(coeff)
        rows.append(row)
    return rows


def bch_coeff_word(word: Word, alphabet_size: int = 2) -> Fraction:
    """Coefficient of one word in H, computed without materializing tables.

    Splits of the word into k nonempty staircase blocks are counted by a
    dynamic program over prefix lengths: f_k(i) sums, over all such splits
    of the length-i prefix, the product of the blocks' coefficients in the
    exponential product.  Then coeff = sum_k (-1)^{k+1}/k * f_k(n).
    Agrees with extraction from ``bch_series`` (enforced by tests).
    """
    word._check_alphabet(alphabet_size)
    n = word.degree
    if n == 0:
        raise ValueError("the empty word has no log coefficient")
    rows = _staircase_rows(word.letters)
    prev = [_ZERO] * (n + 1)
    prev[0] = _ONE
    total = _ZERO
    for k in range(1, n + 1):
        cur = [_ZERO] * (n + 1)
        alive = False
        for j in range(k - 1, n):
            fj = prev[j]
            if not fj:
                continue
            alive = True
            for offset, c in enumerate(rows[j]):
                cur[j + 1 + offset] += fj * c
        if not alive:
            break
        if cur[n]:
            total += Fraction((-1) ** (k + 1), k) * cur[n]
        prev = cur
    return total
