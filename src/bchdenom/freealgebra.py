"""Exact coefficient arithmetic for H = log(e^{A_0} e^{A_1} ... e^{A_{K-1}}).

Words over the K-letter alphabet are packed as base-K integers (first
letter most significant), so the packed order of a fixed degree is the
lexicographic order of the words.  A homogeneous component of a series is
a plain list of K^n ``fractions.Fraction`` values indexed by packed word.

Two independent backends compute the same coefficients:

* ``bch_series`` -- full truncated-series arithmetic: the alternating log
  sum of P = e^{A_0} ... e^{A_{K-1}} - 1 in Horner form (the k-th power
  of a constant-free series has no words of degree < k, so the sum stops
  at k = N).  Each Horner step applies the exponential factors to the
  running value one at a time; P itself is never expanded.  Materializes
  every table, but runs on Python integers: a degree-d table is stored
  times d! * lcm(1..N), so multiplying by e^{A_i} only needs the weights
  comb(d, j), and each distinct value of a degree becomes a ``Fraction``
  once, at the end, shared by every entry that holds it.
* ``bch_coeff_word`` -- a per-word dynamic program over prefix lengths
  that never builds tables.  A word has a nonzero coefficient in the
  exponential product only if its letters are nondecreasing ("staircase"
  words), which keeps the transition sparse.  ``_scaled_bch_coeff_word``
  runs the same program on Python integers, scaled by i! at prefix length
  i, and makes one ``Fraction`` per word.

The backends share no arithmetic and are cross-checked in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from ._records import record
from .errors import check_budget

_UPPERCASE = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Word(record("Word", "letters")):
    """An immutable word over generator indices 0..K-1; its length is the degree.

    Words order as their letter tuples, so a degree's words sort lexicographically.
    """

    __slots__ = ()

    def _check(self) -> None:
        if min(self.letters, default=0) < 0:
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
        """Parse 'AAB' (letters A.. for K <= 26) or '0,0,1' (any K; '5' for K > 26)."""
        if alphabet_size > 26 and "," not in text and not text.isdecimal():
            raise ValueError("alphabets beyond 26 letters use comma-separated indices")
        try:
            if "," in text or alphabet_size > 26:
                letters = tuple(int(part) for part in text.split(","))
            else:
                letters = tuple(_UPPERCASE.index(c) for c in text)
        except ValueError:
            raise ValueError(f"malformed word {text!r}") from None
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


class TruncatedSeries(record("TruncatedSeries", "max_degree alphabet_size tables")):
    """A series truncated beyond ``max_degree``: ``tables[n]`` lists the K^n coefficients of degree n by packed word."""

    __slots__ = ()

    def _check(self) -> None:
        if [len(table) for table in self.tables] != [self.alphabet_size**n for n in range(self.max_degree + 1)]:
            raise ValueError("need one table of K^n coefficients per degree n = 0..max_degree")

    @classmethod
    def zero(cls, alphabet_size: int, max_degree: int) -> "TruncatedSeries":
        return cls(max_degree, alphabet_size, [[_ZERO] * alphabet_size**n for n in range(max_degree + 1)])

    @classmethod
    def constant(cls, value: Fraction, alphabet_size: int, max_degree: int) -> "TruncatedSeries":
        series = cls.zero(alphabet_size, max_degree)
        series.tables[0][0] = Fraction(value)
        return series

    @property
    def constant_term(self) -> Fraction:
        return self.tables[0][0]

    def coefficient(self, word: Word) -> Fraction:
        if word.degree > self.max_degree:
            raise ValueError("word degree exceeds truncation degree")
        return self.tables[word.degree][word.pack(self.alphabet_size)]


def series_exp_generator(generator: int, max_degree: int, alphabet_size: int) -> TruncatedSeries:
    """The truncated exponential of a single generator: coeff(A_i^j) = 1/j!."""
    if not 0 <= generator < alphabet_size:
        raise ValueError("generator index out of range")
    series = TruncatedSeries.zero(alphabet_size, max_degree)
    packed = 0  # A_i^n: the base-K number with n digits i
    for n, table in enumerate(series.tables):
        table[packed] = Fraction(1, factorial(n))
        packed = packed * alphabet_size + generator
    return series


def series_multiply(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """Concatenation product, truncated at the shared max degree.

    coeff(w, X*Y) = sum over splits w = u v of coeff(u, X) * coeff(v, Y).
    Only nonzero entries of both factors are visited, which keeps products
    with the exponential series (supported on staircase words) cheap.
    """
    if x.alphabet_size != y.alphabet_size:
        raise ValueError("alphabet size mismatch")
    if x.max_degree != y.max_degree:
        raise ValueError("max degree mismatch")
    K = x.alphabet_size
    top = x.max_degree
    out = TruncatedSeries.zero(K, top)
    nz_y = [[(py, c) for py, c in enumerate(t) if c] for t in y.tables]
    for dx, table in enumerate(x.tables):
        xs = [(px, c) for px, c in enumerate(table) if c]
        for dy, pairs in enumerate(nz_y[: top + 1 - dx]):
            shift = K**dy
            tab = out.tables[dx + dy]
            for px, cx in xs:
                base = px * shift
                for py, cy in pairs:
                    tab[base + py] += cx * cy
    return out


def series_log1p(y: TruncatedSeries) -> TruncatedSeries:
    """log(1 + Y) = sum_{k=1}^{N} (-1)^{k+1}/k * Y^k for constant-free Y.

    Stopping at k = N is exact, not an approximation: Y has no constant
    term, so Y^k contributes nothing below degree k.  Evaluated in Horner
    form, N multiplications by Y in total.
    """
    if y.constant_term != 0:
        raise ValueError("series must have zero constant term")
    N = y.max_degree
    if N == 0:
        return TruncatedSeries.zero(y.alphabet_size, 0)
    horner = TruncatedSeries.constant(Fraction((-1) ** (N + 1), N), y.alphabet_size, N)
    for k in range(N - 1, 0, -1):
        horner = series_multiply(y, horner)
        horner.tables[0][0] += Fraction((-1) ** (k + 1), k)
    return series_multiply(y, horner)


def bch_series(alphabet_size: int, max_degree: int) -> TruncatedSeries:
    """H = log(e^{A_0} ... e^{A_{K-1}}) truncated at ``max_degree``.

    The dense backend: exact, and O(K^N) in memory, so the scan budget is
    enforced up front.  Computes what ``series_log1p`` of P = e^{A_0} ...
    e^{A_{K-1}} - 1 would, but on integer tables: the Horner tables times
    d! * lcm(1..N), where the constants (-1)^{k+1}/k become
    +-lcm(1..N)/k.  A Horner step multiplies by P without expanding it:
    with E_i the left multiplication by e^{A_i}, P X = E_0(E_1(...
    E_{K-1}(X))) - X.  E_i adds comb(T, j) times the degree-(T-j) table
    to the degree-T words that start with A_i^j, for each j >= 1: the
    K^(T-j) entries from packed offset i * (K^j - 1)/(K - 1) * K^(T-j).
    It changes only the words that start with A_i, so P X is built
    letter by letter, from K-1 down to 0, and on the words that start
    with A_i it is what E_i adds there.  The Horner value at step k is
    only needed through degree N - k, since the remaining factors of P
    each raise the degree.  Each distinct value of a degree is reduced to
    a ``Fraction`` once, when the result is built, and every entry
    holding it shares that object.
    """
    if alphabet_size < 2:
        raise ValueError("alphabet size must be >= 2")
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    K = alphabet_size
    check_budget(lambda m: K**m, max_degree, f"series through degree {max_degree}", "table entries")
    N = max_degree
    scale = lcm(*range(1, N + 1))
    horner = [[(-1) ** (N + 1) * scale // N]]
    for k in range(N - 1, -1, -1):
        x = horner  # horner <- P X + c_k
        horner = [[0] * K**T for T in range(len(x) + 1)]
        for i in range(K - 1, -1, -1):
            # Y = E_{i+1}(...(X)): X plus P X on the words starting above A_i
            y = []
            for t, px in zip(x, horner):
                cut = (i + 1) * len(t) // K
                y.append(t[:cut] + [a + b for a, b in zip(t[cut:], px[cut:])] if cut < len(t) else t)
            for T in range(1, len(horner)):
                tab = horner[T]
                head = i  # packed A_i^j
                for j in range(1, T + 1):
                    size = K ** (T - j)
                    lo, w = head * size, comb(T, j)
                    if j == 1:  # the block of every word starting with A_i
                        tab[lo : lo + size] = [w * c for c in y[T - 1]]
                    else:
                        tab[lo : lo + size] = [a + w * c for a, c in zip(tab[lo : lo + size], y[T - j])]
                    head = head * K + i
        if k:
            horner[0][0] = (-1) ** (k + 1) * scale // k

    tables = []
    for d, tab in enumerate(horner):
        den = factorial(d) * scale
        # a coefficient depends only on its word's run-length class, so a
        # degree holds few distinct values: reduce each once, share it
        values = {c: Fraction(c, den) for c in set(tab)}
        values[0] = _ZERO
        tables.append(list(map(values.__getitem__, tab)))
    return TruncatedSeries(N, K, tables)


def bch_coeff_word(word: Word, alphabet_size: int = 2) -> Fraction:
    """Coefficient of one word in H, computed without materializing tables.

    Splits of the word into k nonempty staircase blocks are counted by a
    dynamic program over prefix lengths: f_k(i) sums, over all such splits
    of the length-i prefix, the product of the blocks' coefficients in the
    exponential product.  Then coeff = sum_k (-1)^{k+1}/k * f_k(n).
    Column i holds f_k(i) for every k: f_{k-1}(j) times the coefficient of
    the last block w[j:i], summed for j from i-1 leftward while the block
    is nondecreasing.  Each letter the block gains at its left end starts
    a new run piece, or lengthens the first piece r_1 and divides the
    coefficient 1/(r_1! r_2! ...) by r_1.  Tests hold it to ``bch_series``.

    The step col[k] += f_{k-1}(j) * c skips the ``Fraction`` operations
    that cannot change a value, each exact by itself:

    * a factor that is ``_ONE`` gives the other factor, since x * 1 = x:
      c is ``_ONE`` for every block of distinct letters, and f_{k-1}(j) is
      ``_ONE`` at the start and wherever it took such a c;
    * a cell still holding ``_ZERO`` takes the product, since 0 + x = x
      (a product of nonzero values is never zero, so a cell holds
      ``_ZERO`` until its first term).

    The k-th term of the sum divides f_k(n) by the integer k instead of
    multiplying it by a new ``Fraction((-1)^{k+1}, k)``.
    """
    word._check_alphabet(alphabet_size)
    letters = word.letters
    n = len(letters)
    if n == 0:
        raise ValueError("the empty word has no log coefficient")
    cols = [[_ONE]]  # cols[i][k] = f_k(i), k = 0..i
    for i in range(1, n + 1):
        col = [_ZERO] + cols[i - 1]  # the block w[i-1:i], coefficient 1
        right = letters[i - 1]  # the block's first letter
        piece = 1  # and how often it repeats there
        c = _ONE
        for j in range(i - 2, -1, -1):
            letter = letters[j]
            if letter > right:
                break
            if letter < right:
                right = letter
                piece = 1
            else:
                piece += 1
                c = c / piece
            for k, fj in enumerate(cols[j], 1):
                if fj:
                    product = fj if c is _ONE else c if fj is _ONE else fj * c
                    held = col[k]
                    col[k] = product if held is _ZERO else held + product
        cols.append(col)
    total = _ZERO
    for k, f in enumerate(cols[n][1:], 1):
        if f:
            term = f / k
            total = total + term if k % 2 else total - term
    return total


def _scaled_bch_coeff_word(word: Word) -> Fraction:
    """``bch_coeff_word`` on Python integers, for a nonempty word.

    The same dynamic program, carrying F_k(i) = i! * f_k(i).  A staircase
    block w[j:i] whose runs have the pieces r_1, r_2, ... moves F_{k-1}(j)
    to F_k(i) with the integer weight i!/(j! r_1! r_2! ...).  Column i
    grows it leftward from 1: each letter w[j] the block gains multiplies
    it by (j+1)/r_1, with r_1 the new length of the first piece.  The
    coefficient is sum_k (-1)^{k+1} (L/k) F_k(n) / (L * n!), L = lcm(1..n):
    one ``Fraction`` per word.  Tests hold it to both other routes.
    """
    letters = word.letters
    n = len(letters)
    cols = [[1]]  # cols[i][k] = F_k(i), k = 0..i
    for i in range(1, n + 1):
        col = [0] * (i + 1)
        right = letters[i - 1]  # the block's first letter
        piece = 0  # and how often it repeats there
        weight = 1
        for j in range(i - 1, -1, -1):
            letter = letters[j]
            if letter > right:
                break
            if letter < right:
                right = letter
                piece = 1
            else:
                piece += 1
            weight = weight * (j + 1) // piece  # exact: the new weight is an integer
            for k, f in enumerate(cols[j], 1):
                col[k] += f * weight
        cols.append(col)
    scale = lcm(*range(1, n + 1))
    total = 0
    for k in range(1, n + 1):
        term = scale // k * cols[n][k]
        total += term if k % 2 else -term
    return Fraction(total, scale * factorial(n))
