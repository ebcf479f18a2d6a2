"""Integer and p-adic building blocks for the denominator analysis.

Everything in this module is exact: integers are arbitrary precision and
rationals are ``fractions.Fraction``.  The two central quantities are

* ``compute_dn`` -- the closed-form sequence d_n, a product over primes
  p < n of p raised to ``max{t : p^t <= s_p(n)}`` where s_p(n) is the
  base-p digit sum of n.  n! * d_n is the common denominator for the
  degree-n coefficients of log(e^A e^B).
* ``Dn_bruteforce`` -- an independent oracle that rebuilds the same number
  as lcm{k * j_1! ... j_k!} over all compositions (j_1, ..., j_k) of n.
  The value k * j_1! ... j_k! does not depend on the order of the parts,
  so the 2^(n-1) compositions and the p(n) partitions of n give the same
  set of values and the same lcm; the oracle enumerates each partition
  once (627 at n = 20, against 524,288 compositions).  It is still plain
  enumeration plus lcm and never consults the closed formula, so
  agreement of the two routes is meaningful.  Its p(n) partitions are
  counted first, without enumerating them (``partition_count``), and held
  to the one scan budget of ``errors`` (through n = 70).

The remaining operations (Legendre's formula, multinomial valuations,
minimal digit-sum excess over k-part compositions, the explicit digit
-peeling partition, and the Bernoulli-polynomial denominators) feed the
property and acceptance suites.  ``compositions`` and ``compositions_into``
stay as the reference enumerations the tests compare the partitions with.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from ._records import Record
from .errors import check_budget


def is_prime(p: int) -> bool:
    """Deterministic trial division; adequate for the small primes used here."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


def primes_below(n: int) -> list[int]:
    """All primes p with p < n, ascending (empty for n <= 2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        return []
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


class PadicExpansion(Record):
    """Base-p digits of n, least significant first, without trailing zeros."""

    __slots__ = ("n", "p", "digits")

    def _check(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        _require_prime(self.p)
        if any(not 0 <= a < self.p for a in self.digits):
            raise ValueError("digits out of range")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("trailing zero digit")
        if sum(a * self.p**i for i, a in enumerate(self.digits)) != self.n:
            raise ValueError("digits do not reconstruct n")

    @property
    def digit_sum(self) -> int:
        return sum(self.digits)


def padic_expansion(n: int, p: int) -> PadicExpansion:
    """Expand n >= 0 in base p (p prime)."""
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    digits = []
    m = n
    while m:
        m, r = divmod(m, p)
        digits.append(r)
    return PadicExpansion(n, p, tuple(digits))


def _digit_sum(n: int, p: int) -> int:
    # no primality re-check; hot path for the enumeration oracles
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def digit_sum(n: int, p: int) -> int:
    """s_p(n), the sum of the base-p digits of n (p prime, n >= 0)."""
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _digit_sum(n, p)


def padic_valuation(m: int, p: int) -> int:
    """v_p(m): the exponent of the highest power of p dividing m >= 1.

    m = 0 is rejected (its valuation is infinite, not a number).
    """
    _require_prime(p)
    if m == 0:
        raise ValueError("valuation of 0 is infinite")
    if m < 0:
        raise ValueError("m must be >= 1")
    v = 0
    while m % p == 0:
        v += 1
        m //= p
    return v


def factorial_valuation(n: int, p: int) -> int:
    """v_p(n!) = (n - s_p(n)) / (p - 1).

    The floor-sum form sum_{i>=1} floor(n / p^i) is recomputed under
    ``assert`` so test runs double-check the closed form at no production
    cost.
    """
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    v = (n - _digit_sum(n, p)) // (p - 1)
    assert (n - _digit_sum(n, p)) % (p - 1) == 0
    assert v == _factorial_valuation_floor_sum(n, p)
    return v


def _factorial_valuation_floor_sum(n: int, p: int) -> int:
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


class PrimeFactorization(Record):
    """Ordered prime factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    Exponents are >= 1; the empty tuple represents 1.
    """

    __slots__ = ("factors",)

    def _check(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            _require_prime(p)
            last = p

    @classmethod
    @functools.lru_cache(maxsize=1024)
    def of(cls, m: int) -> "PrimeFactorization":
        """Factor m >= 1 by trial division; memoized, as a table asks once per word."""
        if m < 1:
            raise ValueError("m must be >= 1")
        factors = []
        for p in _trial_divisors():
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    e += 1
                    m //= p
                factors.append((p, e))
        if m > 1:
            factors.append((m, 1))
        return cls(tuple(factors))

    def value(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def _trial_divisors() -> Iterator[int]:
    yield 2
    f = 3
    while True:
        yield f
        f += 2


def compute_dn(n: int) -> tuple[int, PrimeFactorization]:
    """The closed-form denominator factor d_n and its factorization.

    d_n = prod over primes p < n of p^max{t >= 0 : p^t <= s_p(n)}.
    The empty product gives d_1 = d_2 = 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = []
    value = 1
    for p in primes_below(n):
        s = _digit_sum(n, p)
        e = 0
        q = p
        while q <= s:
            e += 1
            q *= p
        if e:
            factors.append((p, e))
            value *= p**e
    return value, PrimeFactorization(tuple(factors))


def squarefree_kernel(n: int) -> int:
    """The square-free kernel of d_n: the product of the primes dividing it.

    Equivalently the product of primes p < n with s_p(n) >= p; both
    characterizations are computed and must agree.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    kernel = 1
    for p in primes_below(n):
        if _digit_sum(n, p) >= p:
            kernel *= p
    _, factorization = compute_dn(n)
    radical = 1
    for p, _e in factorization.factors:
        radical *= p
    assert kernel == radical
    return kernel


@functools.lru_cache(maxsize=None)
def common_denominator(n: int) -> tuple[int, PrimeFactorization]:
    """n! * d_n, the per-degree common denominator, with its factorization.

    Memoized: a table of one degree asks for it once per word, and the
    result (an int and a frozen factorization) is immutable.
    """
    dn, dn_factors = compute_dn(n)
    value = math.factorial(n) * dn
    factors = []
    for p in primes_below(n + 1):
        e = factorial_valuation(n, p) + dn_factors.exponent(p)
        if e:
            factors.append((p, e))
    factorization = PrimeFactorization(tuple(factors))
    assert factorization.value() == value
    return value, factorization


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) ordered tuples of positive integers summing to n.

    Lexicographic order: (1,1,...,1) first, (n,) last.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first, *rest)


def compositions_into(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of exactly k positive integers summing to n, lexicographic."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions_into(n - first, k - 1):
            yield (first, *rest)


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n once: non-increasing tuples of positive integers summing to n.

    p(n) tuples (1, 2, 3, 5, 7, 11, ..., 627 at n = 20), in reverse
    lexicographic order: (n,) first, (1,...,1) last.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partitions(n, n)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n >= 0, by the O(n^2) recurrence on the parts allowed.

    ``counts[m]`` is the number of partitions of m into the parts tried so far; nothing is
    enumerated.
    """
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts[n]


def check_partition_budget(n: int) -> int:
    """p(n); but refuse, before it starts, an enumeration of the partitions of n beyond the scan budget."""
    count = partition_count(n)
    check_budget(count, f"enumeration of the {count} partitions of {n}")
    return count


def Dn_bruteforce(n: int) -> int:
    """lcm{k * j_1! ... j_k!} over all compositions (j_1,...,j_k) of n.

    k * j_1! ... j_k! is the same for every ordering of the parts, so the
    lcm over compositions equals the lcm over partitions, and each
    partition is enumerated once.  This is the independent cross-check for
    n! * d_n: plain enumeration plus lcm, sharing no code with
    ``compute_dn`` or the digit-sum and valuation helpers.  The p(n)
    partitions are held to the scan budget before any is enumerated.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_partition_budget(n)
    fact = [math.factorial(j) for j in range(n + 1)]
    result = 1
    for parts in partitions(n):
        v = len(parts)
        for j in parts:
            v *= fact[j]
        result = math.lcm(result, v)
    return result


def multinomial_valuation(n: int, parts: Sequence[int], p: int) -> int:
    """v_p of the multinomial coefficient n! / (j_1! ... j_k!) via digit sums.

    Returns (s_p(j_1) + ... + s_p(j_k) - s_p(n)) / (p - 1); this is asserted
    to be a nonnegative integer equal to the valuation of the explicitly
    computed multinomial coefficient.
    """
    _require_prime(p)
    if not parts or any(j < 1 for j in parts):
        raise ValueError("parts must be a nonempty sequence of positive integers")
    if sum(parts) != n:
        raise ValueError(f"parts must sum to {n}")
    excess = sum(_digit_sum(j, p) for j in parts) - _digit_sum(n, p)
    v, rem = divmod(excess, p - 1)
    assert rem == 0 and v >= 0
    multinomial = math.factorial(n)
    for j in parts:
        multinomial //= math.factorial(j)
    assert v == padic_valuation(multinomial, p)
    return v


def hp_min(n: int, k: int, p: int) -> int:
    """Minimal digit-sum excess over compositions of n into k positive parts.

    min over (j_1,...,j_k) of (s_p(j_1)+...+s_p(j_k) - s_p(n)) / (p-1),
    computed by exhaustive enumeration.  The objective does not depend on
    the order of the parts, so only the partitions of n with exactly k
    parts are visited.  Oracle for the two composition lemmas; not used by
    any production path.
    """
    _require_prime(p)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    check_partition_budget(n)
    sums = [_digit_sum(j, p) for j in range(n + 1)]
    best = min(sum(sums[j] for j in parts) for parts in partitions(n) if len(parts) == k)
    excess = best - sums[n]
    v, rem = divmod(excess, p - 1)
    assert rem == 0
    return v


def constructive_partition(n: int, p: int, k: int) -> list[int]:
    """An explicit k-part composition of n with no carries in base p.

    Requires k <= s_p(n).  The first k-1 parts are prime powers p^i, taken
    with the multiplicity of the digits of n from the lowest digit upward;
    the last part absorbs the remaining digits.  The result satisfies
    sum(parts) = n and sum of digit sums = s_p(n), witnessing that the
    minimal digit-sum excess is 0 for this k.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    digits = padic_expansion(n, p).digits
    s = sum(digits)
    if k > s:
        raise ValueError(f"construction needs k <= digit sum {s}, got k={k}")
    # x = lowest digit position where the cumulative digit count reaches k-1
    taken = 0
    x = 0
    while taken + digits[x] <= k - 1:
        taken += digits[x]
        x += 1
    y = k - 1 - taken  # 0 <= y < digits[x]
    parts = []
    for i in range(x):
        parts.extend([p**i] * digits[i])
    parts.extend([p**x] * y)
    last = (digits[x] - y) * p**x
    for i in range(x + 1, len(digits)):
        last += digits[i] * p**i
    parts.append(last)
    assert len(parts) == k and sum(parts) == n and all(j >= 1 for j in parts)
    assert sum(_digit_sum(j, p) for j in parts) == s
    return parts


def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0, ..., B_{count-1} as exact fractions, convention B_1 = -1/2.

    Straight binomial recurrence sum_{k<=m} C(m+1, k) B_k = 0; fine at the
    small indices needed here.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    out: list[Fraction] = []
    if count >= 1:
        out.append(Fraction(1))
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


def bernoulli_poly_denominator(n: int) -> int:
    """Common denominator of the nonconstant coefficients of the n-th Bernoulli polynomial.

    lcm of the denominators of C(n, k) * B_k for k = 0..n-1, i.e. the
    denominator of B_n(x) - B_n.  Agrees with ``squarefree_kernel`` degree
    by degree, which the acceptance suite verifies.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    B = bernoulli_numbers(n)
    return math.lcm(*((math.comb(n, k) * B[k]).denominator for k in range(n)))


def goldberg_denominator(n: int) -> int:
    """Reduced denominator of (B_{n-1} + B_{n-2}) / n! for n >= 4.

    This is the classical candidate common denominator that the degree-n
    coefficient scan refutes at n = 11.  Indices n <= 3 are rejected: the
    expression does not bound the low-degree denominators as written.
    """
    if n <= 3:
        raise ValueError("defined here only for n >= 4")
    B = bernoulli_numbers(n)
    return ((B[n - 1] + B[n - 2]) / math.factorial(n)).denominator
