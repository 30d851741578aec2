"""Exact rational arithmetic over unit fractions, plus prime sieves.

Everything in this module is integer-exact. Reciprocal sums are held as
`fractions.Fraction` values so that equality against a target is a true
equality, never a tolerance check. Every exact sum of unit fractions in the
package goes through one kernel, `reciprocal_sum`. Every prime list comes
from one pure-Python sieve, `primes_upto`, and every top power p**k <= n
from one table built on it, `top_powers`; `FactorSieve`'s
smallest-prime-factor table serves factorization only. m is t-powersmooth
when every maximal prime power p**a dividing m is at most t. The table and
counts of max prime powers come from one segmented pass over the primes up
to isqrt(n), holding O(isqrt(n)) integers at a time.

No numpy at import: the functions that need it import it themselves, and
primes_upto, top_powers, lcm_range and prime_powers_in never do.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, log, prod
from numbers import Integral
from typing import Iterable, Iterator

# Elements per leaf of reciprocal_sum; bounds a leaf's unreduced denominator.
_LEAF = 64

__all__ = [
    "FactorSieve", "reciprocal_sum", "harmonic", "lcm_range", "max_prime_power_factor",
    "is_powersmooth", "powersmooth_count", "max_prime_power_table", "prime_powers_in",
    "smooth_density_linear", "primes_upto", "top_powers", "verify_representation",
]


def _check_positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _frac_str(f: Fraction | None) -> str | None:
    """A rational as its lossless "p/q" string (integers too: "1/1"); None stays None."""
    if f is None:
        return None
    return f"{f.numerator}/{f.denominator}"


def reciprocal_sum(elements: Iterable[int]) -> Fraction:
    """Exact sum of 1/m over distinct positive integers m.

    Leaves of _LEAF consecutive elements are folded as unreduced integer
    pairs and reduced once, then merged pairwise so operands stay balanced.
    A list of plain ints is checked with one min(); any other element type
    is checked one element at a time.
    """
    items = list(elements)
    if set(map(type, items)) - {int}:
        items = [_check_positive_int(m, "element") for m in items]
    elif items and min(items) < 1:
        raise ValueError(f"element must be >= 1, got {min(items)}")
    if len(set(items)) != len(items):
        raise ValueError("elements must be distinct")
    parts = []
    for i in range(0, len(items), _LEAF):
        num, den = 0, 1
        for m in items[i : i + _LEAF]:
            num, den = num * m + den, den * m
        parts.append(Fraction(num, den))
    while len(parts) > 1:
        merged = [a + b for a, b in zip(parts[::2], parts[1::2])]
        parts = merged + parts[len(merged) * 2 :]
    return parts[0] if parts else Fraction(0)


def verify_representation(elements: Iterable[int], n: int, x) -> bool:
    """True iff the elements are distinct, lie in [1, n], and sum to x exactly."""
    x = Fraction(x)
    items = [int(e) for e in elements]
    if len(set(items)) != len(items) or any(e < 1 or e > n for e in items):
        return False
    return reciprocal_sum(items) == x


def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n, exactly."""
    n = _check_positive_int(n, "n")
    return reciprocal_sum(range(1, n + 1))


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending, from a sieve of Eratosthenes over the odd numbers."""
    if n < 2:
        return []
    odd = bytearray([1]) * ((n + 1) // 2)  # odd[i] flags 2*i + 1
    odd[0] = 0
    for i in range(1, (isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(odd), p)))
    return [2, *compress(range(1, n + 1, 2), odd)]


def top_powers(n: int) -> dict[int, int]:
    """{p: p**k} over the primes p <= n, ascending, p**k the largest power of p <= n."""
    out = {}
    for p in primes_upto(n):
        q = p
        while q * p <= n:
            q *= p
        out[p] = q
    return out


def lcm_range(n: int) -> int:
    """lcm(1, 2, ..., n): the product of the top powers p**k <= n."""
    return prod(top_powers(_check_positive_int(n, "n")).values())


class FactorSieve:
    """Smallest-prime-factor table supporting factorization up to `limit`."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError(f"sieve limit must be >= 2, got {limit}")
        import numpy as np
        self.limit = int(limit)
        # The narrowest unsigned type holding 0..limit: 4 bytes an entry at 1e6, not 8.
        spf = np.arange(self.limit + 1, dtype=np.min_scalar_type(self.limit))
        for p in range(2, isqrt(self.limit) + 1):
            if spf[p] == p:
                block = spf[p * p :: p]
                np.minimum(block, p, out=block)
        self.spf = spf

    def smallest_prime_factor(self, m: int) -> int:
        if not 2 <= m <= self.limit:
            raise ValueError(f"m must be in [2, {self.limit}], got {m}")
        return int(self.spf[m])

    def factor(self, m: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, a), ...] with p ascending; [] for m = 1."""
        if not 1 <= m <= self.limit:
            raise ValueError(f"m must be in [1, {self.limit}], got {m}")
        out = []
        m = int(m)
        while m > 1:
            p = int(self.spf[m])
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        return out

    def prime_power_parts(self, m: int) -> list[int]:
        """Maximal prime-power divisors p**a of m, ascending by prime."""
        return [p**a for p, a in self.factor(m)]


def _trial_division_parts(m: int) -> list[int]:
    parts = []
    rem = m
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            pk = 1
            while rem % p == 0:
                rem //= p
                pk *= p
            parts.append(pk)
        p += 1 if p == 2 else 2
    if rem > 1:
        parts.append(rem)
    return parts


def max_prime_power_factor(m: int, sieve: FactorSieve | None = None) -> int:
    """Largest maximal prime-power divisor of m. By convention 1 for m = 1."""
    m = _check_positive_int(m, "m")
    if m == 1:
        return 1
    if sieve is not None and m <= sieve.limit:
        return max(sieve.prime_power_parts(m))
    return max(_trial_division_parts(m))


def is_powersmooth(m: int, t: int, sieve: FactorSieve | None = None) -> bool:
    """True iff every maximal prime power dividing m is at most t."""
    t = _check_positive_int(t, "t")
    return max_prime_power_factor(m, sieve) <= t


def _segment_length(n: int) -> int:
    """Integers per segment of _max_prime_power_segments: O(isqrt(n)) memory."""
    return max(2**16, 32 * isqrt(n))


def _max_prime_power_segments(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, best), best[i] = max_prime_power_factor(lo + i) as float64, over [1, n].

    Segment [lo, hi) takes each power p**a < hi of a prime p <= isqrt(n) in
    ascending order: its multiples get best = p**a, so the largest write
    lasts, and their isqrt(n)-smooth part multiplied by p. The cofactor
    m / smooth part, exact as all three are integers below 2**53, is 1 or
    one prime above isqrt(n) (two would exceed n), and joins best by max.
    best is a reused buffer: the next segment overwrites it.
    """
    import numpy as np
    roots = primes_upto(isqrt(n))
    powers = sorted((p**a, p) for p in roots for a in range(1, n.bit_length()) if p**a <= n)
    length = min(n, _segment_length(n))
    bests, smooths, ms = np.empty(length), np.empty(length), np.arange(1.0, length + 1)
    for lo in range(1, n + 1, length):
        size = min(length, n + 1 - lo)
        best, smooth, m = bests[:size], smooths[:size], ms[:size]
        best[:] = smooth[:] = 1
        for pk, p in powers:
            if pk >= lo + size:
                break
            start = -lo % pk
            best[start::pk] = pk
            smooth[start::pk] *= p
        np.divide(m, smooth, out=smooth)
        yield lo, np.maximum(best, smooth, out=best)
        ms += length


def max_prime_power_table(n: int) -> np.ndarray:
    """Array a with a[m] = max_prime_power_factor(m) for 0 <= m <= n (a[0] = 0)."""
    import numpy as np
    n = _check_positive_int(n, "n")
    table = np.zeros(n + 1, dtype=np.int64)
    for lo, best in _max_prime_power_segments(n):
        table[lo : lo + len(best)] = best
    return table


def powersmooth_count(n: int, t: int) -> int:
    """How many m in [1, n] are t-powersmooth, one segment at a time."""
    n = _check_positive_int(n, "n")
    t = _check_positive_int(t, "t")
    import numpy as np
    return sum(int(np.count_nonzero(best <= t)) for _, best in _max_prime_power_segments(n))


def prime_powers_in(lo: int, hi: int) -> list[tuple[int, int]]:
    """All (p, p**a) with lo <= p**a <= hi, sorted descending by the power."""
    if lo < 2:
        raise ValueError(f"lo must be >= 2, got {lo}")
    if hi < lo:
        raise ValueError(f"need lo <= hi, got [{lo}, {hi}]")
    out = []
    for p, q in top_powers(hi).items():
        while q >= lo:
            out.append((p, q))
            q //= p
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


def smooth_density_linear(u: float) -> float:
    """Density of n**u-powersmooth integers for 1/2 < u <= 1.

    In this range an integer can carry at most one maximal prime power above
    n**u, so inclusion-exclusion collapses to a single logarithm: the density
    is 1 + ln(u).
    """
    u = float(u)
    if not 0.5 < u <= 1.0:
        raise ValueError(f"u must lie in (1/2, 1], got {u}")
    return 1.0 + log(u)
