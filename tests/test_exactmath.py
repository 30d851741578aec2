"""Exact arithmetic and sieve tests.

Cross-checks pair independent implementations: the merged reciprocal sum
vs an lcm-scaled integer sum and a Fraction fold, the segmented prime-power
table vs per-element factorization and a whole-range running maximum, and
the pure-Python odd-number sieve, its top-power table and the numpy
smallest-prime-factor sieve vs plain trial division and a bytearray sieve
of Eratosthenes over all numbers.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt, lcm, log, prod
from pathlib import Path

import numpy as np
import pytest

import egyfrac
from egyfrac import exactmath
from egyfrac.exactmath import (
    FactorSieve,
    harmonic,
    is_powersmooth,
    lcm_range,
    max_prime_power_factor,
    max_prime_power_table,
    powersmooth_count,
    prime_powers_in,
    primes_upto,
    reciprocal_sum,
    smooth_density_linear,
    top_powers,
)


def test_reciprocal_sum_known_values():
    assert reciprocal_sum([2, 3, 6]) == Fraction(1)
    assert reciprocal_sum([1, 2, 3, 4]) == Fraction(25, 12)
    assert reciprocal_sum([]) == Fraction(0)
    assert reciprocal_sum([7]) == Fraction(1, 7)


def test_reciprocal_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        reciprocal_sum([2, 2, 3])
    with pytest.raises(ValueError):
        reciprocal_sum([0, 3])
    with pytest.raises(ValueError):
        reciprocal_sum([-5])
    with pytest.raises(ValueError):
        reciprocal_sum([2.5, 3])
    with pytest.raises(ValueError):
        reciprocal_sum([True, 2])


def test_reciprocal_sum_is_order_independent():
    rng = random.Random(11)
    for _ in range(20):
        items = rng.sample(range(1, 200), rng.randrange(1, 15))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert reciprocal_sum(items) == reciprocal_sum(shuffled)


def _lcm_scaled_sum(items):
    big = lcm(*items)
    return Fraction(sum(big // m for m in items), big)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 7, 25, 63, 64, 65, 100, 128, 129, 357, 2000])
def test_reciprocal_sum_matches_lcm_oracle(size):
    rng = random.Random(size)
    start = rng.randrange(1, 500)
    dense = list(range(start, start + size))
    sparse = rng.sample(range(1, 20_001), size)
    shuffled = dense[:]
    rng.shuffle(shuffled)
    for items in (dense, dense[::-1], shuffled, sparse, sorted(sparse)):
        assert reciprocal_sum(items) == _lcm_scaled_sum(items)
    if size:
        assert harmonic(size) == _lcm_scaled_sum(range(1, size + 1))
        with pytest.raises(ValueError):
            reciprocal_sum(sparse + [sparse[-1]])
        with pytest.raises(ValueError):
            reciprocal_sum(sparse[:-1] + [0])
        with pytest.raises(ValueError):
            reciprocal_sum([-sparse[0]] + sparse[1:])


def test_harmonic_small_values():
    assert harmonic(1) == Fraction(1)
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(6) == Fraction(49, 20)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 25, 100, 357])
def test_harmonic_matches_reciprocal_fold(n):
    # a left fold of Fractions, independent of reciprocal_sum's merge
    fold = Fraction(0)
    for k in range(1, n + 1):
        fold += Fraction(1, k)
    assert harmonic(n) == fold


def test_harmonic_denominator_divides_lcm():
    for n in (3, 10, 50, 120):
        assert lcm_range(n) % harmonic(n).denominator == 0


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10_000)) == 1229


def test_primes_upto_matches_trial_division():
    def is_prime(m):
        return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))

    # 255 and 256 straddle FactorSieve's switch from 8-bit to 16-bit
    # entries; an odd square p*p and its neighbours bound where primes_upto
    # starts crossing out the multiples of p
    squares = [m for p in (3, 5, 7, 11, 13, 19) for m in (p * p - 1, p * p, p * p + 1)]
    spread = [5, 9, 10, 48, 49, 97, 100, 121, 255, 256, 257, 1024, 2000, 2003, 3000]
    for n in list(range(5)) + squares + spread:
        want = [m for m in range(n + 1) if is_prime(m)]
        assert primes_upto(n) == want
        if n >= 2:
            sieve = FactorSieve(n)
            assert [m for m in range(2, n + 1) if sieve.spf[m] == m] == want


@pytest.mark.parametrize("n", [1, 2, 12, 64, 97, 200])
def test_top_powers_match_trial_division(n):
    def is_prime(m):
        return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))

    primes = [p for p in range(n + 1) if is_prime(p)]
    want = {p: max(p**k for k in range(1, n.bit_length()) if p**k <= n) for p in primes}
    tops = top_powers(n)
    assert list(tops.items()) == list(want.items())
    assert prod(tops.values()) == lcm(*range(1, n + 1))


def test_number_theory_runs_without_numpy():
    # a None entry in sys.modules makes any "import numpy" fail
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        'import sys; sys.modules["numpy"] = None; '
        "from egyfrac.exactmath import lcm_range, prime_powers_in, primes_upto, top_powers; "
        "print(len(primes_upto(10**6)), lcm_range(30)); "
        "print(prime_powers_in(2, 10)); print(top_powers(30))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "78498 2329089562800",
        "[(3, 9), (2, 8), (7, 7), (5, 5), (2, 4), (3, 3), (2, 2)]",
        "{2: 16, 3: 27, 5: 25, 7: 7, 11: 11, 13: 13, 17: 17, 19: 19, 23: 23, 29: 29}",
    ]


def test_lcm_range_known_values():
    assert lcm_range(1) == 1
    assert lcm_range(2) == 2
    assert lcm_range(10) == 2520
    with pytest.raises(ValueError):
        lcm_range(0)


def test_lcm_range_divisibility():
    for n in (1, 2, 7, 30, 64):
        value = lcm_range(n)
        for m in range(1, n + 1):
            assert value % m == 0
        # minimality: each prime appears exactly at its maximal power <= n
        for p, pk in prime_powers_in(2, n) if n >= 2 else []:
            if pk * p > n:
                assert value % pk == 0
                assert value % (pk * p) != 0


def test_factor_sieve_factorizations():
    sieve = FactorSieve(1000)
    assert sieve.factor(1) == []
    assert sieve.factor(2) == [(2, 1)]
    assert sieve.factor(360) == [(2, 3), (3, 2), (5, 1)]
    assert sieve.factor(997) == [(997, 1)]
    assert sieve.prime_power_parts(360) == [8, 9, 5]
    assert sieve.smallest_prime_factor(91) == 7
    with pytest.raises(ValueError):
        sieve.factor(1001)
    with pytest.raises(ValueError):
        sieve.smallest_prime_factor(1)


def test_factor_sieve_primes_agree_with_byte_sieve():
    # a plain bytearray sieve of Eratosthenes, independent of the spf table
    n = 2000
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    want = [m for m in range(n + 1) if flags[m]]
    sieve = FactorSieve(n)
    assert [m for m in range(2, n + 1) if sieve.spf[m] == m] == want
    assert primes_upto(n) == want


def test_factor_sieve_reconstructs_every_value():
    sieve = FactorSieve(3000)
    for m in range(1, 3001):
        prod = 1
        for p, a in sieve.factor(m):
            prod *= p**a
        assert prod == m


def test_max_prime_power_factor_known_values():
    assert max_prime_power_factor(1) == 1
    assert max_prime_power_factor(12) == 4
    assert max_prime_power_factor(720) == 16
    assert max_prime_power_factor(97) == 97
    assert max_prime_power_factor(2**10) == 1024


def test_max_prime_power_factor_sieve_and_trial_agree():
    sieve = FactorSieve(5000)
    for m in range(1, 5001):
        assert max_prime_power_factor(m, sieve) == max_prime_power_factor(m)


def test_max_prime_power_table_matches_pointwise():
    table = max_prime_power_table(4000)
    sieve = FactorSieve(4000)
    assert table[0] == 0
    for m in range(1, 4001):
        assert int(table[m]) == max_prime_power_factor(m, sieve)


def test_max_prime_power_table_at_small_and_square_limits():
    # the primes above isqrt(n) are set by cofactor, so limits at and next to
    # a square move a prime between the two passes
    limits = list(range(1, 40)) + [48, 49, 50, 120, 121, 122, 960, 961, 962, 1368, 1369]
    for n in limits:
        want = [0] + [max_prime_power_factor(m) for m in range(1, n + 1)]
        assert max_prime_power_table(n).tolist() == want


def test_max_prime_power_segments_match_pointwise_for_every_n(monkeypatch):
    # about seven segments per call, so every n moves the segment boundaries
    # and the short last segment
    monkeypatch.setattr(exactmath, "_segment_length", lambda n: 1 + n // 7)
    want = [0] + [max_prime_power_factor(m) for m in range(1, 2001)]
    for n in range(1, 2001):
        assert max_prime_power_table(n).tolist() == want[: n + 1], n


@pytest.mark.parametrize("length", [1, 2, 3, 64])
def test_max_prime_power_segments_of_fixed_length(length, monkeypatch):
    monkeypatch.setattr(exactmath, "_segment_length", lambda n: length)
    want = [0] + [max_prime_power_factor(m) for m in range(1, 1001)]
    assert max_prime_power_table(1000).tolist() == want
    for t in (1, 7, 32, 1000):
        assert powersmooth_count(1000, t) == sum(1 for v in want[1:] if v <= t)


def whole_range_table(n):
    # every prime power p**a <= n marks its multiples under a running maximum
    table = np.ones(n + 1, dtype=np.int64)
    table[0] = 0
    for p in primes_upto(n):
        pk = p
        while pk <= n:
            np.maximum(table[pk::pk], pk, out=table[pk::pk])
            pk *= p
    return table


@pytest.mark.parametrize("n", [65535, 65536, 65537, 131072, 131073])
def test_max_prime_power_table_at_segment_boundaries(n):
    # 2**16-long segments from 1: n = 65536 and 131072 end a segment, and one
    # more integer starts a new one
    assert exactmath._segment_length(n) == 2**16
    table = max_prime_power_table(n)
    assert np.array_equal(table, whole_range_table(n))
    sieve = FactorSieve(n)
    for edge in range(1, n + 2, 2**16):
        for m in range(max(1, edge - 3), min(n, edge + 3) + 1):
            assert int(table[m]) == max_prime_power_factor(m, sieve)


def test_powersmooth_count_pinned_values():
    # the first is the benchmark's value, checked there by trial division;
    # both equal the whole-range table that the segmented pass replaced
    assert powersmooth_count(10**6, 1000) == 334421
    assert powersmooth_count(10**7, 3000) == 3261198


def test_is_powersmooth_examples():
    assert is_powersmooth(1, 1)
    assert is_powersmooth(12, 4)
    assert not is_powersmooth(12, 3)
    assert is_powersmooth(2520, 9)
    assert not is_powersmooth(2520, 8)
    with pytest.raises(ValueError):
        is_powersmooth(12, 0)


def test_powersmooth_count_small():
    # 4-powersmooth in [1, 10]: 1, 2, 3, 4, 6
    assert powersmooth_count(10, 4) == 5
    assert powersmooth_count(10, 10) == 10
    assert powersmooth_count(1, 1) == 1


def test_powersmooth_count_matches_predicate():
    for t in (3, 10, 31):
        direct = sum(1 for m in range(1, 801) if is_powersmooth(m, t))
        assert powersmooth_count(800, t) == direct


def test_prime_powers_in():
    assert prime_powers_in(2, 10) == [
        (3, 9),
        (2, 8),
        (7, 7),
        (5, 5),
        (2, 4),
        (3, 3),
        (2, 2),
    ]
    assert prime_powers_in(24, 26) == [(5, 25)]
    assert prime_powers_in(32, 32) == [(2, 32)]
    with pytest.raises(ValueError):
        prime_powers_in(1, 10)
    with pytest.raises(ValueError):
        prime_powers_in(10, 5)


def test_smooth_density_linear():
    assert smooth_density_linear(1.0) == 1.0
    assert smooth_density_linear(0.75) == pytest.approx(1.0 + log(0.75))
    with pytest.raises(ValueError):
        smooth_density_linear(0.5)
    with pytest.raises(ValueError):
        smooth_density_linear(1.01)


def test_fractions_stay_normalized():
    rng = random.Random(7)
    for _ in range(25):
        items = rng.sample(range(1, 500), 12)
        s = reciprocal_sum(items)
        assert gcd(s.numerator, s.denominator) == 1
        assert s.denominator >= 1


def test_reciprocal_sum_accepts_numpy_integers():
    assert reciprocal_sum(np.array([2, 3, 6], dtype=np.int64)) == Fraction(1)
    assert reciprocal_sum([np.int64(2), 3, np.uint16(6)]) == Fraction(1)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_reciprocal_sum_rejects_a_bad_last_element(bad):
    # plain ints are checked with one min(); anything else one at a time
    with pytest.raises(ValueError):
        reciprocal_sum(list(range(2, 501)) + [bad])
