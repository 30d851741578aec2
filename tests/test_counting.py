"""Counting tests.

The ground truth here is a third, completely naive route: materialize all
2**n subset sums as Fractions and count by comparison. Both production
counters must agree with it and with each other.
"""

import os
import random
import subprocess
import sys
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from pathlib import Path

import numpy as np
import pytest

import egyfrac
from egyfrac import counting
from egyfrac.counting import (
    MODE_AT_MOST,
    MODE_EXACT,
    CountQuery,
    CountResult,
    _block_groups,
    _sorted_sums,
    count_brute,
    count_dp,
    count_mitm,
    enumerate_representations,
    reciprocal_subsets,
)
from egyfrac.exactmath import harmonic, reciprocal_sum


def all_subset_sums(n):
    sums = [Fraction(0)]
    for m in range(1, n + 1):
        w = Fraction(1, m)
        sums += [s + w for s in sums]
    return sums


def naive_count(n, x, mode):
    sums = all_subset_sums(n)
    if mode == MODE_EXACT:
        return sum(1 for s in sums if s == x)
    return sum(1 for s in sums if s <= x)


def test_known_counts():
    assert count_brute(CountQuery(4, Fraction(1), MODE_EXACT)).count == 1
    assert count_brute(CountQuery(6, Fraction(1), MODE_EXACT)).count == 2
    assert count_brute(CountQuery(3, Fraction(1), MODE_AT_MOST)).count == 5
    assert count_brute(CountQuery(5, Fraction(3), MODE_EXACT)).count == 0
    assert count_brute(CountQuery(1, Fraction(1, 2), MODE_AT_MOST)).count == 1


def test_boundary_tie_is_included():
    # {2} sums to exactly 1/2 and must count in mode "atmost"
    assert count_brute(CountQuery(2, Fraction(1, 2), MODE_AT_MOST)).count == 2
    assert count_mitm(CountQuery(2, Fraction(1, 2), MODE_AT_MOST)).count == 2


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13])
def test_counters_match_naive_oracle(n):
    sums = all_subset_sums(n)
    rng = random.Random(100 + n)
    targets = [Fraction(1), Fraction(1, 2), Fraction(3, 2), harmonic(n)]
    targets += rng.sample(sums, min(4, len(sums)))
    targets.append(Fraction(1, 101))  # hits nothing
    for x in targets:
        if x <= 0:
            continue
        for mode in (MODE_EXACT, MODE_AT_MOST):
            want = naive_count(n, x, mode)
            query = CountQuery(n, x, mode)
            assert count_brute(query).count == want
            assert count_mitm(query).count == want


def test_brute_equals_mitm_on_random_targets():
    rng = random.Random(2024)
    for n in (10, 14, 16):
        for _ in range(6):
            x = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
            for mode in (MODE_EXACT, MODE_AT_MOST):
                query = CountQuery(n, x, mode)
                assert count_brute(query).count == count_mitm(query).count


def test_full_range_counts():
    for n in (3, 6, 10):
        h = harmonic(n)
        assert count_brute(CountQuery(n, h, MODE_AT_MOST)).count == 2**n
        assert count_brute(CountQuery(n, h, MODE_EXACT)).count == 1
        assert count_mitm(CountQuery(n, h, MODE_AT_MOST)).count == 2**n


@pytest.mark.parametrize(
    "n, at_one, at_three_halves", [(24, 41, 42), (30, 200, 225), (36, 852, 1055), (40, 1655, 2079)]
)
def test_mitm_counts_equal_at_complementary_targets(n, at_one, at_three_halves):
    # A -> [1, n] \ A maps sum x onto H_n - x; H_n - x has a large
    # denominator, so the two sides eliminate different blocks
    for x, want in ((Fraction(1), at_one), (Fraction(3, 2), at_three_halves)):
        assert count_mitm(CountQuery(n, x, MODE_EXACT)).count == want
        assert count_mitm(CountQuery(n, harmonic(n) - x, MODE_EXACT)).count == want


def test_at_most_monotone_in_x():
    n = 12
    prev = 0
    for k in range(1, 8):
        x = Fraction(k, 4)
        cur = count_mitm(CountQuery(n, x, MODE_AT_MOST)).count
        assert cur >= prev
        prev = cur
    assert count_mitm(CountQuery(n, Fraction(2), MODE_AT_MOST)).count >= count_mitm(
        CountQuery(n, Fraction(2), MODE_EXACT)
    ).count


def test_mitm_exact_with_unreachable_denominator():
    # 1/7 scaled by lcm(1..5) is not an integer, so no subset can hit it
    query = CountQuery(5, Fraction(1, 7), MODE_EXACT)
    assert count_mitm(query).count == 0
    assert count_brute(query).count == 0


def test_query_validation():
    with pytest.raises(ValueError):
        CountQuery(0, Fraction(1), MODE_EXACT)
    with pytest.raises(ValueError):
        CountQuery(3, Fraction(0), MODE_EXACT)
    with pytest.raises(ValueError):
        CountQuery(3, Fraction(-1, 2), MODE_AT_MOST)
    with pytest.raises(ValueError):
        CountQuery(3, Fraction(1), "approx")


def test_caps_refuse_oversized_inputs(monkeypatch):
    big = CountQuery(26, Fraction(1, 2), MODE_EXACT)
    with pytest.raises(ValueError, match="cap"):
        count_brute(big)
    with pytest.raises(ValueError, match="cap"):
        count_mitm(CountQuery(60, Fraction(1), MODE_EXACT))
    with pytest.raises(ValueError, match="cap"):
        count_dp(CountQuery(201, Fraction(1), MODE_EXACT))
    monkeypatch.setattr(counting, "BRUTE_CAP", 5)
    with pytest.raises(ValueError, match="cap"):
        count_brute(CountQuery(10, Fraction(1), MODE_EXACT))
    # a raised cap unlocks larger n
    monkeypatch.setattr(counting, "BRUTE_CAP", 26)
    monkeypatch.setattr(counting, "MITM_CAP", 26)
    assert count_mitm(big).count == count_brute(big).count


def test_result_carries_query_and_method():
    query = CountQuery(6, Fraction(1), MODE_EXACT)
    res = count_brute(query)
    assert isinstance(res, CountResult)
    assert res.query is query
    assert res.method == "brute"
    assert res.elapsed >= 0.0
    assert count_mitm(query).method == "mitm"
    assert count_dp(query).method == "dp"


def test_enumerate_known_representations():
    assert enumerate_representations(6, Fraction(1), 10) == [(1,), (2, 3, 6)]
    assert enumerate_representations(4, Fraction(25, 12), 10) == [(1, 2, 3, 4)]
    assert enumerate_representations(6, Fraction(5), 10) == []


def test_enumerate_respects_limit_and_order():
    found = enumerate_representations(12, Fraction(1), 100)
    assert found[0] == (1,)
    assert found == sorted(found)
    assert len(set(found)) == len(found)
    first = enumerate_representations(12, Fraction(1), 1)
    assert first == [found[0]]
    assert enumerate_representations(12, Fraction(1), 0) == []


def test_enumerate_matches_exact_count_and_sums():
    for n in (6, 9, 11):
        for x in (Fraction(1), Fraction(1, 2), Fraction(3, 4)):
            reps = enumerate_representations(n, x, 10_000)
            want = count_brute(CountQuery(n, x, MODE_EXACT)).count
            assert len(reps) == want
            for rep in reps:
                assert reciprocal_sum(rep) == x
                assert all(1 <= m <= n for m in rep)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_representations(0, Fraction(1), 5)
    with pytest.raises(ValueError):
        enumerate_representations(5, Fraction(1), -1)
    with pytest.raises(ValueError, match="cap"):
        enumerate_representations(50, Fraction(1), 5)


def test_reciprocal_subsets_match_combinations_oracle():
    rng = random.Random(404)
    for _ in range(60):
        # half the ground sets lie in [1, 18], where equal subset sums are common
        ground = sorted(rng.sample(range(1, rng.choice((19, 41))), rng.randint(0, 14)))
        # exact subset sums, scaled by the lcm of the ground set to integers
        scale = lcm(*ground)
        sums = {
            c: sum(scale // d for d in c)
            for k in range(len(ground) + 1)
            for c in combinations(ground, k)
        }
        targets = [reciprocal_sum(rng.sample(ground, rng.randint(0, len(ground)))) for _ in range(3)]
        targets += [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(2)]
        for x in targets:
            scaled = x * scale
            want = sorted(c for c, s in sums.items() if s == scaled)
            got = list(reciprocal_subsets(ground, x))
            assert got == want
            assert list(reciprocal_subsets(ground, x, node_budget=0)) == ([()] if x == 0 else [])
            for budget in (1, 5, 50):
                cut = list(reciprocal_subsets(ground, x, node_budget=budget))
                assert cut == got[: len(cut)]
    # a node is a state the walk expands; reaching 1/2 + 1/3 + 1/6 takes five:
    # the root, then remainders 1/2, 1/6 (4 skipped), 1/6 (5 skipped), 1/6
    assert list(reciprocal_subsets(range(2, 7), Fraction(1), node_budget=4)) == []
    assert list(reciprocal_subsets(range(2, 7), Fraction(1), node_budget=5)) == [(2, 3, 6)]


# Targets for the block-elimination tests: integers, small denominators, and
# denominators that hold a prime's top power at some n <= 48 (8, 16, 9, 25,
# 27, 49), where that prime must stay ungrouped.
BLOCK_TARGETS = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(5, 6),
    Fraction(13, 12),
    Fraction(1, 8),
    Fraction(3, 16),
    Fraction(7, 9),
    Fraction(1, 25),
    Fraction(1, 27),
    Fraction(2, 49),
]


def _top_powers(n):
    """(p, q) for every prime p <= n with q the largest power of p <= n."""
    out = []
    for p in range(2, n + 1):
        if all(p % d for d in range(2, p)):
            q = p
            while q * p <= n:
                q *= p
            out.append((p, q))
    return out


@pytest.mark.parametrize("n", range(1, 25))
def test_mitm_block_elimination_matches_brute(n):
    # count_dp is held to the same oracle on the same queries
    for x in BLOCK_TARGETS:
        query = CountQuery(n, x, MODE_EXACT)
        want = count_brute(query).count
        assert count_mitm(query).count == want
        assert count_dp(query).count == want


@pytest.mark.parametrize("n", range(25, 35))
def test_mitm_block_elimination_matches_lcm_mitm(n):
    # the plain route: every element its own include-or-skip step, scaled
    # by lcm(1..n) whatever x is, halves split at n // 2
    scale = lcm(*range(1, n + 1))
    halves = []
    for part in (range(1, n // 2 + 1), range(n // 2 + 1, n + 1)):
        sums = [0]
        for m in part:
            sums += [s + scale // m for s in sums]
        halves.append(sums)
    left, right = halves[0], Counter(halves[1])
    for x in BLOCK_TARGETS:
        scaled = x * scale
        want = 0
        if scaled.denominator == 1:
            want = sum(right[scaled.numerator - s] for s in left)
        assert count_mitm(CountQuery(n, x, MODE_EXACT)).count == want


def test_dp_matches_block_mitm(monkeypatch):
    # past MITM_CAP from n = 49 on; every query here stays within the
    # memory estimate
    monkeypatch.setattr(counting, "MITM_CAP", 60)
    for n in range(25, 61):
        for x in BLOCK_TARGETS:
            query = CountQuery(n, x, MODE_EXACT)
            assert count_dp(query).count == count_mitm(query).count, (n, x)


@pytest.mark.parametrize("n", [70, 80, 90])
def test_dp_matches_block_mitm_past_60(monkeypatch, n):
    # the only second route between n = 61 and the n = 100 pins; block
    # count_mitm took 0.01-0.5 s a query here
    monkeypatch.setattr(counting, "MITM_CAP", 90)
    for x in (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(13, 12)):
        query = CountQuery(n, x, MODE_EXACT)
        assert count_dp(query).count == count_mitm(query).count, x


# count(100, x) over this grid took block count_mitm (cap lifted to 100)
# 3.8-11.7 s a value; count_dp must give the same values.
DP_GRID_100 = {
    Fraction(1, 4): 167714,
    Fraction(1, 3): 1964852,
    Fraction(1, 2): 71822787,
    Fraction(2, 3): 812619011,
    Fraction(5, 6): 4243935797,
    Fraction(7, 12): 271394539,
    Fraction(1): 13015102928,
    Fraction(13, 12): 19671423261,
    Fraction(11, 10): 21158609840,
    Fraction(3, 2): 60589072457,
    Fraction(2): 77028355789,
    Fraction(3): 64159774539,
}


def test_dp_counts_pinned():
    # believed to be OEIS A092670 at x = 1; the n = 120 and n = 150 values
    # equal those of two earlier independent programs
    for x, want in DP_GRID_100.items():
        assert count_dp(CountQuery(100, x, MODE_EXACT)).count == want, x
    assert count_dp(CountQuery(120, Fraction(1), MODE_EXACT)).count == 7410315551253
    assert count_dp(CountQuery(150, Fraction(1), MODE_EXACT)).count == 6744889401658942


@pytest.mark.parametrize("x", [Fraction(1), Fraction(3, 2)])
def test_dp_counts_equal_at_complementary_targets(x):
    # the states for H_n - x mirror those for x, so this is no independent
    # route, but it runs the bucket key on a large p-adic denominator
    want = count_dp(CountQuery(60, x, MODE_EXACT)).count
    assert count_dp(CountQuery(60, harmonic(60) - x, MODE_EXACT)).count == want


def test_dp_calls_no_other_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_dp must stay independent of the other routes")

    for name in ("_block_groups", "count_brute", "count_mitm"):
        monkeypatch.setattr(counting, name, refuse)
    assert count_dp(CountQuery(60, Fraction(1), MODE_EXACT)).count == 176018


def test_dp_refuses_mode_atmost():
    with pytest.raises(ValueError, match="exact"):
        count_dp(CountQuery(10, Fraction(1), MODE_AT_MOST))


def _fresh_python(probe):
    env = dict(os.environ)
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)


def test_dp_runs_without_numpy():
    # a None entry in sys.modules makes any "import numpy" fail
    probe = (
        'import sys; sys.modules["numpy"] = None; '
        "from fractions import Fraction; "
        "from egyfrac.counting import CountQuery, count_dp; "
        'print(count_dp(CountQuery(60, Fraction(1), "exact")).count); '
        'assert "egyfrac.modular" not in sys.modules'
    )
    proc = _fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["176018"]


def test_counting_import_loads_no_other_egyfrac_module():
    probe = (
        "import sys, egyfrac.counting; "
        "print(*sorted(m for m in sys.modules if m.startswith('egyfrac')))"
    )
    proc = _fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["egyfrac", "egyfrac.counting", "egyfrac.exactmath"]


def test_mitm_exact_counts_pinned():
    # believed to be OEIS A092670; 44 was checked once against the plain route
    for n, want in ((40, 1655), (42, 3054), (44, 3054)):
        assert count_mitm(CountQuery(n, Fraction(1), MODE_EXACT)).count == want


@pytest.mark.parametrize("n", range(1, 27))
def test_representations_meet_block_congruence(n):
    groups = _block_groups(n, 1)
    grouped = [{m for option in group for m in option} for group in groups]
    for rep in enumerate_representations(n, Fraction(1), 10_000):
        # the lemma: the multiples of each top power form a block that sums
        # to 0 mod p once divided by q (den(1) = 1, so every prime counts)
        for p, q in _top_powers(n):
            block = [a // q for a in rep if a % q == 0]
            assert sum(pow(j, -1, p) for j in block) % p == 0
        # and each representation is made of the options count_mitm joins
        chosen = set(rep)
        assert chosen <= set().union(*grouped)
        for group, members in zip(groups, grouped):
            part = tuple(sorted(chosen & members))
            assert not part or part in group


@pytest.mark.parametrize("n", [12, 25, 27, 32, 40, 48])
def test_block_groups_take_exactly_the_eligible_top_powers(n):
    for x in BLOCK_TARGETS:
        groups = _block_groups(n, x.denominator)
        singles = {group[0][0] for group in groups if len(group) == len(group[0]) == 1}
        for p, q in _top_powers(n):
            multiples = set(range(q, n + 1, q))
            if x.denominator % q:
                # grouped: a one-element block {jq} has 1/j != 0 mod p, so no
                # block group looks like a singleton
                assert not multiples & singles
            else:
                assert multiples <= singles


ATMOST_TARGETS = [Fraction(1, 2), Fraction(1), Fraction(5, 6), Fraction(3, 2), Fraction(2), Fraction(7, 9)]


@pytest.mark.parametrize("n", range(25, 35))
def test_mitm_atmost_matches_bisect_lcm_mitm(n):
    # the plain route: lcm(1..n)-scaled Python-int lists split at n // 2,
    # the right one sorted and bisected once per left sum
    scale = lcm(*range(1, n + 1))
    halves = []
    for part in (range(1, n // 2 + 1), range(n // 2 + 1, n + 1)):
        sums = [0]
        for m in part:
            sums += [s + scale // m for s in sums]
        halves.append(sums)
    left, right = halves[0], sorted(halves[1])
    for x in ATMOST_TARGETS:
        threshold = x.numerator * scale // x.denominator
        want = sum(bisect_right(right, threshold - s) for s in left)
        assert count_mitm(CountQuery(n, x, MODE_AT_MOST)).count == want


def test_sorted_sums_agree_across_dtypes():
    rng = random.Random(66)
    for _ in range(40):
        groups = [
            [rng.randrange(1, 10**rng.choice((2, 6, 15))) for _ in range(rng.choice((1, 1, 2, 3)))]
            for _ in range(rng.randint(0, 8))
        ]
        want = sorted(sum(pick) for pick in product(*([0] + options for options in groups)))
        # a goal of at least every sum keeps them all
        goal = sum(max(options) for options in groups)
        fixed = _sorted_sums(groups, np.int64, goal)
        exact = _sorted_sums(groups, object, goal)
        assert fixed.dtype == np.int64 and exact.dtype == object
        assert fixed.tolist() == want
        assert exact.tolist() == want


def test_sorted_sums_drop_sums_above_the_goal():
    rng = random.Random(67)
    for _ in range(40):
        groups = [
            [rng.randrange(0, 10**rng.choice((2, 6, 15))) for _ in range(rng.choice((1, 1, 2, 3)))]
            for _ in range(rng.randint(0, 8))
        ]
        every = sorted(sum(pick) for pick in product(*([0] + options for options in groups)))
        goal = max(0, rng.choice(every) + rng.randint(-1, 1))
        want = [s for s in every if s <= goal]
        for dtype in (np.int64, object):
            assert _sorted_sums(groups, dtype, goal).tolist() == want


def test_atmost_kept_half_lists_only_the_sums_within_the_goal():
    # at x = 1 the kept half of n = 44 atmost is [1, 22]: its listed sums are
    # the subsets of [1, 22] with reciprocal sum <= 1, not all 2**22 of them
    scale = lcm(*range(1, 23))
    listed = _sorted_sums([[scale // m] for m in range(1, 23)], np.int64, scale)
    assert len(listed) == count_brute(CountQuery(22, Fraction(1), MODE_AT_MOST)).count == 418373


def test_mitm_atmost_counts_pinned():
    # checked against the Python-list join these replaced; lcm(1..43) is
    # past 2**63, so n = 43 holds exact Python ints
    for n, want in ((40, 28926586886), (42, 100345421237), (43, 186949187927)):
        assert count_mitm(CountQuery(n, Fraction(1), MODE_AT_MOST)).count == want


def test_mitm_refuses_past_the_memory_estimate():
    # n = 48 is within MITM_CAP, but mode "atmost" would keep about 968 MiB
    # of Python ints; the estimate refuses before any sum is listed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MiB"):
        count_mitm(CountQuery(48, Fraction(1), MODE_AT_MOST))
    assert time.perf_counter() - start < 1.0


def test_mitm_estimate_counts_the_searchsorted_results(monkeypatch):
    # n = 40 atmost keeps 2**20 int64 half sums at 12 bytes an entry, merge
    # buffer included (12 MiB), and streams the other half in blocks of
    # 2**16 sums: the inner block and its keys at 12 bytes an entry and the
    # int64 searchsorted results (2 MiB in all); 14 MiB is over a cap one
    # byte below it
    monkeypatch.setattr(counting, "MITM_MEMORY_CAP", 14 * 2**20 - 1)
    with pytest.raises(ValueError, match="14 MiB"):
        count_mitm(CountQuery(40, Fraction(1), MODE_AT_MOST))


def test_mitm_admits_by_the_kept_half(monkeypatch):
    # only the kept half is listed whole: n = 45 atmost keeps 2**22 Python
    # ints and is admitted (248 MiB), n = 48 keeps 2**24 and is refused
    # (968 MiB) before any sum is listed
    class Listed(Exception):
        pass

    def listing(groups, dtype, goal=None):
        raise Listed

    monkeypatch.setattr(counting, "_sorted_sums", listing)
    with pytest.raises(Listed):
        count_mitm(CountQuery(45, Fraction(1), MODE_AT_MOST))
    with pytest.raises(ValueError, match="MiB"):
        count_mitm(CountQuery(48, Fraction(1), MODE_AT_MOST))


@pytest.mark.parametrize("block", [1, 4])
@pytest.mark.parametrize("n", range(1, 23))
def test_mitm_small_blocks_match_brute(n, block, monkeypatch):
    # with blocks of at most 4 sums the streamed half runs as many outer
    # sums; with 1 the inner block is empty and every streamed sum is one
    monkeypatch.setattr(counting, "_BLOCK_SUMS", block)
    for x in BLOCK_TARGETS:
        query = CountQuery(n, x, MODE_EXACT)
        assert count_mitm(query).count == count_brute(query).count
    for x in ATMOST_TARGETS:
        query = CountQuery(n, x, MODE_AT_MOST)
        assert count_mitm(query).count == count_brute(query).count


@pytest.mark.parametrize("block", [1, 4])
@pytest.mark.parametrize("n", [1, 7, 12, 17, 22])
def test_mitm_small_blocks_take_exact_ints(n, block, monkeypatch):
    monkeypatch.setattr(counting, "_BLOCK_SUMS", block)
    for x in (Fraction(2**70), Fraction(2**70 + 1, 3)):
        for mode in (MODE_EXACT, MODE_AT_MOST):
            query = CountQuery(n, x, mode)
            assert count_mitm(query).count == count_brute(query).count


@pytest.mark.parametrize("x", [Fraction(1), Fraction(3, 2)])
def test_mitm_atmost_recurrence(x):
    # a subset of [1, n] either leaves n out or takes it, so
    # count(n, x) = count(n - 1, x) + count(n - 1, x - 1/n), past brute
    # force and whatever the cut and the block boundaries
    def count(n, y):
        return count_mitm(CountQuery(n, y, MODE_AT_MOST)).count

    prev = count(35, x)
    for n in range(36, 42):
        cur = count(n, x)
        assert cur == prev + count(n - 1, x - Fraction(1, n))
        prev = cur


def test_mitm_huge_target_takes_exact_ints():
    # x * lcm(1..n) is past 2**63, so only Python ints hold the goal
    for n in (1, 7, 12):
        for x in (Fraction(2**70), Fraction(2**70 + 1, 3)):
            assert count_mitm(CountQuery(n, x, MODE_AT_MOST)).count == 2**n
            assert count_mitm(CountQuery(n, x, MODE_EXACT)).count == 0
