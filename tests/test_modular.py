"""Modular subset-sum tests.

The bitset solver is held against brute-force enumeration with
itertools.combinations, which doubles as the ordering oracle: walking
combinations of an ascending instance in increasing size emits candidate
subsets in exactly the promised (size, lex) order.
"""

import random
from itertools import combinations
from math import gcd, prod

import pytest

from egyfrac.modular import (
    ModSubsetSolution,
    _suffix_rows,
    dirichlet_shrink,
    iter_solutions,
    make_instance,
    min_subset_inverse_sum,
    mod_inverse,
    residue_coverage,
)


def brute_solutions(instance, target):
    """All valid subsets in (size, lex) order, by sheer enumeration."""
    q = instance.q
    out = []
    for size in range(instance.s_max + 1):
        for combo in combinations(instance.elements, size):
            if sum(mod_inverse(e, q) for e in combo) % q == target % q:
                out.append(combo)
    return out


def test_mod_inverse_basics():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 2) == 1
    assert mod_inverse(10, 1) == 0
    with pytest.raises(ValueError):
        mod_inverse(6, 9)
    with pytest.raises(ValueError):
        mod_inverse(3, 0)


def test_mod_inverse_random_property():
    rng = random.Random(31)
    for _ in range(200):
        q = rng.randrange(2, 5000)
        a = rng.randrange(1, q)
        if gcd(a, q) != 1:
            continue
        assert (a * mod_inverse(a, q)) % q == 1


def test_make_instance_normalization():
    inst = make_instance(10, [9, 3, 2, 7, 9, 5], 3)
    # 2 and 5 share a factor with 10 and disappear; order of the rest is kept
    assert inst.elements == (9, 3, 7)
    assert inst.q == 10
    assert inst.s_max == 3
    with pytest.raises(ValueError):
        make_instance(0, [1], 1)
    with pytest.raises(ValueError):
        make_instance(5, [0], 1)
    with pytest.raises(ValueError):
        make_instance(5, [2], -1)


def test_iter_solutions_matches_brute_enumeration():
    inst = make_instance(13, range(2, 11), 3)
    for target in range(13):
        got = list(iter_solutions(inst, target))
        assert got == brute_solutions(inst, target)


def test_iter_solutions_respects_limit_and_target_range():
    inst = make_instance(11, range(2, 9), 4)
    full = list(iter_solutions(inst, 5))
    assert list(iter_solutions(inst, 5, limit=3)) == full[:3]
    with pytest.raises(ValueError):
        list(iter_solutions(inst, 11))
    with pytest.raises(ValueError):
        list(iter_solutions(inst, -1))


def test_target_zero_starts_with_empty_subset():
    inst = make_instance(7, [2, 3, 4, 5, 6], 3)
    sols = list(iter_solutions(inst, 0))
    assert sols[0] == ()
    assert sols == brute_solutions(inst, 0)


def test_min_subset_known_witnesses():
    inst = make_instance(7, [2, 3, 4, 5], 2)
    sol = min_subset_inverse_sum(inst, 6)
    assert isinstance(sol, ModSubsetSolution)
    # inverses mod 7: 2 -> 4, 4 -> 2; and 4 + 2 = 6
    assert sol.subset == (2, 4)
    assert sol.size == 2
    assert sol.residue == 6
    assert min_subset_inverse_sum(make_instance(5, [2, 3], 2), 1) is None


def test_min_subset_matches_exhaustive_search():
    rng = random.Random(77)
    for _ in range(60):
        q = rng.randrange(2, 32)
        size = rng.randrange(1, 9)
        elements = sorted(rng.sample(range(1, 40), size))
        inst = make_instance(q, elements, rng.randrange(0, 5))
        for target in range(q):
            brute = brute_solutions(inst, target)
            sol = min_subset_inverse_sum(inst, target)
            if not brute:
                assert sol is None
            else:
                assert sol is not None
                assert sol.subset == brute[0]
                assert sol.size == len(brute[0])


def test_residue_coverage_small_case():
    inst = make_instance(5, [2, 3], 2)
    assert residue_coverage(inst) == [0, None, 1, 1, None]
    assert residue_coverage(make_instance(1, [1], 2)) == [0]


def test_residue_coverage_agrees_with_solver():
    rng = random.Random(13)
    for _ in range(25):
        q = rng.randrange(2, 64)
        pool = [e for e in rng.sample(range(1, 100), rng.randrange(1, 12))]
        inst = make_instance(q, pool, rng.randrange(0, 6))
        cover = residue_coverage(inst)
        assert len(cover) == q
        for r, size in enumerate(cover):
            sol = min_subset_inverse_sum(inst, r)
            if size is None:
                assert sol is None
            else:
                assert sol is not None
                assert sol.size == size


def test_zero_s_max_only_reaches_zero():
    inst = make_instance(9, [2, 4, 5], 0)
    cover = residue_coverage(inst)
    assert cover[0] == 0
    assert all(c is None for c in cover[1:])
    assert list(iter_solutions(inst, 0)) == [()]
    assert list(iter_solutions(inst, 4)) == []


def shrink_postconditions(q, d, a, result):
    k = len(d)
    cap = prod(a)
    assert 1 <= result.t < q
    assert len(result.d_prime) == k
    for di, dpi, ai in zip(d, result.d_prime, a):
        assert (result.t * di - dpi) % q == 0
        assert (abs(dpi) * ai) ** k * q <= (2 * q) ** k * cap


def test_dirichlet_shrink_known_instances():
    res = dirichlet_shrink(101, [50], [10])
    shrink_postconditions(101, [50], [10], res)
    res = dirichlet_shrink(49, [10, 11], [2, 2])
    shrink_postconditions(49, [10, 11], [2, 2], res)


def test_dirichlet_shrink_random_instances():
    rng = random.Random(404)
    for _ in range(60):
        q = rng.randrange(2, 2000)
        k = rng.randrange(1, 4)
        d = [rng.randrange(0, q) for _ in range(k)]
        a = [rng.randrange(1, 20) for _ in range(k)]
        res = dirichlet_shrink(q, d, a)
        shrink_postconditions(q, d, a, res)


def test_dirichlet_shrink_validation():
    with pytest.raises(ValueError):
        dirichlet_shrink(1, [0], [1])
    with pytest.raises(ValueError):
        dirichlet_shrink(10, [], [])
    with pytest.raises(ValueError):
        dirichlet_shrink(10, [1, 2], [3])
    with pytest.raises(ValueError):
        dirichlet_shrink(10, [1], [0])


def test_iter_solutions_matches_brute_on_random_instances():
    # the rows are rebuilt per searched size, so targets whose smallest sizes
    # have no solution exercise the rebuild before the first witness
    rng = random.Random(2024)
    late = 0
    for _ in range(60):
        q = rng.randrange(2, 40)
        elements = sorted(rng.sample(range(1, 60), rng.randrange(1, 10)))
        inst = make_instance(q, elements, rng.randrange(1, 7))
        limit = rng.choice([None, 1, 3, 10])
        for target in range(q):
            brute = brute_solutions(inst, target)
            assert list(iter_solutions(inst, target, limit=limit)) == brute[:limit]
            # the same search from inverses the caller computed
            invs = [pow(e, -1, q) for e in inst.elements]
            assert list(iter_solutions(inst, target, limit=limit, inverses=invs)) == brute[:limit]
            late += bool(brute) and len(brute[0]) >= 3
    assert late > 0


@pytest.mark.parametrize("q", [255, 256, 257, 1009])
def test_residue_coverage_across_byte_boundaries(q):
    inst = make_instance(q, range(10, 22), 4)
    cover = residue_coverage(inst)
    assert len(cover) == q
    for r, size in enumerate(cover):
        sol = min_subset_inverse_sum(inst, r)
        assert (sol.size if sol is not None else None) == size
    assert None in cover and max(c for c in cover if c is not None) == 4


def test_suffix_rows_extended_in_place_match_a_fresh_build():
    # iter_solutions grows one table of rows a layer at a time; every width
    # must give the rows a fresh build of that width gives, and both must
    # hold the k-subset sums of each suffix found by enumeration
    rng = random.Random(2024)
    for _ in range(150):
        q = rng.choice([2, 3, 5, 7, 11, 13, 17, 29, 31])
        invs = [rng.randrange(1, q) for _ in range(rng.randint(0, 9))]
        s_max = rng.randint(1, 6)
        m = len(invs)
        rows = [[1] for _ in range(m + 1)]
        for width in range(2, s_max + 2):
            for _ in _suffix_rows(q, invs, width, rows):
                pass
            fresh = list(_suffix_rows(q, invs, width))[::-1]
            assert rows == fresh, (q, invs, width)
            for j in range(m + 1):
                for k in range(width):
                    want = 0
                    for combo in combinations(invs[j:], k):
                        want |= 1 << (sum(combo) % q)
                    assert rows[j][k] == want, (q, invs, j, k)


def unpackbits_coverage(instance):
    """residue_coverage's layers read through numpy's unpackbits: the oracle for its bit reading."""
    import numpy as np

    q = instance.q
    invs = [pow(e, -1, q) for e in instance.elements]
    layers = list(_suffix_rows(q, invs, instance.s_max + 1))[-1]
    out = [None] * q
    seen = 0
    for k, layer in enumerate(layers):
        new = np.frombuffer((layer & ~seen).to_bytes((q + 7) // 8, "little"), dtype=np.uint8)
        for r in np.flatnonzero(np.unpackbits(new, bitorder="little")).tolist():
            out[r] = k
        seen |= layer
    return out, layers


@pytest.mark.parametrize(
    "q, elements, s_max",
    [
        (2, [1], 3),
        (3, [1, 2], 4),
        (101, range(11, 22), 6),
        (101, [100, 3, 7], 5),
        (1009, range(10, 22), 4),
        (1009, [1008, 500, 501], 6),
        (65537, range(2, 14), 3),
        (65537, [65536, 2, 3, 5], 6),
        (100003, range(317, 635), 12),
        (100003, [100002, 7, 11], 5),
    ],
)
def test_residue_coverage_reads_the_bits_unpackbits_reads(q, elements, s_max):
    inst = make_instance(q, elements, s_max)
    want, layers = unpackbits_coverage(inst)
    assert residue_coverage(inst) == want
    if q - 1 in inst.elements:
        # q - 1 is its own inverse, so bit q - 1 is set in layer 1 and every
        # layer past the element count is empty
        assert layers[1] >> (q - 1) & 1 and want[q - 1] == 1
        assert layers[-1] == 0
