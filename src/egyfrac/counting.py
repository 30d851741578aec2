"""Exact counting of reciprocal-sum representations inside [1, n].

Three independent routes are kept deliberately separate so they can serve
as oracles for each other:

* count_brute walks the subset tree with reciprocals scaled by
  lcm(1..n) * den(x) to integers,
* count_mitm scales everything to integers and meets in the middle over
  integer subset sums. In mode "exact" it first eliminates top-prime-power
  blocks: the multiples of a top power p**k <= n of a prime p can only be
  used as a block whose reciprocals sum to 0 mod p (listed by
  egyfrac.modular, which only _block_groups loads), so it meets in the
  middle over those blocks and the remaining single elements. Mode
  "atmost" has no such lemma and meets in the middle over all of [1, n].
  Both modes share one numpy kernel: the smaller half's sums are built
  sorted in one preallocated array, and the other half is streamed in
  blocks, never stored, each block a searchsorted count against the kept
  half, and
* count_dp (mode "exact" only) eliminates the elements grouped by their
  largest prime factor, largest prime first, carrying a map from each
  remaining target to its multiplicity. Its primes and their top powers
  come from exactmath.top_powers, and it calls neither of the other two
  routes nor _block_groups.

They count subsets A of {1..n} with sum of 1/a equal to x (mode "exact") or
at most x (mode "atmost", boundary ties included).

reciprocal_subsets lists the subsets whose reciprocals sum exactly to x; it
serves enumerate_representations here and the reservoir stage of
egyfrac.absorption. count_brute does not reuse it: as an oracle for
count_mitm it must stay independent, and its mode "atmost" shortcut (count
a whole 2**k block once the tail fits) would make the shared walk branch on
which caller it serves.

No numpy or egyfrac.modular at import: only count_mitm needs them, and
imports them. count_dp is pure Python and loads neither.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product
from math import lcm
from operator import mul
from typing import Iterator, Sequence

from .exactmath import lcm_range, reciprocal_sum, top_powers

MODE_EXACT = "exact"
MODE_AT_MOST = "atmost"

BRUTE_CAP = 25
# count_mitm lists about 2**(n//q)/p blocks of a top power q = p**k before
# its memory estimate runs; this cap, not the estimate, bounds that listing.
MITM_CAP = 48
DP_CAP = 200
ENUM_CAP = 40
# Bytes: count_mitm refuses a query whose arrays are estimated above this.
MITM_MEMORY_CAP = 512 * 2**20
# count_mitm's inner block: the streamed half's trailing sums joined per call.
_BLOCK_SUMS = 2**16

__all__ = [
    "MODE_EXACT", "MODE_AT_MOST", "BRUTE_CAP", "MITM_CAP", "DP_CAP", "ENUM_CAP", "MITM_MEMORY_CAP",
    "CountQuery", "CountResult", "count_brute", "count_mitm", "count_dp",
    "enumerate_representations", "reciprocal_subsets",
]


@dataclass(frozen=True)
class CountQuery:
    n: int
    x: Fraction
    mode: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        object.__setattr__(self, "x", Fraction(self.x))
        if self.x <= 0:
            raise ValueError(f"x must be positive, got {self.x}")
        if self.mode not in (MODE_EXACT, MODE_AT_MOST):
            raise ValueError(f"mode must be {MODE_EXACT!r} or {MODE_AT_MOST!r}, got {self.mode!r}")


@dataclass(frozen=True)
class CountResult:
    query: CountQuery
    count: int
    method: str
    elapsed: float


def count_brute(query: CountQuery) -> CountResult:
    """Count by exhaustive traversal of the subset tree with exact sums.

    Every reciprocal is scaled by L = lcm(1..n) * den(x), so 1/m becomes
    the integer L // m, x becomes num(x) * lcm(1..n), and the walk compares
    integers. Two exact shortcuts keep the traversal honest but affordable:
    a branch whose partial sum already exceeds x is dead (reciprocals only
    add), and in mode "atmost" a branch whose partial sum plus the whole
    remaining tail stays within x contributes a full 2**k block.
    """
    if query.n > BRUTE_CAP:
        raise ValueError(f"count_brute refuses n={query.n}: cap is {BRUTE_CAP} (2**n subsets)")
    start = time.perf_counter()
    n, x, mode = query.n, query.x, query.mode
    base = lcm(*range(1, n + 1))
    scale = base * x.denominator
    goal = x.numerator * base
    rec = [scale // m for m in range(1, n + 1)]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + rec[i]
    at_most = mode == MODE_AT_MOST

    def walk(i: int, s: int) -> int:
        if s > goal:
            return 0
        rest = suffix[i]
        if at_most:
            if s + rest <= goal:
                return 1 << (n - i)
        else:
            total = s + rest
            if total < goal:
                return 0
            if total == goal:
                return 1
        return walk(i + 1, s + rec[i]) + walk(i + 1, s)

    count = walk(0, 0)
    return CountResult(query, count, "brute", time.perf_counter() - start)


def _block_groups(n: int, den: int) -> list[list[tuple[int, ...]]]:
    """[1, n] as option groups for an exact count of a target with denominator den.

    A group lists its non-empty options as element tuples; the empty option
    is implicit. An eligible prime's top power q = p**k (q <= n < q*p, q not
    dividing den) makes one group of its multiples jq, whose options are the
    blocks with sum of 1/j = 0 (mod p); every other element is a singleton
    group. Groups appear in the order of their smallest elements, and a
    group with no admissible non-empty block is left out.
    """
    from .modular import iter_solutions, make_instance
    blocks: dict[int, list[tuple[int, ...]]] = {}
    grouped: set[int] = set()
    for p, q in top_powers(n).items():
        if den % q:
            top = n // q
            found = iter_solutions(make_instance(p, range(1, top + 1), top), 0)
            blocks[q] = [tuple(j * q for j in block) for block in found if block]
            grouped.update(range(q, n + 1, q))
    groups = []
    for m in range(1, n + 1):
        if m in blocks:
            groups.append(blocks[m])
        elif m not in grouped:
            groups.append([(m,)])
    return [group for group in groups if group]


def _sorted_sums(groups: list[list[int]], dtype, goal: int) -> np.ndarray:
    """Every sum up to goal taking at most one option weight from each group, ascending.

    The empty option (weight 0) is implicit, so a singleton group [w] is the
    plain include-or-skip step of a subset-sum list. Weights are >= 0, so a
    sum above goal stays above it: option w adds only the listed sums up to
    goal - w, a prefix. The array is resized in place (no view of it is
    alive) to append them, so it holds len(group) + 1 ascending runs, which
    a stable sort (a timsort for int64 and object arrays) merges run by run;
    on object arrays a full sort is several times slower.
    """
    import numpy as np
    sums = np.zeros(1, dtype=dtype)
    for options in groups:
        k = len(sums)
        cuts = [int(np.searchsorted(sums, goal - w, "right")) for w in options]
        sums.resize(k + sum(cuts), refcheck=False)
        for w, cut in zip(options, cuts):
            np.add(sums[:cut], w, out=sums[k : k + cut])
            k += cut
        sums.sort(kind="stable")
    return sums


def count_mitm(query: CountQuery) -> CountResult:
    """Meet-in-the-middle count over reciprocals scaled to integers.

    Mode "exact" first eliminates top-prime-power blocks. Let p be a prime
    with top power q = p**k <= n < q*p that does not divide den(x), so
    v_p(x) >= -(k-1). Every a in [1, n] that q does not divide has
    v_p(1/a) >= -(k-1). For a representation A, let J hold the j with jq in
    A (so j <= n//q < p). Then (1/q) * sum_{j in J} 1/j equals x minus the
    other reciprocals in A, whose valuation is >= -(k-1); hence
    sum_{j in J} 1/j has v_p >= 1, i.e. it is 0 mod p. So the multiples of q
    form one group whose options are these blocks J (modular.iter_solutions,
    the empty block included), and every other element is a singleton group.
    The groups are disjoint: if p**k * r**m <= n for primes p != r, then
    p**k <= n / r**m < r and likewise r**m < p, which cannot both hold.
    The lemma needs equality, so mode "atmost" keeps every element a
    singleton group.

    With L the lcm of the elements left in some option, every option weight
    becomes an integer multiple of 1/L, and x becomes the goal x*L (mode
    "exact"; no subset hits x when that is not an integer) or floor(x*L)
    (mode "atmost"). The groups are cut into two runs of near-equal
    option-count product. Only the smaller run, the kept half, is listed:
    _sorted_sums builds its sums in ascending order. The other run is
    streamed in blocks and never stored. Its trailing groups, up to
    _BLOCK_SUMS sums, form the inner block, listed once; the sums o of its
    leading groups are taken one at a time. For each o the keys
    goal - o - inner are searched in the kept half: mode "atmost" counts the
    kept sums <= each key (searchsorted "right"), mode "exact" those equal
    to it ("right" minus "left"), and the block's total is added to an
    exact Python int. Weights are >= 0, so a sum above the goal takes part
    in no count: the kept half and the inner block list only the sums up to
    the goal, and an o above it is skipped. The arrays are int64 when the
    largest value any step can hold (the sum of each group's largest
    weight, plus the goal, plus 1) is below 2**63, and exact Python ints
    (dtype object) otherwise: at x = 1 mode "atmost" stays int64 up to
    n = 42, and mode "exact", scaled by the lcm of the surviving block
    elements only, at every n the cap allows.

    Before any sum is listed, the memory is estimated as if none were
    dropped: the kept half, plus the block temporaries, which are the inner
    block, its keys and the searchsorted results at 8 bytes a key (mode
    "atmost") or 16 (mode "exact", two arrays at once); a query estimated
    above MITM_MEMORY_CAP bytes raises ValueError. Every listed entry counts
    4 bytes of the stable sort's merge buffer, which holds up to k/2 entries
    when k are sorted. So an int64 entry costs 12 bytes, and an object entry
    its 8-byte pointer, 4 bytes of buffer and its int, taken at the bound's
    size rounded up to the allocator's 16-byte blocks. docs/schemas.md gives
    the admitted range and measured peaks.
    """
    if query.n > MITM_CAP:
        raise ValueError(f"count_mitm refuses n={query.n}: cap is {MITM_CAP} (2**(n/2) half sums)")
    import numpy as np
    start = time.perf_counter()
    n, x, mode = query.n, query.x, query.mode
    if mode == MODE_EXACT:
        groups = _block_groups(n, x.denominator)
    else:
        groups = [[(m,)] for m in range(1, n + 1)]
    scale = lcm(*(m for group in groups for option in group for m in option))
    weights = [[sum(scale // m for m in option) for option in group] for group in groups]
    # The cut minimising the total half-list length, the earliest on ties.
    sizes = list(accumulate((len(group) + 1 for group in groups), mul, initial=1))
    half = min(range(len(sizes)), key=lambda i: sizes[i] + sizes[-1] // sizes[i])
    if mode == MODE_EXACT:
        scaled = x * scale
        if scaled.denominator != 1:
            return CountResult(query, 0, "mitm", time.perf_counter() - start)
        goal = scaled.numerator
    else:
        goal = (x.numerator * scale) // x.denominator
    bound = sum(max(options) for options in weights) + goal + 1
    dtype = np.int64 if bound < 2**63 else object
    kept_size = min(sizes[half], sizes[-1] // sizes[half])
    kept, streamed = weights[:half], weights[half:]
    if sizes[half] > kept_size:
        kept, streamed = streamed, kept
    # The streamed half's leading groups give the outer sums; the trailing
    # ones, whose sums number at most _BLOCK_SUMS, the inner block.
    lead, block = len(streamed), 1
    while lead and block * (len(streamed[lead - 1]) + 1) <= _BLOCK_SUMS:
        lead -= 1
        block *= len(streamed[lead]) + 1
    entry_bytes = 12 if dtype is np.int64 else 12 + -(-sys.getsizeof(bound) // 16) * 16
    count_bytes = 16 if mode == MODE_EXACT else 8
    estimate = kept_size * entry_bytes + block * (2 * entry_bytes + count_bytes)
    if estimate > MITM_MEMORY_CAP:
        raise ValueError(
            f"count_mitm refuses n={n}: its kept half sums and join blocks need about "
            f"{estimate / 2**20:.0f} MiB, over the {MITM_MEMORY_CAP // 2**20} MiB memory cap"
        )
    kept_sums = _sorted_sums(kept, dtype, goal)
    inner = _sorted_sums(streamed[lead:], dtype, goal)
    keys = np.empty_like(inner)
    count = 0
    for picks in product(*([0, *options] for options in streamed[:lead])):
        rest = goal - sum(picks)
        if rest < 0:
            continue
        np.subtract(rest, inner, out=keys)
        found = np.searchsorted(kept_sums, keys, "right")
        if mode == MODE_EXACT:
            found -= np.searchsorted(kept_sums, keys, "left")
        count += int(found.sum())
    return CountResult(query, count, "mitm", time.perf_counter() - start)


def count_dp(query: CountQuery) -> CountResult:
    """Exact count by eliminating the elements grouped by largest prime factor.

    Pure Python: numpy is never imported. With G_p the elements of [2, n]
    whose largest prime factor is p, the state is a map from each remaining
    target r to the number of ways of reaching it, starting at {x: 1}. The
    primes are taken in descending order, so G_p is the multiples of p left
    in [2, n] once the larger primes' groups are gone, and group p subtracts
    each subset sum s of G_p from each state. Every element left after G_p is
    (p-1)-smooth, so r - s is kept only when v_p(r - s) >= 0 and
    0 <= r - s <= R_p, the reciprocal mass of the groups still to come plus
    1 for the element 1. The count is the multiplicity of 0 plus that of 1.

    All of it is integer arithmetic over one common denominator D. Every
    subset sum has a denominator dividing lcm(1..n), so a target whose
    denominator does not divide it has no representation. Otherwise D starts
    at lcm(1..n), and at group p it is the product of the top powers
    q**k <= n of the primes q <= p; p's top power p**e lies in G_p, so
    D = lcm(G_p) * K with K prime to p. A state is its numerator N = r * D,
    and an element m of G_p weighs the integer D // m. The condition
    v_p(r - s) >= 0 is then N ≡ w (mod p**e) for a subset sum w: G_p's sums,
    listed with their multiplicities and only up to the largest N, are
    bucketed by w mod p**e in ascending order, and a state meets only its own
    bucket, within [N - R_p * D, N]. Each kept N - w is divisible by p**e,
    and p leaves D for good: the next state is (N - w) // p**e over
    D // p**e. After G_2, D is 1.
    """
    if query.n > DP_CAP:
        raise ValueError(f"count_dp refuses n={query.n}: cap is {DP_CAP} (state maps grow with n)")
    if query.mode != MODE_EXACT:
        raise ValueError(
            f"count_dp counts mode {MODE_EXACT!r} only: v_p(r - s) >= 0 needs an exact target"
        )
    start = time.perf_counter()
    n, x = query.n, query.x
    den = lcm_range(n)
    if den % x.denominator:
        return CountResult(query, 0, "dp", time.perf_counter() - start)
    states = {x.numerator * (den // x.denominator): 1}
    # The elements of the groups still to come: the multiples of every
    # larger prime are gone, so those of p left in below make up G_p.
    below = list(range(2, n + 1))
    for p, pe in reversed(top_powers(n).items()):
        group = [m for m in below if m % p == 0]
        below = [m for m in below if m % p]
        bound = den + sum(den // m for m in below)
        top = max(states)
        sums = {0: 1}
        for m in group:
            w = den // m
            for s, c in list(sums.items()):
                if s + w <= top:
                    sums[s + w] = sums.get(s + w, 0) + c
        buckets: dict[int, tuple[list[int], list[int]]] = {}
        for w in sorted(sums):
            ws, cs = buckets.setdefault(w % pe, ([], []))
            ws.append(w)
            cs.append(sums[w])
        nxt: dict[int, int] = {}
        for num, mult in states.items():
            bucket = buckets.get(num % pe)
            if bucket is None:
                continue
            ws, cs = bucket
            for i in range(bisect_left(ws, num - bound), bisect_right(ws, num)):
                key = (num - ws[i]) // pe
                nxt[key] = nxt.get(key, 0) + mult * cs[i]
        states = nxt
        den //= pe
        if not states:
            break
    count = states.get(0, 0) + states.get(1, 0)
    return CountResult(query, count, "dp", time.perf_counter() - start)


def reciprocal_subsets(
    denoms: Sequence[int], x: Fraction, node_budget: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield the subsets of `denoms` whose reciprocals sum exactly to x.

    `denoms` must be ascending distinct positive integers. Subsets come out
    as ascending tuples in lexicographic order, from an include-first
    depth-first walk on an explicit stack. Pruning is exact: an element is
    skipped when its reciprocal overshoots the remainder, and a branch stops
    when the whole tail cannot reach the remainder. A node is a state with a
    non-zero remainder, elements left and enough tail mass to cover the
    remainder; the walk stops for good once it has used more than
    `node_budget` nodes. The tail masses tails[i] (the reciprocal sum of
    denoms[i:]) start from the total and are extended only as deep as the
    walk reaches, so a short walk over a long ground set stays cheap.
    """
    x = Fraction(x)
    if x == 0:
        yield ()
        return
    tails = [reciprocal_sum(denoms)]
    if not 0 < x <= tails[0]:
        return
    rec: list[Fraction] = []
    chosen: list[int] = []
    # (index, remainder, len(chosen) on entry); every entry already passed
    # the tail test, and the chosen prefixes of the entries nest.
    stack = [(0, x, 0)]
    nodes = 0
    while stack:
        i, rem, k = stack.pop()
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return
        del chosen[k:]
        if len(tails) == i + 1:
            # first node at depth i; the node that pushed it had tails[i]
            rec.append(Fraction(1, denoms[i]))
            tails.append(tails[i] - rec[i])
        if tails[i + 1] >= rem:
            stack.append((i + 1, rem, k))
        r = rec[i]
        if r <= rem:
            chosen.append(denoms[i])
            rest = rem - r
            if rest:
                # including keeps the tail test: tails[i + 1] >= rem - r
                stack.append((i + 1, rest, k + 1))
            else:
                yield tuple(chosen)


def enumerate_representations(n: int, x: Fraction, limit: int) -> list[tuple[int, ...]]:
    """Up to `limit` subsets of [1, n] with reciprocal sum exactly x.

    Results come out in lexicographic order of the sorted element tuples
    (see reciprocal_subsets).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUM_CAP:
        raise ValueError(f"enumerate_representations refuses n={n}: cap is {ENUM_CAP}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return list(islice(reciprocal_subsets(range(1, n + 1), x), limit))
