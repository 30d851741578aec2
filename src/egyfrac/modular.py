"""Subset sums of modular inverses, with minimum-cardinality witnesses.

For an instance (q, I, s_max) the object of interest is which residues
r mod q can be written as a sum of inverses of at most s_max distinct
elements of I. Reachability is tracked per subset size in q-bit integers
(bit r of layer k set iff r is reachable with exactly k elements), so the
0/1-knapsack update is a rotate-and-or. One recurrence, _suffix_rows,
adds the elements from the last to the first and yields a row of layers
after each. Layer k depends only on layers below it, so a table of rows
with s layers grows to s + 1 layers by appending one layer to each row,
last suffix first, and holds exactly the first s + 1 layers of any wider
table. iter_solutions searches sizes in increasing order and keeps one
such table: size 1 needs no rows, and each size s >= 2 appends layer
s - 1, so a witness of size s costs s - 1 layers per element in all. Its
search prefers the earliest element in instance order and asks the row
of the remaining suffix whether a branch completes; for ascending
instances it finds the lexicographically smallest subset among those of
minimum size first. residue_coverage streams fresh rows of s_max + 1
layers and keeps only the last, that of all of I, so a large q never
holds the whole table.

dirichlet_shrink is a pigeonhole dilation: given directions d_i and box
shape a_i it finds a multiplier T in [1, q) such that every T*d_i has a
representative d_i' with |d_i'| <= 2*(q/a_i)*(A/q)**(1/k), A = prod(a_i).

No numpy at import, nor anywhere else in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, islice
from math import gcd, prod
from typing import Iterable, Iterator

__all__ = [
    "ModInstance",
    "ModSubsetSolution",
    "ShrinkResult",
    "make_instance",
    "mod_inverse",
    "iter_solutions",
    "min_subset_inverse_sum",
    "residue_coverage",
    "dirichlet_shrink",
]

# Maps the digits of bin() to bytes that itertools.compress reads as false and true.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class ModInstance:
    q: int
    elements: tuple[int, ...]
    s_max: int


@dataclass(frozen=True)
class ModSubsetSolution:
    subset: tuple[int, ...]
    residue: int
    size: int


@dataclass(frozen=True)
class ShrinkResult:
    t: int
    d_prime: tuple[int, ...]


def make_instance(q: int, elements: Iterable[int], s_max: int) -> ModInstance:
    """Normalize an instance, dropping elements with no inverse mod q.

    Duplicates collapse to their first occurrence and the given order is
    kept otherwise, so callers control which witnesses iter_solutions
    prefers within a size class.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if s_max < 0:
        raise ValueError(f"s_max must be >= 0, got {s_max}")
    elems: list[int] = []
    seen: set[int] = set()
    for raw in elements:
        e = int(raw)
        if e < 1:
            raise ValueError(f"elements must be >= 1, got {e}")
        if e not in seen:
            seen.add(e)
            elems.append(e)
    kept = tuple(e for e in elems if gcd(e, q) == 1)
    return ModInstance(q=q, elements=kept, s_max=s_max)


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a modulo q; everything is 0 mod 1."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q == 1:
        return 0
    a = a % q
    if gcd(a, q) != 1:
        raise ValueError(f"{a} is not invertible mod {q}")
    return pow(a, -1, q)


def _suffix_rows(
    q: int, inverses: list[int], width: int, rows: list[list[int]] | None = None
) -> Iterator[list[int]]:
    """Rows of `width` layers for the suffixes inverses[j:], from j = m down to j = 0.

    Index k of the row for inverses[j:] is the bitmask of residues reachable
    with exactly k elements drawn (with distinct indices) from that suffix.
    Adding an element of inverse i rotates layer k - 1 of the next suffix's
    row (bit r moves to (r + i) mod q) into layer k.

    Streaming (rows is None): each row is built fresh from layer 0, and
    only the one being built and the last one yielded are alive. Coverage
    needs just the row of all of I, and at q = 100003 with s_max = 12 a
    row is ~160 kB, so residue_coverage streams rather than hold ~50 MB of
    rows. Extending (rows given): rows is a table of m + 1 rows indexed by
    j that all hold layers 0..k-1, and each row is extended in place to
    `width` layers, last suffix first, computing only layers k..width-1;
    layer k depends only on layers below it, so the rows equal those of a
    fresh build. iter_solutions keeps such a table and widens it by one
    layer per searched size.
    """
    full = (1 << q) - 1
    m = len(inverses)
    nxt = rows[m] if rows is not None else [1]
    nxt += [0] * (width - len(nxt))
    yield nxt
    for j in range(m - 1, -1, -1):
        row = rows[j] if rows is not None else [1]
        shift = inverses[j] % q
        back = q - shift
        for k in range(len(row), width):
            prev = nxt[k - 1]
            row.append(nxt[k] | ((prev << shift | prev >> back) & full))
        yield row
        nxt = row


def iter_solutions(
    instance: ModInstance,
    target: int,
    limit: int | None = None,
    inverses: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Subsets of I whose inverse sum is target mod q, ordered by (size, lex).

    Every yielded subset has distinct elements and size at most s_max. The
    suffix-layer masks prune the search so each explored branch completes to
    at least one solution, and a size with no solution costs one pass over
    the elements. A search of size s reads layers 0..s-1 of the rows: layer
    0 only says that a remaining target of 0 is reached with no element, so
    size 1 is decided by comparing inverses and needs no rows, and on
    reaching each size s >= 2 _suffix_rows appends layer s - 1 to the one
    table of rows kept for this search. A caller that already holds the
    inverses of the elements mod q may pass them, in element order.
    """
    q = instance.q
    if not 0 <= target < max(q, 1):
        raise ValueError(f"target must lie in [0, {q}), got {target}")

    def emit() -> Iterator[tuple[int, ...]]:
        if q == 1 or target == 0:
            yield ()
            if q == 1:
                return
        elems = instance.elements
        # an instance's elements are units mod q
        invs = inverses if inverses is not None else [pow(e, -1, q) for e in elems]
        m = len(elems)
        suffix: list[list[int]] = []  # suffix[j]: the row of elems[j:], from size 2 on

        def rec(j: int, t: int, k: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if k == 0:
                if t == 0:
                    yield tuple(acc)
                return
            for jj in range(j, m - k + 1):
                t2 = (t - invs[jj]) % q
                if t2 == 0 if k == 1 else (suffix[jj + 1][k - 1] >> t2) & 1:
                    acc.append(elems[jj])
                    yield from rec(jj + 1, t2, k - 1, acc)
                    acc.pop()

        for size in range(1, instance.s_max + 1):
            if size >= 2:
                suffix = suffix or [[1] for _ in range(m + 1)]
                for _ in _suffix_rows(q, invs, size, suffix):
                    pass
            yield from rec(0, target, size, [])

    gen = emit()
    return gen if limit is None else islice(gen, limit)


def min_subset_inverse_sum(instance: ModInstance, target: int) -> ModSubsetSolution | None:
    """Minimum-cardinality subset with inverse sum = target mod q, or None.

    Ties on size break toward the lexicographically smallest subset. The
    returned witness is re-verified before being handed back.
    """
    subset = next(iter(iter_solutions(instance, target, limit=1)), None)
    if subset is None:
        return None
    achieved = sum(mod_inverse(e, instance.q) for e in subset) % max(instance.q, 1)
    want = target % max(instance.q, 1)
    if achieved != want and instance.q > 1:
        raise RuntimeError(f"witness failed re-verification: {subset} -> {achieved} != {want}")
    return ModSubsetSolution(subset=subset, residue=target, size=len(subset))


def residue_coverage(instance: ModInstance) -> list[int | None]:
    """Per residue r in [0, q): the minimum subset size reaching r, else None."""
    q = instance.q
    if q == 1:
        return [0]
    invs = [pow(e, -1, q) for e in instance.elements]
    for layers in _suffix_rows(q, invs, instance.s_max + 1):
        pass
    out: list[int | None] = [None] * q
    seen = 0
    for k, layer in enumerate(layers):
        # bin() lists the bits from the top; reversed, its digit r is bit r.
        for r in compress(range(q), bin(layer & ~seen)[:1:-1].encode().translate(_BIT_BYTES)):
            out[r] = k
        seen |= layer
    return out


def _signed_rep(v: int, q: int) -> int:
    """Representative of v mod q in (-q/2, q/2]."""
    r = v % q
    return r - q if r > q // 2 else r


def dirichlet_shrink(q: int, d: list[int], a: list[int]) -> ShrinkResult:
    """Find T in [1, q) with all |T*d_i mod q| small, by box pigeonhole.

    Residues s = 0, 1, 2, ... are bucketed by the box index of their signed
    representatives; the first bucket collision gives T as the difference of
    the two residues and d_i' as the coordinate differences. The bound
    |d_i'| <= 2*(q/a_i)*(A/q)**(1/k) is re-checked in exact integer
    arithmetic ((|d_i'|*a_i)**k * q <= (2q)**k * A) before returning.
    """
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    k = len(d)
    if k < 1 or len(a) != k:
        raise ValueError("d and a must be nonempty and of equal length")
    if any(ai < 1 for ai in a):
        raise ValueError("entries of a must be positive")
    cap = prod(a)  # A
    widths = [2.0 * (q / ai) * (cap / q) ** (1.0 / k) for ai in a]

    buckets: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for s in range(q):
        sig = [_signed_rep(s * di, q) for di in d]
        key = tuple(math.floor(sig_i / w_i) for sig_i, w_i in zip(sig, widths))
        for s0, sig0 in buckets.get(key, ()):
            diff = [si - s0i for si, s0i in zip(sig, sig0)]
            if all((abs(di) * ai) ** k * q <= (2 * q) ** k * cap for di, ai in zip(diff, a)):
                return ShrinkResult(t=s - s0, d_prime=tuple(diff))
        buckets.setdefault(key, []).append((s, sig))
    raise RuntimeError("no admissible collision found; this should be unreachable")
