"""Constructive pipeline assembling an exact representation x = sum 1/a.

Stages, each exact-rational end to end:

1.  Sample a base set A0 from a max-entropy profile restricted to a
    universe of reservoir-free, moderately powersmooth integers, rejecting
    until s(A0) <= (1 - eta) * x, so a slice of mass is held back. Each
    draw is judged by a float64 sum whose rounding error, for n up to 4e6,
    provably stays inside an exact-fallback band (see sample_base_set), so
    a rejected draw is never summed exactly and the accepted one is summed
    exactly once, for x0 = x - s(A0).
2.  Cancel denominator prime powers of the remainder x0 = x - s(A0) in
    descending order: for the largest prime power q > L dividing den(x_i),
    pick a small set B of cofactors b (coprime to q, each maximal prime
    power of b below q) whose inverse sum hits u * (v/q)^(-1) mod q where
    x_i = u/v. Subtracting sum(1/(q*b)) then removes the prime of q from
    the denominator entirely, and any prime power the cofactors introduce
    is strictly below q. So no prime power above q can divide a later
    denominator, and the sweep is one pass over the per-prime-power pools,
    which are keyed in descending order: each key is tested once, against
    the remainder current when the pass reaches it.
3.  The final remainder x_f has denominator dividing K = lcm(prime powers
    <= L); finish exactly inside the reserved multiples of K by writing
    K * x_f as a sum of distinct reciprocals from [1, n // K]. The search
    is egyfrac.counting.reciprocal_subsets, the exact-subset walk that
    also lists representations.

Element disjointness across stages is enforced by a shared used-set: the
reservoir never appears in stage 1 or 2, and stage 2 consults the used-set
before taking any multiple.

The reservoir is the multiples of K in [1, n], tested as m % K == 0.
build_config's tables (the pools and the inverses of their members, and
the universe's members, reciprocals and draw thresholds as read-only
arrays) depend on (n, x, L) only; they are cached for the latest (n, x, L)
and shared, never mutated, by the configs of every seed, so a run over
consecutive seeds builds them once.

Six settings are constants of AbsorptionConfig: the held-back mass share
eta = 1/4, the witness size cap s_max = 12, the alt_limit = 10 witnesses
tried per step, pool_margin = 24, which bounds the universe's prime powers
by n // pool_margin, the reservoir search's node_budget = 2,000,000, and
the max_attempts = 50 attempts a seed makes before it reports failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping

import numpy as np

from .counting import reciprocal_subsets
from .entropy import discrete_profile
from .exactmath import (
    _frac_str,
    lcm_range,
    max_prime_power_table,
    prime_powers_in,
    reciprocal_sum,
    verify_representation,
)
from .modelsim import _EXACT_BAND, _check_seed, _draw_mask, _thresholds, _trial_rng
from .modular import ModInstance, iter_solutions, mod_inverse

__all__ = [
    "AbsorptionConfig",
    "AbsorptionStep",
    "AbsorptionTrace",
    "CancelStepError",
    "build_config",
    "sample_base_set",
    "cancel_prime_powers",
    "reservoir_decompose",
    "construct_representation",
    "verify_representation",
    "trace_to_dict",
    "replay_trace",
]


class CancelStepError(RuntimeError):
    """A denominator prime power could not be cancelled from the remainder."""

    def __init__(self, q: int, message: str):
        super().__init__(message)
        self.q = q


@dataclass(frozen=True, eq=False)
class AbsorptionConfig:
    n: int
    x: Fraction
    L: int
    K: int
    seed: int
    pools: Mapping[int, tuple[int, ...]] = field(repr=False)
    # inverses[q][i] is pools[q][i]**-1 mod q.
    inverses: Mapping[int, tuple[int, ...]] = field(repr=False)
    # The sampling universe as an ascending int64 array, its reciprocals
    # 1/m, and the word thresholds of its base-profile probabilities
    # (modelsim._thresholds).
    members: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    lim: np.ndarray = field(repr=False)
    max_attempts: ClassVar[int] = 50
    eta: ClassVar[Fraction] = Fraction(1, 4)
    s_max: ClassVar[int] = 12
    alt_limit: ClassVar[int] = 10
    pool_margin: ClassVar[int] = 24
    node_budget: ClassVar[int] = 2_000_000


@dataclass(frozen=True)
class AbsorptionStep:
    q: int
    cofactors: tuple[int, ...]
    x_after: Fraction

    def elements(self) -> tuple[int, ...]:
        return tuple(self.q * b for b in self.cofactors)


@dataclass(frozen=True)
class AbsorptionTrace:
    n: int
    x: Fraction
    seed: int
    attempt: int
    success: bool
    base_set: tuple[int, ...]
    steps: tuple[AbsorptionStep, ...]
    x_f: Fraction | None
    d_indices: tuple[int, ...] | None
    elements: tuple[int, ...]
    reason: str | None = None


def build_config(n: int, x, L: int = 4, seed: int = 0) -> AbsorptionConfig:
    """Precompute the sampling universe and the per-prime-power pools.

    Only the seed is set per call (a seed outside [0, 2**64) raises
    ValueError before any table is built); the rest is cached for the
    latest (n, x, L) and shared, and the pools are a read-only mapping. The
    reservoir is the multiples of K = lcm(1..L) in [1, n]. The universe
    (config.members) keeps the m off the reservoir whose maximal prime
    powers are at most max(L, n // pool_margin), with pool_margin = 24 a
    constant of AbsorptionConfig (as are eta = 1/4, s_max = 12,
    alt_limit = 10 and max_attempts = 50): every prime power the base set
    can push into the denominator then has at least pool_margin candidate
    multiples left for the cancellation stage. The pools are keyed by the
    prime powers in (L, n // 2] in descending order, which the sweep relies
    on to find the largest prime power of a denominator first. Each pool is
    ordered by descending cofactor so the witness search proposes the
    lightest subsets first; otherwise the sweep spends its mass budget on
    early steps and the small prime powers at the tail cannot be cancelled
    without going negative.
    """
    seed = _check_seed(seed)  # before any table is built
    return replace(_tables(n, Fraction(x), L), seed=seed)


@lru_cache(maxsize=1)
def _tables(n: int, x: Fraction, L: int) -> AbsorptionConfig:
    """build_config's seed-independent work, as a config with the default seed."""
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if L < 2:
        raise ValueError(f"L must be >= 2 so K has at least one prime power, got {L}")
    K = lcm_range(L)
    if n < 4 * K:
        raise ValueError(f"n={n} is too small: need n >= 4*K = {4 * K} for a usable reservoir")
    # lcm(1..n//2) holds every prime power <= n/2 and no larger one.
    if lcm_range(n // 2) % x.denominator:
        raise ValueError(
            f"denominator of x={x} has a prime power above n/2 = {n // 2}"
        )

    mppf = max_prime_power_table(n)
    t_u = max(L, n // AbsorptionConfig.pool_margin)
    # Never empty: m = 1 is off the reservoir (K >= 2) and 1-powersmooth.
    ms = np.arange(1, n + 1, dtype=np.int64)
    members = ms[(ms % K != 0) & (mppf[1:] <= t_u)]

    pools: dict[int, tuple[int, ...]] = {}
    inverses: dict[int, tuple[int, ...]] = {}
    for _, q in prime_powers_in(L + 1, n // 2):
        pool = tuple(
            b
            for b in range(n // q, 0, -1)
            if gcd(b, q) == 1 and (q * b) % K and mppf[b] < q
        )
        pools[q] = pool
        inverses[q] = tuple(pow(b, -1, q) for b in pool)

    target = (1 - AbsorptionConfig.eta) * x
    p = discrete_profile(n, float(target), support=members).p
    inv = 1.0 / members
    lim = _thresholds(p[members - 1])
    for table in (members, inv, lim):
        table.flags.writeable = False

    return AbsorptionConfig(
        n=n,
        x=x,
        L=L,
        K=K,
        seed=0,
        pools=MappingProxyType(pools),
        inverses=MappingProxyType(inverses),
        members=members,
        inv=inv,
        lim=lim,
    )


def sample_base_set(config: AbsorptionConfig, attempt: int = 0) -> tuple[int, ...]:
    """Draw A0 from the restricted profile until s(A0) <= (1 - eta) * x.

    The profile mean equals the target, so roughly half of all draws pass.
    Each mask compares the attempt's Philox words with config.lim, as
    modelsim draws (equal to Generator.random(size) < p bit for bit), and
    all of an attempt's draws share one mask buffer. Each draw is screened
    by the float64 dot z of its 0/1 mask with 1/m, against
    band = 1e-9 * max(1, target), modelsim's exact-band rule: z
    above the target by more than the band rejects the draw, z below it by
    more accepts it, and only a draw inside the band is summed exactly.

    The screen agrees with the exact test while |z - s(A0)| stays under the
    band. With u = 2**-53, each 1/m is rounded once and its product with 0
    or 1 is exact, so a sum of at most n terms in any order has
    |z - s(A0)| <= n * u / (1 - n * u) * s(A0). A wrong verdict needs z
    beyond the band on one side of the target and s(A0) on the other, so
    s(A0) is within about a band of the target and |z - s(A0)| exceeds the
    band less the u * target of rounding the target to float. For n up to
    4e6, n * u < 4.5e-10: the error stays under half the band.
    """
    target = (1 - config.eta) * config.x
    tf = float(target)
    band = _EXACT_BAND * max(1.0, tf)
    rng = _trial_rng(config.seed, attempt)
    mask = np.empty(config.members.size, dtype=bool)
    for _ in range(200):
        _draw_mask(rng, config.lim, mask)
        z = float(np.dot(mask, config.inv))
        if z > tf + band:
            continue
        a0 = tuple(config.members[mask].tolist())
        if z < tf - band or reciprocal_sum(a0) <= target:
            return a0
    raise RuntimeError("base-set sampling failed the mass bound 200 times in a row")


def cancel_prime_powers(
    config: AbsorptionConfig, x0: Fraction, used: Iterable[int] | None = None
) -> tuple[list[AbsorptionStep], Fraction]:
    """Sweep denominator prime powers above L out of x0, largest first.

    Each step must keep the remainder positive (a candidate B is rejected
    when s(q*B) >= x_i and the solver is asked for the next witness, up to
    alt_limit of them). Raises CancelStepError when a prime power cannot be
    cancelled; the caller decides whether to resample.

    The sweep is one pass over the pool keys, the prime powers in
    (L, n // 2] in descending order; a key that divides the current
    denominator v is the step's q, so q is the largest key dividing v. No
    key passed over can divide a later denominator: a step subtracts
    1/(q*b) with every prime power of b below q, and leaves no factor of
    q's prime, so for a key p**a > q the exponent of p in the new
    denominator is below a whenever it was in v. A prime power above n/2
    has no pool: ValueError is raised when a higher power of q's prime
    divides v, and when the final denominator does not divide K.
    """
    x_i = Fraction(x0)
    if x_i <= 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    taken = set(used) if used is not None else set()
    steps: list[AbsorptionStep] = []

    for q, pool in config.pools.items():
        u, v = x_i.numerator, x_i.denominator
        if v % q:
            continue
        if gcd(v // q, q) != 1:
            raise ValueError(
                f"a higher power of the prime of q={q} divides the remainder's "
                f"denominator and exceeds n/2 = {config.n // 2}; no cancellation pool exists"
            )
        w = (v // q) % q
        target = (u * mod_inverse(w, q)) % q
        if target == 0:
            raise RuntimeError(f"cancellation target for q={q} degenerated to zero")

        free = [(q * b) not in taken for b in pool]
        avail = tuple(compress(pool, free))
        # pool members are distinct units mod q: make_instance would keep them all
        instance = ModInstance(q, avail, config.s_max)
        invs = list(compress(config.inverses[q], free))
        chosen = None
        mass = None
        for cand in iter_solutions(instance, target, limit=config.alt_limit, inverses=invs):
            cand_mass = reciprocal_sum(q * b for b in cand)
            if cand_mass < x_i:
                chosen, mass = cand, cand_mass
                break
        if chosen is None:
            raise CancelStepError(
                q,
                f"no witness for q={q} (target {target}, {len(avail)} candidates) "
                f"kept the remainder positive",
            )

        x_next = x_i - mass
        if x_next <= 0 or gcd(x_next.denominator, q) != 1:
            raise RuntimeError(f"cancellation step for q={q} failed to clear its prime")
        taken.update(q * b for b in chosen)
        steps.append(AbsorptionStep(q=q, cofactors=tuple(chosen), x_after=x_next))
        x_i = x_next

    if config.K % x_i.denominator:
        raise ValueError(
            f"remainder {x_i} has a denominator prime power above n/2 = {config.n // 2}; "
            f"no cancellation pool exists"
        )
    return steps, x_i


def reservoir_decompose(config: AbsorptionConfig, x_f: Fraction) -> tuple[int, ...] | None:
    """Indices D within [1, n // K] with sum(1/d) = K * x_f exactly, or None.

    D is the first subset reciprocal_subsets finds within the config's
    node_budget nodes. Its greedy-first descent (largest reciprocal first)
    finds typical targets quickly; the node budget bounds pathological
    searches.
    """
    x_f = Fraction(x_f)
    if x_f < 0:
        raise ValueError(f"x_f must be >= 0, got {x_f}")
    goal = x_f * config.K
    if goal.denominator != 1:
        raise ValueError(f"K * x_f = {goal} is not an integer; cancellation is incomplete")
    top = config.n // config.K
    return next(reciprocal_subsets(range(1, top + 1), goal, config.node_budget), None)


def construct_representation(
    n: int,
    x,
    L: int = 4,
    seed: int = 0,
    deadline: float | None = None,
) -> AbsorptionTrace:
    """Run the full pipeline; resample the base set on failure.

    Returns a successful trace (verified end to end) or, after
    AbsorptionConfig.max_attempts = 50 failures, a failure trace whose
    reason names the last obstacle, and whose base set and steps come from
    the last attempt that drew a base set. A deadline (time.monotonic
    value) stops further attempts and reports a truncated failure.
    """
    config = build_config(n, x, L=L, seed=seed)
    return construct_from_config(config, deadline=deadline)


def construct_from_config(
    config: AbsorptionConfig, deadline: float | None = None
) -> AbsorptionTrace:
    reason = "no attempts made"
    base: tuple[int, ...] = ()
    steps: tuple[AbsorptionStep, ...] = ()
    for attempt in range(config.max_attempts):
        if deadline is not None and time.monotonic() > deadline:
            reason = "budget exhausted before attempt %d" % attempt
            break
        try:
            base = sample_base_set(config, attempt=attempt)
        except RuntimeError as exc:
            reason = str(exc)
            continue
        steps = ()
        x0 = config.x - reciprocal_sum(base)
        try:
            step_list, x_f = cancel_prime_powers(config, x0, used=base)
        except CancelStepError as exc:
            reason = str(exc)
            continue
        steps = tuple(step_list)
        d_indices = reservoir_decompose(config, x_f)
        if d_indices is None:
            reason = f"reservoir decomposition failed for K*x_f = {x_f * config.K}"
            continue
        elements = sorted(
            list(base)
            + [e for step in steps for e in step.elements()]
            + [config.K * d for d in d_indices]
        )
        if len(set(elements)) != len(elements):
            reason = "element collision across stages"
            continue
        if not verify_representation(elements, config.n, config.x):
            reason = "final verification failed"
            continue
        return AbsorptionTrace(
            n=config.n,
            x=config.x,
            seed=config.seed,
            attempt=attempt,
            success=True,
            base_set=base,
            steps=steps,
            x_f=x_f,
            d_indices=d_indices,
            elements=tuple(elements),
            reason=None,
        )
    return AbsorptionTrace(
        n=config.n,
        x=config.x,
        seed=config.seed,
        attempt=config.max_attempts,
        success=False,
        base_set=base,
        steps=steps,
        x_f=None,
        d_indices=None,
        elements=(),
        reason=reason,
    )


def trace_to_dict(trace: AbsorptionTrace) -> dict:
    """JSON-ready form: rationals as "p/q" strings, sets as sorted lists."""
    return {
        "n": trace.n,
        "x": _frac_str(trace.x),
        "base_set": sorted(trace.base_set),
        "steps": [
            {
                "q": step.q,
                "B": sorted(step.cofactors),
                "x_after": _frac_str(step.x_after),
            }
            for step in trace.steps
        ],
        "x_f": _frac_str(trace.x_f),
        "D": sorted(trace.d_indices) if trace.d_indices is not None else None,
        "A": sorted(trace.elements),
        "verified": bool(trace.success),
    }


def replay_trace(data: dict) -> bool:
    """Re-run a trace dict's arithmetic and structure checks exactly.

    Verifies the step chain x_{i+1} = x_i - s(q*B_i), the final remainder,
    the disjoint union structure of A, and the total reciprocal sum.
    """
    x = Fraction(data["x"])
    base = [int(e) for e in data["base_set"]]
    cur = x - reciprocal_sum(base)
    pieces = [set(base)]
    for step in data["steps"]:
        q = int(step["q"])
        elems = [q * int(b) for b in step["B"]]
        cur = cur - reciprocal_sum(elems)
        if cur != Fraction(step["x_after"]):
            return False
        pieces.append(set(elems))
    if data["x_f"] is None or Fraction(data["x_f"]) != cur:
        return False
    claimed = set(int(e) for e in data["A"])
    staged = set().union(*pieces) if pieces else set()
    leftover = sorted(claimed - staged)
    d_sorted = sorted(int(d) for d in (data["D"] or []))
    if len(leftover) != len(d_sorted):
        return False
    if d_sorted:
        if leftover[0] % d_sorted[0] != 0:
            return False
        k = leftover[0] // d_sorted[0]
        if [k * d for d in d_sorted] != leftover:
            return False
        if cur != reciprocal_sum(leftover):
            return False
    elif cur != 0:
        return False
    if sum(len(p) for p in pieces) + len(leftover) != len(claimed):
        return False
    return verify_representation(claimed, int(data["n"]), x)
