"""Sampling and moment formulas for the product-Bernoulli subset model.

A profile from `egyfrac.entropy` assigns each m in [1, n] an independent
inclusion probability p_m; the random reciprocal sum is Z = sum over included
m of 1/m. Moments of Z have closed forms in the p_m. Sampling uses the
counter-based Philox generator keyed by (seed, trial), so every trial's draw
vector is reproducible in isolation: batch size and evaluation order cannot
change any outcome. A run of trials re-keys one Philox in place before each
trial and draws into one reused buffer; each trial's stream is the one a
fresh Philox keyed (seed, trial) would give.

`estimate_prob_at_most` draws a long run's trials on forked workers (see
`egyfrac.workers`, imported by the first estimate); `sample_model` and
`sample_z_values` always run in the caller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .entropy import EntropyProfile
from .exactmath import reciprocal_sum

# Trials whose float sum lands within this band of the threshold are
# recomputed in exact rational arithmetic. The float error of a dot product
# over 1e5 terms is ~1e-11, so the band is two orders wider.
_EXACT_BAND = 1e-9

__all__ = [
    "MomentSummary",
    "ModelSample",
    "ProbEstimate",
    "model_moments",
    "sample_model",
    "sample_z_values",
    "estimate_prob_at_most",
]


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    third_abs_sum: float


@dataclass(frozen=True)
class ModelSample:
    subset: tuple[int, ...]
    z: Fraction


@dataclass(frozen=True)
class ProbEstimate:
    estimate: float
    stderr: float
    trials: int
    seed: int
    exact_fallbacks: int


def model_moments(profile: EntropyProfile) -> MomentSummary:
    """Exact closed forms for E[Z], Var[Z] and the summed third absolute moments.

    Per index m the summand of Z is 1/m with probability p_m and 0 otherwise,
    so the centered third absolute moment is
    p_m*((1-p_m)/m)**3 + (1-p_m)*(p_m/m)**3.
    """
    m = np.arange(1, profile.n + 1, dtype=np.float64)
    p = profile.p
    mean = float(np.dot(p, 1.0 / m))
    variance = float(np.dot(p * (1.0 - p), 1.0 / (m * m)))
    third = float(np.sum(p * ((1.0 - p) / m) ** 3 + (1.0 - p) * (p / m) ** 3))
    return MomentSummary(mean=mean, variance=variance, third_abs_sum=third)


def _check_seed(seed: int) -> int:
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return int(seed)


def _trial_rng(
    seed: int, trial: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """A generator at the start of trial's stream: Philox key (seed, trial), counter 0.

    Given a Philox-backed rng, re-keys it in place and returns it; otherwise
    builds one. The buffer is emptied too, or words a previous stream left
    in it would lead the new one. Either way the stream equals that of
    Generator(Philox(key=np.array([seed, trial], dtype=np.uint64))).
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=0))
    # The setter copies word by word, so plain ints serve and no array is built.
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, trial)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _inclusion_masks(
    profile: EntropyProfile, seed: int, trials: int | Iterable[int]
) -> Iterator[np.ndarray]:
    """Trial t's inclusion mask, u < p with u drawn by key (seed, t), for each t in trials.

    An int `trials` stands for range(trials). The mask is float64, 1.0 where
    m is included and 0.0 elsewhere, so it dots with float weights without a
    cast. Every trial re-keys one Philox and overwrites one buffer: the array
    yielded for trial t is overwritten by the next trial, so a caller that
    keeps it must copy it.
    """
    rng = None
    u = np.empty(profile.n, dtype=np.float64)
    for t in range(trials) if isinstance(trials, int) else trials:
        rng = _trial_rng(seed, t, rng)
        rng.random(out=u)
        np.less(u, profile.p, out=u)
        yield u


def sample_model(profile: EntropyProfile, seed: int) -> ModelSample:
    """One subset drawn from the model, with its exact rational sum."""
    seed = _check_seed(seed)
    included = next(_inclusion_masks(profile, seed, 1))
    subset = tuple(int(i) for i in np.flatnonzero(included) + 1)
    return ModelSample(subset=subset, z=reciprocal_sum(subset))


def sample_z_values(profile: EntropyProfile, trials: int, seed: int) -> np.ndarray:
    """Float64 Z values for trials 0..trials-1 (trial t uses key (seed, t))."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed = _check_seed(seed)
    inv = 1.0 / np.arange(1, profile.n + 1, dtype=np.float64)
    out = np.empty(trials, dtype=np.float64)
    for t, included in enumerate(_inclusion_masks(profile, seed, trials)):
        out[t] = np.dot(included, inv)
    return out


def estimate_prob_at_most(
    profile: EntropyProfile,
    x: Fraction,
    trials: int,
    seed: int,
    deadline: float | None = None,
) -> ProbEstimate:
    """Monte Carlo estimate of Pr[Z <= x] with a binomial standard error.

    The comparison is decided in float arithmetic except within a narrow
    band around the threshold, where the subset sum is recomputed exactly,
    so rational thresholds are never misjudged by rounding. Trial t draws
    with key (seed, t), so a shorter run counts exactly the first trials of
    a longer one.

    A run of at least 2**22 draws (trials * n) runs on up to two workers,
    at most one per CPU in the affinity mask: this process and a forked
    helper, each drawing contiguous chunks of about 2**16 draws dealt
    round-robin (see egyfrac.workers); a shorter run stays in this
    process. Outcomes are counted in trial order and every trial is judged
    by the same checks wherever it ran, so the result does not depend on
    the number of workers. Only this process reads the clock, once before
    counting each trial: past a deadline (time.monotonic value) no further
    trial is counted, the result's `trials` says how many were, and a
    ValueError is raised when none was.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed = _check_seed(seed)
    x = Fraction(x)
    xf = float(x)
    band = _EXACT_BAND * max(1.0, abs(xf))
    inv = 1.0 / np.arange(1, profile.n + 1, dtype=np.float64)

    def judge(included: np.ndarray) -> int:
        # bit 0: Z <= x; bit 1: decided in exact arithmetic
        z = float(np.dot(included, inv))
        if abs(z - xf) <= band:
            members = tuple(int(i) for i in np.flatnonzero(included) + 1)
            return 2 | (reciprocal_sum(members) <= x)
        return int(z <= xf)

    from .workers import trial_outcomes

    stream = trial_outcomes(profile, seed, trials, judge)
    hits = 0
    fallbacks = 0
    ran = 0
    try:
        while ran < trials:
            if deadline is not None and time.monotonic() > deadline:
                break
            outcome = next(stream)
            ran += 1
            hits += outcome & 1
            fallbacks += outcome >> 1
    finally:
        stream.close()
    if ran == 0:
        raise ValueError("budget too small to run any trials")
    phat = hits / ran
    stderr = math.sqrt(phat * (1.0 - phat) / ran)
    return ProbEstimate(
        estimate=phat, stderr=stderr, trials=ran, seed=seed, exact_fallbacks=fallbacks
    )
