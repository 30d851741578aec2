"""Sampling and moment formulas for the product-Bernoulli subset model.

A profile from `egyfrac.entropy` assigns each m in [1, n] an independent
inclusion probability p_m; the random reciprocal sum is Z = sum over included
m of 1/m. Moments of Z have closed forms in the p_m. Sampling uses the
counter-based Philox generator keyed by (seed, trial), so every trial's draw
vector is reproducible in isolation: batch size and evaluation order cannot
change any outcome. A run of trials re-keys one Philox in place before each
trial and draws into one reused buffer; each trial's stream is the one a
fresh Philox keyed (seed, trial) would give.

A mask is drawn from raw Philox words, never from doubles. Generator.random
turns word w into u = (w >> 11) * 2**-53, and for 0 <= p < 1 the test u < p
holds exactly when w < ceil(p * 2**53) << 11: with k = w >> 11 an integer,
k * 2**-53 < p iff k < ceil(p * 2**53), and k < K iff w < K << 11. p * 2**53
is exact in float64 and its ceiling is at most 2**53, so the threshold fits
in 64 bits. A run builds its uint64 thresholds once, and one comparison of
a trial's words with them writes its 0/1 mask; the mask equals that of
Generator.random(n) < p bit for bit.

`sample_z_values` and `estimate_prob_at_most` read each trial's float64 Z
from one runner, which may share a long run's trials with one forked
helper process: trials are cut into contiguous chunks of about 2**16
draws, the helper draws the odd chunks and sends back each trial's Z as 8
bytes through a pipe, and the caller draws the even chunks and hands the
Z values on in trial order. The caller alone reads the clock, so a
deadline cuts the run to a prefix of trials. A run that _may_fork
refuses, short runs among them, or whose pipe or fork fails stays in the
caller, as `sample_model` always does.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import BinaryIO, Iterable, Iterator, NoReturn

import numpy as np

from .entropy import EntropyProfile
from .exactmath import reciprocal_sum

# Trials whose float sum lands within this band of the threshold are
# recomputed in exact rational arithmetic. The float error of a dot product
# over 1e5 terms is ~1e-11, so the band is two orders wider.
_EXACT_BAND = 1e-9

# A chunk, the unit of trials dealt to the caller or the helper, holds about
# this many uniform draws: max(1, _CHUNK_DRAWS // n) trials.
_CHUNK_DRAWS = 2**16

# A run of fewer uniform draws (trials * n) stays in the caller. On a 2-core
# VM a forked helper made a run slower, or barely faster, up to 2**21 draws
# (the fork, its copy-on-write faults and the reap cost ~4-10 ms) and 19-43 %
# faster from 2**22 draws on, at every n from 100 to 1e5.
_FORK_DRAWS = 2**22

# signal.SIGKILL, fixed by POSIX; the signal module's enums would add ~80 kB
# to the peak RSS of every simulate run.
_SIGKILL = 9

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


def _thresholds(p: np.ndarray) -> np.ndarray:
    """The uint64 word thresholds ceil(p * 2**53) << 11 of probabilities p in [0, 1).

    A word w drawn for p includes its index exactly when w < threshold (see
    the module docstring). A p of 1 or more has no 64-bit threshold, and a
    NaN or negative p is no probability: either raises ValueError.
    """
    p = np.asarray(p, dtype=np.float64)
    bad = np.flatnonzero(~((p >= 0.0) & (p < 1.0)))
    if bad.size:
        raise ValueError(
            f"inclusion probability p[{bad[0]}] = {float(p[bad[0]])!r} lies outside [0, 1)"
        )
    lim = np.ceil(p * 2.0**53).astype(np.uint64)
    return np.left_shift(lim, np.uint64(11), out=lim)


def _draw_mask(rng: np.random.Generator, lim: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = (w < lim) for rng's next lim.size words w, the mask of random(lim.size) < p."""
    return np.less(rng.bit_generator.random_raw(lim.size), lim, out=out)


def _inclusion_masks(
    profile: EntropyProfile,
    seed: int,
    trials: int | Iterable[int],
    lim: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Trial t's inclusion mask, u < p with u drawn by key (seed, t), for each t in trials.

    An int `trials` stands for range(trials). lim is _thresholds(profile.p),
    built here unless the caller passes the array it already holds. The
    mask is float64, 1.0 where m is included and 0.0 elsewhere, so it dots
    with float weights without a cast. Every trial re-keys one Philox and
    overwrites one buffer: the array yielded for trial t is overwritten by
    the next trial, so a caller that keeps it must copy it.
    """
    if lim is None:
        lim = _thresholds(profile.p)
    rng = None
    u = np.empty(profile.n, dtype=np.float64)
    for t in range(trials) if isinstance(trials, int) else trials:
        rng = _trial_rng(seed, t, rng)
        yield _draw_mask(rng, lim, u)


def _may_fork(draws: int, chunks: int) -> bool:
    """Whether a run of `draws` uniform draws in `chunks` chunks forks a helper.

    A run under _FORK_DRAWS draws or of one chunk stays in the caller, and
    so does every run where a fork would be unsafe: it needs os.fork, and a
    process with a second thread is not forked, since the child would hold
    only the forking thread and any lock another thread held at the fork
    stays locked in it. Otherwise it forks when the affinity mask holds two
    CPUs or more.
    """
    return (
        draws >= _FORK_DRAWS
        and chunks >= 2
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    )


def _serve(pipe: BinaryIO, inherited: BinaryIO, chunks: Iterator[bytes]) -> NoReturn:
    """The helper's whole life: write and flush each chunk's bytes to pipe, then _exit.

    The helper closes the read end it inherited, so a pipe whose caller is
    gone breaks on the next write and the helper leaves with status 1, as
    it does on an interrupt. Any other error is printed to fd 2. It never
    returns into the caller's code: os._exit skips atexit handlers and
    flushes no stdio buffer copied from the caller.
    """
    try:
        inherited.close()
        for data in chunks:
            pipe.write(data)
            pipe.flush()
    except (BrokenPipeError, KeyboardInterrupt):
        os._exit(1)
    except BaseException:
        try:
            import traceback

            os.write(2, traceback.format_exc().encode(errors="replace"))
        finally:
            os._exit(1)
    os._exit(0)


def _trial_z(
    profile: EntropyProfile, seed: int, trials: int, lim: np.ndarray | None = None
) -> Iterator[float]:
    """Z = dot(mask, 1/m) of trials 0..trials-1 in order, the odd chunks drawn by a forked helper.

    lim is _thresholds(profile.p), built here unless the caller passes it.
    The helper is forked at the first next() when _may_fork allows it,
    inherits lim, and sends each of its trials' Z as a native float64. The
    caller draws its own chunks lazily, one trial per next(); each process
    keeps one Philox and one mask buffer for all its chunks. If the pipe or
    fork fails, the caller draws every chunk. Closing the generator closes
    the pipe, kills the helper if it is still running and reaps it. A
    helper that ends before writing its chunk raises RuntimeError with its
    exit status.
    """
    if lim is None:
        lim = _thresholds(profile.p)
    size = max(1, _CHUNK_DRAWS // profile.n)
    n_chunks = -(-trials // size)
    inv = 1.0 / np.arange(1, profile.n + 1, dtype=np.float64)

    def chunk(c: int) -> range:
        return range(c * size, min(c * size + size, trials))

    def z_values(chunks: range) -> Iterator[float]:
        mine = (t for c in chunks for t in chunk(c))
        masks = _inclusion_masks(profile, seed, mine, lim)
        return (float(np.dot(mask, inv)) for mask in masks)

    def helper_bytes() -> Iterator[bytes]:
        # A generator, so the helper computes nothing before _serve's try.
        odd = range(1, n_chunks, 2)
        mine = z_values(odd)
        for c in odd:
            yield np.fromiter(mine, np.float64, len(chunk(c))).tobytes()

    pid = 0
    pipe = None
    try:
        if _may_fork(trials * profile.n, n_chunks):
            try:
                fd, wfd = os.pipe()
                pipe = os.fdopen(fd, "rb")
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(os.fdopen(wfd, "wb"), pipe, helper_bytes())
                finally:
                    os.close(wfd)
            except OSError:
                # A helper only speeds a run up (a fork fails with EAGAIN at
                # a process limit): without it the caller draws every chunk.
                pass
        step = 2 if pid else 1
        own = z_values(range(0, n_chunks, step))
        for c in range(n_chunks):
            want = len(chunk(c))
            if c % step == 0:
                yield from islice(own, want)
                continue
            data = pipe.read(8 * want)
            if len(data) < 8 * want:
                helper, pid = pid, 0
                status = os.waitstatus_to_exitcode(os.wait4(helper, 0)[1])
                raise RuntimeError(
                    f"simulate helper {helper} stopped after {len(data) // 8} of {want} "
                    f"Z values of trials {chunk(c).start}..{chunk(c).stop - 1} "
                    f"(exit status {status})"
                )
            yield from np.frombuffer(data, np.float64).tolist()
    finally:
        if pipe is not None:
            pipe.close()
        if pid:
            os.kill(pid, _SIGKILL)
            os.wait4(pid, 0)


def sample_model(profile: EntropyProfile, seed: int) -> ModelSample:
    """One subset drawn from the model, with its exact rational sum."""
    seed = _check_seed(seed)
    included = next(_inclusion_masks(profile, seed, 1))
    subset = tuple(int(i) for i in np.flatnonzero(included) + 1)
    return ModelSample(subset=subset, z=reciprocal_sum(subset))


def sample_z_values(profile: EntropyProfile, trials: int, seed: int) -> np.ndarray:
    """Float64 Z values for trials 0..trials-1 (trial t uses key (seed, t)), read from _trial_z."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    with closing(_trial_z(profile, _check_seed(seed), trials)) as stream:
        return np.fromiter(stream, np.float64, trials)


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

    Each trial's Z comes from _trial_z, which may share a long run's trials
    with one forked helper; this process judges every trial, in trial
    order, and draws an in-band trial's mask again to sum it exactly, so
    the result does not depend on whether a helper ran. The run's word
    thresholds are built once, before any draw (a p outside [0, 1) raises
    ValueError there), and both draws of a trial compare with them. Only this process
    reads the clock, once before counting each trial: past a deadline
    (time.monotonic value) no further trial is counted, the result's
    `trials` says how many were, and a ValueError is raised when none was.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed = _check_seed(seed)
    x = Fraction(x)
    xf = float(x)
    band = _EXACT_BAND * max(1.0, abs(xf))
    lim = _thresholds(profile.p)
    hits = fallbacks = ran = 0
    # Each next() draws trial `ran` again, re-keying one Philox, not building one.
    redraw = _inclusion_masks(profile, seed, iter(lambda: ran, -1), lim)
    with closing(_trial_z(profile, seed, trials, lim)) as stream:
        while ran < trials:
            if deadline is not None and time.monotonic() > deadline:
                break
            z = next(stream)
            if abs(z - xf) <= band:
                included = next(redraw)
                hits += reciprocal_sum(int(i) for i in np.flatnonzero(included) + 1) <= x
                fallbacks += 1
            else:
                hits += z <= xf
            ran += 1
    if ran == 0:
        raise ValueError("budget too small to run any trials")
    phat = hits / ran
    stderr = math.sqrt(phat * (1.0 - phat) / ran)
    return ProbEstimate(
        estimate=phat, stderr=stderr, trials=ran, seed=seed, exact_fallbacks=fallbacks
    )
