"""Model sampling tests.

Closed-form moments are checked against an exhaustive enumeration of the
subset law on tiny fabricated profiles, then against empirical Monte Carlo
at moderate size. Reproducibility tests pin the counter-based keying: one
trial, one key, regardless of batching. Masks come from raw Philox words
and integer thresholds; the threshold test checks them word by word
against the u = (w >> 11) * 2**-53 that Generator.random computes, and the
mask tests against Generator.random itself. Worker tests fake the usable CPU
set and, but for one, lower the fork threshold, so forked helpers run on
any host even for short runs; they check that every helper is reaped
however the estimate ends.
"""

import json
import os
import threading
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egyfrac.cli import run
from egyfrac.entropy import EntropyProfile, discrete_profile
from egyfrac.modelsim import (
    _FORK_DRAWS,
    ModelSample,
    _inclusion_masks,
    _thresholds,
    _trial_rng,
    _trial_z,
    estimate_prob_at_most,
    model_moments,
    sample_model,
    sample_z_values,
)


def tiny_profile(p_values):
    p = np.asarray(p_values, dtype=np.float64)
    return EntropyProfile(n=p.size, x=0.0, c=0.0, p=p, H=0.0)


def law_moments(p_values):
    """Exhaustive mean and variance of Z over all 2**n subsets."""
    n = len(p_values)
    mean = 0.0
    second = 0.0
    for flags in product((0, 1), repeat=n):
        prob = 1.0
        z = 0.0
        for m, flag in enumerate(flags, start=1):
            prob *= p_values[m - 1] if flag else 1.0 - p_values[m - 1]
            if flag:
                z += 1.0 / m
        mean += prob * z
        second += prob * z * z
    return mean, second - mean * mean


def test_moments_half_profile_closed_form():
    # p = 1/2 on {1, 2}: mean 3/4, variance 5/16, summed third moments 9/64
    mm = model_moments(tiny_profile([0.5, 0.5]))
    assert mm.mean == pytest.approx(0.75, abs=1e-15)
    assert mm.variance == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert mm.third_abs_sum == pytest.approx(9.0 / 64.0, abs=1e-15)


@pytest.mark.parametrize(
    "p_values",
    [
        [0.3],
        [0.2, 0.5, 0.7],
        [0.05, 0.4, 0.45, 0.25],
        [0.5, 0.5, 0.5, 0.5, 0.5],
    ],
)
def test_moments_match_exhaustive_law(p_values):
    mm = model_moments(tiny_profile(p_values))
    mean, variance = law_moments(p_values)
    assert mm.mean == pytest.approx(mean, abs=1e-13)
    assert mm.variance == pytest.approx(variance, abs=1e-13)


def test_third_moment_is_per_coordinate_sum():
    p_values = [0.2, 0.45, 0.31]
    mm = model_moments(tiny_profile(p_values))
    total = 0.0
    for m, p in enumerate(p_values, start=1):
        # Bernoulli(p)/m has centered absolute third moment enumerable by hand
        lo, hi = -p / m, (1.0 - p) / m
        total += (1.0 - p) * abs(lo) ** 3 + p * abs(hi) ** 3
    assert mm.third_abs_sum == pytest.approx(total, abs=1e-15)


def test_sample_model_is_deterministic_and_exact():
    prof = discrete_profile(60, 1.0)
    a = sample_model(prof, seed=9)
    b = sample_model(prof, seed=9)
    assert isinstance(a, ModelSample)
    assert a.subset == b.subset
    assert a.z == b.z
    assert a.z == sum(Fraction(1, m) for m in a.subset)
    assert all(1 <= m <= 60 for m in a.subset)
    c = sample_model(prof, seed=10)
    assert c.subset != a.subset


def test_sample_z_values_reproducible_and_consistent():
    prof = discrete_profile(40, 1.0)
    zs = sample_z_values(prof, 8, seed=21)
    assert zs.shape == (8,)
    assert np.array_equal(zs, sample_z_values(prof, 8, seed=21))
    # trial 0 uses the same key as sample_model
    assert zs[0] == pytest.approx(float(sample_model(prof, 21).z), abs=1e-12)
    # a longer run extends, never rewrites, a shorter one
    longer = sample_z_values(prof, 12, seed=21)
    assert np.array_equal(longer[:8], zs)


def test_empirical_moments_approach_closed_forms():
    prof = discrete_profile(500, 1.0)
    mm = model_moments(prof)
    zs = sample_z_values(prof, 4000, seed=3)
    se_mean = (mm.variance / zs.size) ** 0.5
    assert abs(float(zs.mean()) - mm.mean) < 5.0 * se_mean
    assert float(zs.var()) == pytest.approx(mm.variance, rel=0.10)


def test_estimate_batching_is_invisible():
    prof = discrete_profile(80, 1.0)
    whole = estimate_prob_at_most(prof, Fraction(1), 600, seed=17)
    first = estimate_prob_at_most(prof, Fraction(1), 250, seed=17)
    # sample_z_values keys trial t as (seed, t) too, so its Z values decide
    # each trial's hit; the shorter run's hits are a prefix of the longer's
    hits = sample_z_values(prof, 600, seed=17) <= 1.0
    assert whole.exact_fallbacks == 0
    assert whole.estimate == hits.sum() / 600
    assert first.estimate == hits[:250].sum() / 250
    again = estimate_prob_at_most(prof, Fraction(1), 600, seed=17)
    assert again.estimate == whole.estimate
    assert again.exact_fallbacks == whole.exact_fallbacks


def test_estimate_ties_are_decided_exactly():
    # all-1/2 profile on [1, 3]: the subset law is uniform on 8 outcomes and
    # Pr[Z <= 1/2] = 3/8 counts {}, {2} (a boundary tie) and {3}
    prof = tiny_profile([0.5, 0.5, 0.5])
    est = estimate_prob_at_most(prof, Fraction(1, 2), 4000, seed=1)
    assert est.exact_fallbacks > 0
    assert est.estimate == pytest.approx(3.0 / 8.0, abs=4.0 * est.stderr + 1e-9)
    # every trial, in band or not, is decided by its own subset
    sums = [
        sum(Fraction(1, int(m)) for m in np.flatnonzero(mask) + 1)
        for mask in _inclusion_masks(prof, 1, 4000)
    ]
    assert est.estimate == sum(z <= Fraction(1, 2) for z in sums) / 4000
    assert est.exact_fallbacks == sums.count(Fraction(1, 2))


def test_estimate_with_non_dyadic_threshold():
    prof = tiny_profile([0.5, 0.5, 0.5])
    # Pr[Z <= 1/3] keeps {} and the exact tie {3}
    est = estimate_prob_at_most(prof, Fraction(1, 3), 4000, seed=2)
    assert est.estimate == pytest.approx(2.0 / 8.0, abs=4.0 * est.stderr + 1e-9)


def test_estimate_reports_binomial_stderr():
    prof = discrete_profile(30, 1.0)
    est = estimate_prob_at_most(prof, Fraction(1), 500, seed=4)
    want = (est.estimate * (1.0 - est.estimate) / 500) ** 0.5
    assert est.stderr == pytest.approx(want, abs=1e-15)
    assert est.trials == 500
    assert 0.0 <= est.estimate <= 1.0


def test_input_validation():
    prof = discrete_profile(10, 1.0)
    with pytest.raises(ValueError):
        sample_z_values(prof, 0, seed=1)
    with pytest.raises(ValueError):
        estimate_prob_at_most(prof, Fraction(1), 0, seed=1)
    with pytest.raises(ValueError):
        sample_model(prof, seed=-1)
    with pytest.raises(ValueError):
        sample_model(prof, seed=2**64)


@pytest.mark.parametrize("n", [1, 3, 7, 1001])
@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_inclusion_masks_match_a_fresh_generator_per_trial(n, seed):
    # odd n leaves words in Philox's buffer after a trial; a re-key that kept
    # them would shift the next trial's draws. The key is a uint64 array: a
    # list holding 2**64 - 1 is cast through a signed type and loses the seed.
    prof = tiny_profile(np.linspace(0.05, 0.95, n))
    trials = 0
    for t, mask in enumerate(_inclusion_masks(prof, seed, 6)):
        key = np.array([seed, t], dtype=np.uint64)
        oracle = np.random.Generator(np.random.Philox(key=key)).random(n) < prof.p
        assert mask.dtype == np.float64
        assert np.array_equal(mask, oracle)
        trials += 1
    assert trials == 6


def test_trial_rng_rekey_forgets_the_previous_stream():
    # a 32-bit draw leaves half a word behind (has_uint32), an odd count of
    # doubles leaves buffered words; neither may reach the re-keyed stream
    rng = _trial_rng(3, 0)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    rng.random(5)
    again = _trial_rng(3, 4, rng)
    assert again is rng
    fresh = np.random.Generator(np.random.Philox(key=[3, 4]))
    assert np.array_equal(
        again.integers(0, 2**32, size=9, dtype=np.uint32),
        fresh.integers(0, 2**32, size=9, dtype=np.uint32),
    )
    assert np.array_equal(again.random(7), fresh.random(7))


# The edges of [0, 1): the smallest subnormal, the probability floor of
# egyfrac.entropy, the least nonzero double random() returns, 1/2 and the
# doubles just below 1/2 and 1.
EDGE_PROBABILITIES = [
    0.0,
    5e-324,
    1e-260,
    2.0**-53,
    0.5,
    float(np.nextafter(0.5, 0.0)),
    float(np.nextafter(1.0, 0.0)),
]


@settings(max_examples=400, derandomize=True, database=None)
@given(
    w=st.integers(0, 2**64 - 1),
    p=st.sampled_from(EDGE_PROBABILITIES) | st.floats(0.0, 1.0, exclude_max=True),
)
def test_word_threshold_decides_exactly_what_random_decides(w, p):
    # Generator.random maps word w to (w >> 11) * 2**-53; a random w seldom
    # lands near the threshold, so the words around it are tried as well
    lim = int(_thresholds(np.array([p]))[0])
    assert lim < 2**64
    for word in (w, lim - 2049, lim - 2048, lim - 1, lim, lim + 2047, lim + 2048):
        if 0 <= word < 2**64:
            assert ((word >> 11) * 2.0**-53 < p) == (word < lim)


def test_inclusion_masks_match_random_at_the_edge_probabilities():
    p = np.resize(EDGE_PROBABILITIES, 4001)
    prof = tiny_profile(p)
    for t, mask in enumerate(_inclusion_masks(prof, 9, 3)):
        key = np.array([9, t], dtype=np.uint64)
        oracle = np.random.Generator(np.random.Philox(key=key)).random(p.size) < p
        assert np.array_equal(mask, oracle)


@pytest.mark.parametrize("bad", [1.0, 1.5, np.inf, np.nan, -0.25])
def test_probability_outside_the_unit_interval_is_refused_before_any_draw(monkeypatch, bad):
    rekeys = []
    monkeypatch.setattr("egyfrac.modelsim._trial_rng", lambda *args: rekeys.append(args))
    prof = tiny_profile([0.5, bad, 0.25])
    runs = (
        lambda: estimate_prob_at_most(prof, Fraction(1), 10, seed=0),
        lambda: sample_z_values(prof, 10, seed=0),
        lambda: sample_model(prof, seed=0),
    )
    for run_once in runs:
        with pytest.raises(ValueError, match=r"p\[1\] = .* lies outside \[0, 1\)"):
            run_once()
    assert rekeys == []


def test_estimate_is_pinned_at_n1001_seed7():
    est = estimate_prob_at_most(discrete_profile(1001, 1.0), 1, 3000, seed=7)
    assert est.estimate == 1550 / 3000
    assert est.trials == 3000


def test_estimate_is_pinned_at_n100000_seed7():
    # the value the float-draw sampler gave; with two CPUs a helper draws
    # every other trial
    est = estimate_prob_at_most(discrete_profile(100000, 1.0), 1, 200, seed=7)
    assert est.estimate == 99 / 200
    assert est.trials == 200


def test_deadline_cut_keeps_the_first_trials(monkeypatch):
    # the clock advances one second per read and the estimator reads it once
    # before each trial, so a deadline of k - 0.5 lets exactly k trials run
    prof = discrete_profile(301, 1.0)
    k, total = 7, 40
    hits = sample_z_values(prof, total, seed=11) <= 1.0
    uncut = estimate_prob_at_most(prof, Fraction(1), total, seed=11)
    assert uncut.exact_fallbacks == 0
    assert uncut.estimate == hits.sum() / total
    clock = count()
    monkeypatch.setattr("egyfrac.modelsim.time.monotonic", lambda: float(next(clock)))
    cut = estimate_prob_at_most(prof, Fraction(1), total, seed=11, deadline=k - 0.5)
    assert cut.trials == k
    assert cut.estimate == hits[:k].sum() / k
    assert cut == estimate_prob_at_most(prof, Fraction(1), k, seed=11)


REAL_FORK = os.fork


def use_cpus(monkeypatch, k, fork_draws=0):
    """Fake k usable CPUs; returns the list that gets one entry per fork.

    Runs of fork_draws draws or more may fork; the default 0 lets the short
    runs below fork, which the real threshold would keep in the caller.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
    monkeypatch.setattr("egyfrac.modelsim._FORK_DRAWS", fork_draws)
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or REAL_FORK())
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (profile, x, trials, chunks): trials are never a multiple of the chunk size,
# max(1, 2**16 // n) trials; n = 1 at x = 1 is a tie in half the trials
WORKER_CASES = {
    1: (tiny_profile([0.5]), Fraction(1), 2**16 + 77, 2),
    301: (discrete_profile(301, 1.0), Fraction(1), 1000, 5),
    1001: (discrete_profile(1001, 1.0), Fraction(1), 3000, 47),
}


@pytest.mark.parametrize("n", sorted(WORKER_CASES))
def test_estimate_does_not_depend_on_the_worker_count(monkeypatch, n):
    prof, x, trials, chunks = WORKER_CASES[n]
    inv = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    serial = [float(np.dot(mask, inv)) for mask in _inclusion_masks(prof, 7, trials)]
    # the last chunk is partial, and a helper draws it when chunks is even
    assert trials % (2**16 // n) != 0
    results = []
    for cpus in (1, 2, 3):
        forks = use_cpus(monkeypatch, cpus)
        assert list(_trial_z(prof, 7, trials)) == serial
        results.append(estimate_prob_at_most(prof, x, trials, seed=7))
        assert len(forks) == 2 * (min(cpus, 2, chunks) - 1)
        assert_no_children()
    assert results[0] == results[1] == results[2]
    assert results[0].trials == trials
    if n == 1:
        assert results[0].exact_fallbacks > 0
    if n == 1001:
        assert results[0].estimate == 1550 / 3000


def test_sample_z_values_does_not_depend_on_the_worker_count(monkeypatch):
    prof, _, trials, _ = WORKER_CASES[1001]
    forks = use_cpus(monkeypatch, 1)
    serial = sample_z_values(prof, trials, seed=7)
    assert forks == []
    forks = use_cpus(monkeypatch, 2)
    shared = sample_z_values(prof, trials, seed=7)
    assert len(forks) == 1
    assert_no_children()
    assert np.array_equal(shared, serial)


def test_only_long_runs_fork_and_never_more_than_one_helper(monkeypatch):
    # 4191 trials at n = 1001 are the fewest that reach 2**22 draws
    prof, x, _, _ = WORKER_CASES[1001]
    forks = use_cpus(monkeypatch, 4, fork_draws=_FORK_DRAWS)
    short = estimate_prob_at_most(prof, x, 4190, seed=7)
    assert forks == []
    long = estimate_prob_at_most(prof, x, 4191, seed=7)
    assert len(forks) == 1
    assert_no_children()
    assert long.trials == 4191
    assert short == estimate_prob_at_most(prof, x, 4190, seed=7)


def test_failed_fork_falls_back_to_the_caller(monkeypatch):
    prof, x, trials, _ = WORKER_CASES[1001]
    serial = estimate_prob_at_most(prof, x, trials, seed=7)
    forks = use_cpus(monkeypatch, 3)

    def fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert estimate_prob_at_most(prof, x, trials, seed=7) == serial
    assert len(forks) == 1
    assert_no_children()
    # the failed fork leaves no child behind the first Z value
    forks.clear()
    stream = _trial_z(prof, 7, trials)
    assert next(stream) == sample_z_values(prof, 1, seed=7)[0]
    assert len(forks) == 1
    assert_no_children()
    stream.close()


def test_failed_pipe_falls_back_to_the_caller(monkeypatch):
    prof, x, trials, _ = WORKER_CASES[1001]
    serial = estimate_prob_at_most(prof, x, trials, seed=7)
    forks = use_cpus(monkeypatch, 2)

    def pipe():
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(os, "pipe", pipe)
    assert estimate_prob_at_most(prof, x, trials, seed=7) == serial
    assert forks == []
    assert_no_children()


def test_deadline_cut_inside_a_helper_chunk_keeps_the_first_trials(monkeypatch):
    # 217 trials a chunk: trial 300 lies in chunk 1, which a helper draws
    prof, x, trials, _ = WORKER_CASES[301]
    k = 300
    serial = estimate_prob_at_most(prof, x, k, seed=11)
    forks = use_cpus(monkeypatch, 2)
    clock = count()
    monkeypatch.setattr("egyfrac.modelsim.time.monotonic", lambda: float(next(clock)))
    cut = estimate_prob_at_most(prof, x, trials, seed=11, deadline=k - 0.5)
    assert len(forks) == 1
    assert cut == serial
    assert_no_children()


def test_failing_helper_raises_with_its_exit_status(monkeypatch, capfd):
    # the tie profile of test_estimate_ties_are_decided_exactly, in 3 chunks
    # of 21845 trials; only the helper's draws fail
    prof = tiny_profile([0.5, 0.5, 0.5])
    caller = os.getpid()

    def trial_rng(seed, trial, rng=None):
        if os.getpid() != caller:
            raise ZeroDivisionError("injected helper failure")
        return _trial_rng(seed, trial, rng)

    monkeypatch.setattr("egyfrac.modelsim._trial_rng", trial_rng)
    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"stopped after 0 of 21845 .*exit status 1"):
        estimate_prob_at_most(prof, Fraction(1, 2), 50000, seed=1)
    assert len(forks) == 1
    assert_no_children()
    assert "injected helper failure" in capfd.readouterr().err


def test_no_helper_is_forked_beside_a_second_thread(monkeypatch):
    prof, x, trials, _ = WORKER_CASES[1001]
    forks = use_cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        est = estimate_prob_at_most(prof, x, trials, seed=7)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert est.estimate == 1550 / 3000


def test_real_clock_budget_cut_equals_the_uncut_prefix(monkeypatch, tmp_path):
    forks = use_cpus(monkeypatch, 2)
    out = tmp_path / "cut.json"
    argv = ["simulate", "--n", "10000", "--x", "1/1", "--trials", "100000", "--seed", "3"]
    assert run(argv + ["--budget", "0.5", "--out", str(out)]) == 3
    assert len(forks) == 1
    assert_no_children()
    cut = json.loads(out.read_text())
    assert cut["truncated"] is True
    assert 0 < cut["trials"] < 100000
    uncut = estimate_prob_at_most(discrete_profile(10000, 1.0), Fraction(1), cut["trials"], 3)
    assert (cut["estimate"], cut["stderr"], cut["exact_fallbacks"]) == (
        uncut.estimate,
        uncut.stderr,
        uncut.exact_fallbacks,
    )
