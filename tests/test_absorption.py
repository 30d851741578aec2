"""Pipeline tests on small instances.

n = 120 with L = 4 gives K = 12 and a ten-element reservoir, small enough
to check every published structural invariant by hand: the worked
cancellation of 1/7, the reservoir decompositions, and full end-to-end
construction with exact replay of the emitted trace.
"""

import hashlib
import json
import time
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

import egyfrac.absorption as absorption
from egyfrac.absorption import (
    AbsorptionTrace,
    CancelStepError,
    build_config,
    cancel_prime_powers,
    construct_representation,
    replay_trace,
    reservoir_decompose,
    sample_base_set,
    trace_to_dict,
    verify_representation,
)
from egyfrac.cli import _to_json
from egyfrac.entropy import discrete_profile
from egyfrac.exactmath import max_prime_power_factor, reciprocal_sum
from egyfrac.modelsim import _thresholds


@pytest.fixture(scope="module")
def config():
    return build_config(120, Fraction(1), seed=3)


def test_config_partition(config):
    assert config.K == 12
    reservoir = set(range(12, 121, 12))
    # the universe is exactly the moderately powersmooth m off the reservoir
    t_u = max(config.L, config.n // config.pool_margin)
    assert config.members.tolist() == [
        m for m in range(1, 121) if m not in reservoir and max_prime_power_factor(m) <= t_u
    ]
    # pools: descending cofactors, coprime, off-reservoir, strictly smaller
    # prime-power content than q itself
    assert config.inverses.keys() == config.pools.keys()
    for q, pool in config.pools.items():
        assert list(pool) == sorted(pool, reverse=True)
        assert [b * inv % q for b, inv in zip(pool, config.inverses[q], strict=True)] == [1] * len(pool)
        for b in pool:
            assert gcd(b, q) == 1
            assert q * b <= config.n
            assert (q * b) not in reservoir
            assert max_prime_power_factor(b) < q


def test_config_small_n_from_contract():
    cfg = build_config(59, Fraction(1))
    # the reservoir is {12, 24, 36, 48}, the K * d for d in [1, n // K]; the
    # universe and the pools avoid it
    reservoir = {12, 24, 36, 48}
    assert (cfg.K, cfg.n // cfg.K) == (12, 4)
    assert not reservoir & set(cfg.members.tolist())
    assert not reservoir & {q * b for q, pool in cfg.pools.items() for b in pool}


def test_config_validation():
    with pytest.raises(ValueError, match="48"):
        build_config(47, Fraction(1))  # needs n >= 4K = 48
    with pytest.raises(ValueError):
        build_config(120, Fraction(1), L=1)
    with pytest.raises(ValueError):
        build_config(120, Fraction(0))
    with pytest.raises(ValueError):
        build_config(120, Fraction(1, 127))  # prime beyond n
    with pytest.raises(ValueError):
        build_config(120, Fraction(1, 64))  # prime power beyond n/2


def test_base_set_sampling(config):
    a0 = sample_base_set(config, attempt=0)
    assert a0 == sample_base_set(config, attempt=0)
    assert a0 != sample_base_set(config, attempt=1)
    assert set(a0) <= set(config.members.tolist())
    assert reciprocal_sum(a0) <= (1 - config.eta) * config.x


def test_cancel_worked_example(config):
    """The full sweep for x0 = 1/7 at n = 120, checkable by hand.

    q = 7: u/v = 1/7, w = v/q = 1, target = 1 * 1^(-1) = 1 mod 7. The
    descending pool is (15, 10, 6, 5, 4, 3, 2, 1) and 15 = 2*7+1 is the
    first singleton with inverse 1, so B = {15} and
    x1 = 1/7 - 1/105 = 2/15. Then q = 5: w = 3, target = 2 * 3^(-1) =
    4 mod 5, pool (6, 4, 3, 2, 1), witness {4}, x2 = 2/15 - 1/20 = 1/12.
    """
    steps, x_f = cancel_prime_powers(config, Fraction(1, 7))
    assert [(s.q, s.cofactors) for s in steps] == [(7, (15,)), (5, (4,))]
    assert steps[0].x_after == Fraction(2, 15)
    assert steps[0].x_after.denominator % 7 != 0
    assert steps[1].x_after == Fraction(1, 12)
    assert x_f == Fraction(1, 12)
    assert steps[0].elements() == (105,)


def test_cancel_smooth_input_is_a_no_op(config):
    steps, x_f = cancel_prime_powers(config, Fraction(5, 12))
    assert steps == []
    assert x_f == Fraction(5, 12)


def test_cancel_respects_used_elements(config):
    # with 105 consumed the q=7 witness changes, and this particular chain
    # runs out of light enough q=5 witnesses
    with pytest.raises(CancelStepError) as info:
        cancel_prime_powers(config, Fraction(1, 7), used={105})
    assert info.value.q == 5


def test_cancel_error_names_the_prime_power(config):
    blocked = {7 * b for b in config.pools[7]}
    with pytest.raises(CancelStepError) as info:
        cancel_prime_powers(config, Fraction(1, 7), used=blocked)
    assert info.value.q == 7


@pytest.mark.parametrize(
    "x0,match",
    [
        (Fraction(1, 61), "no cancellation pool"),  # a prime in (n/2, n]
        (Fraction(1, 127), None),  # a prime above n
        # a prime power above n/2 whose lower powers have pools
        (Fraction(1, 64), "no cancellation pool"),
    ],
)
def test_cancel_rejects_prime_powers_without_a_pool(config, x0, match):
    with pytest.raises(ValueError, match=match):
        cancel_prime_powers(config, x0)


_SWEEP_STARTS_1200 = (
    Fraction(1, 7),
    Fraction(3, 11),
    Fraction(2, 13),
    Fraction(7, 25),
    Fraction(13, 77),
    Fraction(9, 44),
)


def test_cancel_progress_invariants():
    # larger n: roomy pools admit chains of three or four prime powers
    cfg = build_config(1200, Fraction(1), seed=3)
    for x0 in _SWEEP_STARTS_1200:
        steps, x_f = cancel_prime_powers(cfg, x0)
        qs = [s.q for s in steps]
        assert qs == sorted(qs, reverse=True)
        assert len(set(qs)) == len(qs)
        cur = x0
        for step in steps:
            nxt = cur - reciprocal_sum(step.elements())
            assert nxt == step.x_after
            assert 0 < nxt < cur
            cur = nxt
        assert cfg.K % x_f.denominator == 0


def _largest_key_dividing(cfg, x):
    """The largest pool key dividing den(x), by a scan over every key."""
    return max((q for q in cfg.pools if x.denominator % q == 0), default=None)


def _assert_sweep_takes_largest_keys(cfg, x0, steps, x_f):
    cur = x0
    for step in steps:
        assert step.q == _largest_key_dividing(cfg, cur)
        cur = step.x_after
    assert cur == x_f
    assert _largest_key_dividing(cfg, x_f) is None


def test_sweep_order_matches_a_full_key_scan():
    # the sweep tests each key once, in descending order; a step's q must
    # still be the largest key dividing the remainder's denominator
    cfg = build_config(1200, Fraction(1), seed=3)
    remainders = [(x0, ()) for x0 in _SWEEP_STARTS_1200]
    for attempt in range(20):
        base = sample_base_set(cfg, attempt=attempt)
        remainders.append((cfg.x - reciprocal_sum(base), base))
    swept = 0
    for x0, base in remainders:
        try:
            steps, x_f = cancel_prime_powers(cfg, x0, used=base)
        except CancelStepError:
            continue
        _assert_sweep_takes_largest_keys(cfg, x0, steps, x_f)
        swept += 1
    assert swept >= 10
    for x in (Fraction(1), Fraction(3, 4)):
        trace = construct_representation(5000, x, seed=1)
        assert trace.success and len(trace.steps) > 20
        cfg = build_config(5000, x, seed=1)
        x0 = x - reciprocal_sum(trace.base_set)
        _assert_sweep_takes_largest_keys(cfg, x0, trace.steps, trace.x_f)


def test_reservoir_decompositions(config):
    assert reservoir_decompose(config, Fraction(0)) == ()
    assert reservoir_decompose(config, Fraction(1, 12)) == (1,)
    assert reservoir_decompose(config, Fraction(1, 6)) == (1, 2, 3, 6)
    # goal 4 exceeds the whole harmonic mass of [1, 10]
    assert reservoir_decompose(config, Fraction(1, 3)) is None


def test_reservoir_decompose_validation(config):
    with pytest.raises(ValueError, match="not an integer"):
        reservoir_decompose(config, Fraction(49, 240))
    with pytest.raises(ValueError):
        reservoir_decompose(config, Fraction(-1, 12))


def test_verify_representation():
    assert verify_representation([1], 10, Fraction(1))
    assert not verify_representation([2], 10, Fraction(1))
    assert verify_representation([2, 3, 6], 6, Fraction(1))
    assert not verify_representation([2, 2, 3], 6, Fraction(1))
    assert not verify_representation([2, 3, 7], 6, Fraction(1))  # 7 > n
    assert verify_representation([], 6, Fraction(0))


@pytest.mark.parametrize(
    "n,x",
    [(120, Fraction(1)), (200, Fraction(6, 7)), (400, Fraction(3, 2)), (480, Fraction(1))],
)
def test_construct_end_to_end(n, x):
    trace = construct_representation(n, x, seed=0)
    assert trace.success
    assert verify_representation(trace.elements, n, x)
    assert trace.attempt < 50
    assert trace.x_f is not None and trace.x_f >= 0
    assert replay_trace(trace_to_dict(trace))


def test_construct_trace_structure():
    trace = construct_representation(400, Fraction(1), seed=5)
    assert trace.success
    cfg_k = 12
    step_elems = [e for s in trace.steps for e in s.elements()]
    reservoir_elems = [cfg_k * d for d in trace.d_indices]
    combined = sorted(list(trace.base_set) + step_elems + reservoir_elems)
    assert combined == sorted(trace.elements)
    assert len(set(combined)) == len(combined)
    assert reciprocal_sum(reservoir_elems) == trace.x_f
    if trace.steps:
        assert trace.steps[-1].x_after == trace.x_f


def test_construct_is_deterministic_per_seed():
    a = construct_representation(400, Fraction(1), seed=11)
    b = construct_representation(400, Fraction(1), seed=11)
    c = construct_representation(400, Fraction(1), seed=12)
    assert a.elements == b.elements
    assert a.attempt == b.attempt
    assert a.elements != c.elements


# sha256 of each pinned construction's trace as cli._to_json writes it
_TRACE_DIGESTS = {
    Fraction(1): "c9a58f7a6d0d110c9e281add7db68b78afef831e3a704272c3d5c8850fcf34b7",
    Fraction(3, 4): "5b032a6c7e6d40cf2af5d8ca72b904e1b94ef8016cff5dca6d090f76559ecfd7",
}


@pytest.mark.parametrize(
    "x,attempt,size,digest",
    [
        (Fraction(1), 1, 1125, "220e34aa6ba72947b64d57230be7ee888bb75a1168528ffbb7a429c1d40e02b6"),
        (Fraction(3, 4), 9, 977, "12cb9b0016dde659fbabbec38481c4c3f88b882bdeb515a10a2a42fb226446b1"),
    ],
)
def test_construct_elements_pinned(x, attempt, size, digest):
    # any change to the sampling, the sweep order or the reservoir search
    # changes the elements of these seeded constructions; the trace digest
    # also covers the base set, the steps, x_f and D
    trace = construct_representation(5000, x, seed=1)
    assert trace.success
    assert (trace.attempt, len(trace.elements)) == (attempt, size)
    elements = ",".join(map(str, sorted(trace.elements)))
    assert hashlib.sha256(elements.encode()).hexdigest() == digest
    written = _to_json(trace_to_dict(trace))
    assert hashlib.sha256(written.encode()).hexdigest() == _TRACE_DIGESTS[x]


def test_construct_with_coarser_reservoir():
    trace = construct_representation(480, Fraction(1), L=6, seed=0)
    assert trace.success
    assert verify_representation(trace.elements, 480, Fraction(1))


def test_construct_failure_paths():
    stale = construct_representation(120, Fraction(1), seed=0, deadline=time.monotonic() - 1)
    assert isinstance(stale, AbsorptionTrace)
    assert not stale.success
    assert stale.elements == ()
    assert "budget" in stale.reason


@pytest.mark.parametrize("n, seed, steps", [(120, 0, 0), (120, 1, 0), (120, 2, 0), (48, 0, 1)])
def test_failure_trace_steps_replay_from_its_base_set(n, seed, steps):
    # base_set and steps of a failure trace come from one attempt, so the
    # remainder after each step follows from the base set and the steps
    # before; the last attempts at n = 120 fail in the sweep, the one at
    # n = 48 in the reservoir
    trace = construct_representation(n, Fraction(7, 5), seed=seed)
    assert not trace.success and len(trace.steps) == steps
    rem = trace.x - reciprocal_sum(trace.base_set)
    for step in trace.steps:
        rem -= reciprocal_sum(step.elements())
        assert rem == step.x_after


def test_trace_round_trip_and_replay():
    trace = construct_representation(400, Fraction(1), seed=2)
    assert trace.success
    data = trace_to_dict(trace)
    assert set(data) == {"n", "x", "base_set", "steps", "x_f", "D", "A", "verified"}
    assert data["verified"] is True
    assert all(set(s) == {"q", "B", "x_after"} for s in data["steps"])
    wire = json.loads(json.dumps(data, sort_keys=True))
    assert replay_trace(wire)


def test_replay_rejects_tampered_traces():
    trace = construct_representation(400, Fraction(1), seed=7)
    good = trace_to_dict(trace)
    assert replay_trace(good)

    bad = json.loads(json.dumps(good))
    bad["x"] = "2/1"
    assert not replay_trace(bad)

    if good["steps"]:
        bad = json.loads(json.dumps(good))
        num, den = bad["steps"][-1]["x_after"].split("/")
        bad["steps"][-1]["x_after"] = f"{int(num) + 1}/{den}"
        assert not replay_trace(bad)

    bad = json.loads(json.dumps(good))
    bad["A"] = bad["A"][:-1]
    assert not replay_trace(bad)

    bad = json.loads(json.dumps(good))
    bad["D"] = bad["D"][:-1] if bad["D"] else [1]
    assert not replay_trace(bad)


def test_configs_share_the_tables_of_one_n_x_l():
    a = build_config(400, Fraction(1), seed=1)
    b = build_config(400, Fraction(1), seed=2)
    assert (a.seed, b.seed) == (1, 2)
    assert a.pools is b.pools
    assert a.inverses is b.inverses
    assert a.members is b.members
    assert a.max_attempts == b.max_attempts == 50
    with pytest.raises(TypeError):
        a.pools[5] = ()


def test_configs_share_read_only_draw_tables():
    a = build_config(400, Fraction(1), seed=1)
    b = build_config(400, Fraction(1), seed=2)
    assert a.members is b.members and a.inv is b.inv and a.lim is b.lim
    assert a.members.dtype == np.int64
    assert np.array_equal(a.inv, 1.0 / a.members)
    p = discrete_profile(400, float((1 - a.eta) * a.x), support=a.members).p
    assert np.array_equal(a.lim, _thresholds(p[a.members - 1]))
    for table in (a.members, a.inv, a.lim):
        assert not table.flags.writeable


def exact_only_base_set(config, attempt):
    """sample_base_set with every draw summed exactly, on a Philox built here."""
    target = (1 - config.eta) * config.x
    members = config.members
    p = discrete_profile(config.n, float(target), support=members).p[members - 1]
    key = np.array([config.seed, attempt], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    for _ in range(200):
        a0 = tuple(members[rng.random(members.size) < p].tolist())
        if reciprocal_sum(a0) <= target:
            return a0
    raise RuntimeError("oracle failed the mass bound 200 times")


@pytest.mark.parametrize("n", [400, 5000])
@pytest.mark.parametrize("x", [Fraction(1), Fraction(3, 4)])
def test_float_screened_base_sets_match_exact_only_sampling(n, x):
    for seed in range(31):
        config = build_config(n, x, seed=seed)
        for attempt in (0, 1):
            assert sample_base_set(config, attempt) == exact_only_base_set(config, attempt)


def test_base_set_draws_inside_the_band_are_summed_exactly(monkeypatch):
    # a band of 0.05 puts many draws inside it, so both the exact fallback
    # and the float verdicts on either side of the band are exercised
    exact_calls = []

    def counted(elements):
        exact_calls.append(1)
        return reciprocal_sum(elements)

    monkeypatch.setattr(absorption, "_EXACT_BAND", 0.05)
    monkeypatch.setattr(absorption, "reciprocal_sum", counted)
    for seed in range(12):
        config = build_config(400, Fraction(1), seed=seed)
        for attempt in range(3):
            assert sample_base_set(config, attempt) == exact_only_base_set(config, attempt)
    assert exact_calls
