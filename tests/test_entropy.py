"""Entropy profile tests.

The continuous integrals get an independent composite-Simpson oracle; the
discrete solver is checked against its defining constraint, against a
first-order optimality (exchange) argument, and against the continuous
limit at large n.
"""

import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import egyfrac
from egyfrac.counting import MODE_AT_MOST, CountQuery, count_mitm
from egyfrac.entropy import (
    _P_FLOOR,
    _entropy_nats,
    _entropy_nats_scalar,
    _gl_rule,
    _lambda_integral,
    _logistic,
    _logistic_scalar,
    binary_entropy,
    continuous_lambda,
    cx_constant,
    discrete_profile,
    entropy_upper_bound,
)

# Frozen reference values, computed twice by independent quadrature routes.
LAMBDA_1 = 0.1271909151247070
C_1 = 0.9111665894411178


def simpson_mass_integral(lam, n_pts=2**21):
    """integral_1^inf du/(u*(1+exp(lam*u))) by composite Simpson."""
    upper = 2.0
    while math.exp(-lam * upper) / (lam * upper) > 1e-16:
        upper *= 2.0
    u = np.linspace(1.0, upper, n_pts + 1)
    t = np.minimum(lam * u, 745.0)
    e = np.exp(-t)
    f = e / (u * (1.0 + e))
    h = (upper - 1.0) / n_pts
    w = np.ones(n_pts + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((f * w).sum() * h / 3.0)


def simpson_entropy_integral(lam, n_pts=2**20):
    """integral_0^1 h(1/(1+exp(lam/y))) dy by composite Simpson."""
    y = np.linspace(1e-12, 1.0, n_pts + 1)
    t = np.minimum(lam / y, 745.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = 1.0 / (1.0 + np.exp(t))
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    h = np.nan_to_num(h)
    w = np.ones(n_pts + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    step = (1.0 - 1e-12) / n_pts
    return float((h * w).sum() * step / 3.0)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)
    for p in (0.01, 0.2, 0.37):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


@pytest.mark.parametrize("n,x", [(1, 0.4), (5, 0.8), (30, 1.0), (200, 1.5), (1000, 0.25)])
def test_profile_meets_constraint(n, x):
    prof = discrete_profile(n, x)
    mean = float(np.dot(prof.p, 1.0 / np.arange(1, n + 1)))
    assert mean == pytest.approx(x, rel=1e-9)
    assert prof.c > 0.0
    # tiny m can underflow to exactly zero once c*n/m overflows exp
    assert np.all(prof.p >= 0.0)
    assert prof.p[-1] > 0.0
    assert np.all(prof.p < 0.5)
    # p_m = 1/(1+exp(c*n/m)) grows with m
    assert np.all(np.diff(prof.p) >= 0.0)
    if n > 1:
        assert prof.p[-1] > prof.p[0]


def test_profile_saturates_at_half_mass():
    # H(10)/2 is about 1.464, so x = 1.5 lands in the unconstrained regime
    prof = discrete_profile(10, 1.5)
    assert prof.c == 0.0
    assert np.all(prof.p == 0.5)
    assert prof.H == pytest.approx(10.0, abs=1e-9)


def test_profile_entropy_matches_direct_sum():
    for n, x in ((7, 0.9), (40, 1.2), (150, 0.5)):
        prof = discrete_profile(n, x)
        direct = sum(binary_entropy(float(pm)) for pm in prof.p)
        assert prof.H == pytest.approx(direct, rel=1e-12)


def test_profile_is_entropy_optimal_under_exchange():
    """Moving constraint mass between two coordinates cannot raise H."""
    prof = discrete_profile(25, 1.0)
    p = prof.p.copy()
    base = sum(binary_entropy(float(v)) for v in p)
    rng = random.Random(5)
    for _ in range(40):
        i, j = rng.sample(range(25), 2)
        delta = rng.uniform(-1.0, 1.0) * 0.05
        qi = p[i] + delta * (i + 1)
        qj = p[j] - delta * (j + 1)
        if not (0.0 <= qi <= 1.0 and 0.0 <= qj <= 1.0):
            continue
        q = p.copy()
        q[i], q[j] = qi, qj
        perturbed = sum(binary_entropy(float(v)) for v in q)
        assert perturbed <= base + 1e-9


def test_profile_restricted_support():
    support = [2, 4, 6, 9]
    prof = discrete_profile(10, 0.3, support=support)
    off = [m for m in range(1, 11) if m not in support]
    assert all(prof.p[m - 1] == 0.0 for m in off)
    mean = sum(prof.p[m - 1] / m for m in support)
    assert mean == pytest.approx(0.3, rel=1e-9)
    direct = sum(binary_entropy(float(prof.p[m - 1])) for m in support)
    assert prof.H == pytest.approx(direct, rel=1e-12)


def test_support_is_sorted_and_deduplicated_like_np_unique():
    rng = random.Random(11)
    for n in (10, 300, 5000):
        base = rng.sample(range(1, n + 1), k=max(3, n // 3))
        shuffled = base + rng.choices(base, k=len(base) // 2)
        rng.shuffle(shuffled)
        x = 0.25 * sum(1 / m for m in base)
        want = discrete_profile(n, x, support=np.unique(shuffled))
        for support in (shuffled, np.asarray(shuffled, dtype=np.int32), iter(shuffled)):
            got = discrete_profile(n, x, support=support)
            assert (got.c, got.H) == (want.c, want.H)
            assert np.array_equal(got.p, want.p)


def test_profile_validation():
    with pytest.raises(ValueError):
        discrete_profile(0, 1.0)
    with pytest.raises(ValueError):
        discrete_profile(5, 0.0)
    with pytest.raises(ValueError):
        discrete_profile(5, float("nan"))
    with pytest.raises(ValueError):
        discrete_profile(5, 1.0, support=[])
    with pytest.raises(ValueError):
        discrete_profile(5, 1.0, support=[0, 2])
    with pytest.raises(ValueError):
        discrete_profile(5, 1.0, support=[2, 7])


def test_upper_bound_dominates_exact_counts():
    for n, x in ((10, 1.0), (16, 0.5), (22, 1.5)):
        count = count_mitm(CountQuery(n, x, MODE_AT_MOST)).count
        bound = entropy_upper_bound(n, x)
        assert math.log2(count) <= bound
        assert bound >= discrete_profile(n, x).H


@pytest.mark.parametrize("n", [24, 28, 32, 36, 40, 42])
def test_upper_bound_dominates_exact_counts_to_n42(n):
    for x in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
        count = count_mitm(CountQuery(n, x, MODE_AT_MOST)).count
        assert math.log2(count) <= entropy_upper_bound(n, x)


def test_mass_integral_against_simpson():
    for lam in (0.1, 0.5, 1.0, 5.0):
        assert _lambda_integral(lam) == pytest.approx(
            simpson_mass_integral(lam), abs=1e-12
        )


def test_continuous_lambda_reference_value():
    lam = continuous_lambda(1.0)
    assert lam == pytest.approx(LAMBDA_1, abs=1e-9)
    assert _lambda_integral(lam) == pytest.approx(1.0, abs=1e-8)


def test_continuous_lambda_monotone_in_x():
    xs = (0.25, 0.5, 1.0, 2.0, 4.0)
    lams = [continuous_lambda(x) for x in xs]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    for x, lam in zip(xs, lams):
        assert _lambda_integral(lam) == pytest.approx(x, abs=1e-8)


def test_continuous_lambda_rejects_unreachable_x():
    with pytest.raises(ValueError):
        continuous_lambda(0.0)
    with pytest.raises(RuntimeError, match="bracket"):
        continuous_lambda(1e6)


def test_cx_reference_value():
    consts = cx_constant(1.0)
    assert consts.c_x == pytest.approx(C_1, abs=1e-6)
    assert consts.c_x == pytest.approx(0.91117, abs=1e-4)
    assert consts.lam == pytest.approx(LAMBDA_1, abs=1e-9)


def test_cx_against_simpson():
    for x in (0.5, 1.0, 2.0):
        consts = cx_constant(x)
        oracle = simpson_entropy_integral(consts.lam)
        assert consts.c_x == pytest.approx(oracle, abs=1e-9)


def test_cx_strictly_increasing_toward_one():
    xs = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
    vals = [cx_constant(x).c_x for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_discrete_profile_converges_to_continuous():
    prof = discrete_profile(50_000, 1.0)
    assert prof.c == pytest.approx(LAMBDA_1, abs=1e-4)
    assert prof.H / prof.n == pytest.approx(C_1, abs=1e-3)


# _lambda_integral at lambdas the Simpson oracle cannot reach or resolve,
# frozen from adaptive Gauss-Kronrod quadrature (scipy's quad). At lam = 100
# quad itself is 4.5e-10 off in relative terms, so that value comes from the
# exponential-integral series sum_k (-1)^(k+1) (E1(k*lam) - E1(2*k*lam)) of
# the same integral truncated at u = 2, summed in 60-digit arithmetic.
MASS_INTEGRAL_PINS = [
    (1e-12, 13.752694078158482),
    (1e-6, 6.844939049176097),
    (1e-3, 3.3913111596780845),
    (20.0, 9.835525269914422e-11),
    (100.0, 3.683597761682032e-46),
]

# (x, lambda, c_x), frozen from the same adaptive quadrature.
CONTINUOUS_PINS = [
    (1 / 16, 1.759215094787089, 0.22919407260082525),
    (1 / 4, 0.7880891177819929, 0.5407344216749848),
    (1 / 2, 0.3949452993030961, 0.7430555168625983),
    (1.0, 0.12719091512470715, 0.9111665894411178),
    (2.0, 0.016285333641976773, 0.9883004419504484),
    (4.0, 0.0002959011805060342, 0.9997865682069932),
    (8.0, 9.924910748762745e-08, 0.9999999284069047),
]


@pytest.mark.parametrize("lam,value", MASS_INTEGRAL_PINS)
def test_mass_integral_pinned_across_bracket(lam, value):
    assert _lambda_integral(lam) == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x,lam,c_x", CONTINUOUS_PINS)
def test_lambda_and_cx_pinned(x, lam, c_x):
    consts = cx_constant(x)
    assert consts.lam == pytest.approx(lam, rel=1e-14, abs=0.0)
    assert continuous_lambda(x) == consts.lam
    assert consts.c_x == pytest.approx(c_x, rel=1e-11, abs=0.0)


def test_continuous_constants_run_without_numpy():
    # a None entry in sys.modules makes any "import numpy" fail
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        'sys.modules["numpy"] = None\n'
        "from egyfrac.cli import run, validate_record\n"
        "from egyfrac.entropy import continuous_lambda, cx_constant\n"
        "records = []\n"
        "for command in ('cx', 'lambda'):\n"
        "    out = io.StringIO()\n"
        "    with redirect_stdout(out):\n"
        "        assert run([command, '--x', '1/1']) == 0\n"
        "    records.append(json.loads(out.getvalue()))\n"
        "    validate_record(records[-1])\n"
        "pins = [(x, continuous_lambda(x), cx_constant(x)) for x in json.loads(sys.argv[1])]\n"
        "print(json.dumps([records, [(x, lam, c.lam, c.c_x) for x, lam, c in pins]]))\n"
    )
    xs = json.dumps([x for x, _, _ in CONTINUOUS_PINS])
    proc = subprocess.run(
        [sys.executable, "-c", probe, xs], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    (cx_record, lambda_record), values = json.loads(proc.stdout)
    assert cx_record["c_x"] == pytest.approx(C_1, rel=1e-11, abs=0.0)
    assert cx_record["lambda"] == pytest.approx(LAMBDA_1, abs=1e-9)
    assert lambda_record["lambda"] == cx_record["lambda"]
    assert lambda_record["residual"] <= 1e-12
    for (x, lam, c_x), (got_x, got_lam, cx_lam, got_cx) in zip(CONTINUOUS_PINS, values):
        assert got_x == x
        assert got_lam == pytest.approx(lam, rel=1e-14, abs=0.0)
        assert cx_lam == got_lam
        assert got_cx == pytest.approx(c_x, rel=1e-11, abs=0.0)


def test_gl_rule_matches_leggauss():
    nodes, weights = _gl_rule()
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(32)
    assert isinstance(nodes, tuple) and isinstance(weights, tuple)
    assert all(type(v) is float for v in nodes + weights)
    assert np.max(np.abs(np.array(nodes) - ref_nodes)) <= 1e-15
    assert np.max(np.abs(np.array(weights) - ref_weights)) <= 1e-15


def test_gl_rule_integrates_polynomials_to_degree_63():
    nodes, weights = _gl_rule()
    assert math.fsum(weights) == pytest.approx(2.0, rel=0.0, abs=1e-14)
    for k in range(64):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(w * t**k for t, w in zip(nodes, weights))
        assert got == pytest.approx(exact, rel=0.0, abs=1e-14), k


def logistic_grid():
    """t over [0, 800] and logspace(-12, 3), with 0, 700, 745 and both sides of the flush."""
    flush = -math.log(_P_FLOOR)
    near = np.nextafter(flush, -np.inf) + np.arange(-50, 51) * np.spacing(flush)
    return np.concatenate([
        np.linspace(0.0, 800.0, 100001),
        np.logspace(-12, 3, 2001),
        [0.0, 700.0, 745.0],
        near,
        np.linspace(flush - 1e-9, flush + 1e-9, 2001),
    ])


def test_scalar_logistic_and_entropy_match_the_array_forms():
    t = logistic_grid()
    p = _logistic(t.copy())
    scalar_p = np.array([_logistic_scalar(float(v)) for v in t])
    # the grid reaches the flush from both sides, in both forms
    flushed = np.abs(t + math.log(_P_FLOOR)) < 1e-9
    for q in (p, scalar_p):
        assert (q[flushed] == 0.0).any() and (q[flushed] > 0.0).any()
    assert scalar_p[t == 0.0][0] == p[t == 0.0][0] == 0.5
    assert (scalar_p[t >= 700.0] == 0.0).all() and (p[t >= 700.0] == 0.0).all()
    assert np.all(np.abs(scalar_p - p) <= 4e-16 * p)
    h = _entropy_nats(p)
    scalar_h = np.array([_entropy_nats_scalar(float(v)) for v in p])
    assert np.all(np.abs(scalar_h - h) <= 4e-16 * h)


def test_cx_defined_across_the_bracket():
    # down to x = 1e-30 (lambda near 65), where exp(lambda/y) overflows a float
    xs = np.logspace(-30, 1.13, 40)
    vals = [cx_constant(x).c_x for x in xs]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def unfused_logistic(t):
    """_logistic as one out-of-place expression, every step a new array."""
    p = np.exp(-np.minimum(t, 700.0))
    p /= 1.0 + p
    p[p < 1e-260] = 0.0
    return p


def unfused_profile(n, x, support=None):
    """(c, p, H) of discrete_profile's bisection, each evaluation run by unfused_logistic."""
    members = np.arange(1, n + 1, dtype=np.float64)
    if support is not None:
        members = np.asarray(sorted(set(support)), dtype=np.float64)
    inv = 1.0 / members
    if x >= 0.5 * float(inv.sum()):
        c, p_members = 0.0, np.full(members.size, 0.5)
    else:
        hi = 1.0
        while float(np.dot(unfused_logistic(hi * n / members), inv)) >= x:
            hi *= 2.0
        lo = 0.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if float(np.dot(unfused_logistic(mid * n / members), inv)) > x:
                lo = mid
            else:
                hi = mid
        c = 0.5 * (lo + hi)
        p_members = unfused_logistic(c * n / members)
    p = np.zeros(n)
    p[members.astype(np.int64) - 1] = p_members
    nats = -p_members * np.log(np.where(p_members > 0.0, p_members, 1.0))
    nats -= (1.0 - p_members) * np.log1p(-p_members)
    return c, p, float(nats.sum() / math.log(2))


@pytest.mark.parametrize("n", [1, 7, 1000, 100000])
@pytest.mark.parametrize("x", [0.3, 1.0, 2.0])
def test_profile_is_bit_equal_to_the_unfused_solve(n, x):
    # the solve runs _logistic in place in two reused buffers; every value
    # must match the out-of-place chain, or c moves
    prof = discrete_profile(n, x)
    c, p, H = unfused_profile(n, x)
    assert (prof.c, prof.H) == (c, H)
    assert prof.p.tobytes() == p.tobytes()


def test_restricted_profile_is_bit_equal_to_the_unfused_solve():
    support = [m for m in range(1, 5001) if m % 12]
    prof = discrete_profile(5000, 0.75, support=support)
    c, p, H = unfused_profile(5000, 0.75, support)
    assert c > 0.0
    assert (prof.c, prof.H) == (c, H)
    assert prof.p.tobytes() == p.tobytes()


def test_profile_entropy_with_underflowed_entries():
    # c*n/m exceeds 745 at m = 1, where exp(-c*n/m) underflows
    n, x = 1000, 0.25
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = discrete_profile(n, x)
    assert prof.c * n > 745.0
    assert prof.p[0] == 0.0
    assert math.isfinite(prof.H)
    direct = sum(binary_entropy(float(pm)) for pm in prof.p)
    assert prof.H == pytest.approx(direct, rel=1e-12)


# The pins below hold where they were recorded: numpy 2.4.6 on an AVX-512
# CPU. numpy picks its exp and log kernels, and OpenBLAS its dot kernel, by
# CPU, so the last bits may differ elsewhere; the unfused-solve tests above
# check bit equality on any platform.
PINNED_PLATFORM = np.__version__ == "2.4.6" and bool(
    np._core._multiarray_umath.__cpu_features__.get("AVX512_SKX")
)

# sha256 of p's bytes, repr(c) and repr(H) of the out-of-place solve, for
# (n, x, support); "absorption" stands for build_config's universe, whose
# profile at n = 20000, x = 3/4 has target (1 - eta) * x.
PROFILE_PINS = {
    (1000, 1.0, None): (
        "597b5ba323bb4f1c1f56a2473cd46d9e876c8e59929adb9df9e8b10cdfd3b59e",
        "0.12725451552098416",
        "911.6221691575491",
    ),
    (100000, 1.0, None): (
        "a3b11d78ad486c22d079f452e2bf9600f48df3a9f1846620898c56dbe6941560",
        "0.1271915510797767",
        "91117.11452737072",
    ),
    (100000, 0.5, None): (
        "750dda6e3b829360b4efd4c98062bd2090342d21656c4c4eb188150b0ee4904c",
        "0.39494727403085117",
        "74305.92321392264",
    ),
    (20000, 0.75, "absorption"): (
        "841c0c929913204027ed11141da9845c28f9b49bca9654d055fe4cb0b5d1a09d",
        "0.142724170153831",
        "9965.565803004958",
    ),
}


@pytest.mark.skipif(not PINNED_PLATFORM, reason="pins recorded under numpy 2.4.6 with AVX-512")
def test_profile_bits_are_pinned():
    # in a fresh child, where egyfrac sets one BLAS thread before numpy
    # loads: a threaded dot product sums in another order and moves c
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import hashlib, json, sys\n"
        "from fractions import Fraction\n"
        "from egyfrac.absorption import AbsorptionConfig, build_config\n"
        "from egyfrac.entropy import discrete_profile\n"
        "pins = []\n"
        "for n, x, support in json.loads(sys.argv[1]):\n"
        "    if support == 'absorption':\n"
        "        config = build_config(n, Fraction(x))\n"
        "        support, x = config.members, float((1 - AbsorptionConfig.eta) * config.x)\n"
        "    prof = discrete_profile(n, x, support=support)\n"
        "    pins.append([hashlib.sha256(prof.p.tobytes()).hexdigest(), repr(prof.c), repr(prof.H)])\n"
        "print(json.dumps(pins))\n"
    )
    cases = list(PROFILE_PINS)
    proc = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(cases)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    for case, got in zip(cases, json.loads(proc.stdout)):
        assert tuple(got) == PROFILE_PINS[case], case


def test_profile_peaks_below_five_and_a_half_arrays():
    # the solve holds four arrays of length n, the entropy sum three
    n = 100000
    discrete_profile(10, 1.0)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        discrete_profile(n, 1.0)
        arrays = (tracemalloc.get_traced_memory()[1] - held) / (8 * n)
    finally:
        tracemalloc.stop()
    assert arrays < 5.5, arrays
