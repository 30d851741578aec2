"""Entropy profiles for random subsets weighted toward a reciprocal-sum target.

The discrete side solves, by bisection on c > 0, for the product-Bernoulli
distribution with inclusion probabilities p_m = 1/(1 + exp(c*n/m)) whose mean
reciprocal sum equals x; its Shannon entropy H (in bits) upper-bounds the
log-count of subsets with sum at most x. When x is at least half the full
harmonic mass the unconstrained maximizer p_m = 1/2 already satisfies the
constraint and H equals the support size.

The continuous side solves the n -> infinity limit: lambda is the root of

    integral_0^1 dy / (y * (1 + exp(lambda / y))) = x

and c_x integrates the binary entropy of the same logistic profile. As
x grows, c_x increases strictly toward 1.

Only the discrete side loads numpy, and only when first called. The
continuous side (continuous_lambda, cx_constant) is pure Python: its
Gauss-Legendre nodes come from Newton's method on P_32, and its integrands
are scalar forms of the discrete side's logistic and entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

LOG2E = math.log2(math.e)

# Bisection bracket for the continuous lambda solve.
_LAMBDA_LO = 1e-12
_LAMBDA_HI = 1e2
_LAMBDA_MAX_ITER = 200
_INTEGRAL_RTOL = 1e-8

# Logistic probabilities below this are flushed to exactly 0.0, so no
# subnormal ever reaches a product, sum or logarithm downstream.
_P_FLOOR = 1e-260

__all__ = [
    "EntropyProfile",
    "ContinuousConstants",
    "binary_entropy",
    "discrete_profile",
    "entropy_upper_bound",
    "continuous_lambda",
    "cx_constant",
]


@dataclass(frozen=True)
class EntropyProfile:
    n: int
    x: float
    c: float
    p: np.ndarray
    H: float


@dataclass(frozen=True)
class ContinuousConstants:
    x: float
    lam: float
    c_x: float


def binary_entropy(p: float) -> float:
    """h(p) = -p*log2(p) - (1-p)*log2(1-p), with the limits h(0) = h(1) = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p <= 1e-300 or 1.0 - p <= 1e-300:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _logistic(t: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """1/(1 + exp(t)) evaluated stably for t >= 0; exactly 0.0 below _P_FLOOR.

    Computed in place: t is overwritten with the result and returned, and
    scratch, a float64 array of t's shape, is overwritten too (one is made
    when none is given). Each step is one ufunc writing into t or scratch,
    in the order of the expression exp(-min(t, 700)) = e, e / (1 + e), so
    every value equals the out-of-place result bit for bit.
    """
    import numpy as np
    if scratch is None:
        scratch = np.empty_like(t)
    # exp(-700) is still a normal float, so neither exp nor the division underflows
    np.minimum(t, 700.0, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.add(1.0, t, out=scratch)
    np.divide(t, scratch, out=t)
    t[t < _P_FLOOR] = 0.0
    return t


def _entropy_nats(p: np.ndarray) -> np.ndarray:
    """-p*ln(p) - (1-p)*ln(1-p) elementwise, with h(0) = 0.

    ln(1-p) goes through log1p so that tiny p keeps its relative accuracy.
    """
    import numpy as np
    return -p * np.log(np.where(p > 0.0, p, 1.0)) - (1.0 - p) * np.log1p(-p)


def _entropy_bits(p: np.ndarray) -> float:
    return float(_entropy_nats(p).sum() / math.log(2))


def discrete_profile(n: int, x: float, support=None) -> EntropyProfile:
    """Solve the constrained max-entropy profile on [1, n] (or a subset of it).

    Returns p as a length-n array indexed by m-1; entries off the support are
    zero and contribute nothing to H or to the constraint. The converged
    profile satisfies sum(p_m / m) = x to within 1e-10 relative.
    """
    import numpy as np
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"x must be positive and finite, got {x}")
    if support is None:
        members = np.arange(1, n + 1, dtype=np.float64)
    else:
        # Sorted and deduplicated by hand: np.unique would load numpy.ma.
        members = np.sort(np.asarray(list(support), dtype=np.int64))
        if members.size == 0:
            raise ValueError("support must be nonempty")
        if members[0] < 1 or members[-1] > n:
            raise ValueError("support must lie within [1, n]")
        members = members[np.diff(members, prepend=0) > 0].astype(np.float64)

    inv = 1.0 / members
    half_mass = 0.5 * float(inv.sum())

    if x >= half_mass:
        c = 0.0
        p_members = np.full(members.size, 0.5)
    else:
        # Every evaluation of the bisection writes into these two buffers.
        p_try = np.empty_like(members)
        scratch = np.empty_like(members)

        def constraint(c_try: float) -> float:
            np.divide(c_try * n, members, out=p_try)
            return float(np.dot(_logistic(p_try, scratch), inv))

        hi = 1.0
        for _ in range(200):
            if constraint(hi) < x:
                break
            hi *= 2.0
        else:
            raise RuntimeError("failed to bracket the profile constant c")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if constraint(mid) > x:
                lo = mid
            else:
                hi = mid
        c = 0.5 * (lo + hi)
        p_members = _logistic(c * n / members, scratch)
        residual = abs(float(np.dot(p_members, inv)) - x)
        if residual > 1e-10 * x:
            raise RuntimeError(
                f"profile constraint residual {residual:.3e} exceeds 1e-10 relative"
            )

    p = np.zeros(n, dtype=np.float64)
    p[members.astype(np.int64) - 1] = p_members
    return EntropyProfile(n=n, x=x, c=c, p=p, H=_entropy_bits(p_members))


def entropy_upper_bound(n: int, x) -> float:
    """H plus enough slack that 2**bound dominates the true subset count.

    The slack covers the solver residual (dH/dx at the optimum is c*n*log2(e))
    and floating-point summation error in H itself.
    """
    import numpy as np
    xf = float(Fraction(x)) if not isinstance(x, float) else x
    prof = discrete_profile(n, xf)
    members = np.arange(1, n + 1, dtype=np.float64)
    residual = abs(float(np.dot(prof.p, 1.0 / members)) - xf)
    slack = prof.c * n * LOG2E * residual + n * 1e-14 + 1e-9
    return prof.H + slack


@cache
def _gl_rule() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Fixed 32-node Gauss-Legendre rule on [-1, 1] for the continuous integrals.

    Returns (nodes, weights), nodes ascending. Each root of P_32 is polished
    by Newton's method from its Chebyshev-like guess, with P_32 and P_31 from
    the three-term recurrence; its weight is 2/((1-x^2) P_32'(x)^2).
    """
    n = 32
    roots = []
    for i in range(n):
        x, step = -math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        # the last pass only evaluates P_32' at the converged root
        while True:
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            if abs(step) < 1e-15:
                break
            step = p1 / dp
            x -= step
        roots.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    nodes, weights = zip(*roots)
    return nodes, weights


def _gauss_legendre(f, knots, panels: int = 1, max_width: float = math.inf) -> float:
    """Integral of a scalar f over [knots[0], knots[-1]] by the 32-node rule.

    Each interval between consecutive knots is cut into equal panels: at
    least `panels` of them, and enough that none is wider than `max_width`.
    """
    edges = [knots[0]]
    for a, b in zip(knots, knots[1:]):
        k = max(panels, math.ceil((b - a) / max_width))
        edges += [a + (b - a) * i / k for i in range(1, k)] + [b]
    nodes, weights = _gl_rule()
    terms = []
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        terms += [half * w * f(lo + half * (1.0 + t)) for t, w in zip(nodes, weights)]
    return math.fsum(terms)


def _logistic_scalar(t: float) -> float:
    """_logistic for one float t >= 0, by the same clamp and flush."""
    e = math.exp(-min(t, 700.0))
    p = e / (1.0 + e)
    return p if p >= _P_FLOOR else 0.0


def _entropy_nats_scalar(p: float) -> float:
    """_entropy_nats for one float p in [0, 1]."""
    return -p * math.log(p if p > 0.0 else 1.0) - (1.0 - p) * math.log1p(-p)


def _lambda_integral(lam: float) -> float:
    """integral_1^inf du/(u*(1+exp(lam*u))), truncated where the tail is tiny.

    The tail beyond U is below exp(-lam*U)/(lam*U), so U is doubled until
    that bound drops under 1e-14 (comfortably below the 1e-12 target). In the
    log variable u = e^s the integrand is 1/(1+exp(lam*e^s)); panels are at
    most 2 wide and break at the logistic transition s = log(1/lam) and one
    and two decades past it.
    """
    upper = 2.0
    while math.exp(-lam * upper) / (lam * upper) > 1e-14:
        upper *= 2.0
        if upper > 1e18:
            break
    breaks = [math.log(b) for b in (1.0 / lam, 10.0 / lam, 100.0 / lam) if 1.0 < b < upper]
    knots = [0.0, *breaks, math.log(upper)]
    return _gauss_legendre(lambda s: _logistic_scalar(lam * math.exp(s)), knots, max_width=2.0)


def continuous_lambda(x: float, with_residual: bool = False) -> float | tuple[float, float]:
    """Root of the logistic-mass equation; strictly decreasing in x.

    With with_residual, returns (lambda, residual), the residual being
    |integral(lambda) - x|, which the solve checks against its tolerance.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"x must be positive and finite, got {x}")
    lo, hi = _LAMBDA_LO, _LAMBDA_HI
    if _lambda_integral(lo) <= x:
        raise RuntimeError(f"x={x} is outside the solvable bracket [{lo}, {hi}]")
    if _lambda_integral(hi) >= x:
        raise RuntimeError(f"x={x} is outside the solvable bracket [{lo}, {hi}]")
    for _ in range(_LAMBDA_MAX_ITER):
        mid = math.sqrt(lo * hi) if hi / lo > 4.0 else 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _lambda_integral(mid) > x:
            lo = mid
        else:
            hi = mid
        if (hi - lo) < 1e-14 * hi:
            break
    lam = 0.5 * (lo + hi)
    residual = abs(_lambda_integral(lam) - x)
    if residual > _INTEGRAL_RTOL * max(1.0, x):
        raise RuntimeError(f"lambda solve residual {residual:.3e} exceeds tolerance")
    return (lam, residual) if with_residual else lam


def cx_constant(x: float) -> ContinuousConstants:
    """The exponent constant c_x: entropy of the limiting logistic profile."""
    x = float(x)
    lam = continuous_lambda(x)
    # Decade breakpoints from 0.1*lam up to 1 (lam >= 1e-12 needs k <= 12).
    breaks = [b for b in (lam * 10.0**k for k in range(-1, 13)) if b < 1.0]
    nats = _gauss_legendre(
        lambda y: _entropy_nats_scalar(_logistic_scalar(lam / y)), [0.0, *breaks, 1.0], panels=4
    )
    c_x = nats / math.log(2)
    if not 0.0 < c_x < 1.0:
        raise RuntimeError(f"c_x = {c_x} fell outside (0, 1); lambda = {lam}")
    return ContinuousConstants(x=x, lam=lam, c_x=c_x)
