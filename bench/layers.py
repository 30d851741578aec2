"""Per-layer measurements for the traced run.

Each egyfrac module is called through its public functions from here, with
a span around every call. Counting runs in traced CLI children, so its peak
RSS is a process's own. The absorption stages are driven by replaying
``construct_from_config``'s attempt order for the CLI's config and seed; the
replay must reach the same trace as the CLI did.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from fractions import Fraction

import egyfrac.cli
from egyfrac.absorption import (
    AbsorptionTrace,
    CancelStepError,
    build_config,
    cancel_prime_powers,
    reservoir_decompose,
    sample_base_set,
    trace_to_dict,
    verify_representation,
)
from egyfrac.entropy import continuous_lambda, cx_constant, discrete_profile
from egyfrac.exactmath import max_prime_power_table, powersmooth_count, primes_upto, reciprocal_sum
from egyfrac.modelsim import estimate_prob_at_most
from egyfrac.modular import make_instance, residue_coverage

import workloads
from spans import Tracer, summarize

REPEATS = 5  # median over this many calls for the sub-second functions
IMPORT_RUNS = 3
PROFILE_NS = (1000, 10000, 100000)
MC_TRIALS = {1000: 4000, 10000: 1500, 100000: 150}
COVERAGE = ((101, 11, 21, 6), (100003, 317, 634, 12))
SIEVE_N = 10**6
# The first seed of each construct workload case, plus x = 3/7, which today
# fails after max_attempts cancel failures.
REPLAY_CASES = tuple((n, x, s) for n, x, s, _ in workloads.CONSTRUCT_CASES) + ((5000, "3/7", 1),)
FAIL_KINDS = ("sample", "cancel", "reservoir", "verify")

_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$")


def measure(ctx: workloads.Context, seed: int, tracer: Tracer) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics other than the cli pass figures.

    Also returns how many operations (count commands and absorption
    replays) were attempted and verified, and the problems found.
    """
    metrics = import_times(ctx)
    metrics.update(_entropy(tracer))
    count_results = [ctx.run(cmd, traced=True, command_id=f"layers/{cmd.cid}")
                     for cmd in workloads.count_commands()]
    for result in count_results:
        tracer.extend(result.spans)
        n, mode = result.command.args[2], result.command.args[6]
        calls = [s for s in result.spans if s.name == "counting.count_mitm"]
        metrics[f"counting.count_mitm.{mode}_s.n{n}"] = sum(s.seconds for s in calls)
        metrics[f"counting.count_mitm.peak_rss_mb.n{n}_{mode}"] = result.rss_mb
    metrics.update(_modelsim(tracer, seed))
    metrics.update(_modular(tracer))
    metrics.update(_exactmath(tracer))
    replay_metrics, matched, problems = _absorption(ctx, tracer)
    metrics.update(replay_metrics)
    attempted = len(count_results) + len(REPLAY_CASES)
    good = sum(r.good for r in count_results) + matched
    return metrics, attempted, good, [p for r in count_results for p in r.problems] + problems


def import_times(ctx: workloads.Context) -> dict[str, float]:
    """Cumulative import seconds of egyfrac.cli, .entropy and .exactmath (-X importtime)."""
    runs: dict[str, list[float]] = {"egyfrac.cli": [], "egyfrac.entropy": [], "egyfrac.exactmath": []}
    for _ in range(IMPORT_RUNS):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import egyfrac.cli"],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True, check=True,
        ).stderr
        for line in err.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(2) in runs:
                runs[match.group(2)].append(int(match.group(1)) / 1e6)
    return {
        f"{name.split('.')[-1]}.import_s": statistics.median(values) for name, values in runs.items()
    }


def _median_call(tracer: Tracer, name: str, fn, *args, repeats: int = REPEATS) -> float:
    """Median seconds of `repeats` spanned calls of fn(*args)."""
    seconds = []
    for _ in range(repeats):
        with tracer.span(name) as span:
            fn(*args)
        seconds.append(span.seconds)
    return statistics.median(seconds)


def _entropy(tracer: Tracer) -> dict[str, float]:
    metrics = {}
    for n in PROFILE_NS:
        metrics[f"entropy.discrete_profile_s.n{n}"] = _median_call(
            tracer, "entropy.discrete_profile", discrete_profile, n, 1.0
        )
    metrics["entropy.continuous_lambda_s"] = _median_call(
        tracer, "entropy.continuous_lambda", continuous_lambda, 1.0
    )
    metrics["entropy.cx_constant_s"] = _median_call(tracer, "entropy.cx_constant", cx_constant, 1.0)
    return metrics


def _modelsim(tracer: Tracer, seed: int) -> dict[str, float]:
    metrics = {}
    trials = fallbacks = 0
    for n, sim_seed in zip(PROFILE_NS, workloads.derived_seeds(seed, len(PROFILE_NS))):
        profile = discrete_profile(n, 1.0)
        with tracer.span("modelsim.estimate_prob_at_most") as span:
            est = estimate_prob_at_most(profile, Fraction(1), MC_TRIALS[n], sim_seed)
        metrics[f"modelsim.estimate_prob_at_most.us_per_trial.n{n}"] = span.seconds / est.trials * 1e6
        trials += est.trials
        fallbacks += est.exact_fallbacks
    metrics["modelsim.exact_fallbacks"] = fallbacks
    metrics["modelsim.fallback_ratio"] = fallbacks / trials
    return metrics


def _modular(tracer: Tracer) -> dict[str, float]:
    metrics = {}
    for q, lo, hi, s_max in COVERAGE:
        instance = make_instance(q, range(lo, hi + 1), s_max)
        metrics[f"modular.residue_coverage_s.q{q}"] = _median_call(
            tracer, "modular.residue_coverage", residue_coverage, instance,
            repeats=REPEATS if q < 1000 else 1,
        )
    return metrics


def _exactmath(tracer: Tracer) -> dict[str, float]:
    metrics = {}
    for name, fn, args in (
        ("powersmooth_count", powersmooth_count, (SIEVE_N, workloads.SIEVE[1])),
        ("max_prime_power_table", max_prime_power_table, (SIEVE_N,)),
        ("primes_upto", primes_upto, (SIEVE_N,)),
    ):
        metrics[f"exactmath.{name}_s"] = _median_call(tracer, f"exactmath.{name}", fn, *args, repeats=1)
    return metrics


def _absorption(ctx: workloads.Context, tracer: Tracer) -> tuple[dict, int, list[str]]:
    """Replay each case's attempts stage by stage; compare with the CLI's trace.

    Returns the absorption and reciprocal-sum metrics, the number of cases
    whose replay matched, and the mismatches.
    """
    local = Tracer(tracer.command)
    counts = dict.fromkeys(["attempts", "successes", "cancel_steps", "elements"], 0)
    counts.update({f"fail.{kind}": 0 for kind in FAIL_KINDS})
    matched, problems = 0, []
    for n, x, seed in REPLAY_CASES:
        trace_path = ctx.out_dir / f"replay_n{n}_s{seed}.trace.json"
        argv = ["construct", "--n", str(n), "--x", x, "--seed", str(seed), "--trace", str(trace_path),
                "--out", str(ctx.out_dir / "replay.json")]
        if egyfrac.cli.run(argv) != 0:
            problems.append(f"construct {argv} exited non-zero")
            continue
        cli_trace = json.loads(trace_path.read_text())
        with local.span("absorption.build_config"):
            config = build_config(n, Fraction(x), seed=seed)
        replayed = replay(config, local, counts)
        if trace_to_dict(replayed) == cli_trace:
            matched += 1
        else:
            problems.append(f"replay of construct n={n} x={x} seed={seed} differs from the CLI trace")
    tracer.extend(local.spans)
    totals = summarize(local.spans)
    metrics = {
        f"absorption.{stage}_s": totals.get(f"absorption.{span}", {}).get("total_s", 0.0)
        for stage, span in (
            ("build_config", "build_config"),
            ("sample_base_set", "sample_base_set"),
            ("cancel_prime_powers", "cancel_prime_powers"),
            ("reservoir_decompose", "reservoir_decompose"),
            ("verify", "verify_representation"),
        )
    }
    for key in ("attempts", "successes", "cancel_steps") + tuple(f"fail.{k}" for k in FAIL_KINDS):
        metrics[f"absorption.{key}"] = counts[key]
    metrics["absorption.success_per_attempt"] = counts["successes"] / counts["attempts"]
    recip = totals["exactmath.reciprocal_sum"]["total_s"]
    metrics["exactmath.reciprocal_sum.us_per_elem"] = recip / counts["elements"] * 1e6
    return metrics, matched, problems


def replay(config, tracer: Tracer, counts: dict) -> AbsorptionTrace:
    """``construct_from_config`` (no deadline), one span per stage call."""
    base: tuple[int, ...] = ()
    steps: tuple = ()
    for attempt in range(config.max_attempts):
        counts["attempts"] += 1
        try:
            with tracer.span("absorption.sample_base_set"):
                base = sample_base_set(config, attempt=attempt)
        except RuntimeError:
            counts["fail.sample"] += 1
            continue
        with tracer.span("exactmath.reciprocal_sum"):
            x0 = config.x - reciprocal_sum(base)
        counts["elements"] += len(base)
        try:
            with tracer.span("absorption.cancel_prime_powers"):
                step_list, x_f = cancel_prime_powers(config, x0, used=base)
        except CancelStepError:
            counts["fail.cancel"] += 1
            continue
        steps = tuple(step_list)
        counts["cancel_steps"] += len(steps)
        with tracer.span("absorption.reservoir_decompose"):
            d_indices = reservoir_decompose(config, x_f)
        if d_indices is None:
            counts["fail.reservoir"] += 1
            continue
        elements = sorted(
            list(base)
            + [e for step in steps for e in step.elements()]
            + [config.K * d for d in d_indices]
        )
        with tracer.span("absorption.verify_representation"):
            ok = len(set(elements)) == len(elements) and verify_representation(
                elements, config.n, config.x
            )
        if not ok:
            counts["fail.verify"] += 1
            continue
        counts["successes"] += 1
        return AbsorptionTrace(
            n=config.n, x=config.x, seed=config.seed, attempt=attempt, success=True,
            base_set=base, steps=steps, x_f=x_f, d_indices=d_indices, elements=tuple(elements),
        )
    return AbsorptionTrace(
        n=config.n, x=config.x, seed=config.seed, attempt=config.max_attempts, success=False,
        base_set=base, steps=steps, x_f=None, d_indices=None, elements=(),
    )
