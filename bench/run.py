"""egyfrac benchmark: README CLI commands as closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client runs one CLI child at a time,
repeating the workload's commands (one pass) until S seconds are used, with
at least two passes so every command also gets a same-seed rerun; the last
pass may stop part way. Every output is checked. With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of a traced run. The lines before it are a readable
report. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_RUNS = 3
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "egyfrac" / "cli.py").is_file():
        print(f"error: no egyfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = WORK / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    sys.pycache_prefix = str(WORK / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports egyfrac, so only after the path is set

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    env = child_env(out_dir)
    ctx = workloads.Context(root=ROOT, out_dir=out_dir, env=env)
    report = [f"egyfrac benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    report += environment(env)
    report.append(f"derived simulate seeds: {workloads.derived_seeds(args.seed, len(workloads.MC_CASES))}"
                  " (exact and cli_short do not depend on the seed)")

    setup = setup_times(env)
    commands = workloads.commands(args.workload, args.seed)
    passes = run_passes(ctx, commands, args.seconds, args.trace == 1, args.workload)
    results = [r for _, p in passes for r in p]
    reruns = workloads.rerun_problems(passes)
    problems = [msg for r in results for msg in r.problems] + reruns
    attempted = sum(r.command.ops for r in results)
    failed = sum(r.command.ops - r.good for r in results) + len(reruns)
    untraced = [p for traced, p in passes if not traced]
    e2e = end_to_end(untraced, setup)
    report += command_table(untraced)

    if args.trace:
        import layers

        tracer = Tracer("layers")
        traced = [p for is_traced, p in passes if is_traced]
        for r in (r for p in traced for r in p):
            tracer.extend(r.spans)
        metrics = cli_layer(traced, e2e["wall_s"])
        layer_metrics, layer_ops, layer_good, layer_problems = layers.measure(ctx, args.seed, tracer)
        metrics.update(layer_metrics)
        attempted, failed = attempted + layer_ops, failed + layer_ops - layer_good
        problems += layer_problems
        tracer.dump(str(WORK / "spans.json"))
        report.append("span totals (count, total s, self s):")
        for name, row in sorted(summarize(tracer.spans).items()):
            report.append(f"  {name:<40} {row['count']:>6} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    else:
        metrics = e2e
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")

    report.append(f"operations: attempted={attempted} failed={failed} "
                  f"error_rate={failed / attempted:.4g} (ratio)")
    if args.workload == "mc_tail":
        report.append(f"trials_per_s: {e2e['work_per_s']:.6g} 1/s")
    if args.workload == "exact":
        construct = [r for p in untraced for r in p if r.command.trace]
        reps = sum(r.good for r in construct) / sum(r.seconds for r in construct)
        report.append(f"reps_per_s: {reps:.6g} 1/s (verified representations per construct second)")
    report += [f"problem: {p}" for p in problems]
    report += [f"{name}: {value:.6g} {units[name]}" for name, value in metrics.items()]
    shutil.rmtree(out_dir, ignore_errors=True)
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def child_env(out_dir: Path) -> dict:
    """Environment of every child: this checkout's sources, a bytecode cache
    and the output dir under .bench_work, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(THREAD_ENV)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
        EGYFRAC_OUT_DIR=str(out_dir),
    )
    return env


def setup_times(env: dict) -> list[float]:
    """Warm the bytecode cache, then time fresh `import egyfrac.cli` children."""
    argv = [sys.executable, "-c", "import egyfrac.cli"]
    subprocess.run(argv, cwd=ROOT, env=env, check=True)
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_passes(ctx, commands, seconds: float, trace: bool, workload: str):
    """Closed loop over passes of the commands, for about `seconds`.

    There are always two whole passes. An untraced run then goes on command
    by command and stops before the first one that its previous time says
    would overrun `seconds`, so its last pass may be partial. In a traced
    run, untraced and traced passes alternate, and only whole pairs run.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        results = []
        for i, cmd in enumerate(commands):
            may_stop = not trace and len(passes) >= 2
            if may_stop and time.perf_counter() - start + passes[-1][1][i].seconds > seconds:
                break
            results.append(ctx.run(cmd, traced=traced, command_id=f"{workload}/p{len(passes)}/{cmd.cid}"))
        if results:
            passes.append((traced, results))
        if len(results) < len(commands):
            return passes
        wall = sum(r.seconds for r in results)
        if trace and len(passes) % 2 == 0 and time.perf_counter() - start + wall > seconds:
            return passes


def by_command(passes) -> dict[str, list]:
    """Each command's results over the passes, in run order."""
    groups: dict[str, list] = {}
    for results in passes:
        for r in results:
            groups.setdefault(r.command.cid, []).append(r)
    return groups


def command_medians(passes) -> list[float]:
    """Each command's median time over the passes.

    A slow spell of the shared host that hits one run of a command moves
    the command's median less than it moves a pass's total. Taking each
    command's median first also keeps a partial last pass from changing
    how much each command weighs.
    """
    return [statistics.median(r.seconds for r in runs) for runs in by_command(passes).values()]


def pass_seconds(passes) -> float:
    """One pass's time: the sum of the commands' median times."""
    return sum(command_medians(passes))


def end_to_end(untraced, setup: list[float]) -> dict[str, float]:
    wall = pass_seconds(untraced)
    work = sum(  # verified work units in one pass
        sum(r.good * r.command.op_work for r in runs) / len(runs) for runs in by_command(untraced).values()
    )
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cmd_p50_s": statistics.median(command_medians(untraced)),
        "peak_rss_mb": max(r.rss_mb for p in untraced for r in p),
        "work_per_s": work / wall,
    }


def cli_layer(traced, untraced_wall: float) -> dict[str, float]:
    rows = [summarize([s for r in p for s in r.spans]).get("cli.run", {}) for p in traced]
    return {
        "cli.run_s": statistics.median(row.get("total_s", 0.0) for row in rows),
        "cli.self_s": statistics.median(row.get("self_s", 0.0) for row in rows),
        "cli.emit_bytes": sum(r.emit_bytes for r in traced[0]),
        "tracing.overhead_s": pass_seconds(traced) - untraced_wall,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name to unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def command_table(untraced) -> list[str]:
    lines = [f"{'command':<34} {'runs':>4} {'median s':>9} {'max rss MB':>10}  args"]
    for cmd_results in by_command(untraced).values():
        cmd = cmd_results[0].command
        lines.append(
            f"{cmd.cid:<34} {len(cmd_results):>4} "
            f"{statistics.median(r.seconds for r in cmd_results):>9.4f} "
            f"{max(r.rss_mb for r in cmd_results):>10.1f}  {' '.join(cmd.args)}"
        )
    samples = sum(len(p) for p in untraced)
    lines.append(f"passes: {len(untraced)} untraced (the last may be partial), {samples} command samples")
    return lines


def environment(env: dict) -> list[str]:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: v for k, v in env.items() if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))}
    return [
        f"python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}",
        f"nproc {os.cpu_count()}  cpu {cpu}",
        f"commit {git_commit()}  loadavg at start {os.getloadavg()}",
        f"child thread settings {threads}",
        f"child bytecode cache: PYTHONPYCACHEPREFIX={env['PYTHONPYCACHEPREFIX']} (warmed before timing)",
        f"child outputs: EGYFRAC_OUT_DIR={env['EGYFRAC_OUT_DIR']}",
    ]


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; the checkout may have none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main())
