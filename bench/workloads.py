"""The benchmark's workloads: which egyfrac CLI commands each one runs, how
one command is run as a child process, and the check its output must pass.

Each check returns how many of the command's operations it verified and a
list of problems. A command is one operation, except ``construct``, where
each requested representation is one.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

from egyfrac.absorption import replay_trace, verify_representation
from egyfrac.cli import validate_record

import spans

BENCH_DIR = Path(__file__).resolve().parent

# Independently derived values the outputs are checked against.
COUNTS = {(6, "exact"): 2, (40, "exact"): 1655, (40, "atmost"): 28926586886, (42, "exact"): 3054}
C1, C1_TOL = 0.91117, 5e-6
SIEVE = (10**6, 1000, 334421)  # n, t, count of t-powersmooth m <= n (checked by trial division)
# Pr[Z <= 1] per n from one long run at seed 987654321: (estimate, stderr).
SIM_REF = {1000: (0.508085, 0.00111789), 10000: (0.50057, 0.00158114), 100000: (0.5043, 0.00353540)}
SIM_Z = 5.0  # allowed distance from the reference, in combined standard errors

# simulate: n and trial count, sized so each n takes a similar share of the time.
MC_CASES = ((1000, 30000), (10000, 10000), (100000, 800))
# construct: n, x, first seed, --count. The seeds are fixed (see README.md).
# The counts put most commands of the exact workload near 2-2.5 s, so the
# median command time falls inside a cluster of commands, not between two.
CONSTRUCT_CASES = ((5000, "1/1", 1, 20), (20000, "1/1", 1, 3), (5000, "3/4", 1, 10))
WORKLOADS = ("exact", "mc_tail", "cli_short")

# Record fields that may differ between two same-seed runs (docs/schemas.md).
_TIMESTAMP_LINE = re.compile(rb'^\s*"(started|finished|elapsed)": .*$\n?', re.MULTILINE)

Check = Callable[[bytes, "bytes | None"], "tuple[int, list[str]]"]

# The untraced child: runs the CLI, then writes its own peak RSS to the file
# named by its first argument (see Context.run).
CHILD = """\
import sys
from egyfrac.cli import run
peak_path = sys.argv.pop(1)
code = run()
with open("/proc/self/status") as status, open(peak_path, "w") as out:
    out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@dataclass(frozen=True)
class Command:
    cid: str
    args: tuple[str, ...]
    check: Check
    ops: int = 1
    op_work: int = 1  # work units per verified operation (trials for simulate)
    trace: bool = False  # writes a construct --trace file

    @property
    def out_name(self) -> str:
        return self.cid + (".csv" if "csv" in self.args else ".json")


@dataclass
class Result:
    command: Command
    code: int
    seconds: float
    rss_mb: float
    out: bytes | None
    trace: bytes | None
    spans: list = field(default_factory=list)
    good: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def emit_bytes(self) -> int:
        return len(self.out or b"") + len(self.trace or b"")


@dataclass(frozen=True)
class Context:
    """Where children run and what environment they get."""

    root: Path
    out_dir: Path
    env: dict

    def run(self, cmd: Command, traced: bool = False, command_id: str = "") -> Result:
        """Run one CLI command as a child process; time it and read its outputs.

        The child reports its own peak RSS (VmHWM). The ``ru_maxrss`` that
        ``os.wait4`` returns is only the fallback: on Linux it also holds the
        peak RSS of the address space that ``exec`` replaced, which is this
        benchmark process's own.
        """
        out_path = self.out_dir / cmd.out_name
        trace_path = self.out_dir / (cmd.cid + ".trace.json")
        spans_path = self.out_dir / (cmd.cid + ".spans.json")
        peak_path = self.out_dir / (cmd.cid + ".peak_kb")
        for path in (out_path, trace_path, spans_path, peak_path):
            path.unlink(missing_ok=True)
        args = list(cmd.args) + ["--out", cmd.out_name]
        if cmd.trace:
            args += ["--trace", str(trace_path)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path), str(peak_path),
                    command_id, "--"]
        else:
            argv = [sys.executable, "-c", CHILD, str(peak_path)]
        with open(self.out_dir / (cmd.cid + ".stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv + args, cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(
            command=cmd,
            code=proc.returncode,
            seconds=seconds,
            rss_mb=int(peak_path.read_text() if peak_path.exists() else usage.ru_maxrss) / 1024.0,
            out=out_path.read_bytes() if out_path.exists() else None,
            trace=trace_path.read_bytes() if trace_path.exists() else None,
            spans=spans.load(str(spans_path)) if traced and spans_path.exists() else [],
        )
        if result.code != 0 or result.out is None:
            result.problems.append(f"{cmd.cid}: exit code {result.code}")
            return result
        try:
            result.good, problems = cmd.check(result.out, result.trace)
        except (ValueError, KeyError, TypeError) as exc:
            result.good, problems = 0, [f"malformed output: {exc!r}"]
        result.problems += [f"{cmd.cid}: {p}" for p in problems]
        return result


def same_record(a: Result, b: Result) -> bool:
    """True when two runs emitted identical bytes apart from timestamps."""
    return _TIMESTAMP_LINE.sub(b"", a.out or b"") == _TIMESTAMP_LINE.sub(b"", b.out or b"") and (
        a.trace == b.trace
    )


def rerun_problems(passes) -> list[str]:
    """Every pass after the first reruns the same commands with the same seeds."""
    first = passes[0][1]
    return [
        f"{b.command.cid}: pass {i} output differs from pass 0 beyond timestamps"
        for i, (_, later) in enumerate(passes[1:], 1)
        for a, b in zip(first, later)
        if a.code == b.code == 0 and not same_record(a, b)
    ]


def derived_seeds(seed: int, count: int) -> list[int]:
    """Sub-seeds for the seeded commands, drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**32) for _ in range(count)]


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands for this workload seed, in run order.

    Only ``mc_tail`` depends on the seed; the other workloads run the same
    inputs at every seed.
    """
    if workload == "exact":
        return count_commands() + [construct_command(*case) for case in CONSTRUCT_CASES]
    if workload == "mc_tail":
        return [
            Command(
                f"simulate_n{n}",
                ("simulate", "--n", str(n), "--x", "1/1", "--trials", str(trials), "--seed", str(s)),
                _check_simulate(n, trials, s),
                op_work=trials,
            )
            for (n, trials), s in zip(MC_CASES, derived_seeds(seed, len(MC_CASES)))
        ]
    if workload == "cli_short":
        n, t, _ = SIEVE
        return [
            _count(6, "exact"),
            Command("cx", ("cx", "--x", "1/1"), _check_cx),
            Command("lambda", ("lambda", "--x", "1/1"), _check_lambda),
            Command("entropy_n1000", ("entropy", "--n", "1000", "--x", "1/1"), _check_entropy),
            Command(
                "entropy_n1000_csv",
                ("entropy", "--n", "1000", "--x", "1/1", "--format", "csv"),
                _check_entropy_csv,
            ),
            _modcover(101, 11, 21, 6),
            _modcover(100003, 317, 634, 12),
            Command("sieve", ("sieve", "--n", str(n), "--t", str(t)), _check_sieve),
            Command("verify", ("verify", "--n", "6", "--x", "1/1", "--set", "2,3,6"), _check_verify),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def count_commands() -> list[Command]:
    return [_count(40, "exact"), _count(40, "atmost"), _count(42, "exact")]


def construct_command(n: int, x: str, seed: int, count: int) -> Command:
    cid = f"construct_n{n}_x{x.replace('/', '_')}_s{seed}_k{count}"
    args = ("construct", "--n", str(n), "--x", x, "--seed", str(seed), "--count", str(count))
    return Command(cid, args, _check_construct(n, Fraction(x), count), ops=count, trace=True)


def _record(out: bytes, command: str) -> dict:
    record = json.loads(out)
    validate_record(record)
    if record["command"] != command:
        raise ValueError(f"expected a {command} record, got {record['command']!r}")
    return record


def _verdict(ok: bool, problem: str) -> tuple[int, list[str]]:
    return (1, []) if ok else (0, [problem])


def _count(n: int, mode: str) -> Command:
    expected = COUNTS[(n, mode)]

    def check(out, _trace):
        got = _record(out, "count")["count"]
        return _verdict(got == str(expected), f"count {got} != {expected}")

    args = ("count", "--n", str(n), "--x", "1/1", "--mode", mode)
    return Command(f"count_n{n}_{mode}", args, check)


def _check_simulate(n: int, trials: int, seed: int) -> Check:
    ref, ref_err = SIM_REF[n]

    def check(out, _trace):
        rec = _record(out, "simulate")
        if rec["trials"] != trials or rec.get("truncated") or rec["seed"] != seed:
            return 0, [f"ran {rec['trials']} of {trials} trials at seed {rec['seed']}"]
        limit = SIM_Z * math.hypot(rec["stderr"], ref_err)
        dist = abs(rec["estimate"] - ref)
        return _verdict(dist <= limit, f"estimate {rec['estimate']} is {dist:.4g} from {ref} > {limit:.4g}")

    return check


def _check_construct(n: int, x: Fraction, count: int) -> Check:
    def check(out, trace):
        rec = _record(out, "construct")
        traces = rec["traces"]
        if rec["requested"] != count or len(traces) != count:
            return 0, [f"{len(traces)} traces for {count} requested"]
        if trace is None or json.loads(trace) != (traces[0] if count == 1 else traces):
            return 0, ["--trace file differs from the record's traces"]
        good, problems = 0, []
        for i, item in enumerate(traces):
            if item["verified"] and replay_trace(item) and verify_representation(item["A"], n, x):
                good += 1
            else:
                problems.append(f"representation {i} is not verified")
        return good, problems

    return check


def _check_cx(out, _trace):
    c_x = _record(out, "cx")["c_x"]
    return _verdict(abs(c_x - C1) <= C1_TOL, f"c_x {c_x} is not within {C1_TOL} of {C1}")


def _check_lambda(out, _trace):
    rec = _record(out, "lambda")
    return _verdict(rec["lambda"] > 0 and rec["residual"] <= 1e-12, f"lambda residual {rec['residual']}")


def _check_entropy(out, _trace):
    rec = _record(out, "entropy")
    ok = rec["residual"] <= 1e-9 and not rec["saturated"] and 0 < rec["H"] < rec["n"]
    return _verdict(ok, f"entropy H={rec['H']} residual={rec['residual']}")


def _check_entropy_csv(out, _trace):
    lines = out.decode().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ms = [int(m) for m, _ in rows]
    ps = [float(p) for _, p in rows]
    mass = math.fsum(p / m for m, p in zip(ms, ps))
    ok = lines[0] == "m,p" and ms == list(range(1, 1001)) and all(0 <= p <= 1 for p in ps)
    return _verdict(ok and abs(mass - 1) <= 1e-9, f"profile rows or mass {mass} wrong")


def _modcover(q: int, lo: int, hi: int, s_max: int) -> Command:
    def check(out, _trace):
        rec = _record(out, "modcover")
        hist = {int(k): v for k, v in rec["histogram"].items()}
        ok = (
            rec["reachable"] + rec["unreachable"] == q
            and sum(hist.values()) == rec["reachable"]
            and rec["element_count"] == hi - lo + 1
        )
        if q <= 1000:  # small enough to enumerate every subset
            ok = ok and hist == _min_size_histogram(q, range(lo, hi + 1), s_max)
        else:  # coverage holds for I = [ceil(sqrt q), 2 ceil(sqrt q)] (acceptance 08)
            ok = ok and rec["reachable"] == q and rec["max_min_size"] <= s_max
        return _verdict(ok, f"coverage histogram {hist} is wrong")

    args = ("modcover", "--q", str(q), "--lo", str(lo), "--hi", str(hi), "--smax", str(s_max))
    return Command(f"modcover_q{q}", args, check)


def _min_size_histogram(q: int, elements, s_max: int) -> dict[int, int]:
    inverses = [pow(e, -1, q) for e in elements]
    size: dict[int, int] = {}
    for k in range(s_max + 1):
        for subset in combinations(inverses, k):
            size.setdefault(sum(subset) % q, k)
    hist: dict[int, int] = {}
    for k in size.values():
        hist[k] = hist.get(k, 0) + 1
    return hist


def _check_sieve(out, _trace):
    n, _, expected = SIEVE
    rec = _record(out, "sieve")
    ok = rec["count"] == str(expected) and rec["fraction"] == expected / n
    return _verdict(ok, f"powersmooth count {rec['count']} != {expected}")


def _check_verify(out, _trace):
    rec = _record(out, "verify")
    return _verdict(rec["verified"] is True and rec["elements"] == [2, 3, 6], "2,3,6 not verified")
