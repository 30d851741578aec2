"""In-memory spans for the traced benchmark run.

A span has a name, a start and an end (``time.perf_counter``, which is the
system-wide monotonic clock on Linux, so spans from child processes line up
with the parent's), the index of its parent span and a command id shared by
every span of one command. Spans stay in memory and are written once, when
the run ends. A span's self time is its duration minus the time its direct
children cover; spans nest strictly within one thread, so that is the sum of
the children's durations.

Run as a script, this module is the traced CLI child:

    python bench/spans.py SPANS_JSON PEAK_FILE COMMAND_ID -- <egyfrac arguments>

It wraps the package functions that ``egyfrac.cli`` calls, runs the CLI
in-process, writes its spans to SPANS_JSON and its peak RSS in kB (VmHWM)
to PEAK_FILE, and exits with the CLI's code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Names that egyfrac.cli imports from the other package modules, each with
# the span name it gets: the boundary between the cli layer and the rest.
CLI_CALLS = {
    "count_brute": "counting.count_brute",
    "count_mitm": "counting.count_mitm",
    "discrete_profile": "entropy.discrete_profile",
    "continuous_lambda": "entropy.continuous_lambda",
    "cx_constant": "entropy.cx_constant",
    "model_moments": "modelsim.model_moments",
    "estimate_prob_at_most": "modelsim.estimate_prob_at_most",
    "make_instance": "modular.make_instance",
    "residue_coverage": "modular.residue_coverage",
    "construct_representation": "absorption.construct_representation",
    "trace_to_dict": "absorption.trace_to_dict",
    "verify_representation": "absorption.verify_representation",
    "powersmooth_count": "exactmath.powersmooth_count",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one command id at a time."""

    def __init__(self, command: str = ""):
        self.command = command
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.command)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def extend(self, spans: list[Span]) -> None:
        """Append spans recorded elsewhere, shifting their parent indices."""
        offset = len(self.spans)
        for s in spans:
            parent = None if s.parent is None else s.parent + offset
            self.spans.append(Span(s.name, s.start, s.end, parent, s.command))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span(**item) for item in json.load(fh)]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of spans, total seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    out: dict[str, dict[str, float]] = {}
    for s, covered in zip(spans, child_time):
        row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.seconds
        row["self_s"] += s.seconds - covered
    return out


def _traced_cli(argv: list[str]) -> int:
    spans_path, peak_path, command, _separator, *cli_args = argv
    tracer = Tracer(command)
    with tracer.span("cli.import"):
        import egyfrac.cli as cli
    for attr, name in CLI_CALLS.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))
    with tracer.span("cli.run"):
        code = cli.run(cli_args)
    tracer.dump(spans_path)
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1:]))
