"""Forked workers that share the trials of one Monte Carlo estimate.

`modelsim.estimate_prob_at_most` imports this module at its first call, so
commands that never estimate do not load it. A run of at least _FORK_DRAWS
draws is shared between two workers when the process's affinity mask holds
two CPUs or more: the calling process and one os.fork-ed helper
(_MAX_WORKERS, the count that was measured). Trials are cut into
contiguous chunks of about 2**16 draws, dealt round-robin; the helper sends
back one outcome byte per trial through a pipe, and the caller hands the
outcomes on in trial order. The caller alone reads the clock, between
outcomes, so a deadline cuts the run to a prefix of trials. No helper is
forked for a shorter run, where os.fork or os.sched_getaffinity is
missing, where a second thread is running, or when the pipe or fork fails;
the caller then draws every chunk itself.
"""

from __future__ import annotations

import os
import threading
from itertools import islice
from typing import BinaryIO, Callable, Iterator, NoReturn

import numpy as np

from .entropy import EntropyProfile
from .modelsim import _inclusion_masks

# A chunk, the unit of trials dealt to one worker, holds about this many
# uniform draws: max(1, _CHUNK_DRAWS // n) trials.
_CHUNK_DRAWS = 2**16

# Workers, the caller included, that one run may use. Two were measured on
# a 2-core VM (~1.85x the draws a second); more never were, and where a CPU
# quota is below the affinity mask further helpers would share that quota.
_MAX_WORKERS = 2

# A run of fewer uniform draws (trials * n) stays in the caller. On the same
# VM a second worker was slower than one, or barely faster, up to 2**21
# draws (the fork, its copy-on-write faults and the reap cost ~4-10 ms) and
# 19-43 % faster from 2**22 draws on, at every n from 100 to 1e5.
_FORK_DRAWS = 2**22

# signal.SIGKILL, fixed by POSIX; the signal module's enums would add ~80 kB
# to the peak RSS of every simulate run.
_SIGKILL = 9


def _worker_count(draws: int, chunks: int) -> int:
    """Workers, the caller included, for a run of `draws` uniform draws in `chunks` chunks.

    A run under _FORK_DRAWS draws stays in the caller, and so does every run
    where a fork would be unsafe: it needs os.fork, and a process with a
    second thread is not forked, since the child would hold only the
    forking thread and any lock another thread held at the fork stays
    locked in it. Otherwise the CPUs in the affinity mask, at most
    _MAX_WORKERS and one a chunk.
    """
    if draws < _FORK_DRAWS:
        return 1
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WORKERS, chunks)


def _serve(pipe: BinaryIO, inherited: list[BinaryIO], chunks: Iterator[bytes]) -> NoReturn:
    """A helper's whole life: write and flush each chunk's outcome bytes to pipe, then _exit.

    The helper closes the read ends it inherited, so a pipe whose caller is
    gone breaks on the next write and the helper leaves with status 1, as
    it does on an interrupt. Any other error is printed to fd 2. It never
    returns into the caller's code: os._exit skips atexit handlers and
    flushes no stdio buffer copied from the caller.
    """
    try:
        for read_end in inherited:
            read_end.close()
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


def trial_outcomes(
    profile: EntropyProfile, seed: int, trials: int, judge: Callable[[np.ndarray], int]
) -> Iterator[int]:
    """judge(mask) for trials 0..trials-1 in order, shared among forked workers.

    The chunks go round-robin to _worker_count(trials * n, chunks) workers.
    The caller is worker 0 and draws its own chunks lazily, one trial per
    next(); every worker keeps one Philox and one mask buffer for all its
    chunks. Helpers are forked at the first next(); if a pipe or fork
    fails, the helpers already forked are stopped and the caller draws
    every chunk. Closing the generator closes the pipes, kills any helper
    still running and reaps every one. A helper that ends before writing
    its chunk raises RuntimeError with its exit status.
    """
    size = max(1, _CHUNK_DRAWS // profile.n)
    n_chunks = -(-trials // size)
    workers = _worker_count(trials * profile.n, n_chunks)

    def chunk(c: int) -> range:
        return range(c * size, min(c * size + size, trials))

    def outcomes(w: int) -> Iterator[int]:
        mine = (t for c in range(w, n_chunks, workers) for t in chunk(c))
        return map(judge, _inclusion_masks(profile, seed, mine))

    def chunk_bytes(w: int) -> Iterator[bytes]:
        # A generator, so a helper computes nothing before _serve's try.
        mine = outcomes(w)
        for c in range(w, n_chunks, workers):
            yield bytes(islice(mine, len(chunk(c))))

    pids: list[int] = []
    pipes: list[BinaryIO] = []

    def stop_helpers() -> None:
        while pipes:
            pipes.pop().close()
        for pid in filter(None, pids):
            os.kill(pid, _SIGKILL)
            os.wait4(pid, 0)
        pids.clear()

    try:
        try:
            for w in range(1, workers):
                fd, wfd = os.pipe()
                pipes.append(os.fdopen(fd, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(os.fdopen(wfd, "wb"), pipes, chunk_bytes(w))
                    pids.append(pid)
                finally:
                    os.close(wfd)
        except OSError:
            # Helpers only speed a run up (a fork fails with EAGAIN at a
            # process limit): without them the caller draws every chunk.
            stop_helpers()
            workers = 1
        own = outcomes(0)
        for c in range(n_chunks):
            w = c % workers
            want = len(chunk(c))
            if w == 0:
                yield from islice(own, want)
                continue
            data = pipes[w - 1].read(want)
            if len(data) < want:
                pid, pids[w - 1] = pids[w - 1], 0
                status = os.waitstatus_to_exitcode(os.wait4(pid, 0)[1])
                raise RuntimeError(
                    f"simulate helper {pid} stopped after {len(data)} of {want} "
                    f"outcomes of trials {chunk(c).start}..{chunk(c).stop - 1} "
                    f"(exit status {status})"
                )
            yield from data
    finally:
        stop_helpers()
