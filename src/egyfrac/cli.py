"""Command-line front end.

Every subcommand emits a single JSON record on stdout: the result payload
plus run metadata (command, parameters, started/finished timestamps,
version). Rationals are rendered as "p/q" strings and potentially huge
counts as decimal strings, so records survive JSON round trips losslessly.
Records and construct --trace files are written chunk by chunk by
_json_chunks, which yields the bytes of json.dumps(obj, indent=2,
sort_keys=True) with the long int lists of construct traces joined in C;
neither the whole record nor the whole trace file is held as one string.
construct encodes each trace once, as soon as its run returns, and keeps
only that text and what its summary counts need.
--format csv is available for the tabular payloads (entropy profiles,
coverage histograms); its rows are built and written one at a time, and
only in that format. A relative --out path is resolved against
EGYFRAC_OUT_DIR when that variable is set. --out and --trace paths are
checked before the command does any work, without creating or
truncating a file.

While a command runs, run() keeps OpenSSL out of the process: numpy.random
imports secrets, whose hmac and hashlib would map libcrypto (3.7 MB of
resident set) through _hashlib, and nothing here hashes anything. Unless
_hashlib is loaded already, a None entry for it in sys.modules makes that
import fail, so hashlib and hmac fall back to CPython's built-in digests;
the entry is removed when the command returns. Importing this module, and
library use of egyfrac, are unaffected.

Exit codes: 0 success, 1 domain or numeric error (a MemoryError included,
and an --out or --trace path that cannot be written), 2 usage error
(including --budget on a subcommand other than simulate and construct, the
two that honour it, or a NaN or negative budget), 3 budget exceeded
(payload flagged "truncated").
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import stat
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from importlib import import_module
from json.encoder import encode_basestring_ascii

from . import __version__
from .entropy import continuous_lambda, cx_constant, discrete_profile
from .exactmath import _frac_str, powersmooth_count, smooth_density_linear, verify_representation

# Loaded on first use, so each command loads only the modules it calls. Handlers
# call these as attributes of this module (_cli.name), which setattr may replace.
_LAZY = {
    "count_brute": "counting", "count_mitm": "counting", "count_dp": "counting",
    "CountQuery": "counting",
    "model_moments": "modelsim", "estimate_prob_at_most": "modelsim", "_check_seed": "modelsim",
    "make_instance": "modular", "residue_coverage": "modular",
    "construct_representation": "absorption", "trace_to_dict": "absorption",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f"egyfrac.{_LAZY[name]}"), name)
    return value


_cli = sys.modules[__name__]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")

__all__ = ["main", "run", "parse_rational", "validate_record"]


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with a nonzero denominator."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} (expected p or p/q)")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def _budget_seconds(text: str) -> float:
    """Parse --budget SECONDS: a float >= 0 (inf included); NaN is refused."""
    seconds = float(text)
    if not seconds >= 0:
        raise argparse.ArgumentTypeError(f"not a budget: {text!r} (expected seconds >= 0)")
    return seconds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egyfrac",
        description="count, bound, simulate and construct unit-fraction representations",
    )
    parser.add_argument("--version", action="version", version=f"egyfrac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("--out", type=str, default=None, help="write the JSON record here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if budget:
            p.add_argument(
                "--budget",
                type=_budget_seconds,
                default=None,
                help="wall-clock seconds; multi-part work stops early and is flagged truncated",
            )

    p = sub.add_parser("count", help="exact subset count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_rational, required=True)
    p.add_argument("--mode", choices=("exact", "atmost"), default="exact")
    p.add_argument("--method", choices=("auto", "brute", "mitm", "dp"), default="auto")
    common(p)

    p = sub.add_parser("entropy", help="discrete max-entropy profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_rational, required=True)
    common(p)

    p = sub.add_parser("lambda", help="continuous profile constant")
    p.add_argument("--x", type=parse_rational, required=True)
    common(p)

    p = sub.add_parser("cx", help="continuous exponent constant c_x")
    p.add_argument("--x", type=parse_rational, required=True)
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo tail probability of the model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_rational, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    common(p, budget=True)

    p = sub.add_parser("modcover", help="residue coverage by inverse subset sums")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lo", type=int, required=True, help="interval start for I")
    p.add_argument("--hi", type=int, required=True, help="interval end for I (inclusive)")
    p.add_argument("--smax", type=int, default=12)
    common(p)

    p = sub.add_parser("construct", help="build explicit representations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_rational, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1, help="consecutive seeds to run")
    p.add_argument("--trace", type=str, default=None, help="write trace JSON here")
    common(p, budget=True)

    p = sub.add_parser("sieve", help="powersmooth counting")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="check a claimed representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=parse_rational, required=True)
    p.add_argument("--set", type=str, required=True, help="comma-separated elements")
    common(p)

    return parser


def _cmd_count(args) -> dict:
    query = _cli.CountQuery(n=args.n, x=args.x, mode=args.mode)
    method = args.method
    if method == "auto":
        method = "dp" if args.mode == "exact" else "brute" if args.n <= 20 else "mitm"
    result = getattr(_cli, f"count_{method}")(query)
    return {
        "n": args.n,
        "x": _frac_str(args.x),
        "mode": args.mode,
        "method": result.method,
        "count": str(result.count),
        "elapsed": result.elapsed,
    }


def _cmd_entropy(args) -> dict:
    import numpy as np

    prof = discrete_profile(args.n, float(args.x))
    # p / m in one array; numpy would turn a range into a list of ints first
    ratio = np.arange(1, args.n + 1, dtype=np.float64)
    mean = float(np.divide(prof.p, ratio, out=ratio).sum())
    return {
        "n": args.n,
        "x": _frac_str(args.x),
        "c": prof.c,
        "H": prof.H,
        "saturated": prof.c == 0.0,
        "residual": abs(mean - float(args.x)),
        "_csv": (("m", "p"), zip(range(1, args.n + 1), map(float, prof.p))),
    }


def _cmd_lambda(args) -> dict:
    lam, residual = continuous_lambda(float(args.x), with_residual=True)
    return {"x": _frac_str(args.x), "lambda": lam, "residual": residual}


def _cmd_cx(args) -> dict:
    consts = cx_constant(float(args.x))
    return {"x": _frac_str(args.x), "lambda": consts.lam, "c_x": consts.c_x}


def _cmd_simulate(args, deadline: float | None) -> dict:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    prof = discrete_profile(args.n, float(args.x))
    moments = _cli.model_moments(prof)
    est = _cli.estimate_prob_at_most(prof, args.x, args.trials, args.seed, deadline=deadline)
    out = {
        "n": args.n,
        "x": _frac_str(args.x),
        "trials": est.trials,
        "seed": args.seed,
        "mean": moments.mean,
        "variance": moments.variance,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "exact_fallbacks": est.exact_fallbacks,
    }
    if est.trials < args.trials:
        out["truncated"] = True
    return out


def _cmd_modcover(args) -> dict:
    if args.hi < args.lo:
        raise ValueError(f"need lo <= hi, got [{args.lo}, {args.hi}]")
    instance = _cli.make_instance(args.q, range(args.lo, args.hi + 1), args.smax)
    cover = _cli.residue_coverage(instance)
    histogram: dict[int, int] = {}
    unreachable = 0
    for size in cover:
        if size is None:
            unreachable += 1
        else:
            histogram[size] = histogram.get(size, 0) + 1
    reach_sizes = [s for s in cover if s is not None]
    rows = sorted(histogram.items())
    return {
        "q": args.q,
        "lo": args.lo,
        "hi": args.hi,
        "s_max": args.smax,
        "element_count": len(instance.elements),
        "reachable": len(reach_sizes),
        "unreachable": unreachable,
        "max_min_size": max(reach_sizes) if reach_sizes else None,
        "histogram": {str(k): v for k, v in rows},
        "_csv": (("size", "residues"), rows),
    }


def _cmd_construct(args, deadline: float | None) -> dict:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    # Before any table is built; the seeds are consecutive, so the ends bound them all.
    for seed in (args.seed, args.seed + args.count - 1):
        _cli._check_seed(seed)
    encoded = []
    succeeded = 0
    element_sets = set()
    truncated = False
    for i in range(args.count):
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            break
        trace = _cli.construct_representation(
            args.n, args.x, seed=args.seed + i, deadline=deadline
        )
        # Encoded once, for the --trace file and the record alike; the trace
        # itself is dropped, keeping only what the summary counts need.
        encoded.append(_JSONText(_to_json(_cli.trace_to_dict(trace))))
        if trace.success:
            succeeded += 1
            element_sets.add(",".join(map(str, trace.elements)))
        if trace.reason and trace.reason.startswith("budget"):
            truncated = True
    if args.trace:
        _write(args.trace, _json_lines(encoded[0] if len(encoded) == 1 else encoded))
    out = {
        "n": args.n,
        "x": _frac_str(args.x),
        "seed": args.seed,
        "requested": args.count,
        "completed": len(encoded),
        "succeeded": succeeded,
        "distinct": len(element_sets),
        "traces": encoded,
    }
    if truncated:
        out["truncated"] = True
    return out


def _cmd_sieve(args) -> dict:
    count = powersmooth_count(args.n, args.t)
    u = math.log(args.t) / math.log(args.n) if args.n > 1 else None
    linear = None
    if u is not None and 0.5 < u <= 1.0:
        linear = smooth_density_linear(u)
    return {
        "n": args.n,
        "t": args.t,
        "count": str(count),
        "fraction": count / args.n,
        "u": u,
        "linear_density": linear,
    }


def _cmd_verify(args) -> dict:
    try:
        elements = [int(tok) for tok in args.set.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--set must be comma-separated integers, got {args.set!r}")
    ok = verify_representation(elements, args.n, args.x)
    return {
        "n": args.n,
        "x": _frac_str(args.x),
        "elements": sorted(elements),
        "verified": bool(ok),
    }


_REQUIRED_KEYS = {
    "count": ("n", "x", "mode", "method", "count", "elapsed"),
    "entropy": ("n", "x", "c", "H", "saturated", "residual"),
    "lambda": ("x", "lambda", "residual"),
    "cx": ("x", "lambda", "c_x"),
    "simulate": ("n", "x", "trials", "seed", "mean", "variance", "estimate", "stderr"),
    "modcover": ("q", "lo", "hi", "s_max", "reachable", "unreachable", "histogram"),
    "construct": ("n", "x", "seed", "requested", "succeeded", "traces"),
    "sieve": ("n", "t", "count", "fraction"),
    "verify": ("n", "x", "elements", "verified"),
}


def validate_record(record: dict) -> None:
    """Raise ValueError unless the record carries its command's required keys."""
    for key in ("command", "parameters", "version", "started", "finished"):
        if key not in record:
            raise ValueError(f"record is missing {key!r}")
    command = record["command"]
    if command not in _REQUIRED_KEYS:
        raise ValueError(f"unknown command {command!r}")
    for key in _REQUIRED_KEYS[command]:
        if key not in record:
            raise ValueError(f"{command} record is missing {key!r}")


class _JSONText(str):
    """JSON text that _to_json made at depth 0; _json_chunks indents it to any depth."""


def _json_chunks(obj, newline: str = "\n"):
    """Yield json.dumps(obj, indent=2, sort_keys=True) in pieces, byte for byte.

    With an indent, json drops to its pure-Python encoder. Here a non-empty
    list, tuple or str-keyed dict is laid out the same way, item by item,
    a list of plain ints (not bools) is joined in one str.join, and strings
    and ints take json's own C encoders. Anything else (bools, None, floats,
    non-finite ones included, empty containers and dicts with other keys)
    goes through json.dumps, re-indented to its depth: JSON strings never
    hold a raw newline, so every newline of that text is layout. For the
    same reason a _JSONText, encoded once at depth 0, is re-indented, not
    re-encoded, and is yielded as one piece. `newline` is a newline
    followed by the indentation of obj's depth.
    """
    kind = type(obj)
    if kind is str:
        yield encode_basestring_ascii(obj)
    elif kind is _JSONText:
        yield obj.replace("\n", newline)
    elif kind is int:
        yield int.__repr__(obj)
    elif obj and (kind is list or kind is tuple or kind is dict and all(type(k) is str for k in obj)):
        inner = newline + "  "
        if kind is dict:
            for i, (k, v) in enumerate(sorted(obj.items())):
                yield ("," if i else "{") + inner + encode_basestring_ascii(k) + ": "
                yield from _json_chunks(v, inner)
            yield newline + "}"
        elif set(map(type, obj)) == {int}:
            yield "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]"
        else:
            for i, v in enumerate(obj):
                yield ("," if i else "[") + inner
                yield from _json_chunks(v, inner)
            yield newline + "]"
    else:
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)


def _to_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte: the join of _json_chunks."""
    return "".join(_json_chunks(obj))


def _json_lines(obj):
    """A record or --trace file: obj's JSON text, then one newline."""
    yield from _json_chunks(obj)
    yield "\n"


def _csv_lines(header, rows):
    """A CSV table, one line at a time; rows is read only as lines are written."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _cannot_write(path: str, exc: OSError) -> ValueError:
    return ValueError(f"cannot write {path}: {exc.strerror or exc}")


def _write(path: str, chunks) -> None:
    """Write text chunks to path; a path that cannot be written raises ValueError naming it."""
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _check_writable(path: str) -> None:
    """Raise _write's ValueError now if open(path, "w") is bound to fail.

    Nothing is created or truncated: an existing path must be a file this
    process may write, and a new one needs a directory it may write into.
    """
    def refuse(code: int) -> OSError:
        return OSError(code, os.strerror(code))

    try:
        if os.path.isdir(path):
            raise refuse(errno.EISDIR)
        if os.path.exists(path):
            if not os.access(path, os.W_OK):
                raise refuse(errno.EACCES)
            return
        parent = os.path.dirname(path) or "."
        # os.stat raises for a parent that is missing or under a file
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise refuse(errno.ENOTDIR)
        if not os.access(parent, os.W_OK | os.X_OK):
            raise refuse(errno.EACCES)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _out_path(args) -> str | None:
    """--out, a relative path taken against EGYFRAC_OUT_DIR when that is set."""
    path = getattr(args, "out", None)
    base = os.environ.get("EGYFRAC_OUT_DIR")
    if path and base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return path


def _emit(record: dict, args, csv) -> None:
    if getattr(args, "format", "json") == "csv":
        if csv is None:
            raise ValueError(f"--format csv is not available for {record['command']}")
        chunks = _csv_lines(*csv)
    else:
        chunks = _json_lines(record)
    path = _out_path(args)
    if path:
        _write(path, chunks)
    else:
        sys.stdout.writelines(chunks)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started = datetime.now(timezone.utc).isoformat()
    budget = getattr(args, "budget", None)
    deadline = time.monotonic() + budget if budget is not None else None
    handlers = {
        "count": lambda: _cmd_count(args),
        "entropy": lambda: _cmd_entropy(args),
        "lambda": lambda: _cmd_lambda(args),
        "cx": lambda: _cmd_cx(args),
        "simulate": lambda: _cmd_simulate(args, deadline),
        "modcover": lambda: _cmd_modcover(args),
        "construct": lambda: _cmd_construct(args, deadline),
        "sieve": lambda: _cmd_sieve(args),
        "verify": lambda: _cmd_verify(args),
    }
    # No libcrypto for numpy.random's secrets import (see the module docstring).
    block_openssl = "_hashlib" not in sys.modules
    if block_openssl:
        sys.modules["_hashlib"] = None
    try:
        for path in (_out_path(args), getattr(args, "trace", None)):
            if path:
                _check_writable(path)
        payload = handlers[args.command]()
    except (ValueError, ZeroDivisionError, OverflowError, RuntimeError, MemoryError) as exc:
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 1
    finally:
        if block_openssl:
            sys.modules.pop("_hashlib", None)

    csv = payload.pop("_csv", None)
    parameters = {
        k: (_frac_str(v) if isinstance(v, Fraction) else v)
        for k, v in vars(args).items()
        if k not in ("command", "out", "format", "budget") and v is not None
    }
    record = {
        "command": args.command,
        "parameters": parameters,
        "version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        **payload,
    }
    try:
        _emit(record, args, csv)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 3 if payload.get("truncated") else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
