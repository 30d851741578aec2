"""Command-line surface tests.

run() is exercised in-process: stdout is captured per invocation, parsed
back as JSON and re-validated, so every test doubles as a round-trip check
of the record schema. Exit codes: 0 ok, 1 domain error, 2 usage, 3 budget.
"""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from argparse import ArgumentTypeError

import egyfrac
from egyfrac.absorption import construct_representation, replay_trace, trace_to_dict
from egyfrac.cli import _json_lines, _to_json, parse_rational, run, validate_record
from egyfrac.counting import count_brute
from egyfrac.entropy import discrete_profile
from egyfrac.modelsim import estimate_prob_at_most
from egyfrac.modular import make_instance, residue_coverage

TIMESTAMP_KEYS = ("started", "finished", "elapsed")


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert code == 0, err
    record = json.loads(out)
    validate_record(record)
    return record


def strip_timestamps(record):
    return {k: v for k, v in record.items() if k not in TIMESTAMP_KEYS}


def test_parse_rational():
    assert parse_rational("1/1") == Fraction(1)
    assert parse_rational("25/12") == Fraction(25, 12)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational(" 7 ") == Fraction(7)
    with pytest.raises(ArgumentTypeError):
        parse_rational("3/0")
    with pytest.raises(ArgumentTypeError):
        parse_rational("x/2")
    with pytest.raises(ArgumentTypeError):
        parse_rational("1.5")


def test_count_record(capsys):
    record = record_of(capsys, ["count", "--n", "6", "--x", "1/1", "--mode", "exact"])
    assert record["count"] == "2"
    assert record["method"] == "dp"
    assert record["mode"] == "exact"
    assert record["parameters"]["n"] == 6
    assert record["version"]
    assert record["started"] <= record["finished"]


def test_count_methods_agree(capsys):
    auto = record_of(capsys, ["count", "--n", "14", "--x", "1/2", "--mode", "atmost"])
    mitm = record_of(
        capsys,
        ["count", "--n", "14", "--x", "1/2", "--mode", "atmost", "--method", "mitm"],
    )
    assert auto["count"] == mitm["count"]
    assert auto["method"] == "brute"
    assert mitm["method"] == "mitm"


def test_count_auto_takes_dp_for_exact_counts(capsys):
    # n = 60 is past MITM_CAP, so meet in the middle would refuse it
    record = record_of(capsys, ["count", "--n", "60", "--x", "1/1"])
    assert record["method"] == "dp"
    assert record["count"] == "176018"
    argv = ["count", "--n", "42", "--x", "1/1"]
    auto = record_of(capsys, argv)
    mitm = record_of(capsys, argv + ["--method", "mitm"])
    assert (auto["method"], mitm["method"]) == ("dp", "mitm")
    assert auto["count"] == mitm["count"] == "3054"
    atmost = record_of(capsys, ["count", "--n", "22", "--x", "1/1", "--mode", "atmost"])
    assert atmost["method"] == "mitm"


def test_count_dp_refuses_mode_atmost(capsys):
    argv = ["count", "--n", "30", "--x", "1/1", "--mode", "atmost", "--method", "dp"]
    code, out, err = invoke(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: count_dp counts mode 'exact' only")
    assert err.count("\n") == 1


def test_verify_record(capsys):
    record = record_of(capsys, ["verify", "--n", "6", "--x", "1/1", "--set", "2,3,6"])
    assert record["verified"] is True
    assert record["elements"] == [2, 3, 6]
    record = record_of(capsys, ["verify", "--n", "6", "--x", "1/1", "--set", "2,3"])
    assert record["verified"] is False


def test_lambda_and_cx_records(capsys):
    lam = record_of(capsys, ["lambda", "--x", "1/1"])
    assert lam["lambda"] == pytest.approx(0.1271909151247070, abs=1e-9)
    assert lam["residual"] < 1e-8
    cx = record_of(capsys, ["cx", "--x", "1/1"])
    assert cx["c_x"] == pytest.approx(0.91117, abs=1e-4)
    assert cx["lambda"] == pytest.approx(lam["lambda"], abs=1e-12)


def test_entropy_record_and_csv(capsys):
    record = record_of(capsys, ["entropy", "--n", "40", "--x", "1/1"])
    assert record["saturated"] is False
    assert 0 < record["H"] < 40
    assert record["residual"] < 1e-9
    code, out, _ = invoke(capsys, ["entropy", "--n", "40", "--x", "1/1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,p"
    assert len(lines) == 41
    saturated = record_of(capsys, ["entropy", "--n", "5", "--x", "9/1"])
    assert saturated["saturated"] is True
    assert saturated["c"] == 0.0


def test_entropy_json_record_builds_no_csv_row(capsys, monkeypatch):
    # indexing and iterating a subclass both read its entries through __getitem__
    import numpy as np

    reads = []

    class CountedArray(np.ndarray):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    def profile(n, x):
        prof = discrete_profile(n, x)
        return replace(prof, p=prof.p.view(CountedArray))

    monkeypatch.setattr(egyfrac.cli, "discrete_profile", profile)
    argv = ["entropy", "--n", "40", "--x", "1/1"]
    assert record_of(capsys, argv)["residual"] < 1e-9
    assert reads == []
    code, out, _ = invoke(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 41
    assert len(reads) == 40


def test_simulate_record_is_deterministic(capsys):
    argv = ["simulate", "--n", "500", "--x", "1/1", "--trials", "800", "--seed", "42"]
    first = record_of(capsys, argv)
    second = record_of(capsys, argv)
    assert strip_timestamps(first) == strip_timestamps(second)
    assert first["trials"] == 800
    assert 0.0 <= first["estimate"] <= 1.0
    assert first["stderr"] > 0.0


def test_modcover_record_matches_library(capsys):
    record = record_of(
        capsys,
        ["modcover", "--q", "13", "--lo", "2", "--hi", "10", "--smax", "3"],
    )
    cover = residue_coverage(make_instance(13, range(2, 11), 3))
    assert record["reachable"] == sum(1 for c in cover if c is not None)
    assert record["unreachable"] == sum(1 for c in cover if c is None)
    assert record["max_min_size"] == max(c for c in cover if c is not None)
    code, out, _ = invoke(
        capsys,
        ["modcover", "--q", "13", "--lo", "2", "--hi", "10", "--smax", "3", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[0] == "size,residues"


def test_sieve_record(capsys):
    record = record_of(capsys, ["sieve", "--n", "100", "--t", "10"])
    assert record["count"] == "31"
    assert record["fraction"] == pytest.approx(0.31)
    assert record["u"] == pytest.approx(0.5)
    assert record["linear_density"] is None
    record = record_of(capsys, ["sieve", "--n", "100", "--t", "50"])
    assert record["linear_density"] is not None


def test_construct_record_and_trace_file(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    record = record_of(
        capsys,
        [
            "construct",
            "--n",
            "400",
            "--x",
            "1/1",
            "--seed",
            "1",
            "--count",
            "2",
            "--trace",
            str(trace_path),
        ],
    )
    assert record["requested"] == 2
    assert record["completed"] == 2
    assert record["succeeded"] == 2
    assert record["distinct"] == 2
    stored = json.loads(trace_path.read_text())
    assert isinstance(stored, list) and len(stored) == 2
    assert all(replay_trace(t) for t in stored)
    assert [t for t in record["traces"]] == stored


def test_out_file_and_env_dir(capsys, tmp_path, monkeypatch):
    out_path = tmp_path / "record.json"
    code, out, _ = invoke(
        capsys, ["count", "--n", "5", "--x", "1/2", "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""
    validate_record(json.loads(out_path.read_text()))

    monkeypatch.setenv("EGYFRAC_OUT_DIR", str(tmp_path))
    code, _, _ = invoke(capsys, ["count", "--n", "5", "--x", "1/2", "--out", "rel.json"])
    assert code == 0
    validate_record(json.loads((tmp_path / "rel.json").read_text()))


def test_unwritable_out_or_trace_exits_1_naming_the_path(capsys, tmp_path):
    missing = tmp_path / "no-such-dir"
    cases = [
        (["verify", "--n", "6", "--x", "1/1", "--set", "2,3,6", "--out"], missing / "r.json"),
        (["construct", "--n", "400", "--x", "1/1", "--trace"], missing / "t.json"),
    ]
    for argv, path in cases:
        code, out, err = invoke(capsys, argv + [str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err
    assert not missing.exists()


def test_usage_errors_exit_2(capsys):
    assert invoke(capsys, ["no-such-command"])[0] == 2
    assert invoke(capsys, ["count", "--n", "6"])[0] == 2  # missing --x
    assert invoke(capsys, ["count", "--n", "6", "--x", "3/0"])[0] == 2
    assert invoke(capsys, [])[0] == 2


def test_domain_errors_exit_1(capsys):
    code, _, err = invoke(capsys, ["count", "--n", "0", "--x", "1/1"])
    assert code == 1
    assert "error:" in err
    code, _, err = invoke(capsys, ["verify", "--n", "6", "--x", "1/1", "--set", "2,x"])
    assert code == 1
    code, _, err = invoke(capsys, ["count", "--n", "6", "--x", "1/1", "--format", "csv"])
    assert code == 1
    code, _, err = invoke(capsys, ["simulate", "--n", "50", "--x", "1/1", "--trials", "0"])
    assert code == 1


def test_budget_truncation_exit_3(capsys):
    code, out, _ = invoke(
        capsys,
        ["construct", "--n", "400", "--x", "1/1", "--count", "5", "--budget", "0"],
    )
    assert code == 3
    record = json.loads(out)
    assert record["truncated"] is True
    assert record["completed"] == 0
    # an expired budget before any simulation trial is a plain domain error
    code, _, _ = invoke(
        capsys, ["simulate", "--n", "100", "--x", "1/1", "--trials", "10", "--budget", "0"]
    )
    assert code == 1


@pytest.mark.parametrize("budget", ["nan", "-1"])
@pytest.mark.parametrize("command", ["simulate", "construct"])
def test_budget_must_be_a_number_of_seconds(capsys, command, budget):
    # float() takes both, yet a NaN deadline never passes and -1 is spent at once
    argv = {
        "simulate": ["--n", "100", "--x", "1/1", "--trials", "10"],
        "construct": ["--n", "400", "--x", "1/1"],
    }
    code, out, err = invoke(capsys, [command] + argv[command] + ["--budget", budget])
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_memory_error_exits_1_with_one_error_line(capsys, monkeypatch):
    # numpy's failed allocations raise a MemoryError subclass
    def powersmooth_count(n, t):
        raise MemoryError()

    monkeypatch.setattr(egyfrac.cli, "powersmooth_count", powersmooth_count)
    code, out, err = invoke(capsys, ["sieve", "--n", "100", "--t", "10"])
    assert code == 1
    assert out == ""
    assert err == "error: MemoryError\n"


_SUBCOMMAND_ARGV = {
    "count": ["--n", "6", "--x", "1/1"],
    "entropy": ["--n", "50", "--x", "1/1"],
    "lambda": ["--x", "1/1"],
    "cx": ["--x", "1/1"],
    "simulate": ["--n", "50", "--x", "1/1", "--trials", "20"],
    "modcover": ["--q", "13", "--lo", "2", "--hi", "10", "--smax", "3"],
    "construct": ["--n", "120", "--x", "1/1"],
    "sieve": ["--n", "100", "--t", "10"],
    "verify": ["--n", "6", "--x", "1/1", "--set", "2,3,6"],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGV))
def test_budget_only_where_honoured(capsys, command):
    argv = [command] + _SUBCOMMAND_ARGV[command]
    code, out, err = invoke(capsys, argv + ["--budget", "60"])
    if command in ("simulate", "construct"):
        assert code == 0, err
        assert "truncated" not in json.loads(out)
    else:
        # the other subcommands would ignore a budget, so they reject it
        assert code == 2
        assert out == ""
        assert "--budget" in err


def test_validate_record_requires_command_keys():
    with pytest.raises(ValueError):
        validate_record({"command": "count"})
    with pytest.raises(ValueError):
        validate_record(
            {
                "command": "mystery",
                "parameters": {},
                "version": "1",
                "started": "a",
                "finished": "b",
            }
        )


def test_version_flag_exits_zero(capsys):
    assert invoke(capsys, ["--version"])[0] == 0


def test_parameters_render_rationals_as_p_over_q(capsys):
    record = record_of(capsys, ["cx", "--x", "1"])
    assert record["parameters"]["x"] == "1/1"
    record = record_of(capsys, ["count", "--n", "6", "--x", "2/4"])
    assert record["parameters"]["x"] == "1/2"


def run_python(code, *argv):
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv",
    [["cx", "--x", "1/1"], ["lambda", "--x", "1/1"], ["entropy", "--n", "1000", "--x", "1/1"]],
)
def test_commands_run_without_scipy(argv):
    # a None entry in sys.modules makes any later "import scipy" fail
    blocked = 'import sys; sys.modules["scipy"] = None; from egyfrac.cli import main; main()'
    proc = run_python(blocked, *argv)
    assert proc.returncode == 0, proc.stderr
    validate_record(json.loads(proc.stdout))


def test_cli_import_loads_no_scipy():
    probe = "import sys, egyfrac.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_sieve_peak_memory_stays_within_64_mib():
    # the max-prime-power pass holds O(isqrt(n)) integers a segment; a
    # whole-range table at n = 1e7 peaked near 119 MiB
    code = (
        "import sys\n"
        "from egyfrac.cli import run\n"
        "code = run()\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line for line in status if line.startswith('VmHWM:')), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = run_python(code, "sieve", "--n", "10000000", "--t", "3000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == "3261198"
    peak_kib = int(proc.stderr.split()[-2])
    assert peak_kib < 64 * 1024, peak_kib


def test_cli_import_loads_no_numpy():
    # layers.py reads the importtime lines of egyfrac.entropy and
    # egyfrac.exactmath, so a fresh import must still load both
    probe = (
        "import sys, egyfrac.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'egyfrac')))"
    )
    proc = run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == str(
        ["egyfrac", "egyfrac.cli", "egyfrac.entropy", "egyfrac.exactmath"]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "6", "--x", "1/1", "--set", "2,3,6"],
        ["modcover", "--q", "101", "--lo", "11", "--hi", "21", "--smax", "6"],
        ["count", "--n", "6", "--x", "1/1"],
        ["count", "--n", "42", "--x", "1/1"],
    ],
)
def test_commands_run_without_numpy(capsys, argv):
    blocked = 'import sys; sys.modules["numpy"] = None; from egyfrac.cli import main; main()'
    proc = run_python(blocked, *argv)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    here = record_of(capsys, argv)
    for record in (child, here):
        for key in TIMESTAMP_KEYS:
            record.pop(key, None)
    assert child == here


def test_construct_does_not_load_numpy_ma():
    probe = (
        "import sys; from egyfrac.cli import run; "
        "code = run(['construct', '--n', '400', '--x', '1/1', '--seed', '1', '--out', sys.argv[1]]); "
        "print(code, 'numpy.ma' in sys.modules, 'numpy' in sys.modules)"
    )
    proc = run_python(probe, os.devnull)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "True"]


def test_handlers_call_the_cli_module_attributes(capsys, monkeypatch):
    calls = []

    def recorder(query):
        calls.append(query)
        return count_brute(query)

    monkeypatch.setattr(egyfrac.cli, "count_brute", recorder)
    record = record_of(capsys, ["count", "--n", "6", "--x", "1/1", "--method", "brute"])
    assert record["count"] == "2"
    assert [(q.n, q.x, q.mode) for q in calls] == [(6, Fraction(1), "exact")]


def test_simulate_record_matches_library(capsys):
    # 2500 is not a multiple of any batch size the estimator might use
    record = record_of(
        capsys, ["simulate", "--n", "300", "--x", "1/1", "--trials", "2500", "--seed", "5"]
    )
    est = estimate_prob_at_most(discrete_profile(300, 1.0), Fraction(1), 2500, 5)
    assert record["trials"] == 2500
    assert "truncated" not in record
    assert record["estimate"] == est.estimate
    assert record["stderr"] == est.stderr
    assert record["exact_fallbacks"] == est.exact_fallbacks


def test_simulate_budget_is_checked_before_every_trial(capsys, monkeypatch):
    # each clock read advances one second: the CLI reads it once to set the
    # deadline, then the estimator reads it once before each trial
    k = 7
    clock = itertools.count()
    monkeypatch.setattr("egyfrac.modelsim.time.monotonic", lambda: float(next(clock)))
    argv = ["simulate", "--n", "300", "--x", "1/1", "--trials", "50", "--seed", "5"]
    code, out, _ = invoke(capsys, argv + ["--budget", str(k)])
    assert code == 3
    record = json.loads(out)
    validate_record(record)
    assert record["truncated"] is True
    assert record["trials"] == k
    est = estimate_prob_at_most(discrete_profile(300, 1.0), Fraction(1), k, 5)
    assert record["estimate"] == est.estimate
    assert record["stderr"] == est.stderr


def test_construct_count_matches_single_seed_runs(capsys, tmp_path):
    # the seeds of one --count run share build_config's cached tables
    base = ["construct", "--n", "400", "--x", "1/1"]
    together = tmp_path / "together.json"
    record_of(capsys, base + ["--seed", "4", "--count", "3", "--trace", str(together)])
    singles = []
    for seed in (4, 5, 6):
        path = tmp_path / f"single{seed}.json"
        record_of(capsys, base + ["--seed", str(seed), "--trace", str(path)])
        singles.append(json.loads(path.read_text()))
    assert json.loads(together.read_text()) == singles


def test_construct_count_peak_memory_stays_within_3_5_records(tmp_path):
    # each trace is held once, as its encoded text; holding the traces, their
    # dicts and the whole record string as well peaked at 5.5 records
    base = ["construct", "--n", "5000", "--x", "1/1", "--seed", "1"]
    assert run(base + ["--count", "2", "--out", str(tmp_path / "warm.json")]) == 0
    out = tmp_path / "record.json"
    tracemalloc.start()
    try:
        code = run(base + ["--count", "10", "--out", str(out), "--trace", str(tmp_path / "t.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    size = out.stat().st_size
    assert peak < 3.5 * size, (peak, size)


@pytest.mark.parametrize("completed", [0, 1, 2])
def test_construct_budget_stop_keeps_the_record_and_trace_layout(
    capsys, tmp_path, monkeypatch, completed
):
    # the deadline passes once `completed` runs have returned; the --trace
    # file is a bare object after exactly one run, and a list otherwise
    monkeypatch.chdir(tmp_path)
    budget = "0"
    if completed:
        now = [0.0]
        monkeypatch.setattr("egyfrac.cli.time.monotonic", lambda: now[0])
        real = egyfrac.cli.construct_representation

        def construct(*args, **kwargs):
            trace = real(*args, **kwargs)
            if kwargs["seed"] == completed:  # the seeds start at 1
                now[0] = 2.0
            return trace

        monkeypatch.setattr(egyfrac.cli, "construct_representation", construct)
        budget = "1"
    argv = ["construct", "--n", "400", "--x", "1/1", "--seed", "1", "--count", "3"]
    code, out, _ = invoke(capsys, argv + ["--budget", budget, "--trace", "t.json"])
    assert code == 3
    record = json.loads(out)
    traces = [
        trace_to_dict(construct_representation(400, Fraction(1), seed=seed))
        for seed in range(1, completed + 1)
    ]
    want = {
        "command": "construct",
        "parameters": {"n": 400, "x": "1/1", "seed": 1, "count": 3, "trace": "t.json"},
        "version": egyfrac.__version__,
        "started": record["started"],
        "finished": record["finished"],
        "n": 400,
        "x": "1/1",
        "seed": 1,
        "requested": 3,
        "completed": completed,
        "succeeded": completed,
        "distinct": completed,
        "traces": traces,
        "truncated": True,
    }
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"
    stored = traces[0] if completed == 1 else traces
    assert (tmp_path / "t.json").read_text() == json.dumps(stored, indent=2, sort_keys=True) + "\n"


def test_simulate_record_ignores_the_blas_thread_setting():
    # a multi-threaded BLAS dot product sums in another order; the package
    # defaults it to one thread, so an unset variable must give the same record
    argv = ["simulate", "--n", "100000", "--x", "1/1", "--trials", "800", "--seed", "5"]
    src = str(Path(egyfrac.__file__).resolve().parents[1])
    records = []
    for threads in (None, "1"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "egyfrac.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        records.append(strip_timestamps(json.loads(proc.stdout)))
    assert records[0] == records[1]


_WRITER_EDGE_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": ()},
    [[], {}, [[]], [{}]],
    [True, False],
    [1, True, 0, False],
    [True],
    [1, 2.5, None, "s"],
    (1, (2, 3), ()),
    {"t": (4, 5), "u": ((), (6,))},
    "naïve ☃ \U0001f600",
    'tab\t quote" backslash\\ newline\n nul\x00  ',
    ["é", "", " "],
    float("nan"),
    float("inf"),
    -float("inf"),
    [float("nan"), float("inf"), -float("inf"), 1.0, -0.0, 1e300],
    2**64,
    -(2**64) - 1,
    [2**64, 2**100, -3, 0],
    {"big": 10**30, "neg": -(2**70)},
    {"b": 1, "a": [1, 2], "c": {"z": None, "y": True, "x": [False]}},
    {1: "int keys", 2: [3]},
    {"é": 1, "e": 2, "": 3},
    None,
    True,
    0.1,
]


@pytest.mark.parametrize("obj", _WRITER_EDGE_CASES, ids=range(len(_WRITER_EDGE_CASES)))
def test_writer_matches_json_dumps_on_edge_cases(obj):
    want = json.dumps(obj, indent=2, sort_keys=True)
    assert _to_json(obj) == want
    # the chunks that records and --trace files are written from
    assert "".join(_json_lines(obj)) == want + "\n"


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGV))
def test_writer_matches_json_dumps_on_every_record(tmp_path, command):
    out = tmp_path / "record.json"
    argv = [command] + _SUBCOMMAND_ARGV[command] + ["--out", str(out)]
    if command == "construct":
        argv += ["--count", "2", "--trace", str(tmp_path / "trace.json")]
    assert run(argv) == 0
    written = [out] + ([tmp_path / "trace.json"] if command == "construct" else [])
    for path in written:
        data = json.loads(path.read_text())
        want = json.dumps(data, indent=2, sort_keys=True)
        assert path.read_text() == want + "\n"
        assert _to_json(data) == want


@pytest.mark.parametrize(
    "seed_args",
    [["--seed", "-1"], ["--seed", str(2**64)], ["--seed", str(2**64 - 1), "--count", "2"]],
)
def test_construct_rejects_seeds_past_64_bits_before_any_work(capsys, monkeypatch, seed_args):
    built = []
    monkeypatch.setattr("egyfrac.cli.construct_representation", lambda *a, **k: built.append(a))
    code, out, err = invoke(capsys, ["construct", "--n", "400", "--x", "1/1"] + seed_args)
    assert code == 1
    assert out == ""
    assert "seed must fit in 64 bits" in err
    assert built == []
