"""The package root exports what the README documents, and a command loads only what it runs and
enters every function that is not declared library-only."""

import ast
import gc
import importlib
import inspect
import json
import os
import re
import signal
import subprocess
import sys

import pytest

import capsched
import capsched.cli
from capsched.core import Instance, Link, ModelParams, Point, Schedule, Slot
from capsched.io import save_instance, save_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


def _readme_entry_points() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"from capsched import \((.*?)\)", section, re.S).group(1)
    return [name.strip() for name in block.replace("\n", ",").split(",") if name.strip()]


def test_every_readme_entry_point_imports_from_the_package_root():
    names = _readme_entry_points()
    assert "verify_schedule" in names and "run_experiment" in names
    namespace: dict = {}
    exec(f"from capsched import ({', '.join(names)})", namespace)
    assert all(name in capsched.__all__ for name in names)


def test_package_root_exports_the_error_family():
    for name in capsched.__all__:
        assert hasattr(capsched, name), name
    for name in ("SchedulingError", "VerificationError", "ExperimentVerificationError"):
        assert issubclass(getattr(capsched, name), capsched.SchedulingError)
    assert capsched.__version__


# --- lazy submodules ------------------------------------------------------------

# the modules capsched.cli registers with importlib.util.LazyLoader
LAZY = ("core", "abstract", "experiment", "oracles", "schedulers", "topogen")

# Runs one `python -m capsched ...` in this fresh interpreter, then reports which
# lazy modules executed (an unexecuted one still has the LazyLoader's module
# type), whether numpy and json were imported, and the collector's state. The
# entry ends the process with os._exit; here that raises SystemExit instead.
# The probe imports json only to print its report.
_COMMAND_PROBE = """
import gc, os, runpy, sys, types
lazy, argv = sys.argv[1].split(","), sys.argv[2:]
sys.argv = ["capsched", *argv]
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
try:
    runpy.run_module("capsched", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
report = {
    "code": code,
    "executed": [n for n in lazy if type(sys.modules["capsched." + n]) is types.ModuleType],
    "numpy": "numpy" in sys.modules,
    "json": "json" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
    "futures": "concurrent.futures" in sys.modules,
    "collecting": gc.isenabled(),
    "frozen": gc.get_freeze_count(),
}
import json
print(json.dumps(report))
"""


def _env(buffered: bool | None = None) -> dict[str, str]:
    """This environment, importing this capsched; ``buffered`` sets or clears PYTHONUNBUFFERED."""
    src = os.path.dirname(os.path.dirname(capsched.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    if buffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def _python(*args: str, cwd, buffered: bool | None = None) -> subprocess.CompletedProcess:
    """A new interpreter, given ``args``, that imports this capsched."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=_env(buffered), capture_output=True, text=True
    )


def _fresh_python(script: str, *args: str, cwd) -> str:
    """Last stdout line of ``script`` run in a new interpreter that imports this capsched."""
    proc = _python("-c", script, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _instance_files(tmp_path) -> None:
    params = ModelParams(alpha=3.0, beta=1.2)
    links = tuple(
        Link(id=i, sender=Point(100.0 * i, 0.0), receiver=Point(100.0 * i + 1.0, 0.0))
        for i in range(3)
    )
    save_instance(Instance(params=params, links=links), tmp_path / "inst.json")
    save_schedule(Schedule((Slot(frozenset({0, 1, 2})),)), tmp_path / "sched.json")
    (tmp_path / "g.txt").write_text("4 2\n0 1\n2 3\n", encoding="utf-8")
    config = {
        "topology": {"family": "random", "n": 4}, "sweep": [["n", [4, 5]]], "algorithms": ["A-repeated"]
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")


@pytest.mark.parametrize(
    "argv, code, executed, numpy, reads_json",
    [
        (["verify", "inst.json", "sched.json", "--p", "1.2", "--q", "1"], 0, ["core"], True, True),
        (["gen", "--family", "random", "--n", "5", "--out", "gen.json"], 0, ["topogen"], False, False),
        (["schedule", "inst.json", "--out", "out.json"], 0, ["core", "schedulers"], True, True),
        (["reduce-graph", "g.txt", "--check"], 0, ["core", "abstract"], True, False),
        (
            ["experiment", "--config", "config.json", "--workers", "1"], 0,
            ["core", "experiment", "schedulers", "topogen"], True, True,
        ),
        (["schedule", "inst.json", "--algo", "C"], 2, [], False, False),
        (["verify", "inst.json", "sched.json", "--p", "nan"], 2, [], False, False),
    ],
    ids=["verify", "gen", "schedule", "reduce-graph", "experiment-w1", "argparse-error", "verify-nan"],
)
def test_a_command_executes_only_the_modules_it_runs(tmp_path, argv, code, executed, numpy, reads_json):
    # gen draws its instance without core or numpy and writes it without json, a
    # one-worker sweep imports no process pool, a command refused on its
    # arguments stops before anything computes, and every command runs with the
    # collector off and nothing frozen; no command imports dataclasses, only
    # numpy brings in inspect, and only reading a JSON file brings in json
    _instance_files(tmp_path)
    probe = _fresh_python(_COMMAND_PROBE, ",".join(LAZY), *argv, cwd=tmp_path)
    result = json.loads(probe)
    assert result == {
        "code": code, "executed": executed, "numpy": numpy, "json": reads_json, "dataclasses": False,
        "inspect": numpy, "futures": False, "collecting": False, "frozen": 0,
    }


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys, monkeypatch):
    # only the program entry (cli.run) turns the collector off; main runs in
    # processes that live on
    _instance_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = gc.isenabled(), gc.get_freeze_count()
    assert capsched.cli.main(["verify", "inst.json", "sched.json"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert capsys.readouterr().out.endswith("verified=true\n")


def test_the_console_script_is_the_program_entry():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        target = re.search(r'^capsched = "(.+)"$', fh.read(), re.M).group(1)
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is capsched.cli.run


def _contract_files(tmp_path) -> None:
    """inst.json and sched.json (feasible), a failing pair slot and 13 links for the oracle."""
    _instance_files(tmp_path)
    params = ModelParams(alpha=3.0, beta=2.0)
    pair = tuple(Link(id=i, sender=Point(0.0, 0.0), receiver=Point(1.0, 0.0)) for i in range(2))
    save_instance(Instance(params=params, links=pair), tmp_path / "pair.json")
    save_schedule(Schedule((Slot(frozenset({0, 1})),)), tmp_path / "pair_sched.json")
    many = tuple(
        Link(id=i, sender=Point(50.0 * i, 0.0), receiver=Point(50.0 * i + 1.0, 0.0))
        for i in range(13)
    )
    save_instance(Instance(params=params, links=many), tmp_path / "many.json")


CONTRACT_CASES = pytest.mark.parametrize(
    "argv, code, err",
    [
        (["verify", "inst.json", "sched.json"], 0, ""),
        (["verify", "pair.json", "pair_sched.json"], 1, ""),
        (["verify", "inst.json", "sched.json", "--p", "0"], 2, "error: --p must be positive, got 0.0\n"),
        (
            ["oracle", "many.json", "--mode", "schedule"],
            3,
            "error: 13 links exceed the schedule oracle limit 12\n",
        ),
    ],
    ids=["0-verified", "1-failing-slot", "2-bad-flag", "3-size-limit"],
)


@CONTRACT_CASES
def test_python_m_capsched_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch, argv, code, err):
    # the real entry, in a new process, answers as main does in this one
    _contract_files(tmp_path)
    proc = _python("-m", "capsched", *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (code, err)
    if code == 0:
        assert proc.stdout.startswith("partition: ok\nslot 0: size=3 ")
        assert proc.stdout.endswith("verified=true\n")
    elif code == 1:
        assert proc.stdout.startswith("partition: ok\nslot 0: size=2 ")
        assert proc.stdout.endswith(" FAIL\nverified=false\n")
    else:
        assert proc.stdout == ""
    monkeypatch.chdir(tmp_path)
    assert capsched.cli.main(argv) == code
    assert capsys.readouterr() == (proc.stdout, proc.stderr)


@CONTRACT_CASES
def test_the_hard_exit_keeps_the_contract_with_buffered_stdio(tmp_path, capsys, monkeypatch, argv, code, err):
    # with block-buffered stdout the output is still in the buffer when main
    # returns: the entry must flush it before os._exit
    _contract_files(tmp_path)
    proc = _python("-m", "capsched", *argv, cwd=tmp_path, buffered=True)
    monkeypatch.chdir(tmp_path)
    assert capsched.cli.main(argv) == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, *capsys.readouterr())


def _run_to(sink: str, args: list[str], cwd, buffered: bool) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a new interpreter given ``args``.

    Its stdout goes to a file, a pipe, or a pipe whose reading end is
    closed before it starts ("closed", which reads back as "").
    """
    cmd, env = [sys.executable, *args], _env(buffered)
    if sink == "pipe":
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr
    if sink == "file":
        with open(cwd / "stdout.txt", "w", encoding="utf-8") as out:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.PIPE, text=True)
        return proc.returncode, (cwd / "stdout.txt").read_text(encoding="utf-8"), proc.stderr
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    return proc.returncode, "", proc.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_the_entry_writes_all_of_stdout(tmp_path, capsys, monkeypatch, sink, buffered):
    # 300 one-link slots print about 14 kB, more than one stdout buffer
    params = ModelParams(alpha=3.0, beta=1.2)
    links = tuple(
        Link(id=i, sender=Point(10.0 * i, 0.0), receiver=Point(10.0 * i + 1.0, 0.0))
        for i in range(300)
    )
    save_instance(Instance(params=params, links=links), tmp_path / "inst.json")
    save_schedule(Schedule(tuple(Slot(frozenset({i})) for i in range(300))), tmp_path / "sched.json")
    argv = ["verify", "inst.json", "sched.json", "--p", "1.2"]
    result = _run_to(sink, ["-m", "capsched", *argv], tmp_path, buffered)
    monkeypatch.chdir(tmp_path)
    assert capsched.cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert len(out) > 8192 and out.endswith("verified=true\n")
    assert result == (0, out, err)


# The entry as it was before the hard exit: the interpreter's own exit with main's code.
_ORDINARY_EXIT = "import sys; from capsched.cli import main; raise SystemExit(main(sys.argv[1:]))"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "random", "--n", "5", "--out", "gen.json"],
        ["verify", "pair.json", "pair_sched.json"],
    ],
    ids=["gen", "failing-verify"],
)
def test_a_closed_stdout_pipe_ends_as_the_ordinary_exit_does(tmp_path, argv, buffered):
    # a flush that fails falls back to the interpreter's exit, which reports
    # the broken pipe (buffered: exit 120) or main already did (unbuffered: exit 2)
    _contract_files(tmp_path)
    entry = _run_to("closed", ["-m", "capsched", *argv], tmp_path, buffered)
    ordinary = _run_to("closed", ["-c", _ORDINARY_EXIT, *argv], tmp_path, buffered)
    assert entry == ordinary
    assert entry[0] == (120 if buffered else 2) and "Broken pipe" in entry[2]


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_experiment_with_workers_leaves_no_process_behind(tmp_path):
    config = {
        "topology": {"family": "random", "n": 6, "l_max": 5.0, "field_size": 50.0},
        "sweep": [["n", [6, 8]]],
        "algorithms": ["A-repeated", "first-fit-baseline"],
        "repetitions": 2,
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = ["experiment", "--config", "config.json", "--workers", "2"]
    # the command leads a new process group, which its workers join
    proc = subprocess.Popen(
        [sys.executable, "-m", "capsched", *argv], cwd=tmp_path, env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    proc.wait()
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        left = False
    else:
        left = True
        os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, left) == (0, False)
    assert len((tmp_path / "results.csv").read_text(encoding="utf-8").splitlines()) == 1 + 8


# `python -m capsched` in a fresh interpreter in which `import numpy` raises
# ImportError, as on an interpreter without numpy
_NO_NUMPY = (
    "import runpy, sys; sys.modules['numpy'] = None; "
    "runpy.run_module('capsched', run_name='__main__', alter_sys=True)"
)


def test_gen_and_a_refused_command_run_without_numpy(tmp_path, capsys, monkeypatch):
    _instance_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    for family in ("random", "clustered"):
        argv = ["gen", "--family", family, "--n", "40", "--seed", "3"]
        proc = _python("-c", _NO_NUMPY, *argv, "--out", "child.json", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert capsched.cli.main([*argv, "--out", "here.json"]) == 0
        assert (tmp_path / "child.json").read_bytes() == (tmp_path / "here.json").read_bytes()
    capsys.readouterr()
    argv = ["verify", "inst.json", "sched.json", "--p", "nan"]
    proc = _python("-c", _NO_NUMPY, *argv, cwd=tmp_path)
    assert capsched.cli.main(argv) == 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, *capsys.readouterr())


def test_lazy_modules_are_package_attributes_and_registered():
    # monkeypatch.setattr("capsched.schedulers....") resolves through the attribute
    for name in LAZY:
        assert sys.modules[f"capsched.{name}"] is getattr(capsched, name)
    assert capsched.schedule_repeated is capsched.schedulers.schedule_repeated
    with pytest.raises(AttributeError):
        getattr(capsched, "no_such_name")


# The benchmark's tracer (perfbench/tracing.py) imports capsched.cli, looks up
# sys.modules["capsched.<mod>"] for every target and wraps module attributes.
# refine --strengthen checks its input with core.p_signal_violation by the name
# schedulers imports.
_TRACER_PROBE = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import capsched.cli
missing = [m for m, _, _, _ in tracing.TARGETS if "capsched." + m not in sys.modules]
tracer = tracing.Tracer()
tracer.install()
try:
    tracer.begin_command(0, "run")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["gen", "--family", "random", "--n", "30", "--seed", "1", "--out", "i.json"],
            ["schedule", "i.json", "--out", "s.json"],
            ["schedule", "i.json", "--algo", "B", "--out", "b.json"],
            ["verify", "i.json", "s.json"],
            ["gen", "--family", "random", "--n", "8", "--seed", "1", "--out", "o.json"],
            ["oracle", "o.json", "--mode", "subset", "--out", "subset.json"],
            ["refine", "i.json", "s.json", "--strengthen", "1.2", "2.4", "--out", "strong.json"],
        ):
            assert capsched.cli.main(argv) == 0, argv
finally:
    tracer.uninstall()
print(json.dumps({"missing": missing, "spans": sorted({s[0] for s in tracer.spans})}))
"""


def test_the_benchmark_tracer_finds_and_wraps_every_target(tmp_path):
    tracing = os.path.join(ROOT, "perfbench", "tracing.py")
    result = json.loads(_fresh_python(_TRACER_PROBE, tracing, cwd=tmp_path))
    assert result["missing"] == []
    assert {
        "cli.gen",
        "cli.schedule",
        "cli.verify",
        "topogen.generate",
        "schedulers.schedule_repeated",
        "io.load_instance",
        "io.save_schedule",
        "core.p_signal_violation",
        "core.partition_report",
    } <= set(result["spans"])


# --- no test-only options ---------------------------------------------------------

TEST_ONLY_OPTIONS = {
    "limits", "mode", "exhaustive_limit", "sample_size", "seed", "constants", "dist"
}


def test_entry_points_take_no_test_only_options():
    # the oracle limits are module constants, the correspondence check is a
    # certificate, and the schedulers derive their constants from the instance
    from capsched import abstract, core, oracles, schedulers

    entry_points = (
        oracles.max_feasible_subset,
        oracles.max_p_signal_subset,
        oracles.min_schedule,
        oracles.min_p_signal_schedule,
        abstract.correspondence_check,
        schedulers.single_shot_greedy,
        schedulers.single_shot_guarded,
    )
    for fn in entry_points:
        assert not set(inspect.signature(fn).parameters) & TEST_ONLY_OPTIONS, fn.__qualname__
    assert "metadata" not in Instance.__slots__
    assert not hasattr(oracles, "OracleLimits") and not hasattr(oracles, "DEFAULT_LIMITS")
    assert not hasattr(abstract, "SAMPLE_SIZE") and not hasattr(abstract, "CHUNK")
    assert not hasattr(core.AffectanceRows, "row")  # the package reads ``block`` and ``matrix``


# --- reachability ---------------------------------------------------------------

_SCALAR = "scalar reference: the kernel and the slot verifier are tested against it"
_RECORD = "the record contract: equality, hash, repr and immutability by the fields"
_PINNED = "named by perfbench/tracing.py TARGETS; deleted once the tracer traces the stages (ROADMAP item 1)"

# The functions no command enters, each with the reason it stays. A function
# that REACH_CORPUS never enters and that is not listed fails the test, and so
# does a listed one that it enters.
LIBRARY_ONLY = {
    "core.relative_interference": _SCALAR,
    "core.single_affectance": _SCALAR,
    "core.affectance": _SCALAR,
    "core._sinr_ratio": _SCALAR,
    "core.is_feasible": _SCALAR,
    "core.is_q_near": "scalar reference of AffectanceRows.near's q-nearness",
    "core.is_q_dispersed": "scalar reference of report_q_dispersed",
    "model.Link.length": "scalar reference of the kernel's link lengths",
    "abstract.abstract_affectance": "scalar reference of abstract_feasible's sums",
    "abstract.abstract_feasible": "acceptance criterion 09; the correspondence check's reference",
    "abstract.is_independent_set": "the correspondence check's reference",
    "io.instance_to_obj": "the reference of save_instance's bytes",
    "model.Record.__eq__": _RECORD,
    "model.Record.__hash__": _RECORD,
    "model.Record.__repr__": _RECORD,
    "model.Record.__setattr__": _RECORD,
    "model.Record.__delattr__": _RECORD,
    "abstract.GainMatrix.__eq__": "the record contract: a gain matrix compares its entries by value",
    "model.VerificationError.__init__": "the emission gate's refusal, raised only if a scheduler errs",
    "experiment.ExperimentVerificationError.__init__": "a sweep cell the emission gate refuses",
    "experiment.ExperimentVerificationError.__reduce__": "that refusal's way back from a worker process",
    "__init__.__getattr__": "the README's library entry points, read from the package root",
    "abstract.export_gain_matrix": "README entry point; acceptance criterion 09",
    "oracles.min_p_signal_schedule": "acceptance criterion 05",
    "schedulers.single_shot_greedy": "README entry point, A's single shot (the paper's capacity answer); "
    "acceptance criteria 02 and 03",
    "schedulers._single_shot": "the body of single_shot_greedy and single_shot_guarded",
    "cli.run": "the program entry of python -m capsched, in a child process; the corpus calls main",
    "core.affectance_matrix": _PINNED,
    "schedulers.single_shot_guarded": _PINNED,
}

PACKAGE = os.path.dirname(os.path.realpath(capsched.__file__))

# Every command and mode, both families, uniform and per-link power, and one
# exit-1, exit-2 and exit-3 case each: argv, exit code. The files are
# _reachability_files'.
REACH_CORPUS = [
    (["gen", "--family", "random", "--n", "30", "--seed", "1", "--out", "r.json"], 0),
    (["gen", "--family", "clustered", "--n", "30", "--seed", "2", "--clusters", "3", "--out", "c.json"], 0),
    (["gen", "--family", "clustered", "--n", "8", "--out", "s8.json"], 0),
    (["schedule", "r.json", "--out", "a.json"], 0),
    (["schedule", "r.json", "--power-mode", "uniform", "--out", "u.json"], 0),
    (["schedule", "c.json", "--algo", "B", "--out", "b.json"], 0),
    (["schedule", "c.json", "--algo", "firstfit", "--out", "f.json"], 0),
    (["schedule", "power.json", "--out", "pr.json"], 0),
    (["schedule", "power.json", "--power-mode", "power-regimes", "--out", "pb.json"], 0),
    (["schedule", "power.json", "--power-mode", "scaled-threshold", "--out", "ps.json"], 0),
    (["verify", "r.json", "a.json", "--p", "1.2", "--q", "1", "--theta", "1.1"], 0),
    (["verify", "power.json", "pr.json"], 0),
    (["refine", "c.json", "f.json", "--strengthen", "1.2", "2.4", "--out", "st.json"], 0),
    (["refine", "c.json", "f.json", "--disperse", "1", "--out", "d.json"], 0),
    (["oracle", "s8.json", "--mode", "subset", "--out", "o1.json"], 0),
    (["oracle", "s8.json", "--mode", "psignal", "--p", "2", "--out", "o2.json"], 0),
    (["oracle", "s8.json", "--mode", "schedule", "--out", "o3.json"], 0),
    (["reduce-graph", "g.txt", "--check", "--out", "g1.json"], 0),
    (["reduce-graph", "g.txt", "--out", "g2.json"], 0),
    (["experiment", "--config", "w1.json", "--workers", "1"], 0),
    (["experiment", "--config", "w2.json", "--workers", "2"], 0),
    # a q tie (exactly_near decides it) in a slot that fails: exit 1
    (["verify", "tie.json", "tie_sched.json", "--q", "1"], 1),
    (["schedule", "r.json", "--algo", "B", "--power-mode", "uniform"], 2),
    (["schedule", "noisy.json"], 2),
    (["oracle", "many.json", "--mode", "schedule"], 3),
]

# REACH_CORPUS in this fresh interpreter, under a profiler (call events, every
# thread) installed before capsched.cli is imported; prints the exit codes and
# the (file, first line) of every package code object entered.
_REACH_PROBE = """
import contextlib, io, json, os, sys, threading
package, corpus = sys.argv[1], json.loads(sys.argv[2])
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
threading.setprofile(profile)
sys.setprofile(profile)
import capsched.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [capsched.cli.main(argv) for argv in corpus]
sys.setprofile(None)
threading.setprofile(None)
entered = {(os.path.realpath(path), line) for path, line in entered}
print(json.dumps({"codes": codes, "entered": sorted(e for e in entered if e[0].startswith(package))}))
"""


def _reachability_files(tmp_path) -> None:
    _contract_files(tmp_path)
    links = [
        {"id": i, "sx": 40.0 * i, "sy": 0.0, "rx": 40.0 * i + 1.0, "ry": 0.0, "power": 2.0 ** (i % 3)}
        for i in range(12)
    ]
    (tmp_path / "power.json").write_text(json.dumps({"params": {"alpha": 3, "beta": 1.2}, "links": links}))
    # d(s_1, r_0) = d_00 = 1: a_1(0) = 1 = q^-alpha at q = 1
    tie = [{"id": 0, "sx": 0.0, "sy": 0.0, "rx": 1.0, "ry": 0.0}, {"id": 1, "sx": 2.0, "sy": 0.0, "rx": 3.0, "ry": 0.0}]
    (tmp_path / "tie.json").write_text(json.dumps({"params": {"alpha": 3, "beta": 1.2}, "links": tie}))
    (tmp_path / "tie_sched.json").write_text('{"slots": [[0, 1]]}')
    # a unit link at power 1 receives 1 <= beta * noise: infeasible even alone
    noisy = {"params": {"alpha": 3, "beta": 1.2, "noise": 1e6}, "links": tie}
    (tmp_path / "noisy.json").write_text(json.dumps(noisy))
    (tmp_path / "g.txt").write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    for workers, family in ((1, "random"), (2, "clustered")):
        config = {
            "topology": {"family": family, "n": 6, "l_max": 5.0, "field_size": 50.0},
            "sweep": [["n", [6, 8]]],
            "algorithms": ["A-repeated", "B-repeated", "first-fit-baseline"],
            "output": f"results_w{workers}.csv",
            "timings": f"timings_w{workers}.csv",
        }
        (tmp_path / f"w{workers}.json").write_text(json.dumps(config))


def _defined_functions() -> dict[tuple[str, int], str]:
    """Every function defined in the package: (file, first line) -> qualified name.

    A code object's first line is that of its first decorator, or of its
    ``def``. Lambdas and comprehensions are left out (Python 3.12 inlines
    comprehensions); Python 3.10 has no ``co_qualname``, so the names come
    from the source.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), path, f"{name[:-3]}.")
    return found


def test_every_function_is_entered_by_a_command_or_declared_library_only(tmp_path):
    _reachability_files(tmp_path)
    argvs = json.dumps([argv for argv, _ in REACH_CORPUS])
    result = json.loads(_fresh_python(_REACH_PROBE, PACKAGE + os.sep, argvs, cwd=tmp_path))
    assert result["codes"] == [code for _, code in REACH_CORPUS]
    defined = _defined_functions()
    assert len(set(defined.values())) == len(defined)
    entered = {defined.get(tuple(key)) for key in result["entered"]}
    unreached = set(defined.values()) - entered
    assert sorted(unreached - set(LIBRARY_ONLY)) == [], "no command enters these: delete or declare them"
    assert sorted(set(LIBRARY_ONLY) - unreached) == [], "a command enters these, or they are gone"
