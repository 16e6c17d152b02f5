"""The golden corpus along other paths: scalar references that raise, numpy's AVX-512 off.

Every command of the corpus, counted, builds at most one affectance kernel:
the instance's, which the schedulers, the power regimes, the refiners, the
verifier and the oracles all gather from.

The scalar affectance definitions in ``capsched.core`` are the tests'
reference; no command may call them. With each of them made to raise, in
every capsched module that holds it, the corpus of ``tests/test_golden.py``
and ``tests/test_golden_verify.py`` still gives its pinned hashes.

numpy dispatches some float routines (``power`` among them) to SIMD code
picked for the running CPU. A child pytest runs the three golden files with
AVX-512 dispatch switched off through ``NPY_DISABLE_CPU_FEATURES``; the
variable acts on that child only, and features the CPU or numpy lacks are
left out of it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import capsched
import test_golden
import test_golden_oracles
import test_golden_verify
from capsched import cli, core, experiment
from test_golden import CASES, GOLDEN, corpus_hashes
from test_golden_oracles import ORACLE_GOLDEN, oracle_hashes
from test_golden_verify import (
    EXTREME, EXTREME_GOLDEN, VERIFY_GOLDEN, extreme_transcript, verify_transcripts,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCALAR_REFERENCES = (
    "relative_interference", "single_affectance", "affectance", "is_q_near", "is_q_dispersed",
    "_sinr_ratio",
)


@pytest.fixture
def scalar_references_raise(monkeypatch):
    """Make each scalar reference raise, under every name a capsched module holds it by."""
    for name in SCALAR_REFERENCES:
        original = getattr(core, name)

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"a production path called the scalar reference {_name}")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("capsched") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("family,seed", CASES)
def test_golden_corpus_calls_no_scalar_reference(
    scalar_references_raise, capsys, tmp_path, family, seed
):
    assert corpus_hashes(tmp_path, family, seed) == GOLDEN[(family, seed)]
    assert verify_transcripts(tmp_path, family, seed) == VERIFY_GOLDEN[(family, seed)]


def test_extreme_coordinates_call_no_scalar_reference(scalar_references_raise, tmp_path):
    for name in sorted(EXTREME):
        assert extreme_transcript(tmp_path, name) == EXTREME_GOLDEN[name], name


def _avx512_features() -> list[str]:
    """The AVX-512 feature groups this numpy knows and this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return [name for name in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if features.get(name)]


def test_golden_outputs_do_not_depend_on_avx512_dispatch():
    src = os.path.dirname(os.path.dirname(capsched.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_avx512_features())
    files = [os.path.join("tests", f"test_golden{part}.py") for part in ("", "_verify", "_oracles")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout


@pytest.fixture
def kernel_builds(monkeypatch):
    """(argv, link count of every kernel it built) of each ``cli.main`` the golden files call."""
    log, inside = [], []
    real_fill, real_main = core.AffectanceRows._fill, cli.main

    def counted_fill(self, links, params):
        if inside:
            inside[-1].append(len(links))
        return real_fill(self, links, params)

    def counted_main(argv):
        log.append((argv, []))
        inside.append(log[-1][1])
        try:
            return real_main(argv)
        finally:
            inside.pop()

    monkeypatch.setattr(core.AffectanceRows, "_fill", counted_fill)
    for module in (test_golden, test_golden_verify, test_golden_oracles):
        monkeypatch.setattr(module, "main", counted_main)
    return log


@pytest.mark.parametrize("family,seed", CASES)
def test_every_golden_command_builds_at_most_one_kernel(kernel_builds, capsys, tmp_path, family, seed):
    # the per-link-power copy's powers {1, 2, 4, 8} make four regimes, and
    # an oracle checks its answer on the kernel it found the answer on
    dirs = [tmp_path / name for name in ("schedules", "verify", "oracles")]
    for path in dirs:
        path.mkdir()
    assert corpus_hashes(dirs[0], family, seed) == GOLDEN[(family, seed)]
    assert verify_transcripts(dirs[1], family, seed) == VERIFY_GOLDEN[(family, seed)]
    assert oracle_hashes(dirs[2], family, seed) == ORACLE_GOLDEN[(family, seed)]
    for mode in ("subset", "psignal --p 2", "psignal --p 0.5"):
        test_golden_oracles._run("oracle", dirs[2] / "inst.json", "--mode", *mode.split(), "--out", dirs[2] / "o.json")
    power = dirs[0] / "inst_power.json"
    test_golden._run("schedule", power, "--algo", "A", "--out", dirs[0] / "a_power.json")
    computing = [(argv, builds) for argv, builds in kernel_builds if argv[0] != "gen"]
    assert [(argv, builds) for argv, builds in computing if len(builds) > 1] == []
    # (file, flags) of the commands that once built more than one
    built = {(os.path.basename(argv[1]), " ".join(argv[2:-2])): builds for argv, builds in computing}
    for flags in ("--algo A", "--algo A --power-mode power-regimes", "--algo A --power-mode scaled-threshold"):
        assert built["inst_power.json", flags] == [200], flags
    for flags in ("--mode subset", "--mode psignal --p 2", "--mode psignal --p 0.5"):
        assert built["inst.json", flags] == [12], flags


def test_an_experiment_builds_at_most_one_kernel_per_instance(tmp_path, monkeypatch):
    builds, generated = [], []
    real_fill, real_generate = core.AffectanceRows._fill, experiment.generate

    def counted_fill(self, links, params):
        builds.append(len(links))
        return real_fill(self, links, params)

    def counted_generate(spec, params):
        generated.append(spec.n)
        return real_generate(spec, params)

    monkeypatch.setattr(core.AffectanceRows, "_fill", counted_fill)
    monkeypatch.setattr(experiment, "generate", counted_generate)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "topology": {"family": "random", "n": 6, "l_max": 5.0, "field_size": 50.0},
        "sweep": [["n", [6, 8]], ["alpha", [3.0, 4.0]]],
        "repetitions": 2,
        "algorithms": ["A-repeated", "B-repeated", "first-fit-baseline"],
        "output": str(tmp_path / "results.csv"),
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["experiment", "--config", str(config), "--workers", "1"]) == 0
    assert len(generated) == 8
    assert Counter(builds) <= Counter(generated)
