"""The golden corpus along other paths: scalar references that raise, numpy's AVX-512 off.

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

import os
import subprocess
import sys

import pytest

import capsched
from capsched import core
from test_golden import CASES, GOLDEN, corpus_hashes
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
