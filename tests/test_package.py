"""The package root exports what the README documents."""

import os
import re

import capsched

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


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
