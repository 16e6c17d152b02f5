"""Wireless link scheduling under the physical (SINR) interference model.

The package root exports the documented library entry points, the emission
gate ``verify_schedule`` and the ``SchedulingError`` family; everything else
is imported from its module (``capsched.core``, ``capsched.schedulers``, ...).

Importing the package executes ``capsched.model`` only, which is plain
Python. The other entry points import their module on first read, through
the module ``__getattr__`` below; numpy executes with the first of them that
computes.
"""

import importlib

from .model import (
    InfeasibleLinkError, ModelParams, PreconditionError, SchedulingError, SingularityError,
    SizeLimitError, UnsupportedConfigurationError, VerificationError,
)

__version__ = "0.1.0"

# entry point -> the module that defines it
_ENTRY_POINTS = {
    "correspondence_check": "abstract",
    "export_gain_matrix": "abstract",
    "is_feasible": "core",
    "is_q_dispersed": "core",
    "verify_schedule": "core",
    "ExperimentConfig": "experiment",
    "ExperimentVerificationError": "experiment",
    "run_experiment": "experiment",
    "max_feasible_subset": "oracles",
    "min_schedule": "oracles",
    "disperse": "schedulers",
    "schedule_repeated": "schedulers",
    "single_shot_greedy": "schedulers",
    "strengthen": "schedulers",
    "TopologySpec": "topogen",
    "generate": "topogen",
}


def __getattr__(name: str):
    module = _ENTRY_POINTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = sorted([
    "InfeasibleLinkError", "ModelParams", "PreconditionError", "SchedulingError", "SingularityError",
    "SizeLimitError", "UnsupportedConfigurationError", "VerificationError", *_ENTRY_POINTS,
])
