"""Wireless link scheduling under the physical (SINR) interference model.

The package root exports the documented library entry points, the emission
gate ``verify_schedule`` and the ``SchedulingError`` family; everything else
is imported from its module (``capsched.core``, ``capsched.schedulers``, ...).

Importing the package executes only ``core``. The heavier modules
(``abstract``, ``experiment``, ``oracles``, ``schedulers``, ``topogen``) are
registered in ``sys.modules`` and as package attributes by
``importlib.util.LazyLoader``: each executes on its first attribute access,
so a command loads only the modules it calls into. The entry points that
live in those modules resolve through the module ``__getattr__`` below.

The cyclic collector is paused while ``core`` imports numpy and itself:
those imports create tens of thousands of long-lived objects, and the
collections they would trigger find no garbage. The caller's collector
state comes back afterwards, also when an import raises, and the objects
made meanwhile join the oldest generation without a collection.
"""

import gc
import importlib.util
import sys

_collecting = gc.isenabled()
gc.disable()
try:
    from .core import (
        HeuristicInfeasibilityError,
        InfeasibleLinkError,
        ModelParams,
        PreconditionError,
        SchedulingError,
        SingularityError,
        SizeLimitError,
        UnsupportedConfigurationError,
        VerificationError,
        is_feasible,
        is_p_signal,
        is_q_dispersed,
        verify_schedule,
    )
finally:
    # The paused imports leave generation 0 holding every object they made,
    # and the first young collection after them would walk them all once.
    # freeze() then unfreeze() moves them to the oldest generation unwalked,
    # unless the caller has frozen objects, which unfreeze() would release.
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()
    del _collecting

__version__ = "0.1.0"


def _lazy_module(name: str):
    """Register submodule ``name`` to execute on its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


abstract = _lazy_module("abstract")
experiment = _lazy_module("experiment")
oracles = _lazy_module("oracles")
schedulers = _lazy_module("schedulers")
topogen = _lazy_module("topogen")

# entry point -> the lazy module that defines it
_LAZY_EXPORTS = {
    "correspondence_check": abstract,
    "export_gain_matrix": abstract,
    "ExperimentConfig": experiment,
    "ExperimentVerificationError": experiment,
    "run_experiment": experiment,
    "max_feasible_subset": oracles,
    "min_schedule": oracles,
    "disperse": schedulers,
    "schedule_repeated": schedulers,
    "single_shot_greedy": schedulers,
    "strengthen": schedulers,
    "TopologySpec": topogen,
    "generate": topogen,
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "ExperimentConfig",
    "ExperimentVerificationError",
    "HeuristicInfeasibilityError",
    "InfeasibleLinkError",
    "ModelParams",
    "PreconditionError",
    "SchedulingError",
    "SingularityError",
    "SizeLimitError",
    "TopologySpec",
    "UnsupportedConfigurationError",
    "VerificationError",
    "correspondence_check",
    "disperse",
    "export_gain_matrix",
    "generate",
    "is_feasible",
    "is_p_signal",
    "is_q_dispersed",
    "max_feasible_subset",
    "min_schedule",
    "run_experiment",
    "schedule_repeated",
    "single_shot_greedy",
    "strengthen",
    "verify_schedule",
]
