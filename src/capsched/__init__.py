"""Wireless link scheduling under the physical (SINR) interference model.

The package root exports the documented library entry points, the emission
gate ``verify_schedule`` and the ``SchedulingError`` family; everything else
is imported from its module (``capsched.core``, ``capsched.schedulers``, ...).

``core``, the heavier modules (``abstract``, ``experiment``, ``oracles``,
``schedulers``, ``topogen``) and numpy, unless already imported, are
registered in ``sys.modules`` unexecuted and execute on first attribute
access: ``core`` at once, the others when a command calls into them, so
``gen`` never executes numpy. Entry points of the lazy modules resolve
through the module ``__getattr__`` below.

The program entry (``cli.run``) turns the cyclic collector off for the
whole command; the package only pauses it while a lazy module executes and
gives the caller's state back, also when it raises. If the collector was
on and nothing is frozen, the long-lived objects of that execution, and of
the lazy modules it executed, go unwalked to the oldest generation
(``freeze()``, ``unfreeze()``); a caller's frozen objects stay frozen.
"""

import gc
import importlib.util
import sys
import types


class _LazyModule(types.ModuleType):
    """A registered module that executes, with the collector paused, on its first attribute read."""

    def __getattribute__(self, attr):
        if attr == "__spec__":  # read by `import numpy as np`, which binds numpy unexecuted
            return object.__getattribute__(self, attr)
        self.__class__ = types.ModuleType
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.__spec__.loader.exec_module(self)
        finally:
            if collecting:  # off: the caller's choice, or an outer execution's, which moves these too
                if not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()
        return getattr(self, attr)


def _lazy(name: str):
    """Register module ``name`` (``.name``: in this package) to execute on first attribute access."""
    spec = importlib.util.find_spec(name, __name__)
    sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    return module


if "numpy" not in sys.modules and importlib.util.find_spec("numpy") is not None:
    _lazy("numpy")

core = _lazy(".core")
from .core import (  # noqa: E402
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
    is_q_dispersed,
    verify_schedule,
)

__version__ = "0.1.0"

abstract = _lazy(".abstract")
experiment = _lazy(".experiment")
oracles = _lazy(".oracles")
schedulers = _lazy(".schedulers")
topogen = _lazy(".topogen")

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
    "is_q_dispersed",
    "max_feasible_subset",
    "min_schedule",
    "run_experiment",
    "schedule_repeated",
    "single_shot_greedy",
    "strengthen",
    "verify_schedule",
]
