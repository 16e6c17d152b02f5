"""Wireless link scheduling under the physical (SINR) interference model.

The package root exports the documented library entry points, the emission
gate ``verify_schedule`` and the ``SchedulingError`` family; everything else
is imported from its module (``capsched.core``, ``capsched.schedulers``, ...).
"""

from .abstract import correspondence_check, export_gain_matrix
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
from .experiment import ExperimentConfig, ExperimentVerificationError, run_experiment
from .oracles import max_feasible_subset, min_schedule
from .schedulers import disperse, schedule_repeated, single_shot_greedy, strengthen
from .topogen import TopologySpec, generate

__version__ = "0.1.0"

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
