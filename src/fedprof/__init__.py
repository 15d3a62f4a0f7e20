"""fedprof: a deterministic federated-learning simulator and preference-
profiling attack laboratory.

Layers:
  nn       minimal differentiable network engine (dense/conv, SGD, DP-SGD)
  data     synthetic datasets, IDX files, heterogeneous partitioning
  fedsim   the FL round loop with pluggable (attacker-controlled) aggregation
           and a stop on diverged parameters
  attack   sensitivity extraction, shadow/meta pipeline, selective aggregation
  harness  config validation, experiments (one run, the meta-classifier
           comparison, the dropout / DP-SGD sweep), reports, persistence
"""

from . import attack, data, fedsim, harness, nn
from .errors import (ConfigError, FedprofError, FormatError, InputError,
                     InternalError, NumericalError)

__all__ = [
    "attack", "data", "fedsim", "harness", "nn",
    "FedprofError", "InputError", "FormatError",
    "ConfigError", "InternalError", "NumericalError",
]

__version__ = "0.1.0"
