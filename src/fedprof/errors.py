"""Exception hierarchy shared by all fedprof modules."""


class FedprofError(Exception):
    """Base class for all errors raised by fedprof."""


class InputError(FedprofError):
    """A caller-supplied value violates an operation's precondition, a target
    that describes no dataset included (e.g. a negative class count)."""


class FormatError(FedprofError):
    """A file fedprof reads (IDX container, checkpoint, report.json) is malformed."""


class ConfigError(FedprofError):
    """An experiment configuration is invalid.  Only ``harness`` and ``cli``
    raise it: the layers below raise InputError, which
    ``harness.validate_config`` rewords under the key path at fault."""


class InternalError(FedprofError):
    """An internal consistency check failed (e.g. a parameter vector whose size
    does not match its architecture or the vector it is combined with)."""


class NumericalError(FedprofError):
    """Training diverged: a model holds non-finite parameters, or ones beyond
    ``fedsim.DIVERGENCE_BOUND``."""
