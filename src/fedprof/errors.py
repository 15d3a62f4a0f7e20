"""Exception hierarchy shared by all fedprof modules."""


class FedprofError(Exception):
    """Base class for all errors raised by fedprof."""


class InputError(FedprofError):
    """A caller-supplied value violates an operation's precondition."""


class FormatError(FedprofError):
    """A file fedprof reads (IDX container, checkpoint, report.json) is malformed."""


class SpecError(InputError):
    """A dataset target cannot be realized (e.g. negative class count)."""


class ConfigError(FedprofError):
    """An experiment or attack configuration is invalid."""


class InternalError(FedprofError):
    """An internal consistency check failed (e.g. a parameter vector whose size
    does not match its architecture or the vector it is combined with)."""


class NumericalError(FedprofError):
    """Training diverged: a model holds non-finite parameters, or ones beyond
    ``fedsim.DIVERGENCE_BOUND``."""
