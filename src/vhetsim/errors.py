"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all vhetsim errors."""


class CdrParseError(SimulationError):
    """A CDR line could not be parsed. Carries the 1-based line number."""

    def __init__(self, message, line_number=0):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


class NormalizationError(SimulationError):
    """Malformed or degenerate traffic corpus: a bad profile cache, values
    outside [0, 1], repeated cell ids, or no positive activity anywhere."""


class ConfigError(SimulationError):
    """Invalid, missing or unknown experiment configuration key."""


class InconsistentStateError(SimulationError):
    """A switching decision and a load state disagree in length."""


class InsufficientNeighborsError(SimulationError):
    """Fewer active cells available than the requested neighbor count."""


class DegenerateDistanceError(SimulationError):
    """Zero or negative distance where inverse-distance weighting is undefined."""
