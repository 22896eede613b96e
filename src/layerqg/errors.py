"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter or config-file entry violates a documented constraint."""


class ShapeError(ValueError):
    """Array dimensions do not match the basis or partner field."""


class UnsupportedExponentError(ValueError):
    """Lp norms are defined for even integer p or infinity only."""


class TimeStepError(RuntimeError):
    """The time step exceeds the stability ceiling (CFL or damping).

    From the adaptive CFL guard it also carries the abort time, the
    largest |u|, the dt ceiling and, when raised from a trajectory run,
    the partial record accumulated so far.
    """

    def __init__(self, message, time=None, umax=None, ceiling=None,
                 record=None):
        super().__init__(message)
        self.time = time
        self.umax = umax
        self.ceiling = ceiling
        self.record = record


class BlowUpError(RuntimeError):
    """NaN/Inf detected during time stepping.

    Carries the last valid time and, when raised from a trajectory run,
    the partial record accumulated so far.
    """

    def __init__(self, message, time, record=None):
        super().__init__(message)
        self.time = time
        self.record = record


class FieldFormatError(IOError):
    """Bad magic bytes or version in a binary field file."""


class FieldLengthError(IOError):
    """Binary field payload shorter/longer than the header declares."""


class SamplingError(ValueError):
    """A recorded series is too sparse for the requested evaluation."""
