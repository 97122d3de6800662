"""Exception types shared across the package."""


class OpenQDynError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(OpenQDynError, ValueError):
    """Operands have incompatible or non-square shapes."""


class MagnitudeError(OpenQDynError, ValueError):
    """Input norms are outside the range the routine can handle."""


class NotCompletelyPositiveError(OpenQDynError, ValueError):
    """A map required to be CP has a negative Choi eigenvalue.

    Carries the witness eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, min_eigenvalue, msg=None):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(msg or f"Choi matrix has negative eigenvalue {min_eigenvalue:.3e}")


class SingularMapError(OpenQDynError, ValueError):
    """Map inversion requested beyond the allowed condition number."""

    def __init__(self, condition, threshold):
        self.condition = float(condition)
        self.threshold = float(threshold)
        super().__init__(
            f"superoperator condition number {condition:.3e} exceeds threshold {threshold:.3e}"
        )


class DegenerateSpectrumError(OpenQDynError, ValueError):
    """A spectral projector could not be resolved reliably."""


class ZeroFrequencyRateError(OpenQDynError, ValueError):
    """The zero-frequency decay rate has no well-defined two-sided limit."""


class IncompleteDecompositionError(OpenQDynError, ValueError):
    """An eigenoperator block is missing its mirror-frequency partner."""


class QuadratureError(OpenQDynError, ValueError):
    """A numerical integral could not be evaluated as requested."""


class StepSizeError(OpenQDynError, RuntimeError):
    """A trajectory's trace drifted beyond 1e-6 (a trace-changing generator or a coarse step)."""

    def __init__(self, drift, msg=None):
        self.drift = float(drift)
        super().__init__(msg or f"trace drift {drift:.3e} exceeds 1e-6")


class ConfigError(OpenQDynError, ValueError):
    """A run configuration file is malformed; message carries key/line info."""
