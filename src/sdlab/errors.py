"""Exception taxonomy shared across the package."""


class SdlabError(Exception):
    """Base class for all package errors."""


class DomainError(SdlabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(SdlabError, ValueError):
    """Structurally valid input with an inadmissible parameter value."""


class InputError(SdlabError, ValueError):
    """Malformed or inconsistent input data (missing coordinates, empty sets)."""


class SpecError(SdlabError, ValueError):
    """Degenerate event specification (probability structurally 0 or 1)."""


class ModelError(SdlabError, RuntimeError):
    """Covariance model unusable on the requested point set (e.g. not PSD)."""


class EmbeddingError(ModelError):
    """Circulant torus embedding failed at every padding tried."""


class NumericalError(SdlabError, RuntimeError):
    """Numerical failure with advice on how to regularize."""


class PreconditionError(SdlabError, ValueError):
    """A documented precondition of the operation does not hold."""


class ConfigError(SdlabError, ValueError):
    """Invalid experiment configuration."""
