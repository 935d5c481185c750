"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension, or input is not square."""


class InvalidCovarianceError(ValueError):
    """Covariance matrix is indefinite beyond the round-off clip threshold."""


class ClassMembershipError(ValueError):
    """State dispersion does not match the declared dispersion class."""


class DegenerateStateError(ValueError):
    """State has zero covariance and cannot be normalized."""


class OrderError(ValueError):
    """Multilinear-form order is unsupported or inconsistent."""


class SizeError(ValueError):
    """Requested dense object exceeds the supported combinatorial size."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


class ConfigError(ValueError):
    """Experiment configuration failed validation."""
