"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(ArithmeticError):
    """The requested relative accuracy cannot be certified in double precision."""


class NoRootError(RuntimeError):
    """The scanned interval contains no sign change of the target function."""


class ConfigError(ValueError):
    """A run configuration is malformed; the message names the offending key."""
