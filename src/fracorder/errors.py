"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(ArithmeticError):
    """The requested relative accuracy cannot be certified in double precision."""


class NoRootError(RuntimeError):
    """The searched interval contains no sign change of the target function."""


class ConfigError(ValueError):
    """A run configuration is malformed; the message names the offending key."""


def _shown(value):
    """repr(value) for a refusal message; its type alone where repr raises
    ValueError, as for an int past the str conversion limit of 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return f"<unprintable {type(value).__name__}>"
