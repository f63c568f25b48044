"""Exception types shared across the package."""


def listed(indices: list[int], limit: int = 10) -> str:
    """``indices`` for an error message: the first ``limit`` and the count."""
    count = f" (first {limit} of {len(indices)})" if len(indices) > limit else ""
    return f"{indices[:limit]}{count}"


class ScenarioEvalError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(ScenarioEvalError, ValueError):
    """An input value lies outside its mathematical domain."""


class NumericalInstabilityError(ScenarioEvalError, ArithmeticError):
    """Integration or evaluation produced a non-finite state."""


class InsufficientDataError(ScenarioEvalError, ValueError):
    """Too few (or degenerate) observations to fit the requested model."""


class SingularFitError(ScenarioEvalError, ValueError):
    """Design matrix is rank deficient.

    ``columns`` lists the indices of the offending design columns when they
    could be identified.
    """

    def __init__(self, message: str, columns: tuple[int, ...] = ()):
        super().__init__(message)
        self.columns = columns


class StructuralError(ScenarioEvalError, ValueError):
    """Inputs that must come from the same generation run do not line up."""


class ConfigError(ScenarioEvalError, ValueError):
    """A run configuration failed to parse or validate.

    ``context`` carries the section/field (and line, when known) that failed.
    """

    def __init__(self, message: str, context: str = ""):
        super().__init__(message if not context else f"{context}: {message}")
        self.context = context
