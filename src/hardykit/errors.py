"""Shared exception types.

Every hardykit error derives from HardykitError so callers can catch the
whole family; the leaf classes distinguish bad inputs (domain / parameter /
hypothesis violations) from numerical breakdowns (convergence, quadrature).
check_keys is the one check of a key-value input.
"""

import math
import numbers


class HardykitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HardykitError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ParameterError(HardykitError, ValueError):
    """Structurally valid input whose parameter values are not allowed."""


class HypothesisError(ParameterError):
    """Parameter values violating a theorem hypothesis; names the predicate."""

    def __init__(self, predicate: str, detail: str = ""):
        self.predicate = predicate
        msg = f"hypothesis violated: {predicate}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PoleError(DomainError):
    """Evaluation requested exactly at a pole of a special function."""


class UnsupportedRangeError(DomainError):
    """Argument outside the supported box of a special-function routine."""


class ConvergenceError(HardykitError, ArithmeticError):
    """An iteration or series failed to converge within its budget."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature could not reach the requested tolerance."""


class ExprError(HardykitError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError, SyntaxError):
    """Parse failure, carrying 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class EvalError(ExprError, ArithmeticError):
    """Evaluation failure inside an expression; identifies the subexpression."""

    def __init__(self, message: str, fragment: str = ""):
        self.fragment = fragment
        if fragment:
            message = f"{message} in '{fragment}'"
        super().__init__(message)


class UnboundParameterError(EvalError):
    """A parameter referenced by the expression is missing from the binding."""


class UnsupportedDerivativeError(EvalError):
    """d/dt requested through a builtin with no derivative rule (gamma)."""


def is_finite_number(value) -> bool:
    """Whether value is a real number other than nan and +-inf."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


def check_keys(what: str, params: dict, optional: tuple, required: tuple = (),
               extra=()) -> None:
    """ParameterError naming each missing or unknown key of params (an
    ignored key would keep the default it was meant to change), each value
    that is not a finite number and each extra problem the caller found,
    with the keys what takes."""
    problems = [f"missing key {k!r}" for k in required if k not in params] + \
        [f"unknown key {k!r}" for k in params if k not in required + optional] + \
        [f"{k}={v!r} is not a finite number" for k, v in params.items()
         if not is_finite_number(v)] + list(extra)
    if problems:
        takes = ", ".join([k + " (required)" for k in required] + list(optional))
        raise ParameterError(f"{what}: {'; '.join(problems)}; it takes {takes}")
