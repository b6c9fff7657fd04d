"""Exception types shared across the toolkit."""

from __future__ import annotations


class DimensionError(ValueError):
    """Operands have incompatible or unsupported shapes."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""


class RangeError(ArithmeticError):
    """Result left the representable floating-point range."""


class ConvergenceError(RuntimeError):
    """An iterative kernel exhausted its budget without converging."""


class IntegrationError(RuntimeError):
    """Time stepping failed (step-size underflow, budget exhausted).

    Carries ``t_fail``, the time at which integration stopped.
    """

    def __init__(self, message: str, t_fail: float):
        super().__init__(f"{message} (t = {t_fail:.6g})")
        self.t_fail = float(t_fail)


class DivergenceError(IntegrationError):
    """The integrated state became non-finite."""


class NotIdentifiableError(RuntimeError):
    """The observation-map Jacobian is rank deficient at the base point.

    Carries the rank diagnostics so callers can report them.
    """

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class DefectiveMatrixError(ValueError):
    """Operation requires a diagonalizable matrix with simple eigenvalues."""


class InputFormatError(ValueError):
    """A CSV/config input failed to parse; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
