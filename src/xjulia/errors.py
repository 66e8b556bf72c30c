"""Exception types shared across the package."""


class XjuliaError(Exception):
    """Base class for all package errors."""


class ConfigError(XjuliaError):
    """Invalid configuration input; carries the offending field name."""

    def __init__(self, field, message):
        self.field = field
        self.message = message
        super().__init__(f"config field {field!r}: {message}")


class ValidationError(XjuliaError):
    """A numerical contract failed (construction gate, residual check, ...)."""


class ConvergenceError(XjuliaError):
    """An iteration failed to converge; carries the worst residual seen."""

    def __init__(self, message, residual=None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (worst residual {residual:.3e})"
        super().__init__(message)


class NodeConvergenceError(ConvergenceError):
    """A quadrature node left (-1, 1) or broke the ordering; carries its index."""

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"node {index}: {message}")
