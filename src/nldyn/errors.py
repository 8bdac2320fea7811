"""Exception types shared across the package."""

from __future__ import annotations


class NldynError(Exception):
    """Base class for every error raised by this package."""


class QuadratureError(NldynError):
    """Adaptive quadrature failed to converge within the depth budget."""


class DenominatorVanishingError(NldynError):
    """The g-integral in the nonlocal multiplier dropped below the guard."""

    def __init__(self, denominator: float, threshold: float):
        super().__init__(
            f"denominator {denominator:.6e} below guard {threshold:.6e}"
        )


class FieldError(NldynError):
    """Invalid atom field or step profile input, or two fields or profiles
    that cannot be compared (different weights, domains of different measure)."""


class NumericalFailureError(NldynError):
    """Integration produced a non-finite or region-violating state."""

    def __init__(self, message: str, t: float, values):
        self.t = t
        self.values = values
        super().__init__(f"{message} at t={t!r}")


class NotConvergedError(NldynError):
    """The trajectory is not close enough to stationary for this operation."""


class NoRootError(NldynError):
    """The monotone scalar equation has no root in the search bracket."""

    def __init__(self, message: str, value_range: tuple[float, float] | None = None):
        self.value_range = value_range
        if value_range is not None:
            message += f" (function range sampled: [{value_range[0]!r}, {value_range[1]!r}])"
        super().__init__(message)


class InfeasibleMeasureError(NldynError):
    """A predicted plateau measure exceeds the domain measure."""


class EvalDomainError(NldynError):
    """Expression evaluation hit a domain fault (log of non-positive, zero division)."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (node at offset {offset})")


class ConfigError(NldynError):
    """Invalid input: a run configuration file or override, an expression
    (its syntax error or unknown name, with the offset), a builtin model
    name, or a model that fails validation (with its witness point)."""
