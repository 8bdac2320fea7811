"""Exception types shared across the package."""

from __future__ import annotations


class NldynError(Exception):
    """Base class for every error raised by this package."""


class UnknownModelError(NldynError):
    """Requested builtin model name is not in the catalogue."""

    def __init__(self, name: str, available: tuple[str, ...]):
        self.name = name
        self.available = available
        super().__init__(
            f"unknown model {name!r}; available: {', '.join(available)}"
        )


class QuadratureError(NldynError):
    """Adaptive quadrature failed to converge within the depth budget."""


class ModelValidationError(NldynError):
    """A nonlinearity pair violates one of its structural requirements."""

    def __init__(self, check: str, witness: float, detail: str = ""):
        self.check = check
        self.witness = witness
        msg = f"model validation failed: {check} (witness u={witness!r})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DenominatorVanishingError(NldynError):
    """The g-integral in the nonlocal multiplier dropped below the guard."""

    def __init__(self, denominator: float, threshold: float):
        self.denominator = denominator
        self.threshold = threshold
        super().__init__(
            f"denominator {denominator:.6e} below guard {threshold:.6e}"
        )


class FieldError(NldynError):
    """Invalid atom field construction or ingestion input."""


class PairingError(NldynError):
    """Two fields do not share the weight structure required to compare them."""


class DomainMismatchError(NldynError):
    """Two step profiles live on domains of different measure."""


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


class PredictionResidualError(NldynError):
    """A computed root does not satisfy its defining equation tightly enough."""


class InfeasibleMeasureError(NldynError):
    """A predicted plateau measure exceeds the domain measure."""


class ComparisonError(NldynError):
    """Predictions cannot be compared (mismatched hypotheses or sources)."""


class DissipationUnavailableError(NldynError):
    """No positive dissipation constant exists for this configuration."""


class ExprSyntaxError(NldynError):
    """Malformed expression text."""

    def __init__(self, offset: int, expected: set[str], found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        exp = ", ".join(sorted(expected))
        super().__init__(
            f"syntax error at offset {offset}: expected {exp}, found {found!r}"
        )


class UnknownIdentifierError(NldynError):
    """Expression references a name that is neither the variable nor a function."""

    def __init__(self, name: str, offset: int, known: tuple[str, ...]):
        self.name = name
        self.offset = offset
        self.known = known
        super().__init__(
            f"unknown identifier {name!r} at offset {offset}; "
            f"known names: {', '.join(known)}"
        )


class EvalDomainError(NldynError):
    """Expression evaluation hit a domain fault (log of non-positive, zero division)."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (node at offset {offset})")


class ConfigError(NldynError):
    """Invalid run configuration file or override."""
