"""Exception types shared across the toolkit."""


class OgpfError(Exception):
    """Base class for all toolkit errors."""


class ParseError(OgpfError):
    """Instance file is missing, malformed, or carries unknown/invalid fields."""


class ValidationError(OgpfError):
    """An instance invariant is violated; message names the invariant and entity."""


class ConfigError(OgpfError):
    """Invalid configuration value (e.g. odd region count)."""


class ModelError(OgpfError):
    """A model, its area labels or a requested column substitution is
    structurally inconsistent."""


class SolverFailure(OgpfError):
    """A subproblem solver returned an unexpected status."""


class MissingBounds(OgpfError):
    """A pressure or flow bound needed as a big-M constant is not finite."""


class OutOfRange(OgpfError):
    """A recovered flow lies outside the approximated operating range."""


class CapExceeded(OgpfError):
    """Enumeration would exceed the configured configuration cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"enumeration requires {required} configurations, cap is {cap}"
        )


class AllInfeasible(OgpfError):
    """Every enumerated binary configuration is infeasible."""


class CertificationBug(OgpfError):
    """Internal assertion: a certified-optimal point failed the independent
    feasibility re-check. Signals an implementation error."""
